"""Dead-code gate: every public definition of ``fraflow`` has a caller.

A public top-level function or class must be named, as a word, by another
``fraflow`` module, by its own module outside its definition, or by the
benchmark harness (``perfbench/*.py``).  A public method must be reached as
``.name`` from the same places.  Tests do not count: code that only the
tests reach is deleted, or listed in ``KEPT`` with the reason it stays.

The scan is textual, so a name that also occurs in an unrelated string or
attribute passes; it finds dead code, it does not prove that code is live.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fraflow").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    # the paper's Lipschitz perturbation construction, tested against the
    # coupled route (the solve builds the PicardLog it returns)
    "solve_lipschitz_perturbed",
    "LipschitzPerturbation",
    "PicardLog.geometric",
    # the tests' fake kernel: the classical limit and a non-Sonine pair
    "constant_kernel",
    # the reference the prox-optimality tests check the resolvents against
    "PowerPotential.gradient",
    "SmoothFunctional.gradient",
}


def definitions(tree):
    """(name, pattern, first line, last line) of each public definition.

    Methods are named ``Class.method`` and looked for as ``.method``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, rf"\b{node.name}\b", node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", rf"\.{item.name}\b", item.lineno, item.end_lineno


def uncalled():
    """Names of the public definitions that nothing outside the tests reaches."""
    texts = {path: path.read_text() for path in MODULES + HARNESS}
    names = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for name, pattern, first, last in definitions(ast.parse(texts[path])):
            own = "\n".join(lines[: first - 1] + lines[last:])
            others = [text for other, text in texts.items() if other != path]
            if not any(re.search(pattern, text) for text in [own, *others]):
                names.append(name)
    return names


def test_every_public_definition_has_a_caller():
    assert [name for name in uncalled() if name not in KEPT] == []


def test_kept_entries_are_defined_and_uncalled():
    # an entry that gains a caller, or loses its definition, leaves the list
    assert sorted(KEPT) == sorted(name for name in uncalled() if name in KEPT)
