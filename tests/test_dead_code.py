"""Dead-code gate: every public definition of ``fraflow`` has a caller.

A public top-level function or class must be named, as a word, by another
``fraflow`` module, by its own module outside its definition, or by the
benchmark harness (``perfbench/*.py``).  A public method must be reached as
``.name`` from the same places.  Tests do not count: code that only the
tests reach is deleted, or listed in ``KEPT`` with the reason it stays.

Comments and docstrings do not count either: a name they mention is no
caller.  The rest of the scan is textual, so a name that also occurs in an
unrelated string or attribute passes; it finds dead code, it does not
prove that code is live.

A public attribute that a method of a ``fraflow`` class sets on ``self``,
and a public field of a ``fraflow`` dataclass, must be read: loaded as
``.name`` in a ``fraflow`` module, or named by a ``getattr`` of the
harness, which reads the results of the calls it traces that way (its
plain attribute loads are on its own objects, such as ``Path.name``).
A field whose name another class also reads (``.grid``) passes here too.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "fraflow").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))

KEPT = {
    # the reference the prox-optimality tests check the resolvents against
    "PowerPotential.gradient",
    "SmoothFunctional.gradient",
}

KEPT_ATTRIBUTES = {
    # the data of the stall the exception reports, for a caller that handles it
    "ProxNonconvergence.iterations",
    "ProxNonconvergence.residual",
}

KEPT_FIELDS = {
    # theta (q-1)/(p-1): the side of the q < p* <=> theta (q-1)/(p-1) < 1
    # equivalence that the regime scans check
    "RegimeReport.theta_ratio",
    # s_n, the Volterra solution k_n is built from, checked against its closed form
    "RegularizedKernel.s",
    # whether k_n is nonincreasing and nonnegative, as the paper's k_n are
    "RegularizedKernel.monotone",
    # ||u(T)|| of a completed run, the one path value a lean (sweep) row keeps
    "ExperimentResult.final_norm",
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


# the tokens after which a string token starts a statement of its own
STATEMENT_START = (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT)


def code_only(text):
    """``text`` with its comments and docstrings blanked, every line in its place.

    A docstring is any string that makes up a statement of its own.
    """
    lines = text.splitlines(keepends=True)
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for i, tok in enumerate(tokens):
        bare_string = (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.COMMENT)
        )
        if tok.type != tokenize.COMMENT and not bare_string:
            continue
        (row, col), (end_row, end_col) = tok.start, tok.end
        for r in range(row, end_row + 1):
            line = lines[r - 1]
            lo = col if r == row else 0
            hi = end_col if r == end_row else len(line.rstrip("\r\n"))
            lines[r - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    return "".join(lines)


def uncalled():
    """Names of the public definitions that nothing outside the tests reaches."""
    sources = {path: path.read_text() for path in MODULES + HARNESS}
    texts = {path: code_only(source) for path, source in sources.items()}
    names = []
    for path in MODULES:
        lines = texts[path].splitlines()
        for name, pattern, first, last in definitions(ast.parse(sources[path])):
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


def attributes_set(tree):
    """(Class.attribute, attribute) of each public attribute a method sets on ``self``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    for sub in ast.walk(item):
                        if (
                            isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"
                            and not sub.attr.startswith("_")
                        ):
                            yield f"{node.name}.{sub.attr}", sub.attr


def attributes_read():
    """The attribute names the package loads, and the harness reads by ``getattr``."""
    read = set()
    for path in MODULES:
        read.update(node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    for path in HARNESS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "getattr" and len(node.args) > 1:
                if isinstance(node.args[1], ast.Constant):
                    read.add(node.args[1].value)
    return read


def unread():
    """Names of the public attributes that nothing outside the tests reads."""
    read = attributes_read()
    return sorted({name for path in MODULES for name, attr in attributes_set(ast.parse(path.read_text())) if attr not in read})


def test_every_public_attribute_is_read():
    # an entry that gains a reader, or loses its definition, leaves the list
    assert unread() == sorted(KEPT_ATTRIBUTES)


def is_dataclass(decorator):
    """``@dataclass`` or ``@dataclass(...)``."""
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def dataclass_fields(tree):
    """(Class.field, field) of each public field of a dataclass."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and not item.target.id.startswith("_"):
                    yield f"{node.name}.{item.target.id}", item.target.id


def unread_fields():
    """Names of the public dataclass fields that nothing outside the tests reads."""
    read = attributes_read()
    return sorted({name for path in MODULES for name, field in dataclass_fields(ast.parse(path.read_text())) if field not in read})


def test_every_dataclass_field_is_read():
    # an entry that gains a reader, or loses its definition, leaves the list
    assert unread_fields() == sorted(KEPT_FIELDS)


def test_dataclass_fields_are_found():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A:\n    x: int\n    _y: int = 0\n\n    def f(self):\n        return 1\n\n\n"
        "@dataclass\nclass B:\n    z: float\n\n\nclass C:\n    w: int\n"
    )
    assert sorted(dataclass_fields(tree)) == [("A.x", "x"), ("B.z", "z")]


def test_attributes_read_only_by_a_store_are_found():
    tree = ast.parse("class A:\n    def __init__(self, x):\n        self.x, self.y = x, 1\n        self._z = 2\n\n    def f(self):\n        return self.y\n")
    assert sorted(attributes_set(tree)) == [("A.x", "x"), ("A.y", "y")]


def test_comments_and_docstrings_are_no_callers():
    text = '"""Module doc naming ghost."""\n\n\ndef f():\n    """ghost again."""\n    return g  # ghost\n'
    blanked = code_only(text)
    assert "ghost" not in blanked
    assert blanked.splitlines()[5].rstrip() == "    return g"
    assert len(blanked.splitlines()) == len(text.splitlines())
