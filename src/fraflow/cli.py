"""Batch front end: configure, run, certify and sweep; plot-ready CSV/JSON.

Subcommands: ``solve | sweep | certify | kernels``.  Configuration is JSON
validated against the published schema, ``config_schema.json`` (unknown
keys rejected), by a small in-tree checker that interprets it and reports
the error ``jsonschema`` would; presets ship with the package and
``FRAFLOW_PRESET_DIR`` overrides the lookup.

Exit codes: 0 success, 1 error or failed certificate, 2 blow-up (an
expected outcome, not a failure), 64 malformed configuration, coupled
mode whose Picard map does not contract included, 66 unreadable
trajectory dump.  All emitted CSV/JSON is deterministic for a
fixed config and seed: fixed column order, 17 significant digits, LF line
endings, no timestamps.
"""

import argparse
import functools
import hashlib
import importlib.resources
import json

# argparse's first gettext call imports locale; loaded here, it is paid at
# start-up and not inside a command's run
import locale  # noqa: F401
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import certify as cert
from .convex import Quadratic, Space
from .kernels import Certificate, TimeGrid, kernel_l1_gap, regularized_kernel, rl_pair, verify_sonine
from .plaplace import ExperimentResult, ExperimentSpec, Grid, run_experiment, run_experiments
from .solver import (
    DumpFormatError,
    ProblemSpec,
    SolverConfig,
    check_coupling,
    continuity_modulus,
    load_state_dump,
    save_state_dump,
    solve_dc_flow,
    trajectory_to_csv,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BLOWUP = 2
EXIT_USAGE = 64
EXIT_NOINPUT = 66

# chain-rule slack coefficient applied when a config does not pin one;
# covers the shipped presets with margin (fitted on refinement ladders in
# tests/test_certify.py, worst family coefficient ~0.21)
DEFAULT_CHAIN_SLACK = 0.5


class ConfigError(ValueError):
    pass


@functools.lru_cache(maxsize=None)
def _schema():
    """The shipped config schema, read once per process.

    Tier-1 tests check it against its metaschema and that it uses no
    keyword that ``_violations`` does not interpret.
    """
    return json.loads(importlib.resources.files("fraflow").joinpath("config_schema.json").read_text())


def _is_type(x, kind):
    """The JSON Schema type test: a bool is no number, an integral float is an integer."""
    if isinstance(x, bool):
        return False
    if kind == "integer" and isinstance(x, float):
        return x.is_integer()
    return isinstance(x, {"object": dict, "array": list, "string": str, "number": (int, float), "integer": int}[kind])


def _violations(schema, x, path=()):
    """``(path, message)`` of each rule of ``schema`` that ``x`` breaks.

    The messages and their order are those of ``jsonschema``'s
    ``iter_errors`` for the keywords the shipped schema uses: the schema's
    keyword order, its ``properties`` order, array items in order.
    """
    for keyword, rule in schema.items():
        if keyword == "type":
            if not _is_type(x, rule):
                yield path, f"{x!r} is not of type {rule!r}"
        elif keyword == "enum":
            # the enums hold strings and integers, which True and False never equal
            if isinstance(x, bool) or x not in rule:
                yield path, f"{x!r} is not one of {rule!r}"
        elif isinstance(x, dict):
            if keyword == "required":
                for name in rule:
                    if name not in x:
                        yield path, f"{name!r} is a required property"
            elif keyword == "properties":
                for name, sub in rule.items():
                    if name in x:
                        yield from _violations(sub, x[name], (*path, name))
            elif keyword == "additionalProperties":
                extras = sorted(set(x) - set(schema.get("properties", ())))
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({', '.join(map(repr, extras))} {verb} unexpected)"
        elif isinstance(x, list):
            if keyword == "items":
                for i, item in enumerate(x):
                    yield from _violations(rule, item, (*path, i))
            elif keyword == "minItems" and len(x) < rule:
                yield path, f"{x!r} {'should be non-empty' if rule == 1 else 'is too short'}"
        elif _is_type(x, "number"):
            if keyword == "minimum" and x < rule:
                yield path, f"{x!r} is less than the minimum of {rule!r}"
            elif keyword == "exclusiveMinimum" and x <= rule:
                yield path, f"{x!r} is less than or equal to the minimum of {rule!r}"
            elif keyword == "exclusiveMaximum" and x >= rule:
                yield path, f"{x!r} is greater than or equal to the maximum of {rule!r}"


def _config_error(config):
    """The message of the error ``jsonschema.exceptions.best_match`` picks, or None.

    Without ``anyOf``/``oneOf`` its relevance order is the shallowest path,
    then the greatest path, then the first error found.  (Its last
    tie-break, whether the instance matches the failing subschema's type,
    never splits a tie here: every error at one path comes from the one
    subschema at that path.)
    """
    best = max(_violations(_schema(), config), key=lambda error: (-len(error[0]), error[0]), default=None)
    return None if best is None else best[1]


def _integers(schema, x):
    """``x`` with each integral float at an ``"type": "integer"`` position of ``schema`` made an int.

    The schema accepts 16.0 as an integer, as JSON Schema does; the code
    that reads these values (grid sizes, loop bounds, seeds) needs an int.
    """
    if isinstance(x, float) and schema.get("type") == "integer":
        return int(x)
    if isinstance(x, dict):
        properties = schema.get("properties", {})
        return {name: _integers(properties.get(name, {}), value) for name, value in x.items()}
    if isinstance(x, list):
        return [_integers(schema.get("items", {}), item) for item in x]
    return x


def _reject_constant(name):
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def _finite_float(text):
    """``float(text)``, as ``json.loads`` parses a number, rejecting one that overflows."""
    x = float(text)
    if not math.isfinite(x):
        raise ConfigError(f"config rejected: {text} overflows to {x}")
    return x


def _finite_int(text):
    """``int(text)``, rejecting an integer beyond the float range as ``_finite_float`` does."""
    _finite_float(text)
    return int(text)


def load_config(path=None, preset=None, seed=None):
    if (path is None) == (preset is None):
        raise ConfigError("exactly one of --config or --preset is required")
    if preset is not None:
        base = os.environ.get("FRAFLOW_PRESET_DIR")
        if base:
            candidate = Path(base) / f"{preset}.json"
        else:
            candidate = importlib.resources.files("fraflow").joinpath("presets", f"{preset}.json")
        try:
            text = candidate.read_text()
        except (FileNotFoundError, OSError) as exc:
            raise ConfigError(f"preset {preset!r} not found: {exc}") from exc
    else:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        # NaN and Infinity are no JSON, though json.loads reads them; a
        # number such as 1e400, or 1 and 400 zeros, is JSON, but float()
        # makes it infinite
        config = json.loads(text, parse_constant=_reject_constant, parse_float=_finite_float, parse_int=_finite_int)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # the override goes through the schema like a seed in the file would
    # (a config that is no object is rejected there, seed or not)
    if seed is not None and isinstance(config, dict):
        config["seed"] = seed
    message = _config_error(config)
    if message is not None:
        raise ConfigError(f"config rejected: {message}")
    return _integers(_schema(), config)


def _solver_config(config):
    return SolverConfig(**config.get("solver", {}))


def _grid(config, default_steps=512):
    block = config.get("grid", {})
    return TimeGrid(block.get("horizon", 1.0), block.get("steps", default_steps))


def _check_coupling(config, alphas):
    """Reject coupled mode where its Picard map does not contract at one of ``alphas``.

    The step's mu, and so kappa, depends on alpha (``solver.check_coupling``);
    the check runs before anything is written.
    """
    solver_config = _solver_config(config)
    if solver_config.coupling != "coupled":
        return
    grid = _grid(config)
    for alpha in alphas:
        try:
            check_coupling(solver_config, rl_pair(alpha), grid)
        except ValueError as exc:
            raise ConfigError(f"alpha = {alpha:g}: {exc}") from exc


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_json(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows_csv(path, columns, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


# ---------------------------------------------------------------------------
# solve


def _build_experiment(config):
    prob = config.get("problem", {})
    grid_block = config.get("grid", {})
    return ExperimentSpec(
        p=prob.get("p", 2.0),
        q=prob.get("q", 4.0),
        alpha=config.get("kernel", {}).get("alpha", 0.5),
        grid=Grid(prob.get("dim", 1), prob.get("m", 32)),
        amplitude=prob.get("amplitude", 1.0),
        u0_profile=prob.get("u0_profile", "sine"),
        f_profile=prob.get("f_profile", "zero"),
        f_amplitude=prob.get("f_amplitude", 0.0),
        horizon=grid_block.get("horizon", 1.0),
        steps=grid_block.get("steps", 512),
    )


def _blowup_diagnostics(traj):
    """The diagnostics of a row that blew up, from its Trajectory."""
    return {
        "verdict": "blew_up",
        "reason": traj.reason,
        "last_node": traj.node,
        "t_star": traj.t_star,
        "t_star_uncertainty": traj.grid.tau,
        "E_T": traj.e_t,
        "sup_energy1": traj.sup_energy1,
    }


def cmd_solve(config, out_dir):
    prob = config.get("problem", {})
    kind = prob.get("kind", "scalar-quadratic")
    if kind == "p-laplace":
        _check_coupling(config, [config.get("kernel", {}).get("alpha", 0.5)])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    solver_config = _solver_config(config)
    slack_coeff = config.get("chain_rule_slack", DEFAULT_CHAIN_SLACK)
    diagnostics = {"mode": "solve", "problem_kind": kind}

    if kind == "scalar-quadratic":
        alpha = config.get("kernel", {}).get("alpha", 0.5)
        grid = _grid(config, default_steps=2048)
        pair = rl_pair(alpha)
        spec = ProblemSpec(Quadratic(Space(1)), None, pair, np.array([prob.get("u0", 1.0)]), None, grid)
        traj = solve_dc_flow(spec, solver_config)
    else:
        exp_spec = _build_experiment(config)
        exp = run_experiment(exp_spec, solver_config)
        diagnostics["regime"] = exp.regime.to_dict()
        pair = rl_pair(exp_spec.alpha)
        traj = exp.trajectory

    if traj.reason is not None:
        diagnostics.update(_blowup_diagnostics(traj))
        _write_json(out / "diagnostics.json", diagnostics)
        return EXIT_BLOWUP
    trajectory_to_csv(traj, out / "trajectory.csv")
    save_state_dump(traj, out / "state.bin")
    chain = cert.check_chain_rule(traj, pair, slack_coeff=slack_coeff)
    _write_json(out / "chain_rule.json", chain.to_dict())
    diagnostics.update(
        {
            "verdict": "completed",
            "E_T": traj.e_t,
            "sup_energy1": traj.sup_energy1,
            "final_norm": float(traj.norms[-1]),
            "max_residual": float(np.max(traj.residuals)),
            "alpha": traj.alpha,
            "chain_rule": chain.to_dict(),
        }
    )
    _write_json(out / "diagnostics.json", diagnostics)
    return EXIT_OK if chain.passed else EXIT_ERROR


# ---------------------------------------------------------------------------
# sweep


SWEEP_COLUMNS = ["p", "q", "alpha", "m", "N", "amplitude", "verdict", "t_star", "sup_energy1", "E_T", "C_emp"]


def _sweep_tuples(config):
    block = config.get("sweep", {})
    alphas = block.get("alphas", [config.get("kernel", {}).get("alpha", 0.5)])
    qs = block.get("qs", [config.get("problem", {}).get("q", 4.0)])
    amplitudes = block.get("amplitudes", [config.get("problem", {}).get("amplitude", 1.0)])
    return [(a, q, amp) for a in alphas for q in qs for amp in amplitudes]


def _config_digest(config):
    """Digest of the resolved config without the swept value lists.

    A ledger row is reused only under the same digest, so changing any
    other setting (m, steps, p, solver knobs, ...) recomputes every row,
    while extending the swept lists reuses the rows already computed.
    """
    fixed = dict(config)
    fixed.pop("sweep", None)
    canonical = json.dumps(fixed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _load_ledger(ledger_path, digest):
    """Rows of earlier runs of this config, keyed by (alpha, q, amplitude).

    Entries of another config, entries without a digest (the old ledger
    format), error rows, rows that are no object or lack one of
    ``SWEEP_COLUMNS``, keys that hold a list or an object, and lines that
    do not parse or lack ``config``, ``key`` or ``row`` are not replayed;
    their rows are recomputed.
    """
    done = {}
    if not ledger_path.exists():
        return done
    with open(ledger_path) as fh:
        for line in fh:
            try:
                entry = json.loads(line)
                config, key, row = entry["config"], tuple(entry["key"]), entry["row"]
                if config == digest and isinstance(row, dict) and row.keys() >= set(SWEEP_COLUMNS) and not row["verdict"].startswith("error:"):
                    done[key] = row
            except (ValueError, TypeError, KeyError, AttributeError):
                continue
    return done


def _drop_torn_tail(path):
    """Cut a last line that lacks its newline: what a sweep killed mid-write leaves."""
    if not path.exists():
        return
    with open(path, "r+b") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _sweep_group(args):
    """Solve the rows ``(q, amplitude)`` of one alpha as one batch.

    Returns one ``(row, message)`` pair per row: the sweep row, and for a
    row that failed the exception message (None otherwise).
    """
    config, alpha, keys = args
    base = _build_experiment(config)
    base.alpha = alpha
    specs = []
    for q, amplitude in keys:
        base.q = q
        specs.append(base.with_amplitude(amplitude))
    pairs = []
    for key, outcome in zip(keys, run_experiments(specs, _solver_config(config))):
        if isinstance(outcome, ExperimentResult):
            pairs.append((outcome.to_row(), None))
        else:
            pairs.append((_error_row((alpha, *key), outcome), str(outcome)))
    return pairs


def cmd_sweep(config, out_dir, jobs=None):
    """Run the sweep and write ``sweep.csv``, resuming from the ledger.

    The pending rows are grouped by alpha: every other setting but q and
    the amplitude is shared by the whole sweep, so the rows of one alpha
    go through one batched solve (``plaplace.run_experiments``), in which
    each step evaluates the potentials of all its q in one Yosida call,
    one exponent per row (``convex.yosida_rows``).  A sweep keeps no
    trajectory, so a row stores no path but its history input;
    ``solver.BATCH_BYTES`` bounds the whole-path buffers of one batch, and
    larger batches march in chunks (the 18 rows of three q and six
    amplitudes at m = 32, N = 512 march as 15 and 3).  A row leaves its
    batch at its own exit with the outcome it gets when run alone,
    ``error:`` rows included.  The ledger gets one entry per row, written
    when the row's batch is done.  With ``jobs`` > 1 each alpha's q values
    are dealt whole to at most ``jobs`` batches, and the batches go to a
    process pool of at most one worker per batch; ``jobs`` below 1 is a
    usage error.
    """
    if config.get("problem", {}).get("kind", "p-laplace") != "p-laplace":
        raise ConfigError("a sweep runs the p-laplace problem only")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    tuples = _sweep_tuples(config)
    _check_coupling(config, dict.fromkeys(alpha for alpha, _, _ in tuples))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ledger_path = out / "sweep_ledger.jsonl"
    digest = _config_digest(config)
    # the next entry must start on a line of its own
    _drop_torn_tail(ledger_path)
    done = _load_ledger(ledger_path, digest)

    groups = {}
    for t in tuples:
        if t not in done:
            groups.setdefault(t[0], []).append(t[1:])
    jobs = jobs or os.cpu_count() or 1
    batches = []  # (alpha, rows): the q values of an alpha dealt to at most jobs batches
    for alpha, keys in groups.items():
        qs = list(dict.fromkeys(q for q, _ in keys))
        deal = min(jobs, len(qs))
        batches.extend((alpha, [key for key in keys if qs.index(key[0]) % deal == i]) for i in range(deal))
    results = dict(done)
    if batches:
        with open(ledger_path, "a", newline="\n") as ledger:
            if jobs > 1 and len(batches) > 1:
                # imported here: with logging it costs every command's
                # start-up about 5 ms, and only this pool uses it
                import concurrent.futures

                # the pool starts all its workers at the first submit
                with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(batches))) as pool:
                    futures = {pool.submit(_sweep_group, (config, *batch)): batch for batch in batches}
                    for fut in concurrent.futures.as_completed(futures):
                        _ledger_group(ledger, digest, *futures[fut], fut.result, results)
            else:
                for batch in batches:
                    _ledger_group(ledger, digest, *batch, functools.partial(_sweep_group, (config, *batch)), results)

    rows = [results[t] for t in tuples]
    _write_rows_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    return EXIT_OK


def _ledger_group(ledger, digest, alpha, keys, compute, results):
    """Compute the rows ``(q, amplitude)`` of one alpha, append one ledger entry per row.

    A row that fails becomes an ``error: <type>`` row (never replayed); its
    ledger entry also keeps the exception message.  When the batch as a
    whole raises, every row of it gets that error.
    """
    try:
        pairs = compute()
    except Exception as exc:  # batch failures recorded, sweep continues
        pairs = [(_error_row((alpha, *key), exc), str(exc)) for key in keys]
    for key, (row, message) in zip(keys, pairs):
        entry = {"config": digest, "key": [alpha, *key], "row": row}
        if message is not None:
            entry["message"] = message
        ledger.write(json.dumps(entry) + "\n")
        results[(alpha, *key)] = row


def _error_row(key, exc):
    row = {c: "" for c in SWEEP_COLUMNS}
    row["verdict"] = f"error: {type(exc).__name__}"
    row["alpha"], row["q"], row["amplitude"] = key
    return row


# ---------------------------------------------------------------------------
# certify


def cmd_certify(config, out_dir):
    block = config.get("certify", {})
    dump = block.get("dump")
    suites = block.get("suites", [])
    # an empty bundle would pass with nothing certified
    if not (dump or suites):
        raise ConfigError("certify needs a dump or at least one suite")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle = []

    if dump:
        try:
            data = load_state_dump(dump)
        except (DumpFormatError, OSError) as exc:
            print(f"fraflow certify: {exc}", file=sys.stderr)
            return EXIT_NOINPUT
        alpha = data["alpha"]
        if alpha is None:
            print("fraflow certify: dump carries no Riemann-Liouville tag", file=sys.stderr)
            return EXIT_NOINPUT
        pair = rl_pair(alpha)
        states, grid, weight = data["states"], data["grid"], data["space_weight"]
        slack_coeff = block.get("slack_coeff", DEFAULT_CHAIN_SLACK)
        bundle.append(verify_sonine(pair, grid))
        bundle.append(cert.check_ab_inequality(states, grid, weight, pair, slack_coeff=slack_coeff))
        bundle.append(continuity_modulus(states, grid, weight, pair, slack_coeff=slack_coeff))

    if suites:
        instances = block.get("instances", 100)
        rng = np.random.default_rng(config.get("seed", 0))
        runners = {
            "gronwall-linear": lambda: cert.gronwall_linear(cert.random_linear_instance(rng)),
            "gronwall-local": lambda: cert.gronwall_local(*cert.random_local_instance(rng)),
            "gronwall-small": lambda: cert.gronwall_small(*cert.random_small_instance(rng)),
        }
        for suite in suites:
            certified = sum(1 for _ in range(instances) if runners[suite]().passed)
            status = "pass" if certified == instances else "fail"
            bundle.append(Certificate(suite, status, {"certified": certified, "instances": instances}))

    failed = sum(1 for c in bundle if c.status == "fail")
    rejected = sum(1 for c in bundle if c.status == "reject")
    payload = {
        "mode": "certify",
        "certificates": [c.to_dict() for c in bundle],
        "failed": failed,
        "rejected": rejected,
    }
    _write_json(out / "certificates.json", payload)
    return EXIT_ERROR if failed else EXIT_OK


# ---------------------------------------------------------------------------
# kernels


def cmd_kernels(config, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    kernel_block = config.get("kernel", {})
    alphas = kernel_block.get("alphas", [kernel_block.get("alpha", 0.5)])
    indices = kernel_block.get("regularization_indices", [4, 16, 64])
    grid = _grid(config, default_steps=256)
    entries = []
    ok = True
    for alpha in alphas:
        pair = rl_pair(alpha)
        sonine = verify_sonine(pair, grid)
        ok = ok and sonine.passed
        fine = grid.refined(4)
        gaps = [kernel_l1_gap(regularized_kernel(pair.ell, n, fine), pair.k, fine) for n in indices]
        monotone = all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))
        ok = ok and monotone
        entries.append(
            {
                "alpha": alpha,
                "sonine": sonine.to_dict(),
                "regularization": {
                    "indices": list(indices),
                    "l1_gaps": gaps,
                    "strictly_decreasing": monotone,
                },
            }
        )
    _write_json(out / "kernels.json", {"mode": "kernels", "entries": entries})
    return EXIT_OK if ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# entry point


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fraflow", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=["solve", "sweep", "certify", "kernels"])
    parser.add_argument("--config", help="path to a JSON run configuration")
    parser.add_argument("--preset", help="name of a shipped preset (see presets/)")
    parser.add_argument("--out", default="fraflow-out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override for randomized suites")
    parser.add_argument("--jobs", type=int, default=None, help="sweep worker count (default: cpu count)")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, args.preset, seed=args.seed)
    except ConfigError as exc:
        print(f"fraflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if config["mode"] != args.command:
        print(
            f"fraflow: config mode {config['mode']!r} does not match command {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_USAGE

    try:
        if args.command == "solve":
            return cmd_solve(config, args.out)
        if args.command == "sweep":
            return cmd_sweep(config, args.out, jobs=args.jobs)
        if args.command == "certify":
            return cmd_certify(config, args.out)
        return cmd_kernels(config, args.out)
    except ConfigError as exc:
        print(f"fraflow: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"fraflow: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
