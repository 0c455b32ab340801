"""Batch front end: configure, run, certify and sweep; plot-ready CSV/JSON.

Subcommands: ``solve | sweep | certify | kernels``.  Configuration is JSON
validated against the published schema (unknown keys rejected); presets
ship with the package and ``FRAFLOW_PRESET_DIR`` overrides the lookup.

Exit codes: 0 success, 1 error or failed certificate, 2 blow-up (an
expected outcome, not a failure), 64 malformed configuration, 66
unreadable trajectory dump.  All emitted CSV/JSON is deterministic for a
fixed config and seed: fixed column order, 17 significant digits, LF line
endings, no timestamps.
"""

import argparse
import concurrent.futures
import functools
import hashlib
import importlib.resources
import json
import os
import sys
from pathlib import Path

import jsonschema
import numpy as np

from . import certify as cert
from .convex import Quadratic, Space
from .kernels import TimeGrid, kernel_l1_gap, regularized_kernel, rl_pair, verify_sonine
from .plaplace import ExperimentSpec, Grid, run_experiment
from .solver import (
    BlowUpReport,
    DumpFormatError,
    ProblemSpec,
    SolverConfig,
    Trajectory,
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
def _validator():
    """Validator for the shipped schema, checked against its metaschema once per process.

    ``jsonschema.validate`` re-checks the schema on every call (about 23 ms,
    against about 0.2 ms for the validation itself).
    """
    text = importlib.resources.files("fraflow").joinpath("config_schema.json").read_text()
    schema = json.loads(text)
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


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
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # the override goes through the schema like a seed in the file would
    if seed is not None:
        config["seed"] = seed
    # the error jsonschema.validate would raise, so messages are unchanged
    error = jsonschema.exceptions.best_match(_validator().iter_errors(config))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}") from error
    return config


def _solver_config(config):
    return SolverConfig(**config.get("solver", {}))


def _grid(config, default_steps=512, default_horizon=1.0):
    block = config.get("grid", {})
    return TimeGrid(block.get("horizon", default_horizon), block.get("steps", default_steps))


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


def cmd_solve(config, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    prob = config.get("problem", {})
    kind = prob.get("kind", "scalar-quadratic")
    solver_config = _solver_config(config)
    slack_coeff = config.get("chain_rule_slack", DEFAULT_CHAIN_SLACK)
    diagnostics = {"mode": "solve", "problem_kind": kind}

    if kind == "scalar-quadratic":
        alpha = config.get("kernel", {}).get("alpha", 0.5)
        grid = _grid(config, default_steps=2048)
        pair = rl_pair(alpha)
        phi1 = Quadratic(Space(1))
        spec = ProblemSpec(phi1, None, pair, np.array([prob.get("u0", 1.0)]), None, grid)
        result = solve_dc_flow(spec, solver_config)
        if isinstance(result, BlowUpReport):
            diagnostics.update(
                {
                    "verdict": "blew_up",
                    "t_star": result.time - grid.tau,
                    "last_node": result.node,
                    "reason": result.reason,
                    "E_T": result.e_t,
                }
            )
            _write_json(out / "diagnostics.json", diagnostics)
            return EXIT_BLOWUP
        traj = result
    else:
        exp_spec = _build_experiment(config)
        exp = run_experiment(exp_spec, solver_config, keep_trajectory=True)
        diagnostics["regime"] = exp.regime.to_dict()
        pair = rl_pair(exp_spec.alpha)
        from .plaplace import dirichlet_p_energy

        phi1 = dirichlet_p_energy(exp_spec.grid, exp_spec.p)
        if not exp.completed:
            diagnostics.update(
                {
                    "verdict": "blew_up",
                    "t_star": exp.t_star,
                    "t_star_uncertainty": exp.tau,
                    "E_T": exp.e_t,
                    "sup_energy1": exp.sup_energy1,
                }
            )
            _write_json(out / "diagnostics.json", diagnostics)
            return EXIT_BLOWUP
        traj = exp.trajectory

    trajectory_to_csv(traj, out / "trajectory.csv")
    save_state_dump(traj, out / "state.bin")
    chain = cert.check_chain_rule(traj, phi1, pair, slack_coeff=slack_coeff)
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
    format), error rows, and lines that do not parse or lack ``config``,
    ``key`` or ``row`` are not replayed; their rows are recomputed.
    """
    done = {}
    if not ledger_path.exists():
        return done
    with open(ledger_path) as fh:
        for line in fh:
            try:
                entry = json.loads(line)
                config, key, row = entry["config"], tuple(entry["key"]), entry["row"]
                replay = config == digest and not row["verdict"].startswith("error:")
            except (ValueError, TypeError, KeyError, AttributeError):
                continue
            if replay:
                done[key] = row
    return done


def _drop_torn_tail(path):
    """Cut a last line that lacks its newline: what a sweep killed mid-write leaves."""
    if not path.exists():
        return
    with open(path, "r+b") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def _sweep_row(args):
    config, alpha, q, amplitude = args
    base = _build_experiment(config)
    spec = base.with_amplitude(amplitude)
    spec.alpha = alpha
    spec.q = q
    result = run_experiment(spec, _solver_config(config))
    return result.to_row()


def cmd_sweep(config, out_dir, jobs=None):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tuples = _sweep_tuples(config)
    ledger_path = out / "sweep_ledger.jsonl"
    digest = _config_digest(config)
    # the next entry must start on a line of its own
    _drop_torn_tail(ledger_path)
    done = _load_ledger(ledger_path, digest)

    pending = [t for t in tuples if t not in done]
    jobs = jobs or os.cpu_count() or 1
    results = dict(done)
    if pending:
        with open(ledger_path, "a", newline="\n") as ledger:
            if jobs > 1 and len(pending) > 1:
                with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {pool.submit(_sweep_row, (config, *t)): t for t in pending}
                    for fut in concurrent.futures.as_completed(futures):
                        key = futures[fut]
                        results[key] = _ledger_row(ledger, digest, key, fut.result)
            else:
                for t in pending:
                    results[t] = _ledger_row(ledger, digest, t, functools.partial(_sweep_row, (config, *t)))

    rows = [results[t] for t in tuples]
    _write_rows_csv(out / "sweep.csv", SWEEP_COLUMNS, rows)
    return EXIT_OK


def _ledger_row(ledger, digest, key, compute):
    """Compute one row, append its ledger entry and return the row.

    A row that raises becomes an ``error: <type>`` row (never replayed); its
    ledger entry also keeps the exception message.
    """
    entry = {"config": digest, "key": list(key)}
    try:
        entry["row"] = compute()
    except Exception as exc:  # row failures recorded, sweep continues
        entry["row"] = _error_row(key, exc)
        entry["message"] = str(exc)
    ledger.write(json.dumps(entry) + "\n")
    return entry["row"]


def _error_row(key, exc):
    row = {c: "" for c in SWEEP_COLUMNS}
    row["verdict"] = f"error: {type(exc).__name__}"
    row["alpha"], row["q"], row["amplitude"] = key
    return row


# ---------------------------------------------------------------------------
# certify


def cmd_certify(config, out_dir):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    block = config.get("certify", {})
    bundle = []
    failed = 0

    dump = block.get("dump")
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
        grid = data["grid"]
        states = data["states"]
        weight = data["space_weight"]
        slack_coeff = block.get("slack_coeff", DEFAULT_CHAIN_SLACK)
        traj = Trajectory(
            grid=grid,
            states=states,
            xi=np.zeros_like(states),
            eta=np.zeros_like(states),
            space_weight=weight,
            energy1=np.zeros(grid.steps + 1),
            envelope2=np.zeros(grid.steps + 1),
            norms=np.sqrt(weight * np.sum(states**2, axis=tuple(range(1, states.ndim)))),
            residuals=np.zeros(grid.steps + 1),
            e_t=0.0,
            alpha=alpha,
        )
        bundle.append(verify_sonine(pair, grid).to_dict())
        bundle.append(cert.check_ab_inequality(traj, pair, slack_coeff=slack_coeff).to_dict())
        bundle.append(continuity_modulus(traj, pair, slack_coeff=slack_coeff).to_dict())

    suites = block.get("suites", [])
    if suites:
        instances = block.get("instances", 100)
        rng = np.random.default_rng(config.get("seed", 0))
        runners = {
            "gronwall-linear": lambda: cert.gronwall_linear(cert.random_linear_instance(rng)),
            "gronwall-local": lambda: cert.gronwall_local(*cert.random_local_instance(rng)),
            "gronwall-small": lambda: cert.gronwall_small(*cert.random_small_instance(rng)),
        }
        for suite in suites:
            statuses = [runners[suite]().to_dict() for _ in range(instances)]
            certified = sum(1 for s in statuses if s["status"] == "pass")
            bundle.append(
                {
                    "lemma": suite,
                    "status": "pass" if certified == instances else "fail",
                    "certified": certified,
                    "instances": instances,
                }
            )

    failed = sum(1 for entry in bundle if entry["status"] == "fail")
    rejected = sum(1 for entry in bundle if entry["status"] == "reject")
    payload = {
        "mode": "certify",
        "certificates": bundle,
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
