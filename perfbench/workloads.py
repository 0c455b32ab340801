"""Workloads of the fraflow benchmark: seeded inputs, CLI stages and gates.

Each workload is a list of ``fraflow`` CLI stages run in one fresh
interpreter.  The seed only changes the inputs (the scalar u0, the 2D
amplitude, the sweep amplitude jitter), never the sizes, so every seed does
the same amount of work.  The gates read the CLI outputs after the timed
interval; every stage, certificate, sweep row and gate is one operation.

Only the standard library is imported at module level, so the parent
process of the benchmark never loads numpy or the program.
"""

import csv
import json
import random
from pathlib import Path

WORKLOADS = ("scalar-certify", "plaplace-2d", "regime-sweep")

# "full" is what the benchmark measures; "tiny" runs the same stages at toy
# sizes for the harness self-test
SIZES = {
    "full": {
        "scalar_steps": 16384,
        "plaplace_m": 20,
        "plaplace_steps": 64,
        "sweep_m": 32,
        "sweep_steps": 512,
        "sweep_qs": [3.0, 4.0, 5.0],
        "sweep_amplitudes": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0],
        # measured 1.88e-3 at N=16384, dominated by the first step
        "ml_tol": 4e-3,
    },
    "tiny": {
        "scalar_steps": 64,
        "plaplace_m": 4,
        "plaplace_steps": 64,
        "sweep_m": 4,
        "sweep_steps": 64,
        "sweep_qs": [4.0],
        "sweep_amplitudes": [1.0, 16.0],
        "ml_tol": 5e-2,
    },
}

ALPHA = 0.5
CHAIN_SLACK = 0.5
MAX_RESIDUAL = 1e-10
ML_NODES = 32

# outputs the CLI promises to write deterministically; the traced run must
# reproduce them byte for byte
DETERMINISTIC_OUTPUTS = (
    "kernels.json",
    "trajectory.csv",
    "diagnostics.json",
    "chain_rule.json",
    "certificates.json",
    "sweep.csv",
)


def make_inputs(workload, seed, scale="full"):
    """Seeded inputs of one run; every repetition of the run reuses them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    size = SIZES[scale]
    if workload == "scalar-certify":
        # the scalar flow is linear, so u0 changes no step of the work
        return {"u0": rng.uniform(0.5, 2.0), "steps": size["scalar_steps"], "ml_tol": size["ml_tol"]}
    if workload == "plaplace-2d":
        # small-data regime: every amplitude in this band completes
        amplitude = rng.uniform(0.95, 1.05)
        return {"amplitude": amplitude, "m": size["plaplace_m"], "steps": size["plaplace_steps"]}
    # +-1% jitter keeps each amplitude well inside its verdict band
    amplitudes = [a * rng.uniform(0.99, 1.01) for a in size["sweep_amplitudes"]]
    return {
        "qs": size["sweep_qs"],
        "amplitudes": amplitudes,
        "m": size["sweep_m"],
        "steps": size["sweep_steps"],
    }


def _write_config(path, config):
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return path


def _stage(name, *argv):
    # every stage of these workloads must exit 0 (success)
    return {"name": name, "argv": [str(arg) for arg in argv], "expect": 0}


def make_stages(workload, inputs, rep_dir):
    """Write the configs of one repetition into ``rep_dir``; return its stages.

    A stage is ``{"name", "argv", "expect"}`` with ``argv`` as passed to
    ``fraflow.cli.main`` and ``expect`` the exit code it must return.  Every
    repetition writes into a fresh directory, so a sweep never resumes from
    an earlier repetition's ledger.
    """
    rep_dir = Path(rep_dir)
    if workload == "scalar-certify":
        solve = _write_config(
            rep_dir / "solve.json",
            {
                "mode": "solve",
                "problem": {"kind": "scalar-quadratic", "u0": inputs["u0"]},
                "kernel": {"alpha": ALPHA},
                "grid": {"horizon": 1.0, "steps": inputs["steps"]},
                "chain_rule_slack": CHAIN_SLACK,
            },
        )
        certify = _write_config(
            rep_dir / "certify.json",
            {"mode": "certify", "certify": {"dump": str(rep_dir / "solve" / "state.bin"), "slack_coeff": CHAIN_SLACK}},
        )
        return [
            _stage("kernels", "kernels", "--preset", "sonine-check", "--out", rep_dir / "kernels"),
            _stage("solve", "solve", "--config", solve, "--out", rep_dir / "solve"),
            _stage("certify", "certify", "--config", certify, "--out", rep_dir / "certify"),
        ]
    if workload == "plaplace-2d":
        solve = _write_config(
            rep_dir / "solve.json",
            {
                "mode": "solve",
                "problem": {
                    "kind": "p-laplace",
                    "p": 3.0,
                    "q": 4.0,
                    "dim": 2,
                    "m": inputs["m"],
                    "amplitude": inputs["amplitude"],
                    "u0_profile": "sine",
                },
                "kernel": {"alpha": ALPHA},
                "grid": {"horizon": 1.0, "steps": inputs["steps"]},
                "chain_rule_slack": CHAIN_SLACK,
            },
        )
        return [_stage("solve", "solve", "--config", solve, "--out", rep_dir / "solve")]
    sweep = _write_config(
        rep_dir / "sweep.json",
        {
            "mode": "sweep",
            "problem": {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": inputs["m"], "u0_profile": "sine"},
            "kernel": {"alpha": ALPHA},
            "grid": {"horizon": 1.0, "steps": inputs["steps"]},
            "sweep": {"qs": inputs["qs"], "amplitudes": inputs["amplitudes"]},
        },
    )
    # one job keeps every row in the measured process
    return [_stage("sweep", "sweep", "--config", sweep, "--out", rep_dir / "sweep", "--jobs", 1)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _passed(entry):
    return isinstance(entry, dict) and entry.get("status") == "pass"


def _check_solve(ops, out):
    diag = _read_json(out / "diagnostics.json")
    ops.append(("solve.completed", diag.get("verdict") == "completed"))
    ops.append(("solve.max_residual", diag.get("max_residual", float("inf")) <= MAX_RESIDUAL))
    ops.append(("cert.chain-rule", _passed(_read_json(out / "chain_rule.json"))))


def _check_sweep(ops, inputs, sweep_csv):
    with open(sweep_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    ops.append(("sweep.row_count", len(rows) == len(inputs["qs"]) * len(inputs["amplitudes"])))
    for row in rows:
        row_name = f"sweep.row[q={row['q']},A={float(row['amplitude']):.4g}]"
        ops.append((row_name, not row["verdict"].startswith("error")))
    rows.sort(key=lambda r: float(r["amplitude"]))
    for q in inputs["qs"]:
        verdicts = [r["verdict"] for r in rows if float(r["q"]) == q]
        # once an amplitude blows up, every larger one must too
        blew_up = [v == "blew_up" for v in verdicts]
        known = all(v in ("completed", "blew_up") for v in verdicts)
        ops.append((f"sweep.monotone[q={q:g}]", known and blew_up == sorted(blew_up)))


def ml_max_err(trajectory_csv, u0, alpha):
    """max_j |u_j - u0 E_alpha(-t_j^alpha)| / u0 over geometrically spaced nodes."""
    from fraflow.certify import scalar_flow_solution

    with open(trajectory_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    steps = len(rows) - 1
    nodes = sorted({round(steps ** (k / (ML_NODES - 1))) for k in range(ML_NODES)})
    times = [float(rows[j]["t"]) for j in nodes]
    # u0 > 0 and the flow decays monotonically, so the norm is the state
    values = [float(rows[j]["norm"]) for j in nodes]
    exact = scalar_flow_solution(alpha, times)
    return max(abs(v - u0 * e) / u0 for v, e in zip(values, exact))


def check(workload, inputs, rep_dir, exit_codes, stages):
    """Gates of one repetition: ``([(operation, passed), ...], ml_max_err or None)``."""
    rep_dir = Path(rep_dir)
    codes = list(exit_codes) + [None] * (len(stages) - len(exit_codes))
    ops = [(f"stage.{stage['name']}.exit", code == stage["expect"]) for stage, code in zip(stages, codes)]
    ml_err = None
    try:
        if workload == "scalar-certify":
            for entry in _read_json(rep_dir / "kernels" / "kernels.json")["entries"]:
                ops.append((f"cert.sonine[{entry['alpha']:g}]", _passed(entry["sonine"])))
                decreasing = entry["regularization"]["strictly_decreasing"]
                ops.append((f"kernels.regularization[{entry['alpha']:g}]", decreasing))
            _check_solve(ops, rep_dir / "solve")
            for entry in _read_json(rep_dir / "certify" / "certificates.json")["certificates"]:
                ops.append((f"cert.{entry.get('certificate', entry.get('lemma'))}", _passed(entry)))
            ml_err = ml_max_err(rep_dir / "solve" / "trajectory.csv", inputs["u0"], ALPHA)
            ops.append(("solve.ml_max_err", ml_err <= inputs["ml_tol"]))
        elif workload == "plaplace-2d":
            _check_solve(ops, rep_dir / "solve")
        else:
            _check_sweep(ops, inputs, rep_dir / "sweep" / "sweep.csv")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ops.append((f"outputs.readable ({type(exc).__name__}: {exc})", False))
    return [(name, bool(passed)) for name, passed in ops], ml_err
