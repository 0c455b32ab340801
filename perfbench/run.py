"""Benchmark of the fraflow CLI: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload scalar-certify --seed 1 --seconds 36 --trace 0

Run from anywhere inside a source checkout; the program is imported from
``src/`` of the checkout this file sits in, nothing is installed.  Each
repetition is a fresh interpreter (``perfbench/child.py``) that runs the
workload's ``fraflow`` CLI stages through ``fraflow.cli.main``; repetitions
run back to back until ``--seconds`` have passed (at least
``MIN_REPETITIONS``).  Inputs come from ``--seed``; every repetition of a
run uses the same inputs and a fresh output directory.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the repetitions.  A shared 2-vCPU virtual machine runs everything, set-up
included, up to 1.5x slower for a minute at a time, which no number of
repetitions averages out.  So every repetition also times a fixed job that
does not use the program (``child.host_speed_probe``), and its set-up, wall
and CPU times are reported as if the probe had taken ``PROBE_REF_S``: at
the host's reference speed.  The measured times and probe times are kept in
the record.  Peak RSS is not scaled.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of BENCHMARK.json from the traced ones, unscaled; it also
checks that tracing leaves the CLI outputs byte identical and that the
recorded spans are closed, nested and inside the timed interval.  A layer
whose entry point no longer exists in the program is reported with
``"value": null`` and ``"absent": true``.

Human-readable lines go to stdout, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (environment,
every repetition, every failed operation) is written to
``.bench_build/perfbench/BENCH_<workload>_seed<seed>_trace<t>.json``.
"""

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPETITIONS = 3
MIN_SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 120
# the host-speed probe's time on the 2-vCPU x86-64 VM the bounds were set
# on, at its full speed; times are reported as if the host ran at that speed
PROBE_REF_S = 0.2


class Run:
    """One benchmark run: a workload, its seeded inputs and the repetitions."""

    def __init__(self, workload, seed, scale):
        self.workload = workload
        self.inputs = workloads.make_inputs(workload, seed, scale)
        self.work = ROOT / ".bench_build" / "perfbench" / f"run-{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        self.count = 0
        self.ops = []

    def child(self, stages=False, trace=False, environment=False):
        """Run one fresh interpreter; return (result dict or None, rep_dir)."""
        self.count += 1
        rep_dir = self.work / f"rep{self.count:03d}"
        rep_dir.mkdir(parents=True)
        plan = {
            "workload": self.workload,
            "inputs": self.inputs,
            "rep_dir": str(rep_dir),
            "stages": workloads.make_stages(self.workload, self.inputs, rep_dir) if stages else [],
            "trace": trace,
            "environment": environment,
            "result": str(rep_dir / "result.json"),
        }
        plan_path = rep_dir / "plan.json"
        plan_path.write_text(json.dumps(plan))
        cmd = [sys.executable, str(HERE / "child.py"), str(plan_path)]
        try:
            spawned = time.monotonic()
            proc = subprocess.run(
                cmd + [repr(spawned)], cwd=ROOT, env=self.env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            self.ops.append((f"child[{self.count}].finished", False))
            return None, rep_dir
        ok = proc.returncode == 0 and (rep_dir / "result.json").is_file()
        self.ops.append((f"child[{self.count}].exit", ok))
        if not ok:
            return None, rep_dir
        result = json.loads((rep_dir / "result.json").read_text())
        self.ops.extend((name, passed) for name, passed in result.get("ops", []))
        return result, rep_dir


class Budget:
    """Repeats a loop body at least ``minimum`` times, then while the next
    pass is expected to end within ``seconds`` of the start."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.start = time.monotonic()
        self.passes = 0

    def more(self, minimum):
        elapsed = time.monotonic() - self.start
        go = self.passes < minimum or elapsed * (self.passes + 1) / self.passes <= self.seconds
        self.passes += go
        return go


def _median(values):
    return statistics.median(values) if values else None


def _git_stamp():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
        if rev.returncode != 0:
            return {"rev": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
        return {"rev": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}
    except (OSError, subprocess.TimeoutExpired):
        return {"rev": None, "dirty": None}


def _outputs_identical(dir_a, dir_b):
    names = set(workloads.DETERMINISTIC_OUTPUTS)
    files = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.name in names)
    return bool(files) and all(
        (dir_b / rel).is_file() and filecmp.cmp(dir_a / rel, dir_b / rel, shallow=False) for rel in files
    )


def _at_reference_speed(result, key):
    return result[key] * PROBE_REF_S / result["probe_s"]


def measure_end_to_end(run, seconds):
    reps, setups = [], []
    clock = Budget(seconds)
    while clock.more(MIN_REPETITIONS):
        result, _ = run.child(stages=True)
        if result is not None:
            reps.append(result)
            setups.append(result)
    if not reps:
        return None, {}
    # set-up is sampled in every repetition; top up short runs
    while len(setups) < MIN_SETUP_SAMPLES:
        result, _ = run.child()
        if result is not None:
            setups.append(result)
    metrics = {
        "setup_s": _median([_at_reference_speed(r, "setup_s") for r in setups]),
        "wall_s": _median([_at_reference_speed(r, "wall_s") for r in reps]),
        "cpu_s": _median([_at_reference_speed(r, "cpu_s") for r in reps]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in reps]),
        "ml_max_err": _median([r["ml_max_err"] for r in reps if r["ml_max_err"] is not None]),
    }
    samples = {key: [r[key] for r in reps] for key in ("wall_s", "cpu_s", "peak_rss_mb", "probe_s")}
    samples["setup_s"] = [r["setup_s"] for r in setups]
    samples["setup_probe_s"] = [r["probe_s"] for r in setups]
    return metrics, samples


def measure_traced(run, seconds):
    untraced, traced = [], []
    clock = Budget(seconds)
    while clock.more(1):
        plain, plain_dir = run.child(stages=True)
        result, traced_dir = run.child(stages=True, trace=True)
        if plain is None or result is None:
            continue
        untraced.append(plain)
        traced.append(result)
        run.ops.append(("trace.outputs-identical", _outputs_identical(plain_dir, traced_dir)))
        problems = result["trace"]["problems"]
        run.ops.append(("trace.spans-consistent" + "".join(f" ({p})" for p in problems), not problems))
        shutil.rmtree(plain_dir)
        shutil.rmtree(traced_dir)
    if not traced:
        return None, {}
    names = set().union(*(r["trace"]["metrics"] for r in traced))
    metrics = {n: _median([r["trace"]["metrics"][n] for r in traced if n in r["trace"]["metrics"]]) for n in names}
    fastest = min(r["wall_s"] for r in traced) / min(r["wall_s"] for r in untraced)
    metrics["trace.overhead_frac"] = fastest - 1.0
    rows = [name for name, _ in traced[0]["ops"] if name.startswith("sweep.row[")]
    metrics["cli.sweep.rows"] = len(rows)
    metrics["cli.sweep.error_rows"] = sum(
        1 for name, passed in traced[0]["ops"] if name.startswith("sweep.row[") and not passed
    )
    errors = [r["ml_max_err"] for r in traced if r.get("ml_max_err") is not None]
    metrics["ml_max_err"] = _median(errors) if errors else 0.0
    detail = {
        "untraced_wall_s": [r["wall_s"] for r in untraced],
        "traced_wall_s": [r["wall_s"] for r in traced],
        "self_s": [r["trace"]["self_s"] for r in traced],
        "absent": traced[0]["trace"]["absent"],
    }
    return metrics, detail


def _target(name):
    best = ""
    for prefix in tracer.LAYER_TARGETS:
        if (name == prefix or name.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return tracer.LAYER_TARGETS.get(best, "")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SIZES), default="full", help="tiny: self-test sizes")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fraflow" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no fraflow source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # a terminated run still kills and waits for its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run = Run(args.workload, args.seed, args.scale)
    try:
        warm, _ = run.child(environment=True)  # compiles bytecode, fills the page cache
        if warm is None:
            print("perfbench: the program does not import; see the error above", file=sys.stderr)
            return 1
        run.ops.clear()
        if args.trace:
            metrics, detail = measure_traced(run, args.seconds)
        else:
            metrics, detail = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    if metrics is None:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1

    failed = sum(1 for _, passed in run.ops if not passed)
    attempted = len(run.ops)
    metrics["failed_frac"] = failed / attempted
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    emitted, missing = {}, []
    for entry in wanted:
        value = metrics.get(entry["name"])
        emitted[entry["name"]] = {"value": value, "unit": entry["unit"]}
        if value is None:
            missing.append(entry["name"])
            emitted[entry["name"]]["absent"] = True

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "git": _git_stamp(),
        "environment": warm["environment"],
        "inputs": run.inputs,
        "metrics": emitted,
        "missing": missing,
        "failed_ops": [name for name, passed in run.ops if not passed],
        "samples": detail,
    }
    out = ROOT / ".bench_build" / "perfbench" / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} scale={args.scale}")
    print("env " + json.dumps({**record["git"], **record["environment"]}, sort_keys=True))
    for name, entry in emitted.items():
        if name in missing:
            print(f"  {name:<42} {'-':<14} {entry['unit']:<6} absent")
            continue
        if args.trace:
            note = _target(name)
        else:
            values = detail[name]
            note = f"median of {len(values)}"
            if name != "peak_rss_mb":
                note += f" at the probe's reference speed (measured median {statistics.median(values):.4g})"
        print(f"  {name:<42} {entry['value']:<14.6g} {entry['unit']:<6} {note}")
    print(f"  {failed}/{attempted} operations failed")
    if not args.trace and metrics["ml_max_err"] is not None:
        print(f"  {'ml_max_err':<42} {metrics['ml_max_err']:<14.6g} rel    (gate {run.inputs['ml_tol']:g})")
    for name in record["failed_ops"]:
        print(f"  FAILED {name}")
    for name in detail.get("absent", []) if args.trace else []:
        print(f"  absent layer {name}")
    print(f"record {out.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": emitted}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
