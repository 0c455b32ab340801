"""Self-test of the benchmark harness at toy sizes (N=64, m=4, a 2-row sweep).

    python3 -m pytest -q perfbench/selftest.py

Not collected by the repository's test run (the file name does not match
``test_*.py``): every case starts several interpreters.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _tiny(workload, seed, trace):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    return _bench(*args, "--seconds", "1", "--scale", "tiny")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    proc = _tiny(workload, seed=7, trace=trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]
    record_line = next(line for line in lines if line.startswith("record "))
    record = json.loads((ROOT / record_line.split(" ", 1)[1]).read_text())
    assert record["missing"] == []
    assert record["environment"]["backend"] in ("numpy", "cython")
    if trace:
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        # one traced repetition at --seconds 1, so the medians are its values
        (self_s,) = record["samples"]["self_s"]
        wall = metrics["trace.wall_s"]
        # holds by construction of other.s; the gate that can fail is the span check
        assert abs(sum(self_s.values()) + metrics["other.s"] - wall) <= 0.01 * wall
        assert all(value >= 0 for value in self_s.values())
        assert record["samples"]["absent"] == []
    else:
        for entry in wanted:
            assert result["metrics"][entry["name"]]["value"] > 0


def test_history_calls_split_between_solver_and_certificate():
    proc = _tiny("scalar-certify", seed=3, trace=1)
    metrics = {k: v["value"] for k, v in json.loads(proc.stdout.strip().splitlines()[-1])["metrics"].items()}
    steps = workloads.SIZES["tiny"]["scalar_steps"]
    assert metrics["accel.l1_history.calls"] == 3 * steps
    assert metrics["accel.l1_history.solver.calls"] == steps
    assert metrics["accel.l1_history.certify.calls"] == 2 * steps


def _copy_checkout(dest):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))


def test_missing_target_is_reported_absent(tmp_path):
    code = (
        "import tracer\n"
        "import fraflow.cli\n"
        "tracer.TARGETS = tracer.TARGETS + (('kernels.gone', 'fraflow.kernels', 'gone', None),"
        " ('plaplace.gone', 'fraflow.plaplace', 'PDirichletEnergy.gone', None))\n"
        "t = tracer.Tracer().install()\n"
        "print(t.absent)\n"
        "print(sorted(t.summary(0.0, 1.0)['metrics']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    absent, metrics = proc.stdout.splitlines()
    assert "kernels.gone" in absent and "plaplace.gone" in absent
    assert "kernels.gone" not in metrics and "plaplace.gone" not in metrics

    # the benchmark itself, on a checkout where the history sum was renamed away
    _copy_checkout(tmp_path)
    traced = tmp_path / "perfbench" / "tracer.py"
    source = traced.read_text()
    renamed = source.replace('"fraflow._accel", "l1_history"', '"fraflow._accel", "l1_history_renamed"')
    assert renamed != source
    traced.write_text(renamed)
    args = ["--workload", "plaplace-2d", "--seed", "1", "--seconds", "1", "--trace", "1", "--scale", "tiny"]
    proc = _bench(*args, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    gone = {name for name, entry in result["metrics"].items() if entry.get("absent")}
    assert gone == {m["name"] for m in SPEC["per_layer"] if m["name"].startswith("accel.l1_history.")}
    assert all(result["metrics"][name]["value"] is None for name in gone)
    assert all(isinstance(entry["value"], (int, float)) for name, entry in result["metrics"].items() if name not in gone)


def test_span_check_rejects_broken_spans():
    import tracer

    def problems(spans, t0=0.0, t1=10.0):
        recorder = tracer.Tracer()
        recorder.spans = [[name, start, end, parent, None] for name, start, end, parent in spans]
        return recorder.check(t0, t1)

    assert problems([("a", 1.0, 5.0, -1), ("b", 2.0, 3.0, 0), ("c", 3.5, 4.0, 0), ("d", 6.0, 9.0, -1)]) == []
    assert problems([("a", 1.0, 0.0, -1)])  # never closed
    assert problems([("a", 1.0, 11.0, -1)])  # outside the timed interval
    assert problems([("a", 1.0, 5.0, -1), ("b", 4.0, 6.0, 0)])  # sticks out of its parent
    assert problems([("a", 1.0, 5.0, -1), ("b", 2.0, 4.0, 0), ("c", 2.0, 4.0, 0)])  # overlapping children
    assert problems([("a", 1.0, 5.0, -1), ("b", 1.0, 5.0, -1), ("c", 1.0, 5.0, -1)], t1=6.0)  # other.s < 0


def test_benchmark_alone_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "plaplace-2d", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _sweep_ops(tmp_path, verdicts):
    inputs = workloads.make_inputs("regime-sweep", 0, "tiny")
    rows = ["p,q,alpha,m,N,amplitude,verdict"]
    rows += [f"2,4,0.5,4,64,{a},{v}" for a, v in zip(inputs["amplitudes"], verdicts)]
    out = tmp_path / "sweep"
    out.mkdir(parents=True)
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    stages = [{"name": "sweep", "expect": 0}]
    ops, _ = workloads.check("regime-sweep", inputs, tmp_path, [0], stages)
    return {name: passed for name, passed in ops}


def test_sweep_gates_catch_errors_and_non_monotone_verdicts(tmp_path):
    ok = _sweep_ops(tmp_path / "a", ["completed", "blew_up"])
    assert all(ok.values())
    flipped = _sweep_ops(tmp_path / "b", ["blew_up", "completed"])
    assert not flipped["sweep.monotone[q=4]"]
    errored = _sweep_ops(tmp_path / "c", ["completed", "error: ValueError"])
    assert [name for name, passed in errored.items() if not passed and name.startswith("sweep.row[")]
