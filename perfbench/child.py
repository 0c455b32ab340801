"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/child.py PLAN_JSON SPAWN_MONOTONIC

``SPAWN_MONOTONIC`` is the parent's ``time.monotonic()`` just before it
started this process; set-up time runs from there until ``fraflow.cli`` is
imported.  The stages of the plan then run through ``fraflow.cli.main`` in
this process, timed as one interval.  Tracing (plan key ``trace``) is
installed after set-up, so an untraced repetition runs no harness code
inside the program.  A host-speed probe runs just before and just after the
timed interval, and the gates after it.  The result goes to the plan's
``result`` path as JSON.
"""

import json
import resource
import sys
import time

# OpenBLAS thread-count getters: numpy's 64-bit and 32-bit builds, plain OpenBLAS
BLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads",
)


def _environment():
    import ctypes
    import glob
    import os
    import platform

    import numpy
    import scipy

    import fraflow

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for lib_path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(lib_path)
        for symbol in BLAS_THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        # the backend switch may go away; numpy is then the only path
        "backend": getattr(fraflow, "BACKEND", "numpy"),
    }


def host_speed_probe():
    """Seconds a fixed job takes right now.

    The job mixes the kinds of work the workloads do (interpreted Python,
    numpy operations on small arrays, dense BLAS) and touches nothing of
    fraflow, so its time changes with the host's speed and never with the
    program.  A shared virtual machine can run everything 1.5x slower for a
    minute at a time; dividing a repetition's times by its probe time takes
    that out.
    """
    import numpy as np

    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i % 7
    x = np.linspace(0.0, 1.0, 512)
    for _ in range(4000):
        x = np.abs(np.sin(x) * 0.5 + x * 0.5)
    # growing dot products over a 16384-long path, like a history sum
    path = np.linspace(0.0, 1.0, 16384)
    for j in range(16, 16384, 8):
        total += path[:j] @ path[-j:]
    a = np.eye(300) * 2.0 + np.ones((300, 300)) / 300.0
    for _ in range(40):
        np.linalg.solve(a, x[:300])
    for _ in range(10):
        a @ a
    return time.perf_counter() - start


def main():
    plan_path, spawned = sys.argv[1], float(sys.argv[2])
    import fraflow.cli

    setup_s = time.monotonic() - spawned

    with open(plan_path) as fh:
        plan = json.load(fh)
    result = {"setup_s": setup_s}
    stages = plan["stages"]
    recorder = None
    if plan.get("trace"):
        import tracer

        recorder = tracer.Tracer().install()

    probe_before = host_speed_probe()
    codes = []
    t0 = time.perf_counter()
    c0 = time.process_time()
    for stage in stages:
        try:
            codes.append(fraflow.cli.main(stage["argv"]))
        except SystemExit as exc:  # argparse rejects a malformed argv
            codes.append(exc.code)
    c1 = time.process_time()
    t1 = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["probe_s"] = (probe_before + host_speed_probe()) / 2
    if recorder is not None:
        result["trace"] = recorder.summary(t0, t1)

    if stages:
        import workloads

        ops, ml_err = workloads.check(plan["workload"], plan["inputs"], plan["rep_dir"], codes, stages)
        result.update(
            {
                "wall_s": t1 - t0,
                "cpu_s": c1 - c0,
                "peak_rss_mb": peak_kib / 1024.0,
                "ops": ops,
                "ml_max_err": ml_err,
            }
        )
    if plan.get("environment"):
        result["environment"] = _environment()
    with open(plan["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
