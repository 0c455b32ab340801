"""Per-layer spans recorded from outside the program.

:meth:`Tracer.install` wraps fraflow's layer entry points in place: every module
namespace under ``fraflow`` that binds a traced function gets the wrapper
(``l1_history`` is bound in ``_accel``, ``kernels`` and ``solver``), and
traced methods are replaced on their class before any instance exists.
Layers are named after the modules (``accel`` is ``fraflow._accel``).
Spans (name, start, end, parent) are kept in memory; :meth:`Tracer.summary`
turns them into self times, counts and the computed work counters.  A
target that no longer exists is reported as absent, never as an error: its
layer's metrics are left out of the summary, so they cannot read as a layer
that ran in no time.  Nothing is written into the program's own outputs.
"""

import functools
import importlib
import os
import statistics
import sys
import time


def _path_bytes(args, kwargs, result):
    # size of the first argument naming an existing file: the file a CLI
    # I/O helper just wrote or read
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            return os.path.getsize(value)
    return 0


def _history_macs(args, kwargs, result):
    # sum_{i=1..j-1} over an (N+1, m) path: (j - 1) * m multiply-adds
    _, v, j = args
    return max(j - 1, 0) * v[0].size


def _hessian_bytes(args, kwargs, result):
    # a dense (m^d x m^d) float64 matrix per call
    return args[1].size ** 2 * 8


def _steps(args, kwargs, result):
    # a trajectory has N steps; a blow-up report stops at its node
    states = getattr(result, "states", None)
    return states.shape[0] - 1 if states is not None else getattr(result, "node", 0)


def _blew_up(args, kwargs, result):
    return int(getattr(result, "verdict", "") == "blew_up")


# span name, module, attribute (Class.method for methods), counter
TARGETS = (
    ("kernels.nonlocal_derivative", "fraflow.kernels", "nonlocal_derivative", None),
    ("kernels.nonlocal_antiderivative", "fraflow.kernels", "nonlocal_antiderivative", None),
    ("kernels.inverse_weights", "fraflow.kernels", "inverse_weights", None),
    ("kernels.verify_sonine", "fraflow.kernels", "verify_sonine", None),
    ("kernels.regularized_kernel", "fraflow.kernels", "regularized_kernel", None),
    ("kernels.conv_weights", "fraflow.kernels", "conv_weights", None),
    ("accel.l1_history", "fraflow._accel", "l1_history", _history_macs),
    ("accel.power_prox_abs", "fraflow._accel", "power_prox_abs", lambda a, k, r: a[0].size),
    ("accel.volterra_sn", "fraflow._accel", "volterra_sn", None),
    ("convex.yosida", "fraflow.convex", "Functional.yosida", None),
    ("plaplace.hess", "fraflow.plaplace", "PDirichletEnergy._hess_h", _hessian_bytes),
    ("plaplace.grad", "fraflow.plaplace", "PDirichletEnergy._grad_h", None),
    ("plaplace.energy", "fraflow.plaplace", "PDirichletEnergy._energy", None),
    ("plaplace.run_experiment", "fraflow.plaplace", "run_experiment", _blew_up),
    ("solver.solve_dc_flow", "fraflow.solver", "solve_dc_flow", _steps),
    ("solver.continuity_modulus", "fraflow.solver", "continuity_modulus", None),
    ("certify.check_chain_rule", "fraflow.certify", "check_chain_rule", None),
    ("certify.check_ab_inequality", "fraflow.certify", "check_ab_inequality", None),
    # config validation, CSV/JSON writes and state dump save/load
    ("cli.io", "fraflow.cli", "load_config", _path_bytes),
    ("cli.io", "fraflow.cli", "_write_json", _path_bytes),
    ("cli.io", "fraflow.cli", "_write_rows_csv", _path_bytes),
    ("cli.io", "fraflow.solver", "trajectory_to_csv", _path_bytes),
    ("cli.io", "fraflow.solver", "save_state_dump", _path_bytes),
    ("cli.io", "fraflow.solver", "load_state_dump", _path_bytes),
)

# every resolvent is traced per class as convex.prox.<Class>
PROX_BASE = ("fraflow.convex", "Functional")
SMOOTH_BASE = ("fraflow.convex", "SmoothFunctional")

# computed metrics whose name does not start with the layer they come from
DERIVED_FROM = {
    "solver.steps": "solver.solve_dc_flow",
    "solver.step.self_s": "solver.solve_dc_flow",
    "convex.newton_iters.mean": "plaplace.hess",
    "convex.newton_iters.max": "plaplace.hess",
}

# the end-to-end metric and workload each layer metric should move
LAYER_TARGETS = {
    "kernels.nonlocal_derivative": "wall_s on scalar-certify",
    "kernels.nonlocal_antiderivative": "wall_s on scalar-certify; ~0 on regime-sweep",
    "kernels.inverse_weights": "wall_s on scalar-certify; ~0 on regime-sweep",
    "kernels.verify_sonine": "wall_s on scalar-certify",
    "kernels.regularized_kernel": "wall_s on scalar-certify",
    "kernels.conv_weights": "wall_s on scalar-certify",
    "accel.l1_history": "wall_s on scalar-certify; ~0 on plaplace-2d",
    "accel.power_prox_abs": "wall_s on regime-sweep and plaplace-2d; not called on scalar-certify",
    "accel.volterra_sn": "wall_s on scalar-certify",
    "convex.prox": "wall_s on plaplace-2d; small on regime-sweep",
    "convex.newton_iters": "wall_s on plaplace-2d (a count that repeats exactly)",
    "convex.yosida": "wall_s on regime-sweep and plaplace-2d",
    "plaplace.hess": "wall_s and peak_rss_mb on plaplace-2d",
    "plaplace.grad": "wall_s on plaplace-2d",
    "plaplace.energy": "wall_s on plaplace-2d",
    "plaplace.run_experiment": "wall_s on regime-sweep",
    "solver": "wall_s on regime-sweep and scalar-certify",
    "solver.continuity_modulus": "wall_s on scalar-certify",
    "certify": "wall_s on scalar-certify",
    "cli.io": "wall_s on scalar-certify",
    "cli.sweep": "failed ops on regime-sweep",
}


def _resolve(module_name, attr):
    """(owner, name, object) of a target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(name) if classes else getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, count]``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.absent = []
        self.missing = set()  # span names of the absent targets
        self.prox = []
        self.smooth_prox = set()
        self._caches = {}

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except (TypeError, ValueError, AttributeError, IndexError):
                    span[4] = None  # a changed signature loses the counter, not the run
            return result

        return traced

    def _wrap_function(self, name, obj, counter):
        wrapper = self.wrap(name, obj, counter)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fraflow" or mod_name.startswith("fraflow.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is obj:
                    setattr(mod, attr, wrapper)
        if hasattr(obj, "cache_info"):
            self._caches[name] = (obj, obj.cache_info().misses)

    def install(self):
        """Wrap every target present in the imported ``fraflow`` modules."""
        for name, module_name, attr, counter in TARGETS:
            found = _resolve(module_name, attr)
            if found is None:
                # a layer with one entry point gone is absent as a whole
                self.absent.append(f"{name} ({module_name}.{attr})")
                self.missing.add(name)
                continue
            owner, key, obj = found
            if isinstance(owner, type):
                setattr(owner, key, self.wrap(name, obj, counter))
            else:
                self._wrap_function(name, obj, counter)
        base = _resolve(*PROX_BASE)
        smooth = _resolve(*SMOOTH_BASE)
        if smooth is None:
            self.absent.append("convex.newton_iters (fraflow.convex.SmoothFunctional)")
            self.missing.add("convex.newton_iters")
        if base is None:
            self.absent.append("convex.prox (fraflow.convex.Functional)")
            self.missing.add("convex.prox")
            return self
        for cls in _subclasses(base[2]):
            if "prox" in cls.__dict__:
                span = f"convex.prox.{cls.__name__}"
                setattr(cls, "prox", self.wrap(span, cls.__dict__["prox"]))
                self.prox.append(span)
                if smooth is not None and issubclass(cls, smooth[2]):
                    self.smooth_prox.add(span)
        return self

    def summary(self, t0, t1):
        """Per-layer metrics of the spans recorded between ``t0`` and ``t1``."""
        spans = self.spans
        children = [0.0] * len(spans)
        hess_children = [0] * len(spans)
        covered = 0.0
        for span in spans:
            dur = span[2] - span[1]
            if span[3] >= 0:
                children[span[3]] += dur
                if span[0] == "plaplace.hess":
                    hess_children[span[3]] += 1
            else:
                covered += dur
        self_s, calls, counts, durations = {}, {}, {}, {}
        by_caller = {}
        for i, span in enumerate(spans):
            name = span[0]
            self_s[name] = self_s.get(name, 0.0) + (span[2] - span[1]) - children[i]
            calls[name] = calls.get(name, 0) + 1
            if span[4] is not None:
                counts[name] = counts.get(name, 0) + span[4]
            durations.setdefault(name, []).append(span[2] - span[1])
            if name in ("kernels.nonlocal_derivative", "accel.l1_history"):
                key = (name, self._caller(i))
                entry = by_caller.setdefault(key, [0.0, 0])
                entry[0] += (span[2] - span[1]) - children[i]
                entry[1] += 1

        wall = t1 - t0
        m = {"trace.wall_s": wall, "other.s": wall - covered}
        for name in {t[0] for t in TARGETS}:
            m[f"{name}.s"] = self_s.get(name, 0.0)
            m[f"{name}.calls"] = calls.get(name, 0)
        for name in self.prox:
            m[f"{name}.s"] = self_s.get(name, 0.0)
            m[f"{name}.calls"] = calls.get(name, 0)
        m["convex.prox.s"] = sum(m[f"{name}.s"] for name in self.prox)
        m["convex.prox.calls"] = sum(m[f"{name}.calls"] for name in self.prox)
        newton = [hess_children[i] for i, s in enumerate(spans) if s[0] in self.smooth_prox]
        m["convex.newton_iters.mean"] = statistics.fmean(newton) if newton else 0.0
        m["convex.newton_iters.max"] = max(newton, default=0)
        for caller in ("solver", "certify"):
            derivative = by_caller.get(("kernels.nonlocal_derivative", caller), [0.0, 0])
            history = by_caller.get(("accel.l1_history", caller), [0.0, 0])
            m[f"kernels.nonlocal_derivative.{caller}.s"] = derivative[0]
            m[f"accel.l1_history.{caller}.calls"] = history[1]
        m["accel.l1_history.macs"] = counts.get("accel.l1_history", 0)
        m["accel.power_prox_abs.elements"] = counts.get("accel.power_prox_abs", 0)
        m["plaplace.hess.bytes"] = counts.get("plaplace.hess", 0)
        runs = durations.get("plaplace.run_experiment", [])
        m["plaplace.run_experiment.s_p50"] = statistics.median(runs) if runs else 0.0
        m["plaplace.run_experiment.s_max"] = max(runs, default=0.0)
        m["plaplace.run_experiment.blowups"] = counts.get("plaplace.run_experiment", 0)
        steps = counts.get("solver.solve_dc_flow", 0)
        m["solver.steps"] = steps
        m["solver.step.self_s"] = self_s.get("solver.solve_dc_flow", 0.0) / steps if steps else 0.0
        m["cli.io.bytes"] = counts.get("cli.io", 0)
        for name, (cached, misses0) in self._caches.items():
            m[f"{name}.misses"] = cached.cache_info().misses - misses0
        m = {key: value for key, value in m.items() if not self._is_missing(key)}
        return {"metrics": m, "self_s": self_s, "absent": self.absent, "problems": self.check(t0, t1)[:10]}

    def _is_missing(self, key):
        layers = (key, DERIVED_FROM.get(key, key))
        return any(layer == name or layer.startswith(name + ".") for layer in layers for name in self.missing)

    def check(self, t0, t1):
        """Why the spans cannot be trusted, one line each; empty when they can.

        Every span must be closed and lie inside ``[t0, t1]``, every child
        inside its parent, and siblings must not overlap, so that no self
        time and no ``other.s`` is negative.
        """
        spans = self.spans
        problems = []
        last_end = {}  # parent index -> end of its latest child so far
        for i, (name, start, end, parent, _) in enumerate(spans):
            if not t0 <= start <= end <= t1:
                problems.append(f"span {i} ({name}) is unclosed or outside the timed interval")
            if parent >= 0:
                outer = spans[parent]
                if not (parent < i and outer[1] <= start and end <= outer[2]):
                    problems.append(f"span {i} ({name}) is not nested in its parent {parent} ({outer[0]})")
            if start < last_end.get(parent, t0):
                problems.append(f"span {i} ({name}) overlaps an earlier sibling")
            last_end[parent] = end
        return problems

    def _caller(self, i):
        # "solver" when the span runs inside the time-stepping loop (history
        # sums, residual re-assembly), "certify" for certificate evaluations
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == "solver.solve_dc_flow":
                return "solver"
            parent = self.spans[parent][3]
        return "certify"
