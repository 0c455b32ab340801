"""Implicit product-integration time stepping for the nonlocal
difference-of-convex flow

    d/dt [k * (u - u0)](t) + dphi1(u(t)) - dphi2_lam(u(t)) ni f(t),

its viscous variant (an extra lam_visc * du/dt term) and the Lipschitz
perturbed problem where a Lipschitz operator B replaces -dphi2.

One step solves, with the Toeplitz weights omega of k and v = u - u0,

    [omega_0 v_j + H_j]/tau + lam_visc (u_j - u_{j-1})/tau + xi_j
        = f_j + eta_j,
    H_j = sum_{i<j} (omega_{j-i} - omega_{j-i-1}) v_i,

which collapses to a single resolvent call on phi1 with the effective
parameter mu = tau / (omega_0 + lam_visc); for the Riemann-Liouville pair
this is exactly an L1-type scheme.  The selection xi_j is read off the
prox optimality system, eta_j is the explicit Yosida evaluation of phi2
at the previous state (semi-implicit default) or at the current state via
an inner Picard loop (coupled mode).

The history H_j is a causal convolution whose input v appears one step at
a time.  ``_accel.History`` evaluates it exactly: a direct sum over the
current block of at most ``HISTORY_BLOCK`` rows, plus a far field that
each completed dyadic block adds through one FFT product.  A run with
fewer steps than one block takes the direct sum at every step.  The
history buffer is flat, one row of u0.size values per node, so states of
any rank take the same path.
"""

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ._accel import History
from .convex import ProxNonconvergence, Space
from .kernels import SoninePair, TimeGrid, conv_weights, convolve, nonlocal_derivative


@dataclass
class ProblemSpec:
    """Cauchy data of the flow: energies, kernel pair, u0, forcing, grid.

    ``pair=None`` disables the nonlocal term entirely (used with a
    positive viscosity to recover plain implicit Euler in tests).
    ``forcing`` may be None, a callable t -> state, or a sampled array of
    shape (N+1,) + state shape.
    """

    phi1: object
    phi2: object | None
    pair: SoninePair | None
    u0: np.ndarray
    forcing: object | None
    grid: TimeGrid

    def __post_init__(self):
        self.u0 = np.asarray(self.u0, dtype=np.float64)
        if not np.all(np.isfinite(self.u0)):
            raise ValueError("initial state must be finite")
        if not np.isfinite(self.phi1.value(self.u0)):
            raise ValueError("initial state must lie in the effective domain of phi1")

    def forcing_path(self):
        shape = (self.grid.steps + 1,) + self.u0.shape
        if self.forcing is None:
            return np.zeros(shape)
        if callable(self.forcing):
            path = np.stack([np.broadcast_to(np.asarray(self.forcing(t), dtype=np.float64), self.u0.shape) for t in self.grid.times])
        else:
            path = np.asarray(self.forcing, dtype=np.float64).reshape(shape)
        if not np.all(np.isfinite(path)):
            raise ValueError("forcing must be finite at all nodes")
        return path


@dataclass
class SolverConfig:
    """Discretization knobs; defaults target desk-scale experiments."""

    yosida_lam: float = 1e-3  # Moreau-Yosida parameter of phi2
    visc: float = 0.0  # viscosity coefficient, 0 disables the du/dt term
    inner_tol: float = 1e-10
    max_picard: int = 50
    blowup_norm: float = 1e6  # on ||u||_inf
    blowup_energy: float = 1e12  # on phi1(u)
    coupling: str = "semi_implicit"  # or "coupled"

    def __post_init__(self):
        if not self.yosida_lam > 0:
            raise ValueError("Yosida parameter must be positive")
        if self.visc < 0:
            raise ValueError("viscosity must be nonnegative")
        if not (self.blowup_norm > 0 and self.blowup_energy > 0):
            raise ValueError("blow-up thresholds must be positive")
        if self.coupling not in ("semi_implicit", "coupled"):
            raise ValueError(f"unknown coupling mode {self.coupling!r}")


@dataclass
class Trajectory:
    """Discrete solution path with selections and per-node diagnostics.

    Arrays are aligned with the grid nodes (index 0 = initial data); the
    selections and residuals are only meaningful from node 1 on.
    """

    grid: TimeGrid
    states: np.ndarray  # (N+1,) + state shape
    xi: np.ndarray  # selection in dphi1, node-aligned
    eta: np.ndarray  # Yosida evaluation of phi2 (or -B(u))
    space_weight: float
    energy1: np.ndarray  # phi1(u_j)
    envelope2: np.ndarray  # phi2_lam at the eta evaluation point
    norms: np.ndarray  # ||u_j||_H
    residuals: np.ndarray  # discrete equation residual per node
    e_t: float  # phi1(u0) + sup_j (ell * ||f||^2)(t_j)
    visc: float = 0.0
    alpha: float | None = None
    picard_ratios: list = field(default_factory=list)

    @property
    def sup_energy1(self):
        return float(np.max(self.energy1))

    @property
    def final_state(self):
        return self.states[-1]


@dataclass
class BlowUpReport:
    """Early termination: threshold crossing, non-finite state or a diverging inner loop."""

    node: int
    time: float
    reason: str  # "norm-threshold" | "energy-threshold" | "inner-divergence" | "non-finite"
    norm_history: np.ndarray
    energy_history: np.ndarray
    e_t: float

    @property
    def blew_up(self):
        return self.reason != "inner-divergence"


@dataclass
class LipschitzPerturbation:
    """Lipschitz operator B with its constant and the contraction data."""

    op: object  # callable state -> state
    lipschitz: float
    weight: float = 1.0  # omega in the weighted sup norm

    def contraction_factor(self, visc):
        if visc <= 0:
            return np.inf
        return self.lipschitz / (self.weight * visc)


def _energy_forcing_sup(spec, f_path):
    """E_T = phi1(u0) + sup_j (ell * ||f||_H^2)(t_j)."""
    weight = spec.phi1.space.weight
    axes = tuple(range(1, f_path.ndim))
    sq = weight * np.sum(f_path**2, axis=axes)
    if spec.pair is None or not np.any(sq):
        conv_sup = 0.0
    else:
        conv_sup = float(np.max(convolve(spec.pair.ell, sq, spec.grid)))
    return float(spec.phi1.value(spec.u0)) + conv_sup


def _residuals(spec, config, states, xi, eta, forcing_path):
    """Node-wise H-norm of the discrete equation residual, node 0 set to 0.

    Re-assembled from scratch, independent of the step algebra, so it also
    checks that the stepper and the nonlocal derivative use one quadrature
    convention.
    """
    axes = tuple(range(1, states.ndim))
    if spec.pair is not None:
        deriv = nonlocal_derivative(spec.pair.k, states - spec.u0, spec.grid)
    else:
        deriv = np.zeros_like(states)
    if config.visc > 0:
        deriv = deriv.copy()
        deriv[1:] += config.visc * np.diff(states, axis=0) / spec.grid.tau
    res_vec = deriv + xi - eta - forcing_path
    residuals = np.sqrt(spec.phi1.space.weight * np.sum(res_vec**2, axis=axes))
    residuals[0] = 0.0
    return residuals


def _solve_loop(spec, config, forcing_path, eta_source):
    """Shared stepping core.

    ``eta_source(j, u_prev)`` returns the explicit part added to the
    right-hand side at node j (the phi2 Yosida evaluation, a perturbation
    -B, or zero) together with its envelope diagnostic.
    """
    grid = spec.grid
    tau = grid.tau
    n = grid.steps
    u0 = spec.u0
    space = spec.phi1.space
    shape = u0.shape

    if spec.pair is not None:
        omega = conv_weights(spec.pair.k, grid).omega
        omega0 = omega[0]
    else:
        omega = None
        omega0 = 0.0
        if config.visc <= 0:
            raise ValueError("disabling the kernel requires a positive viscosity")

    denom = omega0 + config.visc
    mu = tau / denom

    states = np.zeros((n + 1,) + shape)
    xi = np.zeros_like(states)
    eta = np.zeros_like(states)
    envelope2 = np.zeros(n + 1)
    energy1 = np.zeros(n + 1)
    norms = np.zeros(n + 1)
    states[0] = u0
    energy1[0] = spec.phi1.value(u0)
    norms[0] = space.norm(u0)
    if spec.phi2 is not None:
        envelope2[0] = spec.phi2.envelope(u0, config.yosida_lam, tol=config.inner_tol)

    # u - u0 history for the nonlocal term, one flat row per node
    v = np.zeros((n + 1, u0.size))
    history = History(omega, v) if omega is not None else None
    start = omega0 * u0

    def _blowup(j, reason, accepted):
        return BlowUpReport(
            node=j,
            time=j * tau,
            reason=reason,
            norm_history=norms[: accepted + 1],
            energy_history=energy1[: accepted + 1],
            e_t=_energy_forcing_sup(spec, forcing_path),
        )

    for j in range(1, n + 1):
        hist = history(j).reshape(shape) if history is not None else 0.0
        base = (start - hist + config.visc * states[j - 1]) / denom

        def prox_step(eta_val):
            rhs = base + mu * (forcing_path[j] + eta_val)
            if not np.isfinite(rhs).all():
                raise FloatingPointError("non-finite step data")
            u_new = spec.phi1.prox(rhs, mu, tol=config.inner_tol)
            return u_new, (rhs - u_new) / mu

        try:
            eta_val, env_val = eta_source(j, states[j - 1])
            u_new, xi_new = prox_step(eta_val)
        except (FloatingPointError, ProxNonconvergence):
            # a step escaping toward overflow (through the phi1 or the phi2
            # resolvent) is a threshold crossing, not a solver defect;
            # re-raise on bounded states
            if np.max(np.abs(states[j - 1])) >= 0.01 * config.blowup_norm:
                return _blowup(j, "norm-threshold", j - 1)
            raise

        if config.coupling == "coupled" and spec.phi2 is not None:
            prev_inc = None
            converged = False
            for _ in range(config.max_picard):
                ye = spec.phi2.yosida(u_new, config.yosida_lam, tol=config.inner_tol)
                eta_val, env_val = ye.rate, ye.envelope
                u_next, xi_new = prox_step(eta_val)
                inc = space.norm(u_next - u_new)
                u_new = u_next
                if inc <= config.inner_tol * (1.0 + space.norm(u_new)):
                    converged = True
                    break
                if prev_inc is not None and inc > prev_inc and inc > 1e-8:
                    break
                prev_inc = inc
            if not converged and np.max(np.abs(u_new)) <= config.blowup_norm:
                return _blowup(j, "inner-divergence", j - 1)

        amax = float(np.abs(u_new).max())
        if not math.isfinite(amax):
            return _blowup(j, "non-finite", j - 1)
        states[j] = u_new
        xi[j] = xi_new
        eta[j] = eta_val
        envelope2[j] = env_val
        v[j] = (u_new - u0).ravel()
        energy1[j] = spec.phi1.value(u_new)
        norms[j] = space.norm(u_new)

        if amax > config.blowup_norm or energy1[j] > config.blowup_energy:
            reason = "norm-threshold" if amax > config.blowup_norm else "energy-threshold"
            return _blowup(j, reason, j)

    return Trajectory(
        grid=grid,
        states=states,
        xi=xi,
        eta=eta,
        space_weight=space.weight,
        energy1=energy1,
        envelope2=envelope2,
        norms=norms,
        residuals=_residuals(spec, config, states, xi, eta, forcing_path),
        e_t=_energy_forcing_sup(spec, forcing_path),
        visc=config.visc,
        alpha=spec.pair.alpha if spec.pair is not None else None,
    )


def solve_dc_flow(spec, config=None):
    """March the difference-of-convex flow; one resolvent call per step.

    Returns a :class:`Trajectory`, or a :class:`BlowUpReport` when a
    threshold is crossed or the coupled inner loop diverges.
    """
    config = config or SolverConfig()
    forcing_path = spec.forcing_path()
    if spec.phi2 is None:
        zero = np.zeros_like(spec.u0)
        eta_source = lambda j, u_prev: (zero, 0.0)
    else:

        def eta_source(j, u_prev):
            ye = spec.phi2.yosida(u_prev, config.yosida_lam, tol=config.inner_tol)
            return ye.rate, ye.envelope

    return _solve_loop(spec, config, forcing_path, eta_source)


@dataclass
class PicardLog:
    """Weighted-sup-norm increments of the outer fixed-point iteration."""

    increments: list
    ratios: list
    kappa: float
    ratio_tol: float

    @property
    def geometric(self):
        return all(r <= self.kappa + self.ratio_tol for r in self.ratios)


def solve_lipschitz_perturbed(spec, config, pert, ratio_tol=1e-2):
    """Flow with a Lipschitz operator B in place of -dphi2.

    With a positive viscosity the solve runs an outer Picard iteration on
    whole trajectories (the contraction construction with weighted sup
    norm sup_j e^{-omega t_j} ||.||_H); kappa = L_B/(omega * visc) must be
    < 1 and the measured decay ratios are logged and checked against it.
    With zero viscosity B is folded in semi-implicitly (one pass).
    """
    config = config or SolverConfig()
    forcing_path = spec.forcing_path()
    grid = spec.grid
    space = spec.phi1.space

    if config.visc > 0:
        kappa = pert.contraction_factor(config.visc)
        if not kappa < 1:
            raise ValueError(f"contraction factor kappa = {kappa:.3f} must be < 1; increase omega or the viscosity")
        weights = np.exp(-pert.weight * grid.times)

        def xdist(a, b):
            axes = tuple(range(1, a.ndim))
            norms = np.sqrt(space.weight * np.sum((a - b) ** 2, axis=axes))
            return float(np.max(weights * norms))

        base_spec = ProblemSpec(spec.phi1, None, spec.pair, spec.u0, None, grid)
        zero = np.zeros_like(spec.u0)
        prev_states = np.broadcast_to(spec.u0, forcing_path.shape).copy()
        increments = []
        traj = None
        for _ in range(config.max_picard):
            b_path = np.stack([pert.op(prev_states[j]) for j in range(grid.steps + 1)])
            result = _solve_loop(base_spec, config, forcing_path - b_path, lambda j, u: (zero, 0.0))
            if isinstance(result, BlowUpReport):
                return result
            inc = xdist(result.states, prev_states)
            increments.append(inc)
            prev_states = result.states
            traj = result
            if inc <= 1e-12 * (1.0 + float(np.max(np.abs(prev_states)))):
                break
        floor = 1e-11 * (1.0 + float(np.max(np.abs(prev_states))))
        ratios = [
            increments[i] / increments[i - 1]
            for i in range(1, len(increments))
            if increments[i - 1] > floor
        ]
        traj.picard_ratios = ratios
        traj.eta = -np.stack([pert.op(traj.states[j]) for j in range(grid.steps + 1)])
        # recompute residuals with the perturbation in place of -dphi2
        traj.residuals = _residuals(spec, config, traj.states, traj.xi, traj.eta, forcing_path)
        log = PicardLog(increments=increments, ratios=ratios, kappa=kappa, ratio_tol=ratio_tol)
        return traj, log

    # semi-implicit: evaluate B at the previous node, single pass
    eta_source = lambda j, u_prev: (-pert.op(u_prev), 0.0)
    result = _solve_loop(spec, config, forcing_path, eta_source)
    if isinstance(result, BlowUpReport):
        return result
    return result, PicardLog(increments=[], ratios=[], kappa=pert.contraction_factor(config.visc), ratio_tol=ratio_tol)


@dataclass
class ModulusReport:
    """Measured continuity moduli against the convolution-representative bound."""

    lags: np.ndarray
    moduli: np.ndarray
    bounds: np.ndarray
    slack: float
    passed: bool

    def to_dict(self):
        return {
            "certificate": "continuity-modulus",
            "status": "pass" if self.passed else "fail",
            "lags": self.lags.tolist(),
            "moduli": self.moduli.tolist(),
            "bounds": self.bounds.tolist(),
            "slack": self.slack,
        }


def continuity_modulus(traj, pair, slack_coeff=0.0):
    """Check ||u(t+h) - u(t)|| against the continuous-representative bound.

    For each dyadic lag h the bound is

        ||ell||_{L1(0,h)}^{1/2} S^{1/2}
            + ||ell(h+.) - ell(.)||_{L1(0,T-h)}^{1/2} S^{1/2},

    with S = sup_j (ell * ||G||^2)(t_j) and G the nonlocal derivative of
    the trajectory; both ell integrals are exact via the antiderivative.
    """
    grid = traj.grid
    tau = grid.tau
    n = grid.steps
    u = traj.states
    axes = tuple(range(1, u.ndim))
    deriv = nonlocal_derivative(pair.k, u - u[0], grid)
    sq = np.zeros(n + 1)
    sq[1:] = traj.space_weight * np.sum(deriv[1:] ** 2, axis=axes)
    sup_conv = float(np.max(convolve(pair.ell, sq, grid)))
    big_l = pair.ell.antiderivative

    lags = []
    moduli = []
    bounds = []
    m = 1
    while m <= n // 2:
        h = m * tau
        diff = u[m:] - u[:-m]
        modulus = float(np.max(np.sqrt(traj.space_weight * np.sum(diff**2, axis=axes))))
        # nonincreasing ell: ||ell(h+.) - ell(.)||_L1(0,T-h) telescopes
        shift = float(big_l(grid.horizon - h) - (big_l(grid.horizon) - big_l(h)))
        bound = np.sqrt(float(big_l(h)) * sup_conv) + np.sqrt(max(shift, 0.0) * sup_conv)
        lags.append(h)
        moduli.append(modulus)
        bounds.append(bound)
        m *= 2
    lags = np.array(lags)
    moduli = np.array(moduli)
    bounds = np.array(bounds)
    slack = 1e-8 + slack_coeff * np.sqrt(tau)
    return ModulusReport(
        lags=lags,
        moduli=moduli,
        bounds=bounds,
        slack=float(slack),
        passed=bool(np.all(moduli <= bounds + slack)),
    )


# ---------------------------------------------------------------------------
# serialization


CSV_COLUMNS = ["j", "t", "norm", "energy1", "envelope2", "residual"]
_DUMP_MAGIC = b"FFLW"
_DUMP_VERSION = 2


def trajectory_to_csv(traj, path):
    """Plot-ready CSV: one row per node, 17 significant digits, LF endings."""
    nodes = np.arange(traj.grid.steps + 1)
    # %.17g on a Python float gives the bytes of format(x, ".17g")
    columns = [nodes.tolist(), (nodes * traj.grid.tau).tolist()]
    for values in (traj.norms, traj.energy1, traj.envelope2, traj.residuals):
        columns.append(np.asarray(values, dtype=np.float64).tolist())
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines("%d,%.17g,%.17g,%.17g,%.17g,%.17g\n" % row for row in zip(*columns))


def save_state_dump(traj, path):
    """Binary full-state dump, little-endian.

    Layout (version 2): magic "FFLW", version u32, m u32 (flattened state
    dimension), N u32 (steps), horizon f64, alpha f64 (NaN when the kernel
    is not Riemann-Liouville or absent), space weight f64, rank u32, the
    state shape as rank u32s, then (N+1) x m float64 states row-major.
    Version 1 stops the header after alpha; it loads as weight 1 with the
    flat state shape (m,).
    """
    shape = traj.states.shape[1:]
    states = traj.states.reshape(traj.grid.steps + 1, -1)
    m = states.shape[1]
    alpha = traj.alpha if traj.alpha is not None else float("nan")
    with open(path, "wb") as fh:
        fh.write(_DUMP_MAGIC)
        fh.write(struct.pack("<III", _DUMP_VERSION, m, traj.grid.steps))
        fh.write(struct.pack("<dd", traj.grid.horizon, alpha))
        fh.write(struct.pack(f"<dI{len(shape)}I", traj.space_weight, len(shape), *shape))
        fh.write(states.astype("<f8").tobytes())


class DumpFormatError(ValueError):
    """State dump unreadable: bad magic, version, shape or truncation."""


def load_state_dump(path):
    """Read a dump back; raises :class:`DumpFormatError` on corruption.

    Returns the states (shaped), the grid, alpha (None when absent) and the
    space weight of the inner product.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header = 4 + 12 + 16
    if len(blob) < header or blob[:4] != _DUMP_MAGIC:
        raise DumpFormatError(f"{path}: not a state dump")
    version, m, n = struct.unpack("<III", blob[4:16])
    if version not in (1, _DUMP_VERSION):
        raise DumpFormatError(f"{path}: unsupported version {version}")
    horizon, alpha = struct.unpack("<dd", blob[16:32])
    weight, shape = 1.0, (m,)
    if version == _DUMP_VERSION:
        try:
            weight, rank = struct.unpack_from("<dI", blob, header)
            shape = struct.unpack_from(f"<{rank}I", blob, header + 12)
        except struct.error as exc:
            raise DumpFormatError(f"{path}: truncated header") from exc
        header += 12 + 4 * rank
        if math.prod(shape) != m:
            raise DumpFormatError(f"{path}: state shape {shape} does not hold {m} values")
    expected = header + (n + 1) * m * 8
    if len(blob) != expected:
        raise DumpFormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    states = np.frombuffer(blob[header:], dtype="<f8").reshape((n + 1,) + shape).copy()
    return {
        "states": states,
        "grid": TimeGrid(horizon, n),
        "alpha": None if np.isnan(alpha) else float(alpha),
        "space_weight": weight,
    }
