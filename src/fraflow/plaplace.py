"""p-Laplace subdiffusion application: discrete Dirichlet energies on 1D/2D
grids, exponent-regime classification and blow-up / global-existence
experiments.

Discretization: homogeneous Dirichlet ghosts, face gradients by forward
differences, flux (|g|^2 + eps^2)^{(p-2)/2} g with eps = 1e-12 (keeps the
flux finite at zero gradient for p < 2; a documented deviation from the
exact subdifferential).  The energy uses the same regularization, so the
negative discrete p-Laplacian is exactly the H-gradient of the energy.

Exponent arithmetic is exact rational (fractions.Fraction): the critical
exponents and the interpolation balance are compared symbolically, so the
q < p*  <=>  theta (q-1)/(p-1) < 1 equivalence scans produce no floating
point mismatches.
"""

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .convex import PowerPotential, SmoothFunctional, Space
from .kernels import TimeGrid, rl_pair
from .solver import BlowUpReport, ProblemSpec, SolverConfig, Trajectory, solve_dc_flow

FLUX_EPS = 1e-12


@dataclass(frozen=True)
class Grid:
    """Interior grid of the unit interval/square with Dirichlet ghosts."""

    dim: int
    m: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"only 1D/2D grids are shipped, got dim={self.dim}")
        if self.m < 2:
            raise ValueError(f"need at least 2 interior points per axis, got {self.m}")

    @property
    def h(self):
        return 1.0 / (self.m + 1)

    @property
    def npoints(self):
        return self.m**self.dim

    @property
    def space(self):
        return Space(self.npoints, weight=self.h**self.dim)

    @property
    def shape(self):
        return (self.m,) * self.dim

    def coords(self):
        x = np.arange(1, self.m + 1) * self.h
        if self.dim == 1:
            return (x,)
        return np.meshgrid(x, x, indexing="ij")


def _forward_diff(a, axis):
    # np.diff(a, axis=axis) by two slices, without np.diff's per-call cost
    before = (slice(None),) * axis
    return a[before + (slice(1, None),)] - a[before + (slice(None, -1),)]


def _face_gradients(grid, u):
    h = grid.h
    if grid.dim == 1:
        z = np.zeros(grid.m + 2)
        z[1:-1] = u
        return (_forward_diff(z, 0) / h,)
    z = np.zeros((grid.m + 2, grid.m + 2))
    z[1:-1, 1:-1] = u.reshape(grid.shape)
    gx = _forward_diff(z[:, 1:-1], 0) / h
    gy = _forward_diff(z[1:-1, :], 1) / h
    return gx, gy


def _face_energy(g, p, eps):
    # p times the face energy density; vanishes at zero gradient
    return (g * g + eps**2) ** (p / 2.0) - eps**p


def _flux(g, p, eps):
    # derivative of _face_energy / p in g
    return (g * g + eps**2) ** ((p - 2.0) / 2.0) * g


def _face_weight(g, p, eps):
    # derivative of _flux in g; positive for every p > 1
    s = g * g + eps**2
    return s ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * g * g / s)


def discrete_p_laplacian(grid, u, p, eps=FLUX_EPS):
    """Divergence-form p-Laplacian; minus this is the H-gradient of the
    discrete Dirichlet energy."""
    if not p > 1:
        raise ValueError(f"exponent must exceed 1, got {p}")
    u = np.asarray(u, dtype=np.float64)
    grads = _face_gradients(grid, u)
    div = sum(_forward_diff(_flux(g, p, eps), axis) / grid.h for axis, g in enumerate(grads))
    return div.reshape(u.shape)


class PDirichletEnergy(SmoothFunctional):
    """phi1(w) = (1/p) sum_faces h^dim |grad w|^p (eps-regularized)."""

    def __init__(self, grid, p, eps=FLUX_EPS):
        if not p > 1:
            raise ValueError(f"exponent must exceed 1, got {p}")
        self.grid = grid
        self.p = p
        self.eps = eps
        super().__init__(
            grid.space,
            self._energy,
            self._grad_h,
            self._hess_h,
            name=f"p-dirichlet(p={p:g})",
        )

    def _energy(self, u):
        cell = self.grid.h**self.grid.dim
        total = 0.0
        for g in _face_gradients(self.grid, u):
            total += float(np.sum(_face_energy(g, self.p, self.eps)))
        return cell * total / self.p

    def _grad_h(self, u):
        return -discrete_p_laplacian(self.grid, u, self.p, eps=self.eps)

    def _hess_h(self, u):
        """H-Hessian B^T diag(w) B / h^2 in lower banded storage.

        Row k holds the couplings at node-index offset k (row 0 is the
        diagonal).  In the natural ij ordering an axis with stride s couples
        nodes s apart, so 1D needs 2 rows and 2D needs m + 1 (y faces at
        offset 1, x faces at offset m); the rows in between stay zero.
        """
        grid = self.grid
        shape = grid.shape
        ab = np.zeros((grid.m ** (grid.dim - 1) + 1, grid.npoints))
        diag = ab[0].reshape(shape)
        for axis, g in enumerate(_face_gradients(grid, u)):
            w = _face_weight(g, self.p, self.eps)
            before = (slice(None),) * axis
            diag += w[before + (slice(None, -1),)] + w[before + (slice(1, None),)]
            # the last node along the axis has no neighbour at +stride
            off = ab[grid.m ** (grid.dim - 1 - axis)].reshape(shape)
            off[before + (slice(None, -1),)] = -w[before + (slice(1, -1),)]
        ab /= grid.h**2
        return ab


def dirichlet_p_energy(grid, p, eps=FLUX_EPS):
    return PDirichletEnergy(grid, p, eps=eps)


def q_potential(grid, q):
    """phi2(w) = (1/q) sum h^dim |w_i|^q with the componentwise prox."""
    return PowerPotential(grid.space, q)


# ---------------------------------------------------------------------------
# exponent arithmetic (exact rational)

_INF = Fraction(10**12)  # sentinel; compared via the is_inf flags below


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    return Fraction(x)  # floats convert exactly (binary expansion)


@dataclass(frozen=True)
class RegimeReport:
    """Exact exponent arithmetic classifying (p, q, d)."""

    p: Fraction
    q: Fraction
    d: Fraction
    p_star: Fraction | None  # None encodes +infinity
    two_star: Fraction | None
    r_cz: Fraction | None
    theta: Fraction | None  # interpolation exponent, when the balance is active
    theta_ratio: Fraction | None  # theta (q-1)/(p-1)
    verdict: str
    condition: str
    local_ok: bool
    small_data_ok: bool
    critical: bool
    global_ok: bool

    def to_dict(self):
        def num(x):
            return None if x is None else float(x)

        return {
            "p": float(self.p),
            "q": float(self.q),
            "d": float(self.d),
            "p_star": num(self.p_star),
            "two_star": num(self.two_star),
            "r_cz": num(self.r_cz),
            "theta": num(self.theta),
            "verdict": self.verdict,
            "condition": self.condition,
        }


def _lt_star(a, star):
    """a < star with star = None meaning +infinity."""
    return True if star is None else a < star


def classify_regime(p, q, d):
    """Classify (p, q, d) into the existence regimes.

    p* = dp/(d-p)_+ and 2* = 2d/(d-2)_+ map division by (.)_+ = 0 to
    +infinity (encoded as None; every finite exponent compares below it).
    theta solves the interpolation balance

        1/(2(q-1)) = theta (1/r_cz - 1/d) + (1-theta)/p*

    with r_cz = 2*(p-1), range-checked against (0, 1); it is only active
    when 2(q-1) > p* (otherwise the direct embedding applies).
    """
    p = _as_fraction(p)
    q = _as_fraction(q)
    d = _as_fraction(d)
    if not (p > 1 and q > 1 and d >= 1):
        raise ValueError("need p, q > 1 and d >= 1")

    p_star = d * p / (d - p) if d > p else None
    two_star = 2 * d / (d - 2) if d > 2 else None
    r_cz = None if two_star is None else two_star * (p - 1)

    theta = None
    theta_ratio = None
    # the Gagliardo-Nirenberg balance needs every exponent finite
    if p_star is not None and r_cz is not None:
        lhs = Fraction(1, 2) / (q - 1)
        slope = 1 / r_cz - 1 / d - 1 / p_star
        if slope != 0:
            cand = (lhs - 1 / p_star) / slope
            if 0 < cand < 1:
                theta = cand
                theta_ratio = theta * (q - 1) / (p - 1)

    cond_82 = p > 2 * d / (d + 2) and _lt_star(q, p_star)
    local_ok = cond_82
    critical = p_star is not None and q == p_star
    small_data_ok = p < q and p > 2 * d / (d + 2) and (critical or _lt_star(q, p_star))
    global_ok = p > q and cond_82

    if global_ok:
        verdict = "global"
        condition = "p > q with p > 2d/(d+2) and q < p*"
    elif small_data_ok and critical:
        verdict = "small_data_global_critical"
        condition = "p < q = p* with p > 2d/(d+2)"
    elif small_data_ok:
        verdict = "small_data_global"
        condition = "p < q <= p* with p > 2d/(d+2)"
    elif local_ok:
        verdict = "local_existence"
        condition = "p > 2d/(d+2) and q < p*"
    else:
        verdict = "outside_theory"
        condition = "fails p > 2d/(d+2) or q <= p*"

    return RegimeReport(
        p=p,
        q=q,
        d=d,
        p_star=p_star,
        two_star=two_star,
        r_cz=r_cz,
        theta=theta,
        theta_ratio=theta_ratio,
        verdict=verdict,
        condition=condition,
        local_ok=local_ok,
        small_data_ok=small_data_ok,
        critical=critical,
        global_ok=global_ok,
    )


@dataclass(frozen=True)
class AssumptionProfile:
    """Symbolic growth data of the built-in energies.

    Scales default to unit placeholders (the theory's constants are
    nonconstructive); ``fit_lower_scale``/``fit_upper_scale`` turn sampled
    (energy, minimal-section-norm) pairs into empirical constants.
    """

    p: Fraction
    q: Fraction
    d: Fraction
    m2_exponent: Fraction  # lower bound ||dphi1|| >= c r^{(p-1)/p}
    big_m2_exponent: Fraction | None  # upper bound on ||dphi2||
    r_a3: Fraction  # norm exponent in the A3 comparison (Young absorption)
    m2_scale: float = 1.0
    big_m2_scale: float = 1.0
    nu2: float = 0.0
    nu3: float = 0.0
    c1: float = 1.0

    @property
    def ratio_vanishes(self):
        """lim_{r -> 0+} M2(r)/m2(r) = 0, decided by exponent comparison."""
        if self.big_m2_exponent is None:
            return None
        return self.big_m2_exponent > self.m2_exponent

    @staticmethod
    def fit_lower_scale(r_values, bound_values, exponent):
        r = np.asarray(r_values, dtype=np.float64)
        b = np.asarray(bound_values, dtype=np.float64)
        mask = r > 0
        return float(np.min(b[mask] / r[mask] ** float(exponent)))

    @staticmethod
    def fit_upper_scale(r_values, bound_values, exponent):
        r = np.asarray(r_values, dtype=np.float64)
        b = np.asarray(bound_values, dtype=np.float64)
        mask = r > 0
        return float(np.max(b[mask] / r[mask] ** float(exponent)))


def assumption_profile(p, q, d):
    """Exponent data for the small-data assumptions of the built-ins."""
    report = classify_regime(p, q, d)
    p, q = report.p, report.q
    m2_exp = (p - 1) / p
    if report.p_star is None or 2 * (q - 1) <= report.p_star:
        big_m2_exp = (q - 1) / p
    elif report.theta is not None and report.theta_ratio < 1:
        theta = report.theta
        big_m2_exp = Fraction(1, 1) / p * (1 - theta) * (q - 1) / (1 - theta * (q - 1) / (p - 1))
    else:
        big_m2_exp = None
    return AssumptionProfile(
        p=p,
        q=q,
        d=report.d,
        m2_exponent=m2_exp,
        big_m2_exponent=big_m2_exp,
        r_a3=Fraction(0),
    )


# ---------------------------------------------------------------------------
# experiments


def initial_profile(grid, kind, amplitude):
    coords = grid.coords()
    if kind == "zero":
        return np.zeros(grid.npoints)
    if kind == "sine":
        field_ = amplitude * np.ones(grid.shape)
        for axis_coord in coords:
            field_ = field_ * np.sin(np.pi * axis_coord)
        return field_.ravel()
    if kind == "plateau":
        # trapezoid: ramps on the outer quarters, flat top in between
        field_ = amplitude * np.ones(grid.shape)
        for axis_coord in coords:
            field_ = field_ * np.minimum(1.0, np.minimum(4.0 * axis_coord, 4.0 * (1.0 - axis_coord)))
        return field_.ravel()
    raise ValueError(f"unknown initial profile {kind!r}")


def forcing_profile(grid, kind, amplitude):
    if kind == "zero" or amplitude == 0.0:
        return None
    base = initial_profile(grid, "sine", amplitude)
    if kind == "smooth-decay":
        return lambda t: base * math.exp(-t)
    raise ValueError(f"unknown forcing profile {kind!r}")


@dataclass
class ExperimentSpec:
    """One p-Laplace subdiffusion run, fully described."""

    p: float
    q: float
    alpha: float
    grid: Grid
    amplitude: float = 1.0
    u0_profile: str = "sine"
    f_profile: str = "zero"
    f_amplitude: float = 0.0
    horizon: float = 1.0
    steps: int = 512
    exponent_dim: int | None = None  # PDE dimension for the regime arithmetic

    def with_amplitude(self, amplitude):
        return replace(self, amplitude=amplitude)


@dataclass
class ExperimentResult:
    verdict: str  # "completed" | "blew_up"
    spec: ExperimentSpec
    regime: RegimeReport
    sup_energy1: float
    e_t: float
    energy_ratio: float | None
    t_star: float | None  # last accepted node, +- tau
    tau: float
    final_norm: float | None
    trajectory: Trajectory | None = None

    @property
    def completed(self):
        return self.verdict == "completed"

    def to_row(self):
        return {
            "p": self.spec.p,
            "q": self.spec.q,
            "alpha": self.spec.alpha,
            "m": self.spec.grid.m,
            "N": self.spec.steps,
            "amplitude": self.spec.amplitude,
            "verdict": self.verdict,
            "t_star": "" if self.t_star is None else self.t_star,
            "sup_energy1": self.sup_energy1,
            "E_T": self.e_t,
            "C_emp": "" if self.energy_ratio is None else self.energy_ratio,
        }


def run_experiment(spec, config=None, keep_trajectory=False):
    """Assemble the flow problem for one experiment and solve it."""
    config = config or SolverConfig()
    grid = spec.grid
    d_exp = spec.exponent_dim if spec.exponent_dim is not None else grid.dim
    regime = classify_regime(spec.p, spec.q, d_exp)
    phi1 = dirichlet_p_energy(grid, spec.p)
    phi2 = q_potential(grid, spec.q)
    problem = ProblemSpec(
        phi1=phi1,
        phi2=phi2,
        pair=rl_pair(spec.alpha),
        u0=initial_profile(grid, spec.u0_profile, spec.amplitude),
        forcing=forcing_profile(grid, spec.f_profile, spec.f_amplitude),
        grid=TimeGrid(spec.horizon, spec.steps),
    )
    result = solve_dc_flow(problem, config)
    tau = spec.horizon / spec.steps
    if isinstance(result, BlowUpReport):
        sup_e = float(np.max(result.energy_history))
        ratio = sup_e / result.e_t if result.e_t > 0 else None
        return ExperimentResult(
            verdict="blew_up",
            spec=spec,
            regime=regime,
            sup_energy1=sup_e,
            e_t=result.e_t,
            energy_ratio=ratio,
            t_star=result.time - tau,  # last accepted node before the crossing
            tau=tau,
            final_norm=None,
        )
    ratio = result.sup_energy1 / result.e_t if result.e_t > 0 else None
    return ExperimentResult(
        verdict="completed",
        spec=spec,
        regime=regime,
        sup_energy1=result.sup_energy1,
        e_t=result.e_t,
        energy_ratio=ratio,
        t_star=None,
        tau=tau,
        final_norm=float(result.norms[-1]),
        trajectory=result if keep_trajectory else None,
    )


class BisectionPremiseError(ValueError):
    """Amplitude bracket invalid: both endpoints complete or both blow up."""


@dataclass
class BisectionBracket:
    a_minus: float
    a_plus: float
    low_result: ExperimentResult
    high_result: ExperimentResult
    runs: int
    tag: dict  # discretization tag: the bracket is grid-specific

    @property
    def ratio(self):
        return self.a_plus / self.a_minus


def amplitude_bisection(spec, a_lo, a_hi, budget=40, target_ratio=1.1, config=None):
    """Bracket the empirical blow-up amplitude of an experiment template.

    Verifies the premise first (a_lo completes, a_hi blows up), then
    bisects until a_plus/a_minus <= target_ratio or the budget runs out.
    The bracket carries a discretization tag; it is an empirical probe of
    the smallness threshold, never a theoretical claim.
    """
    if not 0 < a_lo <= a_hi:
        raise ValueError("need 0 < a_lo <= a_hi")
    low = run_experiment(spec.with_amplitude(a_lo), config)
    high = run_experiment(spec.with_amplitude(a_hi), config)
    runs = 2
    if not low.completed or high.completed:
        raise BisectionPremiseError(
            f"premise failed: A_lo={a_lo} {'completed' if low.completed else 'blew up'}, "
            f"A_hi={a_hi} {'completed' if high.completed else 'blew up'}"
        )
    while a_hi / a_lo > target_ratio and runs < budget:
        mid = math.sqrt(a_lo * a_hi)
        res = run_experiment(spec.with_amplitude(mid), config)
        runs += 1
        if res.completed:
            a_lo, low = mid, res
        else:
            a_hi, high = mid, res
    return BisectionBracket(
        a_minus=a_lo,
        a_plus=a_hi,
        low_result=low,
        high_result=high,
        runs=runs,
        tag={
            "m": spec.grid.m,
            "dim": spec.grid.dim,
            "N": spec.steps,
            "alpha": spec.alpha,
            "p": spec.p,
            "q": spec.q,
            "horizon": spec.horizon,
        },
    )
