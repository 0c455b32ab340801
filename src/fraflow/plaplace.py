"""p-Laplace subdiffusion application: discrete Dirichlet energies on 1D/2D
grids, exponent-regime classification and blow-up / global-existence
experiments.

Discretization: homogeneous Dirichlet ghosts, face gradients by forward
differences, flux (|g|^2 + eps^2)^{(p-2)/2} g with eps = 1e-12 (keeps the
flux finite at zero gradient for p < 2; a documented deviation from the
exact subdifferential).  The energy uses the same regularization, so the
negative discrete p-Laplacian is exactly the H-gradient of the energy.
Its resolvent is damped Newton with the banded p-Dirichlet Hessian, except
at p = 2: there the flux is the face gradient itself, the Hessian is the
fixed matrix B^T B / h^2, and the resolvent is one band factorization per
lam with one back-substitution of all rows per step, with no Newton
iteration.

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
from .solver import ProblemSpec, SolverConfig, Trajectory, solve_dc_rows

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
    # np.diff(a, axis=axis) by two slices, without np.diff's per-call cost;
    # axis counts from the end, so leading stack axes pass through
    after = (slice(None),) * (-1 - axis)
    return a[(..., slice(1, None)) + after] - a[(..., slice(None, -1)) + after]


def _face_gradients(grid, u):
    """Forward-difference face gradients of a stack of states.

    A leading stack axis, then the grid axes; a single state is a stack of
    one.
    """
    h = grid.h
    u = u.reshape((-1,) + grid.shape)
    z = np.zeros((len(u),) + (grid.m + 2,) * grid.dim)
    if grid.dim == 1:
        z[..., 1:-1] = u
        return (_forward_diff(z, -1) / h,)
    z[..., 1:-1, 1:-1] = u
    gx = _forward_diff(z[..., 1:-1], -2) / h
    gy = _forward_diff(z[..., 1:-1, :], -1) / h
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
    div = sum(_forward_diff(_flux(g, p, eps), axis - grid.dim) / grid.h for axis, g in enumerate(grads))
    return div.reshape(u.shape)


class PDirichletEnergy(SmoothFunctional):
    """phi1(w) = (1/p) sum_faces h^dim |grad w|^p (eps-regularized).

    At p = 2 the flux is the face gradient itself and ``_face_weight`` is
    exactly 1.0, so the gradient is linear and the Hessian is the fixed
    matrix B^T B / h^2: the functional is ``linear`` and its resolvent is
    one band solve, factored once per lam (see :class:`SmoothFunctional`).
    """

    def __init__(self, grid, p):
        if not p > 1:
            raise ValueError(f"exponent must exceed 1, got {p}")
        self.grid = grid
        self.p = p
        super().__init__(grid.space, self._energy, self._grad_h, self._hess_h, linear=p == 2)

    def _energy(self, u):
        cell = self.grid.h**self.grid.dim
        total = 0.0
        for g in _face_gradients(self.grid, u):
            # one sum per state, in the order of a sum over its faces
            energy = _face_energy(g, self.p, FLUX_EPS)
            total += energy.reshape(len(energy), -1).sum(axis=-1)
        return cell * total / self.p

    def _grad_h(self, u):
        return -discrete_p_laplacian(self.grid, u, self.p, FLUX_EPS)

    def _hess_h(self, u):
        """H-Hessians B^T diag(w) B / h^2 of a stack of states, in lower banded storage.

        Row k holds the couplings at node-index offset k (row 0 is the
        diagonal).  In the natural ij ordering an axis with stride s couples
        nodes s apart, so 1D needs 2 rows and 2D needs m + 1 (y faces at
        offset 1, x faces at offset m); the rows in between stay zero.  The
        states' blocks follow one another along the columns, and the last
        node of a block has no coupling past it, so the storage is that of
        the block-diagonal matrix.
        """
        grid = self.grid
        faces = _face_gradients(grid, u)
        ab = np.zeros((grid.m ** (grid.dim - 1) + 1, len(faces[0])) + grid.shape)
        diag = ab[0]
        for axis, g in enumerate(faces):
            w = _face_weight(g, self.p, FLUX_EPS)
            after = (slice(None),) * (grid.dim - 1 - axis)
            diag += w[(..., slice(None, -1)) + after] + w[(..., slice(1, None)) + after]
            # the last node along the axis has no neighbour at +stride
            off = ab[grid.m ** (grid.dim - 1 - axis)]
            off[(..., slice(None, -1)) + after] = -w[(..., slice(1, -1)) + after]
        ab /= grid.h**2
        return ab.reshape(len(ab), -1)


# ---------------------------------------------------------------------------
# exponent arithmetic (exact rational)


def _as_fraction(x):
    # ints and floats convert exactly (a float by its binary expansion)
    return x if isinstance(x, Fraction) else Fraction(x)


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

    local_ok = p > 2 * d / (d + 2) and _lt_star(q, p_star)
    critical = p_star is not None and q == p_star
    small_data_ok = p < q and p > 2 * d / (d + 2) and (critical or _lt_star(q, p_star))
    global_ok = p > q and local_ok

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

    def with_amplitude(self, amplitude):
        return replace(self, amplitude=amplitude)


@dataclass
class ExperimentResult:
    """Outcome of one experiment that ran to its end or to a blow-up.

    A run whose solve raises (a resolvent or a coupled Picard loop that
    stalls at a bounded state) has no result: the exception is its outcome.
    ``trajectory`` is the solver's record when it is kept: the whole path
    of a completed run, the energies and norms up to T* of a blow-up.
    """

    verdict: str  # "completed" | "blew_up"
    spec: ExperimentSpec
    regime: RegimeReport
    sup_energy1: float
    e_t: float
    energy_ratio: float | None
    t_star: float | None  # last accepted node, +- tau
    final_norm: float | None
    trajectory: Trajectory | None = None

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


def run_experiment(spec, config=None):
    """Assemble the flow problem for one experiment and solve it, keeping its trajectory."""
    outcome = run_experiments([spec], config, keep_trajectory=True)[0]
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_experiments(specs, config=None, keep_trajectory=False):
    """Solve experiments that differ only in their exponent q and amplitude as one batch.

    Every spec with one q shares one ``PowerPotential`` and one
    ``RegimeReport``; the solver evaluates the potentials of all q in one
    Yosida call per step, one exponent per row.
    Returns, per spec, what :func:`run_experiment` returns for it alone, or
    the exception it raises alone.  Without ``keep_trajectory`` the solver
    stores no path but the history input and re-assembles no residuals;
    the result rows are the same either way.
    """
    config = config or SolverConfig()
    first = specs[0]
    if any(replace(spec, q=first.q, amplitude=first.amplitude) != first for spec in specs):
        raise ValueError("the experiments of a batch may differ in q and amplitude only")
    grid = first.grid
    phi1 = PDirichletEnergy(grid, first.p)
    pair = rl_pair(first.alpha)
    forcing = forcing_profile(grid, first.f_profile, first.f_amplitude)
    time_grid = TimeGrid(first.horizon, first.steps)
    outcomes = [None] * len(specs)
    regimes, phi2s = {}, {}  # by q
    problems = []
    for i, spec in enumerate(specs):
        try:
            if spec.q not in phi2s:
                regimes[spec.q] = classify_regime(spec.p, spec.q, grid.dim)
                phi2s[spec.q] = PowerPotential(grid.space, spec.q)
            u0 = initial_profile(grid, spec.u0_profile, spec.amplitude)
            problems.append((i, ProblemSpec(phi1=phi1, phi2=phi2s[spec.q], pair=pair, u0=u0, forcing=forcing, grid=time_grid)))
        except Exception as exc:  # noqa: BLE001 - the row's own outcome
            outcomes[i] = exc
    # consumed chunk by chunk: once its trajectories are dropped, a chunk's
    # buffers are freed before the next chunk is solved (a zip over the
    # generator would keep the last row alive in its cached result tuple)
    results = iter(solve_dc_rows([problem for _, problem in problems], config, keep_trajectory) if problems else [])
    for i, _ in problems:
        result = next(results)
        spec = specs[i]
        if isinstance(result, Exception):
            outcomes[i] = result
        else:
            completed = result.reason is None
            outcomes[i] = ExperimentResult(
                verdict="completed" if completed else "blew_up",
                spec=spec,
                regime=regimes[spec.q],
                sup_energy1=result.sup_energy1,
                e_t=result.e_t,
                energy_ratio=result.sup_energy1 / result.e_t if result.e_t > 0 else None,
                t_star=result.t_star,
                final_norm=float(result.norms[-1]) if completed else None,
                trajectory=result if keep_trajectory else None,
            )
        del result  # the next chunk is solved while this name is still bound
    return outcomes
