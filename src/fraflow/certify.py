"""Numerical certificates for the Volterra-inequality lemmas, the integral
chain-rule inequalities and the derivative/antiderivative pairing, plus the
Mittag-Leffler oracle used by the solver tests.

Every certificate lands in exactly one of three disjoint outcomes:
``pass``, ``fail`` (with a worst-node witness) or ``reject`` (its input
violates the lemma's hypotheses, so nothing about the lemma was tested).

Discrete conventions: sampled-kernel convolutions use the left rectangle
rule in both factors,

    (g * phi)(t_j) ~= tau * sum_{i=0..j-1} g[j-1-i] * phi[i],

which makes "build phi from equality by forward substitution" exact and is
the same quadrature the certificates verify against.  Sup norms of sampled
paths are node-wise maxima; the grid gap is reported, never hidden.
"""

import json
import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
from scipy.special import gammaln

from ._accel import causal_conv
from .kernels import conv_weights, inverse_weights, nonlocal_antiderivative, nonlocal_derivative


def slack_budget(tau, coeff=0.0):
    """Discretization slack 1e-8 + coeff * sqrt(tau).

    The continuous inequalities are exact; ``coeff`` is fitted on a
    refinement ladder per problem family and frozen in fixtures, never
    asserted as theory.
    """
    return 1e-8 + coeff * math.sqrt(tau)


# ---------------------------------------------------------------------------
# Mittag-Leffler oracle


def _series_peak_log10(alpha, x):
    # largest log10 term of sum x^k / Gamma(alpha k + 1); controls the
    # precision needed to survive the alternating-series cancellation
    best = 0.0
    k = 1
    while k < 200000:
        v = k * math.log(x) - gammaln(alpha * k + 1.0)
        if v > best:
            best = v
        elif v < best - 60.0:
            break
        k += max(1, k // 5)
    else:
        return math.inf  # peak beyond any workable precision
    return best / math.log(10.0)


def _ml_series(alpha, z):
    peak = _series_peak_log10(alpha, abs(z))
    if not peak < 600.0:
        # cancellation beyond a workable precision (tiny alpha at the far
        # end of the series window); the spectral route is exact there
        return _ml_spectral(alpha, z)
    dps = 25 + int(peak) + 10
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        # the gamma argument must be formed in extended precision: float64
        # rounding of alpha*k is amplified by the alternating-series
        # cancellation to O(peak * 1e-16)
        aa = mpmath.mpf(alpha)
        total = mpmath.mpf(1)
        k = 1
        prev = mpmath.mpf(1)
        while k < 200000:
            term = mpmath.power(zz, k) / mpmath.gamma(aa * k + 1)
            total += term
            if abs(term) < 1e-15 * abs(total) and abs(term) < abs(prev):
                break
            prev = term
            k += 1
        return float(total)


def _ml_spectral(alpha, z):
    # E_alpha(-x) = int_0^infty exp(-r x^(1/alpha)) K(r) dr with the
    # completely monotone spectral density K; exact on the whole branch,
    # consistent with the -1/(z Gamma(1-alpha)) leading asymptotics
    x = -z
    t = x ** (1.0 / alpha)
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        sin_api = mpmath.sin(a * mpmath.pi)
        cos_api = mpmath.cos(a * mpmath.pi)

        def density(r):
            return (
                r ** (a - 1)
                * sin_api
                / (r ** (2 * a) + 2 * r**a * cos_api + 1)
                / mpmath.pi
            )

        val = mpmath.quad(lambda r: mpmath.exp(-r * t) * density(r), [0, 1, mpmath.inf])
        return float(val)


def mittag_leffler(alpha, z):
    """E_alpha(z) on the completely monotone branch (z <= 0, 0 < alpha <= 1).

    Power series with term-ratio stopping at 1e-15 for |z| <= 5 (carried
    out in adaptive extended precision, since the alternating series
    cancels catastrophically in double precision for small alpha); the
    spectral-integral representation beyond.  alpha = 1 short-circuits to
    exp.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"order must lie in (0, 1], got {alpha}")
    if z > 0.0:
        raise ValueError(f"argument must be <= 0 on this branch, got {z}")
    if z == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(z)
    if abs(z) <= 5.0:
        return _ml_series(alpha, z)
    return _ml_spectral(alpha, z)


def scalar_flow_solution(alpha, times):
    """Solution E_alpha(-t^alpha) of the scalar model flow with unit data."""
    return np.array([mittag_leffler(alpha, -float(t) ** alpha) if t > 0 else 1.0 for t in times])


# ---------------------------------------------------------------------------
# sampled-kernel convolution and Picard constructors


def sample_conv(g, phi, tau):
    """Left-rectangle convolution of two node-sampled paths; out[0] = 0."""
    n = len(g) - 1
    return tau * causal_conv(g[:n], phi[:n])


def picard_from_equality(rhs0, g, transform, tau):
    """Forward-substitute phi = rhs0 + g * transform(phi) node by node.

    The left-rectangle convolution only sees phi[0..j-1] at node j, so the
    construction is explicit and the resulting path satisfies the integral
    relation with equality under :func:`sample_conv`.
    """
    rhs0 = np.asarray(rhs0, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    n = g.shape[0] - 1
    phi = np.empty(n + 1)
    tphi = np.empty(n + 1)
    phi[0] = rhs0[0] if rhs0.ndim else float(rhs0)
    tphi[0] = transform(phi[0])
    base = np.broadcast_to(rhs0, (n + 1,))
    for j in range(1, n + 1):
        conv = tau * float(g[:j][::-1] @ tphi[:j])
        phi[j] = base[j] + conv
        tphi[j] = transform(phi[j])
    return phi


# ---------------------------------------------------------------------------
# Gronwall-type certificates


@dataclass
class Certificate:
    lemma: str
    status: str  # "pass" | "fail" | "reject"
    details: dict = field(default_factory=dict)

    @property
    def passed(self):
        return self.status == "pass"

    @property
    def rejected(self):
        return self.status == "reject"

    def to_dict(self):
        return {"lemma": self.lemma, "status": self.status, **_plain(self.details)}

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), **kw)


def _plain(obj):
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def _lr_norm(x, r, tau):
    x = np.abs(np.asarray(x, dtype=np.float64))
    if math.isinf(r):
        return float(np.max(x))
    return float((tau * np.sum(x[:-1] ** r)) ** (1.0 / r))


@dataclass
class GronwallLinearInstance:
    """Data of phi <= h + g * phi with an L^r conclusion on (0, S)."""

    tau: float
    phi: np.ndarray
    h: np.ndarray
    g: np.ndarray
    r: float = np.inf

    @property
    def horizon(self):
        return self.tau * (len(self.phi) - 1)


def gronwall_linear(instance, hypothesis_rtol=1e-9):
    """Certify ||phi||_r <= C0 ||h||_r with C0 = 2 exp(M S).

    M is found by bisection on ||g e^{-M .}||_L1(0,S) = 1/2 (bracket
    [0, 1e4], 200 iterations); inputs violating phi <= h + g * phi are
    rejected, not failed.
    """
    ins = instance
    tau = ins.tau
    conv = sample_conv(ins.g, ins.phi, tau)
    bound = ins.h + conv
    scale = 1.0 + float(np.max(np.abs(bound)))
    gap = ins.phi - bound
    if np.any(gap > hypothesis_rtol * scale):
        worst = int(np.argmax(gap))
        return Certificate(
            "gronwall-linear",
            "reject",
            {
                "reason": "hypothesis phi <= h + g*phi fails",
                "worst_node": worst,
                "violation": float(gap[worst]),
            },
        )
    times = tau * np.arange(len(ins.g))

    def weighted_l1(m):
        return tau * float(np.sum(ins.g[:-1] * np.exp(-m * times[:-1])))

    if weighted_l1(0.0) <= 0.5:
        m_const = 0.0
    else:
        lo, hi = 0.0, 1e4
        if weighted_l1(hi) > 0.5:
            return Certificate(
                "gronwall-linear",
                "reject",
                {"reason": "bisection bracket [0, 1e4] failed for M"},
            )
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if weighted_l1(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        m_const = hi
    s_hor = ins.horizon
    c0 = 2.0 * math.exp(m_const * s_hor)
    lhs = _lr_norm(ins.phi, ins.r, tau)
    rhs = c0 * _lr_norm(ins.h, ins.r, tau)
    ok = lhs <= rhs * (1.0 + 1e-12) + 1e-12
    return Certificate(
        "gronwall-linear",
        "pass" if ok else "fail",
        {
            "M": m_const,
            "C0": c0,
            "r": ins.r if not math.isinf(ins.r) else "inf",
            "phi_norm": lhs,
            "h_norm": rhs / c0 if c0 else 0.0,
            "bound": rhs,
            "horizon": s_hor,
        },
    )


@dataclass
class GronwallLocalInstance:
    """Data of phi <= a + g * M(phi): constant a, nondecreasing M, kernel g."""

    tau: float
    a: float
    big_m: object  # callable, nondecreasing on [0, infty)
    g: np.ndarray

    @property
    def horizon(self):
        return self.tau * (len(self.g) - 1)


def gronwall_local(instance, phi, hypothesis_rtol=1e-9):
    """Certify sup phi <= a + 1 on [0, min(R, S)].

    R is the largest grid time with int_0^R g < 1/(4 M(a+1)), computed
    with the same rectangle rule as the convolution (capped at S when the
    whole integral stays below the threshold).
    """
    ins = instance
    tau = ins.tau
    phi = np.asarray(phi, dtype=np.float64)
    transformed = np.array([ins.big_m(v) for v in phi])
    bound = ins.a + sample_conv(ins.g, transformed, tau)
    gap = phi - bound
    scale = 1.0 + float(np.max(np.abs(bound)))
    if np.any(gap > hypothesis_rtol * scale):
        worst = int(np.argmax(gap))
        return Certificate(
            "gronwall-local",
            "reject",
            {
                "reason": "hypothesis phi <= a + g*M(phi) fails",
                "worst_node": worst,
                "violation": float(gap[worst]),
            },
        )
    threshold = 1.0 / (4.0 * ins.big_m(ins.a + 1.0))
    cumulative = tau * np.concatenate([[0.0], np.cumsum(ins.g[:-1])])
    below = np.nonzero(cumulative < threshold)[0]
    r_idx = int(below[-1]) if len(below) else 0
    r_time = r_idx * tau
    capped = r_idx == len(phi) - 1
    window = phi[: r_idx + 1]
    sup = float(np.max(window))
    ok = sup <= ins.a + 1.0 + 1e-12
    return Certificate(
        "gronwall-local",
        "pass" if ok else "fail",
        {
            "R": r_time,
            "R_capped_at_horizon": capped,
            "threshold": threshold,
            "sup_phi": sup,
            "bound": ins.a + 1.0,
            "worst_node": int(np.argmax(window)),
        },
    )


@dataclass
class GronwallSmallInstance:
    """Data of phi <= b + g * N(phi) with N <= 0 on [0, delta], b < delta."""

    tau: float
    b: float
    delta: float
    n_fn: object
    g: np.ndarray


def gronwall_small(instance, phi, hypothesis_rtol=1e-9, sign_grid=512):
    """Certify sup phi <= b + eps_grid on the whole horizon.

    eps_grid reflects the node-wise sampling of the essential sup and is
    reported, not hidden.
    """
    ins = instance
    tau = ins.tau
    if ins.b >= ins.delta:
        return Certificate(
            "gronwall-small",
            "reject",
            {"reason": "requires b < delta", "b": ins.b, "delta": ins.delta},
        )
    probe = np.linspace(0.0, ins.delta, sign_grid)
    n_vals = np.array([ins.n_fn(v) for v in probe])
    if np.any(n_vals > hypothesis_rtol):
        worst = int(np.argmax(n_vals))
        return Certificate(
            "gronwall-small",
            "reject",
            {
                "reason": "N(r) > 0 inside [0, delta]",
                "worst_r": float(probe[worst]),
                "value": float(n_vals[worst]),
            },
        )
    phi = np.asarray(phi, dtype=np.float64)
    transformed = np.array([ins.n_fn(v) for v in phi])
    bound = ins.b + sample_conv(ins.g, transformed, tau)
    gap = phi - bound
    scale = 1.0 + float(np.max(np.abs(bound)))
    if np.any(gap > hypothesis_rtol * scale):
        worst = int(np.argmax(gap))
        return Certificate(
            "gronwall-small",
            "reject",
            {
                "reason": "hypothesis phi <= b + g*N(phi) fails",
                "worst_node": worst,
                "violation": float(gap[worst]),
            },
        )
    eps_grid = 1e-10 * (1.0 + ins.b)
    sup = float(np.max(phi))
    ok = sup <= ins.b + eps_grid
    return Certificate(
        "gronwall-small",
        "pass" if ok else "fail",
        {
            "sup_phi": sup,
            "b": ins.b,
            "eps_grid": eps_grid,
            "worst_node": int(np.argmax(phi)),
        },
    )


# ---------------------------------------------------------------------------
# randomized instance constructors (brute-force closure of the lemmas)


def _random_nonneg_path(rng, n):
    kind = rng.integers(0, 3)
    t = np.linspace(0.0, 1.0, n + 1)
    if kind == 0:
        return rng.uniform(0.2, 2.0) * (1.0 + np.sin(rng.uniform(1, 6) * t + rng.uniform(0, 6)) ** 2)
    if kind == 1:
        return rng.uniform(0.1, 1.5) * np.exp(-rng.uniform(0.0, 2.0) * t)
    return rng.uniform(0.05, 1.0) * np.ones(n + 1)


def random_linear_instance(rng):
    n = int(rng.integers(64, 257))
    horizon = rng.uniform(0.5, 2.0)
    tau = horizon / n
    h = _random_nonneg_path(rng, n)
    g = rng.uniform(0.1, 2.0) * _random_nonneg_path(rng, n)
    phi = picard_from_equality(h, g, lambda v: v, tau)
    r = float(rng.choice([1.0, 2.0, np.inf]))
    return GronwallLinearInstance(tau=tau, phi=phi, h=h, g=g, r=r)


def random_local_instance(rng):
    n = int(rng.integers(64, 257))
    horizon = rng.uniform(0.5, 2.0)
    tau = horizon / n
    a = rng.uniform(0.0, 2.0)
    c0, c1 = rng.uniform(0.05, 1.0), rng.uniform(0.0, 1.0)
    big_m = lambda r: c0 + c1 * max(r, 0.0)
    g = rng.uniform(0.1, 1.5) * _random_nonneg_path(rng, n)
    phi = picard_from_equality(np.full(n + 1, a), g, big_m, tau)
    return GronwallLocalInstance(tau=tau, a=a, big_m=big_m, g=g), phi


def random_small_instance(rng):
    n = int(rng.integers(64, 257))
    horizon = rng.uniform(0.5, 2.0)
    tau = horizon / n
    b = rng.uniform(0.05, 0.5)
    delta = b + rng.uniform(0.1, 1.0)
    g = rng.uniform(0.1, 1.5) * _random_nonneg_path(rng, n)
    g_mass = tau * float(np.sum(g[:-1]))
    # N(r) = c (r^2 - delta r) <= 0 on [0, delta]; c scaled so phi = b + g*N(phi)
    # stays nonnegative (|N| <= c delta^2/4 along the construction)
    c = rng.uniform(0.2, 1.0) * 4.0 * b / max(g_mass * delta**2, 1e-12)
    n_fn = lambda r: c * (r**2 - delta * r)
    phi = picard_from_equality(np.full(n + 1, b), g, n_fn, tau)
    return GronwallSmallInstance(tau=tau, b=b, delta=delta, n_fn=n_fn, g=g), phi


# ---------------------------------------------------------------------------
# chain-rule and derivative pairing certificates on trajectories


@dataclass
class ChainRuleReport:
    """Margins of both integral chain-rule forms along one trajectory."""

    margin_cumulative: np.ndarray  # form (i), nodes 1..N
    margin_pointwise: np.ndarray  # form (ii), nodes 1..N
    min_margin_cumulative: float
    min_margin_pointwise: float
    worst_node_cumulative: int
    worst_node_pointwise: int
    min_margin_quadrature: float  # form (ii) with product-integration ell
    inverse_order_preserving: bool
    slack: float
    slack_coeff: float
    passed: bool

    def to_dict(self):
        return {
            "certificate": "chain-rule",
            "status": "pass" if self.passed else "fail",
            "min_margin_cumulative": self.min_margin_cumulative,
            "min_margin_pointwise": self.min_margin_pointwise,
            "worst_node_cumulative": self.worst_node_cumulative,
            "worst_node_pointwise": self.worst_node_pointwise,
            "min_margin_quadrature": self.min_margin_quadrature,
            "inverse_order_preserving": self.inverse_order_preserving,
            "slack": self.slack,
            "slack_coeff": self.slack_coeff,
        }


def check_chain_rule(traj, phi, pair, slack_coeff=0.0, xi=None):
    """Check both integral chain-rule forms for the selection xi of phi.

    Form (i): the cumulative pairing of the nonlocal derivative with the
    selection dominates k * (phi(u) - phi(u0)).  Form (ii): the conjugate
    convolution of the pairing dominates phi(u(t)) - phi(u0) pointwise.
    Margins must stay above -slack(tau).

    The conjugate convolution in form (ii) is realized as the exact
    triangular inverse of the discrete derivative (how the pairing
    property defines ell against the scheme's own operator); its order
    preservation is verified through the inverse weights.  The
    product-integration variant of the conjugate is reported as a
    secondary diagnostic: on stiff problems its quadrature defect against
    the initial layer does not vanish under refinement.
    """
    grid = traj.grid
    tau = grid.tau
    u = traj.states
    xi = traj.xi if xi is None else xi
    space = phi.space
    v = u - u[0]
    deriv = nonlocal_derivative(pair.k, v, grid)
    pairing = np.zeros(grid.steps + 1)
    pairing[1:] = space.weight * np.sum(deriv[1:] * xi[1:], axis=tuple(range(1, u.ndim)))
    energy = np.array([phi.value(u[j]) for j in range(grid.steps + 1)])
    energy_gap = energy - energy[0]

    omega_k = conv_weights(pair.k, grid).omega
    omega_ell = conv_weights(pair.ell, grid).omega
    inv_ok = bool(np.all(inverse_weights(pair.k, grid) >= -1e-14))

    lhs_cum = tau * np.cumsum(pairing[1:])
    rhs_cum = causal_conv(omega_k, energy_gap[1:])[1:]
    margin_cum = lhs_cum - rhs_cum

    lhs_pt = nonlocal_antiderivative(pair.k, pairing, grid)[1:]
    rhs_pt = energy_gap[1:]
    margin_pt = lhs_pt - rhs_pt
    lhs_quad = causal_conv(omega_ell, pairing[1:])[1:]
    margin_quad = lhs_quad - rhs_pt

    slack = slack_budget(tau, slack_coeff)
    min_cum = float(np.min(margin_cum))
    min_pt = float(np.min(margin_pt))
    return ChainRuleReport(
        margin_cumulative=margin_cum,
        margin_pointwise=margin_pt,
        min_margin_cumulative=min_cum,
        min_margin_pointwise=min_pt,
        worst_node_cumulative=int(np.argmin(margin_cum)) + 1,
        worst_node_pointwise=int(np.argmin(margin_pt)) + 1,
        min_margin_quadrature=float(np.min(margin_quad)),
        inverse_order_preserving=inv_ok,
        slack=slack,
        slack_coeff=slack_coeff,
        passed=min_cum >= -slack and min_pt >= -slack and inv_ok,
    )


def check_ab_inequality(traj, pair, slack_coeff=0.0):
    """Pairing of the local and nonlocal derivatives along a trajectory.

    Checks, for every truncation node J,

        sum_{j<=J} tau <(u_j - u_{j-1})/tau, B(u - u0)(t_j)>
            >= 1/2 (ell * ||B(u - u0)||^2)(t_J) - slack(tau),

    the discrete face of the maximal monotonicity of the derivative sum.
    """
    grid = traj.grid
    tau = grid.tau
    u = traj.states
    space_w = traj.space_weight
    v = u - u[0]
    deriv = nonlocal_derivative(pair.k, v, grid)
    du = np.diff(u, axis=0) / tau
    axes = tuple(range(1, u.ndim))
    pairing = space_w * np.sum(du * deriv[1:], axis=axes)
    lhs = tau * np.cumsum(pairing)
    sq = np.zeros(grid.steps + 1)
    sq[1:] = space_w * np.sum(deriv[1:] ** 2, axis=axes)
    omega_ell = conv_weights(pair.ell, grid).omega
    rhs = 0.5 * causal_conv(omega_ell, sq[1:])[1:]
    margin = lhs - rhs
    slack = slack_budget(tau, slack_coeff)
    worst = int(np.argmin(margin))
    return Certificate(
        "derivative-pairing",
        "pass" if margin[worst] >= -slack else "fail",
        {
            "min_margin": float(margin[worst]),
            "worst_node": worst + 1,
            "slack": slack,
            "slack_coeff": slack_coeff,
        },
    )
