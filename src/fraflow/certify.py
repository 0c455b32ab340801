"""Numerical certificates for the Volterra-inequality lemmas, the integral
chain-rule inequalities and the derivative/antiderivative pairing, plus the
Mittag-Leffler oracle used by the solver tests.

Every check returns one record, ``kernels.Certificate(name, status,
details, key)``, as do ``solver.continuity_modulus`` and
``kernels.verify_sonine``.  ``key`` is the JSON key of the name:
``"lemma"`` for the Gronwall lemmas and the derivative pairing,
``"certificate"`` for the chain rule, the continuity modulus and the
Sonine identity.  The status is exactly one of three disjoint outcomes:
``pass``, ``fail`` (with a worst-node witness) or ``reject`` (its input
violates the check's hypotheses, so nothing about it was tested).

Discrete conventions: sampled-kernel convolutions use the left rectangle
rule in both factors,

    (g * phi)(t_j) ~= tau * sum_{i=0..j-1} g[j-1-i] * phi[i],

which makes "build phi from equality by forward substitution" exact and is
the same quadrature the certificates verify against.  Sup norms of sampled
paths are node-wise maxima; the grid gap is reported, never hidden.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._accel import causal_conv
from .kernels import Certificate, _log_gamma, convolve, inverse_weights, nonlocal_antiderivative, nonlocal_derivative


def slack_budget(tau, coeff):
    """Discretization slack 1e-8 + coeff * sqrt(tau).

    The continuous inequalities are exact; ``coeff`` is fitted on a
    refinement ladder per problem family and frozen in fixtures, never
    asserted as theory.
    """
    return 1e-8 + coeff * math.sqrt(tau)


# ---------------------------------------------------------------------------
# Mittag-Leffler oracle
#
# mpmath is imported inside the two extended-precision routines: no CLI
# command calls the oracle, so a run never pays for loading it.


def _series_peak_log10(alpha, x):
    # largest log10 term of sum x^k / Gamma(alpha k + 1); controls the
    # precision needed to survive the alternating-series cancellation
    best = 0.0
    k = 1
    while k < 200000:
        v = k * math.log(x) - _log_gamma(alpha * k + 1.0)
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
    import mpmath

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
    import mpmath

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

# an input breaks a lemma's hypothesis, and is rejected, when it exceeds its
# bound by more than HYPOTHESIS_TOL times the bound's scale; gronwall_small
# also rejects N > HYPOTHESIS_TOL at one of SIGN_PROBES points of [0, delta]
HYPOTHESIS_TOL = 1e-9
SIGN_PROBES = 512


def _hypothesis_reject(lemma, hypothesis, phi, bound):
    """The reject of ``lemma`` at its worst node when ``phi`` exceeds
    ``bound`` somewhere by more than HYPOTHESIS_TOL times the bound's
    scale, else None."""
    gap = phi - bound
    scale = 1.0 + float(np.max(np.abs(bound)))
    if not np.any(gap > HYPOTHESIS_TOL * scale):
        return None
    worst = int(np.argmax(gap))
    details = {"reason": f"hypothesis {hypothesis} fails", "worst_node": worst, "violation": float(gap[worst])}
    return Certificate(lemma, "reject", details)


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


def gronwall_linear(instance):
    """Certify ||phi||_r <= C0 ||h||_r with C0 = 2 exp(M S).

    M is found by bisection on ||g e^{-M .}||_L1(0,S) = 1/2 (bracket
    [0, 1e4], 200 iterations); inputs violating phi <= h + g * phi are
    rejected, not failed.
    """
    ins = instance
    tau = ins.tau
    bound = ins.h + sample_conv(ins.g, ins.phi, tau)
    if reject := _hypothesis_reject("gronwall-linear", "phi <= h + g*phi", ins.phi, bound):
        return reject
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


def gronwall_local(instance, phi):
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
    if reject := _hypothesis_reject("gronwall-local", "phi <= a + g*M(phi)", phi, bound):
        return reject
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


def gronwall_small(instance, phi):
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
    probe = np.linspace(0.0, ins.delta, SIGN_PROBES)
    n_vals = np.array([ins.n_fn(v) for v in probe])
    if np.any(n_vals > HYPOTHESIS_TOL):
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
    if reject := _hypothesis_reject("gronwall-small", "phi <= b + g*N(phi)", phi, bound):
        return reject
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


def check_chain_rule(traj, pair, slack_coeff=0.0):
    """Check both integral chain-rule forms for the selection traj.xi of phi1.

    Form (i): the cumulative pairing of the nonlocal derivative with the
    selection dominates k * (phi1(u) - phi1(u0)).  Form (ii): the conjugate
    convolution of the pairing dominates phi1(u(t)) - phi1(u0) pointwise.
    Margins must stay above -slack(tau).  The energies are the solver's,
    ``traj.energy1``, and the pairing takes the weight ``traj.space_weight``.

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
    deriv = nonlocal_derivative(pair.k, u - u[0], grid)
    pairing = np.zeros(grid.steps + 1)
    pairing[1:] = traj.space_weight * np.sum(deriv[1:] * traj.xi[1:], axis=tuple(range(1, u.ndim)))
    energy_gap = traj.energy1 - traj.energy1[0]

    inv_ok = bool(np.all(inverse_weights(pair.k, grid) >= -1e-14))

    lhs_cum = tau * np.cumsum(pairing[1:])
    rhs_cum = convolve(pair.k, energy_gap, grid)[1:]
    margin_cum = lhs_cum - rhs_cum

    lhs_pt = nonlocal_antiderivative(pair.k, pairing, grid)[1:]
    rhs_pt = energy_gap[1:]
    margin_pt = lhs_pt - rhs_pt
    lhs_quad = convolve(pair.ell, pairing, grid)[1:]
    margin_quad = lhs_quad - rhs_pt

    slack = slack_budget(tau, slack_coeff)
    min_cum = float(np.min(margin_cum))
    min_pt = float(np.min(margin_pt))
    return Certificate(
        "chain-rule",
        "pass" if min_cum >= -slack and min_pt >= -slack and inv_ok else "fail",
        {
            "min_margin_cumulative": min_cum,
            "min_margin_pointwise": min_pt,
            "worst_node_cumulative": int(np.argmin(margin_cum)) + 1,
            "worst_node_pointwise": int(np.argmin(margin_pt)) + 1,
            # form (ii) with the product-integration ell
            "min_margin_quadrature": float(np.min(margin_quad)),
            "inverse_order_preserving": inv_ok,
            "slack": slack,
            "slack_coeff": slack_coeff,
        },
        "certificate",
    )


def _derivative_energy(states, grid, space_weight, pair):
    """The nonlocal derivative G = d/dt [k * (u - u0)] of the states on
    ``grid`` and (ell * ||G||^2)(t_j) at the nodes, in the inner product of
    weight ``space_weight``; the dump certificates read both from here."""
    deriv = nonlocal_derivative(pair.k, states - states[0], grid)
    sq = np.zeros(grid.steps + 1)
    sq[1:] = space_weight * np.sum(deriv[1:] ** 2, axis=tuple(range(1, states.ndim)))
    return deriv, convolve(pair.ell, sq, grid)


def check_ab_inequality(states, grid, space_weight, pair, slack_coeff=0.0):
    """Pairing of the local and nonlocal derivatives along the states on
    ``grid``, in the inner product of weight ``space_weight``.

    Checks, for every truncation node J,

        sum_{j<=J} tau <(u_j - u_{j-1})/tau, B(u - u0)(t_j)>
            >= 1/2 (ell * ||B(u - u0)||^2)(t_J) - slack(tau),

    the discrete face of the maximal monotonicity of the derivative sum.
    """
    tau = grid.tau
    u = states
    deriv, ell_sq = _derivative_energy(u, grid, space_weight, pair)
    du = np.diff(u, axis=0) / tau
    pairing = space_weight * np.sum(du * deriv[1:], axis=tuple(range(1, u.ndim)))
    lhs = tau * np.cumsum(pairing)
    rhs = 0.5 * ell_sq[1:]
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
