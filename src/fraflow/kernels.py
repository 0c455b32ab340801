"""Kernel calculus: Sonine pairs, product-integration convolution, the
discrete nonlocal derivative and the regularized kernel family.

Conventions
-----------
All quadrature is product integration on a uniform grid: the kernel is
integrated exactly through its antiderivative, the other factor is
reconstructed as a piecewise constant.  On a uniform grid the weights are
Toeplitz,

    w[j, i] = K(t_j - t_{i-1}) - K(t_j - t_i) = omega[j - i],
    omega[d] = K((d+1) tau) - K(d tau),

so a single length-N array represents the whole table, and every
whole-path sum is one causal convolution (``_accel.causal_conv``).
Singular kernels are never evaluated at t = 0; every node-0 contribution
goes through the antiderivative.

The Riemann-Liouville constants 1/Gamma(1-a) and 1/Gamma(2-a) come from
``_log_gamma``, a port of Moshier's Cephes ``lgam`` (Methods and Programs
for Mathematical Functions, 1989), the routine ``scipy.special.gammaln``
evaluates.  It reproduces ``gammaln`` bit for bit without loading
``scipy.special``; ``math.lgamma`` is a different algorithm whose last bit
differs from ``gammaln`` on most of (0, 2), which changes the kernel weights
and every output written from them.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._accel import causal_conv, toeplitz_inverse, volterra_sn


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of (0, T] into N steps, nodes t_j = j * tau."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"need at least one step, got {self.steps}")
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")

    @property
    def tau(self):
        return self.horizon / self.steps

    @property
    def times(self):
        return np.linspace(0.0, self.horizon, self.steps + 1)

    def refined(self, factor=2):
        return TimeGrid(self.horizon, self.steps * factor)


class Kernel:
    """A nonnegative nonincreasing kernel with its exact antiderivative.

    Parameters
    ----------
    fn : callable
        Pointwise evaluator k(t), valid for t > 0.
    antiderivative : callable
        Exact K(t) = int_0^t k.  Every weight goes through K, so a kernel
        that is singular at t = 0 is never evaluated there.
    """

    def __init__(self, fn, antiderivative):
        self._fn = fn
        self._anti = antiderivative

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=np.float64))

    def antiderivative(self, t):
        return self._anti(np.asarray(t, dtype=np.float64))


@functools.lru_cache(maxsize=256)
def conv_weights(kernel, grid):
    """The Toeplitz weights omega of ``kernel`` on ``grid``, length N.

    Cached per (kernel, grid); every caller shares the one array, so it
    is read-only.
    """
    big_k = kernel.antiderivative(grid.times)
    omega = np.diff(big_k)
    if np.any(omega < 0):
        worst = float(np.min(omega))
        raise ValueError(f"negative convolution weight ({worst:.3e}); kernel is not nonnegative")
    omega.flags.writeable = False
    return omega


@dataclass(frozen=True)
class SoninePair:
    """Conjugate kernel pair with (k * ell)(t) = 1 for all t > 0."""

    k: Kernel
    ell: Kernel
    alpha: float | None = None


# Cephes lgam: A is the Stirling series of log Gamma, B/C the rational
# approximation of log Gamma(2 + t) on 0 <= t < 1.  Cephes leaves C's leading
# 1 implied (p1evl); 1 * t + c is exactly t + c, so it is written out here.
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (
    1.0,
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305


def _polevl(x, coef):
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _log_gamma(x):
    """log Gamma(x) for finite x > 0, bit for bit ``scipy.special.gammaln``.

    Cephes ``lgam`` restricted to x > 0, in its order of operations: below
    13, the recurrence Gamma(u + 1) = u Gamma(u) moves the argument into
    [2, 3) and a rational in t = u - 2 finishes; from 13 on, Stirling's
    series, its two-term form from 1000 on and the bare leading terms
    above 1e8.
    """
    if not 0.0 < x < math.inf:
        raise ValueError(f"log-gamma needs a finite positive argument, got {x}")
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        p = x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
        return math.log(z) + p
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        q += ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p + 0.0833333333333333333333) / x
    else:
        q += _polevl(p, _LGAM_A) / x
    return q


def _rl_kernel(alpha):
    # t^{-alpha} / Gamma(1-alpha), antiderivative t^{1-alpha} / Gamma(2-alpha)
    c_k = math.exp(-_log_gamma(1.0 - alpha))
    c_anti = math.exp(-_log_gamma(2.0 - alpha))
    return Kernel(
        fn=lambda t: c_k * np.power(t, -alpha),
        antiderivative=lambda t: c_anti * np.power(t, 1.0 - alpha),
    )


def rl_pair(alpha):
    """Riemann-Liouville pair of order alpha: k = t^{-a}/Gamma(1-a), ell = k_{1-a}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    return SoninePair(k=_rl_kernel(alpha), ell=_rl_kernel(1.0 - alpha), alpha=alpha)


def convolve(kernel, path, grid):
    """Product-integration convolution (kernel * path) at the grid nodes.

    The path is reconstructed from its right endpoints, path[i] on cell i,
    so out[j] = sum_{i=1..j} omega[j-i] * path[i], out[0] = 0 and path[0]
    never enters.  Exact for constant paths whenever the antiderivative is
    exact.
    """
    path = np.asarray(path, dtype=np.float64)
    if path.shape[0] != grid.steps + 1:
        raise ValueError(f"path has {path.shape[0]} nodes, grid has {grid.steps + 1}")
    omega = conv_weights(kernel, grid)
    return causal_conv(omega, path[1:])


def nonlocal_derivative(kernel, v, grid):
    """Backward difference of the convolution: d/dt (k * v) on the nodes.

    Uses the implicit (right-endpoint) reconstruction of v, so the result
    at node j carries the leading weight omega[0] on v[j]; this matches
    the time stepper, and for the Riemann-Liouville pair it is exactly an
    L1-type scheme.  v[0] never enters: the path is treated as jumping
    from 0 at t = 0.  out[0] is set to 0 (the derivative is not defined
    at the initial node).
    """
    v = np.asarray(v, dtype=np.float64)
    conv = convolve(kernel, v, grid)
    out = np.zeros_like(conv)
    out[1:] = np.diff(conv, axis=0) / grid.tau
    return out


def nonlocal_antiderivative(kernel, b, grid):
    """Exact discrete inverse of :func:`nonlocal_derivative`.

    Solves the lower-triangular Toeplitz system B(v) = b (b[0] is ignored,
    v[0] = 0) as one causal convolution of b with the first column of
    B^-1, :func:`inverse_weights`.  This is the discrete realization of
    the conjugate convolution ell * b: in the continuous calculus
    ell * (d/dt)(k * v) = v is exactly the defining pairing property,
    and using the scheme's own inverse keeps it exact on the grid.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != grid.steps + 1:
        raise ValueError(f"path has {b.shape[0]} nodes, grid has {grid.steps + 1}")
    return causal_conv(inverse_weights(kernel, grid), b[1:])


@functools.lru_cache(maxsize=64)
def inverse_weights(kernel, grid):
    """Translation-invariant weights of the discrete derivative inverse.

    nonlocal_antiderivative(b)[j] = sum_{i=1..j} w[j-i] b[i]; returns w.
    The derivative is the lower-triangular Toeplitz matrix with first
    column diff(omega, prepend=0) / tau, so w is tau times the first
    column of its inverse (``_accel.toeplitz_inverse``).  Complete
    positivity of the kernel shows up here as w >= 0, which is what makes
    the inverse order preserving; certificates verify it before relying
    on monotonicity.
    """
    omega = conv_weights(kernel, grid)
    return grid.tau * toeplitz_inverse(np.diff(omega, prepend=0.0))


@dataclass
class Certificate:
    """The outcome of one check: ``pass``, ``fail`` or ``reject``, with its data.

    ``to_dict`` writes ``name`` under ``key`` (``"lemma"`` or
    ``"certificate"``), the status and the details, numpy values made
    plain.  It is defined here, not in ``certify``, because ``certify``
    imports this module.
    """

    name: str
    status: str  # "pass" | "fail" | "reject"
    details: dict
    key: str = "lemma"

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return {self.key: self.name, "status": self.status, **_plain(self.details)}


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


def _sonine_defect(pair, grid, skip_time):
    # (k * ell)(t_j) via exact k-weights against cell averages of ell; the
    # first cells of a self-similar singular pair carry a grid-invariant
    # quadrature error, so nodes with t_j <= skip_time are not scored.
    omega = conv_weights(pair.k, grid)
    ell_avg = conv_weights(pair.ell, grid) / grid.tau  # cell means of ell
    # cell i of ell pairs with weight omega[j - i]; no extra tau factor,
    # the averages already carry 1/tau
    vals = causal_conv(omega, ell_avg)[1:]
    err = np.abs(vals - 1.0)
    j0 = max(int(np.ceil(skip_time / grid.tau)), 1)
    window = err[j0 - 1 :]
    worst = int(np.argmax(window)) + j0
    return float(err[worst - 1]), worst


SONINE_TOL = 1e-2
SONINE_BURN_IN = 1 / 16
SONINE_MIN_CELLS = 3  # coarse cells the burn-in window must hold


def verify_sonine(pair, grid):
    """Certify (k * ell) == 1 on ``grid`` and its one-level refinement.

    Reports the worst defect outside the burn-in window [0, T * SONINE_BURN_IN]
    and the convergence order observed between the two levels; passes when
    the finer-level defect is within ``SONINE_TOL``.  A coarse grid whose
    burn-in window holds fewer than ``SONINE_MIN_CELLS`` cells would score
    the first cells' quadrature error, which does not shrink with the
    grid: its certificate is a reject, with a reason, not a pass or fail.
    """
    skip_time = grid.horizon * SONINE_BURN_IN
    fine = grid.refined()
    coarse_err, _ = _sonine_defect(pair, grid, skip_time)
    fine_err, worst = _sonine_defect(pair, fine, skip_time)
    if fine_err == 0.0 or coarse_err == 0.0:
        order = np.inf
    else:
        order = math.log2(coarse_err / fine_err)
    details = {
        "max_error": fine_err,
        "coarse_error": coarse_err,
        "observed_order": order,
        "worst_node": worst,
        "worst_time": worst * fine.tau,
        "skip_time": skip_time,
        "tol": SONINE_TOL,
    }
    cells = grid.steps * SONINE_BURN_IN
    if cells < SONINE_MIN_CELLS:
        status = "reject"
        details["reason"] = (
            f"the burn-in window [0, T * {SONINE_BURN_IN:g}] holds {cells:g} of the N = {grid.steps} cells, "
            f"fewer than {SONINE_MIN_CELLS}: the first cells' quadrature error, which does not shrink with the grid, would be scored"
        )
    else:
        status = "pass" if fine_err <= SONINE_TOL else "fail"
    return Certificate("sonine", status, details, "certificate")


@dataclass(frozen=True)
class RegularizedKernel:
    """k_n = n * s_n where s_n solves s_n + n (ell * s_n) = 1."""

    s: np.ndarray
    k_n: np.ndarray
    monotone: bool


# relative tolerance of the monotonicity test on k_n
MONOTONE_TOL = 1e-9


def regularized_kernel(ell, n, grid):
    """Solve the Volterra equation for s_n as a triangular Toeplitz system."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    omega = conv_weights(ell, grid)
    s = volterra_sn(omega, float(n))
    k_n = n * s
    scale = max(abs(k_n[0]), 1.0)
    monotone = bool(np.all(np.diff(k_n) <= MONOTONE_TOL * scale) and np.all(k_n >= -MONOTONE_TOL * scale))
    return RegularizedKernel(s=s, k_n=k_n, monotone=monotone)


def kernel_l1_gap(reg, kernel, grid):
    """Midpoint-rule L1(0, T) distance between k_n and the kernel.

    Both factors are compared at cell midpoints (the kernel is finite
    there even when singular at 0; k_n is interpolated linearly), giving
    one fixed quadrature for the monotone-in-n comparisons.
    """
    mids = grid.times[:-1] + 0.5 * grid.tau
    k_vals = kernel(mids)
    kn_mid = 0.5 * (reg.k_n[:-1] + reg.k_n[1:])
    return float(np.sum(np.abs(k_vals - kn_mid)) * grid.tau)
