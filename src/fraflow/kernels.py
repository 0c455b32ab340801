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
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from ._accel import causal_conv, l1_history, volterra_sn


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
    """A nonnegative nonincreasing kernel with antiderivative access.

    Parameters
    ----------
    fn : callable
        Pointwise evaluator k(t), valid for t > 0.
    antiderivative : callable, optional
        Exact K(t) = int_0^t k; when omitted, K is computed by adaptive
        quadrature (slow, but keeps user-supplied kernels usable).
    singular_at_zero : bool
        Marks kernels that blow up at t = 0; such kernels are only ever
        touched through K near the origin.
    """

    def __init__(self, fn, antiderivative=None, singular_at_zero=False, name="kernel"):
        self._fn = fn
        self._anti = antiderivative
        self.singular_at_zero = singular_at_zero
        self.name = name

    def __call__(self, t):
        return self._fn(np.asarray(t, dtype=np.float64))

    def antiderivative(self, t):
        if self._anti is not None:
            return self._anti(np.asarray(t, dtype=np.float64))
        t = np.asarray(t, dtype=np.float64)
        scalar = t.ndim == 0
        vals = np.array([quad(self._fn, 0.0, ti, limit=200)[0] for ti in np.atleast_1d(t)])
        return vals[0] if scalar else vals

    def cell_averages(self, grid):
        """Cell means (K(t_i) - K(t_{i-1})) / tau for i = 1..N."""
        big_k = self.antiderivative(grid.times)
        return np.diff(big_k) / grid.tau

    def check_shape(self, grid, rtol=1e-9):
        """Verify nonnegativity/monotonicity of k and K on the grid nodes."""
        t = grid.times[1:]
        vals = self(t)
        big_k = self.antiderivative(grid.times)
        scale = max(abs(vals[0]), 1.0)
        ok = bool(
            np.all(vals >= -rtol * scale)
            and np.all(np.diff(vals) <= rtol * scale)
            and np.all(np.diff(big_k) >= -rtol * scale)
            and abs(big_k[0]) <= rtol * scale
        )
        return ok


@dataclass(frozen=True)
class ConvWeights:
    """Product-integration weights of one kernel on one grid (Toeplitz)."""

    omega: np.ndarray
    grid: TimeGrid

    def row(self, j):
        """Weights w[j, i] for i = 1..j (newest node last)."""
        return self.omega[:j][::-1]

    def row_sum(self, j):
        return float(np.sum(self.omega[:j]))


@functools.lru_cache(maxsize=256)
def conv_weights(kernel, grid):
    """Weight table of ``kernel`` on ``grid``; cached per (kernel, grid)."""
    big_k = kernel.antiderivative(grid.times)
    omega = np.diff(big_k)
    if np.any(omega < 0):
        worst = float(np.min(omega))
        raise ValueError(f"negative convolution weight ({worst:.3e}); kernel is not nonnegative")
    return ConvWeights(omega=omega, grid=grid)


@dataclass(frozen=True)
class SoninePair:
    """Conjugate kernel pair with (k * ell)(t) = 1 for all t > 0."""

    k: Kernel
    ell: Kernel
    alpha: float | None = None


def _rl_kernel(alpha):
    # t^{-alpha} / Gamma(1-alpha), antiderivative t^{1-alpha} / Gamma(2-alpha)
    c_k = math.exp(-gammaln(1.0 - alpha))
    c_anti = math.exp(-gammaln(2.0 - alpha))
    return Kernel(
        fn=lambda t: c_k * np.power(t, -alpha),
        antiderivative=lambda t: c_anti * np.power(t, 1.0 - alpha),
        singular_at_zero=True,
        name=f"rl({alpha:g})",
    )


def rl_pair(alpha):
    """Riemann-Liouville pair of order alpha: k = t^{-a}/Gamma(1-a), ell = k_{1-a}."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"order must lie in (0, 1), got {alpha}")
    return SoninePair(k=_rl_kernel(alpha), ell=_rl_kernel(1.0 - alpha), alpha=alpha)


def constant_kernel(value=1.0):
    """k == value; useful for tests and classical-limit checks."""
    return Kernel(
        fn=lambda t: np.full_like(np.asarray(t, dtype=np.float64), value),
        antiderivative=lambda t: value * np.asarray(t, dtype=np.float64),
        name=f"const({value:g})",
    )


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
    omega = conv_weights(kernel, grid).omega
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

    Solves the lower-triangular system B(v) = b by forward substitution
    (b[0] is ignored, v[0] = 0).  This is the discrete realization of the
    conjugate convolution ell * b: in the continuous calculus
    ell * (d/dt)(k * v) = v is exactly the defining pairing property,
    and using the scheme's own inverse keeps it exact on the grid.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.shape[0] != grid.steps + 1:
        raise ValueError(f"path has {b.shape[0]} nodes, grid has {grid.steps + 1}")
    omega = conv_weights(kernel, grid).omega
    v = np.zeros_like(b)
    tau = grid.tau
    for j in range(1, grid.steps + 1):
        v[j] = (tau * b[j] - l1_history(omega, v, j)) / omega[0]
    return v


@functools.lru_cache(maxsize=64)
def inverse_weights(kernel, grid):
    """Translation-invariant weights of the discrete derivative inverse.

    nonlocal_antiderivative(b)[j] = sum_i w[j-i] b[i]; returns w.  Complete
    positivity of the kernel shows up here as w >= 0, which is what makes
    the inverse order preserving; certificates verify it before relying
    on monotonicity.
    """
    basis = np.zeros(grid.steps + 1)
    basis[1] = 1.0
    profile = nonlocal_antiderivative(kernel, basis, grid)
    return profile[1:]


@dataclass(frozen=True)
class SonineCertificate:
    max_error: float
    coarse_error: float
    observed_order: float
    worst_node: int
    worst_time: float
    skip_time: float
    tol: float
    passed: bool

    def to_dict(self):
        return {
            "certificate": "sonine",
            "status": "pass" if self.passed else "fail",
            "max_error": self.max_error,
            "coarse_error": self.coarse_error,
            "observed_order": self.observed_order,
            "worst_node": self.worst_node,
            "worst_time": self.worst_time,
            "skip_time": self.skip_time,
            "tol": self.tol,
        }


def _sonine_defect(pair, grid, skip_time):
    # (k * ell)(t_j) via exact k-weights against cell averages of ell; the
    # first cells of a self-similar singular pair carry a grid-invariant
    # quadrature error, so nodes with t_j <= skip_time are not scored.
    omega = conv_weights(pair.k, grid).omega
    ell_avg = pair.ell.cell_averages(grid)
    # cell i of ell pairs with weight omega[j - i]; no extra tau factor,
    # the averages already carry 1/tau
    vals = causal_conv(omega, ell_avg)[1:]
    err = np.abs(vals - 1.0)
    j0 = max(int(np.ceil(skip_time / grid.tau)), 1)
    window = err[j0 - 1 :]
    worst = int(np.argmax(window)) + j0
    return float(err[worst - 1]), worst


def verify_sonine(pair, grid, tol=1e-2, skip_fraction=1 / 16):
    """Certify (k * ell) == 1 on ``grid`` and its one-level refinement.

    Reports the worst defect outside the burn-in window [0, T * skip_fraction]
    and the convergence order observed between the two levels; passes when
    the finer-level defect is within ``tol``.
    """
    skip_time = grid.horizon * skip_fraction
    fine = grid.refined()
    coarse_err, _ = _sonine_defect(pair, grid, skip_time)
    fine_err, worst = _sonine_defect(pair, fine, skip_time)
    if fine_err == 0.0 or coarse_err == 0.0:
        order = np.inf
    else:
        order = math.log2(coarse_err / fine_err)
    return SonineCertificate(
        max_error=fine_err,
        coarse_error=coarse_err,
        observed_order=float(order),
        worst_node=worst,
        worst_time=worst * fine.tau,
        skip_time=skip_time,
        tol=tol,
        passed=fine_err <= tol,
    )


@dataclass(frozen=True)
class RegularizedKernel:
    """k_n = n * s_n where s_n solves s_n + n (ell * s_n) = 1."""

    index: int
    s: np.ndarray
    k_n: np.ndarray
    grid: TimeGrid
    monotone: bool

    @property
    def value_at_zero(self):
        return float(self.k_n[0])


def regularized_kernel(ell, n, grid, monotone_rtol=1e-9):
    """Solve the Volterra equation for s_n by forward substitution."""
    if n < 1:
        raise ValueError(f"index must be >= 1, got {n}")
    omega = conv_weights(ell, grid).omega
    s = volterra_sn(omega, float(n))
    k_n = n * s
    scale = max(abs(k_n[0]), 1.0)
    monotone = bool(np.all(np.diff(k_n) <= monotone_rtol * scale) and np.all(k_n >= -monotone_rtol * scale))
    return RegularizedKernel(index=n, s=s, k_n=k_n, grid=grid, monotone=monotone)


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
