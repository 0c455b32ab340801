"""Convex functionals with resolvents, Yosida maps and Moreau-Yosida
envelopes on a finite-dimensional grid realization of the state space.

States are plain numpy arrays; the inner product is the scaled Euclidean
one carried by a :class:`Space` (cell-volume weight for PDE grids).  All
gradients, proximal problems and optimality residuals are expressed in
that inner product, so a functional's resolvent solves

    argmin_z  ||w - z||_H^2 / (2 lam) + phi(z),

whose optimality system reads (z - w)/lam + g = 0 with g a subgradient of
phi at z in the H sense.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solveh_banded

from ._accel import ProxNonconvergence, power_prox_abs


@dataclass(frozen=True)
class Space:
    """R^m with inner product <u, v> = weight * sum(u * v)."""

    dim: int
    weight: float = 1.0

    def inner(self, u, v):
        return self.weight * float(np.vdot(u, v))

    def norm(self, u):
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


@dataclass(frozen=True)
class YosidaEval:
    """One Yosida evaluation: A_lam(w) = (w - J_lam w)/lam and the envelope."""

    lam: float
    point: np.ndarray  # J_lam w
    rate: np.ndarray  # A_lam(w)
    envelope: float  # phi_lam(w)


class Functional:
    """Base convex functional; subclasses provide ``value`` and ``prox``."""

    def __init__(self, space):
        self.space = space

    def value(self, w):
        raise NotImplementedError

    def prox(self, w, lam, tol=1e-10):
        raise NotImplementedError

    def in_domain(self, w):
        return np.isfinite(self.value(w))

    def yosida(self, w, lam, tol=1e-10):
        z = self.prox(w, lam, tol=tol)
        rate = (w - z) / lam
        env = 0.5 * lam * self.space.inner(rate, rate) + self.value(z)
        return YosidaEval(lam=lam, point=z, rate=rate, envelope=env)

    def envelope(self, w, lam, tol=1e-10):
        return self.yosida(w, lam, tol=tol).envelope


def resolvent(phi, lam, w, tol=1e-10):
    """J_lam(w) = argmin_z ||w - z||_H^2/(2 lam) + phi(z)."""
    if not lam > 0:
        raise ValueError(f"resolvent parameter must be positive, got {lam}")
    w = np.asarray(w, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise ValueError("resolvent input must be finite")
    return phi.prox(w, lam, tol=tol)


def yosida(phi, lam, w, tol=1e-10):
    if not lam > 0:
        raise ValueError(f"Yosida parameter must be positive, got {lam}")
    return phi.yosida(np.asarray(w, dtype=np.float64), lam, tol=tol)


@dataclass
class MinimalSectionResult:
    value: np.ndarray
    lambdas: list
    increments: list
    converged: bool


def minimal_section(phi, w, lambdas=None, tol=1e-6):
    """Limit of A_lam(w) along a decreasing lambda sequence.

    Stops once successive rates differ by less than ``tol`` relative to
    the rate scale (no extrapolation; A_lam converges at first order in
    lam, so the default ladder shrinks by factor 4 per step).  A
    non-Cauchy tail is flagged, not fatal: it signals w outside the
    domain of the subdifferential.
    """
    w = np.asarray(w, dtype=np.float64)
    if lambdas is None:
        lambdas = [0.1 * 0.25**k for k in range(16)]
    lambdas = sorted(lambdas, reverse=True)
    increments = []
    prev = None
    for i, lam in enumerate(lambdas):
        rate = phi.yosida(w, lam, tol=min(tol * 1e-2, 1e-10)).rate
        if prev is not None:
            increments.append(phi.space.norm(rate - prev))
            if increments[-1] < tol * (1.0 + phi.space.norm(rate)):
                return MinimalSectionResult(rate, lambdas[: i + 1], increments, True)
        prev = rate
    return MinimalSectionResult(prev, list(lambdas), increments, False)


# ---------------------------------------------------------------------------
# built-in functionals


class ZeroFunctional(Functional):
    """phi == 0; resolvent is the identity."""

    def value(self, w):
        return 0.0

    def prox(self, w, lam, tol=1e-10):
        return np.array(w, dtype=np.float64)


class Quadratic(Functional):
    """phi(w) = (scale/2) ||w||_H^2 with closed-form resolvent."""

    def __init__(self, space, scale=1.0):
        super().__init__(space)
        self.scale = scale

    def value(self, w):
        return 0.5 * self.scale * self.space.inner(w, w)

    def prox(self, w, lam, tol=1e-10):
        return np.asarray(w, dtype=np.float64) / (1.0 + lam * self.scale)


class PowerPotential(Functional):
    """phi(w) = (1/q) sum_i weight * |w_i|^q for q > 1.

    The H-prox decouples componentwise (the cell weight cancels) into the
    scalar monotone equation r + lam r^{q-1} = |w_i|, solved by plain
    Newton (``power_prox_abs``).  For q >= 2 the left side is convex and
    Newton decreases monotonically from the upper bound
    min(|w_i|, (|w_i|/lam)^{1/(q-1)}); for 1 < q < 2 it is concave and
    Newton increases monotonically from the lower bound
    min(|w_i|/2, (|w_i|/(2 lam))^{1/(q-1)}).  A prox that misses its
    tolerance raises :class:`ProxNonconvergence`.
    """

    def __init__(self, space, q):
        if not q > 1:
            raise ValueError(f"exponent must exceed 1, got {q}")
        super().__init__(space)
        self.q = q

    def value(self, w):
        return self.space.weight * float(np.sum(np.abs(w) ** self.q)) / self.q

    def prox(self, w, lam, tol=1e-10):
        w = np.asarray(w, dtype=np.float64)
        if self.q == 2.0:
            return w / (1.0 + lam)
        r = power_prox_abs(np.abs(w), lam, self.q)
        return np.sign(w) * r

    def gradient(self, w):
        w = np.asarray(w, dtype=np.float64)
        return np.abs(w) ** (self.q - 2.0) * w


class SmoothFunctional(Functional):
    """Convex functional given by value/gradient/Hessian callables.

    ``gradient`` and ``hessian`` are understood in the H inner product
    (i.e. Euclidean gradient divided by the cell weight).  ``hess_fn(z)``
    returns the H-Hessian as a fresh array in symmetric lower banded
    storage, ``ab[k, i] = H[i + k, i]`` (the layout of
    ``scipy.linalg.solveh_banded``).  The prox adds ``1/lam`` to row 0 in
    place and factors H + I/lam by banded Cholesky, so that sum must be
    positive definite; a failed factorization falls back to a gradient
    step.  The resolvent runs a damped Newton iteration on the optimality
    system; the prox objective is strongly convex, so the iteration is
    safe at any lam > 0.
    """

    def __init__(self, space, value_fn, grad_fn, hess_fn=None, name="smooth"):
        super().__init__(space)
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self.name = name

    def value(self, w):
        return float(self._value(np.asarray(w, dtype=np.float64)))

    def gradient(self, w):
        return self._grad(np.asarray(w, dtype=np.float64))

    def prox(self, w, lam, tol=1e-10, max_iter=100):
        w = np.asarray(w, dtype=np.float64)
        shape = w.shape
        z = w.copy()
        # residual entries scale like ||w||/lam: stop relative to that
        tol_eff = tol * (1.0 + self.space.norm(w) / lam)

        def residual(x):
            r = (x - w) / lam + self._grad(x)
            return r, self.space.norm(r)

        def objective(x):
            d = x - w
            return self.space.inner(d, d) / (2.0 * lam) + self._value(x)

        # each iterate's gradient is computed once: an accepted full step
        # carries its residual into the next iteration
        res, res_norm = residual(z)
        for _ in range(max_iter):
            if res_norm <= tol_eff:
                return z
            step = None
            if self._hess is not None:
                jac = self._hess(z)
                jac[0] += 1.0 / lam
                try:
                    step = solveh_banded(jac, -res.ravel(), lower=True).reshape(shape)
                except np.linalg.LinAlgError:
                    step = None
            if step is None:
                step = -lam * res  # gradient step on the prox objective
            # full Newton step whenever it halves the residual (objective
            # differences drown in rounding noise near the minimum)
            cand = z + step
            cand_res, cand_norm = residual(cand)
            if cand_norm <= 0.5 * res_norm:
                z, res, res_norm = cand, cand_res, cand_norm
                continue
            # otherwise backtrack on the strongly convex objective: halve
            # until the Armijo test holds, then on while halving still
            # lowers it.  A step that passes Armijo can still overshoot the
            # minimum along the ray (p-Dirichlet with p < 2: Newton flips
            # the signs of near-zero face gradients step after step)
            t = 1.0
            slope = self.space.inner(res, step)
            obj = objective(z)
            obj_t = objective(z + step)
            for _ in range(40):
                obj_half = objective(z + 0.5 * t * step)
                if obj_half >= obj_t and obj_t <= obj + 1e-4 * t * slope:
                    break
                t, obj_t = 0.5 * t, obj_half
            z = z + t * step
            res, res_norm = residual(z)
        raise ProxNonconvergence(res_norm, max_iter)
