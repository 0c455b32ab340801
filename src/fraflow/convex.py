"""Convex functionals with resolvents, Yosida maps and Moreau-Yosida
envelopes on a finite-dimensional grid realization of the state space.

States are plain numpy arrays; the inner product is the scaled Euclidean
one carried by a :class:`Space` (cell-volume weight for PDE grids).  All
gradients, proximal problems and optimality residuals are expressed in
that inner product, so a functional's resolvent solves

    argmin_z  ||w - z||_H^2 / (2 lam) + phi(z),

whose optimality system reads (z - w)/lam + g = 0 with g a subgradient of
phi at z in the H sense.

The stepper marches several states at once, stacked along a leading row
axis.  A functional reads its input as rows of ``space.dim`` values (one
state is a stack of one row), and each operation has one form, for
stacks: ``values`` gives one value per row, ``Space.row_inner`` one inner
product per pair of rows, and every resolvent is ``prox(w, lam, tol,
start)``, row by row, where ``start`` is a guess of the result that a
closed form ignores.  ``yosida`` returns the pair ``(rate, envelope)``:
the Yosida rate A_lam(w) = (w - J_lam w)/lam, shaped as ``w``, and the
Moreau-Yosida envelope phi_lam(w), one value per row, a single state
included.  Every row comes out bitwise as it does when passed alone: the
per-row inner products of a stack take one BLAS dot per row, the sum
``np.vdot`` takes.

A :class:`SmoothFunctional` solves its resolvent by damped Newton with a
banded Hessian.  A ``linear`` one (a quadratic energy, such as the
p-Dirichlet energy at p = 2) has a fixed Hessian A, and its resolvent is
one band solve with no Newton iteration: I/lam + A is factored once per
lam and every call back-substitutes all its rows in one LAPACK call.

A :class:`PowerPotential` may carry one exponent per row, and
:func:`yosida_rows` evaluates a batch whose rows belong to several
functionals: the rows of all plain power potentials in one ``yosida``
call, so that a regime sweep over q takes one power prox per step.  A
batch without a phi2 gets the zero Yosida map there, so the stepper
takes one path with a phi2 or without.
"""

import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from ._accel import ProxNonconvergence, exponent_runs, power_prox_abs


@dataclass(frozen=True)
class Space:
    """R^m with inner product <u, v> = weight * sum(u * v)."""

    dim: int
    weight: float = 1.0

    def rows(self, u):
        """``u`` as a stack of states, one flat row of ``dim`` values each."""
        return u.reshape(-1, self.dim)

    def row_inner(self, u, v):
        """<u_r, v_r> of each pair of rows, one state or a stack of them.  A
        stack of 1 x dim by dim x 1 products takes one BLAS dot per row,
        the sum ``np.vdot`` takes."""
        return self.weight * (self.rows(u)[:, None, :] @ self.rows(v)[:, :, None])[:, 0, 0]

    def row_norms(self, u):
        return np.sqrt(np.maximum(self.row_inner(u, u), 0.0))


class Functional:
    """Base convex functional; subclasses provide ``prox`` and ``values``,
    phi of each row of a stack of states."""

    def __init__(self, space):
        self.space = space

    def prox(self, w, lam, tol=1e-10, start=None):
        """The resolvent J_lam w; ``start`` is a guess of it, which a
        closed-form resolvent ignores."""
        raise NotImplementedError

    def yosida(self, w, lam, tol=1e-10):
        """``(rate, envelope)``: A_lam(w) = (w - J_lam w)/lam and phi_lam(w), one envelope per row."""
        z = self.prox(w, lam, tol=tol)
        rate = (w - z) / lam
        return rate, 0.5 * lam * self.space.row_inner(rate, rate) + self.values(z)


def yosida_rows(phis, lam, tol):
    """The Yosida map of a batch whose row r belongs to the functional ``phis[r]``.

    Returns ``yosida(w, ids)``: row k of the stack ``w`` is batch row
    ``ids[k]``, and the result is the rates, shaped as ``w``, and one
    envelope per row.  The rows of every plain :class:`PowerPotential`
    (one exponent, not a subclass) on one space go to one potential with
    one exponent per row: one ``yosida`` call, one ``power_prox_abs``
    call, whatever their q.  Each other functional takes one call on its
    own rows.  The groups and the merged potentials are built once per
    set of ids, not once per call; a set of ids with one group takes its
    call on ``w`` itself, without a copy.  Every row comes out bitwise as
    it does under its own functional alone.  A batch without a phi2
    (``phis[0]`` is None) has the zero map: zero rates, shaped as ``w``,
    and zero envelopes.
    """
    if phis[0] is None:
        return lambda w, ids: (np.zeros(w.shape), np.zeros(len(w)))
    built, parts = None, None  # the last ids, as bytes, and their groups

    def groups(ids):
        own = [phis[i] for i in ids.tolist()]
        by_key = {}  # a space for plain power rows, else the functional's id
        for k, phi in enumerate(own):
            by_key.setdefault(phi.space if type(phi) is PowerPotential else id(phi), (phi, []))[1].append(k)
        out = []
        for phi, at in by_key.values():
            if type(phi) is PowerPotential:
                phi = PowerPotential(phi.space, [own[k].q for k in at])
            # a run of consecutive rows is a slice: a view, not a copy
            out.append((phi, slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else np.array(at)))
        return out

    def yosida(w, ids):
        nonlocal built, parts
        if ids.tobytes() != built:
            built, parts = ids.tobytes(), groups(ids)
        if len(parts) == 1:
            return parts[0][0].yosida(w, lam, tol=tol)
        rate, env = np.empty(w.shape), np.empty(len(w))
        for phi, at in parts:
            rate[at], env[at] = phi.yosida(w[at], lam, tol=tol)
        return rate, env

    return yosida


# ---------------------------------------------------------------------------
# built-in functionals


class Quadratic(Functional):
    """phi(w) = (1/2) ||w||_H^2 with closed-form resolvent."""

    def values(self, w):
        return 0.5 * self.space.row_inner(w, w)

    def prox(self, w, lam, tol=1e-10, start=None):
        return np.asarray(w, dtype=np.float64) / (1.0 + lam)


class PowerPotential(Functional):
    """phi(w) = (1/q) sum_i weight * |w_i|^q for q > 1.

    ``q`` is one exponent, or one exponent per row of a stack (a sequence
    of R values, all > 1): such a potential takes stacks of R rows, each
    row the potential of its own exponent.  Equal exponents make it a
    potential with one exponent.  The rows of one q take each power with
    that q as a scalar exponent (:func:`exponent_runs`), so every row
    comes out bitwise as it does under the potential of its own q alone.

    The H-prox decouples componentwise (the cell weight cancels) into the
    scalar monotone equation r + lam r^{q-1} = |w_i|, solved by plain
    Newton (``power_prox_abs``), one call for all rows.  For q >= 2 the
    left side is convex and Newton decreases monotonically from the upper
    bound min(|w_i|, (|w_i|/lam)^{1/(q-1)}); for 1 < q < 2 it is concave
    and Newton increases monotonically from the lower bound
    min(|w_i|/2, (|w_i|/(2 lam))^{1/(q-1)}).  The rows of q = 2 take the
    closed form w/(1 + lam).  A prox that misses its tolerance raises
    :class:`ProxNonconvergence`.
    """

    def __init__(self, space, q):
        qs = np.asarray(q, dtype=np.float64)
        if not np.all(qs > 1):
            raise ValueError(f"exponent must exceed 1, got {q}")
        super().__init__(space)
        # one exponent, or a column of one per row that broadcasts against
        # a stack; _q_rows divides the (R,) row sums
        if qs.ndim and np.any(qs != qs.flat[0]):
            self.q = qs.reshape(-1, 1)
            self._q_rows = qs.ravel()
        else:
            self.q = self._q_rows = q if qs.ndim == 0 else float(qs.flat[0])
        self._runs = exponent_runs(self.q)
        self._closed = [rows for rows, q in self._runs if q == 2.0]

    def values(self, w):
        powers = np.abs(self.space.rows(w))
        for rows, q in self._runs:
            part = powers[rows]
            np.power(part, q, out=part)
        return self.space.weight * powers.sum(axis=-1) / self._q_rows

    def prox(self, w, lam, tol=1e-10, start=None):
        w = np.asarray(w, dtype=np.float64)
        if self._closed == [slice(None)]:
            return w / (1.0 + lam)
        z = np.sign(w) * power_prox_abs(np.abs(self.space.rows(w)), lam, self.q, self._runs).reshape(w.shape)
        for rows in self._closed:  # the closed form keeps the sign of a zero
            z[rows] = w[rows] / (1.0 + lam)
        return z

    def gradient(self, w):
        w = np.asarray(w, dtype=np.float64)
        return np.abs(w) ** (self.q - 2.0) * w


def _scipy_flapack():
    """scipy's compiled LAPACK wrapper ``scipy/linalg/_flapack``, loaded from its file.

    Neither scipy nor ``scipy.linalg`` is imported, and the interpreter
    records the extension as the top-level module ``_flapack``, not under
    scipy's name.
    """
    linalg_dir = os.path.join(os.path.dirname(importlib.util.find_spec("scipy").origin), "linalg")
    spec = importlib.machinery.PathFinder.find_spec("_flapack", [linalg_dir])
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {linalg_dir}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the banded Cholesky routines of scipy.linalg.solveh_banded(..., lower=True).
# Importing scipy.linalg for them would add about 0.25 s to every
# command's start (mostly scipy's array_api_compat cloning the numpy
# namespace).  They are the routines get_lapack_funcs returns for float64
_FLAPACK = _scipy_flapack()


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _BandCholesky:
    """The Cholesky factorization of a symmetric positive definite band matrix.

    ``ab`` holds the matrix in lower banded storage, ``ab[k, i] = A[i + k,
    i]`` (the layout of ``scipy.linalg.solveh_banded(..., lower=True)``).
    A band of 2 rows (tridiagonal) is factored by ``pttrf``, a wider one
    by ``pbtrf``; ``solve(b)`` back-substitutes every column of ``b`` (an
    n-vector or an (n, k) array) in one ``pttrs`` or ``pbtrs`` call.  The
    columns do not mix, so each comes out bitwise as when solved alone,
    and a factorization followed by one solve is bitwise the ``ptsv`` or
    ``pbsv`` call that ``solveh_banded`` makes (those routines are the
    factorization followed by the solve).  A non-finite entry of ``ab`` or
    ``b`` raises ValueError, a band that is not positive definite
    LinAlgError, with scipy's messages.
    """

    def __init__(self, ab):
        _require_finite(ab)
        self._pt = len(ab) == 2
        if self._pt:
            d, e, info = _FLAPACK.dpttrf(ab[0], ab[1, :-1])
            self._factor = (d, e)
        else:
            c, info = _FLAPACK.dpbtrf(ab, lower=1)
            self._factor = (c,)
        self._check(info, "trf")

    def _check(self, info, step):
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal {'pt' if self._pt else 'pb'}{step}")

    def solve(self, b):
        _require_finite(b)
        if self._pt:
            x, info = _FLAPACK.dpttrs(*self._factor, b)
        else:
            x, info = _FLAPACK.dpbtrs(*self._factor, b, lower=1)
        self._check(info, "trs")
        return x


def _solveh_banded(ab, b):
    """``scipy.linalg.solveh_banded(ab, b, lower=True)`` for float64 arrays:
    bitwise the same solution, the same finite check and the same errors,
    without the wrapper's per-call input validation."""
    _require_finite(b)  # before the factorization, as solveh_banded checks
    return _BandCholesky(ab).solve(b)


PROX_MAX_ITER = 100  # the Newton budget of SmoothFunctional._newton, read at each call


class SmoothFunctional(Functional):
    """Convex functional given by value/gradient/Hessian callables, all three required.

    The callables take a stack of states, an (R, dim) array of rows.
    ``value_fn`` returns the R values, ``grad_fn`` the H-gradients (the
    Euclidean gradients divided by the cell weight) as an (R, dim) array,
    and ``hess_fn`` the H-Hessians as one fresh array in symmetric lower
    banded storage of the block-diagonal (R dim)-square matrix,
    ``ab[k, i] = H[i + k, i]`` (the layout of
    ``scipy.linalg.solveh_banded``), with no coupling between the blocks
    of two rows.  The resolvent adds ``1/lam`` to row 0 and factors
    H + I/lam by banded Cholesky (:class:`_BandCholesky`), so that sum
    must be positive definite.  The factorization calls LAPACK directly,
    as ``solveh_banded(lower=True)`` does: ``pttrf`` on the tridiagonal
    band of a 1D grid, ``pbtrf`` on a wider one.  Both come from scipy's
    compiled ``_flapack`` extension, loaded without importing
    ``scipy.linalg``, which would add about 0.25 s to every command's
    start.

    A ``linear`` functional has a linear gradient, u -> A u, so its
    Hessian is the one band A at every state (the p-Dirichlet energy at
    p = 2).  Its resolvent is the linear system (I/lam + A) z = w/lam,
    with no Newton iteration: ``prox`` assembles A once, as ``hess_fn`` at
    the zero state, factors I/lam + A once per lam (a one-entry cache, as
    the stepper calls it with one lam) and back-substitutes all rows of
    ``w`` in one LAPACK call, each row bitwise as when solved alone.  Its
    ``_newton`` is the damped Newton resolvent below, which agrees with
    that solve to rounding.

    Otherwise the resolvent runs a damped Newton iteration on the
    optimality system; the prox objective is strongly convex, so the
    iteration is safe at any lam > 0.  ``pttrf`` factors all rows in one
    call; ``pbtrf`` one row block per call, since its blocking would move
    the last bits of a stacked solve.  When the factorization fails, each
    row is solved alone and a row that still fails takes a gradient step.
    Each row stops at its own iterate and backtracks on its own step
    length, so a row comes out bitwise as it does when solved alone.

    ``prox`` takes an optional ``start``, shaped as ``w`` (the stepper
    passes the previous states, or the Picard iterate in coupled mode),
    which the linear resolvent ignores.  Newton starts each row at
    whichever of its target w and its start has the smaller optimality
    residual, w on a tie, and iterates from there as without a start.  The
    residual at the start is free when the start is the previous call's
    result: the functional keeps that result, its bytes and its gradient
    at it (a one-entry memo), and a start that is the same array with the
    same bytes takes that gradient.  Any other start takes one gradient
    call, with the same bits.
    """

    def __init__(self, space, value_fn, grad_fn, hess_fn, linear=False):
        super().__init__(space)
        self._value = value_fn
        self._grad = grad_fn
        self._hess = hess_fn
        self._linear = linear
        self._band = None  # A of a linear functional, once assembled
        self._factor = None  # lam and the factorization of I/lam + A at it
        self._memo = None  # the last result of Newton, its bytes and its gradient

    def values(self, w):
        rows = self.space.rows(np.asarray(w, dtype=np.float64))
        return np.asarray(self._value(rows), dtype=np.float64).reshape(len(rows))

    def gradient(self, w):
        w = np.asarray(w, dtype=np.float64)
        return np.reshape(self._grad(self.space.rows(w)), w.shape)

    def _newton_steps(self, x, res, lam):
        """Newton steps of the rows x; a gradient step where the Hessian does not factor."""
        jac = self._hess(x)
        jac[0] += 1.0 / lam
        if len(jac) == 2:  # a tridiagonal band: every row in one factorization
            try:
                return _solveh_banded(jac, -res.ravel()).reshape(x.shape)
            except np.linalg.LinAlgError:
                pass
        # one row block at a time: on a wide band, where pbtrf's blocking
        # would move the last bits of a stacked solve, and to find the rows
        # that do not factor, which keep their gradient step
        n = x.shape[1]
        steps = -lam * res
        for i in range(len(x)):
            try:
                steps[i] = _solveh_banded(jac[:, i * n : (i + 1) * n], -res[i])
            except np.linalg.LinAlgError:
                pass
        return steps

    def _start_gradient(self, start):
        # the memo's gradient when start is the last returned array, unchanged
        memo = self._memo
        if memo is not None and start is memo[0] and start.tobytes() == memo[1]:
            return memo[2]
        return self._grad(self.space.rows(start))

    def _returned(self, z, grad, shape):
        # the result, remembered with its gradient for a warm start
        z = z.reshape(shape)
        self._memo = (z, z.tobytes(), grad)
        return z

    def prox(self, w, lam, tol=1e-10, start=None):
        if not self._linear:
            return self._newton(w, lam, tol, start)
        w = np.asarray(w, dtype=np.float64)
        if self._factor is None or self._factor[0] != lam:
            if self._band is None:
                self._band = self._hess(np.zeros((1, self.space.dim)))
            ab = self._band.copy()
            ab[0] += 1.0 / lam
            self._factor = (lam, _BandCholesky(ab))
        # the rows are the columns of one right-hand side
        return self._factor[1].solve((self.space.rows(w) / lam).T).T.reshape(w.shape)

    def _newton(self, w, lam, tol=1e-10, start=None):
        """The damped Newton resolvent, with ``prox``'s signature."""
        w = np.asarray(w, dtype=np.float64)
        max_iter = PROX_MAX_ITER
        space = self.space
        rows = space.rows(w)

        def residual(x, target):
            grad = self._grad(x)
            r = (x - target) / lam + grad
            return r, space.row_norms(r), grad

        def objective(x, target):
            d = x - target
            return space.row_inner(d, d) / (2.0 * lam) + self.values(x)

        # z, target, res, res_norm, grad and tol_eff hold the rows still
        # iterating, act their positions in w; a row that meets its
        # tolerance moves to out.  Each iterate's gradient is computed
        # once: an accepted full step carries its residual into the next
        # iteration
        out, out_grad = np.empty_like(rows), np.empty_like(rows)
        act = np.arange(len(rows))
        z, target = rows.copy(), rows
        if start is None:
            w_norm = space.row_norms(rows)
            res, res_norm, grad = residual(z, target)
        else:
            # a row starts at start where its residual there is smaller.
            # One row_norms call takes the norms of w and of both
            # residuals, each row's bits its own
            start = np.asarray(start, dtype=np.float64)
            warm_z = space.rows(start)
            if warm_z.shape != rows.shape:
                raise ValueError(f"start of shape {start.shape} does not match w of shape {w.shape}")
            grad, warm_grad = self._grad(z), self._start_gradient(start)
            res, warm_res = (z - target) / lam + grad, (warm_z - target) / lam + warm_grad
            w_norm, res_norm, warm_norm = space.row_norms(np.concatenate((rows, res, warm_res))).reshape(3, -1)
            warm = warm_norm < res_norm
            n_warm = np.count_nonzero(warm)
            # fresh arrays: z and grad change in place below
            if n_warm == len(warm):
                z, res, res_norm, grad = warm_z.copy(), warm_res, warm_norm, warm_grad.copy()
            elif n_warm:
                pick = warm[:, None]
                z, res, grad = np.where(pick, warm_z, z), np.where(pick, warm_res, res), np.where(pick, warm_grad, grad)
                res_norm = np.where(warm, warm_norm, res_norm)
        # residual entries scale like ||w||/lam: stop relative to that
        tol_eff = tol * (1.0 + w_norm / lam)
        for _ in range(max_iter):
            met = res_norm <= tol_eff
            n_met = np.count_nonzero(met)
            if n_met:
                if n_met == len(rows):
                    return self._returned(z, grad, w.shape)
                out[act[met]], out_grad[act[met]] = z[met], grad[met]
                if n_met == len(act):
                    return self._returned(out, out_grad, w.shape)
                going = ~met
                act, z, target, res, res_norm, grad, tol_eff = (x[going] for x in (act, z, target, res, res_norm, grad, tol_eff))
            step = self._newton_steps(z, res, lam)
            # full Newton step whenever it halves the residual (objective
            # differences drown in rounding noise near the minimum)
            cand = z + step
            cand_res, cand_norm, cand_grad = residual(cand, target)
            full = cand_norm <= 0.5 * res_norm
            if np.count_nonzero(full) == len(full):
                z, res, res_norm, grad = cand, cand_res, cand_norm, cand_grad
                continue
            # otherwise backtrack on the strongly convex objective: halve
            # until the Armijo test holds, then on while halving still
            # lowers it.  A step that passes Armijo can still overshoot the
            # minimum along the ray (p-Dirichlet with p < 2: Newton flips
            # the signs of near-zero face gradients step after step).  Each
            # row halves its own step length t
            back = ~full
            xb, sb, wb = z[back], step[back], target[back]
            t = np.ones(len(xb))
            slope = space.row_inner(res[back], sb)
            obj = objective(xb, wb)
            obj_t = objective(xb + sb, wb)
            halving = np.arange(len(xb))
            for _ in range(40):
                obj_half = objective(xb[halving] + (0.5 * t[halving])[:, None] * sb[halving], wb[halving])
                stop = (obj_half >= obj_t[halving]) & (obj_t[halving] <= obj[halving] + 1e-4 * t[halving] * slope[halving])
                on = halving[~stop]
                t[on], obj_t[on] = 0.5 * t[on], obj_half[~stop]
                halving = on
                if not halving.size:
                    break
            z[full], res[full], res_norm[full], grad[full] = cand[full], cand_res[full], cand_norm[full], cand_grad[full]
            z[back] = xb + t[:, None] * sb
            res[back], res_norm[back], grad[back] = residual(z[back], wb)
        raise ProxNonconvergence(float(np.max(res_norm)), max_iter)
