"""The inner kernels of the stepper and the certificates, in numpy.

One implementation of each: the causal triangular convolution behind
every whole-path product-integration sum, the per-step history sum, the
Volterra forward substitution of the regularized kernels and the
componentwise power prox.  All triangular sums are O(N^2) by design.

The module keeps the name ``_accel`` because the benchmark's tracer
(``perfbench/tracer.py``) wraps ``fraflow._accel.l1_history``,
``power_prox_abs`` and ``volterra_sn`` by that module path.
"""

import numpy as np


def causal_conv(omega, cells):
    """Causal triangular convolution of kernel weights with cell values.

    out[0] = 0 and out[j] = sum_{i<j} omega[j-1-i] * cells[i] for
    j = 1..n, n = len(cells).  ``cells`` may carry trailing state axes
    (nodes first); each state column is convolved on its own.  Pass the
    kernel weights first, as every caller does: np.convolve sums in an
    order set by its arguments, so swapping them can move the last bits.
    """
    omega = np.asarray(omega, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.float64)
    n = cells.shape[0]
    out = np.zeros((n + 1,) + cells.shape[1:])
    if cells.ndim == 1:
        out[1:] = np.convolve(omega, cells)[:n]
        return out
    flat = cells.reshape(n, -1)
    res = out.reshape(n + 1, -1)
    for c in range(flat.shape[1]):
        res[1:, c] = np.convolve(omega, flat[:, c])[:n]
    return out


def volterra_sn(omega_ell, n):
    """Forward substitution for s + n * (ell * s) = 1 on the grid nodes.

    ``omega_ell`` are the product-integration weights of ell; the diagonal
    (newest-node) weight is omega_ell[0], which makes every step implicit
    but still explicitly solvable.  Returns s sampled at nodes 0..N.
    """
    omega_ell = np.asarray(omega_ell, dtype=np.float64)
    nn = omega_ell.shape[0]
    s = np.empty(nn + 1)
    s[0] = 1.0
    diag = 1.0 + n * omega_ell[0]
    for j in range(1, nn + 1):
        hist = omega_ell[1:j][::-1] @ s[1:j] if j > 1 else 0.0
        s[j] = (1.0 - n * hist) / diag
    return s


def l1_history(omega, v, j):
    """History term of the discretized nonlocal derivative at step j.

    Returns sum_{i=1..j-1} (omega[j-i] - omega[j-i-1]) * v[i]; the caller
    adds the leading omega[0] * v[j] term itself.  ``v`` is (N+1, m).
    """
    if j <= 1:
        return np.zeros(v.shape[1:], dtype=np.float64)
    d = omega[1:j] - omega[: j - 1]
    return d[::-1] @ v[1:j]


def power_prox_abs(a, lam, q, tol=1e-14, max_iter=200):
    """Root r >= 0 of r + lam * r**(q-1) = a, elementwise for a >= 0.

    Newton safeguarded by bisection on [0, a]; the left side is strictly
    increasing, so the root is unique.
    """
    a = np.asarray(a, dtype=np.float64)
    lo = np.zeros_like(a)
    hi = a.copy()
    r = a / (1.0 + lam)  # exact for q == 2, a decent start otherwise
    for _ in range(max_iter):
        rq = np.power(np.maximum(r, 0.0), q - 2.0, where=r > 0, out=np.zeros_like(r))
        f = r + lam * rq * r - a
        lo = np.where(f < 0, r, lo)
        hi = np.where(f > 0, r, hi)
        if np.all(np.abs(f) <= tol * (1.0 + a)):
            break
        fp = 1.0 + lam * (q - 1.0) * rq
        step = f / fp
        r_new = r - step
        bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
        r = np.where(bad, 0.5 * (lo + hi), r_new)
    return r
