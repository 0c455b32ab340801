"""The inner kernels of the stepper and the certificates, in numpy.

One implementation of each: the causal triangular convolution behind
every whole-path product-integration sum, the inverse of a
lower-triangular Toeplitz matrix (the discrete derivative inverse and the
regularized kernels), the per-step history sum and the componentwise power
prox.  Whole-path sums are O(N log N) through zero-padded real FFTs; only
the history sum of the sequential stepper, ``l1_history``, is O(N) per
step.

The module keeps the name ``_accel`` because the benchmark's tracer
(``perfbench/tracer.py``) wraps ``fraflow._accel.l1_history``,
``power_prox_abs`` and ``volterra_sn`` by that module path.
"""

import numpy as np


def causal_conv(omega, cells):
    """Causal triangular convolution of kernel weights with cell values.

    out[0] = 0 and out[j] = sum_{i<j} omega[j-1-i] * cells[i] for
    j = 1..n, n = len(cells).  ``cells`` may carry trailing state axes
    (nodes first); all state columns go through one real FFT along axis 0,
    zero-padded to a power of two >= 2n - 1 so that nothing wraps around.
    """
    omega = np.asarray(omega, dtype=np.float64)
    cells = np.asarray(cells, dtype=np.float64)
    n = cells.shape[0]
    out = np.zeros((n + 1,) + cells.shape[1:])
    if n:
        size = 1 << (2 * n - 2).bit_length()
        spectrum = np.fft.rfft(cells, size, axis=0)
        spectrum *= np.fft.rfft(omega[:n], size).reshape((-1,) + (1,) * (cells.ndim - 1))
        out[1:] = np.fft.irfft(spectrum, size, axis=0)[:n]
    return out


def toeplitz_inverse(column):
    """First column of T^-1 for the lower-triangular Toeplitz T with ``column``.

    Equivalently the power series x with column(z) x(z) = 1 mod z^n.
    Newton doubling (Hairer, Lubich & Schlichte 1985): if x is the inverse
    mod z^k, then x (2 - column x) is the inverse mod z^2k.  Each doubling
    is one spectrum product, zero-padded so that nothing wraps around.
    """
    column = np.asarray(column, dtype=np.float64)
    n = column.shape[0]
    x = np.array([1.0 / column[0]])
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        size = 1 << (2 * k + k2 - 3).bit_length()
        fx = np.fft.rfft(x, size)
        x = np.fft.irfft(fx * (2.0 - np.fft.rfft(column[:k2], size) * fx), size)[:k2]
        k = k2
    return x


def volterra_sn(omega_ell, n):
    """Solution of s + n * (ell * s) = 1 on the grid nodes.

    ``omega_ell`` are the product-integration weights of ell; the diagonal
    (newest-node) weight is omega_ell[0], which makes every step implicit.
    On nodes 1..N the equation is the lower-triangular Toeplitz system
    (I + n T_omega) s = 1, whose solution is the running sum of the first
    column of the inverse.  Returns s sampled at nodes 0..N (s[0] = 1).
    """
    column = n * np.asarray(omega_ell, dtype=np.float64)
    column[0] += 1.0
    return np.concatenate([[1.0], np.cumsum(toeplitz_inverse(column))])


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
