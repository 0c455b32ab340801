"""The inner kernels of the stepper and the certificates, in numpy.

One implementation of each: the causal triangular convolution behind
every whole-path product-integration sum, the inverse of a
lower-triangular Toeplitz matrix (the discrete derivative inverse and the
regularized kernels), the per-step history sum and the componentwise power
prox.  Whole-path sums are O(N log N) through zero-padded real FFTs.  The
sequential stepper's history sums go through :class:`History`, O(N log^2 N)
for a whole run and exact: no per-step sum is O(N) any more.
``l1_history`` is the direct sum, which ``History`` calls on the near
field of at most ``HISTORY_BLOCK`` recent rows.

The module keeps the name ``_accel``, and the near-field sum keeps the
name ``l1_history``, because the benchmark's tracer
(``perfbench/tracer.py``) wraps ``fraflow._accel.l1_history``,
``power_prox_abs`` and ``volterra_sn`` by that module path and counts the
near-field work through it.
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


HISTORY_BLOCK = 512  # near-field width B of :class:`History`


class History:
    """Exact online history sums H_j = l1_history(omega, v, j), j = 1, 2, ..., N.

    The blocked convolution of Hairer, Lubich & Schlichte (1985).  ``v``
    is the (N+1, m) buffer the stepper fills row by row; the call at j
    reads only the rows v[1:j], and the calls must come in the order
    j = 1, 2, ....  The rows below the current block of B rows reach H_j
    through ``far``: whenever j is a multiple of B, with L = j & -j, the
    rows [j-L, j) are added into the targets [j, j+L) by one zero-padded
    FFT middle product with the kernel differences.  Every pair of rows in
    different blocks is covered exactly once, so a whole run costs
    O(N B + N log^2 N) and nothing is approximated.  The near field, the
    rows [j - j % B, j), is ``l1_history`` on a window; for j < B that is
    the direct sum itself.
    """

    def __init__(self, omega, v):
        self.omega = omega
        self.v = v
        n = v.shape[0] - 1
        # d[k] = omega[k+1] - omega[k], zero past the grid
        self.d = np.zeros(2 * n)
        self.d[: len(omega) - 1] = np.diff(omega)
        self.far = np.zeros_like(v)
        self.spectra = {}  # block size L -> spectrum of d[:2L-1]

    def __call__(self, j):
        block = HISTORY_BLOCK
        if j < block:
            return l1_history(self.omega, self.v, j)
        lo = j - j % block
        if lo == j:
            self._far_field(j)
        return l1_history(self.omega, self.v[lo - 1 :], j - lo + 1) + self.far[j]

    def _far_field(self, j):
        size = j & -j
        spectrum = self.spectra.get(size)
        if spectrum is None:
            spectrum = self.spectra[size] = np.fft.rfft(self.d[: 2 * size - 1], 2 * size)[:, None]
        rows = self.v[j - size : j]
        if j == size:  # like l1_history, leave out row 0
            rows = rows.copy()
            rows[0] = 0.0
        sources = np.fft.rfft(rows, 2 * size, axis=0)
        sources *= spectrum
        # target t takes the product's entry t - j + size - 1; the entries
        # that wrap around in the size-2L transform all lie below size - 1
        stop = min(j + size, self.far.shape[0])
        self.far[j:stop] += np.fft.irfft(sources, 2 * size, axis=0)[size - 1 : size - 1 + stop - j]


class ProxNonconvergence(RuntimeError):
    """Inner prox solver failed to meet its tolerance."""

    def __init__(self, residual, iterations):
        super().__init__(f"prox solver stalled at residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


def power_prox_abs(a, lam, q, tol=1e-14, max_iter=200):
    """Root r >= 0 of r + lam * r**(q-1) = a, elementwise for a >= 0.

    f(r) = r + lam r^(q-1) - a is strictly increasing, so the root r* is
    unique, and plain Newton converges monotonically onto it from a start
    on the side where the tangents stay on one side of f (Ortega &
    Rheinboldt 1970, 13.3):

    - q >= 2: f is convex, so every iterate from above the root stays
      above it and decreases.  The start is the upper bound
      U = min(a, (a/lam)^(1/(q-1))): r* <= a and lam r*^(q-1) <= a.
    - 1 < q < 2: f is concave, so every iterate from below stays below it
      and increases.  The start is the lower bound
      L = min(a/2, (a/(2 lam))^(1/(q-1))): if r* < a/2, then
      lam r*^(q-1) = a - r* > a/2.  L > 0 for a > 0, so the infinite slope
      of f at 0 is never met.

    For q < 2 the zero entries of the start (a = 0, or a bound that
    underflows) stay put; for q >= 2, 0**(q-2) is finite and needs no mask.
    The iteration stops once |f| <= tol (1 + a) everywhere and raises
    :class:`ProxNonconvergence` if ``max_iter`` passes do not get there: a
    NaN entry, or a root below the double range (q close to 1, a << lam).
    """
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(over="ignore"):  # an infinite power is never the minimum
        if q >= 2.0:
            r = np.minimum(a, np.power(a / lam, 1.0 / (q - 1.0)), out=np.empty_like(a))
            live = True
        else:
            r = np.minimum(0.5 * a, np.power(0.5 * a / lam, 1.0 / (q - 1.0)), out=np.empty_like(a))
            live = r > 0.0
    bound = tol * (1.0 + a)
    slope = lam * (q - 1.0)
    rq = np.zeros_like(a)  # r**(q-2) on the live entries, 0 elsewhere
    f = np.empty_like(a)  # r + lam r**(q-1) - a
    step = np.empty_like(a)  # |f|, then the Newton step
    done = np.empty(a.shape, dtype=bool)
    for _ in range(max_iter):
        np.power(r, q - 2.0, out=rq, where=live)
        np.multiply(rq, lam, out=f)
        f *= r
        f += r
        f -= a
        np.less_equal(np.abs(f, out=step), bound, out=done)
        if np.count_nonzero(done) == done.size:
            return r
        np.multiply(rq, slope, out=step)
        step += 1.0
        np.divide(f, step, out=step)
        np.subtract(r, step, out=r, where=live)
    raise ProxNonconvergence(float(np.max(np.abs(f) / (1.0 + a))), max_iter)
