"""The inner kernels of the stepper and the certificates, in numpy.

One implementation of each: the causal triangular convolution behind
every whole-path product-integration sum, the inverse of a
lower-triangular Toeplitz matrix (the discrete derivative inverse and the
regularized kernels), the per-step history sum and the componentwise power
prox, with one exponent or one per row.  Whole-path sums are O(N log N)
through zero-padded real FFTs.  The sequential stepper's history sums go
through :class:`History`, O(N log^2 N) for a whole run and exact: no
per-step sum is O(N) any more.  One ``History`` serves a whole batch of
rows, one contiguous path per row, and a single solve is a batch of one:
each step sums the near field of every live row in one ``l1_history``
call, one ``np.einsum`` with the kernel differences it takes once per run.

The module keeps the name ``_accel``, and the near-field sum keeps the
name ``l1_history``, because the benchmark's tracer
(``perfbench/tracer.py``) wraps ``fraflow._accel.l1_history``,
``power_prox_abs`` and ``volterra_sn`` by that module path and counts the
near-field work through it.
"""

import itertools

import numpy as np

# numpy 2 loads numpy.fft on first use: import it here, with the program,
# so that no command pays for it inside its run
import numpy.fft


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


def l1_history(d, v, j):
    """History term of the discretized nonlocal derivative at step j.

    Returns sum_{i=1..j-1} (omega[j-i] - omega[j-i-1]) * v[i] from the
    kernel differences d[k] = omega[k+1] - omega[k] (``np.diff(omega)``,
    at least j - 1 of them); the caller adds the leading omega[0] * v[j]
    term itself.  ``v`` is node first: one row's path (N+1, m), or the
    paths of R rows side by side, (N+1, R, m).

    The differences enter as the negative-stride view d[j-2::-1] and go
    through ``np.einsum``, which adds the products in node order, rows on
    the outside and columns on the inside.  Each row comes out bit for bit
    as numpy's own product loop ``(omega[1:j] - omega[:j-1])[::-1] @
    v[1:j]`` on its path; a contiguous reversed copy of the differences
    would send that product to BLAS gemv, whose blocking gives other last
    bits than the sha256-pinned outputs hold.
    """
    if j <= 1:
        return np.zeros(v.shape[1:], dtype=np.float64)
    return np.einsum("n,n...->...", d[j - 2 :: -1], v[1:j])


HISTORY_BLOCK = 512  # near-field width B of :class:`History`
# a far-field pass of L sources sums its targets directly when they number
# at most FAR_DIRECT_RATIO log2(2L): the direct sum takes L products per
# target, a transform pair about 2L log2(2L) operations.  Measured on 15
# rows of 32 values and on one row of 400, L = 512 to 2048, the direct sum
# stays the cheaper one up to 2.3 to 5 times this bound
FAR_DIRECT_RATIO = 2


class History:
    """Exact online history sums H_j = sum_{i<j} (omega[j-i] - omega[j-i-1]) v[i],
    j = 1, 2, ..., N, for a batch of rows at once.

    The blocked convolution of Hairer, Lubich & Schlichte (1985).  ``v``
    is the buffer the stepper fills node by node: the paths of R rows
    (R, N+1, m), each row's path contiguous; a single solve is a batch of
    one.  The call at j reads only the nodes v[:, 1:j] and returns H_j of
    every row, (R, m).  The calls must come in the order j = 1, 2, ....
    The nodes below the current block of B nodes reach H_j through
    ``far``: whenever j is a multiple of B, with L = j & -j, the nodes
    [j-L, j) of each row are added into its targets [j, j+L) by one
    zero-padded FFT middle product with the kernel differences.  Every
    pair of nodes in different blocks is covered exactly once, so a whole
    run costs O(N B + N log^2 N) per row and nothing is approximated.  A
    pass with few targets (``FAR_DIRECT_RATIO``), such as the one target
    of the pass at j = N = B, sums them directly instead, one ``np.einsum``
    per row.  The near field, the nodes [j - j % B, j), is one
    ``l1_history`` call on a window of the node-first view, for all rows;
    for j < B that is the direct sum itself.

    A row that leaves the batch is dropped by :meth:`compact`.  The kernel
    differences d[k] = omega[k+1] - omega[k] are taken once, here, and
    serve both fields; ``l1_history`` reads them for the near field.
    """

    def __init__(self, omega, v):
        self.paths = v  # rows first
        n = self.paths.shape[1] - 1
        # d[k] = omega[k+1] - omega[k], zero past the grid
        self.d = np.zeros(2 * n)
        self.d[: len(omega) - 1] = np.diff(omega)
        # the far field reaches only the targets j >= B: far[r, t] is
        # target B + t of row r.  (A buffer of all N + 1 targets raised the
        # peak RSS of a 15-row sweep batch at N = B by about 1 MB, one
        # target of it written.)
        self.far = np.zeros((len(self.paths), max(n + 1 - HISTORY_BLOCK, 0), self.paths.shape[2]))
        self.reach = 0  # the far field holds the targets below this one
        self.spectra = {}  # block size L -> spectrum of d[:2L-1]
        self._views()

    def _views(self):
        # the node-first views the calls read, (N+1, R, m) over the paths of the batch
        self.nodes, self.far_nodes = self.paths.swapaxes(0, 1), self.far.swapaxes(0, 1)

    def __call__(self, j):
        block = HISTORY_BLOCK
        if j < block:
            return l1_history(self.d, self.nodes, j)
        lo = j - j % block
        if lo == j:
            self._far_field(j)
        return l1_history(self.d, self.nodes[lo - 1 :], j - lo + 1) + self.far_nodes[j - block]

    def compact(self, keep, j):
        """Keep the rows at the positions ``keep`` (ascending), in that
        order, before the call at j.

        Each kept row moves down to its new position in place, with the
        nodes written so far (j' < j) and the far-field targets already
        summed for steps >= j; nothing else is copied.
        """
        far = slice(max(j - HISTORY_BLOCK, 0), max(self.reach - HISTORY_BLOCK, 0))
        for row, r in enumerate(keep):
            if row != r:
                self.paths[row, :j] = self.paths[r, :j]
                self.far[row, far] = self.far[r, far]
        self.paths, self.far = self.paths[: len(keep)], self.far[: len(keep)]
        self._views()

    def _far_field(self, j):
        size = j & -j
        stop = min(j + size, self.paths.shape[1])
        # a pass with a smaller L can end below an earlier, longer one
        self.reach = max(self.reach, stop)
        # target t takes sum_i d[t-1-i] v[i] over the sources i in [j-L, j)
        direct = stop - j <= FAR_DIRECT_RATIO * size.bit_length()
        if direct:
            weights = self.d[np.arange(j - 1, stop - 1)[:, None] - np.arange(j - size, j)]
        else:
            spectrum = self.spectra.get(size)
            if spectrum is None:
                spectrum = self.spectra[size] = np.fft.rfft(self.d[: 2 * size - 1], 2 * size)[:, None]
        for path, far in zip(self.paths, self.far):  # one row's columns per product
            nodes = path[j - size : j]
            if j == size:  # like l1_history, leave out node 0
                nodes = nodes.copy()
                nodes[0] = 0.0
            if direct:
                far[j - HISTORY_BLOCK : stop - HISTORY_BLOCK] += np.einsum("ti,im->tm", weights, nodes)
                continue
            # target t is the product's entry t - j + L - 1; the entries
            # that wrap around in the size-2L transform all lie below L - 1
            sources = np.fft.rfft(nodes, 2 * size, axis=0)
            sources *= spectrum
            far[j - HISTORY_BLOCK : stop - HISTORY_BLOCK] += np.fft.irfft(sources, 2 * size, axis=0)[size - 1 : size - 1 + stop - j]


class ProxNonconvergence(RuntimeError):
    """Inner prox solver failed to meet its tolerance."""

    def __init__(self, residual, iterations):
        super().__init__(f"prox solver stalled at residual {residual:.3e} after {iterations} iterations")
        self.residual = residual
        self.iterations = iterations


TINY = 5e-324  # the smallest positive double
POWER_PROX_TOL = 1e-14  # power_prox_abs stops once |f| <= POWER_PROX_TOL (1 + a)
POWER_PROX_MAX_ITER = 200  # and raises after this many passes


def exponent_runs(q):
    """``(rows, q)`` for each run of consecutive rows with one exponent.

    ``q`` is one exponent, a run of every row (``rows`` is ``slice(None)``),
    or a column of one exponent per row.  ``rows`` is a slice of rows and
    ``q`` a float: a power takes a scalar exponent on a view of the run.
    numpy takes a scalar exponent of 2 or 0.5 as a square or a square
    root, whose last bits differ from the same power with an exponent
    array.
    """
    if np.ndim(q) == 0:
        return [(slice(None), float(q))]
    runs, lo = [], 0
    for value, rows in itertools.groupby(np.ravel(q).tolist()):
        hi = lo + len(list(rows))
        runs.append((slice(lo, hi), value))
        lo = hi
    return runs


def power_prox_abs(a, lam, q, runs):
    """Root r >= 0 of r + lam * r**(q-1) = a, elementwise for a >= 0.

    ``a`` is one row of values or a stack of rows (R, m), ``q`` one
    exponent or a column (R, 1) of one exponent per row, and ``runs`` is
    ``exponent_runs(q)``, which a caller that keeps q computes once.  Each
    row stops at its own pass: once every entry of a row meets the
    tolerance, that row is left as it is while the other rows go on.  Each
    row takes the branch of its own exponent, every power a scalar
    exponent on the view of a run of rows with one q, and every other
    operation is elementwise: a row comes out bitwise as it does when
    solved alone.

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
      lam r*^(q-1) = a - r* > a/2.  The Newton step is taken as
      f r / (r + lam (q-1) r^(q-1)), which stays finite at subnormal r
      where r^(q-2) overflows.

    For q < 2 and a > 0, L underflows to 0 when q is close to 1 and
    a << lam.  Where f(TINY) > 0 the root lies below the smallest
    positive double, and r = 0 is returned as its rounded value; elsewhere
    TINY is a lower bound that does not underflow and Newton starts there;
    a root in the subnormal range is taken where the step stops moving it.
    Zero entries of a stay at 0.  The iteration stops once
    |f| <= POWER_PROX_TOL (1 + a) everywhere and raises
    :class:`ProxNonconvergence` if ``POWER_PROX_MAX_ITER`` passes do not
    get there, e.g. on a NaN entry.  Both constants are read at each call.
    """
    a = np.asarray(a, dtype=np.float64)
    max_iter = POWER_PROX_MAX_ITER
    # the rows of each branch, adjacent runs of one branch merged
    concave_rows, convex_rows = [], []
    for rows, qr in runs:
        parts = concave_rows if qr < 2.0 else convex_rows
        if parts and parts[-1].stop == rows.start:
            parts[-1] = slice(parts[-1].start, rows.stop)
        else:
            parts.append(rows)
    # the start bound min(c, (c/lam)^(1/(q-1))), c = a/2 (concave) or a (convex)
    cap = a
    if concave_rows:
        cap = a.copy()
        for rows in concave_rows:
            np.multiply(0.5, a[rows], out=cap[rows])
    with np.errstate(over="ignore"):  # an infinite power is never the minimum
        r = cap / lam
        for rows, qr in runs:
            part = r[rows]
            np.power(part, 1.0 / (qr - 1.0), out=part)
    np.minimum(cap, r, out=r)
    bound = POWER_PROX_TOL * (1.0 + a)
    slope = lam * (q - 1.0)
    live = True  # the entries Newton moves: a stopped row and a concave 0 stay put
    if concave_rows:
        live = np.ones(a.shape, dtype=bool)
        for rows, qr in runs:
            if qr < 2.0:
                rr, ar = r[rows], a[rows]
                lost = (rr == 0.0) & (ar > 0.0)
                if lost.any():
                    below = lost & (TINY + lam * TINY ** (qr - 1.0) > ar)
                    bound[rows][below] = np.inf  # r = 0 is the rounded root
                    rr[lost & ~below] = TINY
                np.greater(rr, 0.0, out=live[rows])  # 0 stays put: the slope of f is infinite there
    # r**(q-1) (concave) or r**(q-2) (convex).  Taken everywhere: a stopped
    # row's r, and so its power, stays as it is, and 0**(q-1) = 0
    rq = np.empty_like(a)
    f = np.empty_like(a)  # r + lam r**(q-1) - a
    step = np.empty_like(a)  # |f|, then the Newton step
    done = np.empty(a.shape, dtype=bool)
    # the views of each run and each branch's rows, taken once
    powers = [(r[rows], rq[rows], qr - 1.0 if qr < 2.0 else qr - 2.0) for rows, qr in runs]
    convex = [(r[rows], f[rows], step[rows]) for rows in convex_rows]
    concave = [(rows, r[rows], f[rows], step[rows], bound[rows], done[rows]) for rows in concave_rows]
    stack = a.ndim > 1 and len(a) > 1  # rows to stop one by one
    for _ in range(max_iter):
        for rr, rqr, power in powers:
            np.power(rr, power, out=rqr)
        np.multiply(rq, lam, out=f)
        for rr, fr, _ in convex:
            fr *= rr
        f += r
        f -= a
        np.less_equal(np.abs(f, out=step), bound, out=done)
        if np.count_nonzero(done) == done.size:
            return r
        if stack:
            finished = np.logical_and.reduce(done, axis=-1)
            if np.count_nonzero(finished):
                live = live & ~finished[..., None]
        np.multiply(rq, slope, out=step)
        for rows, rr, fr, sr, br, dr in concave:
            on = live[rows]
            sr += rr
            np.divide(fr, sr, out=sr, where=on)
            np.multiply(sr, rr, out=sr, where=on)
            # a subnormal root has no double within the tolerance: accept
            # the entries the step no longer moves
            stuck = (rr - sr == rr) & on & ~dr
            if stuck.any():
                br[stuck] = np.inf
        for _, fr, sr in convex:
            sr += 1.0
            np.divide(fr, sr, out=sr)
        np.subtract(r, step, out=r, where=live)
    raise ProxNonconvergence(float(np.max(np.abs(f) / (1.0 + a))), max_iter)
