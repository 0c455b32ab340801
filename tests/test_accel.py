"""The inner kernels against their defining equations."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fraflow._accel import HISTORY_BLOCK, History, causal_conv, l1_history, power_prox_abs, toeplitz_inverse, volterra_sn
from fraflow.convex import Quadratic, Space
from fraflow.kernels import TimeGrid, conv_weights, inverse_weights, nonlocal_antiderivative, rl_pair
from fraflow.solver import ProblemSpec, solve_dc_flow


def forward_substitution_antiderivative(kernel, b, grid):
    """Reference inverse of the discrete nonlocal derivative, node by node."""
    omega = conv_weights(kernel, grid).omega
    v = np.zeros_like(b)
    for j in range(1, grid.steps + 1):
        v[j] = (grid.tau * b[j] - l1_history(omega, v, j)) / omega[0]
    return v


def reference_power_prox_abs(a, lam, q, tol=1e-14, max_iter=200):
    """The power prox written with a fresh array per operation; the buffered
    kernel must take exactly its iterates."""
    a = np.asarray(a, dtype=np.float64)
    lo = np.zeros_like(a)
    hi = a.copy()
    r = a / (1.0 + lam)
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


@pytest.mark.parametrize("state_shape", [(), (5,)])
def test_causal_conv_is_toeplitz_matvec(state_shape, rng):
    n = 48
    omega = np.abs(rng.standard_normal(n))
    cells = rng.standard_normal((n,) + state_shape)
    # out[j] = sum_{i<j} omega[j-1-i] * cells[i]: a strictly lower
    # triangular Toeplitz matrix with first column (0, omega[:n])
    dense = toeplitz(np.concatenate([[0.0], omega]), np.zeros(n + 1))[:, :n]
    expected = np.tensordot(dense, cells, axes=1)
    out = causal_conv(omega, cells)
    assert out.shape == (n + 1,) + state_shape
    np.testing.assert_allclose(out, expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("j", [1, 2, 17, 64])
def test_l1_history_is_the_explicit_sum(j, rng):
    n = 64
    omega = np.sort(np.abs(rng.standard_normal(n)))[::-1].copy()
    for v in (rng.standard_normal((n + 1, 3)), rng.standard_normal(n + 1)):
        expected = sum((omega[j - i] - omega[j - i - 1]) * v[i] for i in range(1, j))
        np.testing.assert_allclose(l1_history(omega, v, j), expected + np.zeros(v.shape[1:]), rtol=0, atol=1e-13)


B = HISTORY_BLOCK


def direct_history(omega, v, j):
    """sum_{i=1..j-1} (omega[j-i] - omega[j-i-1]) * v[i] term by term, and
    the same sum of magnitudes (the scale of its round-off)."""
    total, scale = np.zeros(v.shape[1:]), np.zeros(v.shape[1:])
    for i in range(1, j):
        term = (omega[j - i] - omega[j - i - 1]) * v[i]
        total += term
        scale += np.abs(term)
    return total, scale


def history_case(m, rng, n=4 * B + 7):
    omega = conv_weights(rl_pair(0.5).k, TimeGrid(1.0, n)).omega
    return omega, rng.standard_normal((n + 1, m))


@pytest.mark.parametrize("m", [1, 3])
def test_history_matches_the_direct_sum(m, rng):
    omega, v = history_case(m, rng)
    history = History(omega, v)
    checked = {1, 2, B - 1, B, B + 1, 2 * B, 3 * B + 5}
    for j in range(1, max(checked) + 1):
        h = history(j)
        if j in checked:
            expected, scale = direct_history(omega, v, j)
            assert np.all(np.abs(h - expected) <= 1e-13 * scale), j


def test_history_is_the_direct_sum_bitwise_below_one_block(rng):
    omega, v = history_case(3, rng)
    history = History(omega, v)
    for j in range(1, B):
        np.testing.assert_array_equal(history(j), l1_history(omega, v, j))


def test_history_reads_no_future_row(rng):
    omega, v = history_case(3, rng)
    path = np.full_like(v, np.nan)
    history = History(omega, path)
    for j in range(1, v.shape[0]):
        # the stepper's order: rows 0..j-1 known, j..N not yet
        path[j - 1] = v[j - 1]
        assert np.all(np.isfinite(history(j))), j


@pytest.mark.parametrize("index", [1.0, 8.0, 64.0])
def test_volterra_sn_solves_its_equation(index):
    omega = conv_weights(rl_pair(0.5).ell, TimeGrid(1.0, 128)).omega
    s = volterra_sn(omega, index)
    assert s[0] == 1.0
    # s_j + n * sum_{i=1..j} omega[j-i] s_i = 1 at every node j >= 1
    lhs = s[1:] + index * causal_conv(omega, s[1:])[1:]
    np.testing.assert_allclose(lhs, 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("q", [1.5, 2.5, 4.0])
def test_power_prox_abs_solves_its_equation(q, rng):
    a = np.abs(rng.standard_normal(200)) * 5.0
    lam = 0.3
    r = power_prox_abs(a, lam, q)
    assert np.all(r >= 0)
    np.testing.assert_allclose(r + lam * r ** (q - 1.0), a, rtol=0, atol=1e-10)


@pytest.mark.parametrize("lam", [1e-3, 0.1])
@pytest.mark.parametrize("q", [1.5, 2.5, 3.0, 4.0, 5.0])
def test_power_prox_abs_matches_reference_bitwise(q, lam):
    # 0 and 1e-3 .. 3e4; the top decade is the near-blow-up range, where
    # Newton leaves the bracket and bisection runs
    a = np.concatenate([[0.0], np.geomspace(1e-3, 3e4, 64)])
    np.testing.assert_array_equal(power_prox_abs(a, lam, q), reference_power_prox_abs(a, lam, q))


@pytest.mark.parametrize("n", [1, 2, 37, 100, 128])
def test_toeplitz_inverse_is_the_inverse(n, rng):
    # a kernel column (the discrete derivative of rl(0.5)) and a random one
    omega = conv_weights(rl_pair(0.5).k, TimeGrid(1.0, n)).omega
    for column in (np.diff(omega, prepend=0.0), np.concatenate([[2.0], rng.uniform(-1.0, 1.0, n - 1) / n])):
        x = toeplitz_inverse(column)
        dense = toeplitz(column, np.zeros(n))
        np.testing.assert_allclose(dense @ x, np.eye(n)[0], rtol=0, atol=1e-13)


@pytest.mark.parametrize("steps", [64, 4096])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_inverse_weights_match_forward_substitution(alpha, steps):
    kernel, grid = rl_pair(alpha).k, TimeGrid(1.0, steps)
    basis = np.zeros(steps + 1)
    basis[1] = 1.0
    expected = forward_substitution_antiderivative(kernel, basis, grid)[1:]
    np.testing.assert_allclose(inverse_weights(kernel, grid), expected, rtol=1e-12, atol=0)


@pytest.mark.parametrize("steps", [64, 4096])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_nonlocal_antiderivative_matches_forward_substitution(alpha, steps, rng):
    kernel, grid = rl_pair(alpha).k, TimeGrid(1.0, steps)
    b = rng.standard_normal((steps + 1, 3))
    expected = forward_substitution_antiderivative(kernel, b, grid)
    v = nonlocal_antiderivative(kernel, b, grid)
    assert v.shape == b.shape
    np.testing.assert_allclose(v, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_causal_conv_matches_direct_convolution_at_scale(rng):
    n = 16384
    omega = np.abs(rng.standard_normal(n))
    cells = rng.standard_normal(n)
    out = causal_conv(omega, cells)
    expected = np.convolve(omega, cells)[:n]
    np.testing.assert_allclose(out[1:], expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


def test_fft_residuals_stay_under_the_gate():
    # the residual re-assembly divides differences of an FFT convolution by tau
    spec = ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([1.0]), None, TimeGrid(1.0, 4096))
    assert float(np.max(solve_dc_flow(spec).residuals)) <= 1e-10
