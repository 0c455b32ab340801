"""The inner kernels against their defining equations."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fraflow._accel import causal_conv, l1_history, power_prox_abs, toeplitz_inverse, volterra_sn
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
