"""The inner kernels against their defining equations."""

import numpy as np
import pytest
from scipy.linalg import toeplitz

from fraflow._accel import causal_conv, l1_history, power_prox_abs, volterra_sn
from fraflow.kernels import TimeGrid, conv_weights, rl_pair


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
