import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from fraflow.kernels import (
    Kernel,
    TimeGrid,
    constant_kernel,
    conv_weights,
    convolve,
    kernel_l1_gap,
    nonlocal_derivative,
    regularized_kernel,
    rl_pair,
    verify_sonine,
)


class TestTimeGrid:
    def test_basic(self):
        g = TimeGrid(2.0, 4)
        assert g.tau == 0.5
        np.testing.assert_allclose(g.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 4)


class TestRiemannLiouvillePair:
    def test_point_values(self):
        pair = rl_pair(0.5)
        # Gamma(1/2) = sqrt(pi)
        assert pair.k(1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert pair.k.antiderivative(1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)

    def test_conjugate_is_rl_of_complementary_order(self):
        # gamma-function oracle for the conjugate kernel value at t = 1
        pair = rl_pair(0.25)
        assert pair.ell(1.0) == pytest.approx(1.0 / gamma_fn(0.25), rel=1e-13)

    @pytest.mark.parametrize("alpha", [-0.1, 0.0, 1.0, 1.5])
    def test_rejects_out_of_range_order(self, alpha):
        with pytest.raises(ValueError):
            rl_pair(alpha)


class TestConvWeights:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_positivity_and_partition(self, alpha):
        pair = rl_pair(alpha)
        grid = TimeGrid(1.0, 128)
        w = conv_weights(pair.k, grid)
        assert np.all(w.omega >= 0)
        # telescoping: row sums reproduce the exact antiderivative
        for j in (1, 5, 128):
            assert w.row_sum(j) == pytest.approx(pair.k.antiderivative(j * grid.tau), rel=1e-12)

    def test_rows_are_toeplitz(self):
        grid = TimeGrid(1.0, 16)
        w = conv_weights(rl_pair(0.5).k, grid)
        np.testing.assert_allclose(w.row(3), w.omega[:3][::-1])


class TestConvolve:
    def test_constant_path_is_exact(self):
        pair = rl_pair(0.5)
        grid = TimeGrid(1.0, 256)
        out = convolve(pair.k, np.ones(257), grid)
        np.testing.assert_allclose(out, pair.k.antiderivative(grid.times), rtol=1e-13)

    def test_polynomial_first_order(self):
        grid = TimeGrid(1.0, 512)
        out = convolve(constant_kernel(1.0), grid.times.copy(), grid)
        # piecewise-constant reconstruction: O(tau) on smooth paths
        assert np.max(np.abs(out - grid.times**2 / 2.0)) <= grid.tau

    def test_linearity_machine_precision(self, rng):
        grid = TimeGrid(1.0, 64)
        pair = rl_pair(0.3)
        w1 = rng.standard_normal(65)
        w2 = rng.standard_normal(65)
        a, b = 2.5, -1.25
        lhs = convolve(pair.k, a * w1 + b * w2, grid)
        rhs = a * convolve(pair.k, w1, grid) + b * convolve(pair.k, w2, grid)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_vector_paths(self, rng):
        grid = TimeGrid(1.0, 32)
        pair = rl_pair(0.5)
        path = rng.standard_normal((33, 4))
        out = convolve(pair.k, path, grid)
        for c in range(4):
            np.testing.assert_allclose(out[:, c], convolve(pair.k, path[:, c], grid))

    def test_initial_node_never_enters(self, rng):
        # right-endpoint rule: cell i carries path[i], so path[0] drops out
        grid = TimeGrid(1.0, 32)
        pair = rl_pair(0.5)
        path = rng.standard_normal((33, 3))
        moved = path.copy()
        moved[0] += 7.0
        np.testing.assert_array_equal(convolve(pair.k, moved, grid), convolve(pair.k, path, grid))

    def test_shape_mismatch_rejected(self):
        grid = TimeGrid(1.0, 32)
        with pytest.raises(ValueError):
            convolve(rl_pair(0.5).k, np.ones(10), grid)


class TestVerifySonine:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_rl_pairs_certify(self, alpha):
        cert = verify_sonine(rl_pair(alpha), TimeGrid(1.0, 256), tol=1e-2)
        assert cert.passed
        assert cert.max_error < cert.coarse_error
        assert cert.observed_order >= 0.5

    def test_pair_with_itself_at_half(self):
        # alpha = 1 - alpha = 1/2: the pair convolves with itself to 1
        cert = verify_sonine(rl_pair(0.5), TimeGrid(1.0, 512), tol=1e-2)
        assert cert.passed

    def test_non_sonine_pair_fails(self):
        from fraflow.kernels import SoninePair

        fake = SoninePair(k=constant_kernel(1.0), ell=constant_kernel(1.0))
        cert = verify_sonine(fake, TimeGrid(1.0, 128), tol=1e-2)
        assert not cert.passed
        # (k * ell)(t) = t, so the worst node sits at the start of the window
        assert cert.worst_time < 0.2

    def test_rl09_fine_error(self):
        cert = verify_sonine(rl_pair(0.9), TimeGrid(1.0, 512), tol=1e-2)
        assert cert.max_error <= 1e-2


class TestRegularizedKernel:
    def test_constant_kernel_gives_exponential(self):
        # ell == 1 collapses the Volterra equation to s' + n s = 0, s(0) = 1
        grid = TimeGrid(1.0, 1024)
        reg = regularized_kernel(constant_kernel(1.0), 2, grid)
        err = np.max(np.abs(reg.s - np.exp(-2.0 * grid.times)))
        assert err <= 5e-3
        assert reg.monotone

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_value_at_zero(self, n):
        grid = TimeGrid(1.0, 64)
        reg = regularized_kernel(constant_kernel(1.0), n, grid)
        assert reg.s[0] == 1.0
        assert reg.value_at_zero == pytest.approx(float(n))

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            regularized_kernel(constant_kernel(1.0), 0, TimeGrid(1.0, 8))

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_l1_gap_monotone_in_n(self, alpha):
        # tau must resolve the O(1/n) initial layer of k_n, otherwise the
        # discrete gap at large n is dominated by the unresolved layer
        pair = rl_pair(alpha)
        grid = TimeGrid(1.0, 16384)
        gaps = []
        for n in (4, 16, 64, 256):
            reg = regularized_kernel(pair.ell, n, grid)
            assert reg.monotone
            gaps.append(kernel_l1_gap(reg, pair.k, grid))
        assert all(gaps[i] > gaps[i + 1] for i in range(len(gaps) - 1))


class TestNonlocalDerivative:
    def test_zero_path(self):
        grid = TimeGrid(1.0, 64)
        out = nonlocal_derivative(rl_pair(0.5).k, np.zeros(65), grid)
        np.testing.assert_array_equal(out, 0.0)

    def test_constant_jump(self):
        # v == c is a jump at t = 0: the derivative samples c * dK/dt
        pair = rl_pair(0.4)
        grid = TimeGrid(1.0, 128)
        c = 2.5
        out = nonlocal_derivative(pair.k, np.full(129, c), grid)
        big_k = pair.k.antiderivative(grid.times)
        expected = c * np.diff(big_k) / grid.tau
        np.testing.assert_allclose(out[1:], expected, rtol=1e-12)

    def test_unit_kernel_recovers_path(self, rng):
        # k == 1: d/dt (1 * v) = v, and the discretization is exact at nodes
        grid = TimeGrid(1.0, 64)
        v = rng.standard_normal(65)
        v[0] = 0.0
        out = nonlocal_derivative(constant_kernel(1.0), v, grid)
        np.testing.assert_allclose(out[1:], v[1:], atol=1e-12)


class TestUserSuppliedKernel:
    def test_quadrature_antiderivative_fallback(self):
        k = Kernel(fn=lambda t: np.exp(-t))
        assert k.antiderivative(1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-9)

    def test_shape_check(self):
        grid = TimeGrid(1.0, 32)
        assert rl_pair(0.5).k.check_shape(grid)
        rising = Kernel(fn=lambda t: t, antiderivative=lambda t: t**2 / 2)
        assert not rising.check_shape(grid)
