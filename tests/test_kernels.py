import importlib.resources
import json
import math

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn
from scipy.special import gammaln

from fraflow.kernels import (
    Kernel,
    TimeGrid,
    _log_gamma,
    conv_weights,
    convolve,
    kernel_l1_gap,
    nonlocal_derivative,
    regularized_kernel,
    rl_pair,
    verify_sonine,
)


def constant_kernel(value):
    """k == value: the classical limit, and half of a pair that is no Sonine pair."""
    return Kernel(
        fn=lambda t: np.full_like(np.asarray(t, dtype=np.float64), value),
        antiderivative=lambda t: value * np.asarray(t, dtype=np.float64),
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


def shipped_alphas():
    """Every kernel order a shipped preset names."""
    alphas = set()
    for entry in importlib.resources.files("fraflow").joinpath("presets").iterdir():
        if entry.name.endswith(".json"):
            config = json.loads(entry.read_text())
            kernel = config.get("kernel", {})
            alphas.update(kernel.get("alphas", []), config.get("sweep", {}).get("alphas", []))
            if "alpha" in kernel:
                alphas.add(kernel["alpha"])
    return sorted(alphas)


class TestLogGamma:
    """``_log_gamma`` is ``scipy.special.gammaln`` to the last bit on x > 0."""

    @staticmethod
    def assert_bitwise(xs):
        xs = np.asarray(xs, dtype=np.float64)
        ours = np.array([_log_gamma(float(x)) for x in xs])
        ref = gammaln(xs)
        differ = ours.view(np.int64) != ref.view(np.int64)
        assert not differ.any(), f"{differ.sum()} of {xs.size} differ, first at x = {xs[differ][0]!r}"

    def test_dense_grid_up_to_three(self):
        self.assert_bitwise(np.linspace(0.0, 3.0, 30001)[1:])

    @pytest.mark.parametrize(
        "lo, hi",
        [(0.0, 2.0), (2.0, 3.0), (3.0, 13.0), (13.0, 1000.0), (1000.0, 1e8), (1e8, 1e300)],
    )
    def test_random_draws_in_each_branch(self, lo, hi):
        rng = np.random.default_rng(20250114)
        xs = rng.uniform(lo, hi, 2000)
        # log-uniform draws reach the small end of each range as well
        xs = np.concatenate([xs, np.exp(rng.uniform(math.log(max(lo, 1e-300)), math.log(hi), 2000))])
        xs = xs[(xs > 0.0) & (xs >= lo) & (xs <= hi)]
        assert xs.size > 3900
        self.assert_bitwise(xs)

    def test_branch_points_and_their_neighbours(self):
        points = [1.0, 2.0, 3.0, 13.0, 1000.0, 1e8, 2.556348e305]
        self.assert_bitwise(points + [np.nextafter(x, 0.0) for x in points] + [np.nextafter(x, np.inf) for x in points])
        # subnormal arguments, and the overflow to inf past the last branch
        self.assert_bitwise([5e-324, 1e-310, 1e306, 1.7e308])
        assert _log_gamma(1.0) == 0.0
        assert _log_gamma(2.0) == 0.0

    def test_orders_of_the_shipped_presets(self):
        alphas = shipped_alphas()
        assert {0.3, 0.5, 0.7, 0.9, 0.99} <= set(alphas)
        # 1 - a and 2 - a for the pair k, a and 1 + a for its conjugate ell
        self.assert_bitwise([x for a in alphas for x in (1.0 - a, 2.0 - a, a, 1.0 + a)])

    @pytest.mark.parametrize("x", [0.0, -0.0, -1.0, -2.5, -math.inf, math.inf, math.nan])
    def test_rejects_arguments_outside_the_positive_reals(self, x):
        with pytest.raises(ValueError):
            _log_gamma(x)


class TestConvWeights:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9])
    def test_positivity_and_partition(self, alpha):
        pair = rl_pair(alpha)
        grid = TimeGrid(1.0, 128)
        omega = conv_weights(pair.k, grid)
        assert np.all(omega >= 0)
        # telescoping: row sums reproduce the exact antiderivative
        for j in (1, 5, 128):
            assert np.sum(omega[:j]) == pytest.approx(pair.k.antiderivative(j * grid.tau), rel=1e-12)

    def test_the_cached_weights_are_read_only(self):
        # every caller shares the cached array: a write would change them all
        omega = conv_weights(rl_pair(0.5).k, TimeGrid(1.0, 16))
        with pytest.raises(ValueError, match="read-only"):
            omega[0] = 0.0


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
        cert = verify_sonine(rl_pair(alpha), TimeGrid(1.0, 256))
        assert cert.passed
        assert cert.details["max_error"] < cert.details["coarse_error"]
        assert cert.details["observed_order"] >= 0.5

    def test_pair_with_itself_at_half(self):
        # alpha = 1 - alpha = 1/2: the pair convolves with itself to 1
        cert = verify_sonine(rl_pair(0.5), TimeGrid(1.0, 512))
        assert cert.passed

    def test_non_sonine_pair_fails(self):
        from fraflow.kernels import SoninePair

        fake = SoninePair(k=constant_kernel(1.0), ell=constant_kernel(1.0))
        cert = verify_sonine(fake, TimeGrid(1.0, 128))
        assert not cert.passed
        # (k * ell)(t) = t, so the worst node sits at the start of the window
        assert cert.details["worst_time"] < 0.2

    def test_rl09_fine_error(self):
        cert = verify_sonine(rl_pair(0.9), TimeGrid(1.0, 512))
        assert cert.details["max_error"] <= 1e-2

    @pytest.mark.parametrize("steps", [1, 16, 32])
    def test_grid_with_fewer_than_three_burn_in_cells_is_rejected(self, steps):
        # N / 16 < 3 coarse cells in [0, T/16]: the score would hold the
        # first cells' grid-invariant quadrature error
        cert = verify_sonine(rl_pair(0.5), TimeGrid(1.0, steps))
        assert not cert.passed
        out = cert.to_dict()
        assert out["status"] == "reject"
        assert f"N = {steps} cells" in out["reason"]

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_grid_with_three_burn_in_cells_is_scored(self, alpha):
        cert = verify_sonine(rl_pair(alpha), TimeGrid(1.0, 48))
        assert cert.passed
        assert cert.to_dict()["status"] == "pass" and "reason" not in cert.to_dict()


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
        assert reg.k_n[0] == pytest.approx(float(n))

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

