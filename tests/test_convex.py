import numpy as np
import pytest

from fraflow.convex import (
    PowerPotential,
    ProxNonconvergence,
    Quadratic,
    Space,
    ZeroFunctional,
    minimal_section,
    resolvent,
    yosida,
)
from fraflow.plaplace import Grid, dirichlet_p_energy


def builtins(dim=6):
    sp = Space(dim)
    return {
        "quadratic": Quadratic(sp),
        "power4": PowerPotential(sp, 4),
        "power1.5": PowerPotential(sp, 1.5),
    }


class TestResolventBasics:
    def test_quadratic_halves(self):
        sp = Space(3)
        w = np.array([2.0, -4.0, 1.0])
        np.testing.assert_allclose(resolvent(Quadratic(sp), 1.0, w), w / 2)

    def test_power2_is_quadratic(self, rng):
        sp = Space(5)
        w = rng.standard_normal(5)
        lam = 0.7
        np.testing.assert_allclose(resolvent(PowerPotential(sp, 2), lam, w), w / (1 + lam))

    def test_power4_scalar_example(self):
        # z + 0.5 z^3 = 2, and the optimality residual (w-z)/lam = z^3
        z = resolvent(PowerPotential(Space(1), 4), 0.5, np.array([2.0]))
        assert z[0] + 0.5 * z[0] ** 3 == pytest.approx(2.0, abs=1e-12)
        assert (2.0 - z[0]) / 0.5 == pytest.approx(z[0] ** 3, abs=1e-11)

    def test_p_dirichlet_inner_newton_residual(self, rng):
        grid = Grid(1, 8)
        phi = dirichlet_p_energy(grid, 3.0)
        w = rng.standard_normal(8)
        lam = 0.3
        z = resolvent(phi, lam, w, tol=1e-10)
        res = (z - w) / lam + phi.gradient(z)
        assert phi.space.norm(res) <= 1e-8

    def test_rejects_bad_lambda(self):
        with pytest.raises(ValueError):
            resolvent(Quadratic(Space(2)), 0.0, np.zeros(2))

    def test_rejects_nonfinite_input(self):
        with pytest.raises(ValueError):
            resolvent(Quadratic(Space(2)), 1.0, np.array([np.nan, 0.0]))

    def test_zero_functional_identity(self, rng):
        w = rng.standard_normal(4)
        np.testing.assert_array_equal(resolvent(ZeroFunctional(Space(4)), 2.0, w), w)


class TestYosida:
    def test_quadratic_closed_form(self):
        sp = Space(4)
        w = np.array([2.0, 0.0, -2.0, 4.0])
        ye = yosida(Quadratic(sp), 1.0, w)
        np.testing.assert_allclose(ye.rate, w / 2)
        # phi_lam(w) = ||w||^2 / (2 (1 + lam))
        assert ye.envelope == pytest.approx(np.sum(w**2) / 4)

    def test_envelope_monotone_toward_value(self, rng):
        for name, phi in builtins().items():
            w = rng.standard_normal(phi.space.dim)
            envs = [phi.envelope(w, lam) for lam in (1.0, 0.1, 0.01)]
            val = phi.value(w)
            assert envs[0] <= envs[1] <= envs[2] <= val + 1e-12, name

    def test_power4_scalar_consistency(self):
        ye = yosida(PowerPotential(Space(1), 4), 0.5, np.array([2.0]))
        # the rate equals the cubic at the prox point
        assert ye.rate[0] == pytest.approx(ye.point[0] ** 3, abs=1e-11)


class TestMinimalSection:
    def test_smooth_quadratic(self, rng):
        sp = Space(4)
        w = rng.standard_normal(4)
        ms = minimal_section(Quadratic(sp), w)
        assert ms.converged
        np.testing.assert_allclose(ms.value, w, atol=1e-5)

    def test_power4_componentwise(self):
        w = np.array([1.5, -0.5])
        ms = minimal_section(PowerPotential(Space(2), 4), w)
        assert ms.converged
        np.testing.assert_allclose(ms.value, np.abs(w) ** 2 * w, atol=1e-5)

    def test_p2_dirichlet_matches_tridiagonal(self, rng):
        # p = 2: the minimal section is the Dirichlet Laplacian matrix action
        grid = Grid(1, 16)
        phi = dirichlet_p_energy(grid, 2.0)
        u = rng.standard_normal(16)
        ms = minimal_section(phi, u, tol=1e-5)
        h = grid.h
        lap = (np.diag(np.full(16, 2.0)) - np.diag(np.ones(15), 1) - np.diag(np.ones(15), -1)) / h**2
        np.testing.assert_allclose(ms.value, lap @ u, rtol=1e-4, atol=1e-4)
        assert ms.converged


# property batteries: >= 100 random pairs per built-in functional
LAMBDAS = [0.01, 0.1, 1.0]


@pytest.mark.parametrize("name", ["quadratic", "power4", "power1.5"])
def test_resolvent_nonexpansive(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(40):
        w1 = 3.0 * rng.standard_normal(dim)
        w2 = 3.0 * rng.standard_normal(dim)
        for lam in LAMBDAS:
            d_in = phi.space.norm(w1 - w2)
            d_out = phi.space.norm(phi.prox(w1, lam) - phi.prox(w2, lam))
            assert d_out <= d_in * (1 + 1e-8) + 1e-12


@pytest.mark.parametrize("name", ["quadratic", "power4", "power1.5"])
def test_yosida_lipschitz_and_monotone(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(40):
        w1 = 3.0 * rng.standard_normal(dim)
        w2 = 3.0 * rng.standard_normal(dim)
        for lam in LAMBDAS:
            a1 = phi.yosida(w1, lam).rate
            a2 = phi.yosida(w2, lam).rate
            assert phi.space.norm(a1 - a2) <= phi.space.norm(w1 - w2) / lam * (1 + 1e-8) + 1e-12
            assert phi.space.inner(a1 - a2, w1 - w2) >= -1e-10


@pytest.mark.parametrize("name", ["quadratic", "power4", "power1.5"])
def test_envelope_sandwich_and_resolvent_identity(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(40):
        w = 3.0 * rng.standard_normal(dim)
        for lam in LAMBDAS:
            ye = phi.yosida(w, lam)
            assert phi.value(ye.point) <= ye.envelope + 1e-10
            assert ye.envelope <= phi.value(w) + 1e-10
            np.testing.assert_allclose(ye.point + lam * ye.rate, w, atol=1e-12)


@pytest.mark.parametrize("name", ["quadratic", "power4"])
def test_yosida_bounded_by_minimal_section(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(25):
        w = 2.0 * rng.standard_normal(dim)
        ms = minimal_section(phi, w, tol=1e-7)
        if not ms.converged:
            continue
        bound = phi.space.norm(ms.value)
        for lam in LAMBDAS:
            assert phi.space.norm(phi.yosida(w, lam).rate) <= bound + 1e-5


def test_prox_nonconvergence_reports():
    # fake gradient w^2 + 1 at w = 0, lam = 1: the optimality system
    # z^2 + z + 1 = 0 has no real root, so the solver must report
    from fraflow.convex import SmoothFunctional

    bad = SmoothFunctional(Space(2), lambda w: float(np.sum(w**2)), lambda w: w**2 + 1.0, None)
    with pytest.raises(ProxNonconvergence) as err:
        bad.prox(np.zeros(2), 1.0, tol=1e-14, max_iter=5)
    assert err.value.iterations == 5
    assert err.value.residual > 0


@pytest.mark.parametrize("shape", [(32,), (32, 32)])
def test_space_inner_matches_elementwise_sum(shape, rng):
    sp = Space(int(np.prod(shape)), weight=1.0 / 33 ** len(shape))
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    for x, y in ((u, v), (u, u)):
        # relative to the sum of magnitudes, the scale of rounding in any order
        scale = sp.weight * np.sum(np.abs(x * y))
        assert abs(sp.inner(x, y) - sp.weight * np.sum(x * y)) <= 1e-15 * scale


def counted_p_dirichlet(dim, m, p):
    """A p-Dirichlet energy whose value, gradient and Hessian count their calls."""
    phi = dirichlet_p_energy(Grid(dim, m), p)
    counts = {"value": 0, "grad": 0, "hess": 0}

    def counting(name, fn):
        def call(x):
            counts[name] += 1
            return fn(x)

        return call

    phi._value = counting("value", phi._value)
    phi._grad = counting("grad", phi._grad)
    phi._hess = counting("hess", phi._hess)
    return phi, counts


class TestResolventWorkBudget:
    def test_p2_is_one_newton_step(self, rng):
        # p = 2 is linear: one Hessian, the gradient at w and at the Newton
        # iterate, and no objective
        phi, counts = counted_p_dirichlet(1, 16, 2.0)
        phi.prox(rng.standard_normal(16), 0.5, tol=1e-10)
        assert counts == {"value": 0, "grad": 2, "hess": 1}

    def test_one_gradient_per_newton_iterate(self, rng):
        phi, counts = counted_p_dirichlet(1, 16, 3.0)
        phi.prox(rng.standard_normal(16), 1e-3, tol=1e-10)
        assert counts["hess"] > 1
        assert counts["grad"] == counts["hess"] + 1
        assert counts["value"] == 0

    def test_backtracking_meets_the_tolerance(self, rng):
        phi, counts = counted_p_dirichlet(1, 16, 1.5)
        w, lam = rng.standard_normal(16), 0.5
        z = phi.prox(w, lam, tol=1e-10)
        assert counts["value"] > 0  # the full Newton step failed at least once
        res = (z - w) / lam + phi.gradient(z)
        assert phi.space.norm(res) <= 1e-10 * (1.0 + phi.space.norm(w) / lam)
