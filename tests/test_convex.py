import importlib.machinery
import importlib.util
import re

import numpy as np
import pytest
from scipy.linalg import solveh_banded

import fraflow._accel
import fraflow.convex
from fraflow._accel import power_prox_abs
from fraflow.convex import (
    PowerPotential,
    ProxNonconvergence,
    Quadratic,
    Space,
    _scipy_flapack,
    _solveh_banded,
    yosida_rows,
)
from fraflow.plaplace import Grid, PDirichletEnergy


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
        np.testing.assert_allclose(Quadratic(sp).prox(w, 1.0), w / 2)

    def test_power2_is_quadratic(self, rng):
        sp = Space(5)
        w = rng.standard_normal(5)
        lam = 0.7
        np.testing.assert_allclose(PowerPotential(sp, 2).prox(w, lam), w / (1 + lam))

    def test_power4_scalar_example(self):
        # z + 0.5 z^3 = 2, and the optimality residual (w-z)/lam = z^3
        z = PowerPotential(Space(1), 4).prox(np.array([2.0]), 0.5)
        assert z[0] + 0.5 * z[0] ** 3 == pytest.approx(2.0, abs=1e-12)
        assert (2.0 - z[0]) / 0.5 == pytest.approx(z[0] ** 3, abs=1e-11)

    def test_p_dirichlet_inner_newton_residual(self, rng):
        grid = Grid(1, 8)
        phi = PDirichletEnergy(grid, 3.0)
        w = rng.standard_normal(8)
        lam = 0.3
        z = phi.prox(w, lam, tol=1e-10)
        res = (z - w) / lam + phi.gradient(z)
        assert phi.space.row_norms(res)[0] <= 1e-8


class TestYosida:
    def test_quadratic_closed_form(self):
        sp = Space(4)
        w = np.array([2.0, 0.0, -2.0, 4.0])
        rate, envelope = Quadratic(sp).yosida(w, 1.0)
        np.testing.assert_allclose(rate, w / 2)
        # phi_lam(w) = ||w||^2 / (2 (1 + lam))
        assert envelope == pytest.approx(np.sum(w**2) / 4)

    def test_envelope_monotone_toward_value(self, rng):
        for name, phi in builtins().items():
            w = rng.standard_normal(phi.space.dim)
            envs = [phi.yosida(w, lam)[1] for lam in (1.0, 0.1, 0.01)]
            val = phi.values(w)[0]
            assert envs[0] <= envs[1] <= envs[2] <= val + 1e-12, name

    @pytest.mark.parametrize("name", ["quadratic", "power4", "p-dirichlet"])
    def test_a_single_state_gets_one_envelope_per_row(self, name, rng):
        # a single state is a stack of one row: its envelope is a (1,) array
        phi = PDirichletEnergy(Grid(1, 6), 3.0) if name == "p-dirichlet" else builtins()[name]
        w = rng.standard_normal(phi.space.dim)
        rate, envelope = phi.yosida(w, 0.1)
        assert rate.shape == w.shape
        assert isinstance(envelope, np.ndarray) and envelope.shape == (1,)
        stacked_rate, stacked = phi.yosida(np.stack([w, w]), 0.1)
        assert envelope.tobytes() == stacked[:1].tobytes() and rate.tobytes() == stacked_rate[0].tobytes()

    def test_power4_scalar_consistency(self):
        phi, w = PowerPotential(Space(1), 4), np.array([2.0])
        rate, _ = phi.yosida(w, 0.5)
        # the rate equals the cubic at the prox point
        assert rate[0] == pytest.approx(phi.prox(w, 0.5)[0] ** 3, abs=1e-11)


class TestPowerRowsInOneCall:
    """A potential with one exponent per row: each row is bitwise the potential of its own q alone."""

    QS = (1.5, 2.0, 3.0, 4.0, 5.0)

    def rows(self, qs, rng):
        # per q: magnitudes up to the near-blow-up 3e4, where the convex
        # start takes (a/lam)^(1/(q-1)), down to 1e-3, where it takes a;
        # tiny ones, where the concave start at q = 1.5 underflows (at
        # lam = 1e-3, 2.6e-165 starts at TINY; at lam = 0.1, 2.7e-163; the
        # root of 1e-170 rounds to 0), with signed zeros; and a normal draw
        signs = rng.choice([-1.0, 1.0], 16)
        tiny = np.concatenate([[1e-170, -2.6e-165, 2.7e-163, -1e-160, 0.0, -0.0], rng.standard_normal(10) * 1e-8])
        per_q = {q: iter([signs * np.geomspace(1e-3, 3e4, 16), tiny, rng.standard_normal(16)]) for q in self.QS}
        return np.array([next(per_q[q]) for q in qs])

    @pytest.mark.parametrize("order", ["contiguous", "interleaved"])
    @pytest.mark.parametrize("lam", [1e-3, 0.1])
    def test_each_row_is_its_own_potential_alone(self, order, lam, rng, monkeypatch):
        space = Space(16, 0.25)
        qs = np.repeat(self.QS, 3) if order == "contiguous" else np.tile(self.QS, 3)
        w = self.rows(qs, rng)
        calls = []
        monkeypatch.setattr(fraflow.convex, "power_prox_abs", lambda *args: calls.append(args[0].shape) or power_prox_abs(*args))
        rate, env = PowerPotential(space, qs).yosida(w, lam)
        assert calls == [w.shape]  # one power prox for all rows, q = 2 rows included
        for k, q in enumerate(qs):
            alone_rate, alone_env = PowerPotential(space, q).yosida(w[k], lam)
            assert rate[k].tobytes() == alone_rate.tobytes(), (k, q)
            assert env[k].tobytes() == np.float64(alone_env).tobytes(), (k, q)

    def test_equal_exponents_make_one_exponent(self):
        phi = PowerPotential(Space(4), [3.0, 3.0])
        assert phi.q == 3.0
        with pytest.raises(ValueError, match="exceed 1"):
            PowerPotential(Space(4), [3.0, 1.0])

    def test_a_prox_takes_the_runs_the_potential_holds(self, rng, monkeypatch):
        # the exponents are grouped into runs once, when the potential is made
        phi = PowerPotential(Space(16), np.repeat([1.5, 3.0, 4.0], 5))
        calls = []
        runs = fraflow._accel.exponent_runs
        monkeypatch.setattr(fraflow._accel, "exponent_runs", lambda q: calls.append(q) or runs(q))
        w = rng.standard_normal((15, 16))
        for _ in range(10):
            phi.prox(w, 0.1)
        assert calls == []

    def test_yosida_rows_takes_one_call_per_space_and_per_other_functional(self, rng, monkeypatch):
        # plain power rows of three q share one call; a subclass row and a
        # quadratic row keep their own; each row is its functional alone
        space = Space(16)

        class Subclass(PowerPotential):
            pass

        cubic, quartic, sub, quad = PowerPotential(space, 3), PowerPotential(space, 4), Subclass(space, 1.5), Quadratic(space)
        phis = [cubic, sub, quartic, quad, PowerPotential(space, 1.5), cubic, sub]
        built = []
        original = PowerPotential.__init__
        monkeypatch.setattr(PowerPotential, "__init__", lambda self, *args: built.append(type(self)) or original(self, *args))
        yosida = yosida_rows(phis, 1e-3, 1e-10)
        w = 3.0 * rng.standard_normal((6, 16))
        ids = np.array([0, 1, 2, 3, 4, 6])
        calls = []
        monkeypatch.setattr(fraflow.convex, "power_prox_abs", lambda *args: calls.append(len(args[0])) or power_prox_abs(*args))
        for _ in range(2):
            rate, env = yosida(w, ids)
        assert built == [PowerPotential]  # built once for these ids
        assert sorted(calls) == [2, 2, 3, 3]  # per call: the two subclass rows, the three plain ones
        for k, i in enumerate(ids):
            alone_rate, alone_env = phis[i].yosida(w[k], 1e-3, tol=1e-10)
            assert rate[k].tobytes() == alone_rate.tobytes()
            assert env[k] == alone_env
        yosida(w[:2], ids[:2])
        assert built == [PowerPotential] * 2

    def test_yosida_rows_without_a_phi2_is_the_zero_map(self, rng):
        # rates shaped as w, one envelope per row, as any phi2 gives them
        yosida = yosida_rows([None] * 3, 1e-3, 1e-10)
        for w in (rng.standard_normal((3, 16)), rng.standard_normal((1, 4, 4))):
            rate, env = yosida(w, np.arange(len(w)))
            assert rate.shape == w.shape and env.shape == (len(w),)
            assert not rate.any() and not env.any()


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
            d_in = phi.space.row_norms(w1 - w2)[0]
            d_out = phi.space.row_norms(phi.prox(w1, lam) - phi.prox(w2, lam))[0]
            assert d_out <= d_in * (1 + 1e-8) + 1e-12


@pytest.mark.parametrize("name", ["quadratic", "power4", "power1.5"])
def test_yosida_lipschitz_and_monotone(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(40):
        w1 = 3.0 * rng.standard_normal(dim)
        w2 = 3.0 * rng.standard_normal(dim)
        for lam in LAMBDAS:
            a1 = phi.yosida(w1, lam)[0]
            a2 = phi.yosida(w2, lam)[0]
            assert phi.space.row_norms(a1 - a2)[0] <= phi.space.row_norms(w1 - w2)[0] / lam * (1 + 1e-8) + 1e-12
            assert phi.space.row_inner(a1 - a2, w1 - w2)[0] >= -1e-10


@pytest.mark.parametrize("name", ["quadratic", "power4", "power1.5"])
def test_envelope_sandwich_and_resolvent_identity(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(40):
        w = 3.0 * rng.standard_normal(dim)
        for lam in LAMBDAS:
            rate, envelope = phi.yosida(w, lam)
            point = phi.prox(w, lam)
            assert phi.values(point)[0] <= envelope + 1e-10
            assert envelope <= phi.values(w)[0] + 1e-10
            np.testing.assert_allclose(point + lam * rate, w, atol=1e-12)


@pytest.mark.parametrize("name", ["quadratic", "power4"])
def test_yosida_bounded_by_minimal_section(name, rng):
    phi = builtins()[name]
    dim = phi.space.dim
    for _ in range(25):
        w = 2.0 * rng.standard_normal(dim)
        # both are smooth: the minimal section is the gradient, in closed form
        section = w if name == "quadratic" else np.abs(w) ** 2 * w
        bound = phi.space.row_norms(section)[0]
        for lam in LAMBDAS:
            assert phi.space.row_norms(phi.yosida(w, lam)[0])[0] <= bound + 1e-5


def test_prox_nonconvergence_reports(monkeypatch):
    # fake gradient w^2 + 1 at w = 0, lam = 1: the optimality system
    # z^2 + z + 1 = 0 has no real root, so the solver must report
    from fraflow.convex import SmoothFunctional

    monkeypatch.setattr(fraflow.convex, "PROX_MAX_ITER", 5)

    def hess(rows):
        # the banded derivative of the fake gradient: 2w on the diagonal
        return np.stack([2.0 * rows.ravel(), np.zeros(rows.size)])

    bad = SmoothFunctional(Space(2), lambda w: float(np.sum(w**2)), lambda w: w**2 + 1.0, hess)
    with pytest.raises(ProxNonconvergence) as err:
        bad.prox(np.zeros(2), 1.0, tol=1e-14)
    assert err.value.iterations == 5
    assert err.value.residual > 0


@pytest.mark.parametrize("band", [2, 3], ids=["ptsv", "pbsv"])
def test_a_row_whose_hessian_does_not_factor_takes_gradient_steps(band):
    # phi = |z|^2 / 2 with a Hessian band that is indefinite in the rows
    # whose first entry is negative: those rows take gradient steps, the
    # others Newton steps, each as when solved alone.  Two such rows stay a
    # stack of rows once the others have met the tolerance
    from fraflow.convex import SmoothFunctional

    def hess(rows):
        ab = np.zeros((band, rows.size))
        ab[0] = np.repeat(np.where(rows[:, 0] < 0, -10.0, 1.0), rows.shape[1])
        return ab

    phi = SmoothFunctional(Space(4), lambda rows: 0.5 * np.sum(rows**2, axis=1), lambda rows: rows, hess)
    w, lam = np.array([[1.0, 2.0, 3.0, 4.0], [-1.0, 2.0, 3.0, 4.0], [0.5, -0.5, 0.5, 0.5], [-0.5, 0.5, 0.5, 0.5]]), 0.25
    z = phi.prox(w, lam)
    assert np.array_equal(z, np.concatenate([phi.prox(row, lam)[None] for row in w]))
    np.testing.assert_allclose(z, w / (1 + lam), rtol=1e-9)


@pytest.mark.parametrize("weight", [1.0, 0.37])
@pytest.mark.parametrize("x", [0.0, -0.0, 5e-324, -1e-310, 1e-170, -1e155, 1.3, -1.3])
def test_quadratic_of_a_float_is_bitwise_the_one_element_array(x, weight):
    # a float takes the array arithmetic of the resolvent
    phi = Quadratic(Space(1, weight=weight))
    for w in (x, np.float64(x)):
        for lam in (0.0272, 2.5):
            z = phi.prox(w, lam)
            assert isinstance(z, float) and np.float64(z).tobytes() == phi.prox(np.array([x]), lam).tobytes()


@pytest.mark.parametrize("shape", [(32,), (32, 32)])
def test_space_inner_matches_elementwise_sum(shape, rng):
    sp = Space(int(np.prod(shape)), weight=1.0 / 33 ** len(shape))
    u, v = rng.standard_normal(shape), rng.standard_normal(shape)
    for x, y in ((u, v), (u, u)):
        # relative to the sum of magnitudes, the scale of rounding in any order
        scale = sp.weight * np.sum(np.abs(x * y))
        assert abs(sp.row_inner(x, y)[0] - sp.weight * np.sum(x * y)) <= 1e-15 * scale


def counted_p_dirichlet(dim, m, p):
    """A p-Dirichlet energy whose value, gradient and Hessian count their calls."""
    phi = PDirichletEnergy(Grid(dim, m), p)
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
        # p = 2 is linear: the Newton route takes one Hessian, the gradient
        # at w and at the Newton iterate, and no objective
        phi, counts = counted_p_dirichlet(1, 16, 2.0)
        phi._newton(rng.standard_normal(16), 0.5, tol=1e-10)
        assert counts == {"value": 0, "grad": 2, "hess": 1}

    def test_p2_is_one_band_solve(self, rng):
        # the resolvent at p = 2 assembles A once, as the Hessian at zero,
        # and takes no gradient and no value, whatever the lam
        phi, counts = counted_p_dirichlet(1, 16, 2.0)
        for lam in (0.5, 0.5, 0.25, 0.5):
            phi.prox(rng.standard_normal((3, 16)), lam, start=rng.standard_normal((3, 16)))
        assert counts == {"value": 0, "grad": 0, "hess": 1}

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
        assert phi.space.row_norms(res)[0] <= 1e-10 * (1.0 + phi.space.row_norms(w)[0] / lam)


class TestLinearResolvent:
    """At p = 2 the p-Dirichlet resolvent is one band solve, factored once
    per lam; the damped Newton resolvent is its reference."""

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 16)])
    @pytest.mark.parametrize("lam", [1e-3, 0.1, 3.0])
    def test_agrees_with_the_newton_resolvent(self, dim, m, lam, rng):
        phi = PDirichletEnergy(Grid(dim, m), 2.0)
        w = 3.0 * rng.standard_normal((5, m**dim))
        z, reference = phi.prox(w, lam), phi._newton(w, lam)
        assert np.max(np.abs(z - reference)) <= 1e-12 * np.max(np.abs(reference))

    # 2D at m = 16 and 20: stacks of right-hand sides on pbtrs, 1D on pttrs
    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 16), (2, 20)])
    def test_a_stack_is_bitwise_each_row_alone(self, dim, m, rng):
        phi, lam = PDirichletEnergy(Grid(dim, m), 2.0), 0.05
        w = rng.standard_normal((7, m**dim))
        z = phi.prox(w, lam)
        assert z.shape == w.shape
        assert z.tobytes() == np.concatenate([phi.prox(row, lam)[None] for row in w]).tobytes()
        one = phi.prox(w[0], lam)
        assert one.shape == w[0].shape and one.tobytes() == z[0].tobytes()

    @pytest.mark.parametrize("dim, routine", [(1, "dpttrf"), (2, "dpbtrf")])
    def test_factors_once_per_lam(self, dim, routine, monkeypatch, rng):
        calls = []
        factor = getattr(fraflow.convex._FLAPACK, routine)
        monkeypatch.setattr(fraflow.convex._FLAPACK, routine, lambda *args, **kwargs: calls.append(1) or factor(*args, **kwargs))
        phi = PDirichletEnergy(Grid(dim, 8), 2.0)
        for lam in (0.1, 0.1, 0.1, 0.2, 0.2, 0.1):
            phi.prox(rng.standard_normal((2, 8**dim)), lam)
        assert len(calls) == 3

    def test_a_non_finite_target_raises_value_error(self):
        phi = PDirichletEnergy(Grid(1, 8), 2.0)
        with pytest.raises(ValueError, match="infs or NaNs"):
            phi.prox(np.full(8, np.nan), 0.1)


class TestDirectBandedSolve:
    """The Newton steps call LAPACK directly: the reference is scipy's wrapper."""

    @staticmethod
    def stacked_system(dim, m, rows, rng, lam=1e-2):
        # the band the prox factors: the p-Dirichlet H-Hessians of a stack of
        # states plus 1/lam on the diagonal, and a right-hand side
        phi = PDirichletEnergy(Grid(dim, m), 3.0)
        ab = phi._hess(rng.standard_normal((rows, m**dim)))
        ab[0] += 1.0 / lam
        return ab, rng.standard_normal(rows * m**dim)

    # also the benchmark's shapes: the single-row m = 20 band of plaplace-2d
    # (pbsv) and a 6-row m = 32 stack, one regime-sweep group (ptsv)
    @pytest.mark.parametrize(
        "dim, m, rows",
        [(1, 32, 3), (2, 8, 3), (2, 20, 1), (1, 32, 6)],
        ids=["1-32", "2-8", "2-20", "1-32-6rows"],
    )
    def test_bitwise_equal_to_solveh_banded(self, dim, m, rows, rng):
        ab, b = self.stacked_system(dim, m, rows, rng)
        assert len(ab) == (2 if dim == 1 else m + 1)  # ptsv in 1D, pbsv in 2D
        reference = solveh_banded(ab, b, lower=True)
        got = _solveh_banded(ab, b)
        assert got.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 8)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["ab", "b"])
    def test_non_finite_entry_raises_value_error(self, dim, m, bad, where, rng):
        ab, b = self.stacked_system(dim, m, 2, rng)
        (ab if where == "ab" else b).flat[5] = bad
        with pytest.raises(ValueError):
            solveh_banded(ab, b, lower=True)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _solveh_banded(ab, b)

    def test_missing_extension_names_the_path(self, tmp_path, monkeypatch):
        # a scipy package directory without linalg/_flapack
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, origin=str(tmp_path / "__init__.py"))
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy_spec)
        with pytest.raises(ImportError, match=re.escape(f"_flapack not found in {tmp_path / 'linalg'}")):
            _scipy_flapack()

    @pytest.mark.parametrize("dim, m", [(1, 32), (2, 8)])
    def test_indefinite_band_raises_lin_alg_error(self, dim, m, rng):
        ab, b = self.stacked_system(dim, m, 2, rng)
        ab[0, 7] = -1.0
        with pytest.raises(np.linalg.LinAlgError) as reference:
            solveh_banded(ab, b, lower=True)
        with pytest.raises(np.linalg.LinAlgError) as got:
            _solveh_banded(ab, b)
        assert str(got.value) == str(reference.value)
