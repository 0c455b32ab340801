import functools
import hashlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import fraflow.plaplace
import fraflow.solver
from fraflow.certify import check_chain_rule, mittag_leffler
from fraflow.cli import _build_experiment, load_config
from fraflow.convex import SmoothFunctional
from fraflow.kernels import TimeGrid, rl_pair
from fraflow.plaplace import (
    FLUX_EPS,
    ExperimentSpec,
    Grid,
    PDirichletEnergy,
    classify_regime,
    discrete_p_laplacian,
    initial_profile,
    run_experiment,
    run_experiments,
)
from fraflow.convex import PowerPotential, ProxNonconvergence
from fraflow.solver import ProblemSpec, SolverConfig, solve_dc_flow, solve_dc_rows


def dense_hessian_reference(grid, u, p, eps=FLUX_EPS):
    """H-Hessian sum_axes B_a^T diag(w_a) B_a / h^2 from dense Kronecker
    face-difference operators (zero Dirichlet ghosts, ij node ordering)."""
    m = grid.m
    b = np.eye(m + 1, m) - np.eye(m + 1, m, k=-1)  # faces x nodes
    if grid.dim == 1:
        ops = [b]
    else:
        ops = [np.kron(b, np.eye(m)), np.kron(np.eye(m), b)]
    hess = np.zeros((grid.npoints, grid.npoints))
    for op in ops:
        g = op @ u / grid.h
        w = (g * g + eps**2) ** ((p - 2.0) / 2.0) * (1.0 + (p - 2.0) * g * g / (g * g + eps**2))
        hess += (op.T * w) @ op
    return hess / grid.h**2


def banded_to_dense(ab):
    """Expand symmetric lower banded storage, ab[k, i] = H[i + k, i]."""
    n = ab.shape[1]
    lower = sum(np.diag(ab[k, : n - k], -k) for k in range(ab.shape[0]))
    return lower + np.tril(lower, -1).T


class TestGrid:
    def test_spacing_and_weight(self):
        g = Grid(1, 3)
        assert g.h == 0.25
        assert g.space.weight == 0.25
        g2 = Grid(2, 3)
        assert g2.npoints == 9
        assert g2.space.weight == pytest.approx(0.0625)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            Grid(3, 4)
        with pytest.raises(ValueError):
            Grid(1, 1)


class TestDiscretePLaplacian:
    def test_zero_state(self):
        g = Grid(1, 8)
        np.testing.assert_array_equal(discrete_p_laplacian(g, np.zeros(8), 3.0), 0.0)

    def test_p2_eigenfunction(self):
        # -Delta sin(pi x) = pi^2 sin(pi x) + O(h^2)
        g = Grid(1, 64)
        x = g.coords()[0]
        u = np.sin(np.pi * x)
        lap = discrete_p_laplacian(g, u, 2.0)
        rel = np.max(np.abs(-lap - np.pi**2 * u)) / np.pi**2
        assert rel <= 2.5 * g.h**2 / 2

    @pytest.mark.parametrize("dim,m", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_gradient_consistency(self, dim, m, p, rng):
        # -Delta_p is the H-gradient of the energy: central-difference check
        grid = Grid(dim, m)
        phi = PDirichletEnergy(grid, p)
        u = rng.uniform(-1.0, 1.0, grid.npoints)
        analytic = grid.h**dim * (-discrete_p_laplacian(grid, u, p))  # Euclidean gradient
        step = 1e-6
        fd = np.zeros_like(u)
        for i in range(u.size):
            e = np.zeros_like(u)
            e[i] = step
            fd[i] = (phi.values(u + e)[0] - phi.values(u - e)[0]) / (2 * step)
        rel = np.linalg.norm(fd - analytic) / np.linalg.norm(analytic)
        assert rel <= 1e-6

    @pytest.mark.parametrize("dim,m", [(1, 16), (2, 8)])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_hessian_consistency(self, dim, m, p, rng):
        grid = Grid(dim, m)
        phi = PDirichletEnergy(grid, p)
        u = rng.uniform(-1.0, 1.0, grid.npoints)
        hess = banded_to_dense(phi._hess(u))
        np.testing.assert_allclose(hess, dense_hessian_reference(grid, u, p), rtol=1e-13, atol=0.0)
        # H v is the directional derivative of the H-gradient
        v = rng.standard_normal(grid.npoints)
        step = 1e-6
        fd = (phi.gradient(u + step * v) - phi.gradient(u - step * v)) / (2 * step)
        rel = np.linalg.norm(fd - hess @ v) / np.linalg.norm(hess @ v)
        assert rel <= 1e-6

    def test_energy_gradient_and_hessian_read_one_eps(self, monkeypatch, rng):
        # a FLUX_EPS set at run time reaches all three maps: with three
        # zero-gradient faces, where eps sets the flux slope eps^(p-2), a
        # gradient at eps = 1e-12 is off from H v by a relative 40 here
        monkeypatch.setattr(fraflow.plaplace, "FLUX_EPS", 1e-2)
        grid, p = Grid(1, 8), 1.5
        phi = PDirichletEnergy(grid, p)
        u = np.array([0.3, 0.3, 0.5, 0.5, 0.9, 0.9, 0.2, 0.1])
        hess = banded_to_dense(phi._hess(u))
        v = rng.standard_normal(grid.npoints)
        step = 1e-6
        fd = (phi.gradient(u + step * v) - phi.gradient(u - step * v)) / (2 * step)
        assert np.linalg.norm(fd - hess @ v) / np.linalg.norm(hess @ v) <= 1e-6
        # the H-gradient is the derivative of the energy at that eps too
        slope = (phi.values(u + step * v)[0] - phi.values(u - step * v)[0]) / (2 * step)
        assert slope == pytest.approx(grid.space.row_inner(phi.gradient(u), v)[0], rel=1e-6)

    def test_flux_regularization_insensitivity(self, rng):
        # eps enters only through (g^2 + eps^2)^{(p-2)/2}: results for
        # p < 2 must be stable under eps -> 100 eps at nonzero gradients
        g = Grid(1, 8)
        u = rng.uniform(0.5, 1.0, 8)
        a = discrete_p_laplacian(g, u, 1.5, eps=1e-12)
        b = discrete_p_laplacian(g, u, 1.5, eps=1e-10)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


class TestEnergies:
    def test_zero_states(self):
        g = Grid(1, 4)
        assert PDirichletEnergy(g, 3.0).values(np.zeros(4))[0] == pytest.approx(0.0, abs=1e-15)
        assert PowerPotential(g.space, 4.0).values(np.zeros(4))[0] == pytest.approx(0.0)

    def test_dirichlet_energy_fixture(self):
        # hand evaluation, frozen: m=2, h=1/3, w=(1,1), p=2; faces carry
        # gradients (3, 0, -3), so phi1 = (h/p) * (9 + 0 + 9) = 3
        g = Grid(1, 2)
        assert PDirichletEnergy(g, 2.0).values(np.ones(2))[0] == pytest.approx(3.0, rel=1e-12)

    def test_q2_potential_is_quadratic_norm(self, rng):
        g = Grid(1, 8)
        w = rng.standard_normal(8)
        phi2 = PowerPotential(g.space, 2.0)
        assert phi2.values(w)[0] == pytest.approx(0.5 * g.space.row_inner(w, w)[0])

    @pytest.mark.parametrize("dim,m", [(1, 8), (2, 6)])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_p_dirichlet_prox_residual(self, dim, m, p, rng):
        g = Grid(dim, m)
        phi = PDirichletEnergy(g, p)
        w = rng.standard_normal(g.npoints)
        z = phi.prox(w, 0.5, tol=1e-10)
        res = (z - w) / 0.5 + phi.gradient(z)
        assert phi.space.row_norms(res)[0] <= 1e-8


# hand-computed classification fixture over (p, q, d); for d = 1 every
# p > 1 exceeds 2d/(d+2) = 2/3 and p* = infinity, for d = 3 the threshold
# is 6/5 and p* = 3p/(3-p) when p < 3
REGIME_FIXTURE = [
    (1.5, 1.5, 1, "local_existence"),  # p = q
    (1.5, 2.0, 1, "small_data_global"),  # p < q < inf
    (2.0, 1.5, 1, "global"),  # p > q
    (3.0, 6.0, 1, "small_data_global"),
    (2.0, 2.0, 1, "local_existence"),
    (1.5, 6.0, 1, "small_data_global"),
    (1.5, 2.0, 3, "small_data_global"),  # p* = 3, q = 2 < 3
    (1.5, 4.0, 3, "outside_theory"),  # q = 4 > p* = 3
    (2.0, 6.0, 3, "small_data_global_critical"),  # q = p* = 6
    (2.0, 4.0, 3, "small_data_global"),
    (3.0, 2.0, 3, "global"),  # (d - p)+ = 0
    (3.0, 1.5, 3, "global"),
]


class TestClassifyRegime:
    @pytest.mark.parametrize("p,q,d,verdict", REGIME_FIXTURE)
    def test_fixture_table(self, p, q, d, verdict):
        assert classify_regime(p, q, d).verdict == verdict

    def test_exponent_values(self):
        r = classify_regime(2, 4, 3)
        assert r.p_star == 6
        assert r.two_star == 6
        assert r.r_cz == 6
        r2 = classify_regime(3, 2, 3)
        assert r2.p_star is None  # (d-p)+ = 0 -> +infinity

    def test_theta_balance_example(self):
        # d=3, p=2, q=5: theta = 1/8 from the interpolation balance
        r = classify_regime(2, 5, 3)
        assert r.theta == Fraction(1, 8)
        assert r.theta_ratio == Fraction(1, 2)

    def test_theta_equivalence_exact_scan(self):
        # theta (q-1)/(p-1) < 1 iff q < p*, checked in exact rational
        # arithmetic over the admissible region (>= 200 triples)
        checked = 0
        for d in (3, 4, 5):
            dd = Fraction(d)
            low = 2 * dd / (dd + 2)
            for pnum in range(1, 30):
                p = low + Fraction(pnum, 31) * (dd - low)
                if p <= 1:
                    continue
                p_star = dd * p / (dd - p)
                # q spanning both sides of p* inside the active window
                for qk in range(1, 9):
                    q = p_star / 2 + 1 + Fraction(qk, 8) * (p_star - p_star / 2 - 1) * Fraction(12, 10)
                    if q <= max(p, 1):
                        continue
                    rep = classify_regime(p, q, dd)
                    if rep.theta is None:
                        continue
                    checked += 1
                    assert (rep.theta_ratio < 1) == (q < p_star), (p, q, d)
        assert checked >= 200

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 2.0, 3)


class TestProfiles:
    def test_zero_profile(self):
        g = Grid(1, 8)
        np.testing.assert_array_equal(initial_profile(g, "zero", 5.0), 0.0)

    def test_sine_amplitude(self):
        g = Grid(1, 15)
        u = initial_profile(g, "sine", 2.0)
        assert np.max(u) == pytest.approx(2.0, rel=1e-2)

    def test_plateau_flat_top(self):
        g = Grid(1, 31)
        u = initial_profile(g, "plateau", 1.5)
        assert np.max(u) == pytest.approx(1.5)
        assert np.sum(u == 1.5) > 5  # genuinely flat in the middle

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            initial_profile(Grid(1, 4), "bump", 1.0)


class TestExperiments:
    def test_zero_data_stays_zero(self):
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 8), amplitude=0.0, u0_profile="zero", steps=32)
        res = run_experiment(spec)
        assert res.verdict == "completed"
        np.testing.assert_array_equal(res.trajectory.states, 0.0)

    def test_blowup_and_monotonicity(self):
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 16), steps=128)
        blown = run_experiment(spec.with_amplitude(8.0))
        assert blown.verdict == "blew_up"
        assert blown.t_star is not None
        later = run_experiment(spec.with_amplitude(16.0))
        assert later.verdict == "blew_up"
        assert later.t_star <= blown.t_star + 1e-12  # doubled amplitude blows no later

    def test_small_amplitude_completes(self):
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 16), steps=128)
        res = run_experiment(spec.with_amplitude(0.5))
        assert res.verdict == "completed"
        assert res.energy_ratio is not None

    def test_experiment_row(self):
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 8), amplitude=0.25, steps=32)
        row = run_experiment(spec).to_row()
        assert row["verdict"] == "completed"
        assert row["m"] == 8
        assert row["t_star"] == ""


# the largest error of the sine-mode coefficient against E_alpha(-lam1^h t^alpha)
# at 33 nodes (alpha = 0.5, T = 1, amplitude 1), measured at N = 128, 512,
# 2048: 1D at m = 16, 2D at m = 8.  The bounds add 25%
SINE_MODE_ERRORS = {1: (1.935e-2, 4.056e-3, 9.49e-4), 2: (1.241e-2, 2.544e-3, 5.98e-4)}


@functools.cache
def sine_mode_solution(grid):
    """E_0.5(-lam1^h t^0.5) at the nodes t = k/32: the coefficient of the
    sine mode, which is an eigenvector of the discrete Dirichlet Laplacian
    (the p = 2 H-gradient, exactly) with eigenvalue lam1^h."""
    lam1 = grid.dim * 4.0 / grid.h**2 * np.sin(np.pi * grid.h / 2.0) ** 2
    return np.array([1.0] + [mittag_leffler(0.5, -lam1 * (k / 32) ** 0.5) for k in range(1, 33)])


def sine_mode_errors(grid, steps, amplitudes):
    """Per unit amplitude, the largest error of the sine-mode coefficient
    against its exact solution at the nodes t = k/32, and the largest part
    of the states off the mode, for each row of a batch through the
    stepped path (a batch of one through ``solve_dc_flow``)."""
    exact = sine_mode_solution(grid)
    mode = initial_profile(grid, "sine", 1.0)
    phi1, pair, time_grid = PDirichletEnergy(grid, 2.0), rl_pair(0.5), TimeGrid(1.0, steps)
    specs = [ProblemSpec(phi1, None, pair, a * mode, None, time_grid) for a in amplitudes]
    trajs = [solve_dc_flow(specs[0])] if len(specs) == 1 else solve_dc_rows(specs)
    out = []
    for a, traj in zip(amplitudes, trajs):
        states = traj.states[:: steps // 32]
        coeff = states @ mode / (mode @ mode)
        out.append((np.max(np.abs(coeff / a - exact)), np.max(np.abs(states - coeff[:, None] * mode)) / a))
    return out


@pytest.mark.parametrize("dim, m", [(1, 16), (2, 8)])
def test_the_p2_sine_mode_follows_its_mittag_leffler_solution(dim, m, take_the_newton_route):
    # p = 2 without a phi2 through the stepped path: the error falls at
    # first order, the states stay on the mode, a batch of amplitudes has
    # one error per unit amplitude, and the band solve's errors are those
    # of the Newton resolvent
    grid, errors = Grid(dim, m), []
    for steps, measured in zip((128, 512, 2048), SINE_MODE_ERRORS[dim]):
        ((error, off_mode),) = sine_mode_errors(grid, steps, (1.0,))
        assert error <= 1.25 * measured
        assert off_mode <= 1e-14
        errors.append(error)
    # measured: 1.05 (1D) and 1.04 (2D)
    assert np.log(errors[1] / errors[2]) / np.log(4.0) >= 0.9
    for error, off_mode in sine_mode_errors(grid, 512, (1.0, 0.5, 3.0)):
        assert error == pytest.approx(errors[1], rel=1e-9)
        assert off_mode <= 1e-14
    take_the_newton_route()
    for steps, error in zip((128, 512, 2048), errors):
        ((reference, _),) = sine_mode_errors(grid, steps, (1.0,))
        assert error == pytest.approx(reference, rel=1e-12)


class TestTheP2BandSolve:
    """At p = 2 the resolvent is one band solve; the damped Newton
    resolvent, started as the stepper starts it (the Newton route), is its
    reference."""

    # the benchmark's sweep (m = 32, N = 512), and the regime-diagram preset
    BENCHMARK_SWEEP = {
        "mode": "sweep",
        "problem": {"kind": "p-laplace", "p": 2.0, "dim": 1, "m": 32, "u0_profile": "sine"},
        "kernel": {"alpha": 0.5},
        "grid": {"horizon": 1.0, "steps": 512},
        "sweep": {"qs": [3.0, 4.0, 5.0], "amplitudes": [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]},
    }

    @pytest.mark.parametrize("sweep", ["benchmark", "regime-diagram"])
    def test_sweep_rows_are_the_newton_rows(self, sweep, take_the_newton_route):
        # every verdict and t_star identical, completed states within 1e-12
        config = self.BENCHMARK_SWEEP if sweep == "benchmark" else load_config(preset=sweep)
        base = _build_experiment(config)
        assert base.p == 2.0
        specs = [replace(base, q=q, amplitude=a) for q in config["sweep"]["qs"] for a in config["sweep"]["amplitudes"]]
        got = run_experiments(specs, keep_trajectory=True)
        take_the_newton_route()
        reference = run_experiments(specs, keep_trajectory=True)
        assert {r.verdict for r in reference} == {"completed", "blew_up"}
        for g, r in zip(got, reference):
            assert (g.verdict, g.t_star, g.e_t) == (r.verdict, r.t_star, r.e_t)
            if r.verdict == "completed":
                states = r.trajectory.states
                assert np.max(np.abs(g.trajectory.states - states)) <= 1e-12 * np.max(np.abs(states))
                assert g.final_norm == pytest.approx(r.final_norm, rel=1e-12)
                assert g.sup_energy1 == pytest.approx(r.sup_energy1, rel=1e-12)


class TestBatchedExperiments:
    """run_experiments solves the rows (q, amplitude) of one alpha as one batch."""

    def test_mixed_group_matches_single_runs(self):
        # m = 15: the rows of the batch hold no multiple of 4 values, where
        # a BLAS product over several rows at once would change the sums
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 15), steps=96)
        amplitudes = [0.5, 2.0, 8.0, 1.0, 16.0]
        batch = run_experiments([spec.with_amplitude(a) for a in amplitudes])
        alone = [run_experiment(spec.with_amplitude(a)) for a in amplitudes]
        assert [r.verdict for r in alone] == ["completed", "completed", "blew_up", "completed", "blew_up"]
        assert [r.to_row() for r in batch] == [r.to_row() for r in alone]

    def test_a_stalled_2d_row_never_ends_its_neighbour(self):
        # p = 1.5 in 2D: A = 8 stalls at a bounded state (a ProxNonconvergence
        # row), A = 1 completes bitwise as it does alone
        spec = ExperimentSpec(p=1.5, q=8.0, alpha=0.5, grid=Grid(2, 16), steps=128)
        done, stalled = run_experiments([spec.with_amplitude(1.0), spec.with_amplitude(8.0)], keep_trajectory=True)
        alone = run_experiment(spec.with_amplitude(1.0))
        assert done.verdict == alone.verdict == "completed"
        assert np.array_equal(done.trajectory.states, alone.trajectory.states)
        assert done.sup_energy1 == alone.sup_energy1
        assert done.e_t == alone.e_t
        assert isinstance(stalled, ProxNonconvergence)
        with pytest.raises(ProxNonconvergence) as err:
            run_experiment(spec.with_amplitude(8.0))
        assert str(err.value) == str(stalled)

    def test_a_2d_row_at_the_rounding_floor_keeps_its_single_run_outcome(self):
        # p = 1.5, q = 8 in 2D: A = 2 blows up alone, with its resolvent near
        # the rounding floor of its residual, so the last bits of each Newton
        # step decide.  A stacked pbsv solve of the batch {2, 4} moved them
        # and made A = 2 a ProxNonconvergence row
        spec = ExperimentSpec(p=1.5, q=8.0, alpha=0.5, grid=Grid(2, 16), steps=128)
        batch = run_experiments([spec.with_amplitude(2.0), spec.with_amplitude(4.0)])
        alone = [run_experiment(spec.with_amplitude(a)) for a in (2.0, 4.0)]
        assert [(r.verdict, r.t_star) for r in alone] == [("blew_up", 0.03125), ("blew_up", 0.0234375)]
        assert [r.to_row() for r in batch] == [r.to_row() for r in alone]

    def test_rows_differ_in_q_and_amplitude_only(self):
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 8), steps=16)
        with pytest.raises(ValueError, match="q and amplitude only"):
            run_experiments([spec, ExperimentSpec(p=3.0, q=5.0, alpha=0.5, grid=Grid(1, 8), steps=16)])

    def test_a_mixed_q_batch_matches_single_runs(self):
        # the rows of two exponents interleaved: each row is its single
        # run, with the regime of its own q
        keys = [(3.0, 0.5), (4.0, 8.0), (3.0, 16.0), (4.0, 1.0), (3.0, 2.0), (4.0, 16.0)]
        specs = [ExperimentSpec(p=2.0, q=q, alpha=0.5, grid=Grid(1, 15), steps=96, amplitude=a) for q, a in keys]
        batch = run_experiments(specs)
        alone = [run_experiment(s) for s in specs]
        assert {(r.spec.q, r.verdict) for r in alone} == {(3.0, "completed"), (3.0, "blew_up"), (4.0, "completed"), (4.0, "blew_up")}
        assert [r.to_row() for r in batch] == [r.to_row() for r in alone]
        assert [r.final_norm for r in batch] == [r.final_norm for r in alone]
        assert [r.regime for r in batch] == [classify_regime(2.0, q, 1) for q, _ in keys]


class TestLeanRows:
    """A sweep drops the trajectories: its rows store no path but the history input, and no residuals."""

    # m = 15, N = 96: A = 0.5, 2, 1 complete, A = 8, 16 blow up
    SPEC = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 15), steps=96)
    AMPLITUDES = [0.5, 2.0, 8.0, 1.0, 16.0]

    def specs(self):
        return [self.SPEC.with_amplitude(a) for a in self.AMPLITUDES]

    def test_lean_rows_are_the_kept_rows(self, monkeypatch):
        solved = []
        solve_dc_rows = fraflow.solver.solve_dc_rows

        def recording(*args):
            # the lean solve's outcomes, trajectories included
            outcomes = list(solve_dc_rows(*args))
            solved.append(outcomes)
            return iter(outcomes)

        monkeypatch.setattr(fraflow.plaplace, "solve_dc_rows", recording)
        lean = run_experiments(self.specs())
        kept = run_experiments(self.specs(), keep_trajectory=True)
        assert [r.verdict for r in lean] == ["completed", "completed", "blew_up", "completed", "blew_up"]
        assert [r.to_row() for r in lean] == [r.to_row() for r in kept]
        assert [r.final_norm for r in lean] == [r.final_norm for r in kept]
        assert all(r.trajectory is None for r in lean)
        for got, full in zip(solved[0], solved[1]):
            if full.reason is None:
                assert got.states is got.xi is got.eta is got.residuals is None
                for name in ("energy1", "envelope2", "norms"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(full, name))
                assert got.e_t == full.e_t
            else:
                assert (got.node, got.t_star, got.reason, got.e_t) == (full.node, full.t_star, full.reason, full.e_t)
                np.testing.assert_array_equal(got.norms, full.norms)
                np.testing.assert_array_equal(got.energy1, full.energy1)

    def test_kept_trajectories_are_unchanged(self, take_the_newton_route, take_the_cold_route):
        digests = []
        for route in ("default", "newton", "cold"):
            if route == "newton":
                take_the_newton_route()
            if route == "cold":
                take_the_cold_route()
            kept = run_experiments(self.specs(), keep_trajectory=True)
            digest = hashlib.sha256()
            for result, amplitude in zip(kept, self.AMPLITUDES):
                if result.verdict != "completed":
                    continue
                traj = result.trajectory
                alone = run_experiment(self.SPEC.with_amplitude(amplitude)).trajectory
                for name in ("states", "xi", "eta", "residuals"):
                    np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name))
                    digest.update(np.ascontiguousarray(getattr(traj, name)).tobytes())
                assert np.max(traj.residuals) <= 1e-10
            digests.append(digest.hexdigest())
        # the p = 2 resolvent is one band solve; the Newton route keeps the
        # bytes pinned before it, and the cold route the bytes the solver
        # wrote when every row stored its xi/eta path
        assert digests == [
            "f3256794bbb4b7147e25bbccf33cd4c138544deebecf83d08555cfedb8d209a7",
            "3fcc3a0a153eff8e3d972be58938e33211976758fa954e539a33ef3f4db108a0",
            "0232f9cf8b6da2c843b7c1616f729cb1c228c133dc0ae97e8b13d5e7fc37d27b",
        ]

    def test_a_six_amplitude_sweep_group_is_one_batch(self, monkeypatch):
        # the regime-sweep benchmark's group size: m = 32, N = 512
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 32), steps=512)
        specs = [spec.with_amplitude(a) for a in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
        batches = []
        solve_loop = fraflow.solver._solve_loop

        def counting(*args):
            batches.append(len(args[3]))
            return solve_loop(*args)

        monkeypatch.setattr(fraflow.solver, "_solve_loop", counting)
        results = run_experiments(specs)
        assert batches == [6]
        assert [r.verdict for r in results] == ["completed"] * 3 + ["blew_up"] * 3

        def skipping(*args):
            # kept rows hold twice the bytes: count the chunks, solve none
            batches.append(len(args[3]))
            return [ValueError("not solved")] * len(args[3])

        batches.clear()
        monkeypatch.setattr(fraflow.solver, "_solve_loop", skipping)
        run_experiments(specs, keep_trajectory=True)
        assert batches == [3, 3]


def counted_newton_work(monkeypatch):
    """Count the gradients and Hessians of every p-Dirichlet energy built after the call."""
    counts = {"grad": 0, "hess": 0}
    for name, method in (("grad", "_grad_h"), ("hess", "_hess_h")):
        fn = getattr(PDirichletEnergy, method)

        def counted(self, u, fn=fn, name=name):
            counts[name] += 1
            return fn(self, u)

        monkeypatch.setattr(PDirichletEnergy, method, counted)
    return counts


def outcome_of(spec):
    # run_experiment's result, or the exception it raises
    try:
        return run_experiment(spec)
    except ProxNonconvergence as exc:
        return exc


class TestWarmStart:
    """The p-Laplace resolvent starts each row at the better of its target
    and the previous state (or the Picard iterate), by optimality residual."""

    # the plaplace-2d benchmark solve
    BENCHMARK_2D = ExperimentSpec(p=3.0, q=4.0, alpha=0.5, grid=Grid(2, 20), steps=64)
    SWEEP_1D = [ExperimentSpec(p=2.0, q=q, alpha=0.5, grid=Grid(1, 32), steps=512, amplitude=a) for q in (3.0, 4.0, 5.0) for a in (0.5, 2.0, 16.0)]
    COUPLED = [ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 16), steps=256, amplitude=a) for a in (0.5, 1.0, 4.0, 16.0)]

    @pytest.mark.parametrize("case", ["plaplace-2d", "sweep-1d", "coupled"])
    def test_warm_rows_are_the_cold_rows_to_the_prox_tolerance(self, case, take_the_cold_route):
        specs, config = {
            "plaplace-2d": ([self.BENCHMARK_2D], None),
            "sweep-1d": (self.SWEEP_1D, None),
            "coupled": (self.COUPLED, SolverConfig(yosida_lam=0.1, coupling="coupled")),
        }[case]
        warm = run_experiments(specs, config, keep_trajectory=True)
        take_the_cold_route()
        cold = run_experiments(specs, config, keep_trajectory=True)
        assert {r.verdict for r in cold} >= {"completed"}
        for w, c in zip(warm, cold):
            assert (w.verdict, w.t_star) == (c.verdict, c.t_star)
            assert (w.trajectory.node, w.trajectory.reason) == (c.trajectory.node, c.trajectory.reason)
            if c.verdict == "completed":
                scale = np.max(np.abs(c.trajectory.states))
                assert np.max(np.abs(w.trajectory.states - c.trajectory.states)) <= 1e-10 * scale
                for r in (w, c):
                    assert np.max(r.trajectory.residuals) <= 1e-10
                    assert check_chain_rule(r.trajectory, rl_pair(0.5), slack_coeff=0.5).passed

    def test_the_benchmark_solve_takes_fewer_newton_steps(self, monkeypatch, take_the_cold_route):
        # the start's gradient is the previous call's last one: no step
        # takes a gradient more than the cold start
        counts = counted_newton_work(monkeypatch)
        run_experiment(self.BENCHMARK_2D)
        warm = dict(counts)
        counts.update(grad=0, hess=0)
        take_the_cold_route()
        run_experiment(self.BENCHMARK_2D)
        assert (warm, counts) == ({"grad": 223, "hess": 158}, {"grad": 331, "hess": 267})

    def test_warm_batch_rows_are_their_single_runs(self):
        # 2D, m = 16, N = 128: mixed q and amplitudes at p = 3, and at
        # p = 1.5 a row that completes, one that blows up and two that
        # stall (ProxNonconvergence)
        for p, keys in ((3.0, [(3.0, 8.0), (6.0, 0.5), (8.0, 16.0), (3.0, 1.0)]), (1.5, [(8.0, 1.0), (8.0, 8.0), (3.0, 8.0), (6.0, 16.0)])):
            specs = [ExperimentSpec(p=p, q=q, alpha=0.5, grid=Grid(2, 16), steps=128, amplitude=a) for q, a in keys]
            batch = run_experiments(specs, keep_trajectory=True)
            for spec, got in zip(specs, batch):
                alone = outcome_of(spec)
                if isinstance(alone, Exception):
                    assert (type(got), str(got)) == (type(alone), str(alone))
                    continue
                assert got.to_row() == alone.to_row()
                for name in ("energy1", "norms", "states", "xi", "residuals"):
                    a, b = getattr(got.trajectory, name), getattr(alone.trajectory, name)
                    assert (a is None and b is None) or a.tobytes() == b.tobytes(), (spec, name)
            if p == 1.5:
                assert [type(r).__name__ for r in batch] == ["ExperimentResult", "ProxNonconvergence", "ExperimentResult", "ProxNonconvergence"]

    def test_a_start_that_misses_the_memo_gives_the_memo_paths_bits(self, monkeypatch):
        # each start passed as a copy, which misses the memo of the last
        # result: one more gradient per step but the first, whose start u0
        # is no result anyway, and the same bits
        spec = self.BENCHMARK_2D
        counts = counted_newton_work(monkeypatch)
        memo = run_experiment(spec).trajectory
        hits = dict(counts)
        counts.update(grad=0, hess=0)
        prox = SmoothFunctional.prox
        copied = lambda self, w, lam, tol=1e-10, start=None: prox(self, w, lam, tol=tol, start=None if start is None else start.copy())  # noqa: E731
        monkeypatch.setattr(SmoothFunctional, "prox", copied)
        missed = run_experiment(spec).trajectory
        assert counts == {"grad": hits["grad"] + spec.steps - 1, "hess": hits["hess"]}
        for name in ("states", "xi", "energy1", "residuals"):
            assert getattr(memo, name).tobytes() == getattr(missed, name).tobytes(), name

    def test_a_changed_result_misses_the_memo(self, rng):
        # the memo holds the bytes of the result it returned: a start that
        # is that array, changed in place, takes its own gradient
        phi, lam = PDirichletEnergy(Grid(1, 16), 3.0), 1e-2
        w = rng.standard_normal((2, 16))
        z = phi.prox(w, lam)
        z += 0.25
        got = phi.prox(1.1 * w, lam, start=z)
        phi.prox(w, lam)
        expected = phi.prox(1.1 * w, lam, start=z.copy())
        assert got.tobytes() == expected.tobytes()
        res = (got - 1.1 * w) / lam + phi.gradient(got)
        assert np.all(phi.space.row_norms(res) <= 1e-10 * (1.0 + phi.space.row_norms(1.1 * w) / lam))

    def test_a_start_of_another_shape_is_rejected(self, rng):
        phi = PDirichletEnergy(Grid(1, 16), 3.0)
        w = rng.standard_normal((2, 16))
        with pytest.raises(ValueError, match=r"start of shape \(1, 16\) does not match w of shape \(2, 16\)"):
            phi.prox(w, 1e-2, start=w[:1])

    def test_the_2d_p15_diagram_keeps_its_verdicts(self):
        # m = 16, N = 128: the table of the resolvent started at its target,
        # error rows included, and each blow-up time
        qs, amplitudes = (3.0, 6.0, 8.0), (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
        specs = [ExperimentSpec(p=1.5, q=q, alpha=0.5, grid=Grid(2, 16), steps=128, amplitude=a) for q in qs for a in amplitudes]
        got = [type(r).__name__ if isinstance(r, Exception) else (r.verdict, r.t_star) for r in run_experiments(specs)]
        done, error = ("completed", None), "ProxNonconvergence"
        assert got == [
            *[done] * 4, ("blew_up", 0.078125), error,
            *[done] * 3, ("blew_up", 0.0234375), ("blew_up", 0.015625), error,
            *[done] * 2, ("blew_up", 0.03125), ("blew_up", 0.0234375), error, error,
        ]  # fmt: skip
