import dataclasses
import hashlib
import json
import struct
import sys

import numpy as np
import pytest

import fraflow._accel
import fraflow.convex
import fraflow.solver
from fraflow._accel import HISTORY_BLOCK
from fraflow.certify import check_ab_inequality, check_chain_rule, mittag_leffler
from fraflow.cli import main
from fraflow.convex import PowerPotential, ProxNonconvergence, Quadratic, Space
from fraflow.kernels import TimeGrid, conv_weights, rl_pair
from fraflow.plaplace import ExperimentSpec, Grid, PDirichletEnergy, run_experiment, run_experiments
from fraflow.solver import (
    DumpFormatError,
    ProblemSpec,
    SolverConfig,
    Trajectory,
    _solve_linear,
    _solve_loop,
    continuity_modulus,
    load_state_dump,
    save_state_dump,
    solve_dc_flow,
    solve_dc_rows,
    trajectory_to_csv,
)


def scalar_spec(alpha=0.5, n=512, u0=1.0, phi2=None, horizon=1.0):
    sp = Space(1)
    return ProblemSpec(Quadratic(sp), phi2, rl_pair(alpha), np.array([u0]), None, TimeGrid(horizon, n))


class TestScalarFlow:
    def test_mittag_leffler_endpoint(self):
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=1024))
        exact = mittag_leffler(0.5, -1.0)
        assert abs(traj.states[-1, 0] - exact) / exact <= 2e-3

    def test_stationary_initial_data(self):
        spec = ProblemSpec(Quadratic(Space(4)), None, rl_pair(0.5), np.zeros(4), None, TimeGrid(1.0, 64))
        traj = solve_dc_flow(spec)
        np.testing.assert_array_equal(traj.states, 0.0)

    def test_residual_invariant(self):
        traj = solve_dc_flow(scalar_spec(n=512))
        scale = 1.0 + np.max(np.abs(traj.xi)) + np.max(np.abs(traj.states))
        assert np.max(traj.residuals) <= 1e-9 * scale

    def test_selection_satisfies_subgradient_inequality(self, rng):
        # xi_j in dphi1(u_j) tested against random probe points
        phi2 = PowerPotential(Space(1), 4)
        spec = scalar_spec(n=128, u0=0.8, phi2=phi2)
        traj = solve_dc_flow(spec, SolverConfig(yosida_lam=0.1))
        phi = spec.phi1
        for j in (1, 64, 128):
            u = traj.states[j]
            xi = traj.xi[j]
            for _ in range(20):
                probe = u + rng.standard_normal(1)
                gap = phi.values(probe)[0] - phi.values(u)[0] - phi.space.row_inner(xi, probe - u)[0]
                assert gap >= -1e-9

    def test_rejects_infinite_initial_energy(self):
        with pytest.raises(ValueError):
            ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([np.inf]), None, TimeGrid(1.0, 8))


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_picard", 0),
        ("max_picard", -2),
        ("inner_tol", 0.0),
        ("inner_tol", -1e-10),
        ("inner_tol", np.nan),
        ("visc", np.nan),
        ("visc", -1.0),
        ("visc", np.inf),
        ("yosida_lam", np.inf),
        ("yosida_lam", np.nan),
    ],
)
def test_solver_config_rejects_what_the_schema_rejects(field, value):
    # a NaN viscosity would pass a `visc < 0` test and die at step 1 on
    # non-finite step data; so would an infinite one
    message = {
        "max_picard": "max_picard must be at least 1",
        "inner_tol": "inner tolerance must be positive",
        "visc": "viscosity must be nonnegative and finite",
        "yosida_lam": "Yosida parameter must be positive and finite",
    }
    with pytest.raises(ValueError, match=message[field]):
        SolverConfig(**{field: value})


class TestEnergyDiagnostics:
    def test_e_t_combines_initial_energy_and_forcing(self):
        n = 128
        grid = TimeGrid(1.0, n)
        spec = ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([2.0]), lambda t: np.array([1.0]), grid)
        traj = solve_dc_flow(spec)
        # E_T = phi1(u0) + sup (ell * ||f||^2); for f == 1 the convolution
        # is the exact antiderivative of ell, increasing to L(T)
        expected = 2.0 + rl_pair(0.5).ell.antiderivative(1.0)
        assert traj.e_t == pytest.approx(expected, rel=1e-10)

    def test_envelope_diagnostic_present(self):
        phi2 = PowerPotential(Space(1), 4)
        traj = solve_dc_flow(scalar_spec(n=64, u0=0.5, phi2=phi2), SolverConfig(yosida_lam=0.1))
        assert np.all(traj.envelope2[1:] >= 0)


class TestViscousFlow:
    def test_viscous_limit_regression(self):
        def mk():
            return ProblemSpec(
                Quadratic(Space(1)), PowerPotential(Space(1), 4), rl_pair(0.5), np.array([0.5]), None, TimeGrid(1.0, 256)
            )

        base = solve_dc_flow(mk(), SolverConfig(yosida_lam=0.1))
        dists = []
        for visc in (1.0, 0.1, 0.01):
            traj = solve_dc_flow(mk(), SolverConfig(yosida_lam=0.1, visc=visc))
            dists.append(float(np.max(np.abs(traj.states - base.states))))
        assert dists[0] > dists[1] > dists[2]

    def test_small_data_matches_unviscous(self):
        spec = scalar_spec(n=256, u0=0.3, phi2=PowerPotential(Space(1), 4))
        base = solve_dc_flow(spec, SolverConfig(yosida_lam=0.1))
        spec2 = scalar_spec(n=256, u0=0.3, phi2=PowerPotential(Space(1), 4))
        visc = solve_dc_flow(spec2, SolverConfig(yosida_lam=0.1, visc=0.001))
        assert np.max(np.abs(base.states - visc.states)) <= 5e-3


class TestCoupledMode:
    def test_matches_semi_implicit_at_moderate_lambda(self):
        spec1 = scalar_spec(n=256, u0=0.5, phi2=PowerPotential(Space(1), 4))
        spec2 = scalar_spec(n=256, u0=0.5, phi2=PowerPotential(Space(1), 4))
        semi = solve_dc_flow(spec1, SolverConfig(yosida_lam=1.0))
        coup = solve_dc_flow(spec2, SolverConfig(yosida_lam=1.0, coupling="coupled"))
        assert isinstance(coup, Trajectory) and coup.reason is None
        assert np.max(np.abs(semi.states - coup.states)) <= 1e-2

    def test_rejected_without_contraction(self):
        # the Picard map contracts with kappa = mu/lam = 1567 > 1 here: the
        # implicit step is ill-posed, so no step is taken
        spec = scalar_spec(n=32, u0=0.9, phi2=PowerPotential(Space(1), 4))
        with pytest.raises(ValueError, match=r"kappa = 1567"):
            solve_dc_flow(spec, SolverConfig(yosida_lam=1e-4, coupling="coupled", max_picard=8))

    def test_rejected_when_the_budget_cannot_reach_the_tolerance(self):
        # 2D, m = 16, N = 128, lam = 0.1: kappa = 0.78 contracts, but
        # 0.78**50 = 5e-6 > inner_tol = 1e-10; 0.78**200 = 6e-22 is within it
        spec = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(2, 16), steps=128)
        with pytest.raises(ValueError, match=r"kappa = 0\.7833 \(max_picard = 50, inner_tol = 1e-10\)"):
            run_experiment(spec, SolverConfig(yosida_lam=0.1, coupling="coupled", max_picard=50))
        assert run_experiment(spec, SolverConfig(yosida_lam=0.1, coupling="coupled", max_picard=200)).verdict == "completed"

    def test_well_posed_outputs_are_pinned(self, take_the_newton_route, take_the_cold_route):
        # states and residuals of well-posed coupled runs (kappa = 0.055,
        # 0.007, 0.28 and 0.55), pinned bitwise: the Picard loop shares the
        # semi-implicit step's Yosida evaluation.  The p = 2 resolvent is one
        # band solve; the Newton route keeps the digest pinned before, and
        # the cold route the one pinned before the p-Laplace resolvent
        # started from the Picard iterate
        digests = []
        for route in ("default", "newton", "cold"):
            if route == "newton":
                take_the_newton_route()
            if route == "cold":
                take_the_cold_route()
            digest = hashlib.sha256()
            for knobs in ({"yosida_lam": 1.0}, {"yosida_lam": 1.0, "visc": 0.5}, {"yosida_lam": 0.2}):
                spec = scalar_spec(n=256, u0=0.5, phi2=PowerPotential(Space(1), 4))
                traj = solve_dc_flow(spec, SolverConfig(coupling="coupled", **knobs))
                digest.update(traj.states.tobytes())
                digest.update(traj.residuals.tobytes())
            base = ExperimentSpec(p=2.0, q=4.0, alpha=0.5, grid=Grid(1, 16), steps=256)
            specs = [base.with_amplitude(a) for a in (0.5, 1.0, 4.0, 16.0)]
            for result in run_experiments(specs, SolverConfig(yosida_lam=0.1, coupling="coupled"), keep_trajectory=True):
                digest.update(result.trajectory.states.tobytes())
                digest.update(result.trajectory.residuals.tobytes())
            digests.append(digest.hexdigest())
        assert digests == [
            "0817357133e6f37040d2ac6fb089a516fae1721e57d71f739e4f1da31681b8ba",
            "53ed453ca278c22179c6550e4f1a5c0cffece6475c40bb1859392b3e6f6c9a7f",
            "cad28572cdec34de51a7d69b8de4c47a90b89f4e549bd1260474482cfe05c995",
        ]
        spec = scalar_spec(n=256, u0=3.0, phi2=PowerPotential(Space(1), 4))
        report = solve_dc_flow(spec, SolverConfig(yosida_lam=0.2, blowup_norm=100.0, coupling="coupled"))
        assert (report.node, report.reason) == (100, "norm-threshold")
        pinned = hashlib.sha256(report.norms.tobytes() + report.energy1.tobytes()).hexdigest()
        assert pinned == "da3f94b0b7a5e43169c1796981dfe389d54baad33ee330e5ad0430d69372fd02"

    def test_picard_iterates_find_the_resolvent_gradient_in_its_memo(self, monkeypatch):
        # while no row has left, each Picard iterate reaches the next
        # resolvent as the previous result itself: a memo hit returns the
        # memo's own gradient array, a miss a fresh one.  At p = 3, whose
        # resolvent is Newton's (at p = 2 it is one band solve, with no memo)
        start_gradient = fraflow.convex.SmoothFunctional._start_gradient
        hits = []

        def counting(phi, start):
            grad = start_gradient(phi, start)
            hits.append(grad is phi._memo[2] if phi._memo is not None else False)
            return grad

        monkeypatch.setattr(fraflow.convex.SmoothFunctional, "_start_gradient", counting)
        base = ExperimentSpec(p=3.0, q=4.0, alpha=0.5, grid=Grid(1, 16), steps=256)
        specs = [base.with_amplitude(a) for a in (0.5, 1.0, 4.0, 16.0)]
        run_experiments(specs, SolverConfig(yosida_lam=0.1, coupling="coupled"))
        assert len(hits) > 256 and sum(hits) > 256

    def test_each_step_starts_at_the_last_picard_result(self, monkeypatch):
        # where every row converged in the same Picard iteration (always, in
        # a batch of one), the next step's first resolvent starts at that
        # iteration's result itself and finds its gradient in the memo:
        # every main-step start but the first, at u0, hits.  At p = 3, as
        # above
        start_gradient = fraflow.convex.SmoothFunctional._start_gradient
        picard = fraflow.solver._picard
        inside, hits = [False], {False: [], True: []}

        def counting(phi, start):
            grad = start_gradient(phi, start)
            hits[inside[0]].append(phi._memo is not None and grad is phi._memo[2])
            return grad

        def marked(*args):
            inside[0] = True
            try:
                return picard(*args)
            finally:
                inside[0] = False

        monkeypatch.setattr(fraflow.convex.SmoothFunctional, "_start_gradient", counting)
        monkeypatch.setattr(fraflow.solver, "_picard", marked)
        spec = ExperimentSpec(p=3.0, q=4.0, alpha=0.5, grid=Grid(1, 16), amplitude=2.0, steps=256)
        assert run_experiment(spec, SolverConfig(yosida_lam=0.1, coupling="coupled")).verdict == "completed"
        assert len(hits[False]) == 256 and sum(hits[False]) == 255
        assert sum(hits[True]) == len(hits[True]) == 857

    class SteepRate(PowerPotential):
        """A phi2 whose Yosida rate is -1000 w, far steeper than the 1/lam that kappa assumes."""

        def yosida(self, w, lam, tol=1e-10):
            return -1e3 * w, super().yosida(w, lam, tol=tol)[1]

    def test_a_used_up_picard_budget_follows_the_norm_threshold_rule(self):
        # the Picard map of this phi2 expands, so the loop uses up its budget:
        # ProxNonconvergence on a bounded state, a blow-up at a large one
        spec = scalar_spec(n=256, u0=0.5, phi2=self.SteepRate(Space(1), 4))
        config = SolverConfig(yosida_lam=1.0, coupling="coupled")
        with pytest.raises(ProxNonconvergence, match="after 50 iterations"):
            solve_dc_flow(spec, config)
        report = solve_dc_flow(spec, dataclasses.replace(config, blowup_norm=50.0))
        assert report.reason is not None
        assert (report.node, report.reason) == (1, "norm-threshold")
        assert len(report.norms) == 1


class TestBlowUp:
    def test_norm_threshold_crossing(self):
        # forcing-driven growth: du ~ lam_visc^-1 contributions exceed the cap
        phi2 = PowerPotential(Space(1), 4)
        spec = scalar_spec(n=256, u0=3.0, phi2=phi2)
        result = solve_dc_flow(spec, SolverConfig(yosida_lam=1e-3, blowup_norm=1e3))
        assert result.reason is not None
        assert result.reason in ("norm-threshold", "energy-threshold")
        assert result.node >= 1
        assert len(result.norms) == result.node + 1
        assert result.e_t > 0

    class StallingPower(PowerPotential):
        """A phi2 whose resolvent stalls once the state reaches 10."""

        def prox(self, w, lam, tol=1e-10, start=None):
            if np.max(np.abs(w)) >= 10.0:
                raise ProxNonconvergence(1.0, 200)
            return super().prox(w, lam, tol=tol)

    def test_stalled_phi2_resolvent_at_a_large_state_is_a_blowup(self):
        # the same rule as a stalled phi1 resolvent: |u_{j-1}| = 10 is at
        # least 0.01 * blowup_norm
        spec = scalar_spec(n=256, u0=3.0, phi2=self.StallingPower(Space(1), 4))
        result = solve_dc_flow(spec, SolverConfig(yosida_lam=1e-3, blowup_norm=1e3))
        assert result.reason is not None
        assert result.reason == "norm-threshold"
        assert len(result.norms) == result.node
        assert result.norms[-1] >= 10.0

    def test_stalled_phi2_resolvent_in_the_picard_loop_is_a_blowup(self):
        # the coupled twin: the stall comes from the Picard loop's Yosida
        # evaluation at the current iterate, |u_{j-1}| >= 0.01 * blowup_norm
        spec = scalar_spec(n=256, u0=3.0, phi2=self.StallingPower(Space(1), 4))
        result = solve_dc_flow(spec, SolverConfig(yosida_lam=0.2, blowup_norm=100.0, coupling="coupled"))
        assert result.reason is not None
        assert result.reason == "norm-threshold"
        assert len(result.norms) == result.node
        assert result.norms[-1] >= 1.0

    def test_stalled_phi2_resolvent_at_a_bounded_state_raises(self):
        spec = scalar_spec(n=256, u0=3.0, phi2=self.StallingPower(Space(1), 4))
        with pytest.raises(ProxNonconvergence):
            solve_dc_flow(spec, SolverConfig(yosida_lam=1e-3, blowup_norm=1e6))

    def test_non_finite_state_is_not_completed(self):
        # a resolvent returning NaN on the last step must not end "completed"
        n = 16
        spec = ProblemSpec(NanOnStep(Space(1), n), None, rl_pair(0.5), np.array([1.0]), None, TimeGrid(1.0, n))
        result = solve_dc_flow(spec)
        assert result.reason is not None
        assert result.reason == "non-finite"
        assert result.node == n
        assert len(result.norms) == n
        assert np.all(np.isfinite(result.norms))

    @pytest.mark.parametrize("resolvent", ["closed-form", "newton"])
    def test_non_finite_state_in_the_picard_loop_is_not_completed(self, resolvent):
        # the coupled twin, with a phi2 (without one coupled mode steps as
        # semi-implicit): the Picard loop stops at the NaN iterate, and the
        # step ends the row "non-finite" instead of passing NaN to the
        # phi2 resolvent, which stalled on it.  The 40th resolvent call is
        # a Picard iterate of the closed form, and the Newton resolvent's
        # first call of a step: the loop then has no finite row to iterate
        # and calls no resolvent, which Newton could not do on zero rows
        n = 256
        grid, pair = TimeGrid(1.0, n), rl_pair(0.5)
        config = SolverConfig(yosida_lam=0.2, coupling="coupled")
        if resolvent == "closed-form":
            space, u0, nan, plain = Space(1), np.array([1.0]), NanOnStep(Space(1), 40), Quadratic(Space(1))
        else:
            mesh = Grid(1, 8)
            space, u0 = mesh.space, np.sin(np.pi * mesh.coords()[0])
            nan, plain = NanOnStepDirichlet(mesh, 3.0, 40), PDirichletEnergy(mesh, 3.0)
        result = solve_dc_flow(ProblemSpec(nan, PowerPotential(space, 4), pair, u0, None, grid), config)
        assert result.reason is not None
        assert result.reason == "non-finite"
        assert 1 <= result.node < n
        assert len(result.norms) == result.node
        assert np.all(np.isfinite(result.norms))
        # the nodes before the exit are the plain flow's
        plain = solve_dc_flow(ProblemSpec(plain, PowerPotential(space, 4), pair, u0, None, grid), config)
        assert result.norms.tobytes() == plain.norms[: result.node].tobytes()


class SteppedQuadratic(Quadratic):
    """A ``Quadratic`` subclass: the same flow, marched by the stepped reference ``_solve_loop``."""


class DirectHistory:
    """The history as one O(j) sum per step and row: the reference for
    ``History``, on the paths of R rows side by side (R, N+1, m)."""

    def __init__(self, omega, v):
        self.d, self.paths = np.diff(omega), v

    def __call__(self, j):
        return np.stack([self.d[j - 2 :: -1] @ path[1:j] if j > 1 else np.zeros(path.shape[1:]) for path in self.paths])

    def compact(self, keep, j):
        self.paths[: len(keep), :j] = self.paths[keep, :j]
        self.paths = self.paths[: len(keep)]


class TestFastHistory:
    B = HISTORY_BLOCK

    def test_long_scalar_run_matches_the_direct_sum(self, monkeypatch):
        spec = dataclasses.replace(scalar_spec(alpha=0.5, n=16384), phi1=SteppedQuadratic(Space(1)))
        fast = solve_dc_flow(spec)
        monkeypatch.setattr(fraflow.solver, "History", DirectHistory)
        direct = solve_dc_flow(spec)
        scale = np.max(np.abs(direct.states))
        assert np.max(np.abs(fast.states - direct.states)) <= 1e-12 * scale
        assert np.max(fast.residuals) <= 1e-10

    def test_states_of_any_rank(self, rng):
        n = 3 * self.B + 5
        u0 = rng.standard_normal((2, 3))
        grid = TimeGrid(1.0, n)
        square = solve_dc_flow(ProblemSpec(Quadratic(Space(6)), None, rl_pair(0.5), u0, None, grid))
        flat = solve_dc_flow(ProblemSpec(Quadratic(Space(6)), None, rl_pair(0.5), u0.reshape(6), None, grid))
        assert square.states.shape == (n + 1, 2, 3)
        np.testing.assert_array_equal(square.states, flat.states.reshape(n + 1, 2, 3))
        assert np.max(square.residuals) <= 1e-10

    @pytest.mark.parametrize("preset", ["blowup-1d", "classical-limit", "mittag-leffler-scalar", "smalldata-1d"])
    def test_presets_keep_their_verdicts(self, preset, tmp_path, monkeypatch):
        fast, direct = tmp_path / "fast", tmp_path / "direct"
        code = main(["solve", "--preset", preset, "--out", str(fast)])
        monkeypatch.setattr(fraflow.solver, "History", DirectHistory)
        assert main(["solve", "--preset", preset, "--out", str(direct)]) == code
        verdicts = [json.loads((out / "diagnostics.json").read_text())["verdict"] for out in (fast, direct)]
        assert verdicts[0] == verdicts[1]
        if (direct / "state.bin").exists():
            a, b = (load_state_dump(out / "state.bin")["states"] for out in (fast, direct))
            assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_runs_shorter_than_a_block_are_unchanged(self, tmp_path, monkeypatch):
        # regime-diagram: 18 sweep rows at N = 256 < B
        fast, direct = tmp_path / "fast", tmp_path / "direct"
        main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(fast)])
        monkeypatch.setattr(fraflow.solver, "History", DirectHistory)
        main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(direct)])
        assert (fast / "sweep.csv").read_bytes() == (direct / "sweep.csv").read_bytes()

    def test_work_per_step_is_bounded(self, monkeypatch):
        n, block = 16384, self.B
        near, far = [], []
        history, rfft = fraflow._accel.l1_history, np.fft.rfft

        def counted_history(d, v, j):
            near.append(max(j - 1, 0))  # rows summed
            return history(d, v, j)

        def counted_rfft(a, *args, **kwargs):
            if sys._getframe(1).f_code.co_name == "_far_field":
                far.append(np.ndim(a))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(fraflow._accel, "l1_history", counted_history)
        monkeypatch.setattr(np.fft, "rfft", counted_rfft)
        solve_dc_flow(dataclasses.replace(scalar_spec(n=n), phi1=SteppedQuadratic(Space(1))))
        assert len(near) == n
        assert max(near) <= block  # an O(N) sum per step fails here
        assert sum(near) <= n * block
        # one transform of the completed rows per block, one kernel
        # spectrum per dyadic block size, but for the pass at j = N: its
        # one target is a direct sum
        passes = {j: min(j + (j & -j), n + 1) - j for j in range(block, n + 1, block)}
        direct = [j for j, targets in passes.items() if targets <= fraflow._accel.FAR_DIRECT_RATIO * (j & -j).bit_length()]
        assert direct == [n]
        assert far.count(2) == n // block - 1
        assert far.count(1) == len({j & -j for j in passes if j not in direct})

    # u0 amplitudes of a cubic potential's rows and the nodes they leave at
    # on N = 2B + 37: before B, at B - 1 (the far field at B runs right
    # after the compaction), at B, after B (the far targets of the rows
    # behind it move), after 2B and at N - 1 (one far target left to
    # move); the last row reaches T
    LEAVERS = {
        "semi_implicit": ([4.0, 2.2142, 2.2117, 2.0, 1.5999, 1.5901, 1.0], [247, 511, 512, 613, 1040, 1060, None]),
        "coupled": ([4.0, 2.1601, 2.1577, 2.0, 1.5869, 1.5772, 1.0], [230, 511, 512, 590, 1040, 1060, None]),
    }

    @pytest.mark.parametrize("coupling", ["semi_implicit", "coupled"])
    @pytest.mark.parametrize("m", [2, 32])
    def test_batch_rows_are_their_single_runs_across_the_far_field(self, m, coupling, monkeypatch):
        # each row that leaves is compacted out of the batch's history, and
        # every row, before and after, is bitwise its single run
        monkeypatch.setattr(fraflow.solver, "BATCH_BYTES", 1 << 30)  # one batch of kept paths
        amplitudes, nodes = self.LEAVERS[coupling]
        space = Space(m)
        phi1, phi2, pair, grid = Quadratic(space), PowerPotential(space, 3.0), rl_pair(0.5), TimeGrid(1.0, 2 * self.B + 37)
        profile = np.linspace(1.0, 0.5, m)
        specs = [ProblemSpec(phi1, phi2, pair, a * profile, None, grid) for a in amplitudes]
        config = SolverConfig(yosida_lam=0.1, coupling=coupling, blowup_norm=1e3)
        calls = []
        history = fraflow._accel.l1_history
        monkeypatch.setattr(fraflow._accel, "l1_history", lambda d, v, j: calls.append(v.shape[1]) or history(d, v, j))
        batch = list(solve_dc_rows(specs, config))
        # one near-field sum per step for all live rows
        assert len(calls) == grid.steps and calls[0] == len(specs)
        for spec, got, node in zip(specs, batch, nodes):
            alone = solve_dc_flow(spec, config)
            assert got.node == alone.node == node
            assert got.reason == alone.reason == (None if node is None else "norm-threshold")
            for name in ("energy1", "envelope2", "norms", "states", "xi", "eta", "residuals"):
                a, b = getattr(got, name), getattr(alone, name)
                assert (a is None and b is None) or a.tobytes() == b.tobytes(), name


class RaisingQuadratic(Quadratic):
    """A phi1 whose resolvent raises ``exc`` once its step data reaches ``at`` in absolute value."""

    def __init__(self, space, at, exc):
        super().__init__(space)
        self.at, self.exc = at, exc

    def prox(self, w, lam, tol=1e-10, start=None):
        if np.max(np.abs(w)) >= self.at:
            raise self.exc
        return super().prox(w, lam, tol=tol)


class NanAbove(Quadratic):
    """A phi1 whose resolvent returns NaN on the rows it takes to ``level`` or beyond."""

    def __init__(self, space, level):
        super().__init__(space)
        self.level = level

    def prox(self, w, lam, tol=1e-10, start=None):
        z = super().prox(w, lam, tol=tol)
        rows = self.space.rows(z)
        rows[np.abs(rows).max(axis=1) >= self.level] = np.nan
        return z


class NanOnStep(Quadratic):
    """A phi1 whose resolvent returns NaN at its ``step``-th call."""

    def __init__(self, space, step):
        super().__init__(space)
        self.step, self.calls = step, 0

    def prox(self, w, lam, tol=1e-10, start=None):
        self.calls += 1
        z = super().prox(w, lam, tol=tol)
        return np.full_like(z, np.nan) if self.calls == self.step else z


class NanOnStepDirichlet(PDirichletEnergy):
    """A p-Dirichlet phi1 whose Newton resolvent returns NaN at its ``step``-th call."""

    def __init__(self, grid, p, step):
        super().__init__(grid, p)
        self.step, self.calls = step, 0

    def prox(self, w, lam, tol=1e-10, start=None):
        self.calls += 1
        z = super().prox(w, lam, tol=tol, start=start)
        return np.full_like(z, np.nan) if self.calls == self.step else z


def assert_matches_reference(got, ref, rtol=1e-13):
    """``got`` leaves at the stepped reference ``ref``'s exit, and each of
    its paths lies within ``rtol`` of that path's largest entry."""
    if isinstance(ref, Exception):
        assert (type(got), str(got)) == (type(ref), str(ref))
        return
    assert (got.node, got.reason, type(got.node)) == (ref.node, ref.reason, type(ref.node))
    assert np.float64(got.e_t).tobytes() == np.float64(ref.e_t).tobytes()
    for name in ("states", "xi", "eta", "energy1", "envelope2", "norms"):
        a, b = getattr(ref, name), getattr(got, name)
        if a is None:
            assert b is None, name
            continue
        assert b.shape == a.shape, name
        assert np.max(np.abs(b - a)) <= rtol * np.max(np.abs(a)), name
    if ref.residuals is not None:
        scale = 1.0 + np.max(np.abs(got.xi)) + np.max(np.abs(got.states))
        assert np.max(got.residuals) <= 1e-10 * scale


def long_double_path(omega, tau, visc, u0, n):
    """The states of the quadratic flow without forcing in ``np.longdouble``:
    the recurrence c_0 v_j = -tau u0 - sum_{0<k<j} c_k v_{j-k}, node by node."""
    ld = np.longdouble
    w = omega.astype(ld)
    column = np.concatenate([[w[0] + ld(visc) + ld(tau)], w[1:n] - w[: n - 1]])
    column[1:2] -= ld(visc)
    reversed_column = column[::-1]  # c_k at position n - 1 - k
    v = np.zeros(n + 1, dtype=ld)
    for j in range(1, n + 1):
        v[j] = (-ld(tau) * ld(u0) - np.dot(reversed_column[n - j : n - 1], v[1:j])) / column[0]
    return v + ld(u0)


class TestOneValuePath:
    """One row of one value without a phi2, whose phi1 is exactly a
    ``Quadratic``, takes the linear solve: each outcome leaves at the exit
    of the stepped reference, ``_solve_loop`` called directly, and its
    paths agree with it to 1e-13 relative.  Any other phi1 of one value,
    the ``Quadratic`` subclasses among them, takes ``_solve_loop``."""

    B = HISTORY_BLOCK

    @staticmethod
    def spec(make_phi1, u0, n, forcing):
        return ProblemSpec(make_phi1(), None, rl_pair(0.5), np.array([u0]), forcing, TimeGrid(1.0, n))

    @classmethod
    def assert_same_outcomes(cls, make_phi1, u0, n, config, forcing=None, nan_at=None):
        """Run the linear solve and the reference on fresh problems, kept and
        lean; return the reference's kept outcome.

        ``nan_at`` sets that node of the forcing path to NaN, past the
        finiteness check of ``ProblemSpec.forcing_path``."""
        for keep in (False, True):
            outcomes = []
            for solve in (_solve_loop, _solve_linear):
                spec = cls.spec(make_phi1, u0, n, forcing)
                forcing_path, u0s = spec.forcing_path(), spec.u0[None]
                if nan_at is not None:
                    forcing_path[nan_at] = np.nan
                outcomes += solve(spec, config, forcing_path, u0s, spec.phi1_u0, [None], keep)
            ref, got = outcomes
            assert_matches_reference(got, ref)
        return ref

    @staticmethod
    def spy_on_loops(patch, marched):
        # each solve appends its name and row count to marched, then runs
        for name in ("_solve_loop", "_solve_linear"):
            patch.setattr(fraflow.solver, name, lambda *args, name=name, march=getattr(fraflow.solver, name): marched.append((name, len(args[3]))) or march(*args))

    @classmethod
    def assert_takes_the_array_loop(cls, monkeypatch, make_phi1, u0, n, config, forcing=None):
        """Solve through ``solve_dc_rows``, kept and lean: both take
        ``_solve_loop`` and leave at one (node, reason).  Returns the kept outcome."""
        marched = []
        with monkeypatch.context() as patch:
            cls.spy_on_loops(patch, marched)
            (kept,), (lean,) = (list(solve_dc_rows([cls.spec(make_phi1, u0, n, forcing)], config, keep)) for keep in (True, False))
        assert marched == [("_solve_loop", 1)] * 2
        if isinstance(kept, Exception):
            assert (type(lean), str(lean)) == (type(kept), str(kept))
        else:
            assert (lean.node, lean.reason) == (kept.node, kept.reason)
        return kept

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, 2 * B + 37])
    @pytest.mark.parametrize("phi1", ["quadratic", "cubic", "weighted"])
    def test_rows_that_reach_t_are_bitwise_the_array_loop(self, n, phi1, monkeypatch):
        # a cubic row takes the array loop itself; a quadratic row, weighted
        # or not, agrees with it to 1e-13 relative
        def make_phi1():
            if phi1 == "cubic":
                return PowerPotential(Space(1), 3)
            return Quadratic(Space(1) if phi1 == "quadratic" else Space(1, weight=0.37))

        for u0 in (1.25, -0.7, 0.0, -0.0):
            for visc in (0.0, 0.3):
                for forcing in (None, lambda t: np.array([-0.3 * t * np.cos(7.0 * t)])):
                    if phi1 == "cubic":  # one value, but not a Quadratic
                        outcome = self.assert_takes_the_array_loop(monkeypatch, make_phi1, u0, n, SolverConfig(visc=visc), forcing)
                    else:
                        outcome = self.assert_same_outcomes(make_phi1, u0, n, SolverConfig(visc=visc), forcing)
                    assert outcome.reason is None

    @pytest.mark.parametrize(
        "make_phi1, u0, config, forcing, node, reason",
        [
            # |u_1| > blowup_norm, and |u_j| > blowup_norm on the way to the forcing's level
            (lambda: Quadratic(Space(1)), 5e6, SolverConfig(), None, 1, "norm-threshold"),
            (lambda: Quadratic(Space(1)), 1.0, SolverConfig(blowup_norm=50.0), lambda t: np.array([100.0]), 606, "norm-threshold"),
            # phi1 > blowup_energy on the way to the forcing's level
            (lambda: Quadratic(Space(1)), 0.5, SolverConfig(blowup_energy=1.5), lambda t: np.array([4.0]), 206, "energy-threshold"),
            # the phi1 below take _solve_loop
            (lambda: PowerPotential(Space(1), 3), 0.5, SolverConfig(blowup_energy=1.5), lambda t: np.array([4.0]), 415, "energy-threshold"),
            # the resolvent returns NaN at node 300
            (lambda: NanOnStep(Space(1), 300), 1.25, SolverConfig(visc=0.3), None, 300, "non-finite"),
            # the resolvent raises on a state below 0.01 * blowup_norm: the exception is the outcome
            (lambda: RaisingQuadratic(Space(1), 1.0, ProxNonconvergence(0.5, 7)), 0.5, SolverConfig(), lambda t: np.array([4.0]), None, None),
            (lambda: RaisingQuadratic(Space(1), 1.0, ValueError("not a threshold")), 0.5, SolverConfig(), lambda t: np.array([4.0]), None, None),
            # ... and on a state of at least 0.01 * blowup_norm = 10: a norm-threshold exit at j - 1
            (lambda: RaisingQuadratic(Space(1), 30.0, FloatingPointError("escaped")), 1.0, SolverConfig(blowup_norm=1e3), lambda t: np.array([100.0]), 116, "norm-threshold"),
            # the same exits of a weighted space
            (lambda: Quadratic(Space(1, weight=0.37)), 1.0, SolverConfig(blowup_norm=50.0), lambda t: np.array([100.0]), 606, "norm-threshold"),
            (lambda: Quadratic(Space(1, weight=0.37)), 0.5, SolverConfig(blowup_energy=0.8), lambda t: np.array([4.0]), 441, "energy-threshold"),
        ],
    )
    def test_exits_are_the_array_loop_exits(self, make_phi1, u0, config, forcing, node, reason, monkeypatch):
        n = 2 * self.B + 37
        if type(make_phi1()) is Quadratic:
            ref = self.assert_same_outcomes(make_phi1, u0, n, config, forcing)
        else:
            ref = self.assert_takes_the_array_loop(monkeypatch, make_phi1, u0, n, config, forcing)
        if reason is None:
            assert isinstance(ref, Exception)
        else:
            assert (ref.node, ref.reason) == (node, reason)

    @pytest.mark.parametrize(
        "u0, config, forcing, node",
        [
            # |u_299| is below 0.01 * blowup_norm: the exception is the outcome
            (0.5, SolverConfig(), lambda t: np.array([4.0]), None),
            # |u_299| is at least 0.01 * blowup_norm = 10: a norm-threshold exit at node 299
            (1.0, SolverConfig(blowup_norm=1e3), lambda t: np.array([100.0]), 300),
        ],
    )
    def test_non_finite_step_data_is_the_array_loop_exit(self, u0, config, forcing, node):
        # a NaN forcing at node 300 makes the step data non-finite there
        ref = self.assert_same_outcomes(lambda: Quadratic(Space(1)), u0, 2 * self.B + 37, config, forcing, nan_at=300)
        if node is None:
            assert (type(ref), str(ref)) == (FloatingPointError, "non-finite step data")
        else:
            assert (ref.node, ref.reason, len(ref.energy1)) == (node, "norm-threshold", node)

    def test_only_quadratic_rows_without_a_phi2_take_the_linear_solve(self, monkeypatch):
        # any rows and state size whose phi1 is exactly a Quadratic
        marched = []
        self.spy_on_loops(monkeypatch, marched)
        pair, grid, phi2 = rl_pair(0.5), TimeGrid(1.0, 16), PowerPotential(Space(1), 4)
        one, two = Quadratic(Space(1)), Quadratic(Space(2))
        for specs in (
            [ProblemSpec(one, None, pair, np.array([1.0]), None, grid)],
            [ProblemSpec(Quadratic(Space(1, weight=0.37)), None, pair, np.array([1.0]), None, grid)],
            [ProblemSpec(one, None, pair, np.array([u0]), None, grid) for u0 in (1.0, 0.5)],
            [ProblemSpec(two, None, pair, np.array([1.0, 0.5]), None, grid)],
            [ProblemSpec(one, None, pair, np.array([1.0]), lambda t: np.array([t]), grid)],
            [ProblemSpec(one, phi2, pair, np.array([1.0]), None, grid)],
            [ProblemSpec(PowerPotential(Space(1), 3), None, pair, np.array([1.0]), None, grid)],
            [ProblemSpec(NanOnStep(Space(1), 100), None, pair, np.array([1.0]), None, grid)],
            [ProblemSpec(SteppedQuadratic(Space(1)), None, pair, np.array([1.0]), None, grid)],
        ):
            list(solve_dc_rows(specs))
        linear = [("_solve_linear", 1), ("_solve_linear", 1), ("_solve_linear", 2), ("_solve_linear", 1), ("_solve_linear", 1)]
        assert marched == linear + [("_solve_loop", 1)] * 4


class TestLinearPath:
    """The quadratic flow without a phi2 as one Toeplitz solve, against the
    stepped reference ``_solve_loop`` and a long-double recurrence."""

    B = HISTORY_BLOCK

    def test_fixed_workload_matches_the_stepped_reference(self):
        # the benchmark's scalar solve: N = 16384, alpha = 0.5, no viscosity
        spec = scalar_spec(alpha=0.5, n=16384, u0=1.25)
        got = solve_dc_flow(spec)
        (ref,) = _solve_loop(spec, SolverConfig(), spec.forcing_path(), spec.u0[None], spec.phi1_u0, [None], True)
        assert_matches_reference(got, ref)
        assert max(np.max(got.residuals), np.max(ref.residuals)) <= 1e-10
        pair, grid = spec.pair, spec.grid
        for traj in (got, ref):
            statuses = [
                check_chain_rule(traj, pair, slack_coeff=0.5).status,
                check_ab_inequality(traj.states, grid, traj.space_weight, pair, slack_coeff=0.5).status,
                continuity_modulus(traj.states, grid, traj.space_weight, pair, slack_coeff=0.5).status,
            ]
            assert statuses == ["pass"] * 3

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(np.float64).eps, reason="np.longdouble is a plain double here")
    @pytest.mark.parametrize("visc", [0.0, 0.3, 1.0])
    def test_matches_a_long_double_recurrence(self, visc):
        n, u0 = 4096, 1.3
        spec = scalar_spec(alpha=0.5, n=n, u0=u0)
        got = solve_dc_flow(spec, SolverConfig(visc=visc))
        exact = long_double_path(conv_weights(spec.pair.k, spec.grid), spec.grid.tau, visc, u0, n)
        assert float(np.max(np.abs(got.states[:, 0] - exact)) / np.max(np.abs(exact))) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, 2 * B + 37])
    @pytest.mark.parametrize("m, weight", [(1, 1.0), (3, 0.37)])
    def test_batches_match_the_stepped_reference(self, n, m, weight, rng):
        # forced and viscous rows of m values, kept and lean, in one batch:
        # each row leaves at its reference's exit, is bitwise its single run,
        # and a lean row has the energies and norms of the kept one
        space = Space(m, weight=weight)
        grid, pair = TimeGrid(1.0, n), rl_pair(0.5)
        profile = np.linspace(1.0, 0.5, m)
        forcing = lambda t: 3.0 * t * profile  # noqa: E731
        config = SolverConfig(visc=0.3, blowup_norm=1.6)
        u0s = np.concatenate([[0.0 * profile, -0.7 * profile, 1.25 * profile, 2.5 * profile], rng.standard_normal((2, m))])
        specs = [ProblemSpec(Quadratic(space), None, pair, u0, forcing, grid) for u0 in u0s]
        specs = [dataclasses.replace(spec, phi1=specs[0].phi1) for spec in specs]
        forcing_path = specs[0].forcing_path()
        outcomes = {}
        for keep in (True, False):
            refs = _solve_loop(specs[0], config, forcing_path, u0s, specs[0].phi1.values(u0s), [None] * len(specs), keep)
            outcomes[keep] = got = list(solve_dc_rows(specs, config, keep))
            for spec, row, ref in zip(specs, got, refs):
                assert_matches_reference(row, ref)
                (alone,) = solve_dc_rows([spec], config, keep)
                for field in dataclasses.fields(Trajectory):
                    a, b = getattr(alone, field.name), getattr(row, field.name)
                    assert (a is None and b is None) or field.name == "grid" or np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name
        for kept, lean in zip(outcomes[True], outcomes[False]):
            for name in ("energy1", "norms", "envelope2", "node", "reason", "e_t"):
                assert np.asarray(getattr(lean, name)).tobytes() == np.asarray(getattr(kept, name)).tobytes(), name
        # the row from 1.25 leaves on its way to the forcing's level, the
        # row from 2.5 at node 1, the others reach T
        assert [row.reason for row in outcomes[True]] == [None, None, "norm-threshold", "norm-threshold", None, None]

    def test_non_finite_step_data_in_a_batch(self):
        # a NaN forcing at node 300 stops every row there, each by the rule
        # of _Batch.fail: a norm-threshold exit at 299 from a large state,
        # the exception from a small one
        n = 2 * self.B + 37
        spec = scalar_spec(n=n)
        spec.forcing = lambda t: np.array([100.0])
        u0s = np.array([[0.0], [1.0], [40.0]])
        forcing_path = spec.forcing_path()
        forcing_path[300] = np.nan
        config = SolverConfig(blowup_norm=1e3)
        for keep in (True, False):
            refs = _solve_loop(spec, config, forcing_path, u0s, spec.phi1.values(u0s), [None] * 3, keep)
            got = _solve_linear(spec, config, forcing_path, u0s, spec.phi1.values(u0s), [None] * 3, keep)
            for row, ref in zip(got, refs):
                assert_matches_reference(row, ref)
            assert [getattr(row, "node", None) for row in got] == [300, 300, 300]


class TestContinuityModulus:
    def test_stationary_trajectory(self):
        spec = ProblemSpec(Quadratic(Space(2)), None, rl_pair(0.5), np.zeros(2), None, TimeGrid(1.0, 128))
        traj = solve_dc_flow(spec)
        rep = continuity_modulus(traj.states, traj.grid, traj.space_weight, rl_pair(0.5))
        np.testing.assert_array_equal(rep.details["moduli"], 0.0)
        assert rep.passed

    def test_scalar_flow_bound_and_scaling(self):
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=1024))
        rep = continuity_modulus(traj.states, traj.grid, traj.space_weight, rl_pair(0.5))
        assert rep.passed
        # modulus at small lags scales like h^{1/2} = h^{alpha}
        slope = np.polyfit(np.log(rep.details["lags"][:6]), np.log(rep.details["moduli"][:6]), 1)[0]
        assert 0.35 <= slope <= 0.7

    def test_initial_continuity(self):
        # ||u_1 - u_0|| obeys the lag-tau bound: u(0) = u0 attainment
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=512))
        rep = continuity_modulus(traj.states, traj.grid, traj.space_weight, rl_pair(0.5))
        first_gap = abs(traj.states[1, 0] - traj.states[0, 0])
        assert first_gap <= rep.details["bounds"][0] + rep.details["slack"]


def certify_dump(path, tmp_path):
    # the exit code of ``fraflow certify`` on the dump at path
    config = tmp_path / "certify.json"
    config.write_text(json.dumps({"mode": "certify", "certify": {"dump": str(path)}}))
    return main(["certify", "--config", str(config), "--out", str(tmp_path / "out")])


def reference_trajectory_csv(traj, path):
    # the per-value writer trajectory_to_csv replaced; its bytes are the contract
    with open(path, "w", newline="\n") as fh:
        fh.write("j,t,norm,energy1,envelope2,residual\n")
        for j in range(traj.grid.steps + 1):
            row = [str(j)] + [
                format(float(x), ".17g")
                for x in (j * traj.grid.tau, traj.norms[j], traj.energy1[j], traj.envelope2[j], traj.residuals[j])
            ]
            fh.write(",".join(row) + "\n")


class TestSerialization:
    def test_csv_matches_per_value_reference(self, tmp_path):
        special = [
            np.inf,
            -np.inf,
            np.nan,
            -np.nan,
            0.0,
            -0.0,
            5e-324,
            2.2250738585072009e-308,
            1e-300,
            -1e-300,
            0.1,
            1.0 / 3.0,
            2.0 / 3.0,
            1e16 + 2.0,
            1.7976931348623157e308,
            123456789.12345679,
        ]
        rng = np.random.default_rng(11)
        # random bit patterns: every exponent range, NaN payloads included
        bits = rng.integers(0, 2**64, size=240, dtype=np.uint64).view(np.float64)
        values = np.concatenate([special, bits])
        traj = solve_dc_flow(scalar_spec(n=values.size - 1, horizon=0.7))
        columns = {
            "norms": values,
            "energy1": np.roll(values, 1),
            "envelope2": np.roll(values, 2),
            "residuals": -values,
        }
        for case, candidate in (("solved", traj), ("special", dataclasses.replace(traj, **columns))):
            got, want = tmp_path / f"{case}.csv", tmp_path / f"{case}-ref.csv"
            trajectory_to_csv(candidate, got)
            reference_trajectory_csv(candidate, want)
            assert got.read_bytes() == want.read_bytes(), case

    def test_csv_format(self, tmp_path):
        traj = solve_dc_flow(scalar_spec(n=16))
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "j,t,norm,energy1,envelope2,residual"
        assert len(lines) == 18
        assert lines[1].startswith("0,0,1,0.5,")

    def test_dump_round_trip(self, tmp_path):
        traj = solve_dc_flow(scalar_spec(n=32))
        path = tmp_path / "state.bin"
        save_state_dump(traj, path)
        data = load_state_dump(path)
        np.testing.assert_array_equal(data["states"], traj.states)
        assert data["alpha"] == 0.5
        assert data["grid"] == TimeGrid(1.0, 32)

    def test_dump_carries_weight_and_state_shape(self, tmp_path):
        traj = solve_dc_flow(scalar_spec(n=32))
        shaped = dataclasses.replace(traj, states=traj.states.reshape(33, 1, 1), space_weight=0.25)
        path = tmp_path / "state.bin"
        save_state_dump(shaped, path)
        data = load_state_dump(path)
        assert data["states"].shape == (33, 1, 1)
        np.testing.assert_array_equal(data["states"], shaped.states)
        assert data["space_weight"] == 0.25

    def test_version_1_dump_is_rejected(self, tmp_path):
        # version 1 carries no space weight: a p-Laplace dump read with
        # weight 1 would be certified in the wrong norm
        states = np.arange(3 * 17, dtype=np.float64).reshape(17, 3)
        header = b"FFLW" + struct.pack("<III", 1, 3, 16) + struct.pack("<dd", 2.0, 0.25)
        path = tmp_path / "v1.bin"
        path.write_bytes(header + states.astype("<f8").tobytes())
        with pytest.raises(DumpFormatError, match="unsupported version 1"):
            load_state_dump(path)
        assert certify_dump(path, tmp_path) == 66

    @pytest.mark.parametrize(
        "field, value",
        [
            ("m", 0),
            ("n", 0),
            ("horizon", -1.0),
            ("horizon", 0.0),
            ("horizon", np.nan),
            ("horizon", np.inf),
            ("alpha", 1.5),
            ("alpha", 0.0),
            ("alpha", 1.0),
            ("alpha", -np.inf),
            ("weight", np.inf),
            ("weight", np.nan),
            ("weight", 0.0),
            ("weight", -0.25),
        ],
    )
    def test_bad_header_values_are_rejected(self, tmp_path, field, value):
        header = {"m": 3, "n": 16, "horizon": 2.0, "alpha": 0.25, "weight": 0.5}
        header[field] = value
        states = np.ones((header["n"] + 1, header["m"]))
        path = tmp_path / "bad.bin"
        path.write_bytes(
            b"FFLW"
            + struct.pack("<III", 2, header["m"], header["n"])
            + struct.pack("<dddI", header["horizon"], header["alpha"], header["weight"], 1)
            + struct.pack("<I", header["m"])
            + states.astype("<f8").tobytes()
        )
        with pytest.raises(DumpFormatError, match="bad header values"):
            load_state_dump(path)
        assert certify_dump(path, tmp_path) == 66

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_state_is_rejected(self, tmp_path, value):
        # certify would write NaN (not JSON) into certificates.json
        traj = solve_dc_flow(scalar_spec(n=32))
        traj.states[5] = value
        path = tmp_path / "state.bin"
        save_state_dump(traj, path)
        with pytest.raises(DumpFormatError, match="non-finite state at node 5"):
            load_state_dump(path)
        assert certify_dump(path, tmp_path) == 66
        assert not (tmp_path / "out" / "certificates.json").exists()

    def test_dump_truncation_detected(self, tmp_path):
        traj = solve_dc_flow(scalar_spec(n=32))
        path = tmp_path / "state.bin"
        save_state_dump(traj, path)
        blob = path.read_bytes()
        (tmp_path / "cut.bin").write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DumpFormatError):
            load_state_dump(tmp_path / "cut.bin")

    def test_dump_bad_magic_detected(self, tmp_path):
        (tmp_path / "junk.bin").write_bytes(b"not a dump at all, promise")
        with pytest.raises(DumpFormatError):
            load_state_dump(tmp_path / "junk.bin")


class CountingPower(PowerPotential):
    """A power potential that records how many rows each Yosida call gets."""

    def __init__(self, space, q):
        super().__init__(space, q)
        self.rows = []

    def yosida(self, w, lam, tol=1e-10):
        self.rows.append(len(self.space.rows(w)))
        return super().yosida(w, lam, tol=tol)


class TestBatchedRows:
    """solve_dc_rows marches rows that share everything but u0 and phi2 as one batch."""

    def specs(self, u0s, phi2=None, n=128):
        # one phi1, phi2, kernel pair and grid object for every row
        phi1, pair, grid = Quadratic(Space(2)), rl_pair(0.5), TimeGrid(1.0, n)
        return [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0 in u0s]

    def test_each_row_is_its_single_run(self):
        config = SolverConfig(yosida_lam=1e-3, blowup_norm=1e3)
        u0s = [[0.5, -0.2], [3.0, 2.0], [1.0, 0.0], [8.0, -8.0]]
        phi2 = PowerPotential(Space(2), 4)
        batch = list(solve_dc_rows(self.specs(u0s, phi2), config))
        for u0, got in zip(u0s, batch):
            (alone,) = solve_dc_rows(self.specs([u0], phi2), config)
            assert got.reason == alone.reason
            if got.reason is None:
                np.testing.assert_array_equal(got.states, alone.states)
                np.testing.assert_array_equal(got.residuals, alone.residuals)
                assert got.e_t == alone.e_t
            else:
                assert (got.node, got.reason) == (alone.node, alone.reason)
                np.testing.assert_array_equal(got.norms, alone.norms)
        assert {got.reason is None for got in batch} == {True, False}

    @pytest.mark.parametrize("stalling", ["phi1", "phi2", "phi2-coupled"])
    def test_a_stalled_row_leaves_the_others_marching(self, stalling):
        # the second row stalls at a bounded state: its error is its
        # outcome, as when it runs alone, and the first row completes.
        # Coupled, the stall comes from the Picard loop, which raises for
        # the batch and again for the row alone
        if stalling.startswith("phi2"):
            specs = self.specs([[0.1, 0.1], [3.0, 3.0]], TestBlowUp.StallingPower(Space(2), 4), n=256)
        else:
            phi1, pair, grid = RaisingQuadratic(Space(2), 10.0, ProxNonconvergence(1.0, 200)), rl_pair(0.5), TimeGrid(1.0, 256)
            specs = [ProblemSpec(phi1, None, pair, np.array(u0), None, grid) for u0 in ([0.1, 0.1], [30.0, 30.0])]
        if stalling == "phi2-coupled":
            config = SolverConfig(yosida_lam=0.2, blowup_norm=1e6, coupling="coupled")
        else:
            config = SolverConfig(yosida_lam=1e-3, blowup_norm=1e6)
        small, stalled = solve_dc_rows(specs, config)
        assert isinstance(small, Trajectory) and small.reason is None
        assert isinstance(stalled, ProxNonconvergence)
        with pytest.raises(ProxNonconvergence) as alone_stalled:
            solve_dc_flow(specs[1], config)
        assert str(stalled) == str(alone_stalled.value)
        # the step the rows took one by one is bitwise the single run's
        alone = solve_dc_flow(specs[0], config)
        for name in ("states", "xi", "eta", "envelope2", "residuals"):
            assert getattr(small, name).tobytes() == getattr(alone, name).tobytes(), name

    @pytest.mark.parametrize("coupling", ["semi_implicit", "coupled"])
    def test_a_non_finite_row_leaves_the_others_marching(self, coupling):
        # the resolvent takes the middle row to NaN: that row ends
        # "non-finite", as when it runs alone, and the others complete;
        # each row is bitwise its single run
        if coupling == "coupled":
            config = SolverConfig(yosida_lam=0.2, coupling="coupled")
        else:
            config = SolverConfig(yosida_lam=1e-3)
        phi1, phi2, pair, grid = NanAbove(Space(2), 5.0), PowerPotential(Space(2), 4), rl_pair(0.5), TimeGrid(1.0, 256)
        specs = [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0 in ([0.1, 0.1], [3.0, 3.0], [0.5, -0.2])]
        batch = list(solve_dc_rows(specs, config))
        assert [got.reason for got in batch] == [None, "non-finite", None]
        for spec, got in zip(specs, batch):
            alone = solve_dc_flow(spec, config)
            assert (got.node, got.reason, got.e_t) == (alone.node, alone.reason, alone.e_t)
            names = ["energy1", "envelope2", "norms"]
            if got.reason is None:
                names += ["states", "xi", "eta", "residuals"]
            for name in names:
                assert getattr(got, name).tobytes() == getattr(alone, name).tobytes(), name
        assert len(batch[1].norms) == batch[1].node and np.all(np.isfinite(batch[1].norms))

    @pytest.mark.parametrize("keep", [True, False])
    def test_interleaved_phi2_rows_are_their_single_runs(self, keep):
        # rows of q = 3 and q = 4 alternate in one batch: each potential is
        # evaluated on its own rows, and each row is bitwise its single run
        config = SolverConfig(yosida_lam=1e-3, blowup_norm=1e3)
        phi1, pair, grid = Quadratic(Space(2)), rl_pair(0.5), TimeGrid(1.0, 128)
        cubic, quartic = CountingPower(Space(2), 3), CountingPower(Space(2), 4)
        u0s = [[0.5, -0.2], [3.0, 2.0], [8.0, -8.0], [1.0, 0.0], [0.2, 0.1], [12.0, 5.0]]
        phi2s = [cubic, quartic] * 3
        specs = [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0, phi2 in zip(u0s, phi2s)]
        batch = list(solve_dc_rows(specs, config, keep))
        # one call per potential and evaluation, each on its own rows only
        assert cubic.rows[0] == quartic.rows[0] == 3
        assert max(cubic.rows + quartic.rows) == 3
        assert len(cubic.rows) == len(quartic.rows) == 129
        kinds = []
        for spec, got in zip(specs, batch):
            (alone,) = solve_dc_rows([spec], config, keep)
            assert got.reason == alone.reason
            kinds.append((spec.phi2.q, got.reason is None))
            if got.reason is None:
                if keep:
                    for name in ("states", "xi", "eta", "residuals"):
                        np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
                else:
                    assert got.states is got.xi is got.eta is got.residuals is None
                for name in ("energy1", "envelope2", "norms"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
                assert got.e_t == alone.e_t
            else:
                assert (got.node, got.t_star, got.reason, got.e_t) == (alone.node, alone.t_star, alone.reason, alone.e_t)
                np.testing.assert_array_equal(got.norms, alone.norms)
                np.testing.assert_array_equal(got.energy1, alone.energy1)
        assert set(kinds) == {(q, done) for q in (3, 4) for done in (True, False)}

    def test_interleaved_phi2_rows_in_coupled_mode(self):
        # the Picard iterates take each potential on its own rows too; the
        # first row leaves at node 1 (phi1 = 1.625 > blowup_energy), so the
        # live rows' positions are no longer their batch rows
        config = SolverConfig(yosida_lam=1.0, coupling="coupled", blowup_energy=1.0)
        phi1, pair, grid = Quadratic(Space(2)), rl_pair(0.5), TimeGrid(1.0, 256)
        cubic, quartic = CountingPower(Space(2), 3), CountingPower(Space(2), 4)
        rows = [([1.5, 1.0], cubic), ([0.5, -0.2], quartic), ([0.9, 0.4], cubic), ([0.3, 0.1], quartic)]
        specs = [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0, phi2 in rows]
        left, *batch = solve_dc_rows(specs, config)
        assert (left.node, left.reason) == (1, "energy-threshold")
        assert max(cubic.rows + quartic.rows) == 2
        for spec, got in zip(specs[1:], batch):
            alone = solve_dc_flow(spec, config)
            for name in ("states", "eta", "residuals"):
                np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))

    @pytest.mark.parametrize("coupling", ["semi_implicit", "coupled"])
    def test_interleaved_plain_power_rows_are_their_single_runs(self, coupling, monkeypatch):
        # plain potentials of q = 1.5, 2, 3 and 4 alternate in one batch:
        # every evaluation takes one power_prox_abs call for all live rows,
        # and each row is bitwise its single run.  Semi-implicit, rows blow
        # up on the way; coupled, the first row leaves at node 1
        # (phi1 = 1.625 > blowup_energy), so the live rows' positions are no
        # longer their batch rows
        if coupling == "coupled":
            config, n = SolverConfig(yosida_lam=1.0, coupling="coupled", blowup_energy=1.0), 256
            u0s = [[1.5, 1.0], [0.5, -0.2], [0.9, 0.4], [0.3, 0.1], [0.2, -0.6], [0.7, 0.0], [0.4, 0.4], [-0.6, 0.3]]
        else:
            config, n = SolverConfig(yosida_lam=1e-3, blowup_norm=1e3), 128
            u0s = [[0.5, -0.2], [3.0, 2.0], [8.0, -8.0], [1.0, 0.0], [0.2, 0.1], [12.0, 5.0], [2.0, 2.0], [-9.0, 1.0]]
        phi1, pair, grid = Quadratic(Space(2)), rl_pair(0.5), TimeGrid(1.0, n)
        phi2s = [PowerPotential(Space(2), q) for q in (1.5, 2.0, 3.0, 4.0)] * 2
        specs = [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0, phi2 in zip(u0s, phi2s)]
        calls = []
        prox_abs = fraflow.convex.power_prox_abs
        monkeypatch.setattr(fraflow.convex, "power_prox_abs", lambda *args: calls.append(len(args[0])) or prox_abs(*args))
        batch = list(solve_dc_rows(specs, config))
        if coupling == "semi_implicit":
            # the envelope at u0 and each step, until the last row leaves
            last = max(n if got.reason is None else got.node for got in batch)
            assert len(calls) == last + 1
        assert calls[0] == len(specs)
        kinds = set()
        for spec, got in zip(specs, batch):
            alone = solve_dc_flow(spec, config)
            assert got.reason == alone.reason
            kinds.add(got.reason is None)
            if got.reason is None:
                for name in ("states", "xi", "eta", "residuals", "energy1", "envelope2", "norms"):
                    np.testing.assert_array_equal(getattr(got, name), getattr(alone, name))
            else:
                assert (got.node, got.reason) == (alone.node, alone.reason)
                np.testing.assert_array_equal(got.norms, alone.norms)
                np.testing.assert_array_equal(got.energy1, alone.energy1)
        assert kinds == {True, False}

    def test_a_stalling_phi2_leaves_the_rows_of_another_marching(self):
        # the q = 4 potential stalls on its second row at a bounded state:
        # that row's error is its outcome, and the q = 3 rows march to
        # their single-run ends
        config = SolverConfig(yosida_lam=1e-3, blowup_norm=1e6)
        phi1, pair, grid = Quadratic(Space(2)), rl_pair(0.5), TimeGrid(1.0, 256)
        stalling, cubic = TestBlowUp.StallingPower(Space(2), 4), PowerPotential(Space(2), 3)
        rows = [([0.1, 0.1], stalling), ([0.2, 0.1], cubic), ([3.0, 3.0], stalling), ([0.5, -0.5], cubic)]
        specs = [ProblemSpec(phi1, phi2, pair, np.array(u0), None, grid) for u0, phi2 in rows]
        small, first, stalled, second = solve_dc_rows(specs, config)
        assert isinstance(stalled, ProxNonconvergence)
        with pytest.raises(ProxNonconvergence):
            solve_dc_flow(specs[2], config)
        for spec, got in zip(specs[:2] + specs[3:], (small, first, second)):
            assert isinstance(got, Trajectory) and got.reason is None
            np.testing.assert_array_equal(got.states, solve_dc_flow(spec, config).states)

    def test_rows_have_a_phi2_all_or_none(self):
        first, second = self.specs([[1.0, 0.0], [0.0, 1.0]], PowerPotential(Space(2), 4))
        with pytest.raises(ValueError, match="a phi2 all or none"):
            list(solve_dc_rows([first, dataclasses.replace(second, phi2=None)]))

    def test_rows_must_share_the_problem(self):
        first, second = self.specs([[1.0, 0.0], [0.0, 1.0]])
        other = dataclasses.replace(second, phi1=Quadratic(Space(2)))
        with pytest.raises(ValueError, match="share everything but u0"):
            list(solve_dc_rows([first, other]))

    def test_chunks_match_one_batch(self, monkeypatch):
        u0s = [[0.5, -0.2], [3.0, 2.0], [1.0, 0.0]]
        phi2 = PowerPotential(Space(2), 4)
        whole = list(solve_dc_rows(self.specs(u0s, phi2)))
        # a budget below one row's buffers: every row is its own chunk
        monkeypatch.setattr(fraflow.solver, "BATCH_BYTES", 1)
        chunked = list(solve_dc_rows(self.specs(u0s, phi2)))
        for a, b in zip(whole, chunked):
            assert a.reason == b.reason
            np.testing.assert_array_equal(a.energy1, b.energy1)
