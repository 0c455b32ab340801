import dataclasses
import struct

import numpy as np
import pytest

from fraflow.certify import mittag_leffler
from fraflow.convex import PowerPotential, Quadratic, Space
from fraflow.kernels import TimeGrid, rl_pair
from fraflow.solver import (
    BlowUpReport,
    DumpFormatError,
    LipschitzPerturbation,
    ProblemSpec,
    SolverConfig,
    Trajectory,
    continuity_modulus,
    load_state_dump,
    save_state_dump,
    solve_dc_flow,
    solve_lipschitz_perturbed,
    trajectory_to_csv,
)


def scalar_spec(alpha=0.5, n=512, u0=1.0, phi2=None, horizon=1.0):
    sp = Space(1)
    return ProblemSpec(Quadratic(sp), phi2, rl_pair(alpha), np.array([u0]), None, TimeGrid(horizon, n))


class TestScalarFlow:
    def test_mittag_leffler_endpoint(self):
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=1024))
        exact = mittag_leffler(0.5, -1.0)
        assert abs(traj.final_state[0] - exact) / exact <= 2e-3

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
                gap = phi.value(probe) - phi.value(u) - phi.space.inner(xi, probe - u)
                assert gap >= -1e-9

    def test_forcing_callable_and_array_agree(self):
        n = 64
        grid = TimeGrid(1.0, n)
        f_call = lambda t: np.array([np.sin(t)])
        f_arr = np.sin(grid.times)[:, None]
        t1 = solve_dc_flow(ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([1.0]), f_call, grid))
        t2 = solve_dc_flow(ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([1.0]), f_arr, grid))
        np.testing.assert_allclose(t1.states, t2.states, atol=1e-14)

    def test_rejects_infinite_initial_energy(self):
        with pytest.raises(ValueError):
            ProblemSpec(Quadratic(Space(1)), None, rl_pair(0.5), np.array([np.inf]), None, TimeGrid(1.0, 8))


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
    def test_disabled_kernel_is_implicit_euler(self):
        n = 128
        spec = ProblemSpec(Quadratic(Space(1)), None, None, np.array([1.0]), None, TimeGrid(1.0, n))
        traj = solve_dc_flow(spec, SolverConfig(visc=1.0))
        expected = (1.0 + 1.0 / n) ** (-np.arange(n + 1))
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-13)

    def test_disabled_kernel_requires_viscosity(self):
        spec = ProblemSpec(Quadratic(Space(1)), None, None, np.array([1.0]), None, TimeGrid(1.0, 8))
        with pytest.raises(ValueError):
            solve_dc_flow(spec)

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
        assert isinstance(coup, Trajectory)
        assert np.max(np.abs(semi.states - coup.states)) <= 1e-2

    def test_divergence_reported_when_bounded(self):
        # step contraction factor mu/lam > 1 makes the inner loop diverge
        # while the state stays bounded: distinct from blow-up
        spec = scalar_spec(n=32, u0=0.9, phi2=PowerPotential(Space(1), 4))
        result = solve_dc_flow(spec, SolverConfig(yosida_lam=1e-4, coupling="coupled", max_picard=8))
        assert isinstance(result, BlowUpReport)
        assert result.reason == "inner-divergence"
        assert not result.blew_up


class TestBlowUp:
    def test_norm_threshold_crossing(self):
        # forcing-driven growth: du ~ lam_visc^-1 contributions exceed the cap
        phi2 = PowerPotential(Space(1), 4)
        spec = scalar_spec(n=256, u0=3.0, phi2=phi2)
        result = solve_dc_flow(spec, SolverConfig(yosida_lam=1e-3, blowup_norm=1e3))
        assert isinstance(result, BlowUpReport)
        assert result.reason in ("norm-threshold", "energy-threshold")
        assert result.blew_up
        assert result.node >= 1
        assert len(result.norm_history) == result.node + 1
        assert result.e_t > 0

    def test_non_finite_state_is_not_completed(self):
        # a resolvent returning NaN on the last step must not end "completed"
        n = 16

        class NanOnLastStep(Quadratic):
            calls = 0

            def prox(self, w, lam, tol=1e-10):
                self.calls += 1
                z = super().prox(w, lam, tol=tol)
                return np.full_like(z, np.nan) if self.calls == n else z

        spec = ProblemSpec(NanOnLastStep(Space(1)), None, rl_pair(0.5), np.array([1.0]), None, TimeGrid(1.0, n))
        result = solve_dc_flow(spec)
        assert isinstance(result, BlowUpReport)
        assert result.reason == "non-finite"
        assert result.node == n
        assert len(result.norm_history) == n
        assert np.all(np.isfinite(result.norm_history))


class TestLipschitzPerturbed:
    def test_zero_perturbation_reduces_to_dc_flow(self):
        pert = LipschitzPerturbation(op=lambda w: 0.0 * w, lipschitz=0.0)
        spec = scalar_spec(n=128)
        traj, log = solve_lipschitz_perturbed(spec, SolverConfig(visc=1.0), pert)
        ref = solve_dc_flow(scalar_spec(n=128), SolverConfig(visc=1.0))
        np.testing.assert_allclose(traj.states, ref.states, atol=1e-12)
        assert log.kappa == 0.0

    def test_contraction_ratio_bound(self):
        # kappa = L_B / (omega * visc) = 0.5; measured Picard decay must
        # stay within kappa + 1e-2
        pert = LipschitzPerturbation(op=lambda w: 0.5 * w, lipschitz=0.5, weight=1.0)
        traj, log = solve_lipschitz_perturbed(scalar_spec(n=256), SolverConfig(visc=1.0), pert)
        assert log.kappa == pytest.approx(0.5)
        assert log.ratios, "expected at least one measured ratio"
        assert max(log.ratios) <= 0.5 + 1e-2
        assert log.geometric

    def test_rejects_kappa_geq_one(self):
        pert = LipschitzPerturbation(op=lambda w: 2.0 * w, lipschitz=2.0, weight=1.0)
        with pytest.raises(ValueError):
            solve_lipschitz_perturbed(scalar_spec(n=32), SolverConfig(visc=1.0), pert)

    def test_matches_coupled_yosida_route(self):
        # B = dphi2_lam is 1/lam-Lipschitz: the perturbed solve and the
        # coupled dc solve must agree
        lam = 1.0
        phi2 = PowerPotential(Space(1), 4)
        pert = LipschitzPerturbation(op=lambda w: -phi2.yosida(w, lam).rate, lipschitz=1.0 / lam, weight=3.0)
        spec = scalar_spec(n=256, u0=0.5)
        traj, log = solve_lipschitz_perturbed(spec, SolverConfig(visc=0.5), pert)
        ref_spec = scalar_spec(n=256, u0=0.5, phi2=phi2)
        ref = solve_dc_flow(ref_spec, SolverConfig(yosida_lam=lam, visc=0.5, coupling="coupled"))
        assert np.max(np.abs(traj.states - ref.states)) <= 1e-9
        assert log.geometric

    def test_semi_implicit_mode_without_viscosity(self):
        pert = LipschitzPerturbation(op=lambda w: 0.3 * w, lipschitz=0.3)
        traj, log = solve_lipschitz_perturbed(scalar_spec(n=128), SolverConfig(), pert)
        assert isinstance(traj, Trajectory)
        assert log.ratios == []
        scale = 1.0 + np.max(np.abs(traj.xi))
        assert np.max(traj.residuals) <= 1e-9 * scale


class TestContinuityModulus:
    def test_stationary_trajectory(self):
        spec = ProblemSpec(Quadratic(Space(2)), None, rl_pair(0.5), np.zeros(2), None, TimeGrid(1.0, 128))
        traj = solve_dc_flow(spec)
        rep = continuity_modulus(traj, rl_pair(0.5))
        np.testing.assert_array_equal(rep.moduli, 0.0)
        assert rep.passed

    def test_scalar_flow_bound_and_scaling(self):
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=1024))
        rep = continuity_modulus(traj, rl_pair(0.5))
        assert rep.passed
        # modulus at small lags scales like h^{1/2} = h^{alpha}
        slope = np.polyfit(np.log(rep.lags[:6]), np.log(rep.moduli[:6]), 1)[0]
        assert 0.35 <= slope <= 0.7

    def test_initial_continuity(self):
        # ||u_1 - u_0|| obeys the lag-tau bound: u(0) = u0 attainment
        traj = solve_dc_flow(scalar_spec(alpha=0.5, n=512))
        rep = continuity_modulus(traj, rl_pair(0.5))
        first_gap = abs(traj.states[1, 0] - traj.states[0, 0])
        assert first_gap <= rep.bounds[0] + rep.slack


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

    def test_version_1_dump_loads_flat_with_unit_weight(self, tmp_path):
        states = np.arange(3 * 17, dtype=np.float64).reshape(17, 3)
        header = b"FFLW" + struct.pack("<III", 1, 3, 16) + struct.pack("<dd", 2.0, 0.25)
        path = tmp_path / "v1.bin"
        path.write_bytes(header + states.astype("<f8").tobytes())
        data = load_state_dump(path)
        np.testing.assert_array_equal(data["states"], states)
        assert data["space_weight"] == 1.0
        assert data["grid"] == TimeGrid(2.0, 16)
        assert data["alpha"] == 0.25

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
