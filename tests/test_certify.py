import json
import math

import numpy as np
import pytest
from scipy.special import erfc

from fraflow.certify import (
    GronwallLinearInstance,
    GronwallLocalInstance,
    GronwallSmallInstance,
    check_ab_inequality,
    check_chain_rule,
    gronwall_linear,
    gronwall_local,
    gronwall_small,
    mittag_leffler,
    picard_from_equality,
    random_linear_instance,
    random_local_instance,
    random_small_instance,
    sample_conv,
    scalar_flow_solution,
    slack_budget,
)
from fraflow.convex import PowerPotential, Quadratic, Space
from fraflow.kernels import TimeGrid, rl_pair
from fraflow.solver import ProblemSpec, SolverConfig, solve_dc_flow


class TestMittagLeffler:
    def test_at_zero(self):
        for alpha in (0.1, 0.5, 0.9, 1.0):
            assert mittag_leffler(alpha, 0.0) == 1.0

    def test_exponential_special_case(self):
        assert mittag_leffler(1.0, -1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_erfc_identity_at_half(self):
        # E_{1/2}(-x) = exp(x^2) erfc(x)
        for x in (0.5, 1.0, 2.0):
            expected = math.exp(x * x) * erfc(x)
            assert mittag_leffler(0.5, -x) == pytest.approx(expected, rel=1e-12)

    def test_value_at_minus_one(self):
        assert mittag_leffler(0.5, -1.0) == pytest.approx(0.4275836, abs=5e-8)

    def test_switch_continuity(self):
        # series on one side of |z| = 5, spectral integral on the other
        for alpha in (0.3, 0.5, 0.7, 0.9):
            left = mittag_leffler(alpha, -5.0 + 1e-9)
            right = mittag_leffler(alpha, -5.0 - 1e-9)
            assert abs(left - right) <= 1e-8

    def test_monotone_on_branch(self):
        for alpha in (0.3, 0.7):
            vals = [mittag_leffler(alpha, -z) for z in np.linspace(0.0, 30.0, 40)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert all(0.0 < v <= 1.0 for v in vals)

    def test_rejects_off_branch(self):
        with pytest.raises(ValueError):
            mittag_leffler(0.5, 1.0)
        with pytest.raises(ValueError):
            mittag_leffler(1.5, -1.0)

    def test_scalar_flow_solution_path(self):
        times = np.array([0.0, 0.25, 1.0])
        path = scalar_flow_solution(0.5, times)
        assert path[0] == 1.0
        assert path[2] == pytest.approx(0.4275836, abs=5e-8)


class TestSampleConv:
    def test_left_rectangle_rule(self):
        tau = 0.25
        g = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        phi = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
        out = sample_conv(g, phi, tau)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(tau * 1.0)
        assert out[2] == pytest.approx(tau * (2.0 + 1.0))

    def test_picard_equality_closure(self, rng):
        n = 64
        tau = 1.0 / n
        h = rng.uniform(0.1, 1.0, n + 1)
        g = rng.uniform(0.0, 2.0, n + 1)
        phi = picard_from_equality(h, g, lambda v: v, tau)
        np.testing.assert_allclose(phi, h + sample_conv(g, phi, tau), atol=1e-12)


class TestGronwallLinear:
    def test_zero_kernel(self):
        n = 128
        ones = np.ones(n + 1)
        cert = gronwall_linear(GronwallLinearInstance(tau=1.0 / n, phi=0.9 * ones, h=ones, g=np.zeros(n + 1), r=2.0))
        assert cert.passed
        assert cert.details["M"] == 0.0
        assert cert.details["C0"] == 2.0

    def test_unit_data_bisection(self):
        # phi = h = g = 1 on (0,1): M solves (1 - e^-M)/M = 1/2
        n = 2048
        ones = np.ones(n + 1)
        cert = gronwall_linear(GronwallLinearInstance(tau=1.0 / n, phi=ones, h=ones, g=ones, r=np.inf))
        assert cert.passed
        # independent oracle: dense scan of the continuous functional
        from scipy.optimize import brentq

        m_star = brentq(lambda m: (1 - math.exp(-m)) / m - 0.5, 1e-6, 10)
        assert cert.details["M"] == pytest.approx(m_star, abs=5e-3)
        assert cert.details["C0"] == pytest.approx(2 * math.exp(cert.details["M"]), rel=1e-12)

    def test_hypothesis_violation_rejected(self):
        n = 32
        ones = np.ones(n + 1)
        cert = gronwall_linear(GronwallLinearInstance(tau=1.0 / n, phi=3 * ones, h=ones, g=np.zeros(n + 1), r=np.inf))
        assert cert.rejected
        assert "violation" in cert.details

    def test_hundred_picard_instances(self):
        rng = np.random.default_rng(7)
        results = [gronwall_linear(random_linear_instance(rng)) for _ in range(100)]
        assert sum(c.passed for c in results) == 100


class TestGronwallLocal:
    def test_zero_kernel_capped_horizon(self):
        n = 64
        g = np.zeros(n + 1)
        ins = GronwallLocalInstance(tau=1.0 / n, a=0.5, big_m=lambda r: 1.0 + r, g=g)
        cert = gronwall_local(ins, np.full(n + 1, 0.4))
        assert cert.passed
        assert cert.details["R_capped_at_horizon"]

    def test_example_threshold(self):
        # a=0, M(r)=r+1, g=1: R just under 1/(4 M(1)) = 1/8
        n = 256
        g = np.ones(n + 1)
        big_m = lambda r: r + 1.0
        ins = GronwallLocalInstance(tau=1.0 / n, a=0.0, big_m=big_m, g=g)
        phi = picard_from_equality(np.zeros(n + 1), g, big_m, 1.0 / n)
        cert = gronwall_local(ins, phi)
        assert cert.passed
        assert 0.1 < cert.details["R"] <= 0.125
        assert cert.details["sup_phi"] <= 1.0

    def test_discontinuous_path_certifies(self):
        # oscillating offsets below a, folded into the forward substitution:
        # the hypothesis holds by construction while phi itself jumps at
        # every node (continuity of phi is NOT required by the lemma)
        n = 128
        tau = 1.0 / n
        g = np.ones(n + 1)
        big_m = lambda r: 1.0 + max(r, 0.0)
        a = 0.25
        offsets = a - 0.2 * (np.arange(n + 1) % 2)
        step = picard_from_equality(offsets, g, big_m, tau)
        assert np.max(np.abs(np.diff(step))) > 0.1  # genuinely discontinuous
        ins = GronwallLocalInstance(tau=tau, a=a, big_m=big_m, g=g)
        conv = a + sample_conv(g, np.array([big_m(v) for v in step]), tau)
        assert np.all(step <= conv + 1e-12)
        cert = gronwall_local(ins, step)
        assert cert.passed

    def test_hundred_picard_instances(self):
        rng = np.random.default_rng(11)
        ok = 0
        for _ in range(100):
            ins, phi = random_local_instance(rng)
            ok += gronwall_local(ins, phi).passed
        assert ok == 100


class TestGronwallSmall:
    def test_zero_transform(self):
        n = 64
        ins = GronwallSmallInstance(tau=1.0 / n, b=0.3, delta=1.0, n_fn=lambda r: 0.0, g=np.ones(n + 1))
        cert = gronwall_small(ins, np.full(n + 1, 0.3))
        assert cert.passed

    def test_example_instance(self):
        n = 256
        tau = 1.0 / n
        g = np.ones(n + 1)
        n_fn = lambda r: r * r - r
        ins = GronwallSmallInstance(tau=tau, b=0.1, delta=1.0, n_fn=n_fn, g=g)
        phi = picard_from_equality(np.full(n + 1, 0.1), g, n_fn, tau)
        cert = gronwall_small(ins, phi)
        assert cert.passed
        assert cert.details["sup_phi"] <= 0.1 + cert.details["eps_grid"]

    def test_b_geq_delta_rejected(self):
        ins = GronwallSmallInstance(tau=0.1, b=1.0, delta=0.5, n_fn=lambda r: -r, g=np.ones(11))
        assert gronwall_small(ins, np.zeros(11)).rejected

    def test_positive_transform_rejected(self):
        ins = GronwallSmallInstance(tau=0.1, b=0.1, delta=1.0, n_fn=lambda r: 0.5, g=np.ones(11))
        assert gronwall_small(ins, np.full(11, 0.1)).rejected

    def test_hundred_picard_instances(self):
        rng = np.random.default_rng(13)
        ok = 0
        for _ in range(100):
            ins, phi = random_small_instance(rng)
            ok += gronwall_small(ins, phi).passed
        assert ok == 100


class TestCertificateSerialization:
    def test_json_round_trip(self):
        n = 32
        ones = np.ones(n + 1)
        cert = gronwall_linear(GronwallLinearInstance(tau=1.0 / n, phi=ones, h=2 * ones, g=np.zeros(n + 1), r=1.0))
        payload = json.loads(cert.to_json())
        assert payload["lemma"] == "gronwall-linear"
        assert payload["status"] in ("pass", "fail", "reject")


class TestChainRule:
    def test_stationary_margins_vanish(self):
        # u == u0 == argmin phi1: both sides of both forms are exactly zero
        for phi in (Quadratic(Space(3)), PowerPotential(Space(3), 4)):
            spec = ProblemSpec(phi, None, rl_pair(0.5), np.zeros(3), None, TimeGrid(1.0, 64))
            traj = solve_dc_flow(spec)
            rep = check_chain_rule(traj, phi, rl_pair(0.5))
            assert abs(rep.min_margin_cumulative) <= 1e-10
            assert abs(rep.min_margin_pointwise) <= 1e-10
            assert rep.passed

    def test_quadratic_flow_passes_with_fitted_slack(self):
        # slack coefficient 0.5 frozen from the refinement ladder (the
        # quadrature diagnostic of form (ii) runs ~ -0.21 sqrt(tau) there;
        # the gating exact-inverse margins are nonnegative outright)
        phi = Quadratic(Space(1))
        spec = ProblemSpec(phi, None, rl_pair(0.5), np.array([1.0]), None, TimeGrid(1.0, 1024))
        traj = solve_dc_flow(spec)
        rep = check_chain_rule(traj, phi, rl_pair(0.5), slack_coeff=0.5)
        assert rep.passed
        assert rep.inverse_order_preserving
        assert rep.min_margin_cumulative >= -1e-10  # form (i) holds discretely
        assert rep.min_margin_pointwise >= -1e-10  # form (ii) via the exact inverse

    def test_quadrature_diagnostic_shrinks_under_refinement(self):
        # the product-integration conjugate keeps a visible O(sqrt(tau))
        # defect on this nonstiff family; it must decay with refinement
        phi = Quadratic(Space(1))
        margins = []
        for n in (256, 1024):
            spec = ProblemSpec(phi, None, rl_pair(0.5), np.array([1.0]), None, TimeGrid(1.0, n))
            traj = solve_dc_flow(spec)
            rep = check_chain_rule(traj, phi, rl_pair(0.5))
            margins.append(rep.min_margin_quadrature)
        assert margins[0] < 0 < margins[1] or margins[1] > margins[0]


class TestDerivativePairing:
    def test_viscous_trajectories(self):
        for visc in (1.0, 0.1):
            spec = ProblemSpec(
                Quadratic(Space(1)), PowerPotential(Space(1), 4), rl_pair(0.5), np.array([0.8]), None, TimeGrid(1.0, 256)
            )
            traj = solve_dc_flow(spec, SolverConfig(visc=visc))
            cert = check_ab_inequality(traj, rl_pair(0.5), slack_coeff=0.1)
            assert cert.passed, cert.to_dict()

    def test_slack_budget_model(self):
        assert slack_budget(0.01, 0.0) == pytest.approx(1e-8)
        assert slack_budget(0.04, 2.0) == pytest.approx(1e-8 + 0.4)
