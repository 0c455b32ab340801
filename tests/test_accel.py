"""The inner kernels against their defining equations."""

import csv
import json

import numpy as np
import pytest
from scipy.linalg import toeplitz

import fraflow.convex
from fraflow._accel import (
    HISTORY_BLOCK,
    History,
    ProxNonconvergence,
    causal_conv,
    l1_history,
    power_prox_abs,
    toeplitz_inverse,
    volterra_sn,
)
from fraflow.cli import main
from fraflow.convex import Quadratic, Space
from fraflow.kernels import TimeGrid, conv_weights, inverse_weights, nonlocal_antiderivative, rl_pair
from fraflow.solver import ProblemSpec, load_state_dump, solve_dc_flow


def forward_substitution_antiderivative(kernel, b, grid):
    """Reference inverse of the discrete nonlocal derivative, node by node."""
    omega = conv_weights(kernel, grid).omega
    v = np.zeros_like(b)
    for j in range(1, grid.steps + 1):
        v[j] = (grid.tau * b[j] - l1_history(omega, v, j)) / omega[0]
    return v


def reference_power_prox_abs(a, lam, q, tol=1e-14, max_iter=200):
    """The power prox as Newton safeguarded by bisection on [0, a], written
    with a fresh array per operation: an independent solver of the same
    equation."""
    a = np.asarray(a, dtype=np.float64)
    lo = np.zeros_like(a)
    hi = a.copy()
    r = a / (1.0 + lam)
    for _ in range(max_iter):
        rq = np.power(np.maximum(r, 0.0), q - 2.0, where=r > 0, out=np.zeros_like(r))
        f = r + lam * rq * r - a
        lo = np.where(f < 0, r, lo)
        hi = np.where(f > 0, r, hi)
        if np.all(np.abs(f) <= tol * (1.0 + a)):
            break
        fp = 1.0 + lam * (q - 1.0) * rq
        step = f / fp
        r_new = r - step
        bad = (r_new <= lo) | (r_new >= hi) | ~np.isfinite(r_new)
        r = np.where(bad, 0.5 * (lo + hi), r_new)
    return r


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


B = HISTORY_BLOCK


def direct_history(omega, v, j):
    """sum_{i=1..j-1} (omega[j-i] - omega[j-i-1]) * v[i] term by term, and
    the same sum of magnitudes (the scale of its round-off)."""
    total, scale = np.zeros(v.shape[1:]), np.zeros(v.shape[1:])
    for i in range(1, j):
        term = (omega[j - i] - omega[j - i - 1]) * v[i]
        total += term
        scale += np.abs(term)
    return total, scale


def history_case(m, rng, n=4 * B + 7):
    omega = conv_weights(rl_pair(0.5).k, TimeGrid(1.0, n)).omega
    return omega, rng.standard_normal((n + 1, m))


@pytest.mark.parametrize("m", [1, 3])
def test_history_matches_the_direct_sum(m, rng):
    omega, v = history_case(m, rng)
    history = History(omega, v)
    checked = {1, 2, B - 1, B, B + 1, 2 * B, 3 * B + 5}
    for j in range(1, max(checked) + 1):
        h = history(j)
        if j in checked:
            expected, scale = direct_history(omega, v, j)
            assert np.all(np.abs(h - expected) <= 1e-13 * scale), j


def test_history_is_the_direct_sum_bitwise_below_one_block(rng):
    omega, v = history_case(3, rng)
    history = History(omega, v)
    for j in range(1, B):
        np.testing.assert_array_equal(history(j), l1_history(omega, v, j))


def test_history_reads_no_future_row(rng):
    omega, v = history_case(3, rng)
    path = np.full_like(v, np.nan)
    history = History(omega, path)
    for j in range(1, v.shape[0]):
        # the stepper's order: rows 0..j-1 known, j..N not yet
        path[j - 1] = v[j - 1]
        assert np.all(np.isfinite(history(j))), j


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


# 0 and 1e-3 .. 3e4; the top decade is the near-blow-up range
PROX_GRID = np.concatenate([[0.0], np.geomspace(1e-3, 3e4, 64)])
prox_cases = pytest.mark.parametrize("q, lam", [(q, lam) for q in (1.5, 2.5, 3.0, 4.0, 5.0) for lam in (1e-3, 0.1)])


def prox_residual(r, a, lam, q):
    return np.abs(r + lam * r ** (q - 1.0) - a)


@prox_cases
def test_power_prox_abs_matches_the_bracketed_reference(q, lam):
    # the iterates differ, so the roots agree to rounding, not bitwise; the
    # reference's tolerance stop is the looser one for small a
    r, ref = power_prox_abs(PROX_GRID, lam, q), reference_power_prox_abs(PROX_GRID, lam, q)
    np.testing.assert_allclose(r, ref, rtol=1e-13, atol=0)


@prox_cases
def test_power_prox_abs_matches_a_40_digit_root(q, lam):
    import mpmath

    r = power_prox_abs(PROX_GRID, lam, q)
    with mpmath.workdps(40):
        mq, mlam = mpmath.mpf(q), mpmath.mpf(lam)
        for got, start, a in zip(r, reference_power_prox_abs(PROX_GRID, lam, q), PROX_GRID):
            root, ma = mpmath.mpf(float(start)), mpmath.mpf(float(a))
            if a > 0:
                for _ in range(8):
                    root -= (root + mlam * root ** (mq - 1) - ma) / (1 + mlam * (mq - 1) * root ** (mq - 2))
            # f' >= 1, so the residual bounds the distance to the root
            assert abs(root + mlam * root ** (mq - 1) - ma) <= mpmath.mpf(10) ** -35 * (1 + ma)
            assert abs(got - root) <= 1e-15 * root


@prox_cases
def test_power_prox_abs_pass_budget(q, lam):
    # monotone Newton from the one-sided bound; the bracketed reference
    # needs up to 77 passes on this grid
    r = power_prox_abs(PROX_GRID, lam, q, max_iter=12)
    assert np.all(prox_residual(r, PROX_GRID, lam, q) <= 1e-14 * (1.0 + PROX_GRID))


@pytest.mark.parametrize("q", [1.1, 1.5, 1.9, 2.5, 3.0, 4.0, 5.0, 8.0])
def test_power_prox_abs_pass_budget_over_a_wide_range(q):
    # measured: at most 10 passes at q = 1.1, at most 7 elsewhere; the start
    # bounds overflow for q near 1 and huge a without a warning
    a = np.concatenate([[0.0], np.geomspace(1e-8, 1e8, 801)])
    for lam in np.geomspace(1e-6, 1e3, 10):
        r = power_prox_abs(a, lam, q, max_iter=12)
        assert np.all(prox_residual(r, a, lam, q) <= 1e-14 * (1.0 + a))


def test_power_prox_abs_raises_on_nan():
    with pytest.raises(ProxNonconvergence) as err:
        power_prox_abs(np.array([np.nan]), 0.1, 3.0)
    assert err.value.iterations == 200


def test_power_prox_abs_raises_when_out_of_passes():
    with pytest.raises(ProxNonconvergence) as err:
        power_prox_abs(np.array([3e4]), 0.1, 3.0, max_iter=1)
    assert err.value.iterations == 1
    assert err.value.residual > 1e-14


def read_sweep(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_regime_diagram_sweep_matches_the_bracketed_prox(tmp_path, monkeypatch):
    # end to end: the roots agree to rounding, and only the blow-up rows,
    # which run the prox at the largest arguments, may move in the last digits
    assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(fraflow.convex, "power_prox_abs", reference_power_prox_abs)
    assert main(["sweep", "--preset", "regime-diagram", "--jobs", "1", "--out", str(tmp_path / "ref")]) == 0
    new, ref = (read_sweep(tmp_path / side / "sweep.csv") for side in ("new", "ref"))
    assert len(new) == len(ref) == 18
    for row, expected in zip(new, ref):
        assert (row["verdict"], row["t_star"]) == (expected["verdict"], expected["t_star"])
        if row["verdict"] == "blew_up":
            for key in ("sup_energy1", "C_emp"):
                assert float(row[key]) == pytest.approx(float(expected[key]), rel=1e-12, abs=0)
        else:
            assert row == expected


def test_plaplace_2d_solve_matches_the_bracketed_prox(tmp_path, monkeypatch):
    config = tmp_path / "solve.json"
    problem = {"kind": "p-laplace", "p": 3.0, "q": 4.0, "dim": 2, "m": 20, "amplitude": 1.0, "u0_profile": "sine"}
    grid = {"horizon": 1.0, "steps": 64}
    config.write_text(json.dumps({"mode": "solve", "problem": problem, "kernel": {"alpha": 0.5}, "grid": grid, "chain_rule_slack": 0.5}))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr(fraflow.convex, "power_prox_abs", reference_power_prox_abs)
    assert main(["solve", "--config", str(config), "--out", str(tmp_path / "ref")]) == 0
    new, ref = (load_state_dump(tmp_path / side / "state.bin")["states"] for side in ("new", "ref"))
    assert np.max(np.abs(new - ref)) <= 1e-12 * np.max(np.abs(ref))
    diag = json.loads((tmp_path / "new" / "diagnostics.json").read_text())
    assert diag["max_residual"] <= 1e-10
    chain, expected = (json.loads((tmp_path / side / "chain_rule.json").read_text()) for side in ("new", "ref"))
    assert chain["status"] == "pass"
    for key in ("min_margin_cumulative", "min_margin_pointwise", "min_margin_quadrature"):
        assert chain[key] == pytest.approx(expected[key], rel=1e-12, abs=0)


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
