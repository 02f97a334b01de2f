"""The benchmark's oracles against kipa-lab's own functions at random points.

Run from the root of a checkout:  python3 -m pytest perfbench/test_oracles.py
"""

import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
from kipa_lab import fitkit, io_dynamics, ki_device, synthetic  # noqa: E402

F_PUMP = 2 * 5.6735e9


def random_cavities(n, seed, xi_lo=0.0, xi_hi=0.99, detuned=True):
    """(kappa, gamma, delta, xi) in Hz with |xi| a fraction of kappa_bar."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        kappa = rng.uniform(5e6, 40e6)
        gamma = rng.uniform(0.0, 0.2) * kappa
        delta = rng.uniform(-1.0, 1.0) * kappa if detuned else 0.0
        xi = rng.uniform(xi_lo, xi_hi) * oracles.kappa_bar(kappa, gamma)
        yield kappa, gamma, delta, xi


def cavity(kappa, gamma, delta, xi):
    return io_dynamics.PumpedCavity.from_ordinary(kappa, gamma, delta, -1j * xi, F_PUMP)


def test_gain_power_matches_signal_gain():
    rng = np.random.default_rng(1)
    for kappa, gamma, delta, xi in random_cavities(200, 2):
        omega = rng.uniform(-5.0, 5.0, 7) * kappa
        g = io_dynamics.signal_gain(cavity(kappa, gamma, delta, xi), F_PUMP / 2 + omega, allow_unstable=True)
        np.testing.assert_allclose(oracles.gain_power(kappa, gamma, delta, xi, omega), np.abs(g) ** 2, rtol=1e-9)


def test_peak_is_the_maximum_of_a_dense_scan():
    for kappa, gamma, delta, xi in random_cavities(100, 3):
        peak = oracles.peak_gain_db(kappa, gamma, delta, xi)
        omega = np.linspace(-6.0, 6.0, 200001) * kappa
        dense = float(np.max(oracles.gain_db(kappa, gamma, delta, xi, omega)))
        assert dense <= peak + 1e-9
        assert peak - dense < 1e-4


def test_resampled_peak_matches_pump_evaluator():
    rng = np.random.default_rng(4)
    for _ in range(100):
        kappa = rng.uniform(10e6, 30e6)
        f_r, coupling = 5.6735e9, 2.2e9
        evaluator = synthetic.pump_gain_map(kappa, 0.0, f_r, coupling)
        f_pump = 2 * (f_r - rng.uniform(-1.0, 1.0) * kappa)
        xi = rng.uniform(0.0, 0.99) * kappa
        p_dbm = 20 * math.log10(xi / coupling)
        want = oracles.resampled_peak_db(kappa, 0.0, f_r - f_pump / 2, xi)
        assert evaluator(f_pump, p_dbm) == pytest.approx(want, abs=1e-9)
        assert want <= oracles.peak_gain_db(kappa, 0.0, f_r - f_pump / 2, xi) + 1e-9


def test_center_gain_is_the_zero_detuning_peak():
    for kappa, gamma, _, xi in random_cavities(100, 5, detuned=False):
        want = oracles.center_gain_db(kappa, gamma, xi)
        g = io_dynamics.signal_gain(cavity(kappa, gamma, 0.0, xi), F_PUMP / 2)
        assert 10 * math.log10(abs(g) ** 2) == pytest.approx(want, abs=1e-9)
        assert oracles.peak_gain_db(kappa, gamma, 0.0, xi) == pytest.approx(want, abs=1e-9)


def test_drift_eigenvalues_follow_the_detuned_threshold():
    for kappa, gamma, delta, xi in random_cavities(300, 6, xi_hi=1.6):
        kb = oracles.kappa_bar(kappa, gamma)
        lam = oracles.drift_eigenvalues(kappa, gamma, delta, xi)
        root = np.sqrt(complex(xi**2 - delta**2))
        want = np.array([-kb - root, -kb + root])
        np.testing.assert_allclose(np.sort(lam.real), np.sort(want.real), atol=1e-6 * kb)
        np.testing.assert_allclose(np.sort(np.abs(lam.imag)), np.sort(np.abs(want.imag)), atol=1e-6 * kb)
        if abs(xi**2 - kb**2 - delta**2) > 1e-9 * kb**2:
            assert oracles.is_stable(kappa, gamma, delta, xi) == (xi**2 < kb**2 + delta**2)


def test_drift_stability_matches_program_without_detuning():
    for kappa, gamma, _, xi in random_cavities(200, 7, xi_hi=1.5, detuned=False):
        assert oracles.is_stable(kappa, gamma, 0.0, -1j * xi) == cavity(kappa, gamma, 0.0, xi).is_stable


@pytest.mark.xfail(reason="PumpedCavity.is_stable tests |xi| < kappa_bar and ignores detuning", strict=False)
def test_drift_stability_matches_program_with_detuning():
    rng = np.random.default_rng(8)
    for _ in range(50):
        kappa = rng.uniform(5e6, 40e6)
        delta = rng.uniform(0.3, 1.0) * kappa
        # above kappa_bar but below the detuned threshold sqrt(kb^2 + Delta^2)
        xi = math.sqrt(kappa**2 + rng.uniform(0.1, 0.9) * delta**2)
        assert oracles.is_stable(kappa, 0.0, delta, -1j * xi) == cavity(kappa, 0.0, delta, xi).is_stable


def test_logistic_1db_point_matches_generator_and_extraction():
    rng = np.random.default_rng(9)
    for _ in range(100):
        g0, p_mid, soft, depth = rng.uniform(15, 25), rng.uniform(-90, -75), rng.uniform(0.5, 3), rng.uniform(2, 10)
        want = oracles.logistic_1db_dbm(p_mid, soft, depth)
        grid = np.linspace(-120.0, -50.0, int(rng.integers(101, 400)))
        sweep, truth = synthetic.compression_sweep(g0, p_mid, soft, depth, grid, 0.0, rng)
        assert truth["p_in_1db_dbm"] == pytest.approx(want, abs=1e-12)
        got = io_dynamics.compression_point(sweep, g0).p_in_1db_dbm
        tol = oracles.logistic_interp_tolerance(p_mid, soft, depth, grid[1] - grid[0])
        assert abs(got - want) <= 2 * tol + 1e-12


def test_chi2_matches_fitted_line_and_bounds_it_at_the_truth():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = np.sort(rng.uniform(0.0, 3.0, int(rng.integers(4, 40))))
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0)
        sigma = rng.uniform(0.01, 0.1, x.size)
        y = a * x + b + rng.normal(0.0, sigma)
        fit = fitkit.linear_fit(fitkit.SweepRecord(x, y, sigma))
        at_fit = oracles.chi2(y, fit.params[0] * x + fit.params[1], sigma)
        assert at_fit == pytest.approx(fit.reduced_chi2 * (x.size - 2), rel=1e-9)
        assert at_fit <= oracles.chi2(y, a * x + b, sigma) * (1 + 1e-12)


def test_clem_frequency_matches_resonance_vs_bias():
    rng = np.random.default_rng(11)
    for _ in range(50):
        i_star = rng.uniform(2e-4, 5e-4)
        res = ki_device.ResonatorParams(l_k0=7e-8, l_t=8e-8, i_star=i_star, i_sw=0.5 * i_star,
                                        clem_exponent=rng.uniform(1.5, 3.0), f_r0=rng.uniform(5e9, 6e9),
                                        alpha=rng.uniform(0.5, 1.0))
        i = rng.uniform(-0.45, 0.45, 9) * i_star
        np.testing.assert_allclose(oracles.clem_frequency(i, res.f_r0, res.alpha, res.i_star, res.clem_exponent),
                                   ki_device.resonance_vs_bias(i, res), rtol=1e-13)


def test_detuned_pump_problems_have_a_stable_answer():
    p, g = inputs.first_stable_hit(inputs.DETUNED_PUMP_PROBLEMS[0])
    assert p == -40.25 and g == pytest.approx(22.43, abs=0.01)
    for problem in inputs.DETUNED_PUMP_PROBLEMS:
        assert inputs.first_stable_hit(problem) is not None
