import math

import mpmath as mp
import numpy as np
import pytest
import scipy.constants as sc
from hypothesis import given, settings
from hypothesis import strategies as st

from kipa_lab.errors import DomainError, PhysicsWarning
from kipa_lab.ki_device import (
    BiasPoint,
    FilmParams,
    ResonatorParams,
    clem_frequency,
    clem_ratio,
    fit_clem_tuning,
    pump_strength_3wm,
    resonance_vs_bias,
    self_kerr,
)
from kipa_lab.synthetic import clem_tuning_sweep

F_SIGNAL = 5.6735e9


def reference_resonator(**overrides) -> ResonatorParams:
    kwargs = dict(
        l_k0=74e-9,
        l_t=82.4e-9,
        i_star=345e-6,
        i_sw=182e-6,
        clem_exponent=2.21,
        f_r0=5.75e9,
        alpha=0.9,
        z_r=900.0,
        center_width=2e-6,
    )
    kwargs.update(overrides)
    return ResonatorParams(**kwargs)


def test_clem_ratio_zero_current():
    assert clem_ratio(0.0, 345e-6, 2.21) == 1.0


def test_clem_ratio_half_critical():
    # Oracle: high-precision evaluation of the closed form.
    expected = float((1 - mp.mpf("0.5") ** mp.mpf("2.21")) ** (-1 / mp.mpf("2.21")))
    got = clem_ratio(0.5 * 345e-6, 345e-6, 2.21)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1.1164890135587463, rel=1e-12)


def test_clem_ratio_diverges_at_critical_current():
    # The checked path, resonance_vs_bias, refuses I* (past the switching current, so it warns first).
    with pytest.warns(PhysicsWarning, match="switching"), pytest.raises(DomainError, match="critical current"):
        resonance_vs_bias(345e-6, reference_resonator())


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(frac=st.floats(-0.999, 0.999), i_star=st.floats(1e-6, 0.1), n=st.floats(0.1, 10.0), f_r0=st.floats(1e8, 1e11),
       alpha=st.floats(1e-3, 1.0))
def test_clem_frequency_of_a_python_float_has_the_bits_of_a_0d_array(frac, i_star, n, f_r0, alpha):
    # resonance_vs_bias evaluates a Python number without numpy: it must round as the numpy path does.
    current = frac * i_star
    scalar = clem_frequency(current, f_r0, alpha, i_star, n)
    assert type(scalar) is float
    assert scalar.hex() == float(clem_frequency(np.asarray(current), f_r0, alpha, i_star, n)).hex()


def test_clem_ratio_even_and_monotone():
    res = reference_resonator()
    rng = np.random.default_rng(21)
    currents = rng.uniform(0.0, 0.95, 200) * res.i_star
    i_star, n = res.i_star, res.clem_exponent
    for i in currents[:50]:
        assert clem_ratio(i, i_star, n) == clem_ratio(-i, i_star, n)
    grid = np.sort(currents)
    vals = clem_ratio(grid, i_star, n)
    assert np.all(np.diff(vals) > 0)
    assert clem_ratio(0.9999 * i_star, i_star, n) > 20.0


def test_resonance_at_zero_bias_is_f_r0():
    res = reference_resonator()
    assert resonance_vs_bias(0.0, res) == res.f_r0


def test_resonance_alpha_one_composition():
    res = reference_resonator(alpha=1.0, l_k0=82.4e-9)
    f = resonance_vs_bias(0.5 * res.i_star, res)
    assert f / res.f_r0 == pytest.approx(0.9463957319628387, rel=1e-12)


def test_resonance_decreasing_and_even():
    res = reference_resonator()
    grid = np.linspace(0, 0.9 * res.i_sw, 20)
    vals = np.array([resonance_vs_bias(i, res) for i in grid])
    assert np.all(np.diff(vals) < 0)
    assert resonance_vs_bias(-grid[7], res) == vals[7]
    # The array form against the per-point scalar form: numpy's array and
    # scalar pow may differ in the last bit.
    assert np.all(np.abs(resonance_vs_bias(grid, res) - vals) <= 2 * np.spacing(vals))


def test_resonance_near_zero_alpha_is_nearly_constant():
    res = reference_resonator(alpha=1e-12, l_k0=1e-12)
    f1 = resonance_vs_bias(0.0, res)
    f2 = resonance_vs_bias(0.9 * res.i_sw, res)
    assert abs(f2 - f1) / f1 < 1e-10


def test_switching_current_warns_not_raises():
    res = reference_resonator()
    with pytest.warns(PhysicsWarning):
        resonance_vs_bias(res.i_sw * 1.01, res)


def test_clem_fit_round_trip_noiseless():
    res = reference_resonator()
    rng = np.random.default_rng(0)
    sweep, truth = clem_tuning_sweep(res, np.linspace(0, 0.9 * res.i_sw, 25), 0.0, rng)
    fit = fit_clem_tuning(sweep, res.f_r0, res.alpha)
    assert abs(fit.params[0] - truth["i_star_a"]) / truth["i_star_a"] < 1e-6
    assert abs(fit.params[1] - truth["clem_exponent"]) / truth["clem_exponent"] < 1e-6


def test_clem_fit_recovery_with_noise():
    res = reference_resonator()
    rng = np.random.default_rng(2)
    sweep, truth = clem_tuning_sweep(res, np.linspace(0, 0.9 * res.i_sw, 25), 1e-4, rng)
    fit = fit_clem_tuning(sweep, res.f_r0, res.alpha)
    assert abs(fit.params[0] - truth["i_star_a"]) / truth["i_star_a"] < 0.005


def test_self_kerr_paper_value():
    res = reference_resonator()
    # Oracle: -(3/8) hbar f^2 / (L_t I*^2) assembled independently.
    expected = -0.375 * sc.hbar * F_SIGNAL**2 / (82.4e-9 * (345e-6) ** 2)
    k = self_kerr(res, F_SIGNAL)
    assert k == pytest.approx(expected, rel=1e-12)
    assert abs(k - (-0.133)) / 0.133 < 0.03


def test_self_kerr_scalings():
    res = reference_resonator()
    assert self_kerr(res, 2 * F_SIGNAL) == pytest.approx(4.0 * self_kerr(res, F_SIGNAL), rel=1e-14)
    # Nonlinearity vanishes as 1/I*^2.
    doubled = reference_resonator(i_star=2 * 345e-6)
    assert self_kerr(doubled, F_SIGNAL) == pytest.approx(self_kerr(res, F_SIGNAL) / 4.0, rel=1e-14)
    huge = reference_resonator(i_star=1.0, i_sw=0.5)
    assert abs(self_kerr(huge, F_SIGNAL)) < 1e-7


def test_pump_strength_zero_bias():
    res = reference_resonator()
    assert pump_strength_3wm(BiasPoint(0.0, 1e-5), res, F_SIGNAL) == 0.0


def test_pump_strength_inversion_for_target():
    res = reference_resonator()
    omega_r = 2 * math.pi * F_SIGNAL
    target = 2 * math.pi * 19.8e6
    product = 4 * target / omega_r  # I_dc*I_uw / I*^2 required
    assert product == pytest.approx(0.013959, rel=1e-3)
    i_dc = 80e-6
    i_uw = product * res.i_star**2 / i_dc
    xi = pump_strength_3wm(BiasPoint(i_dc, i_uw), res, F_SIGNAL)
    assert abs(xi) == pytest.approx(target, rel=1e-12)


def test_pump_strength_phase_factor():
    res = reference_resonator()
    bias = BiasPoint(50e-6, 1e-5)
    xi0 = pump_strength_3wm(bias, res, F_SIGNAL, psi_p=0.0)
    xi_pi = pump_strength_3wm(bias, res, F_SIGNAL, psi_p=math.pi)
    assert xi_pi == pytest.approx(-xi0, rel=1e-12)
    assert abs(xi_pi) == pytest.approx(abs(xi0), rel=1e-14)


def test_pump_strength_bilinear():
    res = reference_resonator()
    base = abs(pump_strength_3wm(BiasPoint(40e-6, 1e-5), res, F_SIGNAL))
    assert abs(pump_strength_3wm(BiasPoint(80e-6, 1e-5), res, F_SIGNAL)) == pytest.approx(2 * base, rel=1e-14)
    assert abs(pump_strength_3wm(BiasPoint(40e-6, 2e-5), res, F_SIGNAL)) == pytest.approx(2 * base, rel=1e-14)


def test_type_invariants():
    with pytest.raises(DomainError):
        ResonatorParams(l_k0=1e-9, l_t=2e-9, i_star=1e-4, i_sw=2e-4)  # i_sw > i_star
    with pytest.raises(DomainError):
        ResonatorParams(l_k0=3e-9, l_t=2e-9, i_star=2e-4, i_sw=1e-4)  # l_k0 > l_t
    for l_k0, l_t in [(-1e-9, 0.0), (0.0, 0.0), (0.0, 2e-9)]:
        with pytest.raises(DomainError, match="require 0 < l_k0 <= l_t"):
            ResonatorParams(l_k0=l_k0, l_t=l_t, i_star=2e-4, i_sw=1e-4)
    with pytest.raises(DomainError):
        ResonatorParams(l_k0=1e-9, l_t=2e-9, i_star=2e-4, i_sw=1e-4, alpha=1.5)
    with pytest.raises(DomainError):
        FilmParams(sheet_kinetic_inductance=0.0, thickness=1e-8, critical_temperature=5.6, diffusion_coefficient=1e-5)
    with pytest.raises(DomainError):
        BiasPoint(1e-5, -1e-6)
