import cmath
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.constants as sc

from kipa_lab.env_models import (
    FieldModel,
    TempModel,
    complex_digamma,
    device_temp_from_shift,
    field_curvature,
    field_frequency_shift,
    fit_field_shift,
    gap_vs_field,
    temp_frequency_shift,
)
from kipa_lab.errors import ConfigWarning, DomainError, InversionError, PhysicsWarning
from kipa_lab.fitkit import SweepRecord
from kipa_lab.quantities import BOLTZMANN, EULER_GAMMA, PLANCK
from kipa_lab.synthetic import field_shift_sweep

F_SIGNAL = 5.6735e9


def reference_field_model(**overrides) -> FieldModel:
    kwargs = dict(diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6, theta_b=0.0)
    kwargs.update(overrides)
    return FieldModel(**kwargs)


def test_gap_suppression_points():
    model = reference_field_model(b_c_parallel=17.32)
    d0 = model.gap_zero_field
    assert gap_vs_field(0.0, model) == d0
    assert gap_vs_field(17.32, model) == 0.0
    assert gap_vs_field(17.32 / math.sqrt(2.0), model) == pytest.approx(d0 / math.sqrt(2.0), rel=1e-12)
    with pytest.raises(DomainError):
        gap_vs_field(18.0, model)
    with pytest.raises(DomainError):
        gap_vs_field(1.0, reference_field_model())  # no critical field configured


def test_gap_default_is_bcs_ratio():
    model = reference_field_model()
    assert model.gap_zero_field == pytest.approx(1.764 * sc.k * 5.6, rel=1e-12)


def test_field_curvature_frozen_oracle():
    # Oracle: independent assembly from scipy constants.
    expected = math.pi / 48 * 0.5e-4 * sc.e**2 * (13e-9) ** 2 / (sc.hbar * sc.k * 5.6)
    c = field_curvature(reference_field_model())
    assert c == pytest.approx(expected, rel=1e-9)
    assert c == pytest.approx(1.7411599178487535e-3, rel=1e-12)
    assert abs(c - 1.74e-3) / 1.74e-3 < 0.01


def test_field_shift_at_six_tesla():
    shift = field_frequency_shift(6.0, reference_field_model())
    assert shift == pytest.approx(-0.062681757042555127, rel=1e-12)
    assert shift * F_SIGNAL == pytest.approx(-355.6e6, rel=2e-3)


def test_field_shift_even_in_b_and_theta():
    model = reference_field_model(theta_b=0.02)
    assert field_frequency_shift(3.0, model) == field_frequency_shift(-3.0, model)
    minus = reference_field_model(theta_b=-0.02)
    assert field_frequency_shift(3.0, minus) == field_frequency_shift(3.0, model)


def test_field_shift_misalignment_quadratic():
    base = field_curvature(reference_field_model(), include_misalignment=False)
    c1 = field_curvature(reference_field_model(theta_b=0.01)) - base
    c2 = field_curvature(reference_field_model(theta_b=0.02)) - base
    assert c2 == pytest.approx(4.0 * c1, rel=1e-12)


def test_large_misalignment_warns():
    with pytest.warns(PhysicsWarning):
        reference_field_model(theta_b=0.2)


def test_fit_field_shift_coefficient_machine_precision():
    model = reference_field_model(theta_b=math.radians(0.92))
    rng = np.random.default_rng(0)
    sweep, _ = field_shift_sweep(model, np.linspace(0.0, 6.0, 13), 0.0, rng)
    fit = fit_field_shift(sweep, model)
    assert fit.curvature == pytest.approx(field_curvature(model), rel=1e-12)


def test_fit_field_shift_recovers_planted_theta():
    theta = math.radians(0.92)
    model = reference_field_model(theta_b=theta)
    rng = np.random.default_rng(0)
    sweep, _ = field_shift_sweep(model, np.linspace(0.0, 6.0, 13), 0.0, rng)
    fit = fit_field_shift(sweep, model)
    assert abs(fit.theta_b - theta) / theta < 0.01


def test_fit_field_shift_zero_data():
    model = reference_field_model()
    sweep = SweepRecord(np.linspace(0, 6, 7), np.zeros(7))
    with pytest.warns(PhysicsWarning):
        fit = fit_field_shift(sweep, model)
    assert fit.curvature == 0.0
    assert fit.theta_b == 0.0


def test_fit_field_shift_poor_fit_warns():
    model = reference_field_model()
    b = np.linspace(0.0, 6.0, 9)
    y = -1e-3 * b**3  # cubic, not quadratic
    with pytest.warns(PhysicsWarning):
        fit_field_shift(SweepRecord(b, y, np.full(9, 1e-6)), model)


def test_fit_field_shift_needs_points():
    model = reference_field_model()
    with pytest.raises(DomainError):
        fit_field_shift(SweepRecord(np.linspace(0, 6, 4), np.zeros(4)), model)


def test_fit_field_shift_bc_criterion():
    model = reference_field_model()
    rng = np.random.default_rng(0)
    sweep, _ = field_shift_sweep(model, np.linspace(0.0, 6.0, 13), 0.0, rng)
    fit_off = fit_field_shift(sweep, model)
    assert fit_off.b_c_estimate is None
    fit_on = fit_field_shift(sweep, model, bc_criterion="pair-breaking-gap")
    # Oracle: Gamma(B) = (8/pi) c kB Tc B^2 equals the gap at
    # B = sqrt(pi * 1.764 / (8 c)).
    expected = math.sqrt(math.pi * 1.764 / (8.0 * fit_on.curvature))
    assert fit_on.b_c_estimate == pytest.approx(expected, rel=1e-12)


def test_digamma_closed_forms():
    assert complex_digamma(1.0).real == pytest.approx(-EULER_GAMMA, abs=1e-12)
    assert abs(complex_digamma(1.0).imag) < 1e-15
    assert complex_digamma(0.5).real == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-12)


def test_digamma_asymptotic_on_critical_line():
    val = complex_digamma(0.5 + 50j).real - math.log(50.0)
    assert abs(val) < 1e-4
    # And the trend continues upward.
    assert abs(complex_digamma(0.5 + 500j).real - math.log(500.0)) < 1e-6


def test_digamma_matches_mpmath_sample():
    rng = np.random.default_rng(9)
    for _ in range(100):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue  # stay away from the pole line
        want = complex(mp.digamma(mp.mpc(z.real, z.imag)))
        got = complex_digamma(z)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_digamma_recurrence_fuzz():
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 1000:
        r = 10 ** rng.uniform(-1, 2)
        phi = rng.uniform(0, 2 * np.pi)
        z = complex(r * np.cos(phi), r * np.sin(phi))
        if abs(z.imag) < 1e-2 and z.real < 1.0:
            continue  # keep clear of poles of psi(z) and psi(z+1)
        lhs = complex_digamma(z + 1.0)
        rhs = complex_digamma(z) + 1.0 / z
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))
        checked += 1


def test_digamma_reflection_fuzz():
    rng = np.random.default_rng(202)
    checked = 0
    while checked < 1000:
        z = complex(rng.uniform(-10, 10), rng.uniform(0.05, 10) * rng.choice([-1.0, 1.0]))
        lhs = complex_digamma(1.0 - z) - complex_digamma(z)
        rhs = math.pi / cmath.tan(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
        checked += 1


def test_digamma_poles_raise():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            complex_digamma(z)
    with pytest.raises(DomainError):
        complex_digamma(np.array([0.5 + 1j, -2.0, 3.0]))


def mp_digamma(z: np.ndarray) -> np.ndarray:
    return np.array([complex(mp.digamma(mp.mpc(c.real, c.imag))) for c in z.ravel()]).reshape(z.shape)


NEAR_POLES = np.array([n + d for n in (-3.0, -2.0, -1.0, 0.0) for d in (1e-6, -1e-6, 1e-6j, -1e-6j, 7e-7 + 7e-7j)])
REFLECTION_GRID = (np.linspace(-9.75, 3.25, 27)[:, None] + 1j * np.array([-6.0, -0.7, -0.01, 0.0, 0.3, 4.0])).ravel()


@pytest.mark.parametrize(
    "z",
    [0.5 - 1j * np.logspace(-4, 4, 161), REFLECTION_GRID, NEAR_POLES],
    ids=["tls-line", "reflection-grid", "near-poles"],
)
def test_digamma_array_matches_mpmath(z):
    got = complex_digamma(z)
    assert got.shape == z.shape
    want = mp_digamma(z)
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def quiet_temp_model(**overrides) -> TempModel:
    # Small TLS weight keeps the model monotone above 0.1 K.
    kwargs = dict(f_delta_tls=1e-6, alpha=0.9, t_c=5.6)
    kwargs.update(overrides)
    return TempModel(**kwargs)


def test_temp_shift_vanishes_at_low_temperature_without_tls():
    model = quiet_temp_model(f_delta_tls=0.0)
    assert abs(temp_frequency_shift(1e-3, F_SIGNAL, model)) < 1e-15


def test_temp_shift_tls_log_growth():
    # In the high-temperature regime (hf/kBT << 1) the TLS bracket grows as
    # ln T; compare two temperatures for a kinetic-term-free model.
    model = TempModel(f_delta_tls=2e-6, alpha=1e-12, t_c=5.6, c4=1e-12)
    t1, t2 = 1.0, 2.0
    d = temp_frequency_shift(t2, F_SIGNAL, model) - temp_frequency_shift(t1, F_SIGNAL, model)
    assert d == pytest.approx(model.f_delta_tls / math.pi * math.log(t2 / t1), rel=0.02)


def test_temp_shift_warns_beyond_validity():
    model = quiet_temp_model()
    with pytest.warns(PhysicsWarning):
        temp_frequency_shift(0.5 * 5.6, F_SIGNAL, model)


def test_device_temp_round_trip_property():
    model = quiet_temp_model()
    for t in np.linspace(0.1, 2.0, 16):
        shift = temp_frequency_shift(float(t), F_SIGNAL, model)
        back = device_temp_from_shift(shift, F_SIGNAL, model, t_min=0.1)
        assert abs(back - t) <= 1.5e-5  # 10 uK bisection tolerance


def test_device_temp_planted_high_temperature_point():
    model = quiet_temp_model()
    shift = temp_frequency_shift(1.11, F_SIGNAL, model)
    assert device_temp_from_shift(shift, F_SIGNAL, model, t_min=0.1) == pytest.approx(1.11, abs=2e-5)


def test_device_temp_still_plate_point():
    model = quiet_temp_model()
    shift = temp_frequency_shift(0.85, F_SIGNAL, model)
    assert shift < 0.0
    assert device_temp_from_shift(shift, F_SIGNAL, model, t_min=0.1) == pytest.approx(0.85, abs=2e-5)


def test_device_temp_zero_shift_returns_reference():
    model = quiet_temp_model(t_ref=0.3)
    t = device_temp_from_shift(0.0, F_SIGNAL, model, t_min=0.1)
    assert t == pytest.approx(0.3, abs=2e-5)


def test_device_temp_out_of_range_raises():
    model = quiet_temp_model()
    with pytest.raises(InversionError):
        device_temp_from_shift(10.0, F_SIGNAL, model, t_min=0.1)


def test_device_temp_bisection_ends_where_doubles_are_coarser_than_its_tolerance():
    # With T_C = 1e300 K the root lies near 1e299 K, where adjacent doubles
    # are far more than 10 uK apart; the bisection must still stop there.
    model = TempModel(f_delta_tls=2e-6, alpha=0.9, t_c=1e300)
    with pytest.warns(ConfigWarning):
        t = device_temp_from_shift(-1e-4, F_SIGNAL, model)
    assert temp_frequency_shift(t, F_SIGNAL, model) == pytest.approx(-1e-4, rel=1e-6)


def test_temp_shift_array_matches_mpmath_expression():
    # The same law built from mpmath at 30 digits.  The TLS bracket
    # Re psi(1/2 - ix) - ln x changes sign, so the error is measured against
    # the size of the terms that are summed, not against the result.
    model = TempModel(f_delta_tls=2e-5, alpha=0.9, t_c=5.6)
    t = np.geomspace(0.005, model.quartic_t_max, 60)
    got = temp_frequency_shift(t, F_SIGNAL, model)
    with mp.workdps(30):
        for t_k, value in zip(t, got):
            x = mp.mpf(PLANCK) * F_SIGNAL / (2 * mp.pi * mp.mpf(BOLTZMANN) * t_k)
            re_psi, log_x = mp.re(mp.digamma(mp.mpc(0.5, -x))), mp.log(x)
            quartic = model.alpha * model.c4 * (mp.mpf(BOLTZMANN) * t_k / model.gap) ** 4
            want = model.f_delta_tls / mp.pi * (re_psi - log_x) - quartic
            scale = model.f_delta_tls / mp.pi * (abs(re_psi) + abs(log_x)) + quartic
            assert abs(value - want) <= 1e-12 * scale


def test_nonmonotone_model_warns():
    # A heavy TLS term over a weak kinetic one makes the shift dip, rise and
    # fall again across the band, which the range check must flag.
    model = TempModel(f_delta_tls=1e-4, alpha=0.1, t_c=5.6)
    with pytest.warns(ConfigWarning):
        assert not model.warn_if_nonmonotone(F_SIGNAL, t_lo=0.02)
    assert quiet_temp_model().warn_if_nonmonotone(F_SIGNAL, t_lo=0.1)


def test_temp_model_validation():
    with pytest.raises(DomainError):
        TempModel(f_delta_tls=-1e-6, alpha=0.9, t_c=5.6)
    with pytest.raises(DomainError):
        TempModel(f_delta_tls=0.0, alpha=0.0, t_c=5.6)
    with pytest.raises(DomainError):
        temp_frequency_shift(0.0, F_SIGNAL, quiet_temp_model())
