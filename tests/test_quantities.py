import math

import numpy as np
import pytest
import scipy.constants as sc

from kipa_lab.errors import DomainError
from kipa_lab.quantities import (
    BOLTZMANN,
    E_CHARGE,
    HBAR,
    MU_0,
    PLANCK,
    bisect,
    bose_einstein_occupation,
    db_to_linear,
    linear_to_db,
    photon_temperature_equivalent,
    quantum_limit_temperature,
    temperature_from_photons,
)

F_SIGNAL = 5.6735e9


def test_constants_match_scipy():
    assert PLANCK == sc.h
    assert BOLTZMANN == sc.k
    assert E_CHARGE == sc.e
    assert MU_0 == pytest.approx(sc.mu_0, rel=1e-9)


def test_h_is_two_pi_hbar_exactly():
    assert PLANCK == 2.0 * math.pi * HBAR


def test_photon_equivalent_linear_published_point():
    # Independent oracle: direct formula with scipy constants.
    expected = sc.k * 0.286 / (sc.h * F_SIGNAL)
    n = photon_temperature_equivalent(0.286, F_SIGNAL)
    assert n == pytest.approx(expected, rel=1e-12)
    assert n == pytest.approx(1.0503698015813318, rel=1e-12)
    assert abs(n - 1.04) / 1.04 < 0.02


def test_photon_equivalent_zero_temperature_both_modes():
    assert photon_temperature_equivalent(0.0, F_SIGNAL) == 0.0
    assert bose_einstein_occupation(0.0, F_SIGNAL) == 0.0


def test_bose_einstein_at_unit_argument():
    # hf/kBT = 1: choose T accordingly; expected 1/(e-1) from mpmath.
    t = sc.h * F_SIGNAL / sc.k
    n = bose_einstein_occupation(t, F_SIGNAL)
    assert n == pytest.approx(0.58197670686932642, abs=1e-12)


def test_bose_einstein_asymptote_is_linear_minus_half():
    for t_scale in (50.0, 200.0, 1000.0):
        t = t_scale * sc.h * F_SIGNAL / sc.k
        lin = photon_temperature_equivalent(t, F_SIGNAL)
        be = bose_einstein_occupation(t, F_SIGNAL)
        # n_BE = 1/(e^x - 1) = 1/x - 1/2 + x/12 - ...
        assert lin - be == pytest.approx(0.5, abs=0.1 / t_scale)


def test_bose_einstein_monotone_in_temperature():
    temps = np.linspace(0.01, 2.0, 40)
    vals = [bose_einstein_occupation(t, F_SIGNAL) for t in temps]
    assert np.all(np.diff(vals) > 0)


def test_linear_mode_is_linear_in_temperature():
    n1 = photon_temperature_equivalent(0.1, F_SIGNAL)
    n2 = photon_temperature_equivalent(0.2, F_SIGNAL)
    assert n2 == pytest.approx(2.0 * n1, rel=1e-14)


def test_temperature_from_photons_inverts_linear_mode():
    t = temperature_from_photons(1.04, F_SIGNAL)
    assert abs(t - 0.286) / 0.286 < 0.02
    assert photon_temperature_equivalent(t, F_SIGNAL) == pytest.approx(1.04, rel=1e-14)


def test_quantum_limit_temperature_values():
    expected = sc.h * F_SIGNAL / (2.0 * sc.k)
    t = quantum_limit_temperature(F_SIGNAL)
    assert t == pytest.approx(expected, rel=1e-12)
    assert t == pytest.approx(0.13614252788371628, rel=1e-12)
    assert abs(t - 0.136) < 1e-3
    assert quantum_limit_temperature(2.0 * F_SIGNAL) == pytest.approx(2.0 * t, rel=1e-14)


def test_quantum_limit_is_half_a_photon():
    t = quantum_limit_temperature(F_SIGNAL)
    assert photon_temperature_equivalent(t, F_SIGNAL) == pytest.approx(0.5, rel=1e-14)


def test_quantum_limit_small_frequency_limit():
    assert quantum_limit_temperature(1.0) < 1e-10
    with pytest.raises(DomainError):
        quantum_limit_temperature(0.0)


def test_db_examples():
    assert linear_to_db(100.0) == pytest.approx(20.0, abs=1e-12)
    assert linear_to_db(1.0) == 0.0
    assert linear_to_db(0.3548) == pytest.approx(-4.5, abs=5e-4)


def test_db_round_trip_property():
    rng = np.random.default_rng(1234)
    x = 10.0 ** rng.uniform(-12, 12, size=1000)
    back = np.array([db_to_linear(linear_to_db(v)) for v in x])
    assert np.max(np.abs(back - x) / x) < 1e-12


def test_domain_errors():
    with pytest.raises(DomainError):
        photon_temperature_equivalent(-0.1, F_SIGNAL)
    with pytest.raises(DomainError):
        photon_temperature_equivalent(0.1, -1.0)
    with pytest.raises(DomainError):
        linear_to_db(0.0)
    with pytest.raises(DomainError):
        bose_einstein_occupation(-1.0, F_SIGNAL)


def test_bisect_brackets_the_root_to_its_tolerance():
    root = bisect(lambda x: x * x - 2.0, 1.0, 2.0, -1.0, 1e-12)
    assert abs(root - math.sqrt(2.0)) <= 1e-12
    # Near 1e20 adjacent doubles are 16384 apart: the bracket stops shrinking long before a 1e-5 width.
    assert bisect(lambda x: x - 1.5e20, 1e20, 2e20, -0.5e20, 1e-5) == pytest.approx(1.5e20, rel=1e-15)
