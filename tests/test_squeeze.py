import math

import mpmath as mp
import numpy as np
import pytest

from kipa_lab.errors import DomainError
from kipa_lab.io_dynamics import PumpedCavity, output_quadrature_variance, quadrature_gain_x
from kipa_lab.quantities import n_kappa2_term
from kipa_lab.squeeze import SqueezeBudget, extract_gx, max_measurable_squeezing, squeezing_factor


def reference_budget(**overrides) -> SqueezeBudget:
    kwargs = dict(eta=10 ** (-4.5 / 10), n_h=3.25)
    kwargs.update(overrides)
    return SqueezeBudget(**kwargs)


def mp_squeezing(gx, eta, nh):
    """40-digit oracle for the on/off variance ratio."""
    gx, eta, nh = mp.mpf(gx), mp.mpf(eta), mp.mpf(nh)
    nk2 = (mp.sqrt(gx) - 1) / (mp.sqrt(gx) + 1) / 4
    return (gx * eta / 4 + (gx - 1) * eta * nk2 + (1 - eta) / 4 + nh) / (mp.mpf(1) / 4 + nh)


def test_pump_off_is_unity_for_any_budget():
    rng = np.random.default_rng(31)
    for _ in range(100):
        budget = SqueezeBudget(
            eta=rng.uniform(0.05, 1.0),
            n_h=rng.uniform(0.0, 10.0),
            n_eta=rng.uniform(0.0, 0.5),
            n_gamma=rng.uniform(0.0, 0.5),
        )
        assert squeezing_factor(1.0, budget) == pytest.approx(1.0, rel=1e-14)


def test_published_floor_value():
    frozen = float(mp_squeezing("0.5", 10 ** (mp.mpf("-4.5") / 10), "3.25"))
    assert frozen == pytest.approx(0.98950224871913494, rel=1e-14)
    s_min = max_measurable_squeezing(reference_budget())
    assert s_min == pytest.approx(frozen, rel=1e-12)
    assert abs(s_min - 0.9897) < 1e-3


def test_floor_without_loss_or_noise():
    budget = SqueezeBudget(eta=1.0, n_h=0.0)
    s_min = max_measurable_squeezing(budget)
    assert s_min == pytest.approx(0.58578643762690495, rel=1e-12)  # pure -3 dB floor


def test_floor_saturates_at_unity_with_huge_amplifier_noise():
    budget = reference_budget(n_h=1e9)
    assert max_measurable_squeezing(budget) == pytest.approx(1.0, abs=1e-8)


def test_full_loss_limit():
    budget = SqueezeBudget(eta=1e-9, n_h=3.25)
    assert squeezing_factor(0.5, budget) == pytest.approx(1.0, abs=1e-9)


def test_extract_gx_published_point():
    budget = reference_budget()
    g_true = 10 ** (-2.95 / 10)
    s = squeezing_factor(g_true, budget)
    assert s == pytest.approx(0.98960690292852702, rel=1e-12)
    g = extract_gx(s, budget)
    assert 10 * math.log10(g) == pytest.approx(-2.95, abs=0.05)
    assert g == pytest.approx(g_true, rel=1e-9)


def test_extract_gx_unity():
    assert extract_gx(1.0, reference_budget()) == pytest.approx(1.0, abs=1e-10)


def test_extract_gx_round_trip_property():
    budget = reference_budget()
    for g in np.linspace(0.5 + 1e-6, 1.0, 40):
        back = extract_gx(squeezing_factor(float(g), budget), budget)
        assert abs(back - g) < 1e-10


def test_extract_gx_rejects_out_of_range():
    budget = reference_budget()
    s_min = max_measurable_squeezing(budget)
    with pytest.raises(DomainError):
        extract_gx(s_min - 1e-6, budget)
    with pytest.raises(DomainError):
        extract_gx(s_min, budget)
    with pytest.raises(DomainError):
        extract_gx(1.0 + 1e-9, budget)


def test_monotone_increasing_on_physical_branch():
    rng = np.random.default_rng(13)
    for _ in range(50):
        budget = SqueezeBudget(eta=rng.uniform(0.05, 1.0), n_h=rng.uniform(0.0, 10.0))
        g = np.linspace(0.5, 1.0, 200)
        s = np.array([squeezing_factor(float(v), budget) for v in g])
        assert np.all(np.diff(s) > 0)


def test_floor_is_attained_only_at_half():
    budget = reference_budget()
    s_min = max_measurable_squeezing(budget)
    for g in np.linspace(0.5, 1.0, 100):
        assert squeezing_factor(float(g), budget) >= s_min - 1e-15


def test_consistency_with_quadrature_variance():
    # With a clean chain (eta = 1, no amplifier noise, gamma = 0) the
    # squeezing factor equals the band-center output variance over 1/4.
    budget = SqueezeBudget(eta=1.0, n_h=0.0)
    kappa = 2 * math.pi * 19.8e6
    for frac in (0.2, 0.6, 0.95):
        cav = PumpedCavity(kappa, 0.0, 0.0, -1j * frac * kappa, 1.1347e10)
        g_x = quadrature_gain_x(cav)
        var = output_quadrature_variance(cav, 0.25, n_kappa2_term(g_x), 0.0)
        assert squeezing_factor(g_x, budget) == pytest.approx(var / 0.25, rel=1e-12)


def test_exact_amplifier_gain_mode():
    default = reference_budget()
    exact_large = reference_budget(g_h=1e12)
    assert max_measurable_squeezing(exact_large) == pytest.approx(
        max_measurable_squeezing(default), rel=1e-10
    )
    # A modest amplifier gain shifts the floor visibly.
    modest = reference_budget(g_h=10.0)
    assert max_measurable_squeezing(modest) != pytest.approx(max_measurable_squeezing(default), rel=1e-6)


def test_budget_validation():
    with pytest.raises(DomainError):
        SqueezeBudget(eta=0.0, n_h=1.0)
    with pytest.raises(DomainError):
        SqueezeBudget(eta=0.5, n_h=-1.0)
    with pytest.raises(DomainError):
        SqueezeBudget(eta=0.5, n_h=1.0, g_h=0.5)
    with pytest.raises(DomainError, match="quadrature gain must be positive"):
        squeezing_factor(0.0, reference_budget())
