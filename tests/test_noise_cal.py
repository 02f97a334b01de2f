import math

import mpmath as mp
import numpy as np
import pytest
import scipy.constants as sc

from kipa_lab.errors import ConfigWarning, DomainError, PhysicsWarning
from kipa_lab.fitkit import SweepRecord
from kipa_lab.noise_cal import (
    ChainElement,
    ReceiverChain,
    _half_quantum_coth,
    fit_added_noise,
    fit_hemt_noise,
    fit_kipa_noise_vs_attenuator,
    high_temp_added_noise,
    kipa_noise_from_added,
    propagate_chain,
    propagate_noise,
    radiative_cooling,
)
from kipa_lab.synthetic import hemt_sweep, noise_sweep, vts_setpoint_ladder

F_SIGNAL = 5.6735e9


def reference_chain(**overrides) -> ReceiverChain:
    kwargs = dict(
        eta_e=10 ** (-1.25 / 10),
        eta_il=10 ** (-3.5 / 10),
        g=10 ** (21.0 / 10),
        g_hemt=10 ** (40.0 / 10),
        g_tot=10 ** (68.2 / 10),
        t_hemt=1.95,
        t_bkg=300.0,
        bandwidth=100.0,
    )
    kwargs.update(overrides)
    return ReceiverChain(**kwargs)


def lossless_chain(g: float) -> ReceiverChain:
    """A chain with unit efficiency, so input_temperature is the source's own
    output noise toward a device of gain g."""
    return reference_chain(eta_e=1.0, eta_il=1.0, g=g)


def test_vts_output_zero_temperature_limit():
    # g = 1 converts no idler: the signal band alone, at its zero point.
    expected = sc.h * F_SIGNAL / (2 * sc.k)
    assert lossless_chain(1.0).input_temperature(1e-8, F_SIGNAL, F_SIGNAL) == pytest.approx(expected, rel=1e-9)


def test_vts_output_high_temperature_doubles():
    t_out = lossless_chain(1e6).input_temperature(30.0, F_SIGNAL, F_SIGNAL)
    assert t_out == pytest.approx(60.0, rel=1e-4)


def test_vts_output_frozen_oracle_value():
    # Oracle: (1 + 99/100) * x * coth(x) with x = h f / 2 k_B at 5.6735 GHz,
    # evaluated at 40 digits with mpmath and frozen here.
    x = mp.mpf("6.62607015e-34") * mp.mpf("5.6735e9") / (2 * mp.mpf("1.380649e-23"))
    frozen = float((1 + mp.mpf(99) / 100) * x * mp.coth(x))
    assert frozen == pytest.approx(2.0022795773772084, rel=1e-12)
    assert lossless_chain(100.0).input_temperature(1.0, F_SIGNAL, F_SIGNAL) == pytest.approx(frozen, rel=1e-12)


def test_vts_output_monotone_and_bounded_below():
    sp0 = sc.h * F_SIGNAL / (2 * sc.k)
    chain = lossless_chain(100.0)
    prev = 0.0
    for t in np.linspace(0.05, 3.0, 30):
        val = chain.input_temperature(float(t), F_SIGNAL, F_SIGNAL)
        assert val > prev
        assert val >= (1 + 0.99) * sp0 * (1 - 1e-12)
        prev = val


def test_vts_input_array_matches_scalar():
    chain = reference_chain()
    temps = np.geomspace(0.05, 3.0, 7)
    got = chain.input_temperature(temps, F_SIGNAL, F_SIGNAL)
    assert got.tolist() == [float(chain.input_temperature(t, F_SIGNAL, F_SIGNAL)) for t in temps]


def test_input_noise_eta_product():
    chain = reference_chain()
    assert 10 * math.log10(chain.eta) == pytest.approx(-4.75, abs=1e-9)
    assert 2.0 * chain.eta == pytest.approx(0.66993087831565532, rel=1e-12)
    unit = reference_chain(eta_e=1.0, eta_il=1.0)
    for t in (0.1, 1.0, 3.0):
        assert chain.input_temperature(t, F_SIGNAL, 5.0e9) == chain.eta * unit.input_temperature(t, F_SIGNAL, 5.0e9)


def test_input_noise_identity_chain():
    # Unit efficiency: the coth law of the signal plus (g - 1)/g of the idler's.
    chain = reference_chain(eta_e=1.0, eta_il=1.0)
    t_s, t_i = _half_quantum_coth(F_SIGNAL, 1.234), _half_quantum_coth(5.0e9, 1.234)
    assert chain.input_temperature(1.234, F_SIGNAL, 5.0e9) == t_s + ((chain.g - 1.0) / chain.g) * t_i


def test_vts_input_subnormal_source_is_the_zero_point_without_warning():
    # x/T overflows at T = 5e-324; tanh(inf) = 1 is the T -> 0 limit, so no RuntimeWarning (an error here).
    zero_point = sc.h * F_SIGNAL / (2 * sc.k)
    chain = reference_chain()
    got = chain.input_temperature([5e-324, 1.0], F_SIGNAL, F_SIGNAL)
    assert got[0] == chain.eta * (zero_point + ((chain.g - 1.0) / chain.g) * zero_point)
    assert chain.input_temperature(5e-324, F_SIGNAL, through=True) == 2.0 * chain.eta_e * zero_point


def test_eta_explicit_mismatch_warns_and_wins():
    with pytest.warns(ConfigWarning):
        chain = reference_chain(eta_explicit=10 ** (-4.5 / 10))
    assert chain.eta == pytest.approx(10 ** (-4.5 / 10), rel=1e-12)


def test_element_sum_mismatch_warns():
    elems = [ChainElement("attenuation", -0.2, 0.1), ChainElement("attenuation", -0.6, 0.1)]
    with pytest.warns(ConfigWarning):
        reference_chain(elements=elems)  # -0.8 dB vs eta_e -1.25 dB


@pytest.mark.parametrize("overrides", [
    {"eta_explicit": 10 ** (-4.5 / 10)},
    {"elements": [ChainElement("attenuation", -0.2, 0.1)]},
], ids=["eta-explicit", "element-sum"])
def test_chain_warnings_name_the_caller(overrides):
    """Each warning points at the line that builds the chain, not at the
    dataclass-generated __init__ ("<string>")."""
    with pytest.warns(ConfigWarning) as rec:
        reference_chain(**overrides)
    assert [w.filename for w in rec] == [__file__]

def test_fit_added_noise_noiseless_recovery():
    chain = reference_chain()
    rng = np.random.default_rng(0)
    sweep, truth = noise_sweep(chain, 0.286, F_SIGNAL, F_SIGNAL, vts_setpoint_ladder(), 0.0, rng)
    res = fit_added_noise(sweep, chain)
    assert abs(res.t_add - truth["t_add_k"]) < 1e-9
    t_kipa = kipa_noise_from_added(res.t_add, chain.g, chain.t_hemt)
    assert abs(t_kipa - 0.286) < 1e-9
    # Noiseless residuals are structureless at machine precision.
    backend = chain.t_bkg / (chain.g_hemt * chain.g)
    scale = chain.g_tot * sc.k * chain.bandwidth
    resid = sweep.y / scale - (sweep.x + res.t_add + backend)
    assert np.max(np.abs(resid)) < 1e-12


def test_fit_added_noise_with_noise_within_one_sigma():
    chain = reference_chain()
    rng = np.random.default_rng(12)
    sweep, truth = noise_sweep(chain, 0.286, F_SIGNAL, F_SIGNAL, vts_setpoint_ladder(), 0.01, rng)
    res = fit_added_noise(sweep, chain)
    assert abs(res.t_add - truth["t_add_k"]) <= res.t_add_sigma


def test_fit_added_noise_zero_plant():
    chain = reference_chain()
    backend = chain.t_bkg / (chain.g_hemt * chain.g)
    x = np.array(vts_setpoint_ladder())
    y = chain.g_tot * sc.k * chain.bandwidth * (x + 0.0 + backend)
    res = fit_added_noise(SweepRecord(x, y), chain)
    assert abs(res.t_add) < 1e-12


def test_insertion_loss_asymmetry_inflates_sigma():
    rng = np.random.default_rng(0)
    plain = reference_chain()
    sweep, _ = noise_sweep(plain, 0.286, F_SIGNAL, F_SIGNAL, vts_setpoint_ladder(), 0.0, rng)
    base = fit_added_noise(sweep, plain)
    asym = reference_chain(il_asymmetry_db=0.5)
    inflated = fit_added_noise(sweep, asym)
    assert inflated.t_add == base.t_add  # central value untouched
    expected_extra = np.mean(sweep.x) * (10 ** 0.05 - 1.0)
    assert inflated.t_add_sigma == pytest.approx(
        math.hypot(base.t_add_sigma, expected_extra), rel=1e-12
    )


def test_fit_added_noise_free_slope_diagnostic():
    chain = reference_chain()
    rng = np.random.default_rng(1)
    sweep, _ = noise_sweep(chain, 0.286, F_SIGNAL, F_SIGNAL, vts_setpoint_ladder(), 0.0, rng)
    res = fit_added_noise(sweep, chain, free_slope=True)
    assert res.slope == pytest.approx(1.0, rel=1e-9)


def test_fit_fuzz_random_chains_exact():
    rng = np.random.default_rng(77)
    for _ in range(100):
        chain = ReceiverChain(
            eta_e=rng.uniform(0.2, 1.0),
            eta_il=rng.uniform(0.2, 1.0),
            g=rng.uniform(10.0, 1000.0),
            g_hemt=rng.uniform(100.0, 1e5),
            g_tot=rng.uniform(1e5, 1e8),
            t_hemt=rng.uniform(0.5, 5.0),
            t_bkg=rng.uniform(100.0, 400.0),
            bandwidth=rng.uniform(10.0, 1e4),
        )
        t_kipa = rng.uniform(0.05, 1.0)
        temps = np.geomspace(0.1, rng.uniform(1.0, 3.0), 4)
        sweep, truth = noise_sweep(chain, t_kipa, F_SIGNAL, F_SIGNAL, temps, 0.0, rng)
        res = fit_added_noise(sweep, chain)
        assert abs(res.t_add - truth["t_add_k"]) < 1e-9
        hs, _ = hemt_sweep(chain, F_SIGNAL, temps, 0.0, rng)
        hres = fit_hemt_noise(hs, chain, F_SIGNAL)
        assert abs(hres.t_hemt - chain.t_hemt) < 1e-9


def test_kipa_noise_from_added_published_numbers():
    t = kipa_noise_from_added(0.3015, 126.0, 1.95)
    assert t == pytest.approx(0.28602380952380952, rel=1e-12)
    assert t == pytest.approx(0.286, abs=1e-4)


def test_kipa_noise_from_added_limits():
    assert kipa_noise_from_added(0.3, 1e12, 1.95) == pytest.approx(0.3, rel=1e-9)
    assert kipa_noise_from_added(1.95 / 126.0, 126.0, 1.95) == pytest.approx(0.0, abs=1e-15)
    with pytest.warns(PhysicsWarning):
        assert kipa_noise_from_added(0.01, 10.0, 1.95) < 0


def test_fit_hemt_noise_recovery_and_conditioning():
    chain = reference_chain()
    rng = np.random.default_rng(3)
    temps = vts_setpoint_ladder(0.1, 3.0)
    sweep, _ = hemt_sweep(chain, F_SIGNAL, temps, 0.0, rng)
    res = fit_hemt_noise(sweep, chain, F_SIGNAL)
    assert abs(res.t_hemt - 1.95) < 1e-9
    # Free-slope design matrix over the four setpoints is well conditioned.
    t_in = chain.input_temperature(temps, F_SIGNAL, through=True)
    X = np.column_stack([t_in, np.ones_like(t_in)])
    assert np.linalg.cond(X) < 100.0


def test_half_quantum_coth_array_matches_scalar_tanh():
    # Reference: the scalar form of the law, element by element in
    # math.tanh; T = 0 is the zero-point limit hf/2k_B.
    x = sc.h * F_SIGNAL / (2 * sc.k)
    temps = np.concatenate([[0.0], np.geomspace(1e-4, 1e4, 400)])
    want = np.array([x if t == 0.0 else x / math.tanh(x / t) for t in temps])
    got = _half_quantum_coth(F_SIGNAL, temps)
    assert got[0] == x
    assert np.all(np.abs(got - want) <= 4 * np.spacing(want))


def test_hemt_input_noise_unit_efficiency_zero_point():
    # Through the 50-ohm through only eta_e counts, twice; eta_il and g do not.
    chain = reference_chain(eta_e=1.0)
    zero_point = sc.h * F_SIGNAL / (2 * sc.k)
    assert chain.input_temperature(1e-9, F_SIGNAL, through=True) == pytest.approx(2 * zero_point, rel=1e-9)


def test_propagate_cold_attenuator_limit():
    elem = ChainElement("attenuation", -3.0, 0.01)
    n_e = 1.0 / math.expm1(sc.h * 5.7e9 / (sc.k * 0.01))
    assert n_e < 2e-12
    out = propagate_noise(0.5, elem, 5.7e9)
    assert out == pytest.approx(10 ** (-0.3) * 0.5, rel=1e-9)


def test_propagate_identity_and_full_thermalization():
    ident = ChainElement("attenuation", 0.0, 4.0)
    assert propagate_noise(0.7, ident, F_SIGNAL) == pytest.approx(0.7, rel=1e-15)
    # Strong attenuation thermalizes toward the element occupation.
    sink = ChainElement("attenuation", -200.0, 4.0)
    n_e = 1.0 / math.expm1(sc.h * F_SIGNAL / (sc.k * 4.0))
    assert propagate_noise(123.0, sink, F_SIGNAL) == pytest.approx(n_e, rel=1e-9)


def test_propagate_chain_order_dependent_and_cold_composition():
    a = ChainElement("attenuation", -3.0, 1.0)
    b = ChainElement("attenuation", -6.0, 0.2)
    ab = propagate_chain(0.5, [a, b], F_SIGNAL)[-1]
    ba = propagate_chain(0.5, [b, a], F_SIGNAL)[-1]
    assert ab != ba
    cold = [ChainElement("attenuation", -3.0, 0.0), ChainElement("attenuation", -6.0, 0.0)]
    out = propagate_chain(0.5, cold, F_SIGNAL)[-1]
    assert out == pytest.approx(10 ** (-0.9) * 0.5, rel=1e-12)


def test_propagate_rejects_gain_elements():
    with pytest.raises(DomainError):
        propagate_noise(0.5, ChainElement("gain", 20.0, 4.0), F_SIGNAL)


def test_high_temp_added_noise_limits():
    chain = reference_chain()
    eta = chain.eta
    cold = high_temp_added_noise(chain, 0.0, 0.286)
    assert cold == pytest.approx(chain.t_hemt / (eta * chain.g) + 0.286, rel=1e-12)

    ideal = reference_chain(eta_e=1.0, eta_il=1.0)
    t = high_temp_added_noise(ideal, 0.123, 0.286)
    assert t == pytest.approx(ideal.t_hemt / ideal.g + 0.123 + 0.286, rel=1e-12)


def test_high_temp_consistency_with_low_temp_decomposition():
    ideal = reference_chain(eta_e=1.0, eta_il=1.0)
    t_add = high_temp_added_noise(ideal, 0.0, 0.286)
    assert kipa_noise_from_added(t_add, ideal.g, ideal.t_hemt) == pytest.approx(0.286, rel=1e-12)


def test_high_temp_inversion_plant():
    chain = reference_chain()
    t_kipa = 0.286
    t_atts = np.linspace(0.01, 0.8, 9)
    t_adds = np.array([high_temp_added_noise(chain, t, t_kipa) for t in t_atts])
    res = fit_kipa_noise_vs_attenuator(SweepRecord(t_atts, t_adds), chain)
    assert abs(res.t_kipa - t_kipa) < 1e-12


def test_radiative_cooling_limits():
    n_bath = 1.0 / math.expm1(sc.h * F_SIGNAL / (sc.k * 0.1))
    n_dev = 1.0 / math.expm1(sc.h * F_SIGNAL / (sc.k * 1.0))
    overcoupled = radiative_cooling(1e9, 10.0, 0.1, 1.0, F_SIGNAL)
    assert overcoupled == pytest.approx(n_bath, rel=1e-5)
    balanced = radiative_cooling(1e6, 1e6, 0.1, 1.0, F_SIGNAL)
    assert balanced == pytest.approx(0.5 * (n_bath + n_dev), rel=1e-12)
    equal_t = radiative_cooling(3e6, 7e6, 0.7, 0.7, F_SIGNAL)
    assert equal_t == pytest.approx(1.0 / math.expm1(sc.h * F_SIGNAL / (sc.k * 0.7)), rel=1e-12)


def test_receiver_chain_validation():
    with pytest.raises(DomainError):
        reference_chain(eta_e=1.5)
    with pytest.raises(DomainError):
        reference_chain(eta_il=0.0)
    with pytest.raises(DomainError):
        reference_chain(g=0.5)
    with pytest.raises(DomainError):
        reference_chain(bandwidth=0.0)
    with pytest.raises(DomainError):
        reference_chain(eta_explicit=2.0)


def test_chain_element_validation():
    with pytest.raises(DomainError):
        ChainElement("attenuation", 1.0, 0.1)
    with pytest.raises(DomainError):
        ChainElement("gain", -1.0, 0.1)
    with pytest.raises(DomainError):
        ChainElement("mystery", 0.0, 0.1)
    with pytest.raises(DomainError):
        ChainElement("attenuation", -1.0, -0.1)


def test_vts_setpoint_validation():
    # One check for both configurations: every source temperature and each carrier read is positive,
    # and the error names the argument at fault.
    chain = reference_chain()
    for through in (False, True):
        for t_vts in (0.0, -1.0, math.nan, [1.0, -1.0], [0.5, 0.0]):
            with pytest.raises(DomainError, match="source temperature must be positive") as err:
                chain.input_temperature(t_vts, F_SIGNAL, F_SIGNAL, through=through)
            assert err.value.arg == "t_vts"
        for f_signal in (0.0, -5e9, math.nan):
            with pytest.raises(DomainError, match="carrier frequency must be positive") as err:
                chain.input_temperature(1.0, f_signal, F_SIGNAL, through=through)
            assert err.value.arg == "f_signal"
    for f_idler in (0.0, -5e9):
        with pytest.raises(DomainError, match="carrier frequency must be positive") as err:
            chain.input_temperature(1.0, F_SIGNAL, f_idler)
        assert err.value.arg == "f_idler"
    # The idler carrier is not read through the 50-ohm through.
    assert chain.input_temperature(1.0, F_SIGNAL, 0.0, through=True) == chain.input_temperature(1.0, F_SIGNAL, through=True)
