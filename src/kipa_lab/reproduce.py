"""Built-in reproduction fixtures: headline derived numbers of the reference
device, each checked against its published value at a stated tolerance.

Fixture inputs are the published design values; expected outputs follow
from the model equations, so these run anywhere in milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

import numpy as np

from . import env_models, io_dynamics, ki_device, microwave_net, noise_cal, squeeze, synthetic
from .errors import ConfigError
from .fitkit import SweepRecord
from .quantities import (
    EULER_GAMMA,
    photon_temperature_equivalent,
    quantum_limit_temperature,
)

#: Published design of the reference stepped-impedance filter.
REFERENCE_SIF = microwave_net.SifDesign(z_l=450.0, z_h=900.0, n_l=6, n_h=5, z_0=50.0, z_r=900.0, f_0=5.75e9)

#: Published resonator constants.
REFERENCE_RESONATOR = ki_device.ResonatorParams(
    l_k0=74.0e-9,
    l_t=82.4e-9,
    i_star=345e-6,
    i_sw=182e-6,
    clem_exponent=2.21,
    f_r0=5.75e9,
    alpha=0.9,
    z_r=900.0,
    center_width=2.0e-6,
)

REFERENCE_F_SIGNAL = 5.6735e9  # Hz
REFERENCE_T_KIPA = 0.286  # K
REFERENCE_T_HEMT = 1.95  # K


def reference_chain() -> noise_cal.ReceiverChain:
    """Receiver chain with the published efficiency and gain ladder."""
    return noise_cal.ReceiverChain(
        eta_e=10.0 ** (-1.25 / 10.0),
        eta_il=10.0 ** (-3.5 / 10.0),
        g=10.0 ** (21.0 / 10.0),
        g_hemt=10.0 ** (40.0 / 10.0),
        g_tot=10.0 ** (68.2 / 10.0),
        t_hemt=REFERENCE_T_HEMT,
        t_bkg=300.0,
        bandwidth=100.0,
    )


def reference_budget() -> squeeze.SqueezeBudget:
    return squeeze.SqueezeBudget(eta=10.0 ** (-4.5 / 10.0), n_h=3.25)


@dataclass
class FixtureResult:
    fixture: str
    description: str
    measured: float
    expected: float
    tolerance: float
    passed: bool

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (
            f"{tag} {self.fixture}: measured={self.measured:.6g} "
            f"expected={self.expected:.6g} tol={self.tolerance:.3g} ({self.description})"
        )


def _result(fixture, description, measured, expected, tolerance) -> FixtureResult:
    return FixtureResult(
        fixture=fixture,
        description=description,
        measured=float(measured),
        expected=float(expected),
        tolerance=float(tolerance),
        passed=bool(abs(measured - expected) <= tolerance),
    )


def fx_qc290() -> FixtureResult:
    qc = microwave_net.coupling_q(REFERENCE_SIF)
    return _result("qc290", "coupling quality factor of the published mirror design", qc, 290.0, 1.0)


def fx_kappa() -> FixtureResult:
    k = microwave_net.coupling_rate(REFERENCE_SIF)
    return _result("kappa", "external coupling rate of the published design", k, 19.8e6, 0.2e6)


def fx_kerr() -> FixtureResult:
    k = ki_device.self_kerr(REFERENCE_RESONATOR, REFERENCE_F_SIGNAL)
    return _result("kerr", "self-Kerr strength at the operating point", k, -0.133, 0.03 * 0.133)


def fx_gbp() -> FixtureResult:
    kappa_hz = 21.3e6
    g_target = 10.0 ** (25.0 / 10.0)
    xi_frac = math.sqrt(1.0 - 1.0 / math.sqrt(g_target))
    cav = io_dynamics.PumpedCavity.from_ordinary(
        kappa_hz, 0.0, 0.0, -1j * xi_frac * kappa_hz, 2.0 * REFERENCE_F_SIGNAL
    )
    f = np.linspace(REFERENCE_F_SIGNAL - 5e6, REFERENCE_F_SIGNAL + 5e6, 4001)
    gbp = io_dynamics.gbp_extract(io_dynamics.GainCurve.from_cavity(cav, f))
    return _result(
        "gbp",
        "gain-bandwidth product of a 25 dB curve with the fitted coupling",
        gbp,
        21.3e6,
        0.6e6,
    )


def fx_deamp_transmission() -> FixtureResult:
    kappa = 2.0 * math.pi * 19.8e6
    cav = io_dynamics.PumpedCavity(kappa, 0.0, 0.0, -1j * 0.999 * kappa, 2.0 * REFERENCE_F_SIGNAL)
    return _result(
        "deamp-transmission",
        "transmission deamplification limit at |xi|/kappa = 0.999",
        io_dynamics.transmission_deamp(cav),
        0.5,
        1e-3,
    )


def fx_deamp_reflection() -> FixtureResult:
    kappa = 2.0 * math.pi * 19.8e6
    cav = io_dynamics.PumpedCavity(kappa, 0.0, 0.0, -1j * 0.5 * kappa, 2.0 * REFERENCE_F_SIGNAL)
    return _result(
        "deamp-reflection",
        "perfect reflection deamplification at |xi| = kappa/2",
        io_dynamics.reflection_deamp(cav),
        0.0,
        1e-15,
    )


def fx_smin() -> FixtureResult:
    s_min = squeeze.max_measurable_squeezing(reference_budget())
    return _result("smin", "maximum measurable squeezing for the published budget", s_min, 0.9897, 1e-3)


def fx_gx() -> FixtureResult:
    budget = reference_budget()
    g_true = 10.0 ** (-2.95 / 10.0)
    s = squeeze.squeezing_factor(g_true, budget)
    g_db = 10.0 * math.log10(squeeze.extract_gx(s, budget))
    return _result(
        "gx",
        "deamplification gain extracted from the deepest measured squeezing",
        g_db,
        -2.95,
        0.05,
    )


def fx_noise_fit() -> FixtureResult:
    chain = reference_chain()
    rng = np.random.default_rng(0)
    sweep, _ = synthetic.noise_sweep(
        chain, REFERENCE_T_KIPA, REFERENCE_F_SIGNAL, REFERENCE_F_SIGNAL, synthetic.vts_setpoint_ladder(), 0.0, rng
    )
    res = noise_cal.fit_added_noise(sweep, chain)
    t_kipa = noise_cal.kipa_noise_from_added(res.t_add, chain.g, chain.t_hemt)
    return _result(
        "noise-fit",
        "noiseless thermometry round trip for the device noise temperature",
        t_kipa,
        REFERENCE_T_KIPA,
        1e-9,
    )


def fx_hemt_fit() -> FixtureResult:
    chain = reference_chain()
    rng = np.random.default_rng(0)
    sweep, _ = synthetic.hemt_sweep(chain, REFERENCE_F_SIGNAL, synthetic.vts_setpoint_ladder(0.1, 3.0), 0.0, rng)
    res = noise_cal.fit_hemt_noise(sweep, chain, REFERENCE_F_SIGNAL)
    return _result(
        "hemt-fit",
        "noiseless 50-ohm-through calibration of the cryogenic amplifier",
        res.t_hemt,
        REFERENCE_T_HEMT,
        1e-9,
    )


def fx_compression() -> FixtureResult:
    # 21 dB plateau, then a linear tail crossing 20 dB exactly at -86 dBm.
    p = np.linspace(-110.0, -75.0, 141)
    gain = 21.0 - np.clip(0.1 * (p + 96.0), 0.0, None)
    sweep = SweepRecord(p, gain)
    point = io_dynamics.compression_point(sweep, 21.0)
    return _result(
        "compression",
        "output saturation power from the 1-dB compression bookkeeping",
        point.p_out_sat_dbm,
        -65.0,
        1.0,
    )


def fx_field_curvature() -> FixtureResult:
    model = env_models.FieldModel(
        diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6, theta_b=0.0
    )
    c = env_models.field_curvature(model)
    return _result(
        "field-curvature",
        "isotropic quadratic coefficient of the parallel-field shift",
        c,
        1.7412e-3,
        0.01 * 1.7412e-3,
    )


def fx_theta_recovery() -> FixtureResult:
    theta_true = math.radians(0.92)
    model = env_models.FieldModel(
        diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6, theta_b=theta_true
    )
    rng = np.random.default_rng(0)
    sweep, _ = synthetic.field_shift_sweep(model, np.linspace(0.0, 6.0, 13), 0.0, rng)
    fit = env_models.fit_field_shift(sweep, model)
    return _result(
        "theta",
        "noiseless recovery of the planted misalignment angle",
        fit.theta_b,
        theta_true,
        0.01 * theta_true,
    )


def fx_digamma() -> FixtureResult:
    err1 = abs(env_models.complex_digamma(1.0).real + EULER_GAMMA)
    err2 = abs(env_models.complex_digamma(0.5).real + EULER_GAMMA + 2.0 * math.log(2.0))
    return _result(
        "digamma",
        "digamma closed forms at 1 and 1/2 (worst absolute error)",
        max(err1, err2),
        0.0,
        1e-12,
    )


def fx_photon() -> FixtureResult:
    n = photon_temperature_equivalent(REFERENCE_T_KIPA, REFERENCE_F_SIGNAL)
    return _result(
        "photon",
        "photon equivalent of the device noise temperature",
        n,
        1.04,
        0.02 * 1.04,
    )


def fx_quantum_limit() -> FixtureResult:
    t = quantum_limit_temperature(REFERENCE_F_SIGNAL)
    return _result(
        "quantum-limit",
        "half-photon temperature at the signal frequency",
        t,
        0.1362,
        1e-3,
    )


FIXTURES: Dict[str, Callable[[], FixtureResult]] = {
    "qc290": fx_qc290,
    "kappa": fx_kappa,
    "kerr": fx_kerr,
    "gbp": fx_gbp,
    "deamp-transmission": fx_deamp_transmission,
    "deamp-reflection": fx_deamp_reflection,
    "smin": fx_smin,
    "gx": fx_gx,
    "noise-fit": fx_noise_fit,
    "hemt-fit": fx_hemt_fit,
    "compression": fx_compression,
    "field-curvature": fx_field_curvature,
    "theta": fx_theta_recovery,
    "digamma": fx_digamma,
    "photon": fx_photon,
    "quantum-limit": fx_quantum_limit,
}


def run_fixture(fixture_id: str) -> list[FixtureResult]:
    if fixture_id == "all":
        return [fn() for fn in FIXTURES.values()]
    if fixture_id not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise ConfigError(f"unknown fixture {fixture_id!r}; known: {known}, all")
    return [FIXTURES[fixture_id]()]
