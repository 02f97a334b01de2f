"""Built-in reproduction fixtures: headline derived numbers of the reference
device, each checked against its published value at a stated tolerance.

Fixture inputs are the published design values; expected outputs follow
from the model equations, so these run anywhere in milliseconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

import numpy as np

from . import env_models, io_dynamics, ki_device, microwave_net, noise_cal, squeeze, synthetic
from .errors import ConfigError
from .fitkit import SweepRecord
from .quantities import EULER_GAMMA, REFERENCE_F_SIGNAL, REFERENCE_T_KIPA, photon_temperature_equivalent, quantum_limit_temperature

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

REFERENCE_T_HEMT = 1.95  # K

#: Film and geometry of the parallel-field fixtures, aligned with the film plane.
_FIELD_MODEL = env_models.FieldModel(diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6)

#: Misalignment angle the theta fixture plants.
_THETA = math.radians(0.92)


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


def _cavity(kappa_hz: float, xi_frac: float) -> io_dynamics.PumpedCavity:
    """Lossless, undetuned cavity pumped at twice the signal frequency, with
    |xi| = xi_frac * kappa on the deamplification phase."""
    xi = -1j * xi_frac * kappa_hz
    return io_dynamics.PumpedCavity.from_ordinary(kappa_hz, 0.0, 0.0, xi, 2.0 * REFERENCE_F_SIGNAL)


def _gbp() -> float:
    xi_frac = math.sqrt(1.0 - 1.0 / math.sqrt(10.0 ** (25.0 / 10.0)))  # a 25 dB peak
    f = np.linspace(REFERENCE_F_SIGNAL - 5e6, REFERENCE_F_SIGNAL + 5e6, 4001)
    return io_dynamics.gbp_extract(io_dynamics.GainCurve.from_cavity(_cavity(21.3e6, xi_frac), f))


def _gx() -> float:
    budget = reference_budget()
    s = squeeze.squeezing_factor(10.0 ** (-2.95 / 10.0), budget)
    return 10.0 * math.log10(squeeze.extract_gx(s, budget))


def _noise_fit() -> float:
    chain = reference_chain()
    sweep, _ = synthetic.noise_sweep(chain, REFERENCE_T_KIPA, REFERENCE_F_SIGNAL, REFERENCE_F_SIGNAL,
                                     synthetic.vts_setpoint_ladder(), 0.0, 0)
    return noise_cal.kipa_noise_from_added(noise_cal.fit_added_noise(sweep, chain).t_add, chain.g, chain.t_hemt)


def _hemt_fit() -> float:
    chain = reference_chain()
    sweep, _ = synthetic.hemt_sweep(chain, REFERENCE_F_SIGNAL, synthetic.vts_setpoint_ladder(0.1, 3.0), 0.0, 0)
    return noise_cal.fit_hemt_noise(sweep, chain, REFERENCE_F_SIGNAL).t_hemt


def _compression() -> float:
    # 21 dB plateau, then a linear tail crossing 20 dB exactly at -86 dBm.
    p = np.linspace(-110.0, -75.0, 141)
    sweep = SweepRecord(p, 21.0 - np.clip(0.1 * (p + 96.0), 0.0, None))
    return io_dynamics.compression_point(sweep, 21.0).p_out_sat_dbm


def _theta() -> float:
    model = replace(_FIELD_MODEL, theta_b=_THETA)
    sweep, _ = synthetic.field_shift_sweep(model, np.linspace(0.0, 6.0, 13), 0.0, 0)
    return env_models.fit_field_shift(sweep, model).theta_b


def _digamma() -> float:
    err1 = abs(env_models.complex_digamma(1.0).real + EULER_GAMMA)
    err2 = abs(env_models.complex_digamma(0.5).real + EULER_GAMMA + 2.0 * math.log(2.0))
    return max(err1, err2)


#: One row per check, in report order: id -> (description, measure, expected,
#: tolerance).  ``measure()`` returns the measured value; the check passes
#: when it lies within ``tolerance`` of ``expected``.
FIXTURES: Dict[str, Tuple[str, Callable[[], float], float, float]] = {
    "qc290": ("coupling quality factor of the published mirror design",
              lambda: microwave_net.coupling_q(REFERENCE_SIF), 290.0, 1.0),
    "kappa": ("external coupling rate of the published design",
              lambda: microwave_net.coupling_rate(REFERENCE_SIF), 19.8e6, 0.2e6),
    "kerr": ("self-Kerr strength at the operating point",
             lambda: ki_device.self_kerr(REFERENCE_RESONATOR, REFERENCE_F_SIGNAL), -0.133, 0.03 * 0.133),
    "gbp": ("gain-bandwidth product of a 25 dB curve with the fitted coupling", _gbp, 21.3e6, 0.6e6),
    "deamp-transmission": ("transmission deamplification limit at |xi|/kappa = 0.999",
                           lambda: io_dynamics.transmission_deamp(_cavity(19.8e6, 0.999)), 0.5, 1e-3),
    "deamp-reflection": ("perfect reflection deamplification at |xi| = kappa/2",
                         lambda: io_dynamics.reflection_deamp(_cavity(19.8e6, 0.5)), 0.0, 1e-15),
    "smin": ("maximum measurable squeezing for the published budget",
             lambda: squeeze.max_measurable_squeezing(reference_budget()), 0.9897, 1e-3),
    "gx": ("deamplification gain extracted from the deepest measured squeezing", _gx, -2.95, 0.05),
    "noise-fit": ("noiseless thermometry round trip for the device noise temperature",
                  _noise_fit, REFERENCE_T_KIPA, 1e-9),
    "hemt-fit": ("noiseless 50-ohm-through calibration of the cryogenic amplifier", _hemt_fit, REFERENCE_T_HEMT, 1e-9),
    "compression": ("output saturation power from the 1-dB compression bookkeeping", _compression, -65.0, 1.0),
    "field-curvature": ("isotropic quadratic coefficient of the parallel-field shift",
                        lambda: env_models.field_curvature(_FIELD_MODEL), 1.7412e-3, 0.01 * 1.7412e-3),
    "theta": ("noiseless recovery of the planted misalignment angle", _theta, _THETA, 0.01 * _THETA),
    "digamma": ("digamma closed forms at 1 and 1/2 (worst absolute error)", _digamma, 0.0, 1e-12),
    "photon": ("photon equivalent of the device noise temperature",
               lambda: photon_temperature_equivalent(REFERENCE_T_KIPA, REFERENCE_F_SIGNAL), 1.04, 0.02 * 1.04),
    "quantum-limit": ("half-photon temperature at the signal frequency",
                      lambda: quantum_limit_temperature(REFERENCE_F_SIGNAL), 0.1362, 1e-3),
}


def run_fixture(fixture_id: str) -> list[FixtureResult]:
    """The results of fixture ``fixture_id``, or of every fixture for "all"."""
    if fixture_id != "all" and fixture_id not in FIXTURES:
        known = ", ".join(sorted(FIXTURES))
        raise ConfigError(f"unknown fixture {fixture_id!r}; known: {known}, all")
    results = []
    for fixture in FIXTURES if fixture_id == "all" else [fixture_id]:
        description, measure, expected, tolerance = FIXTURES[fixture]
        measured = measure()
        passed = bool(abs(measured - expected) <= tolerance)
        results.append(FixtureResult(fixture, description, float(measured), float(expected), float(tolerance), passed))
    return results
