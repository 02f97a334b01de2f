"""Seeded synthetic-data generators for plant-and-recover workflows.

Every generator takes a numpy Generator (PCG64 recommended; the CLI builds
one from --seed) so identical seeds give bit-identical datasets within one
build.  Returned truth dictionaries carry the planted parameters.  Each
generator imports the law it plants when it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .fitkit import SweepRecord


def vts_setpoint_ladder(lo_k: float = 0.1, hi_k: float = 2.0) -> list[float]:
    """Geometric ladder of four VTS source temperatures, endpoints included."""
    return list(np.geomspace(lo_k, hi_k, 4))


def _with_noise(x, y, sigma, rng: np.random.Generator) -> SweepRecord:
    """(x, y) with Gaussian noise of standard deviation sigma (an array
    shaped like y) added to y and recorded as sigma_y, or noiseless when
    sigma is None."""
    if sigma is None:
        return SweepRecord(x, y)
    return SweepRecord(x, y + rng.normal(0.0, sigma), sigma)


def gain_sweep(
    kappa_hz: float,
    gamma_hz: float,
    delta_hz: float,
    xi_frac_of_kbar: float,
    f_pump_hz: float,
    span_hz: float,
    n_points: int,
    noise_db: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """Driven-cavity power-gain curve in dB with additive Gaussian noise."""
    from .io_dynamics import GainCurve, PumpedCavity
    kbar_hz = kappa_hz + gamma_hz / 2.0
    xi_hz = xi_frac_of_kbar * kbar_hz
    cav = PumpedCavity.from_ordinary(kappa_hz, gamma_hz, delta_hz, -1j * xi_hz, f_pump_hz)
    f = np.linspace(f_pump_hz / 2.0 - span_hz / 2.0, f_pump_hz / 2.0 + span_hz / 2.0, n_points)
    y = GainCurve.from_cavity(cav, f).power_gain_db
    sweep = _with_noise(f, y, np.full(n_points, noise_db) if noise_db > 0 else None, rng)
    truth = {
        "kappa_hz": kappa_hz,
        "gamma_hz": gamma_hz,
        "delta_hz": delta_hz,
        "xi_hz": xi_hz,
        "f_pump_hz": f_pump_hz,
    }
    return sweep, truth


def gain_db_model(f: np.ndarray, p: Sequence[float], f_pump_hz: float) -> np.ndarray:
    """Fit model: power gain in dB vs absolute frequency.

    p = [kappa_hz, gamma_hz, delta_hz, xi_hz]; the pump frequency is a fixed
    property of the sweep, not a fitted parameter.  Rate parameters enter
    through their absolute values so trial steps of an optimizer cannot
    leave the physical domain.
    """
    from .io_dynamics import PumpedCavity, signal_gain
    kappa_hz, gamma_hz, delta_hz, xi_hz = p
    cav = PumpedCavity.from_ordinary(
        abs(kappa_hz), abs(gamma_hz), delta_hz, -1j * abs(xi_hz), f_pump_hz
    )
    g = signal_gain(cav, np.asarray(f, dtype=float), allow_unstable=True)
    return 10.0 * np.log10(np.abs(g) ** 2)


def noise_sweep(
    chain: ReceiverChain,
    t_kipa: float,
    f_signal_hz: float,
    f_idler_hz: float,
    t_vts_values: Optional[Sequence[float]],
    noise_frac: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(T_in, P_out) thermometry sweep with the device in line; None sources are vts_setpoint_ladder()."""
    from .noise_cal import VtsSetpoint, input_noise, vts_output_noise
    t_add = t_kipa + chain.t_hemt / chain.g
    t_vts = vts_setpoint_ladder() if t_vts_values is None else t_vts_values
    sp = VtsSetpoint(np.asarray(t_vts, dtype=float), f_signal_hz, f_idler_hz, g_conv=chain.g - 1.0)
    xs = input_noise(vts_output_noise(sp, chain.g), chain)
    ys = chain.output_power(xs, t_add)
    return _with_noise(xs, ys, noise_frac * ys if noise_frac > 0 else None, rng), {"t_add_k": t_add, "t_kipa_k": t_kipa}


def hemt_sweep(
    chain: ReceiverChain,
    f_signal_hz: float,
    t_vts_values: Optional[Sequence[float]],
    noise_frac: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(T_VTS, P_out) sweep with a 50-ohm through in place of the device; None sources are vts_setpoint_ladder(0.1, 3.0)."""
    from .noise_cal import hemt_input_noise
    xs = np.asarray(vts_setpoint_ladder(0.1, 3.0) if t_vts_values is None else t_vts_values, dtype=float)
    t_in = hemt_input_noise(xs, f_signal_hz, chain)
    ys = chain.output_power(t_in, chain.t_hemt, through=True)
    return _with_noise(xs, ys, noise_frac * ys if noise_frac > 0 else None, rng), {"t_hemt_k": chain.t_hemt}


def compression_sweep(
    small_signal_gain_db: float,
    p_mid_dbm: float,
    softness_db: float,
    depth_db: float,
    p_grid_dbm: np.ndarray,
    noise_db: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """Logistic gain-compression curve with an analytic planted 1-dB point.

    gain(P) = g0 - depth/(1 + exp(-(P - p_mid)/softness)); the true 1-dB
    input power is p_mid - softness*ln(depth - 1).
    """
    if depth_db <= 1.0:
        raise DomainError("depth_db must exceed 1 dB for a 1-dB point to exist")
    if softness_db <= 0.0:
        raise DomainError(f"softness_db must be positive, not {softness_db:g}")
    g = small_signal_gain_db - depth_db / (1.0 + np.exp(-(p_grid_dbm - p_mid_dbm) / softness_db))
    sweep = _with_noise(p_grid_dbm, g, np.full(p_grid_dbm.size, noise_db) if noise_db > 0 else None, rng)
    p_1db = p_mid_dbm - softness_db * math.log(depth_db - 1.0)
    truth = {"p_in_1db_dbm": p_1db, "p_out_sat_dbm": p_1db + small_signal_gain_db - 1.0}
    return sweep, truth


def clem_tuning_sweep(
    res: ResonatorParams,
    currents_a: np.ndarray,
    noise_frac: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(bias current, resonance frequency) sweep from the tuning law."""
    from .ki_device import resonance_vs_bias
    y = resonance_vs_bias(currents_a, res)
    truth = {"i_star_a": res.i_star, "clem_exponent": res.clem_exponent}
    return _with_noise(currents_a, y, noise_frac * y if noise_frac > 0 else None, rng), truth


def field_shift_sweep(
    model: FieldModel,
    b_values_t: np.ndarray,
    noise_abs: float,
    rng: np.random.Generator,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(B, d_omega/omega) sweep from the quadratic field law."""
    from .env_models import field_frequency_shift
    y = field_frequency_shift(b_values_t, model)
    sigma = np.full(b_values_t.size, noise_abs) if noise_abs > 0 else None
    return _with_noise(b_values_t, y, sigma, rng), {"theta_b_rad": model.theta_b}


@dataclass(frozen=True)
class PumpMap:
    """Peak gain over the plane of pump frequency and pump power.

    The pump power sets |xi| through an amplitude coupling
    |xi|/2pi = xi_hz_per_sqrt_mw * sqrt(P/1 mW); the detuning follows the
    pump frequency as Delta/2pi = f_r - f_pump/2.
    """

    kappa_hz: float
    gamma_hz: float
    f_r_hz: float
    xi_hz_per_sqrt_mw: float

    def __post_init__(self):
        if not self.kappa_hz > 0.0:
            raise DomainError("kappa must be positive")
        if not self.gamma_hz >= 0.0:
            raise DomainError("gamma must be non-negative")
        if not self.xi_hz_per_sqrt_mw > 0.0:
            raise DomainError("coupling must be positive")

    def peak_gain_db(self, f_pump_hz, p_pump_dbm, floor_db=-math.inf) -> np.ndarray:
        """Peak gain in dB on broadcast arrays of pump frequency (Hz) and
        power (dBm), NaN in the self-oscillation regime, with a bound below
        ``floor_db`` in place of a peak below it (io_dynamics.peak_gain_db);
        the grid evaluator of io_dynamics.find_optimal_pump.  A power too
        large for a double gives an infinite |xi|, which self-oscillates."""
        from .io_dynamics import peak_gain_db
        f_pump_hz = np.asarray(f_pump_hz, dtype=float)
        if np.any(f_pump_hz <= 0.0):
            raise DomainError("pump frequency must be positive")
        with np.errstate(over="ignore"):
            xi_hz = self.xi_hz_per_sqrt_mw * 10.0 ** (np.asarray(p_pump_dbm, dtype=float) / 20.0)
        return peak_gain_db(self.kappa_hz, self.gamma_hz, self.f_r_hz - f_pump_hz / 2.0, xi_hz, floor_db)


def pump_gain_map(
    kappa_hz: float,
    gamma_hz: float,
    f_r_hz: float,
    xi_hz_per_sqrt_mw: float,
) -> Callable[[float, float], float]:
    """Scalar view (f_pump_hz, p_pump_dbm) -> peak gain in dB of
    PumpMap.peak_gain_db, NaN in the self-oscillation regime."""
    law = PumpMap(kappa_hz, gamma_hz, f_r_hz, xi_hz_per_sqrt_mw).peak_gain_db
    return lambda f_pump_hz, p_pump_dbm: float(law(f_pump_hz, p_pump_dbm))
