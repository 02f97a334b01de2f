"""Seeded synthetic-data generators for plant-and-recover workflows.

Every generator takes ``rng``, a numpy Generator or an int seed (the CLI
passes --seed), and draws its noise once from ``np.random.default_rng(rng)``,
which returns a Generator unchanged: a seed and the Generator made from it
plant the same bits, and a noiseless plant loads no RNG.  Returned truth
dictionaries carry the planted parameters.  Each generator imports the law
it plants, and SweepRecord, when it runs; gain_sweep is handed the curve it
plants, the one the gain command already computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError


def vts_setpoint_ladder(lo_k: float = 0.1, hi_k: float = 2.0) -> list[float]:
    """Geometric ladder of four VTS source temperatures, endpoints included."""
    return list(np.geomspace(lo_k, hi_k, 4))


def _with_noise(x, y, rng, noise_abs: float = 0.0, noise_frac: float = 0.0) -> SweepRecord:
    """(x, y) with Gaussian noise drawn from ``np.random.default_rng(rng)``,
    added to y and recorded as sigma_y: of standard deviation noise_abs, or
    noise_frac*y, whichever is above 0; noiseless when neither is.  Noise
    that overflows a double is a DomainError."""
    from .fitkit import SweepRecord
    if not (noise_abs > 0 or noise_frac > 0):
        return SweepRecord(x, y)
    with np.errstate(over="ignore"):
        sigma = np.full(y.shape, noise_abs) if noise_abs > 0 else noise_frac * y
        noisy = y + np.random.default_rng(rng).normal(0.0, sigma)
    if not np.all(np.isfinite(noisy)):
        raise DomainError(f"the planted noise ({noise_abs:g} absolute, {noise_frac:g} relative) overflows a double")
    return SweepRecord(x, noisy, sigma)


def gain_sweep(
    cav: PumpedCavity,
    curve: GainCurve,
    noise_db: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """The power gain of ``curve``, the cavity's GainCurve, in dB with
    additive Gaussian noise; the truth is the cavity's rates in Hz."""
    two_pi = 2.0 * math.pi
    truth = {
        "kappa_hz": cav.kappa / two_pi,
        "gamma_hz": cav.gamma / two_pi,
        "delta_hz": cav.delta / two_pi,
        "xi_hz": abs(cav.xi) / two_pi,
        "f_pump_hz": cav.f_pump,
    }
    return _with_noise(curve.f_hz, curve.power_gain_db, rng, noise_abs=noise_db), truth


def noise_sweep(
    chain: ReceiverChain,
    t_kipa: float,
    f_signal_hz: float,
    f_idler_hz: float,
    t_vts_values: Optional[Sequence[float]],
    noise_frac: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(T_in, P_out) thermometry sweep with the device in line; None sources are vts_setpoint_ladder()."""
    t_add = t_kipa + chain.t_hemt / chain.g
    t_vts = vts_setpoint_ladder() if t_vts_values is None else t_vts_values
    xs = chain.input_temperature(t_vts, f_signal_hz, f_idler_hz)
    ys = chain.output_power(xs, t_add)
    return _with_noise(xs, ys, rng, noise_frac=noise_frac), {"t_add_k": t_add, "t_kipa_k": t_kipa}


def hemt_sweep(
    chain: ReceiverChain,
    f_signal_hz: float,
    t_vts_values: Optional[Sequence[float]],
    noise_frac: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(T_VTS, P_out) sweep with a 50-ohm through in place of the device; None sources are vts_setpoint_ladder(0.1, 3.0)."""
    xs = np.asarray(vts_setpoint_ladder(0.1, 3.0) if t_vts_values is None else t_vts_values, dtype=float)
    t_in = chain.input_temperature(xs, f_signal_hz, through=True)
    ys = chain.output_power(t_in, chain.t_hemt, through=True)
    return _with_noise(xs, ys, rng, noise_frac=noise_frac), {"t_hemt_k": chain.t_hemt}


def compression_sweep(
    small_signal_gain_db: float,
    p_mid_dbm: float,
    softness_db: float,
    depth_db: float,
    p_grid_dbm: np.ndarray,
    noise_db: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """Logistic gain-compression curve with an analytic planted 1-dB point.

    gain(P) = g0 - depth/(1 + exp(-(P - p_mid)/softness)); the true 1-dB
    input power is p_mid - softness*ln(depth - 1).
    """
    if depth_db <= 1.0:
        raise DomainError("depth_db must exceed 1 dB for a 1-dB point to exist")
    if softness_db <= 0.0:
        raise DomainError(f"softness_db must be positive, not {softness_db:g}")
    with np.errstate(over="ignore"):  # exp(inf) = inf: the gain far below p_mid is g0
        g = small_signal_gain_db - depth_db / (1.0 + np.exp(-(p_grid_dbm - p_mid_dbm) / softness_db))
    sweep = _with_noise(p_grid_dbm, g, rng, noise_abs=noise_db)
    p_1db = p_mid_dbm - softness_db * math.log(depth_db - 1.0)
    truth = {"p_in_1db_dbm": p_1db, "p_out_sat_dbm": p_1db + small_signal_gain_db - 1.0}
    return sweep, truth


def clem_tuning_sweep(
    res: ResonatorParams,
    currents_a: np.ndarray,
    noise_frac: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(bias current, resonance frequency) sweep from the tuning law."""
    from .ki_device import resonance_vs_bias
    y = resonance_vs_bias(currents_a, res)
    truth = {"i_star_a": res.i_star, "clem_exponent": res.clem_exponent}
    return _with_noise(currents_a, y, rng, noise_frac=noise_frac), truth


def field_shift_sweep(
    model: FieldModel,
    b_values_t: np.ndarray,
    noise_abs: float,
    rng: np.random.Generator | int,
) -> Tuple[SweepRecord, Dict[str, float]]:
    """(B, d_omega/omega) sweep from the quadratic field law."""
    from .env_models import field_frequency_shift
    y = field_frequency_shift(b_values_t, model)
    return _with_noise(b_values_t, y, rng, noise_abs=noise_abs), {"theta_b_rad": model.theta_b}


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
