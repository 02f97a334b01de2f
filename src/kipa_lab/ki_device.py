"""Kinetic-inductance physics of the amplifier device.

Covers the current dependence of the kinetic inductance (Clem relation),
frequency tuning with dc bias, the self-Kerr strength and the three-wave
mixing pump strength produced by combined dc and microwave currents.  The
tuning law takes a Python number without numpy; arrays and the fit load it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import DomainError, PhysicsWarning, RankError
from .quantities import HBAR

#: Clem exponent measured on high-quality films well below T_C (T/T_C < 0.1).
CLEM_EXPONENT_COLD = 2.21


@dataclass(frozen=True)
class FilmParams:
    """Superconducting film constants.

    The film is assumed much thinner than the penetration depth (not
    checked).  sheet_resistance_rt is informational only.
    """

    sheet_kinetic_inductance: float  # H per square
    thickness: float  # m
    critical_temperature: float  # K
    diffusion_coefficient: float  # m^2 / s
    sheet_resistance_rt: float = 0.0  # ohm per square, room temperature

    def __post_init__(self):
        for name in ("sheet_kinetic_inductance", "thickness", "critical_temperature", "diffusion_coefficient"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"FilmParams.{name} must be positive")


@dataclass(frozen=True)
class ResonatorParams:
    """Resonator constants at zero bias."""

    l_k0: float  # H, zero-current kinetic inductance
    l_t: float  # H, total inductance
    i_star: float  # A, critical current of the Clem relation
    i_sw: float  # A, switching current (operational limit)
    clem_exponent: float = CLEM_EXPONENT_COLD
    f_r0: float = 0.0  # Hz, zero-bias resonance
    alpha: float = 1.0  # kinetic fraction of the total inductance
    z_r: float = 50.0  # ohm
    center_width: float = 0.0  # m, center conductor width (0 = unknown)

    def __post_init__(self):
        if not 0.0 < self.i_sw < self.i_star:
            raise DomainError("require 0 < i_sw < i_star")
        if not self.clem_exponent > 0.0:
            raise DomainError("clem_exponent must be positive")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha must be in (0, 1]")
        if not 0.0 < self.l_k0 <= self.l_t:
            raise DomainError(f"require 0 < l_k0 <= l_t, not l_k0 = {self.l_k0:g} H and l_t = {self.l_t:g} H")


@dataclass(frozen=True)
class BiasPoint:
    """Direct and microwave current amplitudes applied to the resonator."""

    i_dc: float  # A
    i_uw: float  # A, microwave current amplitude

    def __post_init__(self):
        if self.i_uw < 0.0:
            raise DomainError("microwave current amplitude must be >= 0")


@dataclass(frozen=True)
class DeviceParams:
    """Film plus resonator, the unit the CLI serializes."""

    film: FilmParams
    resonator: ResonatorParams


def _check_switching(i_dc: float, res: ResonatorParams) -> None:
    if abs(i_dc) >= res.i_sw:
        warnings.warn(
            f"|I_dc| = {abs(i_dc):.3e} A is at or above the switching current "
            f"{res.i_sw:.3e} A",
            PhysicsWarning,
            stacklevel=3,
        )


def clem_ratio(current, i_star: float, n: float):
    """Clem relation L_k(I) / L_k(0) = [1 - (|I|/I*)^n]^(-1/n), unchecked.

    Even in I, equal to 1 at zero current, divergent as |I| -> I*.  Accepts
    scalars or arrays.
    """
    return (1.0 - (abs(current) / i_star) ** n) ** (-1.0 / n)


def clem_frequency(current, f_r0: float, alpha: float, i_star: float, n: float):
    """Tuning law f(I) = f_r0 * [(1-alpha) + alpha*r(I)]^(-1/2) in Hz, unchecked.

    Only the kinetic part (fraction alpha) of the total inductance scales
    with the Clem ratio r.  Accepts scalars or arrays.
    """
    return f_r0 * ((1.0 - alpha) + alpha * clem_ratio(current, i_star, n)) ** -0.5


def _diverges(res: ResonatorParams) -> DomainError:
    return DomainError(f"kinetic inductance diverges at the critical current I* = {res.i_star:.4e} A")


def _check_below_critical(current, res: ResonatorParams) -> None:
    if isinstance(current, (int, float)):
        over = abs(current) >= res.i_star
    else:
        import numpy as np
        over = np.any(np.abs(np.asarray(current, dtype=float)) >= res.i_star)
    if over:
        raise _diverges(res)


def resonance_vs_bias(i_dc, res: ResonatorParams):
    """Resonant frequency in Hz at a dc bias current, a scalar or an array
    (the Clem tuning law)."""
    if res.f_r0 <= 0.0:
        raise DomainError("resonator f_r0 must be set for frequency tuning")
    if isinstance(i_dc, (int, float)):
        _check_switching(i_dc, res)
    else:
        import numpy as np
        _check_switching(np.max(np.abs(np.asarray(i_dc))), res)
    _check_below_critical(i_dc, res)
    try:
        return clem_frequency(i_dc, res.f_r0, res.alpha, res.i_star, res.clem_exponent)
    except (ZeroDivisionError, OverflowError):  # a Python float near I*: 1 - (|I|/I*)^n rounds to 0, or its power overflows
        raise _diverges(res) from None


def self_kerr(res: ResonatorParams, f_r: float) -> float:
    """Self-Kerr strength in Hz (photon-number frequency shift, negative).

    Reported in the ordinary-frequency convention: the quadratic frequency
    factor is f_r, not 2*pi*f_r, and the result is read in Hz.  This is the
    convention that lands at -0.13 Hz for an 82 nH, 345 uA device near
    5.7 GHz; evaluating with angular frequency throughout gives a value
    2*pi larger (about -0.82 Hz) and is deliberately not used.
    """
    return -0.375 * HBAR * f_r**2 / (res.l_t * res.i_star**2)


def pump_strength_3wm(
    bias: BiasPoint, res: ResonatorParams, f_r: float, psi_p: float = 0.0
) -> complex:
    """Three-wave-mixing pump strength xi in rad/s (complex).

    xi = -(1/4) * (I_dc*I_uw / I*^2) * omega_r * exp(-i*psi_p).  Vanishes
    without dc bias; |xi| is bilinear in (I_dc, I_uw).
    """
    _check_switching(bias.i_dc, res)
    omega_r = 2.0 * math.pi * f_r
    mag = 0.25 * bias.i_dc * bias.i_uw / res.i_star**2 * omega_r
    return -mag * cmath.exp(-1j * psi_p)


def fit_clem_tuning(data: SweepRecord, f_r0: float, alpha: float) -> FitResult:
    """Fit (I*, n) of the Clem tuning law to a (bias current, frequency) sweep.

    f_r0 and alpha are held fixed.  The fit starts from I* = 3 max|I| and
    the cold-film exponent.  Returns a FitResult with params
    [i_star, clem_exponent].
    """
    import numpy as np
    from .fitkit import nlls_fit
    i_max = float(np.max(np.abs(data.x)))
    if i_max == 0.0:
        raise RankError("all bias currents are zero; I* and the Clem exponent are undetermined")
    p0 = [3.0 * i_max, CLEM_EXPONENT_COLD]
    bounds = (np.array([i_max * 1.0000001, 0.1]), np.array([i_max * 1e3, 10.0]))
    return nlls_fit(lambda i, p: clem_frequency(i, f_r0, alpha, p[0], p[1]), data, p0, bounds=bounds)
