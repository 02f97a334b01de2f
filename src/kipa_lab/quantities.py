"""Physical constants and unit conversions used throughout the toolkit.

Conventions, fixed here once for the whole package:

* All public interfaces take ordinary frequency ``f`` in Hz.  Conversions to
  angular frequency ``omega = 2*pi*f`` are always explicit, never implied.
* Photon-number equivalents of a temperature use the linear convention
  ``n = k_B*T / (h*f)``; the thermal occupation of the mode is
  ``bose_einstein_occupation``.
* Decibel values are power ratios, ``db = 10*log10(linear)``.

Constants are CODATA 2018 (the 2019 SI redefinition makes h, k_B and e
exact), fixed in source rather than imported so results are reproducible
independent of the scipy version installed.
"""

from __future__ import annotations

import math

from .errors import DomainError

# CODATA 2018 / SI 2019 exact values.
PLANCK = 6.62607015e-34  # J s
HBAR = PLANCK / (2.0 * math.pi)  # J s, 1.05457182e-34
BOLTZMANN = 1.380649e-23  # J / K
E_CHARGE = 1.602176634e-19  # C
MU_0 = 1.25663706212e-6  # H / m
EULER_GAMMA = 0.5772156649015329


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(ratio: float) -> float:
    if not ratio > 0.0:
        raise DomainError(f"dB conversion requires a positive power ratio, got {ratio}")
    return 10.0 * math.log10(ratio)


def bose_einstein_occupation(temperature_k: float, f) -> float:
    """Average photon number 1/[exp(h f / k_B T) - 1] of a thermal mode."""
    f_hz = float(f)
    if temperature_k < 0.0 or f_hz <= 0.0:
        raise DomainError("Bose-Einstein occupation needs T >= 0 and f > 0")
    if temperature_k == 0.0:
        return 0.0
    x = PLANCK * f_hz / (BOLTZMANN * temperature_k)
    if x > 700.0:  # exp would overflow; occupation is numerically zero
        return 0.0
    return 1.0 / math.expm1(x)


def photon_temperature_equivalent(temperature_k: float, f) -> float:
    """Photon-number equivalent k_B*T/(h*f) of a noise temperature at
    carrier ``f``, the convention in which 286 mK at 5.67 GHz is about one
    photon."""
    f_hz = float(f)
    if temperature_k < 0.0:
        raise DomainError(f"temperature must be non-negative, got {temperature_k} K")
    if f_hz <= 0.0:
        raise DomainError(f"frequency must be positive, got {f_hz} Hz")
    return BOLTZMANN * temperature_k / (PLANCK * f_hz)


def temperature_from_photons(photons: float, f) -> float:
    """Inverse of the linear convention: T = n*h*f/k_B."""
    f_hz = float(f)
    if photons < 0.0 or f_hz <= 0.0:
        raise DomainError("need photons >= 0 and f > 0")
    return photons * PLANCK * f_hz / BOLTZMANN


def quantum_limit_temperature(f) -> float:
    """Temperature equivalent of half a photon, h*f/(2*k_B)."""
    f_hz = float(f)
    if f_hz <= 0.0:
        raise DomainError(f"frequency must be positive, got {f_hz} Hz")
    return PLANCK * f_hz / (2.0 * BOLTZMANN)
