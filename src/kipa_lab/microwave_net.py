"""Stepped-impedance-filter (SIF) coupling computations.

Two mirrors of alternating quarter-wave high/low impedance CPW sections
embed the half-wave resonator in a Fabry-Perot geometry.  This module
computes the transmission-line input-impedance recursion, the effective
source impedance seen by the resonator, the coupling quality factor and the
external coupling rate.  Lines are treated as lossless and dispersionless;
loss enters elsewhere as the cavity internal rate.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, List

from .errors import ConfigWarning, DomainError


@dataclass(frozen=True)
class LineSection:
    """One transmission-line section.

    electrical_length is the fraction of a wavelength at f_design, e.g. 0.25
    for a quarter-wave section.
    """

    z_f: float  # ohm, characteristic impedance
    electrical_length: float  # fraction of lambda at f_design
    f_design: float  # Hz

    def __post_init__(self):
        if self.z_f <= 0.0 or self.electrical_length <= 0.0 or self.f_design <= 0.0:
            raise DomainError("LineSection requires positive impedance, length and frequency")


@dataclass(frozen=True)
class SifDesign:
    """Mirror description: n_l low-Z and n_h high-Z quarter-wave sections."""

    z_l: float  # ohm
    z_h: float  # ohm
    n_l: int
    n_h: int
    z_0: float  # ohm, environment
    z_r: float  # ohm, resonator
    f_0: float  # Hz, common design frequency of all sections

    def __post_init__(self):
        for name in ("z_l", "z_h", "z_0", "z_r", "f_0"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"SifDesign.{name} must be positive")
        if self.n_l < 0 or self.n_h < 0:
            raise DomainError("section counts must be non-negative")
        if self.z_l >= self.z_h:
            warnings.warn(
                f"z_l = {self.z_l} is not below z_h = {self.z_h}; mirror is degenerate",
                ConfigWarning,
                stacklevel=3,
            )
        if self.n_l != self.n_h + 1:
            warnings.warn(
                f"mirror topology n_l = n_h + 1 expected, got n_l={self.n_l}, n_h={self.n_h}",
                ConfigWarning,
                stacklevel=3,
            )


def input_impedance(section: LineSection, z_load: complex, f: float) -> complex:
    """Impedance looking into a section terminated by z_load, at frequency f.

    Uses the sin/cos form of the transformer equation,
    Z_in = Z_f (Z_L cos(bl) + i Z_f sin(bl)) / (Z_f cos(bl) + i Z_L sin(bl)),
    which is regular at the quarter-wave point (where it reduces to
    Z_f^2/Z_L) and at the half-wave point (identity).
    """
    if f <= 0.0:
        raise DomainError("frequency must be positive")
    bl = 2.0 * math.pi * (f / section.f_design) * section.electrical_length
    c, s = math.cos(bl), math.sin(bl)
    zf = section.z_f
    return zf * (z_load * c + 1j * zf * s) / (zf * c + 1j * z_load * s)


def cascade_input_impedance(sections: Iterable[LineSection], z_load: complex, f: float) -> complex:
    """Fold input_impedance over sections, nearest the load first."""
    z = complex(z_load)
    for sec in sections:
        z = input_impedance(sec, z, f)
    return z


def sif_sections(sif: SifDesign) -> List[LineSection]:
    """Quarter-wave sections of one mirror, ordered from the environment
    (feedline side) toward the resonator, alternating low/high and starting
    and ending with low-Z for the standard n_l = n_h + 1 topology."""
    out: List[LineSection] = []
    n = sif.n_l + sif.n_h
    for k in range(n):
        z = sif.z_l if k % 2 == 0 else sif.z_h
        out.append(LineSection(z_f=z, electrical_length=0.25, f_design=sif.f_0))
    counts = (sum(1 for s in out if s.z_f == sif.z_l), sum(1 for s in out if s.z_f == sif.z_h))
    if sif.z_l != sif.z_h and counts != (sif.n_l, sif.n_h):
        # Non-standard counts: stack all low-Z then all high-Z.
        out = [LineSection(sif.z_l, 0.25, sif.f_0) for _ in range(sif.n_l)] + [
            LineSection(sif.z_h, 0.25, sif.f_0) for _ in range(sif.n_h)
        ]
    return out


def effective_impedance(sif: SifDesign) -> float:
    """Source impedance seen by the resonator through one mirror at f_0.

    Z_eff = Z_l^(2 n_l) / (Z_h^(2 n_h) * Z_0), evaluated in log space so
    large section counts cannot overflow.
    """
    if sif.n_l == 0 and sif.n_h == 0:
        warnings.warn("no mirror sections; returning the degenerate value 1/Z_0", ConfigWarning, stacklevel=2)
        return 1.0 / sif.z_0
    log_z = 2.0 * sif.n_l * math.log(sif.z_l) - 2.0 * sif.n_h * math.log(sif.z_h) - math.log(sif.z_0)
    return math.exp(log_z)


def coupling_q(sif: SifDesign) -> float:
    """Coupling quality factor of the series-equivalent circuit, 4 Z_r / (pi Z_eff)."""
    return 4.0 * sif.z_r / (math.pi * effective_impedance(sif))


def coupling_rate(sif: SifDesign) -> float:
    """External coupling rate as ordinary frequency, kappa/2pi in Hz,
    (pi/4) * (Z_eff / Z_r) * f_0, which is f_0 / Q_c."""
    return 0.25 * math.pi * (effective_impedance(sif) / sif.z_r) * sif.f_0
