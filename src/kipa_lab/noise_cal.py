"""Receiver-chain noise model and calibration fits.

Implements the variable-temperature-source (VTS) thermometry pipeline:
the coth-law output noise of the source, referral through the cryogenic
losses to the amplifier input, the unit-slope linear fit that extracts the
added noise, the 50-ohm-through HEMT calibration, photon-number propagation
through lossy elements at finite temperature, the warm-attenuator correction
for high-temperature operation, and the radiative-cooling occupation of the
resonator.  numpy and the fit engine load in the functions that use them,
so photon-number propagation runs without either.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional

from .errors import ConfigWarning, DomainError, PhysicsWarning
from .quantities import BOLTZMANN, PLANCK, bose_einstein_occupation

_ETA_MISMATCH_WARN_DB = 0.05


@dataclass(frozen=True)
class ChainElement:
    """One cascaded element: an attenuator (value_db <= 0) or an amplifier
    (value_db >= 0) at a physical temperature."""

    kind: str  # "attenuation" | "gain"
    value_db: float
    physical_temperature: float  # K
    label: str = ""

    def __post_init__(self):
        if self.kind not in ("attenuation", "gain"):
            raise DomainError(f"unknown chain element kind {self.kind!r}")
        if self.kind == "attenuation" and self.value_db > 0.0:
            raise DomainError("attenuation elements must have value_db <= 0")
        if self.kind == "gain" and self.value_db < 0.0:
            raise DomainError("gain elements must have value_db >= 0")
        if self.physical_temperature < 0.0:
            raise DomainError("element temperature must be >= 0")

    @property
    def linear(self) -> float:
        return 10.0 ** (self.value_db / 10.0)


@dataclass
class ReceiverChain:
    """Cascade bookkeeping between source, device and analyzer.

    All gains and efficiencies are linear power ratios.  ``eta_e`` is the
    product of the cryogenic component efficiencies between the source and
    the device, ``eta_il`` the per-side device insertion loss, ``g`` the
    device power gain, ``g_tot`` the calibrated gain from the device output
    to the analyzer.  ``eta_explicit`` optionally pins the total efficiency
    directly; when it disagrees with eta_e*eta_il a warning is raised and
    the explicit value wins.
    """

    eta_e: float
    eta_il: float
    g: float
    g_hemt: float
    g_tot: float
    t_hemt: float  # K
    t_bkg: float = 300.0  # K, room-temperature backend noise
    bandwidth: float = 100.0  # Hz
    elements: List[ChainElement] = field(default_factory=list)
    eta_explicit: Optional[float] = None
    # Uncertainty (dB) of the equal split of the total insertion loss across
    # the two device ports; inflates the added-noise error bar.
    il_asymmetry_db: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta_e <= 1.0 or not 0.0 < self.eta_il <= 1.0:
            raise DomainError("efficiencies must be in (0, 1]")
        if self.g < 1.0 or self.g_hemt < 1.0 or self.g_tot < 1.0:
            raise DomainError("gains must be >= 1")
        if self.bandwidth <= 0.0:
            raise DomainError("bandwidth must be positive")
        if self.eta_explicit is not None:
            if not 0.0 < self.eta_explicit <= 1.0:
                raise DomainError("eta_explicit must be in (0, 1]")
            db_product = 10.0 * math.log10(self.eta_e * self.eta_il)
            db_explicit = 10.0 * math.log10(self.eta_explicit)
            if abs(db_product - db_explicit) > _ETA_MISMATCH_WARN_DB:
                warnings.warn(
                    f"explicit eta = {db_explicit:.2f} dB disagrees with "
                    f"eta_e*eta_il = {db_product:.2f} dB; using the explicit value",
                    ConfigWarning,
                    stacklevel=3,
                )
        if self.elements:
            db_elems = sum(e.value_db for e in self.elements if e.kind == "attenuation")
            db_eta_e = 10.0 * math.log10(self.eta_e)
            if abs(db_elems - db_eta_e) > _ETA_MISMATCH_WARN_DB:
                warnings.warn(
                    f"attenuation elements sum to {db_elems:.2f} dB but eta_e is "
                    f"{db_eta_e:.2f} dB",
                    ConfigWarning,
                    stacklevel=3,
                )

    @property
    def eta(self) -> float:
        """Total source-to-device efficiency eta_e * eta_il (or the explicit
        override)."""
        if self.eta_explicit is not None:
            return self.eta_explicit
        return self.eta_e * self.eta_il

    # The chain's output equation P_out = g_tot*k_B*B*(T_in + T_noise + T_b),
    # T_noise being T_add with the device in line (T_b = T_bkg/(g_hemt*g)) or
    # T_HEMT with a 50-ohm through in its place (T_b = T_bkg/g_hemt).
    @property
    def watts_per_kelvin(self) -> float:
        return self.g_tot * BOLTZMANN * self.bandwidth

    def t_backend(self, through: bool = False) -> float:
        return self.t_bkg / self.g_hemt if through else self.t_bkg / (self.g_hemt * self.g)

    def output_temperature(self, t_in, t_noise, through: bool = False):
        return t_in + t_noise + self.t_backend(through)

    def output_power(self, t_in, t_noise, through: bool = False):
        return self.watts_per_kelvin * self.output_temperature(t_in, t_noise, through)

    def input_temperature(self, t_vts, f_signal: float, f_idler: Optional[float] = None, through: bool = False):
        """The source law: noise at the amplifier input, in K, from a source at
        t_vts (K, or an array).  eta*[T_s + ((g - 1)/g)*T_i] with the device
        in line, its idler converted at g - 1; 2*eta_e*T_s through the 50-ohm
        through, whose losses are passed down and back up.  T_f is the coth
        law at carrier f; f_idler is read with the device in line only.
        Every t_vts and each carrier read must be positive; a DomainError
        names the argument at fault as its ``arg``."""
        import numpy as np
        t_vts = np.asarray(t_vts, dtype=float)
        if not np.all(t_vts > 0.0):
            raise DomainError(f"source temperature must be positive, not {t_vts[~(t_vts > 0.0)].flat[0]:g} K", arg="t_vts")
        for arg, f in (("f_signal", f_signal),) if through else (("f_signal", f_signal), ("f_idler", f_idler)):
            if not f > 0.0:
                raise DomainError(f"carrier frequency must be positive, not {f:g} Hz", arg=arg)
        t_s = _half_quantum_coth(f_signal, t_vts)
        if through:
            return 2.0 * self.eta_e * t_s
        return self.eta * (t_s + ((self.g - 1.0) / self.g) * _half_quantum_coth(f_idler, t_vts))


def _half_quantum_coth(f_hz: float, t_k):
    """(h f / 2 k_B) * coth(h f / 2 k_B T), the quantum Johnson-Nyquist
    temperature of a matched source at a temperature or an array of them;
    equals hf/2k_B at T = 0 and at a T so small that x/T overflows, where
    x/T is inf and tanh(inf) = 1."""
    import numpy as np
    x = PLANCK * f_hz / (2.0 * BOLTZMANN)
    with np.errstate(divide="ignore", over="ignore"):
        return x / np.tanh(x / np.asarray(t_k, dtype=float))


def _fit_output_referred(t_in, sweep: SweepRecord, chain: ReceiverChain, free_slope: bool, through: bool):
    """(data, fit, T_noise): P_out and sigma_y over g_tot*k_B*B fitted against
    t_in, slope pinned to one unless free_slope; T_noise = intercept - T_b."""
    from .fitkit import SweepRecord, linear_fit
    scale = chain.watts_per_kelvin
    sigma = None if sweep.sigma_y is None else sweep.sigma_y / scale
    data = SweepRecord(t_in, sweep.y / scale, sigma)
    res = linear_fit(data, fixed_slope=None if free_slope else 1.0)
    return data, res, float(res.params[1]) - chain.t_backend(through)


class AddedNoiseFit(NamedTuple):
    t_add: float  # K
    t_add_sigma: float  # K
    slope: float
    fit: FitResult


def fit_added_noise(sweep: SweepRecord, chain: ReceiverChain, free_slope: bool = False) -> AddedNoiseFit:
    """Extract the front-end added noise from a (T_in, P_out) sweep.

    The output power in watts is converted to output-referred kelvin through
    g_tot*k_B*B and fitted to ReceiverChain.output_temperature(T_in, T_add)
    with the slope pinned to one (free_slope=True releases it as a
    gain-calibration diagnostic).  Inverse-variance weights apply when the
    sweep carries sigma_y.

    A nonzero chain.il_asymmetry_db widens the reported 1-sigma: the
    input-referred temperatures scale with the uncertain input-side
    insertion loss, which shifts the intercept by (weighted mean of T_in)
    times the loss-ratio uncertainty.
    """
    data, res, t_add = _fit_output_referred(sweep.x, sweep, chain, free_slope, through=False)
    sigma_total = float(res.stderr[1])
    if chain.il_asymmetry_db > 0.0:
        import numpy as np
        w = data.weights
        t_in_mean = float(np.sum(w * data.x) / np.sum(w))
        sigma_asym = t_in_mean * (10.0 ** (chain.il_asymmetry_db / 10.0) - 1.0)
        sigma_total = math.hypot(sigma_total, sigma_asym)
    return AddedNoiseFit(t_add=t_add, t_add_sigma=sigma_total, slope=float(res.params[0]), fit=res)


def kipa_noise_from_added(t_add: float, g: float, t_hemt: float) -> float:
    """Device-only noise temperature T_dev = T_add - T_HEMT/g.

    A negative result is returned as-is with a warning; it can occur inside
    the error bars of a near-quantum-limited measurement.
    """
    if g < 1.0:
        raise DomainError("gain must be >= 1")
    t = t_add - t_hemt / g
    if t < 0.0:
        warnings.warn(
            f"extracted device noise {t * 1e3:.1f} mK is negative (unphysical)",
            PhysicsWarning,
            stacklevel=2,
        )
    return t


class HemtNoiseFit(NamedTuple):
    t_hemt: float  # K
    t_hemt_sigma: float  # K
    slope: float
    fit: FitResult


def fit_hemt_noise(
    sweep: SweepRecord, chain: ReceiverChain, f_signal: float, free_slope: bool = False
) -> HemtNoiseFit:
    """Calibrate the HEMT noise temperature from a (T_VTS, P_out) sweep taken
    with a 50-ohm through in place of the device:
    P_out/(g_tot k_B B) = T_in^(H) + T_HEMT + T_bkg/g_hemt, with T_in^(H)
    from ReceiverChain.input_temperature(..., through=True).
    """
    t_in = chain.input_temperature(sweep.x, f_signal, through=True)
    _, res, t_hemt = _fit_output_referred(t_in, sweep, chain, free_slope, through=True)
    return HemtNoiseFit(t_hemt=t_hemt, t_hemt_sigma=float(res.stderr[1]), slope=float(res.params[0]), fit=res)


def propagate_noise(n_in: float, element: ChainElement, f_hz: float) -> float:
    """Photon-number propagation through one lossy element,

    N = eta*N_in + (1 - eta)*n_BE(T_element),

    where n_BE is the Bose-Einstein occupation at the element temperature.
    At millikelvin element temperatures this reduces to plain attenuation.
    Only attenuation elements are meaningful here.
    """
    if element.kind != "attenuation":
        raise DomainError("noise propagation is defined for attenuation elements only")
    if n_in < 0.0:
        raise DomainError("photon number must be >= 0")
    eta = element.linear
    return eta * n_in + (1.0 - eta) * bose_einstein_occupation(element.physical_temperature, f_hz)


def propagate_chain(n_in: float, elements: List[ChainElement], f_hz: float) -> List[float]:
    """Occupation after each element, in order."""
    out = []
    n = n_in
    for e in elements:
        n = propagate_noise(n, e, f_hz)
        out.append(n)
    return out


def _warm_attenuator(chain: ReceiverChain) -> tuple:
    """(eta*g, bracket) of the warm-attenuator model, with the bracket
    1 - eta_e + eta_e^2*(1 - eta_il) + eta^2*g."""
    eta = chain.eta
    return eta * chain.g, 1.0 - chain.eta_e + chain.eta_e**2 * (1.0 - chain.eta_il) + eta**2 * chain.g


def high_temp_added_noise(chain: ReceiverChain, t_att: float, t_kipa: float) -> float:
    """Added noise with a warm attenuator thermalized at t_att:

    T_add = T_HEMT/(eta*g)
          + T_att/(eta*g) * [1 - eta_e + eta_e^2*(1 - eta_il) + eta^2*g]
          + T_dev.

    Reduces to T_HEMT/g + T_dev for a cold, lossless chain.
    """
    if t_att < 0.0:
        raise DomainError("attenuator temperature must be >= 0")
    eg, bracket = _warm_attenuator(chain)
    return chain.t_hemt / eg + (t_att / eg) * bracket + t_kipa


class KipaNoiseVsAttenuatorFit(NamedTuple):
    t_kipa: float  # K
    t_kipa_sigma: float  # K
    fit: FitResult


def fit_kipa_noise_vs_attenuator(sweep: SweepRecord, chain: ReceiverChain) -> KipaNoiseVsAttenuatorFit:
    """Invert the warm-attenuator model over a (T_att, T_add) sweep.

    The model is linear in T_att with a slope fixed by the chain, so the
    device noise is the intercept minus T_HEMT/(eta*g).
    """
    from .fitkit import linear_fit
    eg, bracket = _warm_attenuator(chain)
    res = linear_fit(sweep, fixed_slope=bracket / eg)
    t_kipa = float(res.params[1]) - chain.t_hemt / eg
    return KipaNoiseVsAttenuatorFit(t_kipa=t_kipa, t_kipa_sigma=float(res.stderr[1]), fit=res)


def radiative_cooling(kappa: float, gamma: float, t_bath: float, t_dev: float, f_hz: float) -> float:
    """Average resonator occupation set jointly by line and device baths,

    n = kappa/(kappa+gamma) * n_BE(T_bath) + gamma/(kappa+gamma) * n_BE(T_dev).

    Overcoupling (kappa >> gamma) pins the occupation to the cold line.
    """
    if kappa < 0.0 or gamma < 0.0 or kappa + gamma <= 0.0:
        raise DomainError("need kappa, gamma >= 0 with kappa + gamma > 0")
    w_line = kappa / (kappa + gamma)
    return w_line * bose_einstein_occupation(t_bath, f_hz) + (1.0 - w_line) * bose_einstein_occupation(t_dev, f_hz)
