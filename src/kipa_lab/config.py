"""Configuration ingestion: JSON documents for devices, filters, chains,
budgets and models, plus the canonical config hash.

All dB fields end in ``_db`` (power convention), SI fields carry their unit
as a suffix.  Nested documents are inlined; measured sweeps are CSV files
named by a ``sweep_file`` key, relative to the config file.
"""

from __future__ import annotations

import hashlib
import json
import math

from .env_models import FieldModel, TempModel
from .errors import ConfigError, DomainError
from .fitkit import SweepRecord
from .io_dynamics import PumpedCavity
from .ki_device import DeviceParams, FilmParams, ResonatorParams
from .microwave_net import SifDesign
from .noise_cal import ChainElement, ReceiverChain
from .squeeze import SqueezeBudget


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def config_hash(cfg: dict) -> str:
    """SHA-256 of the canonical (sorted-key, compact) JSON encoding; stable
    under key reordering of the source document."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _get(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing field {key!r} in {where}")
    return d[key]


def parse_film(d: dict) -> FilmParams:
    try:
        return FilmParams(
            sheet_kinetic_inductance=_get(d, "sheet_kinetic_inductance_h_per_sq", "film"),
            thickness=_get(d, "thickness_m", "film"),
            critical_temperature=_get(d, "critical_temperature_k", "film"),
            diffusion_coefficient=_get(d, "diffusion_coefficient_m2_per_s", "film"),
            sheet_resistance_rt=d.get("sheet_resistance_rt_ohm_per_sq", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"bad film parameters: {exc}") from exc


def parse_resonator(d: dict) -> ResonatorParams:
    try:
        return ResonatorParams(
            l_k0=_get(d, "l_k0_h", "resonator"),
            l_t=_get(d, "l_t_h", "resonator"),
            i_star=_get(d, "i_star_a", "resonator"),
            i_sw=_get(d, "i_sw_a", "resonator"),
            clem_exponent=d.get("clem_exponent", 2.21),
            f_r0=d.get("f_r0_hz", 0.0),
            alpha=d.get("alpha", 1.0),
            z_r=d.get("z_r_ohm", 50.0),
            center_width=d.get("center_width_m", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"bad resonator parameters: {exc}") from exc


def parse_device(d: dict) -> DeviceParams:
    return DeviceParams(film=parse_film(_get(d, "film", "device")), resonator=parse_resonator(_get(d, "resonator", "device")))


def parse_sif(d: dict) -> SifDesign:
    try:
        return SifDesign(
            z_l=_get(d, "z_l_ohm", "sif"),
            z_h=_get(d, "z_h_ohm", "sif"),
            n_l=int(_get(d, "n_l", "sif")),
            n_h=int(_get(d, "n_h", "sif")),
            z_0=_get(d, "z_0_ohm", "sif"),
            z_r=_get(d, "z_r_ohm", "sif"),
            f_0=_get(d, "f_0_hz", "sif"),
        )
    except DomainError as exc:
        raise ConfigError(f"bad filter design: {exc}") from exc


def parse_chain(d: dict) -> ReceiverChain:
    elements = []
    for e in d.get("elements", []):
        try:
            elements.append(
                ChainElement(
                    kind=_get(e, "kind", "chain element"),
                    value_db=_get(e, "value_db", "chain element"),
                    physical_temperature=_get(e, "temperature_k", "chain element"),
                    label=e.get("label", ""),
                )
            )
        except DomainError as exc:
            raise ConfigError(f"bad chain element: {exc}") from exc
    eta_db = d.get("eta_db")
    try:
        return ReceiverChain(
            eta_e=10.0 ** (_get(d, "eta_e_db", "chain") / 10.0),
            eta_il=10.0 ** (_get(d, "eta_il_db", "chain") / 10.0),
            g=10.0 ** (_get(d, "kipa_gain_db", "chain") / 10.0),
            g_hemt=10.0 ** (_get(d, "hemt_gain_db", "chain") / 10.0),
            g_tot=10.0 ** (_get(d, "total_output_gain_db", "chain") / 10.0),
            t_hemt=_get(d, "t_hemt_k", "chain"),
            t_bkg=d.get("t_bkg_k", 300.0),
            bandwidth=d.get("bandwidth_hz", 100.0),
            elements=elements,
            eta_explicit=None if eta_db is None else 10.0 ** (eta_db / 10.0),
            il_asymmetry_db=d.get("il_asymmetry_db", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"bad receiver chain: {exc}") from exc


def parse_cavity(d: dict) -> PumpedCavity:
    kappa_hz = _get(d, "kappa_hz", "cavity")
    gamma_hz = d.get("gamma_hz", 0.0)
    kbar_hz = kappa_hz + gamma_hz / 2.0
    if "xi_hz" in d:
        xi_hz = d["xi_hz"]
    elif "xi_frac_of_kbar" in d:
        xi_hz = d["xi_frac_of_kbar"] * kbar_hz
    else:
        raise ConfigError("cavity needs xi_hz or xi_frac_of_kbar")
    phase = d.get("xi_phase_rad", -math.pi / 2.0)
    xi = xi_hz * complex(math.cos(phase), math.sin(phase))
    try:
        return PumpedCavity.from_ordinary(
            kappa_hz=kappa_hz,
            gamma_hz=gamma_hz,
            delta_hz=d.get("delta_hz", 0.0),
            xi=xi,
            f_pump_hz=_get(d, "f_pump_hz", "cavity"),
        )
    except DomainError as exc:
        raise ConfigError(f"bad cavity parameters: {exc}") from exc


def parse_budget(d: dict) -> SqueezeBudget:
    g_h_db = d.get("hemt_gain_db")
    try:
        return SqueezeBudget(
            eta=10.0 ** (_get(d, "eta_db", "budget") / 10.0),
            n_h=_get(d, "n_hemt_photons", "budget"),
            g_h=None if g_h_db is None else 10.0 ** (g_h_db / 10.0),
            n_eta=d.get("n_eta_photons", 0.0),
            n_gamma=d.get("n_gamma_photons", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"bad squeezing budget: {exc}") from exc


def parse_field_model(d: dict) -> FieldModel:
    try:
        return FieldModel(
            diffusion=_get(d, "diffusion_coefficient_m2_per_s", "field model"),
            thickness=_get(d, "thickness_m", "field model"),
            t_c=_get(d, "critical_temperature_k", "field model"),
            center_width=_get(d, "center_width_m", "field model"),
            theta_b=d.get("theta_b_rad", 0.0),
            b_c_parallel=d.get("b_c_parallel_t"),
            delta_0=d.get("delta_0_j"),
        )
    except DomainError as exc:
        raise ConfigError(f"bad field model: {exc}") from exc


def parse_temp_model(d: dict) -> TempModel:
    try:
        return TempModel(
            f_delta_tls=_get(d, "f_delta_tls", "temp model"),
            alpha=_get(d, "alpha", "temp model"),
            t_c=_get(d, "critical_temperature_k", "temp model"),
            c4=d.get("c4", TempModel.__dataclass_fields__["c4"].default),
            t_ref=d.get("t_ref_k", 0.0),
        )
    except DomainError as exc:
        raise ConfigError(f"bad temperature model: {exc}") from exc


def read_sweep(path) -> SweepRecord:
    try:
        return SweepRecord.from_csv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read sweep {path}: {exc}") from exc

