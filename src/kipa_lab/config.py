"""Configuration ingestion: the config format as one schema table, the
reader that checks a block against it, the parsers that build library
objects from checked blocks, the CLI's number flags and the one reader of
sweep CSV files.  Each parser imports the class it builds when it runs, so
a config loads no law it skips.

All dB fields end in ``_db`` (power convention), SI fields carry their unit
as a suffix.  Each block is read only under its own name; measured sweeps
are CSV files named by a ``sweep_file`` key, relative to the config file.
"""

from __future__ import annotations

import json
import math

from .errors import ConfigError, DomainError, FitError
from .quantities import REFERENCE_F_SIGNAL, REFERENCE_T_KIPA

#: Upper bound of every count and list length: points per sweep.
MAX_POINTS = 10**6


def load_json(path) -> dict:
    """Read a config file: one JSON object, strict JSON (no NaN or Infinity,
    no number literal beyond the range of a finite double)."""

    def reject(literal):
        raise ConfigError(f"config {path} is not strict JSON: {literal} is not a number")

    def double(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            shown = literal if len(literal) <= 24 else f"{literal[:12]}... ({len(literal)} characters)"
            raise ConfigError(f"config {path}: number literal {shown} does not fit a finite double")
        return value

    def integer(literal: str) -> int:
        double(literal)
        return int(literal)

    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=reject, parse_float=double, parse_int=integer)
    except (OSError, UnicodeDecodeError) as exc:  # not there, or not UTF-8 text
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object, not {type(cfg).__name__}")
    return cfg


def finite(s: str) -> float:
    """float(s), with ValueError for nan and +-inf as for any non-number."""
    if not math.isfinite(v := float(s)):
        raise ValueError(f"non-finite value {s!r}")
    return v


def natural(s: str) -> int:
    """int(s), with ValueError below 0: a seed of numpy's default_rng."""
    if (v := int(s)) < 0:
        raise ValueError(f"negative value {s!r}")
    return v


# ---------------------------------------------------------------- value kinds
#
# A kind checks one JSON value at a key path and returns what is passed on.
# Numbers, counts and booleans are disjoint: a JSON true is not a number,
# and 2.0 is not a count.


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _kind(want: str, test):
    """The kind of the values that pass ``test``, described as ``want``."""

    def check(value, path: str):
        if not test(value):
            got = {bool: "a boolean", str: "a string", dict: "an object"}.get(type(value), "null")
            if _is_number(value) or isinstance(value, list):
                got = repr(value) if _is_number(value) else f"an array of {len(value)} items"
            raise ConfigError(f"{path} must be {want}, not {got}")
        return value

    return check


def _list(item, lo: int, hi: int, want: str):
    """Arrays of ``lo`` to ``hi`` values of the kind ``item``."""
    whole = _kind(want, lambda v: isinstance(v, list) and lo <= len(v) <= hi)
    return lambda value, path: [item(v, f"{path}[{i}]") for i, v in enumerate(whole(value, path))]


def _block(name: str):
    """The kind of the objects read against SCHEMA[name]."""
    return lambda value, path: read(value, name, path)


def DB(value, path: str) -> float:
    """A number in dB, passed on as the linear power ratio."""
    try:
        return 10.0 ** (NUMBER(value, path) / 10.0)
    except OverflowError:
        raise ConfigError(f"{path} = {value} dB overflows a power ratio") from None


NUMBER = _kind("a number", _is_number)
BOOLEAN = _kind("true or false", lambda v: isinstance(v, bool))
STRING = _kind("a string", lambda v: isinstance(v, str))
OBJECT = _kind("an object", lambda v: isinstance(v, dict))  # passed on unread, to its block's parser
POINTS = _kind(f"an integer from 1 to {MAX_POINTS}", lambda v: type(v) is int and 1 <= v <= MAX_POINTS)
SECTIONS = _kind(f"an integer from 0 to {MAX_POINTS}", lambda v: type(v) is int and 0 <= v <= MAX_POINTS)
NUMBERS = _list(NUMBER, 1, MAX_POINTS, f"an array of 1 to {MAX_POINTS} numbers")
PAIR = _list(NUMBER, 2, 2, "an array of two numbers")

# Defaults: REQUIRED keys must be given; an OPTIONAL key that is left out is
# not passed on, so the callee's own default applies; None marks a default
# the command derives from other values.
REQUIRED = "<required>"
OPTIONAL = "<optional>"

# ---------------------------------------------------------------- the schema
#
# block -> key -> (kind, default, keyword the value is passed on as).  A
# keyword "group.name" collects the value under out["group"]["name"].
SCHEMA = {
    "film": {
        "sheet_kinetic_inductance_h_per_sq": (NUMBER, REQUIRED, "sheet_kinetic_inductance"),
        "thickness_m": (NUMBER, REQUIRED, "thickness"),
        "critical_temperature_k": (NUMBER, REQUIRED, "critical_temperature"),
        "diffusion_coefficient_m2_per_s": (NUMBER, REQUIRED, "diffusion_coefficient"),
        "sheet_resistance_rt_ohm_per_sq": (NUMBER, OPTIONAL, "sheet_resistance_rt"),
    },
    "resonator": {
        "l_k0_h": (NUMBER, REQUIRED, "l_k0"),
        "l_t_h": (NUMBER, REQUIRED, "l_t"),
        "i_star_a": (NUMBER, REQUIRED, "i_star"),
        "i_sw_a": (NUMBER, REQUIRED, "i_sw"),
        "clem_exponent": (NUMBER, OPTIONAL, "clem_exponent"),
        "f_r0_hz": (NUMBER, OPTIONAL, "f_r0"),
        "alpha": (NUMBER, OPTIONAL, "alpha"),
        "z_r_ohm": (NUMBER, OPTIONAL, "z_r"),
        "center_width_m": (NUMBER, OPTIONAL, "center_width"),
    },
    "device": {
        "film": (OBJECT, REQUIRED, "film"),
        "resonator": (OBJECT, REQUIRED, "resonator"),
    },
    "sif": {
        "z_l_ohm": (NUMBER, REQUIRED, "z_l"),
        "z_h_ohm": (NUMBER, REQUIRED, "z_h"),
        "n_l": (SECTIONS, REQUIRED, "n_l"),
        "n_h": (SECTIONS, REQUIRED, "n_h"),
        "z_0_ohm": (NUMBER, REQUIRED, "z_0"),
        "z_r_ohm": (NUMBER, REQUIRED, "z_r"),
        "f_0_hz": (NUMBER, REQUIRED, "f_0"),
    },
    "chain": {
        "elements": (_list(_block("chain element"), 0, MAX_POINTS, "an array of objects"), [], "elements"),
        "eta_e_db": (DB, REQUIRED, "eta_e"),
        "eta_il_db": (DB, REQUIRED, "eta_il"),
        "kipa_gain_db": (DB, REQUIRED, "g"),
        "hemt_gain_db": (DB, REQUIRED, "g_hemt"),
        "total_output_gain_db": (DB, REQUIRED, "g_tot"),
        "t_hemt_k": (NUMBER, REQUIRED, "t_hemt"),
        "t_bkg_k": (NUMBER, OPTIONAL, "t_bkg"),
        "bandwidth_hz": (NUMBER, OPTIONAL, "bandwidth"),
        "eta_db": (DB, OPTIONAL, "eta_explicit"),
        "il_asymmetry_db": (NUMBER, OPTIONAL, "il_asymmetry_db"),
    },
    "chain element": {
        "kind": (STRING, REQUIRED, "kind"),
        "value_db": (NUMBER, REQUIRED, "value_db"),
        "temperature_k": (NUMBER, REQUIRED, "physical_temperature"),
        "label": (STRING, OPTIONAL, "label"),
    },
    "cavity": {
        "kappa_hz": (NUMBER, REQUIRED, "kappa_hz"),
        "gamma_hz": (NUMBER, 0.0, "gamma_hz"),
        "delta_hz": (NUMBER, 0.0, "delta_hz"),
        "xi_hz": (NUMBER, None, "xi_hz"),
        "xi_frac_of_kbar": (NUMBER, None, "xi_frac_of_kbar"),
        "xi_phase_rad": (NUMBER, -math.pi / 2.0, "xi_phase_rad"),
        "f_pump_hz": (NUMBER, REQUIRED, "f_pump_hz"),
    },
    "budget": {
        "eta_db": (DB, REQUIRED, "eta"),
        "n_hemt_photons": (NUMBER, REQUIRED, "n_h"),
        "hemt_gain_db": (DB, OPTIONAL, "g_h"),
        "n_eta_photons": (NUMBER, OPTIONAL, "n_eta"),
        "n_gamma_photons": (NUMBER, OPTIONAL, "n_gamma"),
    },
    "field_model": {
        "diffusion_coefficient_m2_per_s": (NUMBER, REQUIRED, "diffusion"),
        "thickness_m": (NUMBER, REQUIRED, "thickness"),
        "critical_temperature_k": (NUMBER, REQUIRED, "t_c"),
        "center_width_m": (NUMBER, REQUIRED, "center_width"),
        "theta_b_rad": (NUMBER, OPTIONAL, "theta_b"),
        "b_c_parallel_t": (NUMBER, OPTIONAL, "b_c_parallel"),
        "delta_0_j": (NUMBER, OPTIONAL, "delta_0"),
    },
    "temp_model": {
        "f_delta_tls": (NUMBER, REQUIRED, "f_delta_tls"),
        "alpha": (NUMBER, REQUIRED, "alpha"),
        "critical_temperature_k": (NUMBER, REQUIRED, "t_c"),
        "c4": (NUMBER, OPTIONAL, "c4"),
        "t_ref_k": (NUMBER, OPTIONAL, "t_ref"),
    },
    # The top level of each command's config, with the blocks only it reads.
    "design": {"sif": (OBJECT, REQUIRED, "sif")},
    "tune": {
        "device": (OBJECT, REQUIRED, "device"),
        "bias_current_a": (NUMBER, 0.0, "bias_current_a"),
        "synthetic": (_block("tune synthetic"), {}, "synthetic"),
    },
    "tune synthetic": {
        "n_points": (POINTS, 25, "n_points"),
        "noise_frac": (NUMBER, 1e-4, "noise_frac"),
    },
    "gain": {
        "cavity": (OBJECT, REQUIRED, "cavity"),
        "grid": (_block("gain grid"), {}, "grid"),
        "synthetic": (_block("gain synthetic"), {}, "synthetic"),
    },
    "gain grid": {
        "center_hz": (NUMBER, None, "center_hz"),
        "span_hz": (NUMBER, None, "span_hz"),
        "n_points": (POINTS, 2001, "n_points"),
    },
    "gain synthetic": {"noise_db": (NUMBER, 0.1, "noise_db")},
    "pump-search": {
        "map": (OBJECT, REQUIRED, "map"),
        "search": (_block("pump search"), {}, "search"),
    },
    "pump map": {
        "kappa_hz": (NUMBER, 19.8e6, "kappa_hz"),
        "gamma_hz": (NUMBER, 0.0, "gamma_hz"),
        "f_r_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_r_hz"),
        "xi_hz_per_sqrt_mw": (NUMBER, 1e9, "xi_hz_per_sqrt_mw"),
    },
    "pump search": {
        "target_db": (NUMBER, 20.0, "target_db"),
        "f_bounds_hz": (PAIR, None, "f_bounds"),
        "p_bounds_dbm": (PAIR, [-60.0, -40.0], "p_bounds_dbm"),
        "n_f_coarse": (POINTS, OPTIONAL, "n_f_coarse"),
        "p_step_db": (NUMBER, OPTIONAL, "p_step_db"),
        "refine_to_hz": (NUMBER, OPTIONAL, "refine_to_hz"),
    },
    "compression": {
        "small_signal_gain_db": (NUMBER, 21.0, "small_signal_gain_db"),
        "sweep_file": (STRING, None, "sweep_file"),
        "synthetic": (_block("compression synthetic"), {}, "synthetic"),
    },
    "compression synthetic": {
        "p_min_dbm": (NUMBER, -110.0, "p_min_dbm"),
        "p_max_dbm": (NUMBER, -70.0, "p_max_dbm"),
        "n_points": (POINTS, 161, "n_points"),
        "p_mid_dbm": (NUMBER, -83.0, "p_mid_dbm"),
        "softness_db": (NUMBER, 1.5, "softness_db"),
        "depth_db": (NUMBER, 6.0, "depth_db"),
        "noise_db": (NUMBER, 0.0, "noise_db"),
    },
    "noise-fit": {
        "chain": (OBJECT, REQUIRED, "chain"),
        "sweep_file": (STRING, None, "sweep_file"),
        "free_slope": (BOOLEAN, OPTIONAL, "fit.free_slope"),
        "synthetic": (_block("noise-fit synthetic"), {}, "synthetic"),
    },
    "noise-fit synthetic": {
        "t_kipa_k": (NUMBER, REFERENCE_T_KIPA, "t_kipa"),
        "f_signal_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_signal_hz"),
        "f_idler_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_idler_hz"),
        "t_vts_k": (NUMBERS, None, "t_vts_values"),  # None: synthetic.noise_sweep's ladder
        "noise_frac": (NUMBER, 0.0, "noise_frac"),
    },
    "hemt-fit": {
        "chain": (OBJECT, REQUIRED, "chain"),
        "sweep_file": (STRING, None, "sweep_file"),
        "f_signal_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_signal_hz"),
        "free_slope": (BOOLEAN, OPTIONAL, "fit.free_slope"),
        "synthetic": (_block("hemt-fit synthetic"), {}, "synthetic"),
    },
    "hemt-fit synthetic": {
        "t_vts_k": (NUMBERS, None, "t_vts_values"),  # None: synthetic.hemt_sweep's ladder
        "noise_frac": (NUMBER, 0.0, "noise_frac"),
    },
    "chain-propagate": {
        "chain": (OBJECT, REQUIRED, "chain"),
        "n_in_photons": (NUMBER, 0.5, "n_in_photons"),
        "f_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_hz"),
    },
    "squeeze": {
        "budget": (OBJECT, REQUIRED, "budget"),
        "g_x_db": (NUMBER, None, "g_x_db"),
        "s_measured": (NUMBER, None, "s_measured"),
    },
    "field-shift": {
        "field_model": (OBJECT, REQUIRED, "field_model"),
        "sweep_file": (STRING, None, "sweep_file"),
        "estimate_theta": (BOOLEAN, OPTIONAL, "fit.estimate_theta"),
        "bc_criterion": (STRING, OPTIONAL, "fit.bc_criterion"),
        "synthetic": (_block("field-shift synthetic"), {}, "synthetic"),
    },
    "field-shift synthetic": {
        "b_min_t": (NUMBER, 0.0, "b_min_t"),
        "b_max_t": (NUMBER, 6.0, "b_max_t"),
        "n_points": (POINTS, 13, "n_points"),
        "noise_abs": (NUMBER, 0.0, "noise_abs"),
    },
    "temp-shift": {
        "temp_model": (OBJECT, REQUIRED, "temp_model"),
        "f_r_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_r_hz"),
        "temperatures_k": (NUMBERS, None, "temperatures_k"),
    },
    "device-temp": {
        "temp_model": (OBJECT, REQUIRED, "temp_model"),
        "f_r_hz": (NUMBER, REFERENCE_F_SIGNAL, "f_r_hz"),
        "delta_omega_rel": (NUMBER, None, "delta_omega_rel"),
        "delta_f_hz": (NUMBER, None, "delta_f_hz"),
        "t_min_k": (NUMBER, OPTIONAL, "solve.t_min"),
        "t_max_k": (NUMBER, OPTIONAL, "solve.t_max"),
    },
}


def read(d, name: str, where: str) -> dict:
    """Check the object ``d``, found at key path ``where``, against block
    ``name`` of SCHEMA and return its values by keyword, defaults applied.

    Keys the block does not list are ignored.  A violation is a ConfigError
    naming the key path.
    """
    OBJECT(d, where or "the config")
    out: dict = {}
    for key, (kind, default, keyword) in SCHEMA[name].items():
        path = f"{where}.{key}" if where else key
        group, _, keyword = keyword.rpartition(".")
        target = out.setdefault(group, {}) if group else out
        if key in d:
            target[keyword] = kind(d[key], path)
        elif default is REQUIRED:
            raise ConfigError(f"missing key {path}")
        elif default is not OPTIONAL:
            target[keyword] = None if default is None else kind(default, path)
    return out


def _build(make, where: str, kwargs: dict):
    """``make(**kwargs)``, with a domain violation reported as a
    configuration error of the block at ``where``."""
    try:
        return make(**kwargs)
    except DomainError as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def parse_film(d: dict) -> FilmParams:
    from .ki_device import FilmParams
    return _build(FilmParams, "device.film", read(d, "film", "device.film"))


def parse_resonator(d: dict) -> ResonatorParams:
    from .ki_device import ResonatorParams
    return _build(ResonatorParams, "device.resonator", read(d, "resonator", "device.resonator"))


def parse_device(d: dict) -> DeviceParams:
    from .ki_device import DeviceParams
    blocks = read(d, "device", "device")
    return DeviceParams(film=parse_film(blocks["film"]), resonator=parse_resonator(blocks["resonator"]))


def parse_sif(d: dict) -> SifDesign:
    from .microwave_net import SifDesign
    return _build(SifDesign, "sif", read(d, "sif", "sif"))


def parse_chain(d: dict) -> ReceiverChain:
    from .noise_cal import ChainElement, ReceiverChain
    kw = read(d, "chain", "chain")
    kw["elements"] = [_build(ChainElement, f"chain.elements[{i}]", e) for i, e in enumerate(kw["elements"])]
    return _build(ReceiverChain, "chain", kw)


def parse_cavity(d: dict) -> PumpedCavity:
    from .io_dynamics import PumpedCavity
    kw = read(d, "cavity", "cavity")
    xi_hz, xi_frac, phase = kw.pop("xi_hz"), kw.pop("xi_frac_of_kbar"), kw.pop("xi_phase_rad")
    if xi_hz is None and xi_frac is None:
        raise ConfigError("cavity needs xi_hz or xi_frac_of_kbar")
    if xi_hz is None:
        xi_hz = xi_frac * (kw["kappa_hz"] + kw["gamma_hz"] / 2.0)
    return _build(PumpedCavity.from_ordinary, "cavity", dict(kw, xi=xi_hz * complex(math.cos(phase), math.sin(phase))))


def parse_pump_map(d: dict) -> PumpMap:
    from .io_dynamics import PumpMap
    return _build(PumpMap, "map", read(d, "pump map", "map"))


def parse_budget(d: dict) -> SqueezeBudget:
    from .squeeze import SqueezeBudget
    return _build(SqueezeBudget, "budget", read(d, "budget", "budget"))


def parse_field_model(d: dict) -> FieldModel:
    from .env_models import FieldModel
    return _build(FieldModel, "field_model", read(d, "field_model", "field_model"))


def parse_temp_model(d: dict) -> TempModel:
    from .env_models import TempModel
    return _build(TempModel, "temp_model", read(d, "temp_model", "temp_model"))


def read_sweep(path) -> SweepRecord:
    """The x,y[,sigma_y] rows of the sweep CSV at ``path``, after an optional
    header, skipping '#' comments.  A file that is not readable CSV text or
    has no data rows, a row of fewer than two or more than three cells, a
    cell that is not a finite number, a sigma_y blank on some rows only, or
    one that SweepRecord rejects is a ConfigError naming the file (and line)."""
    import csv
    from .fitkit import SweepRecord
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader if r and not r[0].lstrip().startswith("#")]
    except (OSError, UnicodeDecodeError, csv.Error) as exc:  # not there, not UTF-8 text, or a cell beyond csv's field limit
        raise ConfigError(f"cannot read sweep {path}: {exc}") from exc
    try:
        float(rows[0][1][0])
    except (IndexError, ValueError):  # no rows, or a header
        rows = rows[1:]
    xs, ys, ss, blank = [], [], [], []
    for line, r in rows:
        if len(r) > 3:
            raise ConfigError(f"sweep {path} line {line}: expected x,y[,sigma_y], got {len(r)} cells")
        try:
            xs.append(finite(r[0]))
            ys.append(finite(r[1]))
            if len(r) == 3 and r[2].strip():
                ss.append(finite(r[2]))
            else:
                blank.append(line)
        except (IndexError, ValueError):
            raise ConfigError(f"sweep {path} line {line}: expected finite numeric x,y[,sigma_y], got {','.join(r)!r}") from None
    if not xs:
        raise ConfigError(f"empty sweep file {path}: no data rows")
    if ss and blank:
        raise ConfigError(f"sweep {path} line {blank[0]}: sigma_y is blank here but given on other rows")
    try:
        return SweepRecord(xs, ys, ss or None)
    except FitError:  # SweepRecord's sigma_y rule, applied one row at a time to find the first it rejects
        for (line, _), s in zip(rows, ss):
            try:
                SweepRecord([0.0], [0.0], [s])
            except FitError as exc:
                raise ConfigError(f"sweep {path} line {line}: {exc}") from None
        raise
