"""Command-line interface.

One subcommand per operation family; every command reads a JSON config,
emits a machine-readable report bundle on stdout (JSON by default, CSV on
request) and optionally writes it plus per-point files under --out.
Synthetic-data mode plants known parameters with seeded Gaussian noise and
reports the recovery alongside the truth.

Exit codes: 0 success, 2 configuration error, 3 fit/extraction error,
4 domain error.  Verbosity via the KIPA_LAB_LOG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import env_models, io_dynamics, ki_device, microwave_net, noise_cal, squeeze, synthetic
from .errors import ConfigError, DomainError, FitError, KipaLabError
from .fitkit import nlls_fit
from .io_dynamics import GainCurve
from .quantities import BOLTZMANN
from .report import bundle_csv, bundle_json, make_bundle, write_bundle
from .reproduce import run_fixture

log = logging.getLogger("kipa_lab")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_DOMAIN = 4


def _load_config(args):
    """(config as read, its top level checked against the command's schema)."""
    if args.config is None:
        raise ConfigError("this command requires --config <path>")
    cfg = cfgmod.load_json(args.config)
    return cfg, cfgmod.read(cfg, args.command, "")


def _emit(args, cfg: dict, results: dict, residuals=None, truth=None, curve=None, sweep=None) -> int:
    """Print the bundle of this run, which echoes the inputs and carries any
    planted truth, and write it with the curve and sweep CSVs under --out.
    A result that is not strict JSON is a domain error in either format."""
    if truth:
        results["truth"] = truth
    inputs = {"config": cfg, "seed": args.seed, "synthetic": args.synthetic}
    bundle = make_bundle(args.command, inputs, results, residuals)
    text = bundle_json(bundle)
    sys.stdout.write(bundle_csv(bundle) if args.format == "csv" else text)
    if args.out:
        paths = write_bundle(bundle, args.out, args.format)
        for name, table in (("curve.csv", curve), ("sweep.csv", sweep)):
            if table is not None:
                paths.append(os.path.join(args.out, name))
                table.to_csv(paths[-1])
        for p in paths:
            log.info("wrote %s", p)
    return EXIT_OK


def _sweep(args, c: dict, plant):
    """(sweep, truth): planted by ``plant(synthetic_block, rng)`` under
    --synthetic, else read from the config's sweep_file (relative to the
    config file) with no truth."""
    if args.synthetic:
        return plant(c["synthetic"], np.random.default_rng(args.seed))
    if c["sweep_file"] is None:
        raise ConfigError("config needs a sweep_file (CSV with x,y[,sigma_y]) unless --synthetic")
    return cfgmod.read_sweep(os.path.join(os.path.dirname(args.config), c["sweep_file"])), None


def _rows(**columns) -> list:
    """Per-point residual rows from equal-length numeric columns."""
    values = [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def cmd_design(args) -> int:
    cfg, c = _load_config(args)
    sif = cfgmod.parse_sif(c["sif"])
    results = {
        "z_eff_ohm": microwave_net.effective_impedance(sif),
        "q_c": microwave_net.coupling_q(sif),
        "kappa_hz": microwave_net.coupling_rate(sif),
    }
    return _emit(args, cfg, results)


def cmd_tune(args) -> int:
    cfg, c = _load_config(args)
    res = cfgmod.parse_device(c["device"]).resonator
    results: dict = {}
    residuals = None
    if args.synthetic:
        syn = c["synthetic"]
        currents = np.linspace(0.0, 0.9 * res.i_sw, syn["n_points"])
        sweep, truth = synthetic.clem_tuning_sweep(res, currents, syn["noise_frac"], np.random.default_rng(args.seed))
        fit = ki_device.fit_clem_tuning(sweep, res.f_r0, res.alpha)
        model_f = ki_device.clem_frequency(sweep.x, res.f_r0, res.alpha, *fit.params)
        residuals = _rows(x=sweep.x, y=sweep.y, model=model_f, residual=sweep.y - model_f)
        results["fit"] = {
            "i_star_a": float(fit.params[0]),
            "clem_exponent": float(fit.params[1]),
            "i_star_sigma_a": float(fit.stderr[0]),
            "converged": fit.converged,
            "truth": truth,
        }
    current = args.current if args.current is not None else c["bias_current_a"]
    results["bias_current_a"] = current
    results["f_hz"] = float(ki_device.resonance_vs_bias(current, res))
    return _emit(args, cfg, results, residuals)


def cmd_gain(args) -> int:
    cfg, c = _load_config(args)
    cav = cfgmod.parse_cavity(c["cavity"])
    grid = c["grid"]
    center = cav.f_pump / 2.0 if grid["center_hz"] is None else grid["center_hz"]
    span = 20.0 * cav.kappa / (2.0 * math.pi) if grid["span_hz"] is None else grid["span_hz"]
    n = grid["n_points"]
    results = {"stable": cav.is_stable, "peak_gain_db": None, "peak_f_hz": None, "gbp_hz": None}
    curve = None
    if cav.is_stable:
        with np.errstate(all="ignore"):
            curve = GainCurve.from_cavity(cav, np.linspace(center - span / 2.0, center + span / 2.0, n))
        if not np.isfinite(curve.power_gain_db).all():
            raise DomainError(f"the gain curve is not finite on the grid of {n} points over {span:g} Hz around {center:g} Hz")
        i_pk = int(np.argmax(curve.power_gain_db))
        results["peak_gain_db"] = float(curve.power_gain_db[i_pk])
        results["peak_f_hz"] = float(curve.f_hz[i_pk])
        try:
            results["gbp_hz"] = io_dynamics.gbp_extract(curve)
        except FitError:
            pass
    else:
        results["status"] = "no steady state: |xi|^2 >= kappa_bar^2 + Delta^2, so the gain has no peak or bandwidth"
    residuals = None
    if args.synthetic:
        kappa_hz = cav.kappa / (2.0 * math.pi)
        gamma_hz = cav.gamma / (2.0 * math.pi)
        delta_hz = cav.delta / (2.0 * math.pi)
        xi_frac = abs(cav.xi) / (2.0 * math.pi) / (kappa_hz + gamma_hz / 2.0)
        sweep, truth = synthetic.gain_sweep(
            kappa_hz, gamma_hz, delta_hz, xi_frac, cav.f_pump, span, n, c["synthetic"]["noise_db"], np.random.default_rng(args.seed)
        )
        p0 = [kappa_hz * 1.05, gamma_hz + 0.01 * kappa_hz, delta_hz + 0.01 * kappa_hz, truth["xi_hz"] * 0.98]
        fit = nlls_fit(lambda x, p: synthetic.gain_db_model(x, p, cav.f_pump), sweep, p0)
        model_y = synthetic.gain_db_model(sweep.x, fit.params, cav.f_pump)
        residuals = _rows(f_hz=sweep.x, gain_db=sweep.y, model_db=model_y, residual_db=sweep.y - model_y)
        results["fit"] = {
            "kappa_hz": float(fit.params[0]),
            "kappa_sigma_hz": float(fit.stderr[0]),
            "gamma_hz": float(fit.params[1]),
            "delta_hz": float(fit.params[2]),
            "xi_hz": float(abs(fit.params[3])),
            "converged": fit.converged,
            "reduced_chi2": fit.reduced_chi2,
            "truth": truth,
        }
        results["kappa_recovered_within_3_sigma"] = bool(
            abs(fit.params[0] - truth["kappa_hz"]) <= 3.0 * max(fit.stderr[0], 1e-12)
        )
    return _emit(args, cfg, results, residuals, curve=curve)


def cmd_pump_search(args) -> int:
    cfg, c = _load_config(args)
    law = synthetic.PumpMap(**c["map"])
    search = c["search"]
    if search["f_bounds"] is None:
        search["f_bounds"] = [2.0 * law.f_r_hz - 2e8, 2.0 * law.f_r_hz + 2e8]
    result = io_dynamics.find_optimal_pump(law.peak_gain_db, **search)
    code = _emit(args, cfg, dataclasses.asdict(result))
    if not result.success:
        log.warning("pump search failed: %s", result.message)
    return code


def cmd_compression(args) -> int:
    cfg, c = _load_config(args)
    ssg = c["small_signal_gain_db"]

    def plant(syn, rng):
        grid = np.linspace(syn["p_min_dbm"], syn["p_max_dbm"], syn["n_points"])
        return synthetic.compression_sweep(
            ssg, syn["p_mid_dbm"], syn["softness_db"], syn["depth_db"], grid, syn["noise_db"], rng
        )

    sweep, truth = _sweep(args, c, plant)
    point = io_dynamics.compression_point(sweep, ssg)
    return _emit(args, cfg, {"small_signal_gain_db": ssg, **point._asdict()}, truth=truth, sweep=sweep)


def cmd_noise_fit(args) -> int:
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    sweep, truth = _sweep(args, c, lambda syn, rng: synthetic.noise_sweep(chain, rng=rng, **syn))
    fit = noise_cal.fit_added_noise(sweep, chain, **c["fit"])
    t_kipa = noise_cal.kipa_noise_from_added(fit.t_add, chain.g, chain.t_hemt)
    y_model = sweep.x + fit.t_add + chain.t_bkg / (chain.g_hemt * chain.g)
    scale = chain.g_tot * BOLTZMANN * chain.bandwidth
    residuals = _rows(t_in_k=sweep.x, p_out_w=sweep.y, residual_k=sweep.y / scale - y_model)
    results = {"t_add_k": fit.t_add, "t_add_sigma_k": fit.t_add_sigma, "t_kipa_k": t_kipa, "slope": fit.slope}
    return _emit(args, cfg, results, residuals, truth=truth, sweep=sweep)


def cmd_hemt_fit(args) -> int:
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    f_signal = c["f_signal_hz"]
    sweep, truth = _sweep(args, c, lambda syn, rng: synthetic.hemt_sweep(chain, f_signal, rng=rng, **syn))
    fit = noise_cal.fit_hemt_noise(sweep, chain, f_signal, **c["fit"])
    results = {"t_hemt_k": fit.t_hemt, "t_hemt_sigma_k": fit.t_hemt_sigma, "slope": fit.slope}
    return _emit(args, cfg, results, truth=truth, sweep=sweep)


def cmd_chain_propagate(args) -> int:
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    n_in, f_hz = c["n_in_photons"], c["f_hz"]
    trace = noise_cal.propagate_chain(n_in, chain.elements, f_hz)
    residuals = [
        {"index": i, "label": e.label, "value_db": e.value_db, "temperature_k": e.physical_temperature, "n_photons": n}
        for i, (e, n) in enumerate(zip(chain.elements, trace))
    ]
    results = {"n_in_photons": n_in, "f_hz": f_hz, "n_out_photons": trace[-1] if trace else n_in}
    return _emit(args, cfg, results, residuals)


def cmd_squeeze(args) -> int:
    cfg, c = _load_config(args)
    budget = cfgmod.parse_budget(c["budget"])
    results = {"s_min": squeeze.max_measurable_squeezing(budget)}
    g_x_db = args.gx_db if args.gx_db is not None else c["g_x_db"]
    s_measured = args.s if args.s is not None else c["s_measured"]
    if g_x_db is not None:
        results["g_x_db"] = g_x_db
        results["s"] = squeeze.squeezing_factor(10.0 ** (g_x_db / 10.0), budget)
    elif s_measured is not None:
        results["s"] = s_measured
        results["g_x_db"] = 10.0 * math.log10(squeeze.extract_gx(s_measured, budget))
    else:
        raise ConfigError("squeeze needs g_x_db or s_measured (config key or --gx-db/--s)")
    return _emit(args, cfg, results)


def cmd_field_shift(args) -> int:
    cfg, c = _load_config(args)
    model = cfgmod.parse_field_model(c["field_model"])

    def plant(syn, rng):
        b = np.linspace(syn["b_min_t"], syn["b_max_t"], syn["n_points"])
        return synthetic.field_shift_sweep(model, b, syn["noise_abs"], rng)

    sweep, truth = _sweep(args, c, plant)
    fit = env_models.fit_field_shift(sweep, model, **c["fit"])
    results = {
        "curvature_per_t2": fit.curvature,
        "curvature_sigma_per_t2": fit.curvature_sigma,
        "theta_b_rad": fit.theta_b,
        "theta_b_deg": None if fit.theta_b is None else math.degrees(fit.theta_b),
        "b_c_estimate_t": fit.b_c_estimate,
        "reduced_chi2": fit.reduced_chi2,
    }
    return _emit(args, cfg, results, truth=truth, sweep=sweep)


def cmd_temp_shift(args) -> int:
    cfg, c = _load_config(args)
    model = cfgmod.parse_temp_model(c["temp_model"])
    f_r = c["f_r_hz"]
    t = c["temperatures_k"]
    t = np.linspace(env_models.QUARTIC_T_MIN_K, model.quartic_t_max, 36) if t is None else np.asarray(t, dtype=float)
    rel = env_models.temp_frequency_shift(t, f_r, model)
    return _emit(args, cfg, {"f_r_hz": f_r, "n_points": t.size}, _rows(t_k=t, rel_shift=rel, delta_f_hz=rel * f_r))


def cmd_device_temp(args) -> int:
    cfg, c = _load_config(args)
    model = cfgmod.parse_temp_model(c["temp_model"])
    f_r = c["f_r_hz"]
    if c["delta_omega_rel"] is not None:
        rel = c["delta_omega_rel"]
    elif c["delta_f_hz"] is not None:
        rel = c["delta_f_hz"] / f_r
    else:
        raise ConfigError("device-temp needs delta_omega_rel or delta_f_hz")
    t = env_models.device_temp_from_shift(rel, f_r, model, **c["solve"])
    return _emit(args, cfg, {"t_dev_k": t, "rel_shift": rel})


def cmd_reproduce(args) -> int:
    results = run_fixture(args.fixture)
    all_pass = all(r.passed for r in results)
    for r in results:
        print(r.line())
    fields = ("fixture", "passed", "measured", "expected", "tolerance", "description")
    checks = [{k: getattr(r, k) for k in fields} for r in results]
    bundle = make_bundle("reproduce", {"fixture": args.fixture, "seed": args.seed}, {"all_passed": all_pass, "checks": checks})
    if args.out:
        write_bundle(bundle, args.out, args.format)
    return EXIT_OK if all_pass else 1


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON configuration file")
    p.add_argument("--out", help="directory for result.json and per-point CSVs")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed for synthetic data")
    p.add_argument("--synthetic", action="store_true", help="plant-and-recover on generated data")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kipa-lab",
        description="Modeling, simulation and parameter extraction for dc-biased "
        "three-wave-mixing kinetic-inductance parametric amplifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "design": (cmd_design, "stepped-impedance-filter coupling design numbers"),
        "tune": (cmd_tune, "resonance frequency versus dc bias current"),
        "gain": (cmd_gain, "driven-cavity gain curve and bandwidth product"),
        "pump-search": (cmd_pump_search, "search the cheapest pump point for a target gain"),
        "compression": (cmd_compression, "1-dB compression point extraction"),
        "noise-fit": (cmd_noise_fit, "added-noise fit from source thermometry"),
        "hemt-fit": (cmd_hemt_fit, "cryogenic amplifier noise calibration"),
        "chain-propagate": (cmd_chain_propagate, "photon-number propagation through the chain"),
        "squeeze": (cmd_squeeze, "squeezing factor, floor and quadrature gain"),
        "field-shift": (cmd_field_shift, "parallel-field frequency-shift fit"),
        "temp-shift": (cmd_temp_shift, "temperature-dependent frequency shift curve"),
        "device-temp": (cmd_device_temp, "device temperature from a measured shift"),
        "reproduce": (cmd_reproduce, "run a built-in published-value check"),
    }
    for name, (fn, helptext) in handlers.items():
        p = sub.add_parser(name, help=helptext)
        if name == "reproduce":
            p.add_argument("fixture", help="fixture id or 'all'")
        _add_common(p)
        p.set_defaults(handler=fn)
        if name == "tune":
            p.add_argument("--current", type=float, help="bias current in A")
        if name == "squeeze":
            p.add_argument("--gx-db", dest="gx_db", type=float, help="quadrature gain in dB")
            p.add_argument("--s", type=float, help="measured squeezing factor")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("KIPA_LAB_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (DomainError, ArithmeticError) as exc:  # a float out of range is outside the domain too
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KipaLabError as exc:  # pragma: no cover - unexpected subclass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
