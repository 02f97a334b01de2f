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
from .reproduce import REFERENCE_F_SIGNAL, REFERENCE_T_KIPA, run_fixture

log = logging.getLogger("kipa_lab")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_DOMAIN = 4


def _load_config(args) -> dict:
    if args.config is None:
        raise ConfigError("this command requires --config <path>")
    return cfgmod.load_json(args.config)


def _emit(args, cfg: dict, results: dict, residuals=None, truth=None, curve=None, sweep=None) -> int:
    """Print the bundle of this run, which echoes the inputs and carries any
    planted truth, and write it with the curve and sweep CSVs under --out."""
    if truth:
        results["truth"] = truth
    inputs = {"config": cfg, "seed": args.seed, "synthetic": args.synthetic}
    bundle = make_bundle(args.command, inputs, results, residuals)
    sys.stdout.write(bundle_csv(bundle) if args.format == "csv" else bundle_json(bundle))
    if args.out:
        paths = write_bundle(bundle, args.out, args.format)
        for name, table in (("curve.csv", curve), ("sweep.csv", sweep)):
            if table is not None:
                paths.append(os.path.join(args.out, name))
                table.to_csv(paths[-1])
        for p in paths:
            log.info("wrote %s", p)
    return EXIT_OK


def _sweep(args, cfg: dict, plant):
    """(sweep, truth): planted by ``plant(synthetic_section, rng)`` under
    --synthetic, else read from the config's sweep_file (relative to the
    config file) with no truth."""
    if args.synthetic:
        return plant(cfg.get("synthetic", {}), np.random.default_rng(args.seed))
    path = cfg.get("sweep_file")
    if path is None:
        raise ConfigError("config needs a sweep_file (CSV with x,y[,sigma_y]) unless --synthetic")
    return cfgmod.read_sweep(os.path.join(os.path.dirname(args.config), path)), None


def _rows(**columns) -> list:
    """Per-point residual rows from equal-length numeric columns."""
    values = [np.asarray(c, dtype=float).tolist() for c in columns.values()]
    return [dict(zip(columns, row)) for row in zip(*values)]


def cmd_design(args) -> int:
    cfg = _load_config(args)
    sif = cfgmod.parse_sif(cfg.get("sif", cfg))
    results = {
        "z_eff_ohm": microwave_net.effective_impedance(sif),
        "q_c": microwave_net.coupling_q(sif),
        "kappa_hz": microwave_net.coupling_rate(sif),
    }
    return _emit(args, cfg, results)


def cmd_tune(args) -> int:
    cfg = _load_config(args)
    res = cfgmod.parse_device(cfg.get("device", cfg)).resonator
    results: dict = {}
    residuals = None
    if args.synthetic:
        syn = cfg.get("synthetic", {})
        currents = np.linspace(0.0, 0.9 * res.i_sw, int(syn.get("n_points", 25)))
        sweep, truth = synthetic.clem_tuning_sweep(res, currents, syn.get("noise_frac", 1e-4), np.random.default_rng(args.seed))
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
    current = args.current if args.current is not None else cfg.get("bias_current_a", 0.0)
    results["bias_current_a"] = current
    results["f_hz"] = float(ki_device.resonance_vs_bias(current, res))
    return _emit(args, cfg, results, residuals)


def cmd_gain(args) -> int:
    cfg = _load_config(args)
    cav = cfgmod.parse_cavity(cfg.get("cavity", cfg))
    grid = cfg.get("grid", {})
    center = grid.get("center_hz", cav.f_pump / 2.0)
    span = grid.get("span_hz", 20.0 * cav.kappa / (2.0 * math.pi))
    n = int(grid.get("n_points", 2001))
    f = np.linspace(center - span / 2.0, center + span / 2.0, n)
    results = {"stable": cav.is_stable, "peak_gain_db": None, "peak_f_hz": None, "gbp_hz": None}
    curve = None
    if cav.is_stable:
        curve = GainCurve.from_cavity(cav, f)
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
        syn = cfg.get("synthetic", {})
        kappa_hz = cav.kappa / (2.0 * math.pi)
        gamma_hz = cav.gamma / (2.0 * math.pi)
        delta_hz = cav.delta / (2.0 * math.pi)
        xi_frac = abs(cav.xi) / (2.0 * math.pi) / (kappa_hz + gamma_hz / 2.0)
        sweep, truth = synthetic.gain_sweep(
            kappa_hz, gamma_hz, delta_hz, xi_frac, cav.f_pump, span, n, syn.get("noise_db", 0.1), np.random.default_rng(args.seed)
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
    cfg = _load_config(args)
    m = cfg.get("map", cfg)
    f_r = m.get("f_r_hz", REFERENCE_F_SIGNAL)
    law = synthetic.PumpMap(
        kappa_hz=m.get("kappa_hz", 19.8e6),
        gamma_hz=m.get("gamma_hz", 0.0),
        f_r_hz=f_r,
        xi_hz_per_sqrt_mw=m.get("xi_hz_per_sqrt_mw", 1e9),
    )
    search = cfg.get("search", {})
    result = io_dynamics.find_optimal_pump(
        law.peak_gain_db,
        target_db=search.get("target_db", 20.0),
        f_bounds=tuple(search.get("f_bounds_hz", [2.0 * f_r - 2e8, 2.0 * f_r + 2e8])),
        p_bounds_dbm=tuple(search.get("p_bounds_dbm", [-60.0, -40.0])),
        n_f_coarse=int(search.get("n_f_coarse", 41)),
        p_step_db=search.get("p_step_db", 0.25),
        refine_to_hz=search.get("refine_to_hz", 1e4),
    )
    code = _emit(args, cfg, dataclasses.asdict(result))
    if not result.success:
        log.warning("pump search failed: %s", result.message)
    return code


def cmd_compression(args) -> int:
    cfg = _load_config(args)
    ssg = cfg.get("small_signal_gain_db", 21.0)

    def plant(syn, rng):
        grid = np.linspace(syn.get("p_min_dbm", -110.0), syn.get("p_max_dbm", -70.0), int(syn.get("n_points", 161)))
        return synthetic.compression_sweep(
            ssg, syn.get("p_mid_dbm", -83.0), syn.get("softness_db", 1.5), syn.get("depth_db", 6.0), grid, syn.get("noise_db", 0.0), rng
        )

    sweep, truth = _sweep(args, cfg, plant)
    point = io_dynamics.compression_point(sweep, ssg)
    return _emit(args, cfg, {"small_signal_gain_db": ssg, **point._asdict()}, truth=truth, sweep=sweep)


def cmd_noise_fit(args) -> int:
    cfg = _load_config(args)
    chain = cfgmod.parse_chain(cfg.get("chain", cfg))

    def plant(syn, rng):
        return synthetic.noise_sweep(
            chain,
            syn.get("t_kipa_k", REFERENCE_T_KIPA),
            syn.get("f_signal_hz", REFERENCE_F_SIGNAL),
            syn.get("f_idler_hz", REFERENCE_F_SIGNAL),
            syn.get("t_vts_k", synthetic.vts_setpoint_ladder()),
            syn.get("noise_frac", 0.0),
            rng,
        )

    sweep, truth = _sweep(args, cfg, plant)
    fit = noise_cal.fit_added_noise(sweep, chain, free_slope=bool(cfg.get("free_slope", False)))
    t_kipa = noise_cal.kipa_noise_from_added(fit.t_add, chain.g, chain.t_hemt)
    y_model = sweep.x + fit.t_add + chain.t_bkg / (chain.g_hemt * chain.g)
    scale = chain.g_tot * BOLTZMANN * chain.bandwidth
    residuals = _rows(t_in_k=sweep.x, p_out_w=sweep.y, residual_k=sweep.y / scale - y_model)
    results = {"t_add_k": fit.t_add, "t_add_sigma_k": fit.t_add_sigma, "t_kipa_k": t_kipa, "slope": fit.slope}
    return _emit(args, cfg, results, residuals, truth=truth, sweep=sweep)


def cmd_hemt_fit(args) -> int:
    cfg = _load_config(args)
    chain = cfgmod.parse_chain(cfg.get("chain", cfg))
    f_signal = cfg.get("f_signal_hz", REFERENCE_F_SIGNAL)

    def plant(syn, rng):
        ladder = syn.get("t_vts_k", synthetic.vts_setpoint_ladder(0.1, 3.0))
        return synthetic.hemt_sweep(chain, f_signal, ladder, syn.get("noise_frac", 0.0), rng)

    sweep, truth = _sweep(args, cfg, plant)
    fit = noise_cal.fit_hemt_noise(sweep, chain, f_signal, free_slope=bool(cfg.get("free_slope", False)))
    results = {"t_hemt_k": fit.t_hemt, "t_hemt_sigma_k": fit.t_hemt_sigma, "slope": fit.slope}
    return _emit(args, cfg, results, truth=truth, sweep=sweep)


def cmd_chain_propagate(args) -> int:
    cfg = _load_config(args)
    chain = cfgmod.parse_chain(cfg.get("chain", cfg))
    n_in = cfg.get("n_in_photons", 0.5)
    f_hz = cfg.get("f_hz", REFERENCE_F_SIGNAL)
    trace = noise_cal.propagate_chain(n_in, chain.elements, f_hz)
    residuals = [
        {"index": i, "label": e.label, "value_db": e.value_db, "temperature_k": e.physical_temperature, "n_photons": n}
        for i, (e, n) in enumerate(zip(chain.elements, trace))
    ]
    results = {"n_in_photons": n_in, "f_hz": f_hz, "n_out_photons": trace[-1] if trace else n_in}
    return _emit(args, cfg, results, residuals)


def cmd_squeeze(args) -> int:
    cfg = _load_config(args)
    budget = cfgmod.parse_budget(cfg.get("budget", cfg))
    results = {"s_min": squeeze.max_measurable_squeezing(budget)}
    g_x_db = args.gx_db if args.gx_db is not None else cfg.get("g_x_db")
    s_measured = args.s if args.s is not None else cfg.get("s_measured")
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
    cfg = _load_config(args)
    model = cfgmod.parse_field_model(cfg.get("field_model", cfg))

    def plant(syn, rng):
        b = np.linspace(syn.get("b_min_t", 0.0), syn.get("b_max_t", 6.0), int(syn.get("n_points", 13)))
        return synthetic.field_shift_sweep(model, b, syn.get("noise_abs", 0.0), rng)

    sweep, truth = _sweep(args, cfg, plant)
    fit = env_models.fit_field_shift(
        sweep, model, estimate_theta=bool(cfg.get("estimate_theta", True)), bc_criterion=cfg.get("bc_criterion")
    )
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
    cfg = _load_config(args)
    model = cfgmod.parse_temp_model(cfg.get("temp_model", cfg))
    f_r = cfg.get("f_r_hz", REFERENCE_F_SIGNAL)
    rows = []
    for t in cfg.get("temperatures_k", np.linspace(0.05, 0.4 * model.t_c, 36)):
        rel = env_models.temp_frequency_shift(float(t), f_r, model)
        rows.append({"t_k": float(t), "rel_shift": rel, "delta_f_hz": rel * f_r})
    return _emit(args, cfg, {"f_r_hz": f_r, "n_points": len(rows)}, rows)


def cmd_device_temp(args) -> int:
    cfg = _load_config(args)
    model = cfgmod.parse_temp_model(cfg.get("temp_model", cfg))
    f_r = cfg.get("f_r_hz", REFERENCE_F_SIGNAL)
    if "delta_omega_rel" in cfg:
        rel = cfg["delta_omega_rel"]
    elif "delta_f_hz" in cfg:
        rel = cfg["delta_f_hz"] / f_r
    else:
        raise ConfigError("device-temp needs delta_omega_rel or delta_f_hz")
    t = env_models.device_temp_from_shift(rel, f_r, model, t_min=cfg.get("t_min_k", 0.02), t_max=cfg.get("t_max_k"))
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
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except KipaLabError as exc:  # pragma: no cover - unexpected subclass
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
