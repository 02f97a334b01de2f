"""Command-line interface.

One subcommand per operation family; every command reads a JSON config,
emits a machine-readable report bundle on stdout (JSON by default, CSV on
request) and optionally writes it plus per-point files under --out.
Synthetic-data mode plants known parameters with seeded Gaussian noise and
reports the recovery alongside the truth.

Exit codes: 0 success, 2 configuration error, 3 fit/extraction error,
4 domain error, 141 stdout closed by its reader (process entry point only);
a closed stderr loses the error line, not the code.  A numpy float warning
(overflow, invalid value, divide by zero) is a domain error, whatever the
caller's warning filters.  The sweep commands (compression, noise-fit,
hemt-fit, field-shift, and tune and gain under --synthetic) print a domain
error of their plant, read or fit as ``<where>: <what>``: the config key at
fault, else ``synthetic`` or ``sweep_file <name>``.
Verbosity via the KIPA_LAB_LOG environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import math
import os
import sys
import warnings

if "numpy" not in sys.modules and "OMP_NUM_THREADS" not in os.environ:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # the fits' products have <= 4 columns: a BLAS thread pool would idle

from . import config as cfgmod
from .errors import ConfigError, DomainError, FitError, KipaLabError
from .report import bundle_csv, bundle_json, make_bundle, write_bundle

# logging's level names, so that a run which logs nothing never imports logging
_LOG_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARNING": 30, "WARN": 30, "INFO": 20, "DEBUG": 10, "NOTSET": 0}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_DOMAIN = 4
EXIT_SIGPIPE = 141  # 128 + SIGPIPE, as a shell reports a writer whose reader left

_parsers: dict = {}  # command (None: every command) -> its parser, built by the first main() call that needs it


def _log(level: str, msg: str, *args) -> None:
    """Send a "kipa_lab" record at a level of _LOG_LEVELS.  logging is
    imported, and set up by basicConfig (a no-op once the root logger has a
    handler), only when the record passes KIPA_LAB_LOG (a level name; WARNING
    by default or when unknown) or when the process has imported logging
    already, so that an embedding program's handlers decide."""
    threshold = _LOG_LEVELS.get(os.environ.get("KIPA_LAB_LOG", "WARNING").upper(), 30)
    if _LOG_LEVELS[level] < threshold and "logging" not in sys.modules:
        return
    import logging
    logging.basicConfig(level=threshold, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("kipa_lab").log(_LOG_LEVELS[level], msg, *args)


def _load_config(args):
    """(config as read, its top level checked against the command's schema)."""
    if args.config is None:
        raise ConfigError("this command requires --config <path>")
    cfg = cfgmod.load_json(args.config)
    return cfg, cfgmod.read(cfg, args.command, "")


def _emit(args, cfg: dict, results: dict, residuals=None, truth=None, curve=None, sweep=None) -> int:
    """Print the bundle of this run, which echoes the inputs and carries any
    planted truth, after writing it under --out."""
    if truth:
        results["truth"] = truth
    inputs = {"config": cfg, "seed": args.seed, "synthetic": args.synthetic}
    sys.stdout.write(_write(args, make_bundle(args.command, inputs, results, residuals), curve, sweep))
    return EXIT_OK


def _write(args, bundle: dict, curve=None, sweep=None) -> str:
    """The bundle encoded once in --format, after writing it, with the curve
    and sweep CSVs, under --out.  A result that is not strict JSON is a
    domain error in either format; an --out that cannot be written is a
    configuration error."""
    text = bundle_json(bundle)
    csv_text = bundle_csv(bundle) if args.format == "csv" else None
    if args.out:
        try:
            paths = write_bundle(bundle, args.out, text, csv_text)
            for name, table in (("curve.csv", curve), ("sweep.csv", sweep)):
                if table is not None:
                    paths.append(os.path.join(args.out, name))
                    table.to_csv(paths[-1])
        except OSError as exc:
            raise ConfigError(f"cannot write --out {args.out}: {exc}") from None
        for p in paths:
            _log("INFO", "wrote %s", p)
    return text if csv_text is None else csv_text


def _sweep(args, c: dict, plant, fit, keys: dict):
    """(sweep, truth, fit(sweep, truth)): the sweep planted by
    ``plant(synthetic_block, seed)`` under --synthetic, else read from the
    config's sweep_file (relative to the config file) with truth None.  A
    DomainError, an ArithmeticError or a float RuntimeWarning of the plant,
    the read or the fit is one DomainError that starts with where it came
    from: the config key that ``keys`` maps the error's ``arg`` to, else the
    source, ``synthetic`` or ``sweep_file <name>``."""
    if not args.synthetic and c["sweep_file"] is None:
        raise ConfigError("config needs a sweep_file (CSV with x,y[,sigma_y]) unless --synthetic")
    try:
        if args.synthetic:
            sweep, truth = plant(c["synthetic"], args.seed)
        else:
            sweep, truth = cfgmod.read_sweep(os.path.join(os.path.dirname(args.config), c["sweep_file"])), None
        return sweep, truth, fit(sweep, truth)
    except (DomainError, ArithmeticError, RuntimeWarning) as exc:
        source = "synthetic" if args.synthetic else f"sweep_file {c['sweep_file']}"
        raise DomainError(f"{keys.get(getattr(exc, 'arg', None), source)}: {exc}") from None


def cmd_design(args) -> int:
    from . import microwave_net
    cfg, c = _load_config(args)
    sif = cfgmod.parse_sif(c["sif"])
    try:
        results = {"z_eff_ohm": microwave_net.effective_impedance(sif), "q_c": microwave_net.coupling_q(sif),
                   "kappa_hz": microwave_net.coupling_rate(sif)}
        if not all(map(math.isfinite, results.values())):  # a product overflowed to inf without raising
            raise OverflowError
    except ArithmeticError:  # z_l^(2 n_l) / (z_h^(2 n_h) z_0) left the float range
        raise DomainError(f"sif.z_l_ohm = {sif.z_l:g}, sif.z_h_ohm = {sif.z_h:g} and sif.z_0_ohm = {sif.z_0:g} "
                          "put the coupling out of float range") from None
    return _emit(args, cfg, results)


def cmd_tune(args) -> int:
    from . import ki_device
    cfg, c = _load_config(args)
    res = cfgmod.parse_device(c["device"]).resonator
    results: dict = {}
    residuals = None
    if args.synthetic:
        import numpy as np
        from . import synthetic

        def plant(syn, rng):
            return synthetic.clem_tuning_sweep(res, np.linspace(0.0, 0.9 * res.i_sw, syn["n_points"]), syn["noise_frac"], rng)

        sweep, truth, fit = _sweep(args, c, plant, lambda sweep, _: ki_device.fit_clem_tuning(sweep, res.f_r0, res.alpha), {})
        model_f = ki_device.clem_frequency(sweep.x, res.f_r0, res.alpha, *fit.params)
        residuals = dict(x=sweep.x, y=sweep.y, model=model_f, residual=sweep.y - model_f)
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
    import numpy as np
    from . import io_dynamics
    cfg, c = _load_config(args)
    cav = cfgmod.parse_cavity(c["cavity"])
    grid = c["grid"]
    center = cav.f_pump / 2.0 if grid["center_hz"] is None else grid["center_hz"]
    span = 20.0 * cav.kappa / (2.0 * math.pi) if grid["span_hz"] is None else grid["span_hz"]
    if span <= 0.0:
        raise DomainError(f"grid.span_hz must be positive, not {span:g}")
    n = grid["n_points"]
    results = {"stable": cav.is_stable, "peak_gain_db": None, "peak_f_hz": None, "gbp_hz": None}
    curve = None
    if cav.is_stable:
        with np.errstate(all="ignore"):
            curve = io_dynamics.GainCurve.from_cavity(cav, np.linspace(center - span / 2.0, center + span / 2.0, n))
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
        if args.synthetic:
            raise DomainError(f"--synthetic has no gain curve to plant on: {results['status']}")
    residuals = None
    if args.synthetic:
        from . import synthetic

        def recover(sweep, truth):  # from a start near the planted rates
            kappa_hz = truth["kappa_hz"]
            p0 = [kappa_hz * 1.05, truth["gamma_hz"] + 0.01 * kappa_hz, truth["delta_hz"] + 0.01 * kappa_hz, truth["xi_hz"] * 0.98]
            return io_dynamics.fit_gain_curve(sweep, cav.f_pump, p0)

        sweep, truth, fit = _sweep(args, c, lambda syn, rng: synthetic.gain_sweep(cav, curve, syn["noise_db"], rng), recover, {})
        model_y = io_dynamics.gain_db_model(sweep.x, fit.params, cav.f_pump)
        residuals = dict(f_hz=sweep.x, gain_db=sweep.y, model_db=model_y, residual_db=sweep.y - model_y)
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
        results["kappa_recovered_within_3_sigma"] = bool(abs(fit.params[0] - truth["kappa_hz"]) <= 3.0 * max(fit.stderr[0], 1e-12))
    return _emit(args, cfg, results, residuals, curve=curve)


def cmd_pump_search(args) -> int:
    from . import io_dynamics
    cfg, c = _load_config(args)
    law = cfgmod.parse_pump_map(c["map"])
    search = c["search"]
    if search["f_bounds"] is None:
        search["f_bounds"] = [2.0 * law.f_r_hz - 2e8, 2.0 * law.f_r_hz + 2e8]
    result = io_dynamics.find_optimal_pump(law.peak_gain_db, **search)
    code = _emit(args, cfg, dataclasses.asdict(result))
    if not result.success:
        _log("WARNING", "pump search failed: %s", result.message)
    return code


def cmd_compression(args) -> int:
    import numpy as np
    from . import io_dynamics, synthetic
    cfg, c = _load_config(args)
    ssg = c["small_signal_gain_db"]

    def plant(syn, rng):
        grid = np.linspace(syn["p_min_dbm"], syn["p_max_dbm"], syn["n_points"])
        return synthetic.compression_sweep(ssg, syn["p_mid_dbm"], syn["softness_db"], syn["depth_db"], grid, syn["noise_db"], rng)

    sweep, truth, point = _sweep(args, c, plant, lambda sweep, _: io_dynamics.compression_point(sweep, ssg), {})
    return _emit(args, cfg, {"small_signal_gain_db": ssg, **point._asdict()}, truth=truth, sweep=sweep)


def cmd_noise_fit(args) -> int:
    from . import noise_cal, synthetic
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    sweep, truth, fit = _sweep(args, c, lambda syn, rng: synthetic.noise_sweep(chain, rng=rng, **syn),  # only the plant reads the source law
                               lambda sweep, _: noise_cal.fit_added_noise(sweep, chain, **c["fit"]),
                               {"t_vts": "synthetic.t_vts_k", "f_signal": "synthetic.f_signal_hz", "f_idler": "synthetic.f_idler_hz"})
    t_kipa = noise_cal.kipa_noise_from_added(fit.t_add, chain.g, chain.t_hemt)
    residual_k = sweep.y / chain.watts_per_kelvin - chain.output_temperature(sweep.x, fit.t_add)
    residuals = dict(t_in_k=sweep.x, p_out_w=sweep.y, residual_k=residual_k)
    results = {"t_add_k": fit.t_add, "t_add_sigma_k": fit.t_add_sigma, "t_kipa_k": t_kipa, "slope": fit.slope}
    return _emit(args, cfg, results, residuals, truth=truth, sweep=sweep)


def cmd_hemt_fit(args) -> int:
    from . import noise_cal, synthetic
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    f_signal = c["f_signal_hz"]
    sweep, truth, fit = _sweep(args, c, lambda syn, rng: synthetic.hemt_sweep(chain, f_signal, rng=rng, **syn),
                               lambda sweep, _: noise_cal.fit_hemt_noise(sweep, chain, f_signal, **c["fit"]),
                               {"f_signal": "f_signal_hz", **({"t_vts": "synthetic.t_vts_k"} if args.synthetic else {})})
    results = {"t_hemt_k": fit.t_hemt, "t_hemt_sigma_k": fit.t_hemt_sigma, "slope": fit.slope}
    return _emit(args, cfg, results, truth=truth, sweep=sweep)


def cmd_chain_propagate(args) -> int:
    from . import noise_cal
    cfg, c = _load_config(args)
    chain = cfgmod.parse_chain(c["chain"])
    n_in, f_hz = c["n_in_photons"], c["f_hz"]
    try:
        trace = noise_cal.propagate_chain(n_in, chain.elements, f_hz)
    except ArithmeticError:  # h f / k_B T underflows to 0
        raise DomainError(f"f_hz = {f_hz:g} Hz puts the thermal occupation of the chain out of float range") from None
    els = chain.elements
    residuals = {"index": list(range(len(els))), "label": [e.label for e in els], "value_db": [e.value_db for e in els],
                 "temperature_k": [e.physical_temperature for e in els], "n_photons": trace}
    results = {"n_in_photons": n_in, "f_hz": f_hz, "n_out_photons": trace[-1] if trace else n_in}
    return _emit(args, cfg, results, residuals)


def cmd_squeeze(args) -> int:
    from . import squeeze
    cfg, c = _load_config(args)
    budget = cfgmod.parse_budget(c["budget"])
    results = {"s_min": squeeze.max_measurable_squeezing(budget)}
    g_x_db, s_measured = c["g_x_db"], c["s_measured"]  # both in the config: g_x_db wins
    if args.gx_db is not None or args.s is not None:  # a flag replaces both config keys
        if args.gx_db is not None and args.s is not None:
            raise ConfigError("squeeze takes --gx-db or --s, not both")
        g_x_db, s_measured = args.gx_db, args.s
    if g_x_db is not None:
        results["g_x_db"] = g_x_db
        try:
            results["s"] = squeeze.squeezing_factor(10.0 ** (g_x_db / 10.0), budget)
        except (OverflowError, DomainError):  # 10**(g_x_db/10) overflows, or underflows to 0
            raise DomainError(f"g_x_db = {g_x_db:g} dB gives no finite, positive quadrature gain") from None
    elif s_measured is not None:
        results["s"] = s_measured
        results["g_x_db"] = 10.0 * math.log10(squeeze.extract_gx(s_measured, budget))
    else:
        raise ConfigError("squeeze needs g_x_db or s_measured (config key or --gx-db/--s)")
    return _emit(args, cfg, results)


def cmd_field_shift(args) -> int:
    import numpy as np
    from . import env_models, synthetic
    cfg, c = _load_config(args)
    model = cfgmod.parse_field_model(c["field_model"])

    def plant(syn, rng):
        b = np.linspace(syn["b_min_t"], syn["b_max_t"], syn["n_points"])
        return synthetic.field_shift_sweep(model, b, syn["noise_abs"], rng)

    sweep, truth, fit = _sweep(args, c, plant, lambda sweep, _: env_models.fit_field_shift(sweep, model, **c["fit"]), {})
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
    import numpy as np
    from . import env_models
    cfg, c = _load_config(args)
    model = cfgmod.parse_temp_model(c["temp_model"])
    f_r = c["f_r_hz"]
    t = c["temperatures_k"]
    t = np.linspace(env_models.QUARTIC_T_MIN_K, model.quartic_t_max, 36) if t is None else np.asarray(t, dtype=float)
    try:
        rel = env_models.temp_frequency_shift(t, f_r, model)
    except (ArithmeticError, RuntimeWarning):  # (k_B T / gap)^4, or h f / k_B T, leaves the float range
        raise DomainError(f"temperatures_k = {t.min():g} to {t.max():g} K and temp_model.critical_temperature_k = {model.t_c:g} K "
                          "put the temperature shift out of float range") from None
    return _emit(args, cfg, {"f_r_hz": f_r, "n_points": t.size}, dict(t_k=t, rel_shift=rel, delta_f_hz=rel * f_r))


def cmd_device_temp(args) -> int:
    from . import env_models
    cfg, c = _load_config(args)
    model = cfgmod.parse_temp_model(c["temp_model"])
    f_r = c["f_r_hz"]
    if c["delta_omega_rel"] is not None:
        rel = c["delta_omega_rel"]
    elif c["delta_f_hz"] is not None:
        rel = c["delta_f_hz"] / f_r
    else:
        raise ConfigError("device-temp needs delta_omega_rel or delta_f_hz")
    solve = {"t_min": env_models.INVERSION_T_MIN_K, "t_max": model.quartic_t_max, **c["solve"]}
    try:
        t = env_models.device_temp_from_shift(rel, f_r, model, **solve)
    except DomainError as exc:  # bounds out of order name the bound at fault (exc.arg)
        if exc.arg is None:
            raise
        key = "t_min_k" if exc.arg == "t_min" else "t_max_k" if "t_max" in c["solve"] else "temp_model.critical_temperature_k"
        raise DomainError(f"{key}: {exc}") from None
    except (ArithmeticError, RuntimeWarning):  # (k_B T / gap)^4, or h f / k_B T, leaves the float range
        raise DomainError(f"t_min_k = {solve['t_min']:g} K, t_max_k = {solve['t_max']:g} K and temp_model.critical_temperature_k = "
                          f"{model.t_c:g} K put the temperature shift out of float range") from None
    return _emit(args, cfg, {"t_dev_k": t, "rel_shift": rel})


def cmd_reproduce(args) -> int:
    from .reproduce import run_fixture
    results = run_fixture(args.fixture)
    all_pass = all(r.passed for r in results)
    if args.out:  # the bundle is written, never printed
        fields = ("fixture", "passed", "measured", "expected", "tolerance", "description")
        checks = [{k: getattr(r, k) for k in fields} for r in results]
        _write(args, make_bundle("reproduce", {"fixture": args.fixture, "seed": args.seed}, {"all_passed": all_pass, "checks": checks}))
    for r in results:
        print(r.line())
    return EXIT_OK if all_pass else 1


# One row per subcommand: name -> (help, its arguments beyond COMMON_ARGS).
# main() runs cmd_<name> (dashes as underscores), looked up at each call.
COMMANDS = {
    "design": ("stepped-impedance-filter coupling design numbers", {}),
    "tune": ("resonance frequency versus dc bias current", {"--current": {"type": cfgmod.finite, "help": "bias current in A"}}),
    "gain": ("driven-cavity gain curve and bandwidth product", {}),
    "pump-search": ("search the cheapest pump point for a target gain", {}),
    "compression": ("1-dB compression point extraction", {}),
    "noise-fit": ("added-noise fit from source thermometry", {}),
    "hemt-fit": ("cryogenic amplifier noise calibration", {}),
    "chain-propagate": ("photon-number propagation through the chain", {}),
    "squeeze": ("squeezing factor, floor and quadrature gain",
                {"--gx-db": {"type": cfgmod.finite, "help": "quadrature gain in dB"}, "--s": {"type": cfgmod.finite, "help": "measured squeezing factor"}}),
    "field-shift": ("parallel-field frequency-shift fit", {}),
    "temp-shift": ("temperature-dependent frequency shift curve", {}),
    "device-temp": ("device temperature from a measured shift", {}),
    "reproduce": ("run a built-in published-value check", {"fixture": {"help": "fixture id or 'all'"}}),
}
COMMON_ARGS = {
    "--config": {"help": "JSON configuration file"},
    "--out": {"help": "directory for result.json and per-point CSVs"},
    "--format": {"choices": ["json", "csv"], "default": "json"},
    "--seed": {"type": cfgmod.natural, "default": 0, "help": "PRNG seed for synthetic data, an integer >= 0"},
    "--synthetic": {"action": "store_true", "help": "plant-and-recover on generated data"},
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """A new argparse tree over COMMANDS, or over only its ``command`` row;
    main() builds each tree it needs once per process."""
    parser = argparse.ArgumentParser(
        prog="kipa-lab",
        description="Modeling, simulation and parameter extraction for dc-biased "
        "three-wave-mixing kinetic-inductance parametric amplifiers.",
    )
    # A one-command tree names every command in its usage line, which a usage error prints, as the full tree
    # does.  The full tree takes no metavar: argparse would name the action by it in "required" and
    # "invalid choice" errors, where the full tree says "command".
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        helptext, extra = COMMANDS[name]
        p = sub.add_parser(name, help=helptext)
        for flag, kwargs in {**COMMON_ARGS, **extra}.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None  # no command, -h or a usage error: the full tree
    if command not in _parsers:
        _parsers[command] = build_parser(command)
    args = _parsers[command].parse_args(argv)
    try:
        with warnings.catch_warnings():  # keeps the caller's filters but forgets which warnings were shown, as a new process does
            warnings.filterwarnings("error", r"(overflow|invalid value|divide by zero) encountered", RuntimeWarning)  # numpy's float errors
            return globals()["cmd_" + args.command.replace("-", "_")](args)
    except ConfigError as exc:
        return _error(EXIT_CONFIG, f"configuration error: {exc}")
    except FitError as exc:
        return _error(EXIT_FIT, f"fit error: {exc}")
    except (DomainError, ArithmeticError, RuntimeWarning) as exc:  # a float out of range is outside the domain too
        return _error(EXIT_DOMAIN, f"domain error: {exc}")
    except KipaLabError as exc:  # pragma: no cover - unexpected subclass
        return _error(1, f"error: {exc}")


def _error(code: int, line: str) -> int:
    """Write one error line to stderr and return the exit code it goes
    with.  A closed stderr loses the line, not the code: sys.stderr is None
    when fd 2 was closed at start, and raises OSError when closed since."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        pass
    return code


def run(argv=None) -> int:
    """The ``kipa-lab`` process: main() with the cyclic garbage collector off,
    and the heap frozen on every way out, so the collections at interpreter
    exit have nothing to walk.  Only a process that ends after the command
    should call this; main() never touches gc.  A closed stdout is exit 141
    with nothing on stderr."""
    gc.disable()  # a run is short: its cycles die with the process, and collecting them while numpy imports costs more than it frees
    try:
        code = main(argv)
        sys.stdout.flush()  # a reader that has gone shows here, not in the flush at shutdown
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # what is left in the buffer goes nowhere at shutdown
        return EXIT_SIGPIPE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
