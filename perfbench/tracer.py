"""Spans around kipa_lab's public functions, installed from outside the program.

install() replaces module attributes with timing wrappers, including the
names other kipa_lab modules bound with ``from .x import y``, so calls made
inside the program are seen too.  A span records inclusive time and self time
(inclusive minus the time of traced spans it encloses); a span re-entered
while already open, as nlls_fit is by its multi-start loop, is counted once.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

# kipa_lab function -> span name.  Several functions may share a layer.
SPANS = {
    ("cli", "build_parser"): "cli.build_parser",
    ("config", "load_json"): "config.load_json",
    ("config", "read_sweep"): "config.read_sweep",
    ("synthetic", "gain_sweep"): "synthetic.generate",
    ("synthetic", "noise_sweep"): "synthetic.generate",
    ("synthetic", "hemt_sweep"): "synthetic.generate",
    ("synthetic", "compression_sweep"): "synthetic.generate",
    ("synthetic", "clem_tuning_sweep"): "synthetic.generate",
    ("synthetic", "field_shift_sweep"): "synthetic.generate",
    ("synthetic", "pump_gain_map"): "synthetic.pump_gain_map",
    ("io_dynamics", "find_optimal_pump"): "io_dynamics.find_optimal_pump",
    ("fitkit", "nlls_fit"): "fitkit.nlls_fit",
    ("fitkit", "linear_fit"): "fitkit.linear_fit",
    ("ki_device", "fit_clem_tuning"): "ki_device.fit_clem_tuning",
    ("noise_cal", "fit_added_noise"): "noise_cal.fit",
    ("noise_cal", "fit_hemt_noise"): "noise_cal.fit",
    ("env_models", "fit_field_shift"): "env_models.fit_field_shift",
    ("report", "make_bundle"): "report.make_bundle",
    ("report", "bundle_json"): "report.bundle_json",
    ("report", "write_bundle"): "report.write_bundle",
    ("reproduce", "run_fixture"): "reproduce.run_fixture",
}
PARSE_FUNCTIONS = ("parse_film", "parse_resonator", "parse_device", "parse_sif", "parse_chain",
                   "parse_cavity", "parse_budget", "parse_field_model", "parse_temp_model")


class Tracer:
    """Accumulates span times (seconds) and counters over a traced phase."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.target_db = float("inf")
        self._stack = []  # [name, time spent in enclosed spans]

    def call(self, name, fn, args, kwargs):
        if not self.outermost(name):
            return fn(*args, **kwargs)
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            self.counts[name] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def outermost(self, name) -> bool:
        return not any(frame[0] == name for frame in self._stack)

    def snapshot(self) -> dict:
        return {"total": dict(self.total), "self": dict(self.self_time), "counts": dict(self.counts)}

    def merge(self, snap: dict) -> None:
        for key, target in (("total", self.total), ("self", self.self_time), ("counts", self.counts)):
            for name, value in snap.get(key, {}).items():
                target[name] += value


def _replace(owner, attr, wrapped) -> None:
    """Set owner.attr and every kipa_lab module global bound to the same object."""
    orig = getattr(owner, attr)
    setattr(owner, attr, wrapped)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("kipa_lab"):
            continue
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tr: Tracer) -> None:
    """Wrap kipa_lab's public functions so they report to ``tr``."""
    mods = {name: importlib.import_module(f"kipa_lab.{name}") for name in
            ("cli", "config", "synthetic", "io_dynamics", "fitkit", "ki_device", "noise_cal",
             "env_models", "report", "reproduce")}

    def span(name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = tr.outermost(name)
            result = tr.call(name, fn, args, kwargs)
            if after is not None and outer:
                after(result, args, kwargs)
            return result
        return wrapper

    def count(key, fn):
        def after(result, args, kwargs):
            tr.counts[key] += fn(result, args, kwargs)
        return after

    hooks = {
        "config.read_sweep": count("config.read_sweep_rows", lambda r, a, k: len(r)),
        "report.bundle_json": count("report.bundle_bytes", lambda r, a, k: len(r)),
        "report.write_bundle": count("report.bytes_written", lambda r, a, k: sum(_size(p) for p in r)),
        "fitkit.nlls_fit": count("fitkit.nlls_iterations", lambda r, a, k: r.n_iterations),
    }
    for (mod, attr), name in SPANS.items():
        fn = getattr(mods[mod], attr)
        if name == "fitkit.nlls_fit":
            fn = _counting_model(tr, fn)
        elif name == "synthetic.pump_gain_map":
            fn = _traced_evaluator(tr, fn)
        elif name == "io_dynamics.find_optimal_pump":
            fn = _recording_target(tr, fn)
        elif name == "cli.build_parser":
            fn = _traced_parser(tr, fn)
        _replace(mods[mod], attr, span(name, fn, hooks.get(name)))
    for attr in PARSE_FUNCTIONS:
        _replace(mods["config"], attr, span("config.parse", getattr(mods["config"], attr)))
    for attr in [a for a in vars(mods["cli"]) if a.startswith("cmd_")]:
        _replace(mods["cli"], attr, span("cli.handler", getattr(mods["cli"], attr)))

    written = count("report.bytes_written", lambda r, a, k: _size(a[1] if len(a) > 1 else k["path"]))
    for cls, name in ((mods["io_dynamics"].GainCurve, "io_dynamics.curve_csv"),
                      (mods["fitkit"].SweepRecord, "fitkit.sweep_csv")):
        cls.to_csv = span(name, cls.to_csv, written)


def _counting_model(tr, nlls_fit):
    """Count model calls; a multi-start refit passes the counted model on."""

    @functools.wraps(nlls_fit)
    def wrapper(model, *args, **kwargs):
        if not getattr(model, "counted", False):
            inner = model

            def model(x, p):
                tr.counts["fitkit.model_evals"] += 1
                return inner(x, p)
            model.counted = True
        return nlls_fit(model, *args, **kwargs)
    return wrapper


def _traced_evaluator(tr, pump_gain_map):
    @functools.wraps(pump_gain_map)
    def wrapper(*args, **kwargs):
        evaluator = pump_gain_map(*args, **kwargs)

        def traced(f_pump_hz, p_pump_dbm):
            g = tr.call("synthetic.pump_eval", evaluator, (f_pump_hz, p_pump_dbm), {})
            if g >= tr.target_db:
                tr.counts["io_dynamics.search_hits"] += 1
            return g
        return traced
    return wrapper


def _recording_target(tr, find_optimal_pump):
    @functools.wraps(find_optimal_pump)
    def wrapper(evaluator, target_db, *args, **kwargs):
        tr.target_db = target_db
        return find_optimal_pump(evaluator, target_db, *args, **kwargs)
    return wrapper


def _traced_parser(tr, build_parser):
    @functools.wraps(build_parser)
    def wrapper(*args, **kwargs):
        parser = build_parser(*args, **kwargs)
        parse_args = parser.parse_args
        parser.parse_args = lambda *a, **k: tr.call("cli.parse_args", parse_args, a, k)
        return parser
    return wrapper
