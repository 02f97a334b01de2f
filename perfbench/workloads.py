"""The three workloads and the checks made on every operation.

Each workload is closed loop with one client: an operation starts when the
previous one and its checks are done.  run_round() attempts one whole round
of the same operations, so the share of failed operations is the same in
every run whatever its length.
"""

from __future__ import annotations

import copy
import io
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import inputs
import oracles
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _reject_constant(name):
    raise CheckFailed(f"stdout is not strict JSON: it holds {name}")


def strict_json(text: str) -> dict:
    return json.loads(text, parse_constant=_reject_constant)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# The host runs in phases that slow all code alike by up to ~1.6x, CPU
# time included.  Each op is therefore timed next to a reference that does
# not involve kipa_lab, and scaled to the speed at which that reference
# takes its nominal time (about its time on the 2-vCPU VM the bounds were
# set on).  In-process ops use a computation in the same process; process
# starts are tracked far better by another process start.
KERNEL_S = 0.003
START_S = 0.07


def reference_kernel() -> tuple:
    """(wall s, CPU s) of 100 closed-form gain curves of 241 points: Python
    with small numpy arrays, like most of kipa_lab's in-process work."""
    for i in range(10):  # untimed: the first calls after an op run slow
        oracles.resampled_peak_db(2e7, 0.0, 1e6, 0.9e7 + i)
    w0, c0 = time.perf_counter(), time.process_time()
    for i in range(100):
        oracles.resampled_peak_db(2e7, 0.0, 1e6, 0.9e7 + i)
    return time.perf_counter() - w0, time.process_time() - c0


def reference_start() -> tuple:
    """(wall s, CPU s) of a bare interpreter start, ``python -c pass``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return time.perf_counter() - t0, usage.ru_utime + usage.ru_stime


def host_speed_factor(refs: list, nominal_s: float) -> float:
    return nominal_s / statistics.median(refs)


class Stats:
    """Per-operation samples of one timed phase."""

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.wall = []
        self.cpu = []
        self.ref = []  # the workload's reference (wall, cpu) just before each op
        self.rss_kb = 0
        self.failed = 0
        self.errors = []

    def add(self, wall: float, cpu: float, ref: tuple, rss_kb: int = 0) -> None:
        self.wall.append(wall)
        self.cpu.append(cpu)
        self.ref.append(ref)
        self.rss_kb = max(self.rss_kb, rss_kb)

    def scale(self, which: int, half_window: int = 2) -> list:
        """Host-speed factor of each op (which: 0 wall, 1 CPU) from the
        median reference time of the ops around it; one reference run is
        too short to trust alone.  Wall and CPU are scaled apart, because
        steal time stretches the one and not the other."""
        refs = [r[which] for r in self.ref]
        n = len(refs)
        return [host_speed_factor(refs[max(0, i - half_window): min(n, i + half_window + 1)], self.nominal_s)
                for i in range(n)]

    def scaled_wall(self) -> list:
        return [v * k for v, k in zip(self.wall, self.scale(0))]

    def scaled_cpu(self) -> list:
        return [v * k for v, k in zip(self.cpu, self.scale(1))]

    def check(self, label: str, fn, *args) -> None:
        """Run one operation's checks; True from fn marks the known fault."""
        try:
            if fn(*args):
                self.failed += 1
        except Exception as exc:  # any surprise in an output is a wrong output
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- checks


def check_design(cfg: dict, bundle: dict) -> None:
    r = bundle["results"]
    f0 = cfg["sif"]["f_0_hz"]
    expect(close(r["kappa_hz"] * r["q_c"], f0, 1e-9 * f0), "design: kappa_hz * q_c != f_0_hz")


def check_tune(cfg: dict, bundle: dict) -> None:
    res = cfg["device"]["resonator"]
    r = bundle["results"]
    if r["bias_current_a"] == 0.0:
        expect(close(r["f_hz"], res["f_r0_hz"], 1e-12 * res["f_r0_hz"]), "tune: f(I=0) != f_r0")
    if "fit" in r:
        truth = r["fit"]["truth"]
        x = np.array([row["x"] for row in bundle["residuals"]])
        y = np.array([row["y"] for row in bundle["residuals"]])
        m = np.array([row["model"] for row in bundle["residuals"]])
        f_true = oracles.clem_frequency(x, res["f_r0_hz"], res["alpha"], truth["i_star_a"], truth["clem_exponent"])
        sigma = cfg["synthetic"]["noise_frac"] * f_true
        fit, planted = oracles.chi2(y, m, sigma), oracles.chi2(y, f_true, sigma)
        expect(fit <= planted * (1.0 + 1e-9), f"tune: chi2 at fit {fit:.6g} > chi2 at truth {planted:.6g}")


def check_gain(cfg: dict, bundle: dict) -> None:
    cav = cfg["cavity"]
    kappa, gamma = cav["kappa_hz"], cav["gamma_hz"]
    xi = cav["xi_frac_of_kbar"] * oracles.kappa_bar(kappa, gamma)
    r = bundle["results"]
    expect(r["stable"] is True, "gain: stable cavity reported unstable")
    want = oracles.center_gain_db(kappa, gamma, xi)
    expect(close(r["peak_gain_db"], want, 1e-9), f"gain: peak {r['peak_gain_db']!r} dB != closed form {want!r} dB")
    if "fit" in r:
        t = r["fit"]["truth"]
        f = np.array([row["f_hz"] for row in bundle["residuals"]])
        y = np.array([row["gain_db"] for row in bundle["residuals"]])
        m = np.array([row["model_db"] for row in bundle["residuals"]])
        planted_model = oracles.gain_db(t["kappa_hz"], t["gamma_hz"], t["delta_hz"], t["xi_hz"], f - t["f_pump_hz"] / 2.0)
        sigma = cfg["synthetic"]["noise_db"]
        fit, planted = oracles.chi2(y, m, sigma), oracles.chi2(y, planted_model, sigma)
        expect(fit <= planted * (1.0 + 1e-9), f"gain: chi2 at fit {fit:.6g} > chi2 at truth {planted:.6g}")


def check_compression(cfg: dict, bundle: dict) -> None:
    s = cfg["synthetic"]
    r = bundle["results"]
    want = oracles.logistic_1db_dbm(s["p_mid_dbm"], s["softness_db"], s["depth_db"])
    step = (s["p_max_dbm"] - s["p_min_dbm"]) / (s["n_points"] - 1)
    tol = 2.0 * oracles.logistic_interp_tolerance(s["p_mid_dbm"], s["softness_db"], s["depth_db"], step) + 1e-9
    expect(close(r["p_in_1db_dbm"], want, tol), f"compression: 1-dB point {r['p_in_1db_dbm']!r} != {want!r} +- {tol:.3g}")
    expect(close(r["p_out_sat_dbm"], r["p_in_1db_dbm"] + cfg["small_signal_gain_db"] - 1.0, 1e-9),
           "compression: p_out_sat != p_in_1db + gain - 1")


def check_noise_fit(cfg: dict, bundle: dict) -> None:
    want = cfg["synthetic"]["t_kipa_k"]
    got = bundle["results"]["t_kipa_k"]
    expect(close(got, want, 1e-9), f"noise-fit: t_kipa {got!r} K != planted {want!r} K")


def check_hemt_fit(cfg: dict, bundle: dict) -> None:
    want = cfg["chain"]["t_hemt_k"]
    got = bundle["results"]["t_hemt_k"]
    expect(close(got, want, 1e-9), f"hemt-fit: t_hemt {got!r} K != planted {want!r} K")


def check_field_shift(cfg: dict, bundle: dict) -> None:
    want = cfg["field_model"]["theta_b_rad"]
    got = bundle["results"]["theta_b_rad"]
    expect(close(got, want, 1e-9), f"field-shift: theta_B {got!r} rad != planted {want!r} rad")


def check_reproduce(stdout: str) -> None:
    lines = stdout.splitlines()
    expect(len(lines) > 0 and all(line.startswith("PASS ") for line in lines), "reproduce all: not every check passed")


def check_pump(problem: dict, hit, bundle: dict) -> bool:
    """Check a pump-search answer; True when it is the known detuning fault.

    ``hit`` is first_stable_hit(problem), computed once at set-up.
    """
    m, s = problem["map"], problem["search"]
    r = bundle["results"]
    if not r["success"]:
        expect(hit is not None, "pump-search: failed on a problem the benchmark expects to succeed")
        return True
    f, p = r["f_pump_hz"], r["p_pump_dbm"]
    (f_lo, f_hi), (p_lo, p_hi) = s["f_bounds_hz"], s["p_bounds_dbm"]
    expect(f_lo <= f <= f_hi and p_lo <= p <= p_hi, "pump-search: reported point outside the rectangle")
    kappa, gamma = m["kappa_hz"], m["gamma_hz"]
    delta = inputs.pump_delta_hz(m, f)
    xi = inputs.pump_xi_hz(m, p)
    expect(oracles.is_stable(kappa, gamma, delta, -1j * xi), "pump-search: reported point is unstable")
    peak = oracles.peak_gain_db(kappa, gamma, delta, xi)
    expect(peak >= s["target_db"] - 1e-6, f"pump-search: closed-form peak {peak:.6f} dB below target")
    expect(r["gain_db"] <= peak + 1e-6, "pump-search: reported gain above the closed-form peak")
    p_below = p - s["p_step_db"]
    if p_below >= p_lo - 1e-9:
        xi_below = inputs.pump_xi_hz(m, p_below)
        peak_below = oracles.peak_gain_db(kappa, gamma, delta, xi_below)
        under_read = peak_below - oracles.resampled_peak_db(kappa, gamma, delta, xi_below)
        expect(peak_below < s["target_db"] + under_read + 1e-6,
               f"pump-search: one step lower already reaches {peak_below:.6f} dB")
    return False


# ---------------------------------------------------------------- running the program


def _write_json(path: str, obj: dict) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


class InProcessCli:
    """Calls kipa_lab.cli.main in this process with stdout and stderr captured."""

    def __init__(self):
        import kipa_lab.cli

        self.main = kipa_lab.cli.main
        # The program's own basicConfig call is a no-op once a handler
        # exists, so its log lines land here instead of the terminal.
        self.log = io.StringIO()
        logging.basicConfig(stream=self.log, level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")

    def __call__(self, argv: list) -> tuple:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = self.main(argv)
        self.log.seek(0)
        self.log.truncate()
        return code, out.getvalue()


def _timed(fn):
    """(fn(), wall s, cpu s, reference_kernel() just before)."""
    ref = reference_kernel()
    w0, c0 = time.perf_counter(), time.process_time()
    result = fn()
    return result, time.perf_counter() - w0, time.process_time() - c0, ref


def _rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- workloads


class ColdCli:
    """Each op is a fresh ``python -m kipa_lab.cli`` process."""

    REFERENCE_S = START_S

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        self.tracer = None
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.trace_path = os.path.join(workdir, "trace.json")
        rng = np.random.default_rng(seed)
        base = inputs.load_base_configs(root)
        chain = inputs.chain_config(base, rng, 4)
        cfg = {
            "design": inputs.design_config(base, rng),
            "device": inputs.device_config(base, rng, inputs.uniform(rng, 5e-5, 2e-4), int(rng.integers(15, 36))),
            "gain": inputs.gain_config(base, rng, inputs.uniform(rng, 0.05, 0.2), 2001),
            "compression": inputs.compression_config(base, rng, 161),
            "chain": chain,
            "hemt": inputs.hemt_config(chain, 4),
            "field": inputs.field_config(base, rng, 13),
            "budget": inputs.budget_config(base, rng),
            "temp": inputs.temp_config(base, rng),
        }
        self.gx_db = inputs.uniform(rng, -2.9, -0.5)
        path = {k: _write_json(os.path.join(workdir, f"{k}.json"), v) for k, v in cfg.items()}
        temp_grid_path = os.path.join(workdir, "temp_grid.json")

        def temp_grid(state):
            t, h = state["t_dev_k"], 1e-3
            _write_json(temp_grid_path, dict(cfg["temp"], temperatures_k=[t - h, t, t + h]))
            return ["temp-shift", "--config", temp_grid_path]

        def squeeze_back(out, state):
            r = strict_json(out)["results"]
            expect(close(r["g_x_db"], self.gx_db, 1e-9), f"squeeze: G_X {self.gx_db!r} dB -> s -> {r['g_x_db']!r} dB")

        def temp_back(out, state):
            rows = strict_json(out)["residuals"]
            slope = (rows[2]["rel_shift"] - rows[0]["rel_shift"]) / (rows[2]["t_k"] - rows[0]["t_k"])
            want = cfg["temp"]["delta_omega_rel"]
            # device-temp bisects to 1e-5 K; the shift may miss by that times the slope.
            expect(close(rows[1]["rel_shift"], want, abs(slope) * 1e-5 + 1e-15),
                   f"temp-shift at the device-temp answer gives {rows[1]['rel_shift']!r}, not {want!r}")

        def keep(key, field):
            def store(out, state):
                state[key] = strict_json(out)["results"][field]
            return store

        def bundle_check(fn, key):
            return lambda out, state: fn(cfg[key], strict_json(out))

        # (label, argv or argv-from-state, check(stdout, state))
        self.ops = [
            ("design", ["design", "--config", path["design"]], bundle_check(check_design, "design")),
            ("tune", ["tune", "--config", path["device"], "--current", "0"], bundle_check(check_tune, "device")),
            ("tune-synthetic", ["tune", "--config", path["device"], "--synthetic", "--seed", "1"], bundle_check(check_tune, "device")),
            ("gain", ["gain", "--config", path["gain"]], bundle_check(check_gain, "gain")),
            ("gain-synthetic", ["gain", "--config", path["gain"], "--synthetic", "--seed", "2"], bundle_check(check_gain, "gain")),
            ("compression", ["compression", "--config", path["compression"], "--synthetic"], bundle_check(check_compression, "compression")),
            ("noise-fit", ["noise-fit", "--config", path["chain"], "--synthetic"], bundle_check(check_noise_fit, "chain")),
            ("hemt-fit", ["hemt-fit", "--config", path["hemt"], "--synthetic"], bundle_check(check_hemt_fit, "hemt")),
            ("field-shift", ["field-shift", "--config", path["field"], "--synthetic"], bundle_check(check_field_shift, "field")),
            ("chain-propagate", ["chain-propagate", "--config", path["chain"]], lambda out, state: strict_json(out)),
            ("squeeze-gx", ["squeeze", "--config", path["budget"], "--gx-db", repr(self.gx_db)], keep("s", "s")),
            ("squeeze-s", lambda state: ["squeeze", "--config", path["budget"], "--s", repr(state["s"])], squeeze_back),
            ("device-temp", ["device-temp", "--config", path["temp"]], keep("t_dev_k", "t_dev_k")),
            ("temp-shift", temp_grid, temp_back),
            ("reproduce", ["reproduce", "all"], lambda out, state: check_reproduce(out)),
        ]

    def enable_tracing(self, tr: tracer.Tracer) -> None:
        self.tracer = tr

    def _spawn(self, args: list) -> tuple:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "kipa_lab.cli"] + args
        else:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), self.trace_path] + args
        with open(self.err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=self.root)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out.decode(), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss

    def warm_up(self) -> None:
        self._spawn(self.ops[0][1])

    def run_round(self, stats: Stats) -> None:
        state = {}
        for label, argv, check in self.ops:
            args = argv(state) if callable(argv) else argv
            ref = reference_start()
            code, out, wall, cpu, rss_kb = self._spawn(args)
            stats.add(wall, cpu, ref, rss_kb)
            if self.tracer is not None and os.path.exists(self.trace_path):
                with open(self.trace_path) as fh:
                    self.tracer.merge(json.load(fh))
                os.remove(self.trace_path)

            def verify():
                expect(code == 0, f"exit code {code}")
                check(out, state)
            stats.check(label, verify)


class PumpSearch:
    """Each op is one in-process pump-search on a generated problem."""

    REFERENCE_S = KERNEL_S

    N_SEEDED = 8

    def __init__(self, root: str, workdir: str, seed: int):
        rng = np.random.default_rng(seed)
        problems = [inputs.pump_problem(rng) for _ in range(self.N_SEEDED)]
        problems[4:4] = [inputs.DETUNED_PUMP_PROBLEMS[0]]
        problems.append(inputs.DETUNED_PUMP_PROBLEMS[1])
        self.problems = problems
        self.hits = [inputs.first_stable_hit(p) if p in inputs.DETUNED_PUMP_PROBLEMS else None for p in problems]
        if sum(h is not None for h in self.hits) != len(inputs.DETUNED_PUMP_PROBLEMS):
            raise RuntimeError("a detuned pump problem has no stable point reaching its target")
        self.paths = [_write_json(os.path.join(workdir, f"pump_{i}.json"), p) for i, p in enumerate(problems)]
        self.cli = InProcessCli()

    def enable_tracing(self, tr: tracer.Tracer) -> None:
        tracer.install(tr)

    def warm_up(self) -> None:
        self.cli(["pump-search", "--config", self.paths[0]])

    def run_round(self, stats: Stats) -> None:
        for problem, hit, path in zip(self.problems, self.hits, self.paths):
            (code, out), wall, cpu, ref = _timed(lambda: self.cli(["pump-search", "--config", path]))
            stats.add(wall, cpu, ref, _rss_kb())

            def verify():
                expect(code == 0, f"exit code {code}")
                return check_pump(problem, hit, strict_json(out))
            stats.check(os.path.basename(path), verify)


FIT_CHECKS = {
    "gain": check_gain,
    "tune": check_tune,
    "compression": check_compression,
    "noise-fit": check_noise_fit,
    "hemt-fit": check_hemt_fit,
    "field-shift": check_field_shift,
}
REFIT_COMMANDS = ("compression", "noise-fit", "hemt-fit", "field-shift")


class FitRoundtrip:
    """Each op plants and fits six commands with --out, then refits four of
    them from the sweep.csv they wrote."""

    REFERENCE_S = KERNEL_S

    N_CASES = 16

    def __init__(self, root: str, workdir: str, seed: int):
        rng = np.random.default_rng(seed)
        base = inputs.load_base_configs(root)
        self.workdir = workdir
        self.cases = []
        for k, cfgs in enumerate(inputs.fit_cases(base, rng, self.N_CASES)):
            case_dir = os.path.join(workdir, f"case_{k}")
            os.makedirs(case_dir)
            paths = {cmd: _write_json(os.path.join(case_dir, f"{cmd}.json"), c) for cmd, c in cfgs.items()}
            self.cases.append((cfgs, paths, str(int(rng.integers(0, 2**31)))))
        self.n_ops = 0
        self.cli = InProcessCli()

    def enable_tracing(self, tr: tracer.Tracer) -> None:
        tracer.install(tr)

    def warm_up(self) -> None:
        self._op(self.cases[0], Stats(KERNEL_S))

    def run_round(self, stats: Stats) -> None:
        for case in self.cases:
            self._op(case, stats)

    def _op(self, case, stats: Stats) -> None:
        cfgs, paths, seed = case
        out_dir = os.path.join(self.workdir, f"out_{self.n_ops}")
        self.n_ops += 1
        os.makedirs(out_dir)
        refit = {}
        for cmd in REFIT_COMMANDS:
            cfg = {k: v for k, v in copy.deepcopy(cfgs[cmd]).items() if k != "synthetic"}
            cfg["sweep_file"] = os.path.join(cmd, "sweep.csv")
            refit[cmd] = _write_json(os.path.join(out_dir, f"{cmd}.refit.json"), cfg)

        def calls():
            first = {cmd: self.cli([cmd, "--config", paths[cmd], "--synthetic", "--seed", seed,
                                    "--out", os.path.join(out_dir, cmd)]) for cmd in FIT_CHECKS}
            again = {cmd: self.cli([cmd, "--config", refit[cmd]]) for cmd in REFIT_COMMANDS}
            return first, again

        (first, again), wall, cpu, ref = _timed(calls)
        stats.add(wall, cpu, ref, _rss_kb())

        def verify():
            bundles = {}
            for cmd, (code, out) in first.items():
                expect(code == 0, f"{cmd}: exit code {code}")
                bundles[cmd] = strict_json(out)
                FIT_CHECKS[cmd](cfgs[cmd], bundles[cmd])
                with open(os.path.join(out_dir, cmd, "result.json")) as fh:
                    expect(fh.read() == out, f"{cmd}: result.json differs from stdout")
            for cmd, (code, out) in again.items():
                expect(code == 0, f"{cmd} refit: exit code {code}")
                want = {k: v for k, v in bundles[cmd]["results"].items() if k != "truth"}
                expect(strict_json(out)["results"] == want, f"{cmd}: refit from sweep.csv differs from the in-memory fit")
        stats.check(f"case seed {seed}", verify)
        shutil.rmtree(out_dir)


WORKLOADS = {"cold-cli": ColdCli, "pump-search": PumpSearch, "fit-roundtrip": FitRoundtrip}
