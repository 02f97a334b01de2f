"""Benchmark of kipa-lab: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cold-cli,pump-search,fit-roundtrip}
                             --seed N --seconds S --trace {0,1}

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The lines before it give the Python and numpy
versions, the CPU count and the host steal time over the run.  See
perfbench/README.md for what each metric means and why the workloads are
what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOAD_NAMES = ("cold-cli", "pump-search", "fit-roundtrip")
MIN_OPS = 100  # op_cpu_p90_ms needs ten samples beyond it
SETUP_PROBES = 4

# Every time below is scaled to a fixed host speed by a reference timed
# next to it (see workloads.KERNEL_S); the unscaled figures are printed too.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_cpu_p50_ms": "ms",
    "op_cpu_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> unit; see layer_metrics.  Times and counts are per
# timed op unless the name says per call.
LAYER_UNITS = {
    "import.python_start_ms": "ms",
    "import.numpy_ms": "ms",
    "import.kipa_lab_ms": "ms",
    "cli.build_parser_ms": "ms",
    "cli.build_parser_calls": "count",
    "cli.parse_args_ms": "ms",
    "cli.handler_self_ms": "ms",
    "config.load_json_ms": "ms",
    "config.parse_ms": "ms",
    "config.read_sweep_ms": "ms",
    "config.read_sweep_rows": "count",
    "synthetic.generate_ms": "ms",
    "synthetic.pump_eval_calls": "count",
    "synthetic.pump_eval_us": "us",
    "io_dynamics.find_optimal_pump_ms": "ms",
    "io_dynamics.search_self_ms": "ms",
    "io_dynamics.search_hit_ratio": "ratio",
    "fitkit.nlls_fit_ms": "ms",
    "fitkit.nlls_iterations": "count",
    "fitkit.model_evals": "count",
    "fitkit.linear_fit_ms": "ms",
    "ki_device.fit_clem_tuning_ms": "ms",
    "noise_cal.fit_ms": "ms",
    "env_models.fit_field_shift_ms": "ms",
    "report.make_bundle_ms": "ms",
    "report.bundle_json_ms": "ms",
    "report.bundle_bytes": "B",
    "report.write_bundle_ms": "ms",
    "report.bytes_written": "B",
    "io_dynamics.curve_csv_ms": "ms",
    "fitkit.sweep_csv_ms": "ms",
    "reproduce.run_fixture_ms": "ms",
    "trace.overhead_ms": "ms",
}


def read_cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_report(start, end) -> str:
    if start is None or end is None or end[1] == start[1]:
        return "steal=unavailable"
    ticks = end[0] - start[0]
    return f"steal_s={ticks / os.sysconf('SC_CLK_TCK'):.2f} steal_pct={100.0 * ticks / (end[1] - start[1]):.2f}"


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_phase(wl, seconds: float, min_ops: int, between_rounds=None):
    """Whole rounds until `seconds` have passed and `min_ops` ops were timed.

    between_rounds(elapsed_s) runs after each round, outside the op timings.
    """
    from workloads import Stats

    stats = Stats(wl.REFERENCE_S)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds or len(stats.wall) < min_ops:
        wl.run_round(stats)
        if between_rounds is not None:
            between_rounds(time.perf_counter() - t0)
    return stats


def start_speed_factor() -> float:
    """Host-speed factor for a set-up, from three bare interpreter starts."""
    from workloads import START_S, host_speed_factor, reference_start

    return host_speed_factor([reference_start()[0] for _ in range(3)], START_S)


def setup_probe(args) -> tuple:
    """(set-up time in s of the same workload in a fresh interpreter, host-speed factor)."""
    scale = start_speed_factor()
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]), scale


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import kipa_lab.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


def import_probe(root: str, n: int = 5) -> dict:
    """Median interpreter start, numpy import and kipa_lab.cli import, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start, numpy_s, kipa_s = [], [], []
    for _ in range(n):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        start.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True)
        a, b = out.stdout.split()
        numpy_s.append(float(a))
        kipa_s.append(float(b))
    return {
        "import.python_start_ms": 1e3 * statistics.median(start),
        "import.numpy_ms": 1e3 * statistics.median(numpy_s),
        "import.kipa_lab_ms": 1e3 * statistics.median(kipa_s),
    }


def layer_metrics(tr, n_ops: int, overhead_ms: float, imports: dict) -> dict:
    total, own, counts = tr.total, tr.self_time, tr.counts

    def ms(name, table=total):
        return 1e3 * table.get(name, 0.0) / n_ops

    evals = counts.get("synthetic.pump_eval", 0.0)
    values = dict(imports)
    values.update({
        "cli.build_parser_ms": ms("cli.build_parser"),
        "cli.build_parser_calls": counts.get("cli.build_parser", 0.0) / n_ops,
        "cli.parse_args_ms": ms("cli.parse_args"),
        "cli.handler_self_ms": ms("cli.handler", own),
        "config.load_json_ms": ms("config.load_json"),
        "config.parse_ms": ms("config.parse"),
        "config.read_sweep_ms": ms("config.read_sweep"),
        "config.read_sweep_rows": counts.get("config.read_sweep_rows", 0.0) / n_ops,
        "synthetic.generate_ms": ms("synthetic.generate"),
        "synthetic.pump_eval_calls": evals / n_ops,
        "synthetic.pump_eval_us": 1e6 * total.get("synthetic.pump_eval", 0.0) / evals if evals else 0.0,
        "io_dynamics.find_optimal_pump_ms": ms("io_dynamics.find_optimal_pump"),
        "io_dynamics.search_self_ms": ms("io_dynamics.find_optimal_pump", own),
        "io_dynamics.search_hit_ratio": counts.get("io_dynamics.search_hits", 0.0) / evals if evals else 0.0,
        "fitkit.nlls_fit_ms": ms("fitkit.nlls_fit"),
        "fitkit.nlls_iterations": counts.get("fitkit.nlls_iterations", 0.0) / n_ops,
        "fitkit.model_evals": counts.get("fitkit.model_evals", 0.0) / n_ops,
        "fitkit.linear_fit_ms": ms("fitkit.linear_fit"),
        "ki_device.fit_clem_tuning_ms": ms("ki_device.fit_clem_tuning"),
        "noise_cal.fit_ms": ms("noise_cal.fit"),
        "env_models.fit_field_shift_ms": ms("env_models.fit_field_shift"),
        "report.make_bundle_ms": ms("report.make_bundle"),
        "report.bundle_json_ms": ms("report.bundle_json"),
        "report.bundle_bytes": counts.get("report.bundle_bytes", 0.0) / n_ops,
        "report.write_bundle_ms": ms("report.write_bundle"),
        "report.bytes_written": counts.get("report.bytes_written", 0.0) / n_ops,
        "io_dynamics.curve_csv_ms": ms("io_dynamics.curve_csv"),
        "fitkit.sweep_csv_ms": ms("fitkit.sweep_csv"),
        "reproduce.run_fixture_ms": ms("reproduce.run_fixture"),
        "trace.overhead_ms": overhead_ms,
    })
    return values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    t_start = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "kipa_lab", "cli.py")):
        print("perfbench: run from the root of a kipa-lab checkout (src/kipa_lab/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    ticks0 = read_cpu_ticks()
    out_root = os.path.join(root, ".perfbench_out")
    os.makedirs(out_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root)
    try:
        import workloads  # numpy and the oracles; kipa_lab for in-process workloads

        wl = workloads.WORKLOADS[args.workload](root, workdir, args.seed)
        wl.warm_up()
        setup_own = time.perf_counter() - t_start
        if args.setup_probe:
            print(setup_own)
            return 0

        import numpy

        if args.trace:
            import tracer

            untraced = run_phase(wl, args.seconds / 2.0, 1)
            tr = tracer.Tracer()
            wl.enable_tracing(tr)
            traced = run_phase(wl, args.seconds / 2.0, 1)
            overhead_ms = 1e3 * (statistics.median(traced.scaled_wall()) - statistics.median(untraced.scaled_wall()))
            values = layer_metrics(tr, len(traced.wall), overhead_ms, import_probe(root))
            units = LAYER_UNITS
            phases = [untraced, traced]
        else:
            setups = [(setup_own, start_speed_factor())]

            def probe_setup(elapsed_s):
                # spread the set-ups over the run, so they meet more than one host phase
                if len(setups) <= SETUP_PROBES and elapsed_s >= args.seconds * (len(setups) - 1) / SETUP_PROBES:
                    setups.append(setup_probe(args))

            stats = run_phase(wl, args.seconds, MIN_OPS, probe_setup)
            while len(setups) <= SETUP_PROBES:
                setups.append(setup_probe(args))
            wall, cpu = stats.scaled_wall(), stats.scaled_cpu()
            values = {
                "setup_s": statistics.median(t * k for t, k in setups),
                "op_p50_ms": 1e3 * statistics.median(wall),
                "op_cpu_p50_ms": 1e3 * statistics.median(cpu),
                "op_cpu_p90_ms": 1e3 * p90(cpu),
                "ops_per_s": len(wall) / sum(wall),
                "peak_rss_mb": stats.rss_kb / 1024.0,
            }
            units = END_TO_END_UNITS
            phases = [stats]
            print(f"perfbench: unscaled, over {len(wall)} ops: wall p50 {1e3 * statistics.median(stats.wall):.3f} ms, "
                  f"p90 {1e3 * p90(stats.wall):.3f} ms (reference only); cpu p50 {1e3 * statistics.median(stats.cpu):.3f} ms, "
                  f"p90 {1e3 * p90(stats.cpu):.3f} ms; {len(wall) / sum(stats.wall):.4f} ops/s; "
                  f"set-ups {[round(t, 4) for t, _ in setups]} s; host-speed factor median "
                  f"{statistics.median(stats.scale(0)):.4f}, range {min(stats.scale(0)):.4f}-{max(stats.scale(0)):.4f}")
        errors = [e for p in phases for e in p.errors]
        for e in errors[:10]:
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        print(f"perfbench: workload={args.workload} seed={args.seed} python={platform.python_version()} "
              f"numpy={numpy.__version__} nproc={len(os.sched_getaffinity(0))} "
              f"{steal_report(ticks0, read_cpu_ticks())}")
        result = {
            "correct": not errors,
            "attempted": sum(len(p.wall) for p in phases),
            "failed": sum(p.failed for p in phases),
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(out_root)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
