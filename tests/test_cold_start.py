"""What a fresh interpreter loads and starts for kipa_lab.

Each check runs in a new ``sys.executable`` process, because numpy reads its
thread settings once, at its first import, and because an in-process test
shares the modules that earlier tests loaded.  ``import kipa_lab.cli`` in a
process that has not imported numpy sets OPENBLAS_NUM_THREADS=1 unless the
caller set it or OMP_NUM_THREADS; a process that imported numpy first keeps
its environment as it was.  The thread count must never change output bytes,
so a cold CLI run of every subcommand is checked against the golden digests.
Each subcommand imports only the physics modules it runs: the same runs, made
under ``-X importtime``, pin the kipa_lab modules each one loads, and whether it
loads numpy at all; ``design``, ``squeeze``, ``chain-propagate`` and plain
``tune`` do not.  The same runs pin what a run loads only for the work that
needs it: numpy's RNG only where it draws noise, the fit engine only where it
fits, ``logging`` only for a record that passes KIPA_LAB_LOG, unset here,
orjson only where a float column is encoded (a residual table), and OpenSSL
(``_hashlib``) only through numpy's RNG: the config hash uses CPython's
built-in ``_sha256``, and ``hashlib`` where that module is missing.
A ``kipa-lab`` process runs ``cli.run``: it ends with the cyclic collector off
and its heap frozen, a closed stdout ends it with exit 141 and no stderr, and
a closed stderr loses the error line but not the exit code.  In-process
``cli.main`` leaves ``gc`` as the caller set it.
"""

import ast
import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kipa_lab import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_seed0.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The kipa_lab modules that `import kipa_lab.cli` leaves for the handlers to load.
LAWS = {"io_dynamics", "ki_device", "noise_cal", "env_models", "synthetic", "reproduce", "squeeze", "microwave_net"}


def _env(**extra) -> dict:
    """This process's environment without the thread variables or KIPA_LAB_LOG, kipa_lab's src first on the path, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS and k != "KIPA_LAB_LOG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def _run(*args, exit_code=0, **extra) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=_env(**extra), cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == exit_code, proc.stderr
    return proc


def _python(*args, **extra) -> str:
    return _run(*args, **extra).stdout


def _imported(importtime_stderr: str) -> set:
    """The modules named in the -X importtime report of a process."""
    return {line.rpartition("|")[2].strip() for line in importtime_stderr.splitlines() if line.startswith("import time:")}


def _laws_loaded(importtime_stderr: str) -> set:
    """The LAWS named in the -X importtime report of a process."""
    names = _imported(importtime_stderr)
    return {name.partition(".")[2] for name in names if name.partition(".")[0] == "kipa_lab"} & LAWS


def test_bare_import_loads_no_numpy():
    assert _python("-c", "import sys, kipa_lab; print('numpy' in sys.modules)").strip() == "False"


def test_cli_import_starts_numpy_with_one_thread():
    out = _python("-c", "import os, kipa_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])")
    assert out.strip() == "1"


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/<pid>/task to count threads")
def test_cli_import_leaves_one_thread():
    assert _python("-c", "import os, kipa_lab.cli; print(len(os.listdir('/proc/self/task')))").strip() == "1"


@pytest.mark.parametrize("preset", [{"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}], ids=["openblas", "omp"])
def test_preset_thread_setting_is_kept(preset):
    code = f"import json, os, kipa_lab.cli; print(json.dumps({{k: os.environ.get(k) for k in {THREAD_VARS!r}}}))"
    got = json.loads(_python("-c", code, **preset))
    assert got == {k: preset.get(k) for k in THREAD_VARS}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/<pid>/task to count threads")
def test_handler_starts_numpy_with_one_thread():
    # numpy loads inside the handler, after `import kipa_lab.cli` set the thread count.
    code = (
        "import contextlib, io, os, sys, kipa_lab.cli\n"
        "loaded = 'numpy' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert kipa_lab.cli.main(['gain', '--config', 'configs/gain.json', '--synthetic']) == 0\n"
        "print(loaded, 'numpy' in sys.modules, os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
    )
    assert _python("-c", code).split() == ["False", "True", "1", "1"]


def test_cli_import_loads_no_law_module():
    assert _laws_loaded(_run("-X", "importtime", "-c", "import kipa_lab.cli").stderr) == set()


def test_numpy_imported_first_leaves_environment_unchanged():
    code = "import os, numpy; before = dict(os.environ); import kipa_lab.cli; print(dict(os.environ) == before)"
    assert _python("-c", code).strip() == "True"


# One run of each subcommand: (golden case, argv, the LAWS it loads, whether it loads numpy).
COLD_CASES = [
    ("design", ["design", "--config", "configs/sif.json"], {"microwave_net"}, False),
    ("tune", ["tune", "--config", "configs/device.json"], {"ki_device"}, False),
    ("tune --synthetic", ["tune", "--config", "configs/device.json", "--synthetic"], {"ki_device", "synthetic"}, True),
    ("gain", ["gain", "--config", "configs/gain.json"], {"io_dynamics"}, True),
    ("gain --synthetic", ["gain", "--config", "configs/gain.json", "--synthetic"], {"io_dynamics", "synthetic"}, True),
    ("pump-search", ["pump-search", "--config", "configs/pump_search.json"], {"io_dynamics"}, True),
    ("compression --synthetic", ["compression", "--config", "configs/compression.json", "--synthetic"], {"io_dynamics", "synthetic"}, True),
    ("noise-fit --synthetic", ["noise-fit", "--config", "configs/chain.json", "--synthetic"], {"noise_cal", "synthetic"}, True),
    ("hemt-fit --synthetic", ["hemt-fit", "--config", "configs/chain.json", "--synthetic"], {"noise_cal", "synthetic"}, True),
    ("chain-propagate", ["chain-propagate", "--config", "configs/chain.json"], {"noise_cal"}, False),
    ("squeeze --s", ["squeeze", "--config", "configs/budget.json"], {"squeeze"}, False),
    ("squeeze --gx-db", ["squeeze", "--config", "configs/budget.json", "--gx-db", "-2.95"], {"squeeze"}, False),
    ("field-shift --synthetic", ["field-shift", "--config", "configs/field.json", "--synthetic"], {"env_models", "synthetic"}, True),
    ("temp-shift", ["temp-shift", "--config", "configs/temp.json"], {"env_models"}, True),
    ("device-temp", ["device-temp", "--config", "configs/temp.json"], {"env_models"}, True),
    ("reproduce all", ["reproduce", "all"], LAWS, True),
]
# The runs that draw noise (the other plants are noiseless), the runs that fit, and the runs whose
# bundle holds a float column (no run here writes --out, so curve.csv and sweep.csv are not written).
DRAWS = {"tune --synthetic", "gain --synthetic"}
FITS = DRAWS | {"compression --synthetic", "noise-fit --synthetic", "hemt-fit --synthetic", "field-shift --synthetic", "reproduce all"}
FLOAT_COLUMNS = DRAWS | {"noise-fit --synthetic", "temp-shift"}


@functools.lru_cache(maxsize=None)
def _cold(case: str) -> subprocess.CompletedProcess:
    """The -X importtime run of a COLD_CASES case at --seed 0, made once per session."""
    argv = next(argv for name, argv, *_ in COLD_CASES if name == case)
    return _run("-X", "importtime", "-m", "kipa_lab.cli", *argv, "--seed", "0")


def _cases_loading(module: str) -> set:
    return {case for case, *_ in COLD_CASES if module in _imported(_cold(case).stderr)}


def test_numpy_rng_loads_only_to_draw():
    assert _cases_loading("numpy.random") == DRAWS


def test_fit_engine_loads_only_to_fit():
    assert _cases_loading("kipa_lab.fitkit") == FITS


def test_orjson_loads_only_to_encode_a_float_column():
    assert "orjson" not in _imported(_run("-X", "importtime", "-c", "import kipa_lab.cli").stderr)
    assert _cases_loading("orjson") == FLOAT_COLUMNS


def test_default_log_level_loads_no_logging():
    assert _cases_loading("logging") == set()


def test_openssl_loads_only_with_the_rng():
    # numpy.random imports secrets, which imports hmac, which imports _hashlib.
    assert not {"hashlib", "_hashlib"} & _imported(_run("-X", "importtime", "-c", "import kipa_lab.cli").stderr)
    assert _cases_loading("_hashlib") == DRAWS


def test_config_hash_without_the_builtin_sha256_module():
    code = (
        "import hashlib, json, sys\n"
        "sys.modules['_sha256'] = None\n"
        "from kipa_lab import report\n"
        "cfg = {'b': [1.5, None], 'a': {'z': 'x', 'y': float('nan')}}\n"
        "canon = json.dumps(cfg, sort_keys=True, separators=(',', ':'), allow_nan=True)\n"
        "assert report.sha256 is hashlib.sha256\n"
        "print(report.config_hash(cfg) == hashlib.sha256(canon.encode('utf-8')).hexdigest())"
    )
    assert _python("-c", code).strip() == "True"


@pytest.mark.parametrize("case, argv, laws, numpy", COLD_CASES, ids=[c[0].replace(" --", "-").replace(" ", "-") for c in COLD_CASES])
def test_cold_cli_stdout_matches_golden_digest(case, argv, laws, numpy):
    proc = _cold(case)
    assert _laws_loaded(proc.stderr) == laws
    assert ("numpy" in _imported(proc.stderr)) is numpy
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were taken with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == golden["digests"][f"{case} [json]"]["stdout"]


# Prints (gc.isenabled(), gc.get_freeze_count() > 0) to stderr as the process exits.
GC_PROBE = "import atexit, gc, sys; atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr))\n"
RAISING_HANDLER = "import kipa_lab.cli as cli\ndef boom(args): raise RuntimeError('boom')\ncli.cmd_design = boom\ncli.run(['design'])\n"


@pytest.mark.parametrize(
    "code, exit_code",
    [
        ("import runpy, sys; sys.argv[1:] = ['design', '--config', 'configs/sif.json']; runpy.run_module('kipa_lab.cli', run_name='__main__')", 0),
        ("import runpy, sys; sys.argv[1:] = ['design', '--no-such-flag']; runpy.run_module('kipa_lab.cli', run_name='__main__')", 2),
        (RAISING_HANDLER, 1),
    ],
    ids=["return", "usage-error", "exception"],
)
def test_process_exits_with_collector_off_and_heap_frozen(code, exit_code):
    proc = _run("-c", GC_PROBE + code, exit_code=exit_code)
    assert proc.stderr.splitlines()[-1] == "False True", proc.stderr


def test_console_script_is_the_main_block_entry_point():
    target = next(line.split("=", 1)[1].strip().strip('"') for line in (ROOT / "pyproject.toml").read_text().splitlines()
                  if line.startswith("kipa-lab ="))
    module, _, func = target.partition(":")
    assert module == "kipa_lab.cli"
    tree = ast.parse(Path(cli.__file__).read_text())
    main_block = next(node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test))
    called = {node.func.id for node in ast.walk(main_block) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert func in called and callable(getattr(cli, func))


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "argv",
    [["design", "--config", "configs/sif.json"], ["design"], ["squeeze", "--config", "configs/budget.json", "--gx-db", "5000"],
     ["design", "--no-such-flag"]],
    ids=["exit-0", "exit-2", "exit-4", "usage-error"],
)
def test_in_process_main_leaves_gc_as_the_caller_set_it(monkeypatch, capsys, argv, enabled):
    monkeypatch.chdir(ROOT)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        frozen = gc.get_freeze_count()
        try:
            cli.main(argv)
        except SystemExit:
            pass
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["design", "--config", "configs/sif.json"], 0),
        (["design"], 2),
        (["tune", "--config", "{tmp}/device.json", "--synthetic"], 3),
        (["squeeze", "--config", "configs/budget.json", "--gx-db", "5000"], 4),
    ],
    ids=["exit-0", "exit-2", "exit-3", "exit-4"],
)
def test_process_exit_code_is_that_of_main(monkeypatch, capsys, tmp_path, argv, want):
    # A one-point tune sweep cannot fix both I* and the Clem exponent: exit 3.
    doc = json.loads((ROOT / "configs" / "device.json").read_text())
    doc["synthetic"]["n_points"] = 1
    (tmp_path / "device.json").write_text(json.dumps(doc))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == want
    assert _run("-m", "kipa_lab.cli", *argv, exit_code=want).stdout == capsys.readouterr().out


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["reproduce", "all"], ["design", "--config", "configs/sif.json"]], ids=["reproduce-all", "design"])
def test_closed_stdout_exits_141_with_empty_stderr(argv, unbuffered):
    # The read end closes before the process starts, so every write fails; `| head` would race.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in _env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        proc = subprocess.run([sys.executable, "-m", "kipa_lab.cli", *argv], env=env, cwd=ROOT, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


# Two ways to lose stderr: fd 2 closed before the interpreter starts (`2>&-`; sys.stderr is None, and a
# print to it would go to stdout), or closed while it runs (writing to sys.stderr raises OSError).
CLOSED_STDERR = {
    "at-start": ["sh", "-c", 'exec "$0" -m kipa_lab.cli "$@" 2>&-', sys.executable],
    "while-running": [sys.executable, "-c", "import os, runpy; os.close(2); runpy.run_module('kipa_lab.cli', run_name='__main__')"],
}


@pytest.mark.parametrize("closed", list(CLOSED_STDERR))
@pytest.mark.parametrize("argv, want", [(["design"], 2), (["gain", "--config", "{tmp}/gain.json"], 4)], ids=["exit-2", "exit-4"])
def test_closed_stderr_keeps_the_exit_code(tmp_path, argv, want, closed):
    doc = json.loads((ROOT / "configs" / "gain.json").read_text())
    doc["grid"]["span_hz"] = 0
    (tmp_path / "gain.json").write_text(json.dumps(doc))
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    proc = subprocess.run(CLOSED_STDERR[closed] + argv, env=_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (want, "")
