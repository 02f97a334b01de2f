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
loads numpy at all; ``design`` and ``squeeze`` do not.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_seed0.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
# The kipa_lab modules that `import kipa_lab.cli` leaves for the handlers to load.
LAWS = {"io_dynamics", "ki_device", "noise_cal", "env_models", "synthetic", "reproduce", "squeeze", "microwave_net"}


def _env(**extra) -> dict:
    """This process's environment without the thread variables, kipa_lab's src first on the path, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def _run(*args, **extra) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], env=_env(**extra), cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
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
    ("tune", ["tune", "--config", "configs/device.json"], {"ki_device", "synthetic"}, True),
    ("gain", ["gain", "--config", "configs/gain.json"], {"io_dynamics", "synthetic"}, True),
    ("pump-search", ["pump-search", "--config", "configs/pump_search.json"], {"io_dynamics", "synthetic"}, True),
    ("compression --synthetic", ["compression", "--config", "configs/compression.json", "--synthetic"], {"io_dynamics", "synthetic"}, True),
    ("noise-fit --synthetic", ["noise-fit", "--config", "configs/chain.json", "--synthetic"], {"noise_cal", "synthetic"}, True),
    ("hemt-fit --synthetic", ["hemt-fit", "--config", "configs/chain.json", "--synthetic"], {"noise_cal", "synthetic"}, True),
    ("chain-propagate", ["chain-propagate", "--config", "configs/chain.json"], {"noise_cal"}, True),
    ("squeeze --s", ["squeeze", "--config", "configs/budget.json"], {"squeeze"}, False),
    ("squeeze --gx-db", ["squeeze", "--config", "configs/budget.json", "--gx-db", "-2.95"], {"squeeze"}, False),
    ("field-shift --synthetic", ["field-shift", "--config", "configs/field.json", "--synthetic"], {"env_models", "synthetic"}, True),
    ("temp-shift", ["temp-shift", "--config", "configs/temp.json"], {"env_models"}, True),
    ("device-temp", ["device-temp", "--config", "configs/temp.json"], {"env_models"}, True),
    ("reproduce all", ["reproduce", "all"], LAWS, True),
]


@pytest.mark.parametrize("case, argv, laws, numpy", COLD_CASES, ids=[c[0].replace(" --", "-").replace(" ", "-") for c in COLD_CASES])
def test_cold_cli_stdout_matches_golden_digest(case, argv, laws, numpy):
    proc = _run("-X", "importtime", "-m", "kipa_lab.cli", *argv, "--seed", "0")
    assert _laws_loaded(proc.stderr) == laws
    assert ("numpy" in _imported(proc.stderr)) is numpy
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were taken with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == golden["digests"][f"{case} [json]"]["stdout"]
