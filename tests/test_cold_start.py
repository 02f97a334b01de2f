"""What a fresh interpreter loads and starts for kipa_lab.

Each check runs in a new ``sys.executable`` process, because numpy reads its
thread settings once, at its first import.  ``import kipa_lab.cli`` in a
process that has not imported numpy sets OPENBLAS_NUM_THREADS=1 unless the
caller set it or OMP_NUM_THREADS; a process that imported numpy first keeps
its environment as it was.  The thread count must never change output bytes,
so cold CLI runs are checked against the golden digests.
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


def _env(**extra) -> dict:
    """This process's environment without the thread variables, kipa_lab's src first on the path, plus extra."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**env, **extra}


def _python(*args, **extra) -> str:
    proc = subprocess.run([sys.executable, *args], env=_env(**extra), cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_numpy_imported_first_leaves_environment_unchanged():
    code = "import os, numpy; before = dict(os.environ); import kipa_lab.cli; print(dict(os.environ) == before)"
    assert _python("-c", code).strip() == "True"


@pytest.mark.parametrize(
    "case, argv",
    [
        ("gain [json]", ["gain", "--config", "configs/gain.json"]),
        ("tune [json]", ["tune", "--config", "configs/device.json"]),
        ("noise-fit --synthetic [json]", ["noise-fit", "--config", "configs/chain.json", "--synthetic"]),
    ],
    ids=["gain", "tune", "noise-fit-synthetic"],
)
def test_cold_cli_stdout_matches_golden_digest(case, argv):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were taken with numpy {golden['numpy']}, this is numpy {np.__version__}")
    out = _python("-m", "kipa_lab.cli", *argv, "--seed", "0")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == golden["digests"][case]["stdout"]
