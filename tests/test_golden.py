"""Golden digests of the CLI at --seed 0.

Every subcommand runs in-process on the bundled configs, in both output
formats, with --out; the SHA-256 of stdout and of every file written under
--out must match tests/golden/cli_seed0.json.  The four sweep-fitting
commands are also refitted from the sweep.csv their synthetic run wrote,
through a relative sweep_file.  Float results depend on the numpy build, so
the test skips under a numpy other than the one the digests were taken with.
On a mismatch the new digest map is printed.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from kipa_lab import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_seed0.json"

# (case name, argv without --out/--format/--seed)
CASES = [
    ("design", ["design", "--config", "sif.json"]),
    ("tune", ["tune", "--config", "device.json"]),
    ("tune --current", ["tune", "--config", "device.json", "--current", "1e-4"]),
    ("tune --synthetic", ["tune", "--config", "device.json", "--synthetic"]),
    ("gain", ["gain", "--config", "gain.json"]),
    ("gain --synthetic", ["gain", "--config", "gain.json", "--synthetic"]),
    ("pump-search", ["pump-search", "--config", "pump_search.json"]),
    ("compression --synthetic", ["compression", "--config", "compression.json", "--synthetic"]),
    ("noise-fit --synthetic", ["noise-fit", "--config", "chain.json", "--synthetic"]),
    ("hemt-fit --synthetic", ["hemt-fit", "--config", "chain.json", "--synthetic"]),
    ("chain-propagate", ["chain-propagate", "--config", "chain.json"]),
    ("squeeze --s", ["squeeze", "--config", "budget.json"]),
    ("squeeze --gx-db", ["squeeze", "--config", "budget.json", "--gx-db", "-2.95"]),
    ("field-shift --synthetic", ["field-shift", "--config", "field.json", "--synthetic"]),
    ("temp-shift", ["temp-shift", "--config", "temp.json"]),
    ("device-temp", ["device-temp", "--config", "temp.json"]),
    ("reproduce all", ["reproduce", "all"]),
]

# Commands refitted from their own synthetic sweep.csv: (command, config).
REFITS = [
    ("compression", "compression.json"),
    ("noise-fit", "chain.json"),
    ("hemt-fit", "chain.json"),
    ("field-shift", "field.json"),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list, out_dir: Path) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv + ["--seed", "0", "--out", str(out_dir)])
    files = {}
    if out_dir.exists():
        for p in sorted(out_dir.rglob("*")):
            if p.is_file():
                files[p.relative_to(out_dir).as_posix()] = _sha(p.read_bytes())
    return {"exit": code, "stdout": _sha(buf.getvalue().encode("utf-8")), "files": files}


def digest_map(work: Path) -> dict:
    """Run every case under ``work`` and return {case [format]: digests}."""
    digests = {}
    for fmt in ("json", "csv"):
        for name, argv in CASES:
            argv = [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]
            key = f"{name} [{fmt}]"
            digests[key] = _run(argv + ["--format", fmt], work / key.replace(" ", "_"))
        for command, config in REFITS:
            key = f"{command} sweep_file [{fmt}]"
            run_dir = work / key.replace(" ", "_")
            _run([command, "--config", str(CONFIGS / config), "--synthetic"], run_dir / "plant")
            cfg = json.loads((CONFIGS / config).read_text())
            cfg["sweep_file"] = "sweep.csv"
            (run_dir / "plant" / "refit.json").write_text(json.dumps(cfg))
            argv = [command, "--config", str(run_dir / "plant" / "refit.json"), "--format", fmt]
            digests[key] = _run(argv, run_dir / "out")
    return digests


def test_cli_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were taken with numpy {golden['numpy']}, this is numpy {np.__version__}")
    got = digest_map(tmp_path)
    if got != golden["digests"]:
        print(json.dumps(got, indent=2, sort_keys=True))
        changed = sorted(k for k in set(got) | set(golden["digests"]) if got.get(k) != golden["digests"].get(k))
        pytest.fail(f"CLI output digests changed for: {', '.join(changed)}")
