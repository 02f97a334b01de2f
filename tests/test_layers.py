"""kipa_lab's modules import one way: only the CLI imports ``config``.

``config`` reads the files a run is given, the JSON config and the sweep CSVs,
and builds library objects from them, so it sits above every module it builds
from.  The scan parses ``src/kipa_lab/*.py`` with ``ast`` and collects every
kipa_lab module a module imports, at the top level or inside a function; a
fresh process then imports every library module and must not have loaded
``config``.  Each piece lives in the layer of its callers: the sweep reader in
``config``, the config hash in ``report`` beside ``make_bundle``, and
``PumpMap`` in ``io_dynamics`` beside the search that evaluates it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

from kipa_lab import config, fitkit, io_dynamics, report, synthetic

SRC = Path(__file__).resolve().parent.parent / "src" / "kipa_lab"
LIBRARY = sorted(p.stem for p in SRC.glob("*.py") if p.stem not in ("__init__", "cli", "config"))


def _imported(text: str) -> set:
    """The kipa_lab modules that the source ``text`` of a kipa_lab module imports."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom):
            base = "kipa_lab" + (f".{node.module}" if node.module else "") if node.level == 1 else node.module or ""
            if base == "kipa_lab":
                found.update(alias.name for alias in node.names)
            elif base.startswith("kipa_lab."):
                found.add(base.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names if alias.name.startswith("kipa_lab."))
    return found


def test_only_the_cli_imports_config():
    assert sorted(p.stem for p in SRC.glob("*.py") if "config" in _imported(p.read_text())) == ["cli"]


def test_the_library_loads_without_config():
    code = f"import importlib, sys\nfor m in {LIBRARY!r}:\n    importlib.import_module('kipa_lab.' + m)\nprint('kipa_lab.config' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == "False", proc.stderr


def test_each_piece_lives_in_its_layer():
    assert not hasattr(fitkit.SweepRecord, "from_csv")
    assert not any(hasattr(fitkit, name) for name in ("_is_number", "csv", "ConfigError"))
    assert report.config_hash.__module__ == "kipa_lab.report" and not hasattr(config, "config_hash")
    assert io_dynamics.PumpMap.__module__ == "kipa_lab.io_dynamics" and not hasattr(synthetic, "PumpMap")
