"""Property-based fuzz of the CLI's config and sweep-CSV boundaries.

A config case takes a bundled config, sets one key path to a drawn value (a
wrong type, a boolean, a string, an array, an object, null, zero, a
negative or huge number) or deletes it.  A sweep case takes the sweep.csv
that a sweep-fitting command writes from its bundled config under
--synthetic, edits one cell or row (blank, nan, inf, overflow, text, zero
or negative, a short row, an extra column, a sigma_y column, or only the
header) and refits it through sweep_file.  Each case runs one subcommand
in-process with warnings recorded.  Whatever the edit, no exception
escapes, no numpy RuntimeWarning is raised, the exit code is documented, a
failure prints exactly one stderr line and nothing on stdout, and a success
prints strict JSON.  The examples are derandomized, so the suite is
deterministic.
"""

import contextlib
import functools
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kipa_lab import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# (bundled config, argv without --config): every subcommand that reads one.
RUNS = [
    ("sif.json", ["design"]),
    ("device.json", ["tune"]),
    ("device.json", ["tune", "--synthetic"]),
    ("gain.json", ["gain"]),
    ("gain.json", ["gain", "--synthetic"]),
    ("pump_search.json", ["pump-search"]),
    ("compression.json", ["compression", "--synthetic"]),
    ("chain.json", ["noise-fit", "--synthetic"]),
    ("chain.json", ["hemt-fit", "--synthetic"]),
    ("chain.json", ["chain-propagate"]),
    ("budget.json", ["squeeze"]),
    ("field.json", ["field-shift", "--synthetic"]),
    ("temp.json", ["temp-shift"]),
    ("temp.json", ["device-temp"]),
]

# Optional keys that the bundled configs leave out.
ABSENT = {
    "gain.json": [("cavity", "xi_hz"), ("cavity", "xi_phase_rad")],
    "pump_search.json": [],
    "chain.json": [("free_slope",), ("chain", "eta_db"), ("chain", "il_asymmetry_db"), ("synthetic", "t_vts_k")],
    "budget.json": [("g_x_db",), ("budget", "hemt_gain_db"), ("budget", "n_eta_photons")],
    "field.json": [("estimate_theta",), ("bc_criterion",), ("field_model", "delta_0_j")],
    "temp.json": [("t_min_k",), ("t_max_k",), ("delta_f_hz",), ("temperatures_k",), ("temp_model", "c4")],
    "compression.json": [("sweep_file",)],
    "device.json": [("bias_current_a",)],
    "sif.json": [],
}

DELETE = "<delete>"
VALUES = [
    DELETE, None, True, False, "", "1.5", [], [1.0, 2.0], [0.5, "x"], {}, {"a": 1},
    0, 0.0, -1, -2.5, 3, 1e-300, 1e300, -1e300, 10**7, 2**63,
]


def key_paths(doc, prefix=()):
    """Every key path of a JSON document: blocks, leaves and array items."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from key_paths(value, prefix + (key,))


def edited(doc, path, value):
    """A copy of doc with the key at path set to value, or deleted."""
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        if isinstance(parent, dict):
            parent.pop(path[-1], None)
        else:
            del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def reject(literal):
    raise ValueError(f"non-strict JSON constant {literal}")


def run_checked(argv):
    """Run the CLI in-process with warnings recorded and assert the
    documented-exit invariants, with no RuntimeWarning among the warnings."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    # A numpy RuntimeWarning is one more stderr line in a fresh process, which the count below cannot see.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4)
    if code:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    else:
        json.loads(out.getvalue(), parse_constant=reject)


@pytest.mark.parametrize("config, argv", RUNS, ids=[" ".join(argv) for _, argv in RUNS])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_edited_key_ends_in_a_documented_exit(config, argv, data):
    doc = json.loads((CONFIGS / config).read_text())
    path = data.draw(st.sampled_from(sorted(set(key_paths(doc)) | set(ABSENT[config]), key=repr)), label="path")
    value = data.draw(st.sampled_from(VALUES), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / config
        cfg.write_text(json.dumps(edited(doc, path, value)))
        run_checked([*argv, "--config", str(cfg)])


# Sweep-fitting commands and the bundled config whose synthetic sweep.csv
# the sweep cases edit.
SWEEP_RUNS = [
    ("compression.json", "compression"),
    ("chain.json", "noise-fit"),
    ("chain.json", "hemt-fit"),
    ("field.json", "field-shift"),
]
CELLS = ["", "nan", "inf", "-inf", "1e400", "x", "0", "-1"]
ROW_EDITS = ["cell", "sigma_y", "short row", "extra column", "header only"]


@functools.lru_cache(maxsize=None)
def planted_sweep(config, command):
    """Lines of the sweep.csv that ``command --synthetic`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", str(CONFIGS / config), "--synthetic", "--out", tmp]) == 0
        return tuple((Path(tmp) / "sweep.csv").read_text().splitlines())


@pytest.mark.parametrize("config, command", SWEEP_RUNS, ids=[command for _, command in SWEEP_RUNS])
@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_one_edited_sweep_row_ends_in_a_documented_exit(config, command, data):
    header, *rows = planted_sweep(config, command)
    rows = [line.split(",") for line in rows]
    edit = data.draw(st.sampled_from(ROW_EDITS), label="edit")
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    value = data.draw(st.sampled_from(CELLS), label="value")
    if edit == "cell":
        rows[i][data.draw(st.integers(0, 1), label="column")] = value
    elif edit == "sigma_y":  # a sigma_y column of ones with one drawn entry
        for row in rows:
            row[2] = "1"
        rows[i][2] = value
    elif edit == "short row":
        rows[i] = rows[i][:1]
    elif edit == "extra column":
        rows[i].append(value)
    else:
        rows = []
    doc = json.loads((CONFIGS / config).read_text())
    doc["sweep_file"] = "sweep.csv"
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "sweep.csv").write_text("\n".join([header, *map(",".join, rows)]) + "\n")
        (Path(tmp) / config).write_text(json.dumps(doc))
        run_checked([command, "--config", str(Path(tmp) / config)])
