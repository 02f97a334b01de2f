"""Repeated in-process calls of kipa_lab.cli.main.

main() builds the argparse tree of each command once per process, the first
time it runs that command (the tree of every command for a call that names
none), and reuses it, so no flag of one call may reach the next.  A
one-command tree gives the exit status, stdout and stderr of the full tree,
help and usage errors included.  Each call shows its own warnings, as a
fresh process would.  Each bundle is encoded once: the files under --out
hold the very text printed on stdout.  The perfbench tracer wraps the
CLI from outside; its spans must see every handler call and must not stack
up over many calls.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from kipa_lab import cli

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Every command that prints its bundle, on a bundled config; gain --synthetic
# carries 2001 residual rows.  reproduce prints check lines, not its bundle.
BUNDLE_COMMANDS = [
    ["design", "--config", "sif.json"],
    ["tune", "--config", "device.json", "--synthetic"],
    ["gain", "--config", "gain.json"],
    ["gain", "--config", "gain.json", "--synthetic"],
    ["pump-search", "--config", "pump_search.json"],
    ["compression", "--config", "compression.json", "--synthetic"],
    ["noise-fit", "--config", "chain.json", "--synthetic"],
    ["hemt-fit", "--config", "chain.json", "--synthetic"],
    ["chain-propagate", "--config", "chain.json"],
    ["squeeze", "--config", "budget.json"],
    ["field-shift", "--config", "field.json", "--synthetic"],
    ["temp-shift", "--config", "temp.json"],
    ["device-temp", "--config", "temp.json"],
]


def _argv(argv):
    return [str(CONFIGS / a) if a.endswith(".json") else a for a in argv]


def _results(capsys, *argv):
    code = cli.main(_argv(list(argv)))
    assert code == 0
    return json.loads(capsys.readouterr().out)["results"]


def test_each_command_builds_its_parser_once(monkeypatch, capsys):
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parsers", {})
    monkeypatch.setattr(cli, "build_parser", lambda command=None: calls.append(command) or build(command))
    for argv in (["design", "--config", "sif.json"], ["squeeze", "--config", "budget.json"], ["design", "--config", "sif.json"],
                 ["tune", "--config", "device.json"], ["squeeze", "--config", "budget.json"]):
        _results(capsys, *argv)
    assert calls == ["design", "squeeze", "tune"]


def test_build_parser_returns_a_new_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser("gain") is not cli.build_parser("gain")


# argv lists that main() parses with a one-command tree (argv[0] is a command) or the full tree (it is not).
PARITY_ARGV = [
    [], ["-h"],
    ["bogus"], ["gai"], ["Design"],
    ["gain", "-h"], ["gain", "--bogus"], ["design", "-h", "--bogus"],
    ["--format", "xml"], ["gain", "--format", "xml"], ["design", "--seed", "-1"], ["tune", "--current", "nan"],
    ["gain", "--config"],
    ["design", "--conf", "sif.json"],
    ["reproduce", "all", "extra"],
    ["squeeze", "--config", "budget.json", "--s", "0.99", "--gx-db", "-2.95"],
]


def _outcome(argv):
    """(exit status, stdout, stderr) of one main() call, a usage error's SystemExit included."""
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main(_argv(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=[" ".join(a) or "no-args" for a in PARITY_ARGV])
def test_one_command_tree_prints_what_the_full_tree_prints(monkeypatch, argv):
    """A usage error of a one-command tree prints the usage line of every
    command, and argparse names no action by that line, as the full tree does."""
    monkeypatch.setenv("COLUMNS", "80")
    build = cli.build_parser
    monkeypatch.setattr(cli, "_parsers", {})
    one = _outcome(argv)
    assert cli._parsers.keys() == {argv[0] if argv and argv[0] in cli.COMMANDS else None}
    monkeypatch.setattr(cli, "_parsers", {})
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build())
    assert one == _outcome(argv)


@pytest.mark.parametrize("argv, error", [([], "the following arguments are required: command"),
                                         (["gai"], "argument command: invalid choice: 'gai' (choose from 'design', ")],
                         ids=["no-args", "gai"])
def test_full_tree_names_the_command_action(argv, error):
    """The full tree's subparsers action has no metavar, so its errors call it "command"."""
    code, out, err = _outcome(argv)
    assert (code, out) == (2, "") and err.splitlines()[-1].startswith("kipa-lab: error: " + error)


def test_tune_current_does_not_reach_the_next_call(tmp_path, capsys):
    doc = json.loads((CONFIGS / "device.json").read_text())
    doc["bias_current_a"] = 5e-5
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps(doc))
    assert _results(capsys, "tune", "--config", str(cfg), "--current", "1e-4")["bias_current_a"] == 1e-4
    assert _results(capsys, "tune", "--config", str(cfg))["bias_current_a"] == 5e-5


def test_squeeze_gx_does_not_reach_the_next_call(capsys):
    first = _results(capsys, "squeeze", "--config", "budget.json", "--gx-db", "-2.95")
    assert first["g_x_db"] == -2.95
    second = _results(capsys, "squeeze", "--config", "budget.json", "--s", "0.99")
    assert second["s"] == 0.99
    assert second["g_x_db"] != pytest.approx(-2.95, abs=1e-3)


TWO_CALLS = textwrap.dedent(
    """
    import contextlib, io, sys, warnings
    from kipa_lab import cli

    filters, outs = list(warnings.filters), []
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(sys.argv[1:]) == 0
        outs.append(out.getvalue())
        print("-- end of call", file=sys.stderr)
    assert warnings.filters == filters and outs[0] == outs[1]
    """
)


@pytest.mark.parametrize(
    "command, config, block, key, value, category",
    [
        ("field-shift", "field.json", "field_model", "theta_b_rad", 0.2, "PhysicsWarning"),
        ("design", "sif.json", "sif", "z_h_ohm", 450.0, "ConfigWarning"),
    ],
    ids=["field-shift-theta", "design-degenerate-mirror"],
)
def test_each_call_shows_its_warnings(tmp_path, command, config, block, key, value, category):
    """Two main() calls in one fresh process, under its default warning
    filters, each print the warning to stderr, leave the filters as they
    were, and print the same stdout.  The warning names a line of kipa_lab,
    not the dataclass-generated __init__ ("<string>")."""
    doc = json.loads((CONFIGS / config).read_text())
    doc[block][key] = value
    cfg = tmp_path / config
    cfg.write_text(json.dumps(doc))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", TWO_CALLS, command, "--config", str(cfg), "--synthetic"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = proc.stderr.split("-- end of call\n")
    assert len(calls) == 3 and calls[2] == ""
    assert [c.count(f"{category}: ") for c in calls[:2]] == [1, 1], proc.stderr
    assert not any(line.startswith("<string>") for line in proc.stderr.splitlines()), proc.stderr


def test_float_errors_end_the_run_under_a_caller_that_ignores_them(tmp_path, capsys):
    """main() turns numpy's float warnings into a domain error even when its
    caller ignores RuntimeWarning, and leaves the caller's filters as they
    were: a 3000 dB gain to the analyzer overflows the planted P_out."""
    doc = json.loads((CONFIGS / "chain.json").read_text())
    doc["chain"]["total_output_gain_db"] = 3000
    doc["synthetic"]["t_vts_k"] = [1e300, 1.0]
    cfg = tmp_path / "chain.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        filters = list(warnings.filters)
        code = cli.main(["noise-fit", "--config", str(cfg), "--synthetic"])
        assert warnings.filters == filters
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.splitlines() == ["domain error: synthetic: overflow encountered in multiply"]


@pytest.mark.parametrize("argv", BUNDLE_COMMANDS, ids=[" ".join(a[:1] + a[3:]) for a in BUNDLE_COMMANDS])
def test_written_files_match_stdout(tmp_path, capsys, argv):
    stdout = {}
    for fmt in ("json", "csv"):
        assert cli.main(_argv(argv) + ["--format", fmt, "--out", str(tmp_path / fmt)]) == 0
        stdout[fmt] = capsys.readouterr().out.encode("utf-8")
    assert (tmp_path / "json" / "result.json").read_bytes() == stdout["json"]
    assert not (tmp_path / "json" / "result.csv").exists()
    assert (tmp_path / "csv" / "result.csv").read_bytes() == stdout["csv"]
    assert (tmp_path / "csv" / "result.json").read_bytes() == stdout["json"]


TRACED = textwrap.dedent(
    """
    import contextlib, io, json, sys
    import tracer
    from kipa_lab import cli

    config, out = sys.argv[1], sys.argv[2]
    with contextlib.redirect_stdout(io.StringIO()):  # design's parser exists before tracing starts, gain's is built under it
        assert cli.main(["design", "--config", config + "/sif.json"]) == 0
    tr = tracer.Tracer()
    tracer.install(tr)
    for _ in range(2):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["gain", "--config", config + "/gain.json", "--synthetic", "--out", out]) == 0
    counts = dict(tr.snapshot()["counts"])
    with contextlib.redirect_stdout(io.StringIO()):
        codes = {cli.main(["design", "--config", config + "/sif.json"]) for _ in range(600)}
    print(json.dumps({"counts": counts, "design_codes": sorted(codes)}))
    """
)


def test_tracer_sees_each_handler_and_does_not_stack(tmp_path):
    """The tracer replaces cli's cmd_* and report's functions after one
    command's parser exists; main() must run the replaced handlers, encode
    each bundle once, and stay flat over many calls, as when build_parser
    returns a new parser for the tracer to wrap.  Run in a subprocess so the
    wrappers stay out of this one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, str(CONFIGS), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["counts"].get("cli.handler", 0) == 2
    assert doc["counts"]["report.bundle_json"] == 2
    assert doc["counts"]["report.write_bundle"] == 2
    assert doc["design_codes"] == [0]
