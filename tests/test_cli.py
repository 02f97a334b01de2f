import hashlib
import json
import logging
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kipa_lab import cli, env_models, io_dynamics, report
from kipa_lab.errors import DomainError, PhysicsWarning
from kipa_lab.fitkit import SweepRecord
from kipa_lab.reproduce import FIXTURES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = CONFIGS.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_design_reference_config(capsys):
    code, doc = run_json(capsys, "design", "--config", str(CONFIGS / "sif.json"))
    assert code == 0
    res = doc["results"]
    assert abs(res["q_c"] - 290.0) <= 1.0
    assert abs(res["kappa_hz"] - 19.8e6) <= 0.2e6
    assert res["z_eff_ohm"] == pytest.approx(3.955, abs=1e-3)
    assert doc["provenance"]["config_sha256"]


def test_design_degenerate_impedances_warns_but_succeeds(tmp_path, capsys):
    cfg = tmp_path / "deg.json"
    cfg.write_text(
        json.dumps(
            {"sif": {"z_l_ohm": 450.0, "z_h_ohm": 450.0, "n_l": 1, "n_h": 0, "z_0_ohm": 50.0, "z_r_ohm": 900.0, "f_0_hz": 5.75e9}}
        )
    )
    with pytest.warns(Warning):
        code, doc = run_json(capsys, "design", "--config", str(cfg))
    assert code == 0
    assert doc["results"]["z_eff_ohm"] == pytest.approx(450.0**2 / 50.0, rel=1e-12)


def test_config_hash_stable_under_key_reordering():
    from kipa_lab.report import config_hash

    a = {"alpha": 1, "nested": {"x": [1, 2], "y": "s"}}
    b = {"nested": {"y": "s", "x": [1, 2]}, "alpha": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"alpha": 2, "nested": a["nested"]})


def test_design_missing_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sif": {"z_l_ohm": 450.0}}))
    code, _ = run(capsys, "design", "--config", str(bad))
    assert code == 2


def test_missing_config_exits_2(capsys):
    code, _ = run(capsys, "design")
    assert code == 2
    code, _ = run(capsys, "design", "--config", "/nonexistent/x.json")
    assert code == 2


def _gain_text_with(literal):
    return (CONFIGS / "gain.json").read_text().replace('"f_pump_hz": 1.1347e10', f'"f_pump_hz": {literal}')


def _edited(config, value, *path):
    """The text of a bundled config with the key at ``path`` set to ``value``."""
    doc = json.loads((CONFIGS / config).read_text())
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "argv, text, named",
    [
        (["design"], "[1, 2]", "bad.json"),
        (["gain"], _gain_text_with("NaN"), "bad.json"),
        (["gain"], _gain_text_with("Infinity"), "bad.json"),
        (["gain"], _gain_text_with("-Infinity"), "bad.json"),
        (
            ["field-shift", "--synthetic"],
            (CONFIGS / "field.json").read_text().replace("{", '{"bc_criterion": "nope",', 1),
            "pair-breaking-gap",
        ),
        (["gain"], _edited("gain.json", "1.98e7", "cavity", "kappa_hz"), "cavity.kappa_hz"),
        (["field-shift", "--synthetic"], _edited("field.json", ["pair-breaking-gap"], "bc_criterion"), "bc_criterion"),
        (["gain"], _edited("gain.json", 0, "grid", "n_points"), "grid.n_points"),
        (["gain"], _edited("gain.json", 10**6 + 1, "grid", "n_points"), "grid.n_points"),
        (["gain"], _edited("gain.json", [1, 2], "grid"), "grid"),
        (["gain"], json.dumps(json.loads((CONFIGS / "gain.json").read_text())["cavity"]), "cavity"),
        (["pump-search"], _edited("pump_search.json", "41", "search", "n_f_coarse"), "search.n_f_coarse"),
        (["noise-fit", "--synthetic"], _edited("chain.json", "false", "free_slope"), "free_slope"),
        (["design"], _edited("sif.json", 2.7, "sif", "n_l"), "sif.n_l"),
        (["squeeze"], _edited("budget.json", "3", "g_x_db"), "g_x_db"),
        (["device-temp"], _edited("temp.json", "0.02", "t_min_k"), "t_min_k"),
        (["chain-propagate"], _edited("chain.json", True, "chain", "elements", 0, "value_db"), "chain.elements[0].value_db"),
        (["gain"], (CONFIGS / "gain.json").read_text().replace('"span_hz": 4.0e8', '"span_hz": 1e400'), "1e400"),
        (["gain"], (CONFIGS / "gain.json").read_text().replace('"gamma_hz": 1.0e6', '"gamma_hz": 1' + "0" * 400), "finite double"),
        (["design"], b"\xff\xfe{}", "cannot read config"),
    ],
    ids=[
        "top-level-array",
        "nan-literal",
        "infinity-literal",
        "minus-infinity-literal",
        "unknown-bc-criterion",
        "string-number",
        "array-bc-criterion",
        "zero-grid-points",
        "too-many-grid-points",
        "array-block",
        "flat-layout",
        "string-count",
        "string-boolean",
        "fractional-count",
        "string-gx",
        "string-t-min",
        "boolean-number",
        "overflowing-float-literal",
        "overflowing-int-literal",
        "not-utf8",
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, argv, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_bytes(text if isinstance(text, bytes) else text.encode())
    code = cli.main([*argv, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:") and named in lines[0]


def test_tune_zero_current(capsys):
    code, doc = run_json(capsys, "tune", "--config", str(CONFIGS / "device.json"), "--current", "0")
    assert code == 0
    assert doc["results"]["f_hz"] == pytest.approx(5.75e9, rel=1e-12)


@pytest.mark.parametrize("l_k0, l_t", [(-1e-9, 0.0), (0.0, 0.0), (0.0, 8.24e-8), (9e-8, 8.24e-8)],
                         ids=["negative", "both-zero", "zero-kinetic", "kinetic-above-total"])
def test_tune_inductances_out_of_order_exit_2(tmp_path, capsys, l_k0, l_t):
    doc = json.loads((CONFIGS / "device.json").read_text())
    doc["device"]["resonator"].update(l_k0_h=l_k0, l_t_h=l_t)
    cfg = tmp_path / "device.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["tune", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: bad device.resonator: require 0 < l_k0 <= l_t") and err.count("\n") == 1


def test_tune_synthetic_recovers_critical_current(capsys):
    code, doc = run_json(
        capsys, "tune", "--config", str(CONFIGS / "device.json"), "--synthetic", "--seed", "3"
    )
    assert code == 0
    fit = doc["results"]["fit"]
    assert abs(fit["i_star_a"] - 3.45e-4) / 3.45e-4 < 0.005


def test_gain_synthetic_recovery_and_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code, doc = run_json(
        capsys,
        "gain",
        "--config",
        str(CONFIGS / "gain.json"),
        "--synthetic",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert code == 0
    assert doc["results"]["kappa_recovered_within_3_sigma"]
    assert doc["results"]["fit"]["converged"]
    assert (out / "result.json").exists()
    assert (out / "curve.csv").exists()
    assert (out / "residuals.csv").exists()
    header = (out / "curve.csv").read_text().splitlines()[0]
    assert header == "f_hz,re_g,im_g,gain_db"


def test_gain_determinism_byte_identical(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        code, _ = run(
            capsys, "gain", "--config", str(CONFIGS / "gain.json"), "--synthetic", "--seed", "42",
            "--out", str(out),
        )
        assert code == 0
    assert (a / "result.json").read_bytes() == (b / "result.json").read_bytes()


def test_noise_fit_synthetic_reference_plant(capsys):
    code, doc = run_json(capsys, "noise-fit", "--config", str(CONFIGS / "chain.json"), "--synthetic")
    assert code == 0
    assert abs(doc["results"]["t_kipa_k"] - 0.286) < 1e-9
    assert doc["results"]["slope"] == 1.0


def test_hemt_fit_synthetic(capsys):
    code, doc = run_json(capsys, "hemt-fit", "--config", str(CONFIGS / "chain.json"), "--synthetic")
    assert code == 0
    assert abs(doc["results"]["t_hemt_k"] - 1.95) < 1e-9


def test_chain_propagate(capsys):
    code, doc = run_json(capsys, "chain-propagate", "--config", str(CONFIGS / "chain.json"))
    assert code == 0
    res = doc["results"]
    assert res["n_out_photons"] < res["n_in_photons"]
    assert len(doc["residuals"]) == 4
    assert doc["residuals"][0]["label"] == "circulator"


def test_squeeze_both_directions(capsys):
    code, doc = run_json(capsys, "squeeze", "--config", str(CONFIGS / "budget.json"), "--gx-db", "-2.95")
    assert code == 0
    s = doc["results"]["s"]
    assert s == pytest.approx(0.98960690292852702, rel=1e-9)
    code, doc = run_json(capsys, "squeeze", "--config", str(CONFIGS / "budget.json"), "--s", str(s))
    assert code == 0
    assert doc["results"]["g_x_db"] == pytest.approx(-2.95, abs=1e-6)
    assert doc["results"]["s_min"] == pytest.approx(0.9895, abs=1e-4)


def test_squeeze_needs_an_input(tmp_path, capsys):
    cfg = tmp_path / "b.json"
    cfg.write_text(json.dumps({"budget": {"eta_db": -4.5, "n_hemt_photons": 3.25}}))
    code, _ = run(capsys, "squeeze", "--config", str(cfg))
    assert code == 2


def test_squeeze_flag_replaces_both_config_keys(tmp_path, capsys):
    cfg = tmp_path / "b.json"
    cfg.write_text(_edited("budget.json", -2.95, "g_x_db"))  # the config now holds both keys
    code, doc = run_json(capsys, "squeeze", "--config", str(cfg), "--s", "0.99")
    assert code == 0
    assert doc["results"]["s"] == 0.99
    assert doc["results"]["g_x_db"] != pytest.approx(-2.95, abs=1e-3)
    code, doc = run_json(capsys, "squeeze", "--config", str(cfg))
    assert code == 0
    assert doc["results"]["g_x_db"] == -2.95  # with no flag, the config's g_x_db wins over its s_measured


def test_squeeze_both_flags_exit_2(capsys):
    code = cli.main(["squeeze", "--config", str(CONFIGS / "budget.json"), "--gx-db", "-2.95", "--s", "0.99"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0] == "configuration error: squeeze takes --gx-db or --s, not both"


@pytest.mark.parametrize("where", ["config", "flag"])
@pytest.mark.parametrize("g_x_db", [1e300, -1e300])
def test_squeeze_out_of_range_gx_names_the_key(tmp_path, capsys, where, g_x_db):
    cfg = tmp_path / "b.json"
    if where == "config":
        cfg.write_text(_edited("budget.json", g_x_db, "g_x_db"))
        argv = ["squeeze", "--config", str(cfg)]
    else:
        argv = ["squeeze", "--config", str(CONFIGS / "budget.json"), f"--gx-db={g_x_db!r}"]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:") and "g_x_db" in lines[0]


def test_field_shift_synthetic_theta(capsys):
    code, doc = run_json(capsys, "field-shift", "--config", str(CONFIGS / "field.json"), "--synthetic")
    assert code == 0
    assert doc["results"]["theta_b_deg"] == pytest.approx(0.92, abs=0.01)


def test_temp_shift_rows(capsys):
    code, doc = run_json(capsys, "temp-shift", "--config", str(CONFIGS / "temp.json"))
    assert code == 0
    rows = doc["residuals"]
    assert len(rows) == doc["results"]["n_points"]
    assert rows[-1]["rel_shift"] < 0


def test_device_temp_round_trip(tmp_path, capsys):
    model = env_models.TempModel(f_delta_tls=1e-6, alpha=0.9, t_c=5.6)
    shift = env_models.temp_frequency_shift(0.85, 5.6735e9, model)
    cfg = tmp_path / "dt.json"
    cfg.write_text(
        json.dumps(
            {
                "temp_model": {"f_delta_tls": 1e-6, "alpha": 0.9, "critical_temperature_k": 5.6},
                "f_r_hz": 5.6735e9,
                "delta_omega_rel": shift,
                "t_min_k": 0.1,
            }
        )
    )
    code, doc = run_json(capsys, "device-temp", "--config", str(cfg))
    assert code == 0
    assert doc["results"]["t_dev_k"] == pytest.approx(0.85, abs=2e-5)


def test_device_temp_out_of_range_exits_4(tmp_path, capsys):
    cfg = tmp_path / "dt.json"
    cfg.write_text(
        json.dumps(
            {
                "temp_model": {"f_delta_tls": 1e-6, "alpha": 0.9, "critical_temperature_k": 5.6},
                "delta_omega_rel": 10.0,
            }
        )
    )
    code, _ = run(capsys, "device-temp", "--config", str(cfg))
    assert code == 4


@pytest.mark.parametrize(
    "value, path, line",
    [
        (-1.0, ("t_min_k",), "t_min_k: need 0 < t_min < t_max (default t_max 0.4 T_c = 2.24 K), got -1 K and 2.24 K"),
        (0.01, ("t_max_k",), "t_max_k: need 0 < t_min < t_max (default t_max 0.4 T_c = 2.24 K), got 0.02 K and 0.01 K"),
        (0.04, ("temp_model", "critical_temperature_k"),
         "temp_model.critical_temperature_k: need 0 < t_min < t_max (default t_max 0.4 T_c = 0.016 K), got 0.02 K and 0.016 K"),
        (1e100, ("t_max_k",),
         "t_min_k = 0.02 K, t_max_k = 1e+100 K and temp_model.critical_temperature_k = 5.6 K put the temperature shift out of float range"),
    ],
    ids=["t-min-not-positive", "t-max-below-t-min", "default-t-max-below-t-min", "t-max-overflows"],
)
def test_device_temp_bounds_name_the_key(tmp_path, capsys, value, path, line):
    # The library checks the bounds; the line names the config key of the bound at fault, which is
    # critical_temperature_k for a defaulted t_max.  At 1e100 K, (k_B T / gap)^4 overflows.
    cfg = tmp_path / "temp.json"
    cfg.write_text(_edited("temp.json", value, *path))
    code = cli.main(["device-temp", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.splitlines() == ["domain error: " + line]


def test_compression_synthetic(capsys):
    code, doc = run_json(capsys, "compression", "--config", str(CONFIGS / "compression.json"), "--synthetic")
    assert code == 0
    res = doc["results"]
    assert abs(res["p_in_1db_dbm"] - res["truth"]["p_in_1db_dbm"]) < 0.3


def test_compression_flat_sweep_exits_3(tmp_path, capsys):
    sweep = SweepRecord(np.linspace(-110, -80, 31), np.full(31, 21.0))
    sweep_path = tmp_path / "flat.csv"
    sweep.to_csv(sweep_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"small_signal_gain_db": 21.0, "sweep_file": "flat.csv"}))
    code, _ = run(capsys, "compression", "--config", str(cfg))
    assert code == 3


@pytest.mark.parametrize(
    "text, line",
    [
        ("x,y\n1,2\n3\n", 3),
        ("x,y\n1,abc\n", 2),
        ("x,y,sigma_y\n1,2,0.1\n2,3,\n3,4,0.1\n", 3),
        ("x,y\n-110,21\n-100,nan\n-90,19\n", 3),
        ("x,y,sigma_y\n-110,21,0.1\n-100,20.5,0.1\n-90,-inf,0.1\n", 4),
        ("x,y,sigma_y\n-110,21,0.1\n-100,20.5,0\n-90,19,0.1\n", 3),
        ("x,y,sigma_y\n-110,21,0.1\n-100,20.5,0.1\n-90,19,1e-200\n", 4),
        ("x,re_y,im_y,sigma_y\n-110,21,0.5,0.1\n-100,20.5,0.5,0.1\n", 2),
    ],
    ids=["short-row", "non-numeric-cell", "sigma-blank-on-some-rows", "nan-cell", "inf-cell", "zero-sigma",
         "sigma-without-finite-weight", "four-cells"],
)
def test_malformed_sweep_csv_exits_2(tmp_path, capsys, text, line):
    (tmp_path / "bad.csv").write_text(text)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"small_signal_gain_db": 21.0, "sweep_file": "bad.csv"}))
    code = cli.main(["compression", "--config", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert str(tmp_path / "bad.csv") in err[0] and f"line {line}" in err[0]


@pytest.mark.parametrize("data", [b"\xff\xfe1,2\n", b"x,y\n1," + b"1" * 200000 + b"\n"], ids=["not-utf8", "cell-beyond-field-limit"])
def test_unreadable_sweep_exits_2_in_one_line(tmp_path, capsys, data):
    (tmp_path / "bad.csv").write_bytes(data)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"small_signal_gain_db": 21.0, "sweep_file": "bad.csv"}))
    code = cli.main(["compression", "--config", str(cfg)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith(f"configuration error: cannot read sweep {tmp_path / 'bad.csv'}: ")


def test_sweep_sigma_beyond_the_weight_range_exits_4_in_one_line(tmp_path, capsys):
    # 1/sigma_y^2 is 0 above sigma_y ~ 1.3e154: the fit's one-line error, and no numpy overflow warning before it.
    (tmp_path / "huge.csv").write_text("".join(f"{t},{1e-15 * (1.0 + t)},1e200\n" for t in (0.1, 0.3, 0.9, 2.0)))
    cfg = tmp_path / "chain.json"
    cfg.write_text(_edited("chain.json", "huge.csv", "sweep_file"))
    code = cli.main(["noise-fit", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.startswith("domain error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("text", ["", "x,y,sigma_y\n", "# no data\n"], ids=["empty", "header-only", "comment-only"])
def test_empty_sweep_csv_exits_2(tmp_path, capsys, text):
    (tmp_path / "empty.csv").write_text(text)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"small_signal_gain_db": 21.0, "sweep_file": "empty.csv"}))
    code = cli.main(["compression", "--config", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert str(tmp_path / "empty.csv") in err[0]


def _gain_config(tmp_path, **cavity):
    doc = json.loads((CONFIGS / "gain.json").read_text())
    doc["cavity"].update(cavity)
    cfg = tmp_path / "g.json"
    cfg.write_text(json.dumps(doc))
    return cfg


def test_gain_without_steady_state_reports_no_peak(tmp_path, capsys):
    code, doc = run_json(capsys, "gain", "--config", str(_gain_config(tmp_path, xi_frac_of_kbar=1.05)), "--out", str(tmp_path / "out"))
    res = doc["results"]
    assert code == 0
    assert res["stable"] is False
    assert res["peak_gain_db"] is None and res["peak_f_hz"] is None and res["gbp_hz"] is None
    assert "no steady state" in res["status"]
    assert not (tmp_path / "out" / "curve.csv").exists()


def test_gain_detuned_above_kappa_bar_is_stable(tmp_path, capsys):
    # |xi| = 1.08 kappa_bar at Delta = 0.5 kappa: below sqrt(kappa_bar^2 + Delta^2).
    cfg = _gain_config(tmp_path, xi_frac_of_kbar=1.08, delta_hz=0.5 * 1.98e7)
    code, doc = run_json(capsys, "gain", "--config", str(cfg))
    res = doc["results"]
    assert code == 0
    assert res["stable"] is True and "status" not in res
    kappa, gamma = 1.98e7, 1.0e6
    peak = io_dynamics.peak_gain_db(kappa, gamma, 0.5 * kappa, 1.08 * (kappa + gamma / 2.0))
    assert peak - 0.01 <= res["peak_gain_db"] <= peak + 1e-9
    assert res["gbp_hz"] > 0.0


def test_gain_overflowing_pump_is_unstable_without_warning(tmp_path, capsys):
    # |xi|^2 overflows a double; the gate compares |xi| with hypot(kappa_bar, Delta).
    code, doc = run_json(capsys, "gain", "--config", str(_gain_config(tmp_path, xi_frac_of_kbar=1e200)))
    assert code == 0
    assert doc["results"]["stable"] is False and doc["results"]["peak_gain_db"] is None


def test_gain_curve_not_finite_exits_4(tmp_path, capsys):
    cfg = tmp_path / "g.json"
    cfg.write_text(_edited("gain.json", {"span_hz": 1e300, "n_points": 11}, "grid"))
    code = cli.main(["gain", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error: the gain curve is not finite")


def _csv_column(path, name) -> list:
    lines = path.read_text().splitlines()
    i = lines[0].split(",").index(name)
    return [line.split(",")[i] for line in lines[1:]]


def test_gain_synthetic_plants_on_the_grid_of_the_curve(tmp_path, capsys):
    # A grid centred 5 MHz off f_pump/2: the planted sweep lies on the curve's frequencies.
    grid = {"center_hz": 5.6785e9, "span_hz": 4.0e8, "n_points": 2001}
    cfg = tmp_path / "g.json"
    cfg.write_text(_edited("gain.json", grid, "grid"))
    out = tmp_path / "out"
    code, _ = run(capsys, "gain", "--config", str(cfg), "--synthetic", "--out", str(out))
    assert code == 0
    f_hz = _csv_column(out / "residuals.csv", "f_hz")
    assert f_hz == _csv_column(out / "curve.csv", "f_hz")
    want = np.linspace(grid["center_hz"] - grid["span_hz"] / 2.0, grid["center_hz"] + grid["span_hz"] / 2.0, grid["n_points"])
    assert np.array_equal(np.array(f_hz, dtype=float), want)


def test_gain_synthetic_without_steady_state_exits_4_in_one_line(tmp_path, capsys):
    cfg = _gain_config(tmp_path, xi_frac_of_kbar=1.2)
    code = cli.main(["gain", "--config", str(cfg), "--synthetic"])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:") and "no steady state" in lines[0]
    assert "allow_unstable" not in err


def test_bundle_json_rejects_non_finite():
    with pytest.raises(DomainError, match="non-finite"):
        report.bundle_json({"results": {"peak_gain_db": float("nan")}})


def test_pump_search_oversized_grid_exits_4(tmp_path, capsys):
    cfg = tmp_path / "p.json"
    cfg.write_text(_edited("pump_search.json", 1e-6, "search", "p_step_db"))
    code = cli.main(["pump-search", "--config", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("domain error: a search level would hold 8.2e+08 pump points")


@pytest.mark.parametrize("p_hi", [3000.0, 6000.0])
def test_pump_search_overflowing_powers_are_silent(tmp_path, capsys, p_hi):
    # |xi|^2 overflows a double past about 3000 dBm and |xi| past about
    # 6000 dBm; such a pump self-oscillates, and every ramp of the bundled
    # search reaches the target long before.
    bundled = ["pump-search", "--config", str(CONFIGS / "pump_search.json")]
    assert cli.main(bundled) == 0
    want = json.loads(capsys.readouterr().out)["results"]
    cfg = tmp_path / "p.json"
    cfg.write_text(_edited("pump_search.json", [-60.0, p_hi], "search", "p_bounds_dbm"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["pump-search", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == "" and caught == []
    assert json.dumps(json.loads(out)["results"]) == json.dumps(want)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("kappa_hz", -1.0, "kappa must be positive"),
        ("xi_hz_per_sqrt_mw", 0.0, "coupling must be positive"),
        ("xi_hz_per_sqrt_mw", -2.2e9, "coupling must be positive"),
    ],
    ids=["kappa", "zero-coupling", "negative-coupling"],
)
def test_pump_search_bad_map_exits_2_naming_the_block(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "p.json"
    cfg.write_text(_edited("pump_search.json", value, "map", key))
    code = cli.main(["pump-search", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.strip().splitlines() == [f"configuration error: bad map: {message}"]


@pytest.mark.parametrize(
    "settings, line",
    [
        ({"n_f_coarse": 1}, "search.n_f_coarse = 1: need n_f_coarse >= 2"),
        ({"p_step_db": 0}, "search.p_step_db = 0: need p_step_db > 0"),
        ({"p_step_db": -0.25}, "search.p_step_db = -0.25: need p_step_db > 0"),
        ({"refine_to_hz": 0}, "search.refine_to_hz = 0: need refine_to_hz > 0"),
        ({"f_bounds_hz": [1.1367e10, 1.1327e10]}, "search.f_bounds_hz = [1.1367e+10, 1.1327e+10]: need f_hi > f_lo"),
        ({"p_bounds_dbm": [-40.0, -60.0]}, "search.p_bounds_dbm = [-40, -60]: need p_hi >= p_lo"),
        # Two keys at fault: the line names the first of the library's order.
        ({"p_bounds_dbm": [-40.0, -60.0], "refine_to_hz": 0}, "search.p_bounds_dbm = [-40, -60]: need p_hi >= p_lo"),
    ],
    ids=["one-frequency", "zero-power-step", "negative-power-step", "zero-resolution", "reversed-frequencies",
         "reversed-powers", "two-keys"],
)
def test_pump_search_degenerate_grid_exits_4(tmp_path, capsys, settings, line):
    # One line that names the config key at fault and its value, as device-temp does.
    doc = json.loads((CONFIGS / "pump_search.json").read_text())
    doc["search"].update(settings)
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["pump-search", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4 and out == ""
    assert err.splitlines() == ["domain error: " + line]


def test_pump_search_failure_prints_strict_json(tmp_path, capsys):
    doc = json.loads((CONFIGS / "pump_search.json").read_text())
    doc["search"]["p_bounds_dbm"] = [-30, -20]
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(doc))
    code, out = run(capsys, "pump-search", "--config", str(cfg))

    def reject(name):
        raise ValueError(f"non-strict JSON constant {name}")

    res = json.loads(out, parse_constant=reject)["results"]
    assert code == 0
    assert res["success"] is False
    assert res["gain_db"] is None
    assert res["self_oscillation"]


def test_pump_search(capsys):
    code, doc = run_json(capsys, "pump-search", "--config", str(CONFIGS / "pump_search.json"))
    assert code == 0
    res = doc["results"]
    assert res["success"]
    assert abs(res["f_pump_hz"] - 1.1347e10) <= 1e4
    assert res["gain_db"] >= 20.0


def test_reproduce_single_and_all(capsys):
    code, out = run(capsys, "reproduce", "qc290")
    assert code == 0
    assert out.startswith("PASS qc290")
    code, out = run(capsys, "reproduce", "smin")
    assert code == 0
    assert "PASS smin" in out
    code, out = run(capsys, "reproduce", "all")
    assert code == 0
    assert out.count("PASS") >= 15
    assert "FAIL" not in out


@pytest.mark.parametrize("fixture", list(FIXTURES))
def test_reproduce_each_fixture_alone(capsys, fixture):
    code, out = run(capsys, "reproduce", fixture)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"PASS {fixture}: "), out


def test_reproduce_unknown_fixture_exits_2(capsys):
    code, _ = run(capsys, "reproduce", "nonexistent")
    assert code == 2


def test_csv_format_output(capsys):
    code, out = run(capsys, "design", "--config", str(CONFIGS / "sif.json"), "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",")[0] for line in lines[1:]}
    assert {"q_c", "kappa_hz", "z_eff_ohm"} <= keys


def test_log_env_variable(monkeypatch, capsys):
    monkeypatch.setenv("KIPA_LAB_LOG", "DEBUG")
    code, _ = run(capsys, "design", "--config", str(CONFIGS / "sif.json"))
    assert code == 0


def _fresh(argv, **env) -> subprocess.CompletedProcess:
    """`python -m kipa_lab.cli argv` in a new process, with KIPA_LAB_LOG only as given in env."""
    base = {k: v for k, v in os.environ.items() if k != "KIPA_LAB_LOG"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "kipa_lab.cli", *argv], env={**base, **env}, capture_output=True,
                          text=True, timeout=60)


@pytest.mark.parametrize("level", [None, "info", "DEBUG", "basic_format", "VERBOSE"])
def test_log_level_prints_one_line_per_file_written(tmp_path, level):
    # A name that is no logging level means WARNING; basic_format used to crash basicConfig.
    out = tmp_path / "out"
    proc = _fresh(["gain", "--config", str(CONFIGS / "gain.json"), "--out", str(out)], **({"KIPA_LAB_LOG": level} if level else {}))
    assert proc.returncode == 0, proc.stderr
    wrote = [f"INFO kipa_lab: wrote {p}" for p in sorted(out.iterdir())] if level in ("info", "DEBUG") else []
    assert sorted(proc.stderr.splitlines()) == wrote


PUMP_SEARCH_FAILED = "pump search failed: target gain not reached inside the search rectangle"


def _unreachable_target(tmp_path) -> Path:
    cfg = tmp_path / "pump_search.json"
    cfg.write_text(_edited("pump_search.json", 60.0, "search", "target_db"))  # 50 dB is still reached
    return cfg


def test_failed_pump_search_warns_in_a_fresh_process(tmp_path):
    proc = _fresh(["pump-search", "--config", str(_unreachable_target(tmp_path))])
    assert proc.returncode == 0
    assert proc.stderr == f"WARNING kipa_lab: {PUMP_SEARCH_FAILED}\n"


# Searches at the edges of the search block, with the SHA-256 of the stdout and the stderr they
# gave before the search stepped each ramp's band alone: targets that no point or every point
# reaches, powers where every point self-oscillates, one power, and a resolution that no
# refinement reaches (the search stops after 8, at 0.01 Hz).
EXTREME_SEARCHES = {
    "target-1e308": ("target_db", 1e308, "e1b6b1f42df69b1bc2cda504ae9d0b9cda8a58528c9185e39bacabf81620fd08", True),
    "target--1e308": ("target_db", -1e308, "8e6a6cadfa041bb6b0b1d36fcccba371852d4fd57cc51640b748ae0b59e8094e", False),
    "target-0": ("target_db", 0.0, "c94c1a45059c6a5d5414900d7dfff69963fcac361762ce954eb426b103327e7e", False),
    "powers-300-400": ("p_bounds_dbm", [300.0, 400.0], "9aa330d8e5ca564621ab4d5d9819ca0c55cb37c62eaedbaf49e85de45de6677f", True),
    "powers-60-60": ("p_bounds_dbm", [-60.0, -60.0], "54dbeb4d7f88bac716500d51dab2e741dfad87318522b218949dbe87fdf12f64", True),
    "resolution-1e-300": ("refine_to_hz", 1e-300, "7c2a12274c45baaa3f8f804ffa3f6bcfee0fac25c0e94407a6ada903167b2d82", False),
}


@pytest.mark.parametrize("case", sorted(EXTREME_SEARCHES))
def test_extreme_pump_search_keeps_its_bytes_in_a_fresh_process(tmp_path, case):
    key, value, digest, fails = EXTREME_SEARCHES[case]
    cfg = tmp_path / "pump_search.json"
    cfg.write_text(_edited("pump_search.json", value, "search", key))
    proc = _fresh(["pump-search", "--config", str(cfg)], PYTHONWARNINGS="error::RuntimeWarning")
    assert proc.returncode == 0
    assert proc.stderr == (f"WARNING kipa_lab: {PUMP_SEARCH_FAILED}\n" if fails else "")
    golden = json.loads((Path(__file__).resolve().parent / "golden" / "cli_seed0.json").read_text())
    if golden["numpy"] != np.__version__:
        pytest.skip(f"digests were taken with numpy {golden['numpy']}, this is numpy {np.__version__}")
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


def test_embedding_program_handler_receives_both_records(tmp_path, capsys):
    records = []
    handler = logging.Handler()
    handler.emit = records.append
    logger = logging.getLogger("kipa_lab")
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        code = cli.main(["pump-search", "--config", str(_unreachable_target(tmp_path)), "--out", str(tmp_path / "out")])
    finally:
        logger.removeHandler(handler)
        logger.setLevel(logging.NOTSET)
    assert code == 0 and json.loads(capsys.readouterr().out)["results"]["success"] is False
    assert [(r.levelname, r.getMessage()) for r in records] == [
        ("INFO", f"wrote {tmp_path / 'out' / 'result.json'}"), ("WARNING", PUMP_SEARCH_FAILED)]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["squeeze", "--config", str(CONFIGS / "budget.json"), "--gx-db=nan"], "--gx-db"),
        (["squeeze", "--config", str(CONFIGS / "budget.json"), "--gx-db=inf"], "--gx-db"),
        (["squeeze", "--config", str(CONFIGS / "budget.json"), "--s=nan"], "--s"),
        (["squeeze", "--config", str(CONFIGS / "budget.json"), "--s=-inf"], "--s"),
        (["tune", "--config", str(CONFIGS / "device.json"), "--current=nan"], "--current"),
        (["tune", "--config", str(CONFIGS / "device.json"), "--current=inf"], "--current"),
    ],
    ids=["gx-db-nan", "gx-db-inf", "s-nan", "s-minus-inf", "current-nan", "current-inf"],
)
def test_non_finite_float_flag_exits_2(capsys, argv, flag):
    # A non-finite flag is a usage error naming the flag, like a NaN config literal (exit 2).
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and f"argument {flag}: invalid finite value" in errors[0], err


@pytest.mark.parametrize(
    "config, value, path, argv",
    [
        ("sif.json", 1e300, ("sif", "z_l_ohm"), ["design"]),
        ("sif.json", 1e300, ("sif", "z_h_ohm"), ["design"]),
        ("chain.json", 1e-300, ("f_hz",), ["chain-propagate"]),
        ("temp.json", 1e-300, ("temp_model", "critical_temperature_k"), ["temp-shift"]),
        ("sif.json", 1e-300, ("sif", "z_0_ohm"), ["design"]),
        ("temp.json", 1e-300, ("temp_model", "critical_temperature_k"), ["device-temp"]),
        ("temp.json", [0.1, 1e100], ("temperatures_k",), ["temp-shift"]),
    ],
    ids=["design-z_l", "design-z_h", "chain-propagate-f_hz", "temp-shift-critical-temperature", "design-z_0",
         "device-temp-critical-temperature", "temp-shift-hot-row"],
)
def test_extreme_config_value_names_the_key(tmp_path, capsys, config, value, path, argv):
    cfg = tmp_path / config
    cfg.write_text(_edited(config, value, *path))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        code = cli.main([*argv, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:") and path[-1] in lines[0], err


SYNTHETIC = [("tune", "device.json"), ("gain", "gain.json"), ("compression", "compression.json"),
             ("noise-fit", "chain.json"), ("hemt-fit", "chain.json"), ("field-shift", "field.json")]


@pytest.mark.parametrize("command, config", SYNTHETIC, ids=[c for c, _ in SYNTHETIC])
def test_negative_seed_exits_2(capsys, command, config):
    # A seed is a usage error below 0, before any handler runs (numpy's default_rng rejects it).
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(CONFIGS / config), "--synthetic", "--seed", "-1"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error" in line]
    assert len(errors) == 1 and "argument --seed: invalid natural value: '-1'" in errors[0], err


@pytest.mark.parametrize("argv", [["design", "--config", str(CONFIGS / "sif.json")], ["reproduce", "qc290"]], ids=["design", "reproduce"])
def test_out_path_that_is_a_file_exits_2(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    code = cli.main([*argv, "--out", str(taken)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"configuration error: cannot write --out {taken}: "), err
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "config, value, path, argv",
    [
        ("gain.json", -4e8, ("grid", "span_hz"), ["gain"]),
        ("gain.json", -4e8, ("grid", "span_hz"), ["gain", "--synthetic"]),
        ("gain.json", 0.0, ("grid", "span_hz"), ["gain"]),
        ("compression.json", 0.0, ("synthetic", "softness_db"), ["compression", "--synthetic"]),
        ("compression.json", -1.5, ("synthetic", "softness_db"), ["compression", "--synthetic"]),
    ],
    ids=["gain-negative-span", "gain-synthetic-negative-span", "gain-zero-span", "compression-zero-softness",
         "compression-negative-softness"],
)
def test_non_positive_width_exits_4_naming_the_key(tmp_path, capsys, config, value, path, argv):
    # Rejected before any number is computed: no numpy warning, no result from a reversed grid or curve.
    cfg = tmp_path / config
    cfg.write_text(_edited(config, value, *path))
    code = cli.main([*argv, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("domain error:") and path[-1] in lines[0], err


@pytest.mark.parametrize("n_points, message", [(1, "all bias currents are zero"), (2, "not finite and positive")],
                         ids=["one-point", "two-points"])
def test_tune_synthetic_underdetermined_exits_3(tmp_path, capsys, n_points, message):
    # Two fitted parameters (I*, n): one point, or two of which one is at zero bias, cannot fix both.
    cfg = tmp_path / "device.json"
    cfg.write_text(_edited("device.json", {"n_points": n_points}, "synthetic"))
    code = cli.main(["tune", "--config", str(cfg), "--synthetic"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("fit error:") and message in lines[0], err


@pytest.mark.parametrize(
    "exponent, current",
    [(0.1, 0.00034499999999999993), (0.1, -0.00034499999999999993), (0.5, 0.00034499999999999993),
     (0.5, -0.00034499999999999993), (0.005, 0.9 * 3.45e-4)],
    ids=["n0.1", "n0.1-negative", "n0.5", "n0.5-negative", "n0.005-overflow"],
)
def test_tune_current_near_critical_exits_4_naming_i_star(tmp_path, capsys, exponent, current):
    # |I| one ulp below I* = 3.45e-4 A: 1 - (|I|/I*)^n rounds to 0 for n <= 0.5; at n = 0.005 its power overflows.
    cfg = tmp_path / "device.json"
    cfg.write_text(_edited("device.json", exponent, "device", "resonator", "clem_exponent"))
    with pytest.warns(PhysicsWarning, match="switching current"):
        code = cli.main(["tune", "--config", str(cfg), "--current", repr(current)])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.splitlines() == ["domain error: kinetic inductance diverges at the critical current I* = 3.4500e-04 A"], err


NEGATIVE_VTS_SWEEP = "-1.0,1e-15\n0.3,2e-15\n0.9,3e-15\n2.0,4e-15\n"


@pytest.mark.parametrize(
    "argv, value, path, code, message",
    [
        (["hemt-fit", "--synthetic"], [-1.0, 1.0], ("synthetic", "t_vts_k"), 4,
         "domain error: synthetic.t_vts_k: source temperature must be positive, not -1 K"),
        (["hemt-fit"], "vts.csv", ("sweep_file",), 4, "domain error: sweep_file vts.csv: source temperature must be positive, not -1 K"),
        (["noise-fit", "--synthetic"], [-1.0, 1.0], ("synthetic", "t_vts_k"), 4,
         "domain error: synthetic.t_vts_k: source temperature must be positive, not -1 K"),
        (["noise-fit"], "vts.csv", ("sweep_file",), 4, "domain error: sweep_file vts.csv: input temperature must be positive, not -1 K"),
        (["hemt-fit", "--synthetic"], 0, ("f_signal_hz",), 4, "domain error: f_signal_hz: carrier frequency must be positive, not 0 Hz"),
        (["hemt-fit"], 0, ("f_signal_hz",), 4, "domain error: f_signal_hz: carrier frequency must be positive, not 0 Hz"),
        (["noise-fit", "--synthetic"], 0, ("synthetic", "f_idler_hz"), 4,
         "domain error: synthetic.f_idler_hz: carrier frequency must be positive, not 0 Hz"),
        (["noise-fit", "--synthetic"], 0, ("synthetic", "f_signal_hz"), 4,
         "domain error: synthetic.f_signal_hz: carrier frequency must be positive, not 0 Hz"),
        (["hemt-fit", "--synthetic"], -5e9, ("f_signal_hz",), 4,
         "domain error: f_signal_hz: carrier frequency must be positive, not -5e+09 Hz"),
        (["hemt-fit", "--synthetic"], [5e-324, 1.0], ("synthetic", "t_vts_k"), 0, None),
        (["noise-fit", "--synthetic"], [5e-324, 1.0], ("synthetic", "t_vts_k"), 0, None),
    ],
    ids=["hemt-synthetic-negative-source", "hemt-measured-negative-source", "noise-synthetic-negative-source", "noise-measured-negative-input",
         "hemt-synthetic-zero-carrier", "hemt-measured-zero-carrier", "noise-synthetic-zero-idler", "noise-synthetic-zero-signal",
         "hemt-synthetic-negative-carrier", "hemt-subnormal-source", "noise-subnormal-source"],
)
def test_vts_inputs_are_checked_for_both_calibrations_in_a_fresh_process(tmp_path, argv, value, path, code, message):
    # One check of the source law's inputs serves hemt-fit and noise-fit alike, and a measured noise-fit
    # sweep's T_in is checked too; a subnormal source temperature is the zero-point limit, with no numpy
    # warning on stderr.
    (tmp_path / "vts.csv").write_text(NEGATIVE_VTS_SWEEP if value == "vts.csv" else "0.1,1e-15\n0.3,2e-15\n0.9,3e-15\n2.0,4e-15\n")
    cfg = tmp_path / "chain.json"
    doc = json.loads(_edited("chain.json", value, *path))
    doc.setdefault("sweep_file", "vts.csv")
    cfg.write_text(json.dumps(doc))
    proc = _fresh([*argv, "--config", str(cfg)])
    assert proc.returncode == code, proc.stderr
    if message is None:
        assert proc.stderr == "" and json.loads(proc.stdout)
    else:
        assert proc.stdout == "" and proc.stderr.splitlines() == [message]


# A field of 1e200 T: B^2 overflows in the fit.  A VTS sweep whose last T row, or P_out row, is 1e300:
# a square of the fit, or P_out in output-referred kelvin, overflows.  A VTS sweep whose sigma_y is 1e200
# on every row: every weight 1/sigma_y^2 underflows to 0.
EXTREME_SWEEPS = {"field.csv": "0,0\n1,-1e-6\n2,-4e-6\n3,-9e-6\n1e200,-1\n",
                  "hot.csv": "0.1,1e-15\n0.3,2e-15\n0.9,3e-15\n1e300,4e-15\n",
                  "loud.csv": "0.1,1e-15\n0.3,2e-15\n0.9,3e-15\n1.5,1e300\n",
                  "huge.csv": "0.1,1e-15,1e200\n0.3,2e-15,1e200\n0.9,3e-15,1e200\n2.0,4e-15,1e200\n"}
WEIGHTLESS = "no point carries weight in the fit: each point's weight times its squared regressor is zero"
# A gain of 3000 dB to the analyzer and a 1e300 K source: the planted P_out overflows.
LOUD_PLANT = {"chain": {"total_output_gain_db": 3000}, "synthetic": {"t_vts_k": [1e300, 1.0]}}


@pytest.mark.parametrize(
    "config, argv, value, path, code, message",
    [
        ("device.json", ["tune", "--synthetic"], 1e-300, ("synthetic", "noise_frac"), 3,
         "fit error: sigma_y entries must give a finite weight 1/sigma_y^2, not "),
        ("device.json", ["tune", "--synthetic"], 1e300, ("synthetic", "noise_frac"), 4,
         "domain error: synthetic: the planted noise (0 absolute, 1e+300 relative) overflows a double"),
        ("gain.json", ["gain", "--synthetic"], 1e308, ("synthetic", "noise_db"), 4,
         "domain error: synthetic: the planted noise (1e+308 absolute, 0 relative) overflows a double"),
        ("compression.json", ["compression", "--synthetic"], 1e-300, ("synthetic", "softness_db"), 0, None),
        ("field.json", ["field-shift", "--synthetic"], 1e300, ("synthetic", "b_max_t"), 4,
         "domain error: synthetic: overflow encountered in square"),
        ("field.json", ["field-shift", "--synthetic"], -1e160, ("synthetic", "b_min_t"), 4,
         "domain error: synthetic: overflow encountered in square"),
        ("field.json", ["field-shift", "--synthetic"], 1e154, ("synthetic", "b_max_t"), 4,
         "domain error: synthetic: overflow encountered in multiply"),
        ("field.json", ["field-shift"], "field.csv", ("sweep_file",), 4, "domain error: sweep_file field.csv: overflow encountered in square"),
        ("field.json", ["field-shift", "--synthetic"], 1e300, ("synthetic", "noise_abs"), 4, f"domain error: synthetic: {WEIGHTLESS}"),
        ("chain.json", ["noise-fit"], "hot.csv", ("sweep_file",), 4, "domain error: sweep_file hot.csv: overflow encountered in square"),
        ("chain.json", ["noise-fit"], True, ("free_slope",), 4, "domain error: sweep_file hot.csv: overflow encountered in square"),
        ("chain.json", ["hemt-fit"], "hot.csv", ("sweep_file",), 4, "domain error: sweep_file hot.csv: overflow encountered in square"),
        ("chain.json", ["hemt-fit"], True, ("free_slope",), 4, "domain error: sweep_file hot.csv: overflow encountered in square"),
        ("chain.json", ["noise-fit"], "loud.csv", ("sweep_file",), 4, "domain error: sweep_file loud.csv: overflow encountered in divide"),
        ("chain.json", ["hemt-fit"], "loud.csv", ("sweep_file",), 4, "domain error: sweep_file loud.csv: overflow encountered in divide"),
        ("chain.json", ["noise-fit", "--synthetic"], {"t_vts_k": [1e300, 1.0], "noise_frac": 0.1}, ("synthetic",), 4,
         "domain error: synthetic: overflow encountered in square"),
        ("chain.json", ["hemt-fit", "--synthetic"], {"t_vts_k": [1e300, 1.0], "noise_frac": 0.1}, ("synthetic",), 4,
         "domain error: synthetic: overflow encountered in square"),
        ("chain.json", ["noise-fit", "--synthetic"], LOUD_PLANT, (), 4, "domain error: synthetic: overflow encountered in multiply"),
        ("chain.json", ["hemt-fit", "--synthetic"], LOUD_PLANT, (), 4, "domain error: synthetic: overflow encountered in multiply"),
        ("chain.json", ["noise-fit"], "huge.csv", ("sweep_file",), 4, f"domain error: sweep_file huge.csv: {WEIGHTLESS}"),
        ("chain.json", ["noise-fit", "--synthetic"], {"t_kipa_k": 1e300, "noise_frac": 0.1}, ("synthetic",), 4,
         f"domain error: synthetic: {WEIGHTLESS}"),
    ],
    ids=["tune-tiny-noise", "tune-overflowing-noise", "gain-overflowing-noise", "compression-sharp-step", "field-overflowing-b-max",
         "field-overflowing-b-min", "field-overflowing-fit-sum", "field-measured-overflow", "field-weightless-noise",
         "noise-measured-overflowing-t", "noise-measured-overflowing-t-free-slope", "hemt-measured-overflowing-t",
         "hemt-measured-overflowing-t-free-slope", "noise-measured-overflowing-p", "hemt-measured-overflowing-p",
         "noise-overflowing-plant", "hemt-overflowing-plant", "noise-overflowing-plant-p", "hemt-overflowing-plant-p",
         "noise-measured-weightless", "noise-weightless-plant"],
)
def test_extreme_plant_prints_no_numpy_warning_in_a_fresh_process(tmp_path, config, argv, value, path, code, message):
    # sigma_y^2 underflowing to 0 (an infinite weight), noise that overflows a double, a logistic whose
    # exp overflows toward its correct limit, a field whose B^2 or fit sums overflow, whether planted or
    # measured, weights that underflow to 0, a VTS sweep whose fit overflows, with the slope pinned or
    # free, and a VTS plant whose P_out overflows: one stderr line or none, and a documented exit code.
    # A chain.json row that edits another key reads hot.csv; a row with no path edits several blocks.
    for name, text in EXTREME_SWEEPS.items():
        (tmp_path / name).write_text(text)
    doc = json.loads(_edited(config, value, *path) if path else (CONFIGS / config).read_text())
    for block, edits in ({} if path else value).items():
        doc[block].update(edits)
    if config == "chain.json":
        doc.setdefault("sweep_file", "hot.csv")
    cfg = tmp_path / config
    cfg.write_text(json.dumps(doc))
    proc = _fresh([*argv, "--config", str(cfg)])
    assert proc.returncode == code, proc.stderr
    if message is None:
        assert proc.stderr == "" and json.loads(proc.stdout)
    else:
        lines = proc.stderr.splitlines()
        assert proc.stdout == "" and len(lines) == 1 and lines[0].startswith(message), proc.stderr
