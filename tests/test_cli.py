import json
from pathlib import Path

import numpy as np
import pytest

from kipa_lab import cli, env_models, io_dynamics
from kipa_lab.fitkit import SweepRecord

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
    from kipa_lab.config import config_hash

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
    ],
    ids=["top-level-array", "nan-literal", "infinity-literal", "minus-infinity-literal", "unknown-bc-criterion"],
)
def test_malformed_config_exits_2(tmp_path, capsys, argv, text, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
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
    ],
    ids=["short-row", "non-numeric-cell", "sigma-blank-on-some-rows", "nan-cell", "inf-cell"],
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


@pytest.mark.parametrize(
    "settings",
    [{"n_f_coarse": 1}, {"p_step_db": 0}, {"p_step_db": -0.25}, {"refine_to_hz": 0}],
    ids=["one-frequency", "zero-power-step", "negative-power-step", "zero-resolution"],
)
def test_pump_search_degenerate_grid_exits_4(tmp_path, capsys, settings):
    doc = json.loads((CONFIGS / "pump_search.json").read_text())
    doc["search"].update(settings)
    cfg = tmp_path / "p.json"
    cfg.write_text(json.dumps(doc))
    code = cli.main(["pump-search", "--config", str(cfg)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 4
    assert len(err) == 1 and err[0].startswith("domain error: search bounds must be ordered")


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
