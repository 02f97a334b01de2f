"""Seeded inputs for the workloads: perturbations of the bundled configs/.

Every function takes a numpy Generator, so the same seed gives the same
configs.  Ranges keep each problem inside the domain where the program is
expected to succeed; the one deliberate exception is DETUNED_PUMP_PROBLEMS.
"""

from __future__ import annotations

import copy
import json
import math
import os

import numpy as np

import oracles

CONFIG_NAMES = ("budget", "chain", "compression", "device", "field", "gain", "sif", "temp")


def load_base_configs(root: str) -> dict:
    """The bundled example configs, keyed by file stem."""
    out = {}
    for name in CONFIG_NAMES:
        with open(os.path.join(root, "configs", f"{name}.json")) as fh:
            out[name] = json.load(fh)
    return out


def uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def design_config(base: dict, rng) -> dict:
    cfg = copy.deepcopy(base["sif"])
    s = cfg["sif"]
    s["z_l_ohm"] *= uniform(rng, 0.95, 1.05)
    s["z_h_ohm"] *= uniform(rng, 0.95, 1.05)
    s["f_0_hz"] *= uniform(rng, 0.97, 1.03)
    return cfg


def device_config(base: dict, rng, noise_frac: float, n_points: int) -> dict:
    cfg = copy.deepcopy(base["device"])
    r = cfg["device"]["resonator"]
    r["i_star_a"] *= uniform(rng, 0.9, 1.1)
    r["clem_exponent"] = uniform(rng, 1.9, 2.5)
    r["f_r0_hz"] *= uniform(rng, 0.98, 1.02)
    r["alpha"] = uniform(rng, 0.8, 0.95)
    cfg["synthetic"] = {"n_points": n_points, "noise_frac": noise_frac}
    return cfg


def gain_config(base: dict, rng, noise_db: float, n_points: int) -> dict:
    """A zero-detuning cavity whose grid puts a sample exactly on f_pump/2."""
    kappa = uniform(rng, 15e6, 25e6)
    f_r = uniform(rng, 5.5e9, 5.8e9)
    cfg = copy.deepcopy(base["gain"])
    cfg["cavity"] = {
        "kappa_hz": kappa,
        "gamma_hz": uniform(rng, 0.03, 0.1) * kappa,
        "delta_hz": 0.0,
        "xi_frac_of_kbar": uniform(rng, 0.85, 0.97),
        "f_pump_hz": 2.0 * f_r,
    }
    cfg["grid"] = {"center_hz": f_r, "span_hz": 20.0 * kappa, "n_points": n_points}
    cfg["synthetic"] = {"noise_db": noise_db}
    return cfg


def compression_config(base: dict, rng, n_points: int) -> dict:
    cfg = copy.deepcopy(base["compression"])
    cfg["small_signal_gain_db"] = uniform(rng, 18.0, 24.0)
    s = cfg["synthetic"]
    s.update(
        p_mid_dbm=uniform(rng, -88.0, -80.0),
        softness_db=uniform(rng, 1.0, 2.0),
        depth_db=uniform(rng, 4.0, 8.0),
        n_points=n_points,
        noise_db=0.0,
    )
    return cfg


def chain_config(base: dict, rng, n_vts: int) -> dict:
    cfg = copy.deepcopy(base["chain"])
    c = cfg["chain"]
    c["kipa_gain_db"] = uniform(rng, 18.0, 24.0)
    c["t_hemt_k"] = uniform(rng, 1.5, 2.5)
    c["eta_il_db"] = uniform(rng, -4.0, -3.0)
    c["total_output_gain_db"] += uniform(rng, -2.0, 2.0)
    cfg["synthetic"]["t_kipa_k"] = uniform(rng, 0.2, 0.4)
    cfg["synthetic"]["t_vts_k"] = list(np.geomspace(0.1, 2.0, n_vts))
    cfg["synthetic"]["noise_frac"] = 0.0
    return cfg


def hemt_config(chain_cfg: dict, n_vts: int) -> dict:
    cfg = copy.deepcopy(chain_cfg)
    cfg["synthetic"] = {"t_vts_k": list(np.geomspace(0.1, 3.0, n_vts)), "noise_frac": 0.0}
    return cfg


def field_config(base: dict, rng, n_points: int) -> dict:
    cfg = copy.deepcopy(base["field"])
    cfg["field_model"]["theta_b_rad"] = uniform(rng, 0.005, 0.03)
    cfg["synthetic"] = {"b_min_t": 0.0, "b_max_t": uniform(rng, 4.0, 6.0), "n_points": n_points, "noise_abs": 0.0}
    return cfg


def budget_config(base: dict, rng) -> dict:
    cfg = copy.deepcopy(base["budget"])
    cfg["budget"] = {"eta_db": uniform(rng, -5.0, -3.0), "n_hemt_photons": uniform(rng, 2.5, 4.0)}
    cfg.pop("s_measured", None)
    return cfg


def temp_config(base: dict, rng) -> dict:
    cfg = copy.deepcopy(base["temp"])
    cfg["temp_model"]["f_delta_tls"] *= uniform(rng, 0.8, 1.2)
    cfg["delta_omega_rel"] = uniform(rng, -2e-4, -5e-5)
    return cfg


def _strata(rng, lo: float, hi: float, n: int) -> list:
    """n values evenly spread over [lo, hi], in a seeded order: every run
    holds the same mix of sizes and noise levels, so its median does not
    depend on the seed."""
    return [float(v) for v in rng.permutation(np.linspace(lo, hi, n))]


def fit_cases(base: dict, rng, n: int) -> list:
    """Configs of n fit rounds: noisy gain and tuning fits, noiseless others."""
    gain_noise, tune_noise = _strata(rng, 0.05, 0.2, n), _strata(rng, 5e-5, 2e-4, n)
    gain_n, tune_n, comp_n = _strata(rng, 400, 1000, n), _strata(rng, 15, 35, n), _strata(rng, 101, 201, n)
    vts_n, hemt_n, field_n = _strata(rng, 4, 8, n), _strata(rng, 4, 8, n), _strata(rng, 9, 25, n)
    cases = []
    for k in range(n):
        chain = chain_config(base, rng, round(vts_n[k]))
        cases.append({
            "gain": gain_config(base, rng, gain_noise[k], 2 * round(gain_n[k]) + 1),
            "tune": device_config(base, rng, tune_noise[k], round(tune_n[k])),
            "compression": compression_config(base, rng, round(comp_n[k])),
            "noise-fit": chain,
            "hemt-fit": hemt_config(chain, round(hemt_n[k])),
            "field-shift": field_config(base, rng, round(field_n[k])),
        })
    return cases


# Pump-search problems whose rectangle is detuned everywhere by half a
# kappa or more.  A stable pump point reaching the target exists on the
# search's own grid (see first_stable_hit), but the program's evaluator
# treats |xi| >= kappa_bar as self-oscillation whatever the detuning, so
# it reports success: false.  They do not depend on the seed.
DETUNED_PUMP_PROBLEMS = (
    {
        "map": {"kappa_hz": 19.8e6, "gamma_hz": 0.0, "f_r_hz": 5.6735e9, "xi_hz_per_sqrt_mw": 2.2e9},
        "search": {
            "target_db": 20.0,
            "f_bounds_hz": [2.0 * (5.6735e9 - 0.8 * 19.8e6), 2.0 * (5.6735e9 - 0.5 * 19.8e6)],
            "p_bounds_dbm": [-60.0, -35.0],
            "n_f_coarse": 41,
            "p_step_db": 0.25,
            "refine_to_hz": 1e4,
        },
    },
    {
        "map": {"kappa_hz": 15e6, "gamma_hz": 0.5e6, "f_r_hz": 5.70e9, "xi_hz_per_sqrt_mw": 1.8e9},
        "search": {
            "target_db": 18.0,
            "f_bounds_hz": [2.0 * (5.70e9 + 0.55 * 15e6), 2.0 * (5.70e9 + 0.9 * 15e6)],
            "p_bounds_dbm": [-62.0, -36.0],
            "n_f_coarse": 41,
            "p_step_db": 0.25,
            "refine_to_hz": 1e4,
        },
    },
)


def pump_problem(rng) -> dict:
    """A pump search whose rectangle is centred on 2 f_r.

    The power grid is placed so that one grid point p* lies between the
    power the target needs at zero detuning and the self-oscillation
    threshold, with a fixed number of steps below it; the search therefore
    succeeds and its evaluation count hardly varies between problems.
    """
    kappa = uniform(rng, 15e6, 25e6)
    gamma = uniform(rng, 0.0, 0.05) * kappa
    f_r = uniform(rng, 5.5e9, 5.8e9)
    coupling = uniform(rng, 1.5e9, 3.0e9)
    target = uniform(rng, 15.0, 25.0)
    step = 0.25
    kb = oracles.kappa_bar(kappa, gamma)
    xi_need = math.sqrt(kb**2 - kappa * kb / 10.0 ** (target / 20.0))
    p_need = 20.0 * math.log10(xi_need / coupling)
    p_thr = 20.0 * math.log10(kb / coupling)
    p_star = p_need + uniform(rng, 0.2, 0.8) * (p_thr - p_need)
    half_width = uniform(rng, 0.2, 0.4) * kappa  # in detuning; f_pump moves twice as far
    return {
        "map": {"kappa_hz": kappa, "gamma_hz": gamma, "f_r_hz": f_r, "xi_hz_per_sqrt_mw": coupling},
        "search": {
            "target_db": target,
            "f_bounds_hz": [2.0 * f_r - 2.0 * half_width, 2.0 * f_r + 2.0 * half_width],
            "p_bounds_dbm": [p_star - 76 * step, p_star + uniform(rng, 2.0, 4.0)],
            "n_f_coarse": 41,
            "p_step_db": step,
            "refine_to_hz": 1e4,
        },
    }


def pump_xi_hz(m: dict, p_dbm: float) -> float:
    """|xi|/2pi of the pump map at power p_dbm: coupling * sqrt(P / 1 mW)."""
    return m["xi_hz_per_sqrt_mw"] * 10.0 ** (p_dbm / 20.0)


def pump_delta_hz(m: dict, f_pump_hz: float) -> float:
    return m["f_r_hz"] - f_pump_hz / 2.0


def first_stable_hit(problem: dict):
    """Lowest grid power at the least-detuned rectangle edge where the cavity
    is stable by its drift matrix and the closed-form peak reaches the
    target; (p_dbm, gain_db) or None."""
    m, s = problem["map"], problem["search"]
    f_edge = min(s["f_bounds_hz"], key=lambda f: abs(pump_delta_hz(m, f)))
    delta = pump_delta_hz(m, f_edge)
    p_lo, p_hi = s["p_bounds_dbm"]
    for p in np.arange(p_lo, p_hi + 0.5 * s["p_step_db"], s["p_step_db"]):
        xi = pump_xi_hz(m, float(p))
        if not oracles.is_stable(m["kappa_hz"], m["gamma_hz"], delta, -1j * xi):
            return None
        g = oracles.peak_gain_db(m["kappa_hz"], m["gamma_hz"], delta, xi)
        if g >= s["target_db"]:
            return float(p), g
    return None
