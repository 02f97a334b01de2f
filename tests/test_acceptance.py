"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line.  Expected values are either derived from the model
equations (checked against independent oracles in the module test files) or
are published figures of the reference device with their stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import cmath
import math

import numpy as np

from kipa_lab import env_models, io_dynamics, ki_device, microwave_net, noise_cal, squeeze, synthetic
from kipa_lab.fitkit import SweepRecord, linear_fit, nlls_fit
from kipa_lab.io_dynamics import GainCurve, PumpedCavity
from kipa_lab.quantities import (
    EULER_GAMMA,
    photon_temperature_equivalent,
    quantum_limit_temperature,
)
from kipa_lab.reproduce import REFERENCE_RESONATOR, reference_budget, reference_chain

F_SIGNAL = 5.6735e9
F_PUMP = 1.1347e10


def report(n, ok, text):
    print(f"ACCEPTANCE {n:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


def test_acceptance_01_coupling_design():
    sif = microwave_net.SifDesign(z_l=450.0, z_h=900.0, n_l=6, n_h=5, z_0=50.0, z_r=900.0, f_0=5.75e9)
    q_c = microwave_net.coupling_q(sif)
    kappa = microwave_net.coupling_rate(sif)
    ok = abs(q_c - 290.0) <= 1.0 and abs(kappa - 19.8e6) <= 0.2e6
    report(1, ok, f"Q_c = {q_c:.2f} (290 +/- 1), kappa = {kappa / 1e6:.3f} MHz (19.8 +/- 0.2)")


def test_acceptance_02_self_kerr():
    k = ki_device.self_kerr(REFERENCE_RESONATOR, F_SIGNAL)
    ok = abs(k - (-0.133)) / 0.133 <= 0.03
    report(2, ok, f"K = {k:.4f} Hz vs -0.133 Hz within 3%")


def test_acceptance_03_gain_bandwidth():
    oks, details = [], []
    for gain_db in (20.0, 23.0, 25.0, 30.0):
        g_lin = 10.0 ** (gain_db / 10.0)
        xi_frac = math.sqrt(1.0 - 1.0 / math.sqrt(g_lin))
        cav = PumpedCavity.from_ordinary(19.8e6, 0.0, 0.0, -1j * xi_frac * 19.8e6, F_PUMP)
        f = np.linspace(F_PUMP / 2 - 1.5e7, F_PUMP / 2 + 1.5e7, 8001)
        gbp = io_dynamics.gbp_extract(GainCurve.from_cavity(cav, f))
        oks.append(abs(gbp - 19.8e6) / 19.8e6 <= 0.05)
        details.append(f"{gain_db:.0f}dB:{gbp / 1e6:.2f}MHz")
    # Operating-point fixture: coupling set to the published 21.3 MHz.
    xi_frac = math.sqrt(1.0 - 1.0 / math.sqrt(10 ** 2.5))
    cav = PumpedCavity.from_ordinary(21.3e6, 0.0, 0.0, -1j * xi_frac * 21.3e6, F_PUMP)
    f = np.linspace(F_PUMP / 2 - 5e6, F_PUMP / 2 + 5e6, 4001)
    gbp = io_dynamics.gbp_extract(GainCurve.from_cavity(cav, f))
    oks.append(abs(gbp - 21.3e6) <= 0.6e6)
    report(
        3,
        all(oks),
        f"GBP within 5% of kappa at {', '.join(details)}; fixture {gbp / 1e6:.2f} MHz (21.3 +/- 0.6)",
    )


def test_acceptance_04_deamplification_limits():
    kappa = 2.0 * math.pi * 19.8e6
    trans = io_dynamics.transmission_deamp(PumpedCavity(kappa, 0.0, 0.0, -1j * 0.999 * kappa, F_PUMP))
    degen = abs(io_dynamics.degenerate_gain(PumpedCavity(kappa, 0.0, 0.0, -1j * 0.999 * kappa, F_PUMP), 1.5 * math.pi))
    refl = io_dynamics.reflection_deamp(PumpedCavity(kappa, 0.0, 0.0, -1j * 0.5 * kappa, F_PUMP))
    ok = abs(trans - 0.5) <= 1e-3 and abs(degen - 0.5) <= 1e-3 and refl == 0.0
    report(4, ok, f"|g(0)| transmission = {trans:.5f} -> 1/2; reflection = {refl} at |xi| = kappa/2")


def test_acceptance_05_squeezing_floor_and_gx():
    budget = reference_budget()
    s_min = squeeze.max_measurable_squeezing(budget)
    g_true = 10.0 ** (-2.95 / 10.0)
    s_best = squeeze.squeezing_factor(g_true, budget)
    g_db = 10.0 * math.log10(squeeze.extract_gx(s_best, budget))
    ok = abs(s_min - 0.9897) <= 1e-3 and abs(g_db - (-2.95)) <= 0.05
    report(5, ok, f"S_min = {s_min:.5f} (0.9897 +/- 1e-3); G_X = {g_db:.3f} dB (-2.95 +/- 0.05)")


def test_acceptance_06_noise_calibration_round_trip():
    chain = reference_chain()
    rng = np.random.default_rng(0)
    setpoints = synthetic.vts_setpoint_ladder()  # 100 mK .. 2 K in four steps
    sweep, truth = synthetic.noise_sweep(chain, 0.286, F_SIGNAL, F_SIGNAL, setpoints, 0.0, rng)
    res = noise_cal.fit_added_noise(sweep, chain)
    noiseless_ok = abs(res.t_add - truth["t_add_k"]) < 1e-9

    rng = np.random.default_rng(12)
    noisy, _ = synthetic.noise_sweep(chain, 0.286, F_SIGNAL, F_SIGNAL, setpoints, 0.01, rng)
    nres = noise_cal.fit_added_noise(noisy, chain)
    noisy_ok = abs(nres.t_add - truth["t_add_k"]) <= nres.t_add_sigma

    hs, _ = synthetic.hemt_sweep(chain, F_SIGNAL, synthetic.vts_setpoint_ladder(0.1, 3.0), 0.0, np.random.default_rng(0))
    hres = noise_cal.fit_hemt_noise(hs, chain, F_SIGNAL)
    hemt_ok = abs(hres.t_hemt - 1.95) < 1e-9

    ok = noiseless_ok and noisy_ok and hemt_ok
    report(
        6,
        ok,
        f"T_add noiseless err = {abs(res.t_add - truth['t_add_k']):.2e} K; "
        f"1% noise within 1 sigma; T_HEMT err = {abs(hres.t_hemt - 1.95):.2e} K",
    )


def test_acceptance_07_compression_bookkeeping():
    p = np.linspace(-110.0, -75.0, 141)
    gain = 21.0 - np.clip(0.1 * (p + 96.0), 0.0, None)
    point = io_dynamics.compression_point(SweepRecord(p, gain), 21.0)
    ok = abs(point.p_in_1db_dbm - (-86.0)) < 1e-6 and abs(point.p_out_sat_dbm - (-65.0)) <= 1.0
    report(7, ok, f"P_1dB input = {point.p_in_1db_dbm:.2f} dBm -> output {point.p_out_sat_dbm:.2f} dBm (-65 +/- 1)")


def test_acceptance_08_field_model():
    model = env_models.FieldModel(diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6)
    c = env_models.field_curvature(model)
    curv_ok = abs(c - 1.74e-3) / 1.74e-3 <= 0.01

    theta = math.radians(0.92)
    planted = env_models.FieldModel(diffusion=0.5e-4, thickness=13e-9, t_c=5.6, center_width=2e-6, theta_b=theta)
    sweep, _ = synthetic.field_shift_sweep(planted, np.linspace(0.0, 6.0, 13), 0.0, np.random.default_rng(0))
    fit = env_models.fit_field_shift(sweep, planted)
    theta_ok = abs(fit.theta_b - theta) / theta <= 0.01
    report(8, curv_ok and theta_ok, f"curvature = {c:.4e} /T^2 (1.74e-3 +/- 1%); theta recovered {math.degrees(fit.theta_b):.4f} deg")


def test_acceptance_09_special_functions():
    e1 = abs(env_models.complex_digamma(1.0).real - (-EULER_GAMMA))
    e2 = abs(env_models.complex_digamma(0.5).real - (-EULER_GAMMA - 2.0 * math.log(2.0)))
    closed_ok = e1 <= 1e-12 and e2 <= 1e-12

    rng = np.random.default_rng(55)
    worst = 0.0
    checked = 0
    while checked < 1000:
        r = 10 ** rng.uniform(-1, 2)
        phi = rng.uniform(0, 2 * np.pi)
        z = complex(r * np.cos(phi), r * np.sin(phi))
        if abs(z.imag) < 1e-2 and z.real < 1.0:
            continue
        rec = abs(env_models.complex_digamma(z + 1.0) - env_models.complex_digamma(z) - 1.0 / z)
        worst = max(worst, rec / max(1.0, abs(env_models.complex_digamma(z + 1.0))))
        if abs(z.imag) > 5e-2:
            refl = abs(
                env_models.complex_digamma(1.0 - z)
                - env_models.complex_digamma(z)
                - math.pi / cmath.tan(math.pi * z)
            )
            worst = max(worst, refl / max(1.0, abs(math.pi / cmath.tan(math.pi * z))))
        checked += 1
    fuzz_ok = worst <= 1e-10
    report(9, closed_ok and fuzz_ok, f"closed-form errors {max(e1, e2):.1e}; fuzz worst residual {worst:.1e}")


def test_acceptance_10_photon_conversions():
    n = photon_temperature_equivalent(0.286, F_SIGNAL)
    t_q = quantum_limit_temperature(F_SIGNAL)
    ok = abs(n - 1.04) / 1.04 <= 0.02 and abs(t_q - 0.136) <= 1e-3
    report(10, ok, f"286 mK -> {n:.4f} photons (1.04 +/- 2%); half photon at {t_q * 1e3:.2f} mK (136 +/- 1)")


def test_acceptance_11_invariant_suites():
    """Compact seeded rerun of the per-module randomized invariants (the
    full versions live in the module test files)."""
    rng = np.random.default_rng(4242)
    failures = []

    # Current dependence: even, unity at zero, increasing.
    i_star, n_clem = REFERENCE_RESONATOR.i_star, REFERENCE_RESONATOR.clem_exponent
    grid = np.sort(rng.uniform(0.0, 0.95, 100)) * i_star
    vals = ki_device.clem_ratio(grid, i_star, n_clem)
    if not (np.all(np.diff(vals) >= 0) and ki_device.clem_ratio(0.0, i_star, n_clem) == 1.0
            and np.array_equal(ki_device.clem_ratio(-grid, i_star, n_clem), vals)):
        failures.append("current dependence monotone")

    # Quarter-wave transformer property.
    for _ in range(50):
        z_f, z_load = rng.uniform(10, 2000), rng.uniform(1, 5000)
        sec = microwave_net.LineSection(z_f, 0.25, 5.75e9)
        z = microwave_net.input_impedance(sec, z_load, 5.75e9)
        if abs(z.real - z_f**2 / z_load) > 1e-9 * z.real:
            failures.append("quarter-wave limit")
            break

    # Signal gain equals the absolute-frequency form of the same response.
    for _ in range(100):
        kappa = rng.uniform(0.5, 5.0) * 1e8
        gamma = rng.uniform(0.0, 0.5) * kappa
        kbar = kappa + gamma / 2.0
        delta = rng.uniform(-0.5, 0.5) * kappa
        xi = rng.uniform(0.0, 0.95) * kbar * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = F_PUMP / 2 + rng.uniform(-3, 3) * kappa / (2 * np.pi)
        cav = PumpedCavity(kappa, gamma, delta, xi, F_PUMP)
        w = 2 * math.pi * (f - F_PUMP / 2)
        want = (kappa * kbar - 1j * kappa * (delta + w)) / (delta**2 + (kbar - 1j * w) ** 2 - abs(xi) ** 2)
        if abs(io_dynamics.signal_gain(cav, f, allow_unstable=True) - want) > 1e-12 * abs(want):
            failures.append("gain forms agree")
            break

    # Transmission deamplification stays in (1/2, 1].
    kappa = 2 * math.pi * 19.8e6
    fr = rng.uniform(0.0, 0.999, 100)
    vals = [io_dynamics.transmission_deamp(PumpedCavity(kappa, 0.0, 0.0, -1j * v * kappa, F_PUMP)) for v in fr]
    if not all(0.5 < v <= 1.0 for v in vals):
        failures.append("deamp bound")

    # Squeezing factor monotone on the physical branch, above the floor.
    budget = reference_budget()
    g = np.linspace(0.5, 1.0, 100)
    s = [squeeze.squeezing_factor(float(v), budget) for v in g]
    if not (np.all(np.diff(s) > 0) and min(s) >= squeeze.max_measurable_squeezing(budget) - 1e-15):
        failures.append("squeezing monotone/floor")

    # Fit engine: exact noiseless recovery on random receiver chains.
    for _ in range(25):
        chain = noise_cal.ReceiverChain(
            eta_e=rng.uniform(0.2, 1.0),
            eta_il=rng.uniform(0.2, 1.0),
            g=rng.uniform(10.0, 1000.0),
            g_hemt=rng.uniform(100.0, 1e5),
            g_tot=rng.uniform(1e5, 1e8),
            t_hemt=rng.uniform(0.5, 5.0),
            t_bkg=rng.uniform(100.0, 400.0),
            bandwidth=rng.uniform(10.0, 1e4),
        )
        t_kipa = rng.uniform(0.05, 1.0)
        sweep, truth = synthetic.noise_sweep(chain, t_kipa, F_SIGNAL, F_SIGNAL, np.geomspace(0.1, 2.0, 4), 0.0, rng)
        if abs(noise_cal.fit_added_noise(sweep, chain).t_add - truth["t_add_k"]) >= 1e-9:
            failures.append("noise fit exactness")
            break

    # Linear and nonlinear fitters agree on a line.
    xs = np.linspace(0, 10, 40)
    ys = 1.5 * xs - 2.0 + rng.normal(0, 0.1, 40)
    lin = linear_fit(SweepRecord(xs, ys))
    nl = nlls_fit(lambda xx, p: p[0] * xx + p[1], SweepRecord(xs, ys), [1.0, 0.0])
    if not np.allclose(lin.params, nl.params, rtol=1e-9):
        failures.append("linear vs nlls")

    # Digamma recurrence spot check.
    for _ in range(200):
        z = complex(rng.uniform(0.5, 50), rng.uniform(0.1, 50))
        lhs = env_models.complex_digamma(z + 1.0)
        if abs(lhs - env_models.complex_digamma(z) - 1.0 / z) > 1e-10 * max(1.0, abs(lhs)):
            failures.append("digamma recurrence")
            break

    report(11, not failures, "invariant suites green" if not failures else f"failures: {failures}")
