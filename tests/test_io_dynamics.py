import math

import numpy as np
import pytest
from scipy.optimize import brentq

from kipa_lab.errors import DomainError, ExtractionError, SingularityError
from kipa_lab.fitkit import SweepRecord
from kipa_lab.io_dynamics import (
    GainCurve,
    PumpedCavity,
    PumpMap,
    compression_point,
    degenerate_gain,
    find_optimal_pump,
    gbp_extract,
    idler_gain,
    n_gamma_term,
    output_quadrature_variance,
    peak_gain_db,
    quadrature_gain_x,
    quadrature_transfer,
    reflection_deamp,
    signal_gain,
    transmission_deamp,
)
from kipa_lab.quantities import n_kappa2_term
from kipa_lab.synthetic import compression_sweep, pump_gain_map

F_PUMP = 1.1347e10
F_HALF = F_PUMP / 2.0
KAPPA = 2.0 * math.pi * 19.8e6


def cavity(xi_frac=0.0, gamma_frac=0.0, delta_frac=0.0, phase=-math.pi / 2.0) -> PumpedCavity:
    gamma = gamma_frac * KAPPA
    kbar = KAPPA + gamma / 2.0
    xi = xi_frac * kbar * complex(math.cos(phase), math.sin(phase))
    return PumpedCavity(KAPPA, gamma, delta_frac * KAPPA, xi, F_PUMP)


def literal_absolute_frequency_gain(kappa, gamma, delta, xi, f_pump, f):
    """Oracle: the gain written against absolute angular frequency, with the
    offset subtraction appearing explicitly inside the formula."""
    omega_abs = 2.0 * math.pi * f
    half_pump = 2.0 * math.pi * f_pump / 2.0
    kbar = (2.0 * kappa + gamma) / 2.0
    num = kappa * kbar - 1j * kappa * (delta + omega_abs - half_pump)
    den = delta**2 + (kbar - 1j * (omega_abs - half_pump)) ** 2 - abs(xi) ** 2
    return num / den


def test_pump_off_identity():
    cav = cavity(xi_frac=0.0)
    assert signal_gain(cav, F_HALF) == pytest.approx(1.0, rel=1e-14)
    f = np.linspace(F_HALF - 1e8, F_HALF + 1e8, 101)
    assert np.max(np.abs(idler_gain(cav, f))) == 0.0


def test_twenty_db_point():
    cav = cavity(xi_frac=math.sqrt(0.9))
    g = signal_gain(cav, F_HALF)
    assert abs(g) ** 2 == pytest.approx(100.0, rel=1e-12)


def test_signal_gain_matches_absolute_frequency_oracle():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        kappa = rng.uniform(0.5, 5.0) * 1e8
        gamma = rng.uniform(0.0, 0.5) * kappa
        kbar = kappa + gamma / 2.0
        delta = rng.uniform(-0.5, 0.5) * kappa
        xi = rng.uniform(0.0, 0.95) * kbar * np.exp(1j * rng.uniform(0, 2 * np.pi))
        f = F_HALF + rng.uniform(-3, 3) * kappa / (2 * np.pi)
        cav = PumpedCavity(kappa, gamma, delta, xi, F_PUMP)
        got = signal_gain(cav, f, allow_unstable=True)
        want = literal_absolute_frequency_gain(kappa, gamma, delta, xi, F_PUMP, f)
        assert abs(got - want) <= 1e-12 * abs(want)


def test_idler_zero_without_pump_and_pole_at_kbar():
    assert idler_gain(cavity(0.0), F_HALF) == 0.0
    near = cavity(xi_frac=1.0 - 1e-10)
    assert abs(idler_gain(near, F_HALF, allow_unstable=True)) > 1e6
    exactly = cavity(xi_frac=1.0)
    with pytest.raises(SingularityError):
        idler_gain(exactly, F_HALF, allow_unstable=True)


def test_stability_gate():
    unstable = cavity(xi_frac=1.2)
    assert not unstable.is_stable
    with pytest.raises(DomainError, match="self-oscillation"):
        signal_gain(unstable, F_HALF)
    # Override evaluates fine away from the pole.
    assert np.isfinite(abs(signal_gain(unstable, F_HALF + 5e7, allow_unstable=True)))


def test_photon_number_residual_sweep():
    # At band center with gamma = 0 the residual |gs|^2 - |gi|^2 equals
    # kbar^2/(kbar^2 - xi^2), not 1; verified against that closed form.
    for frac in np.arange(0.1, 0.96, 0.05):
        cav = cavity(xi_frac=frac)
        got = abs(signal_gain(cav, F_HALF)) ** 2 - abs(idler_gain(cav, F_HALF)) ** 2
        want = 1.0 / (1.0 - frac**2)
        assert got == pytest.approx(want, rel=1e-10)


def test_degenerate_phase_structure():
    cav = cavity(xi_frac=0.7)
    psis = np.linspace(0, 2 * np.pi, 721, endpoint=False)
    mags = np.array([abs(degenerate_gain(cav, p)) for p in psis])
    i_max, i_min = np.argmax(mags), np.argmin(mags)
    assert psis[i_max] == pytest.approx(math.pi / 2.0, abs=0.01)
    assert psis[i_min] == pytest.approx(3.0 * math.pi / 2.0, abs=0.01)
    assert abs(psis[i_max] - psis[i_min]) == pytest.approx(math.pi, abs=0.01)
    # 2-pi periodicity
    assert abs(degenerate_gain(cav, 0.3)) == pytest.approx(abs(degenerate_gain(cav, 0.3 + 2 * math.pi)), rel=1e-12)


def test_degenerate_max_min_product_identity():
    cav = cavity(xi_frac=0.8)
    kbar = cav.kappa_bar
    prod = abs(degenerate_gain(cav, math.pi / 2)) * abs(degenerate_gain(cav, 3 * math.pi / 2))
    assert prod == pytest.approx(cav.kappa**2 / (kbar**2 - abs(cav.xi) ** 2), rel=1e-12)


def test_degenerate_more_than_30_db_near_threshold():
    cav = cavity(xi_frac=0.999)
    g = abs(degenerate_gain(cav, math.pi / 2))
    assert 20.0 * math.log10(g) > 30.0


def test_degenerate_minimum_matches_transmission_deamp():
    for frac in (0.3, 0.9, 0.999):
        cav = cavity(xi_frac=frac)
        assert abs(degenerate_gain(cav, 3 * math.pi / 2)) == pytest.approx(
            transmission_deamp(cav), rel=1e-9
        )


def test_transmission_deamp_limit_and_bounds():
    # Acceptance: |g| -> 1/2 within 1e-3 at |xi|/kappa = 0.999, gamma = 0.
    assert transmission_deamp(cavity(xi_frac=0.999)) == pytest.approx(0.5, abs=1e-3)
    assert transmission_deamp(cavity(xi_frac=1.0)) == 0.5
    fracs = np.linspace(0.0, 0.999, 100)
    vals = np.array([transmission_deamp(cavity(xi_frac=f)) for f in fracs])
    assert vals[0] == pytest.approx(1.0, rel=1e-14)  # unit transmission, no pump
    assert np.all(vals > 0.5) and np.all(vals <= 1.0)
    assert np.all(np.diff(vals) < 0)


def test_reflection_deamp_examples():
    assert reflection_deamp(cavity(xi_frac=0.5)) == pytest.approx(0.0, abs=1e-15)  # |xi| = kappa/2
    assert reflection_deamp(cavity(xi_frac=0.0)) == pytest.approx(1.0, rel=1e-14)
    matched = PumpedCavity(KAPPA, KAPPA, 0.0, 0.0, F_PUMP)
    assert reflection_deamp(matched) == pytest.approx(0.0, abs=1e-15)


def test_quadrature_transfer_pump_off_identity():
    cav = cavity(xi_frac=0.0)
    m = quadrature_transfer(cav, F_HALF)
    assert m == pytest.approx(np.eye(2), abs=1e-14)


def test_quadrature_transfer_determinant_identity():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cav = PumpedCavity(
            KAPPA,
            rng.uniform(0, 0.3) * KAPPA,
            rng.uniform(-0.3, 0.3) * KAPPA,
            rng.uniform(0, 0.9) * KAPPA * np.exp(1j * rng.uniform(0, 2 * np.pi)),
            F_PUMP,
        )
        f = F_HALF + rng.uniform(-2e7, 2e7)
        m = quadrature_transfer(cav, f)
        eps = signal_gain(cav, f) + np.conj(idler_gain(cav, f))
        eps_p = signal_gain(cav, f) - np.conj(idler_gain(cav, f))
        want = eps.real * eps_p.real + eps.imag * eps_p.imag
        assert np.linalg.det(m) == pytest.approx(want, rel=1e-9)


def test_quadrature_gain_x_three_db_bound():
    g_x = quadrature_gain_x(cavity(xi_frac=0.999), F_HALF)
    assert g_x == pytest.approx(0.5, abs=1e-3)
    assert 10.0 * math.log10(g_x) == pytest.approx(-3.01, abs=0.02)


def test_quadrature_gain_x_band_center_pole_limit():
    # Exactly at |xi| = kappa with destructive alignment the closed form
    # takes its finite limit 1/2.
    assert quadrature_gain_x(cavity(xi_frac=1.0)) == pytest.approx(0.5, rel=1e-12)


def test_output_variance_identity_channel():
    cav = cavity(xi_frac=0.0)
    v = output_quadrature_variance(cav, 0.25, 0.0, 0.0)
    assert v == pytest.approx(0.25, rel=1e-14)


def test_output_variance_vacuum_squeezed_example():
    cav = cavity(xi_frac=1.0)  # G_X = 1/2 exactly, gamma = 0
    n_k2 = n_kappa2_term(0.5)
    assert n_k2 == pytest.approx(-0.042893218813452476, rel=1e-12)
    v = output_quadrature_variance(cav, 0.25, n_k2, 0.0)
    assert v == pytest.approx(0.14644660940672624, rel=1e-12)


def test_output_variance_loss_port_term():
    cav = cavity(xi_frac=0.0)  # G_X = 1
    n_g = n_gamma_term(KAPPA, KAPPA)  # gamma/kappa = 1, thermal variance 1/4
    assert n_g == pytest.approx(0.25, rel=1e-14)
    v = output_quadrature_variance(cav, 0.25, 0.0, n_g)
    assert v == pytest.approx(0.25 + 0.25, rel=1e-14)


def make_curve(kappa_hz, gain_db, span_hz=None, n=4001, gamma_hz=0.0):
    g_target = 10.0 ** (gain_db / 10.0)
    kbar_hz = kappa_hz + gamma_hz / 2.0
    xi_frac = math.sqrt(1.0 - 1.0 / math.sqrt(g_target))
    cav = PumpedCavity.from_ordinary(kappa_hz, gamma_hz, 0.0, -1j * xi_frac * kbar_hz, F_PUMP)
    span = span_hz or 1.5 * kappa_hz
    f = np.linspace(F_HALF - span / 2, F_HALF + span / 2, n)
    return cav, GainCurve.from_cavity(cav, f)


def brentq_gbp_oracle(cav: PumpedCavity) -> float:
    """Independent bandwidth measurement: root-find the exact frequency at
    which the gain reads 3 dB below the peak (same level definition as the
    implementation, but a root-finder instead of grid interpolation)."""
    g_peak = abs(signal_gain(cav, F_HALF)) ** 2

    def excess(df):
        return abs(signal_gain(cav, F_HALF + df)) ** 2 - g_peak * 10.0 ** (-0.3)

    hi = 5.0 * cav.kappa_bar / (2 * math.pi)
    df = brentq(excess, 1.0, hi, xtol=1e-3)
    return math.sqrt(g_peak) * 2.0 * df


def test_gbp_matches_brentq_oracle_and_kappa():
    for gain_db in (20.0, 23.0, 25.0, 30.0):
        cav, curve = make_curve(19.8e6, gain_db)
        got = gbp_extract(curve)
        oracle = brentq_gbp_oracle(cav)
        assert got == pytest.approx(oracle, rel=1e-3)
        assert abs(got - 19.8e6) / 19.8e6 < 0.05


def test_gbp_published_operating_point():
    _, curve = make_curve(21.3e6, 25.0, span_hz=10e6, n=4001)
    gbp = gbp_extract(curve)
    assert abs(gbp - 21.3e6) <= 0.6e6


def test_gbp_converges_to_kappa_monotonically():
    kappa_hz = 19.8e6
    fracs = [0.9, 0.95, 0.98, 0.99, 0.995, 0.999]
    ratios = []
    for frac in fracs:
        cav = PumpedCavity.from_ordinary(kappa_hz, 0.0, 0.0, -1j * frac * kappa_hz, F_PUMP)
        f = np.linspace(F_HALF - 2e7, F_HALF + 2e7, 16001)
        ratios.append(gbp_extract(GainCurve.from_cavity(cav, f)) / kappa_hz)
    assert np.all(np.diff(ratios) < 0)
    # Limit of the dB-read level convention: sqrt(10^0.3 - 1) = 0.9976.
    assert all(r > 0.995 for r in ratios)
    assert ratios[-1] == pytest.approx(math.sqrt(10.0**0.3 - 1.0), abs=1e-3)


def test_gbp_band_edges_on_the_first_and_last_points():
    # The 3 dB crossings lie between the first two and the last two points,
    # so both edge scans reach the ends of the grid.
    f = np.linspace(F_HALF - 3e6, F_HALF + 3e6, 7)
    gdb = np.array([16.5, 18.0, 19.0, 20.0, 19.0, 18.0, 16.0])
    curve = GainCurve(f, 10.0 ** (gdb / 20.0) + 0j, gdb)
    left = f[0] + (17.0 - gdb[0]) * (f[1] - f[0]) / (gdb[1] - gdb[0])
    right = f[5] + (17.0 - gdb[5]) * (f[6] - f[5]) / (gdb[6] - gdb[5])
    assert gbp_extract(curve) == pytest.approx(10.0 * (right - left), rel=1e-12)
    gdb[-1] = 17.5  # no crossing on the right any more
    with pytest.raises(ExtractionError):
        gbp_extract(GainCurve(f, 10.0 ** (gdb / 20.0) + 0j, gdb))


def test_gbp_flat_curve_raises():
    f = np.linspace(F_HALF - 1e7, F_HALF + 1e7, 101)
    flat = GainCurve.from_gains(f, np.ones(101, dtype=complex))
    with pytest.raises(ExtractionError):
        gbp_extract(flat)


def test_gain_curve_csv_round_trip(tmp_path):
    _, curve = make_curve(19.8e6, 20.0, n=101)
    path = tmp_path / "curve.csv"
    curve.to_csv(path)
    assert path.read_text().splitlines()[0] == "f_hz,re_g,im_g,gain_db"
    f, re_g, im_g, gain_db = np.loadtxt(path, delimiter=",", skiprows=1, unpack=True)
    assert np.array_equal(f, curve.f_hz)
    assert np.array_equal(re_g + 1j * im_g, curve.complex_gain)
    assert np.array_equal(gain_db, curve.power_gain_db)


def test_find_optimal_pump_recovers_planted_optimum():
    f_r = 5.6735e9
    law = PumpMap(19.8e6, 0.0, f_r, xi_hz_per_sqrt_mw=2.2e9)
    res = find_optimal_pump(law, 20.0, (2 * f_r - 2e7, 2 * f_r + 2e7), (-60.0, -40.0))
    assert res.success
    assert abs(res.f_pump_hz - 2 * f_r) <= 1e4
    assert res.gain_db >= 20.0


def test_find_optimal_pump_zero_target_returns_minimal_power():
    law = PumpMap(19.8e6, 0.0, 5.6735e9, xi_hz_per_sqrt_mw=2.2e9)
    res = find_optimal_pump(law, 0.0, (1.1337e10, 1.1357e10), (-60.0, -40.0))
    assert res.success
    assert res.p_pump_dbm == -60.0


def test_find_optimal_pump_all_unstable_flags_self_oscillation():
    # Pump coupling so strong that even the lowest probed power self-oscillates.
    law = PumpMap(19.8e6, 0.0, 5.6735e9, xi_hz_per_sqrt_mw=1e12)
    res = find_optimal_pump(law, 20.0, (1.1337e10, 1.1357e10), (-60.0, -40.0))
    assert not res.success
    assert res.self_oscillation


def drift_matrix_stable(kappa, gamma, delta, xi) -> bool:
    """Oracle: both eigenvalues of the pump-frame drift matrix of (a, a+) decay."""
    kb = kappa + gamma / 2.0
    m = np.array([[-kb - 1j * delta, -1j * xi], [1j * np.conj(xi), -kb + 1j * delta]])
    return bool(np.max(np.linalg.eigvals(m).real) < 0.0)


def test_is_stable_matches_drift_matrix_eigenvalues():
    rng = np.random.default_rng(41)
    n_between = 0
    for _ in range(400):
        kappa = rng.uniform(0.5, 5.0) * 1e8
        gamma = rng.uniform(0.0, 0.3) * kappa
        kb = kappa + gamma / 2.0
        delta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0) * kappa
        threshold = math.hypot(kb, delta)
        xi_abs = rng.uniform(0.0, 1.3) * threshold
        if abs(xi_abs - threshold) < 1e-6 * threshold:
            continue
        n_between += kb < xi_abs < threshold
        cav = PumpedCavity(kappa, gamma, delta, xi_abs * np.exp(1j * rng.uniform(0, 2 * np.pi)), F_PUMP)
        want = drift_matrix_stable(kappa, gamma, delta, cav.xi)
        assert cav.is_stable == want
        if want:
            assert np.isfinite(abs(signal_gain(cav, F_HALF + delta / (2 * math.pi))))
        else:
            with pytest.raises(DomainError, match="kappa_bar\\^2 \\+ Delta\\^2"):
                signal_gain(cav, F_HALF)
    assert n_between >= 20  # |xi| above kappa_bar yet stable through the detuning


def polynomial_peak_db(kappa, gamma, delta, xi_abs) -> float:
    """Oracle: the largest |g_s|^2 at a real root of d|g_s|^2/d omega, with the
    roots from numpy.polynomial and |g_s| from signal_gain itself."""
    kb = kappa + gamma / 2.0
    d, x = delta / kb, xi_abs / kb
    a = d**2 + 1.0 - x**2
    num = np.polynomial.Polynomial([1.0 + d**2, 2.0 * d, 1.0])
    den = np.polynomial.Polynomial([a**2, 0.0, 4.0 - 2.0 * a, 0.0, 1.0])
    roots = (num.deriv() * den - num * den.deriv()).roots()
    w = roots.real[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots.real))]
    cav = PumpedCavity(kappa, gamma, delta, -1j * xi_abs, F_PUMP)
    g = signal_gain(cav, F_HALF + w * kb / (2.0 * math.pi))
    return float(np.max(10.0 * np.log10(np.abs(g) ** 2)))


@pytest.mark.parametrize(
    "xi_lo, xi_hi, tol_db",
    [(0.0, 0.999, 1e-9), (1.0 - 1e-3, 1.0 - 1e-6, 1e-8)],
    ids=["off-resonance", "near-threshold"],
)
def test_peak_gain_db_matches_polynomial_roots(xi_lo, xi_hi, tol_db):
    rng = np.random.default_rng(42)
    n = 300
    kappa = rng.uniform(0.5, 5.0, n) * 1e8
    gamma = rng.uniform(0.0, 0.3, n) * kappa
    delta = rng.uniform(-3.0, 3.0, n) * kappa
    xi_abs = rng.uniform(xi_lo, xi_hi, n) * np.hypot(kappa + gamma / 2.0, delta)
    got = peak_gain_db(kappa, gamma, delta, xi_abs)
    want = [polynomial_peak_db(*p) for p in zip(kappa, gamma, delta, xi_abs)]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol_db)


def test_peak_gain_db_broadcasts_and_is_nan_without_steady_state():
    kb = KAPPA
    got = peak_gain_db(KAPPA, 0.0, np.array([[0.0], [0.5 * kb]]), np.array([0.9, 1.08, 1.2]) * kb)
    assert got.shape == (2, 3)
    assert np.isfinite(got[0, 0]) and np.isnan(got[0, 1:]).all()
    assert np.isfinite(got[1, :2]).all() and np.isnan(got[1, 2])
    assert got[0, 0] == pytest.approx(20.0 * math.log10(1.0 / (1.0 - 0.81)), abs=1e-12)


class GridLaw:
    """A pump law given by its peak on the whole grid, ``peak_gain_db(f_col,
    p_row)``, with first_stops read off that grid as a point-by-point ramp
    meets them: the grid-wide scan of each level, in place of a PumpMap's
    bands."""

    def __init__(self, peak_gain_db):
        self.peak_gain_db = peak_gain_db

    def first_stops(self, f_pump_hz, p_pump_dbm, target_db):
        g = self.peak_gain_db(f_pump_hz[:, None], p_pump_dbm[None, :])
        stop = ~np.isfinite(g) | (g >= target_db)
        first = np.where(stop.any(axis=1), stop.argmax(axis=1), p_pump_dbm.size)
        peak = g[np.arange(first.size), np.minimum(first, p_pump_dbm.size - 1)]
        return first, np.where(first < p_pump_dbm.size, peak, np.nan)


def scalar_ramp_search(law, target_db, f_bounds, p_bounds, n_f_coarse=41, p_step_db=0.25, refine_to_hz=1e4):
    """Reference: the search as a point-by-point power ramp along every
    frequency row of each level's grid, read from ``law(f_col, p_row)``;
    returns (f, p, gain, n_evaluations, self_oscillation)."""
    p_grid = np.arange(p_bounds[0], p_bounds[1] + 0.5 * p_step_db, p_step_db)
    n, osc, best = 0, False, (-math.inf, None, None)

    def scan(f_values):
        nonlocal n, osc, best
        grid = law(f_values[:, None], p_grid[None, :])
        found = []
        for f, row in zip(f_values, grid):
            for p, g in zip(p_grid, row):
                n += 1
                if not math.isfinite(g):
                    osc = True
                    break
                if g > best[0]:
                    best = (float(g), float(f), float(p))
                if g >= target_db:
                    found.append((float(p), -float(g), float(f)))
                    break
        return found

    step = (f_bounds[1] - f_bounds[0]) / (n_f_coarse - 1)
    found = scan(np.linspace(f_bounds[0], f_bounds[1], n_f_coarse))
    if not found:
        return best[1], best[2], None if best[1] is None else best[0], n, osc
    p_best, neg_g, f_best = min(found)
    for _ in range(8):
        if step <= refine_to_hz:
            break
        lo, hi = max(f_bounds[0], f_best - step), min(f_bounds[1], f_best + step)
        step /= 10.0
        found = scan(np.arange(lo, hi + 0.5 * step, step)) or [(p_best, neg_g, f_best)]
        p_best, neg_g, f_best = min(found)
    return f_best, p_best, -neg_g, n, osc


# (map, search): configs/pump_search.json, two rectangles detuned everywhere by
# half a kappa or more, the same rectangle with a coupling that oscillates at
# every power, and a target out of reach.
F_R = 5.6735e9
PUMP_CASES = {
    "pump_search.json": ((19.8e6, 0.0, F_R, 2.2e9), (20.0, (1.1327e10, 1.1367e10), (-60.0, -40.0))),
    "detuned-above": (
        (19.8e6, 0.0, F_R, 2.2e9),
        (20.0, (2.0 * (F_R - 0.8 * 19.8e6), 2.0 * (F_R - 0.5 * 19.8e6)), (-60.0, -35.0)),
    ),
    "detuned-below": (
        (15e6, 0.5e6, 5.70e9, 1.8e9),
        (18.0, (2.0 * (5.70e9 + 0.55 * 15e6), 2.0 * (5.70e9 + 0.9 * 15e6)), (-62.0, -36.0)),
    ),
    "all-unstable": ((19.8e6, 0.0, F_R, 2.2e9), (20.0, (1.1327e10, 1.1367e10), (-30.0, -20.0))),
    "out-of-reach": ((19.8e6, 0.0, F_R, 2.2e9), (40.0, (1.1327e10, 1.1367e10), (-60.0, -45.0))),
}


@pytest.mark.parametrize(
    "case, refine_to_hz",
    [(case, 1e4) for case in sorted(PUMP_CASES)] + [("pump_search.json", 1e-3)],
    ids=[*sorted(PUMP_CASES), "refinement-cap"],
)
def test_grid_search_matches_scalar_power_ramp(case, refine_to_hz):
    """refinement-cap: a resolution that 8 refinements of the 1 MHz coarse
    step cannot reach, so both searches stop at 0.01 Hz."""
    params, (target, f_bounds, p_bounds) = PUMP_CASES[case]
    law = PumpMap(*params)
    got = find_optimal_pump(law, target, f_bounds, p_bounds, refine_to_hz=refine_to_hz)
    want = scalar_ramp_search(law.peak_gain_db, target, f_bounds, p_bounds, refine_to_hz=refine_to_hz)
    assert (got.f_pump_hz, got.p_pump_dbm, got.gain_db, got.n_evaluations, got.self_oscillation) == want
    assert got.success == (case not in ("all-unstable", "out-of-reach"))
    if got.gain_db is not None:
        assert pump_gain_map(*params)(got.f_pump_hz, got.p_pump_dbm) == pytest.approx(got.gain_db, abs=1e-9)


def test_grid_search_counts_only_what_the_ramps_visit():
    # NaN at -50 dBm, then a higher gain that no ramp reaches.
    def law(f, p):
        g = np.where(p < -50.0, 10.0 + (p + 60.0) / 10.0, 15.0) + 0.0 * f
        return np.where(p == -50.0, np.nan, g)

    got = find_optimal_pump(GridLaw(law), 20.0, (1.0e10, 1.1e10), (-60.0, -40.0), n_f_coarse=5)
    assert not got.success and got.self_oscillation
    assert got.n_evaluations == 5 * 41
    assert (got.f_pump_hz, got.p_pump_dbm, got.gain_db) == (1.0e10, -50.25, pytest.approx(10.975))
    want = scalar_ramp_search(law, 20.0, (1.0e10, 1.1e10), (-60.0, -40.0), n_f_coarse=5)
    assert (got.f_pump_hz, got.p_pump_dbm, got.gain_db, got.n_evaluations, got.self_oscillation) == want


# Laws whose rows stop at -50 dBm, and the point the search must choose.  gain-breaks-tie: every
# row reaches a different gain there, highest at 10.437 GHz.  frequency-breaks-tie: every row reaches
# exactly 20.5 dB, so the lowest frequency wins.  power-first: rows at or above 10.5 GHz stop there at
# 20.2 dB, the rest only at -45 dBm, with 25 dB.
TIE_LAWS = {
    "gain-breaks-tie": (lambda f, p: np.where(p >= -50.0, 21.0 - ((f - 1.0437e10) / 1e9) ** 2, 10.0), (1.0437e10, -50.0, 21.0)),
    "frequency-breaks-tie": (lambda f, p: np.where(p >= -50.0, 20.5, 10.0) + 0.0 * f, (1.0e10, -50.0, 20.5)),
    "power-first": (lambda f, p: np.where(f >= 1.05e10, np.where(p >= -50.0, 20.2, 10.0), np.where(p >= -45.0, 25.0, 10.0)),
                    (1.05e10, -50.0, 20.2)),
}


@pytest.mark.parametrize("case", sorted(TIE_LAWS))
def test_grid_search_orders_candidates_by_power_then_gain_then_frequency(case):
    law, (f_want, p_want, g_want) = TIE_LAWS[case]
    got = find_optimal_pump(GridLaw(law), 20.0, (1.0e10, 1.1e10), (-60.0, -40.0), n_f_coarse=11, refine_to_hz=1e6)
    want = scalar_ramp_search(law, 20.0, (1.0e10, 1.1e10), (-60.0, -40.0), n_f_coarse=11, refine_to_hz=1e6)
    assert (got.f_pump_hz, got.p_pump_dbm, got.gain_db, got.n_evaluations, got.self_oscillation) == want
    assert got.success and got.message == "refined to 1e+06 Hz frequency resolution"
    assert (got.f_pump_hz, got.p_pump_dbm, got.gain_db) == (pytest.approx(f_want, abs=1.0), p_want, pytest.approx(g_want, abs=1e-12))


def test_compression_point_published_numbers():
    p = np.linspace(-110.0, -75.0, 141)
    gain = 21.0 - np.clip(0.1 * (p + 96.0), 0.0, None)
    point = compression_point(SweepRecord(p, gain), 21.0)
    assert point.p_in_1db_dbm == pytest.approx(-86.0, abs=1e-9)
    assert point.p_out_sat_dbm == pytest.approx(-66.0, abs=1e-9)
    assert abs(point.p_out_sat_dbm - (-65.0)) <= 1.0
    # The crossing reached at the second grid point, and only at the last one.
    first = compression_point(SweepRecord(p, np.append(21.0, np.full(140, 19.0))), 21.0)
    assert first.p_in_1db_dbm == pytest.approx(0.5 * (p[0] + p[1]), rel=1e-14)
    last = compression_point(SweepRecord(p, np.append(np.full(140, 21.0), 19.0)), 21.0)
    assert last.p_in_1db_dbm == pytest.approx(0.5 * (p[-2] + p[-1]), rel=1e-14)


def test_compression_point_flat_curve_raises():
    p = np.linspace(-110.0, -75.0, 50)
    with pytest.raises(ExtractionError):
        compression_point(SweepRecord(p, np.full(50, 21.0)), 21.0)


def test_compression_point_logistic_plant():
    rng = np.random.default_rng(6)
    grid = np.linspace(-110.0, -70.0, 161)
    sweep, truth = compression_sweep(21.0, -83.0, 1.5, 6.0, grid, 0.0, rng)
    point = compression_point(sweep, 21.0)
    spacing = grid[1] - grid[0]
    assert abs(point.p_in_1db_dbm - truth["p_in_1db_dbm"]) <= spacing


def test_compression_requires_plateau():
    p = np.linspace(-110.0, -75.0, 50)
    gain = 19.0 - 0.1 * (p + 110.0)  # already compressed at the first point
    with pytest.raises(ExtractionError):
        compression_point(SweepRecord(p, gain), 21.0)
