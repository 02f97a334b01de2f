"""Bitwise regression test of io_dynamics.peak_gain_db.

The library's kernel steps only stable points and stops once every point
repeats a two-value cycle; its answer must still be, bit for bit, that of
the frozen kernel in
tests/reference/peak_gain_16.py, which runs all 16 Newton steps from both
starts at every point.  Equal means np.array_equal with equal_nan and an
equal np.signbit, on seeded grids, at the edges of the domain, on the
levels of the bundled and the detuned pump searches, and on arrays drawn
by hypothesis.

PumpMap.first_stops steps only the band of each power ramp between its
closed-form threshold (io_dynamics._threshold_xi) and the end of its stable
prefix.  The threshold must be conservative, no stable point below it
reaching the floor, and tight at zero detuning; first_stops must return
the stops and the peak bits read off the frozen kernel's whole grid, in any
power order; and the search must give every field of the result that the
exhaustive search of every grid gives.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kipa_lab import io_dynamics
from kipa_lab.io_dynamics import PumpMap, find_optimal_pump, peak_gain_db
from reference.peak_gain_16 import peak_gain_db as reference_peak_gain_db
from test_io_dynamics import F_R, PUMP_CASES, GridLaw

ROOT = Path(__file__).resolve().parent.parent


def assert_same_bits(kappa, gamma, delta, xi):
    got = peak_gain_db(kappa, gamma, delta, xi)
    want = reference_peak_gain_db(kappa, gamma, delta, xi)
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def random_grid(rng, case):
    """(kappa, gamma, delta, xi) on an F x P grid of detunings and pumps."""
    n_f, n_p = rng.integers(1, 40, size=2)
    kappa = rng.uniform(0.5, 5.0) * 1e8
    gamma = rng.uniform(0.0, 0.3) * kappa
    kb = kappa + gamma / 2.0
    if case == "far-detuned":
        d = rng.choice([-1.0, 1.0], (n_f, 1)) * 10.0 ** rng.uniform(-3.0, 6.0, (n_f, 1))
    else:
        d = rng.uniform(-3.0, 3.0, (n_f, 1))
        d[rng.random((n_f, 1)) < 0.2] = 0.0
    if case == "near-threshold":
        frac = 1.0 - 10.0 ** rng.uniform(-9.0, -3.0, (1, n_p))
        return kappa, gamma, d * kb, frac * np.hypot(kb, d * kb)
    if case == "far-detuned":
        return kappa, gamma, d * kb, rng.uniform(0.0, 1.2, (1, n_p)) * np.hypot(kb, d * kb)
    x = rng.uniform(0.0, 3.0, (1, n_p))
    x[rng.random((1, n_p)) < 0.2] = 0.0
    return kappa, gamma, d * kb, x * kb


@pytest.mark.parametrize("case, n_grids", [("mixed", 200), ("near-threshold", 50), ("far-detuned", 50)])
def test_random_grids_match_the_16_step_kernel(case, n_grids):
    """mixed: d in [-3, 3] and x in [0, 3] with zero rows and columns, so
    unstable points too; near-threshold: |xi| in [1 - 1e-3, 1 - 1e-9] of
    the threshold; far-detuned: |Delta| from 1e-3 to 1e6 kappa_bar."""
    rng = np.random.default_rng({"mixed": 1, "near-threshold": 2, "far-detuned": 3}[case])
    for _ in range(n_grids):
        assert_same_bits(*random_grid(rng, case))


def test_scalar_input_gives_a_0d_array():
    for delta, xi in [(0.0, 0.0), (0.3, 0.5), (2.0, 0.5), (0.0, 0.999), (0.5, 2.0)]:
        assert_same_bits(1.0, 0.1, delta, xi)
        assert peak_gain_db(1.0, 0.1, delta, xi).ndim == 0


def test_broadcast_column_against_row():
    kb = 1e8
    assert_same_bits(kb, 0.0, np.array([[0.0], [0.5 * kb]]), np.array([0.9, 1.08, 1.2]) * kb)


def perfbench_inputs():
    """The benchmark's problem generators, perfbench/inputs.py."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return inputs


def as_search(problem):
    """A pump-search config as (map, search) keyword dicts."""
    s = dict(problem["search"])
    s["f_bounds"] = tuple(s.pop("f_bounds_hz"))
    s["p_bounds_dbm"] = tuple(s["p_bounds_dbm"])
    return problem["map"], s


def pump_problems():
    """The bundled pump search and both detuned benchmark searches, as
    (map, search) keyword dicts."""
    bundled = json.loads((ROOT / "configs" / "pump_search.json").read_text())
    return [as_search(p) for p in [bundled, *perfbench_inputs().DETUNED_PUMP_PROBLEMS]]


def reference_law(law):
    """GridLaw of the frozen kernel at the rates of the PumpMap ``law``."""

    def peak(f_pump_hz, p_pump_dbm):
        with np.errstate(over="ignore", invalid="ignore"):  # the frozen kernel at powers past 3000 dBm
            xi = law.xi_hz_per_sqrt_mw * 10.0 ** (p_pump_dbm / 20.0)
            return reference_peak_gain_db(law.kappa_hz, law.gamma_hz, law.f_r_hz - f_pump_hz / 2.0, xi)

    return GridLaw(peak)


def same_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("i", range(3), ids=["bundled", "detuned-below", "detuned-above"])
def test_pump_search_levels_and_result_match_the_16_step_kernel(i):
    m, search = pump_problems()[i]
    law = PumpMap(**m)
    grids = []

    def first_stops(f_pump_hz, p_pump_dbm, target_db):
        grids.append((f_pump_hz, p_pump_dbm))
        return law.first_stops(f_pump_hz, p_pump_dbm, target_db)

    got = find_optimal_pump(SimpleNamespace(first_stops=first_stops, peak_gain_db=law.peak_gain_db), **search)
    assert len(grids) >= 3
    delta = m["f_r_hz"] - np.concatenate([f for f, _ in grids])[:, None] / 2.0
    xi = m["xi_hz_per_sqrt_mw"] * 10.0 ** (grids[0][1] / 20.0)
    assert_same_bits(m["kappa_hz"], m["gamma_hz"], delta, xi)
    assert find_optimal_pump(reference_law(law), **search) == got


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_drawn_arrays_match_the_16_step_kernel(data):
    shapes = data.draw(hnp.mutually_broadcastable_shapes(num_shapes=4, min_dims=0, max_dims=3, max_side=6))
    rate = st.floats(0.01, 100.0)

    def draw(shape, elements):
        return data.draw(hnp.arrays(float, shape, elements=elements))

    kappa = draw(shapes.input_shapes[0], rate)
    gamma = draw(shapes.input_shapes[1], st.one_of(st.just(0.0), rate))
    delta = draw(shapes.input_shapes[2], st.one_of(st.just(0.0), st.floats(-1e4, 1e4)))
    frac = draw(shapes.input_shapes[3], st.one_of(st.just(0.0), st.floats(0.0, 1.5)))
    if data.draw(st.booleans()):
        xi = frac * np.hypot(kappa + gamma / 2.0, delta)
    else:
        xi = frac * 100.0
    assert_same_bits(kappa, gamma, delta, xi)


@pytest.mark.parametrize("case", sorted(PUMP_CASES))
def test_pruned_search_equals_exhaustive_search_on_pump_cases(case):
    params, (target, f_bounds, p_bounds) = PUMP_CASES[case]
    law = PumpMap(*params)
    got = find_optimal_pump(law, target, f_bounds, p_bounds)
    assert find_optimal_pump(GridLaw(law.peak_gain_db), target, f_bounds, p_bounds) == got
    assert find_optimal_pump(reference_law(law), target, f_bounds, p_bounds) == got


@pytest.mark.parametrize("setting", [{"target_db": 1e308}, {"target_db": -1e308}, {"target_db": 0.0}, {"refine_to_hz": 1e-3}],
                         ids=["target-1e308", "target--1e308", "target-0", "refinement-cap"])
@pytest.mark.parametrize("case", sorted(PUMP_CASES))
def test_pruned_search_equals_exhaustive_search_at_extreme_settings(case, setting):
    params, (target, f_bounds, p_bounds) = PUMP_CASES[case]
    search = {"target_db": target, "f_bounds": f_bounds, "p_bounds_dbm": p_bounds, **setting}
    law = PumpMap(*params)
    assert find_optimal_pump(law, **search) == find_optimal_pump(GridLaw(law.peak_gain_db), **search)


def test_pruned_search_equals_exhaustive_search_on_drawn_problems():
    """200 benchmark problems: every field of the result."""
    inputs, rng = perfbench_inputs(), np.random.default_rng(16)
    for _ in range(200):
        m, search = as_search(inputs.pump_problem(rng))
        law = PumpMap(**m)
        got = find_optimal_pump(law, **search)
        assert got.success
        assert find_optimal_pump(GridLaw(law.peak_gain_db), **search) == got


# Maps whose rows step every stable point: k^2 = (kappa/kappa_bar)^2 underflows to 0, so every
# peak is -inf and stops its ramp; rows detuned by up to 5e6 kappa_bar; rows whose d^2 overflows.
UNSKIPPED_ROWS = [
    ({"kappa_hz": 1.0, "gamma_hz": 2e162, "f_r_hz": F_R, "xi_hz_per_sqrt_mw": 2.2e9},
     {"target_db": 20.0, "f_bounds": (1.1327e10, 1.1367e10), "p_bounds_dbm": (-60.0, -40.0)}),
    ({"kappa_hz": 19.8e6, "gamma_hz": 0.0, "f_r_hz": 1e14, "xi_hz_per_sqrt_mw": 2.2e9},
     {"target_db": 20.0, "f_bounds": (1e12, 2.0001e14), "p_bounds_dbm": (-60.0, 200.0), "p_step_db": 2.0}),
    ({"kappa_hz": 1.0, "gamma_hz": 0.0, "f_r_hz": 1e300, "xi_hz_per_sqrt_mw": 1.0},
     {"target_db": 20.0, "f_bounds": (1.0, 1e10), "p_bounds_dbm": (5900.0, 6100.0), "p_step_db": 5.0}),
]


def stop_levels():
    """(PumpMap, f_pump_hz, p_pump_dbm, target_db) levels: the coarse levels of
    drawn benchmark problems, of PUMP_CASES and of UNSKIPPED_ROWS, at their
    targets and at +-1e308, 0 and NaN; power rows in ramp order, shuffled,
    with steps of 1e-13 dB (where 10**(p/20) is not monotone to the ulp) and
    past 3000 dBm."""
    inputs, rng = perfbench_inputs(), np.random.default_rng(31)
    problems = [as_search(inputs.pump_problem(rng)) for _ in range(30)]
    problems += [({"kappa_hz": k, "gamma_hz": g, "f_r_hz": f_r, "xi_hz_per_sqrt_mw": c},
                  {"target_db": t, "f_bounds": fb, "p_bounds_dbm": pb}) for (k, g, f_r, c), (t, fb, pb) in PUMP_CASES.values()]
    for m, s in problems + UNSKIPPED_ROWS:
        f = np.linspace(*s["f_bounds"], s.get("n_f_coarse", 41))
        p = np.arange(s["p_bounds_dbm"][0], s["p_bounds_dbm"][1] + 0.125, s.get("p_step_db", 0.25))
        near = p[np.argmin(np.abs(p - rng.choice(p)))] + 1e-13 * np.arange(-40, 41)
        for powers in (p, rng.permutation(p), near, rng.permutation(near), np.array([-60.0, 3000.0, -45.0, 6000.0, -40.0])):
            for target in (s["target_db"], 1e308, -1e308, 0.0, np.nan):
                yield PumpMap(**m), f, powers, target


def test_first_stops_match_the_16_step_reference_grid():
    """Stops and peak bits equal those read off the frozen kernel's whole
    grid and off the library's, but for the sign of a NaN peak, which no
    kernel keeps: on rows whose d^2 overflows, stable points are NaN of a
    sign that depends on the kernel and on the points stepped with them."""

    def canonical(peaks):
        return np.where(np.isnan(peaks), np.nan, peaks)

    for law, f, p, target in stop_levels():
        stops, peaks = law.first_stops(f, p, target)
        for grid in (reference_law(law), GridLaw(law.peak_gain_db)):
            want_stops, want_peaks = grid.first_stops(f, p, target)
            assert np.array_equal(stops, want_stops)
            assert same_bits(canonical(peaks), canonical(want_peaks))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_threshold_is_conservative_and_tight_at_zero_detuning(data):
    """No stable point below a row's threshold |xi| has an exact peak at or
    above the floor, with detunings d up to 1e6 kappa_bar and past the point
    where d^2 overflows, |xi| up to 1 - 1e-12 of the stability threshold and
    of the row's own threshold, and floors over +-1e308.  At zero detuning
    the bound is the peak, so just above the threshold the peak is within
    the margin of the floor (up to the cap of the level, near 2500 dB)."""
    n = data.draw(st.integers(1, 8))
    kappa = data.draw(st.floats(0.01, 100.0))
    gamma = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    kb = kappa + gamma / 2.0
    d = data.draw(hnp.arrays(float, (n, 1), elements=st.one_of(
        st.just(0.0), st.floats(-1.0, 1.0), st.floats(-10.0, 10.0), st.floats(-1e3, 1e3), st.floats(-1e6, 1e6),
        st.floats(1e154, 1e300), st.floats(-1e300, -1e154))))
    frac = data.draw(hnp.arrays(float, (1, 8), elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(1e-12, 1e-3).map(lambda u: 1.0 - u))))
    floor = data.draw(st.one_of(st.floats(-20.0, 80.0), st.floats(80.0, 3000.0), st.floats(-1e308, 1e308),
                                st.sampled_from([0.0, 1e308, -1e308])))
    delta = d * kb
    threshold = io_dynamics._threshold_xi(kappa, gamma, delta, floor)
    assert threshold.shape == delta.shape and np.all(threshold >= 0.0)
    xi = np.concatenate([frac * np.hypot(kb, delta), threshold * np.array([1.0 - 1e-12, 1.0 - 1e-15, 1.0])], axis=1)
    exact = peak_gain_db(kappa, gamma, delta, xi)
    below = io_dynamics.drift_stable(kb, delta, xi) & (xi < threshold)
    assert np.all(np.isfinite(exact[below])) and np.all(exact[below] < floor)
    zero = (delta[:, 0] == 0.0) & (threshold[:, 0] > 0.0) & (floor < 2000.0 + 20.0 * np.log10(kappa / kb))
    above = peak_gain_db(kappa, gamma, 0.0, threshold[zero] * (1.0 + 1e-9))
    assert np.all(np.isnan(above) | (above >= floor - 2e-6))
