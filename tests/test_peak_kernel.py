"""Bitwise regression test of io_dynamics.peak_gain_db.

The library's kernel steps only the points whose result is not yet known
and stops each point once it repeats a two-value cycle; its answer must
still be, bit for bit, that of the frozen kernel in
tests/reference/peak_gain_16.py, which runs all 16 Newton steps from both
starts at every point.  Equal means np.array_equal with equal_nan and an
equal np.signbit, on seeded grids, at the edges of the domain, on the
levels of the bundled and the detuned pump searches, and on arrays drawn
by hypothesis.

With a floor, the kernel skips the points whose closed-form upper bound
lies below it.  The bound must never be below the kernel's value and must
equal it at zero detuning, and the pump search, which passes its target as
the floor, must give every field of the result an exhaustive search gives.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kipa_lab import io_dynamics
from kipa_lab.io_dynamics import find_optimal_pump, peak_gain_db
from kipa_lab.synthetic import PumpMap
from reference.peak_gain_16 import peak_gain_db as reference_peak_gain_db
from test_io_dynamics import PUMP_CASES

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


def reference_ignoring_floor(kappa, gamma, delta, xi, floor_db=-np.inf):
    """The frozen kernel under peak_gain_db's signature: exact everywhere."""
    return reference_peak_gain_db(kappa, gamma, delta, xi)


@pytest.mark.parametrize("i", range(3), ids=["bundled", "detuned-below", "detuned-above"])
def test_pump_search_levels_and_result_match_the_16_step_kernel(i, monkeypatch):
    m, search = pump_problems()[i]
    law = PumpMap(**m)
    grids = []

    def evaluator(f_pump_hz, p_pump_dbm, floor_db):
        grids.append((f_pump_hz, p_pump_dbm))
        return law.peak_gain_db(f_pump_hz, p_pump_dbm)

    got = find_optimal_pump(evaluator, **search)
    assert len(grids) >= 3
    delta = m["f_r_hz"] - np.concatenate([f for f, _ in grids]) / 2.0
    xi = m["xi_hz_per_sqrt_mw"] * 10.0 ** (grids[0][1] / 20.0)
    assert_same_bits(m["kappa_hz"], m["gamma_hz"], delta, xi)
    monkeypatch.setattr(io_dynamics, "peak_gain_db", reference_ignoring_floor)
    assert find_optimal_pump(law.peak_gain_db, **search) == got


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
def test_pruned_search_equals_exhaustive_search_on_pump_cases(case, monkeypatch):
    params, (target, f_bounds, p_bounds) = PUMP_CASES[case]
    law = PumpMap(*params).peak_gain_db
    got = find_optimal_pump(law, target, f_bounds, p_bounds)
    assert find_optimal_pump(lambda f, p, floor_db: law(f, p), target, f_bounds, p_bounds) == got
    monkeypatch.setattr(io_dynamics, "peak_gain_db", reference_ignoring_floor)
    assert find_optimal_pump(law, target, f_bounds, p_bounds) == got


def test_pruned_search_equals_exhaustive_search_on_drawn_problems():
    """200 benchmark problems: every field of the result, floor or none."""
    inputs, rng = perfbench_inputs(), np.random.default_rng(16)
    for _ in range(200):
        m, search = as_search(inputs.pump_problem(rng))
        law = PumpMap(**m).peak_gain_db
        got = find_optimal_pump(law, **search)
        assert got.success
        assert find_optimal_pump(lambda f, p, floor_db: law(f, p), **search) == got


def same_bits(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_closed_form_bound(data):
    """peak_gain_db(..., floor_db=inf) returns the bound at every stable point
    where it is finite: never below the kernel, equal to it at Delta = 0.  A
    floor changes only values it returns below the floor, and NaN marks
    exactly the points without a steady state."""
    n = data.draw(st.integers(1, 8))
    kappa = data.draw(st.floats(0.01, 100.0))
    gamma = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 100.0)))
    kb = kappa + gamma / 2.0
    d = data.draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(-1.0, 1.0), st.floats(-10.0, 10.0), st.floats(-1e3, 1e3))))
    frac = data.draw(hnp.arrays(float, n, elements=st.one_of(
        st.just(0.0), st.floats(0.0, 1.0, exclude_max=True), st.floats(1e-12, 1e-3).map(lambda u: 1.0 - u))))
    delta = d * kb
    xi = frac * np.hypot(kb, delta)
    floor = data.draw(st.floats(-20.0, 80.0))
    exact = peak_gain_db(kappa, gamma, delta, xi)
    bound = peak_gain_db(kappa, gamma, delta, xi, floor_db=np.inf)
    pruned = peak_gain_db(kappa, gamma, delta, xi, floor_db=floor)
    unstable = ~io_dynamics.drift_stable(kb, delta, xi)
    for got in (exact, bound, pruned):
        assert np.array_equal(np.isnan(got), unstable)
    assert np.all(bound[~unstable] >= exact[~unstable])
    at_zero = ~unstable & (delta == 0.0)
    assert np.all(np.abs(bound[at_zero] - exact[at_zero]) <= 1e-9)
    kept = ~(pruned < floor)
    assert same_bits(pruned[kept], exact[kept])
    assert np.all(pruned[~unstable] >= exact[~unstable])
