import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import curve_fit

from kipa_lab import fitkit, io_dynamics, synthetic
from kipa_lab.config import read_sweep
from kipa_lab.errors import DomainError, FitError, RankError
from kipa_lab.fitkit import SweepRecord, _numeric_jacobian, linear_fit, nlls_fit, proportional_fit


def lorentzian_mag(x, p):
    k, f0, a = p
    return a / np.sqrt((x - f0) ** 2 + (k / 2.0) ** 2)


def test_linear_fit_exact_line():
    x = np.linspace(-3, 7, 11)
    res = linear_fit(SweepRecord(x, 2.0 * x + 3.0))
    assert res.params == pytest.approx([2.0, 3.0], rel=1e-12)
    assert res.reduced_chi2 == pytest.approx(0.0, abs=1e-20)
    assert res.converged


def test_linear_fit_fixed_slope_intercept():
    x = np.linspace(0, 5, 6)
    res = linear_fit(SweepRecord(x, x + 0.731), fixed_slope=1.0)
    assert res.params[0] == 1.0
    assert res.params[1] == pytest.approx(0.731, rel=1e-14)
    assert res.covariance[0, 0] == 0.0


def test_linear_fit_weighted_covariance_analytic():
    # Heteroscedastic plant: the intercept variance of a fixed-slope fit is
    # exactly 1/sum(w).
    rng = np.random.default_rng(5)
    x = np.linspace(0, 1, 20)
    sigma = 10.0 ** rng.uniform(-2, 0, size=20)
    data = SweepRecord(x, x + 1.0, sigma)
    res = linear_fit(data, fixed_slope=1.0)
    assert res.stderr[1] == pytest.approx(1.0 / np.sqrt(np.sum(1.0 / sigma**2)), rel=1e-10)

    # Free fit covariance equals the independently assembled (X^T W X)^-1.
    res2 = linear_fit(data)
    X = np.column_stack([x, np.ones_like(x)])
    W = np.diag(1.0 / sigma**2)
    cov = np.linalg.inv(X.T @ W @ X)
    assert res2.covariance == pytest.approx(cov, rel=1e-10)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("column", [np.ones_like, np.square], ids=["intercept", "b-squared"])
def test_proportional_fit_matches_curve_fit(column, weighted):
    # Oracle: scipy's curve_fit of y = p*b with the exact Jacobian and sigma
    # at face value; chi^2 is recomputed from its parameter.
    rng = np.random.default_rng(11)
    x = np.linspace(0.2, 6.0, 17)
    b = column(x)
    y = 0.37 * b + rng.normal(0.0, 0.05, x.size)
    sigma = 10.0 ** rng.uniform(-2.0, -0.5, x.size) if weighted else None
    p, var, rchi2 = proportional_fit(y, b, np.ones_like(x) if sigma is None else 1.0 / sigma**2)
    popt, pcov = curve_fit(lambda xx, q: q * column(xx), x, y, p0=[1.0], sigma=sigma, absolute_sigma=True,
                           jac=lambda xx, q: column(xx)[:, None])
    assert p == pytest.approx(popt[0], rel=1e-12)
    assert np.sqrt(var) == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-12)
    z = (y - popt[0] * b) / (1.0 if sigma is None else sigma)
    assert rchi2 == pytest.approx(np.sum(z**2) / (x.size - 1), rel=1e-12)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
def test_fixed_slope_intercept_matches_polyfit(weighted):
    # Oracle: numpy.polyfit of degree 0 on y - a*x, unscaled covariance.
    rng = np.random.default_rng(12)
    x = np.linspace(0.0, 2.0, 9)
    sigma = 10.0 ** rng.uniform(-2.0, 0.0, x.size) if weighted else None
    data = SweepRecord(x, 1.0 * x + 0.286 + rng.normal(0.0, 0.01, x.size), sigma)
    res = linear_fit(data, fixed_slope=1.0)
    c, cov = np.polyfit(x, data.y - x, 0, w=None if sigma is None else 1.0 / sigma, cov="unscaled")
    assert res.params[1] == pytest.approx(c[0], rel=1e-12)
    assert res.stderr[1] == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)


def test_proportional_fit_without_weight_raises():
    with pytest.raises(DomainError, match="no point carries weight"):
        proportional_fit(np.ones(3), np.full(3, 1e-200), np.ones(3))


def _mp_line(x, y, w, fixed_slope):
    """(a, b, covariance) of the weighted least-squares line at 50 digits, from the raw sums."""
    with mp.workdps(50):
        x, y, w = ([mp.mpf(float(v)) for v in col] for col in (x, y, w))
        s, sx, sy = mp.fsum(w), mp.fsum(map(mp.fmul, w, x)), mp.fsum(map(mp.fmul, w, y))
        if fixed_slope is not None:
            a = mp.mpf(fixed_slope)
            return a, (sy - a * sx) / s, [[0, 0], [0, 1 / s]]
        sxx, sxy = mp.fsum(wi * xi * xi for wi, xi in zip(w, x)), mp.fsum(wi * xi * yi for wi, xi, yi in zip(w, x, y))
        d = s * sxx - sx * sx
        return (s * sxy - sx * sy) / d, (sxx * sy - sx * sxy) / d, [[s / d, -sx / d], [-sx / d, sxx / d]]


@pytest.mark.parametrize("offset", [0.0, 1e2, 1e4, 1e6])
def test_linear_fit_matches_mpmath_oracle_at_an_x_offset(offset):
    # Oracle: the normal equations solved at 50 digits.  The intercept's error is scaled by
    # max(|b|, |a|*offset), the size of the terms that cancel in it.
    rng = np.random.default_rng(27)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        x = offset + np.sort(rng.uniform(-5.0, 5.0, n))
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0)
        sigma = 10.0 ** rng.uniform(-2.0, 0.0, n)
        data = SweepRecord(x, a * x + b + rng.normal(0.0, sigma), sigma)
        for fixed_slope in (None, a):
            res = linear_fit(data, fixed_slope)
            oa, ob, ocov = _mp_line(x, data.y, data.weights, fixed_slope)
            assert abs(res.params[0] - oa) <= 1e-12 * abs(oa)
            assert abs(res.params[1] - ob) <= 1e-12 * max(abs(ob), abs(oa) * offset)
            for i, j in np.ndindex(2, 2):
                assert abs(res.covariance[i, j] - ocov[i][j]) <= 1e-12 * abs(ocov[i][j]), (i, j)


def test_linear_fit_exact_line_far_from_the_origin():
    # Around x = 1e8 the 2x2 normal matrix is singular in double precision; the centred fit is not.
    x = 1e8 + np.linspace(0.0, 1.0, 11)
    res = linear_fit(SweepRecord(x, 2.0 * x + 3.0))
    assert res.params == pytest.approx([2.0, 3.0], rel=1e-6)


@pytest.mark.parametrize("fixed_slope", [None, 1.0], ids=["free", "fixed"])
def test_linear_fit_without_weight_raises_in_both_modes(fixed_slope):
    # Every weight 1/sigma_y^2 underflows to 0: the same domain error whether or not the slope is free.
    with pytest.raises(DomainError, match="no point carries weight"):
        linear_fit(SweepRecord(np.arange(4.0), np.arange(4.0), np.full(4, 1e200)), fixed_slope)


def test_linear_fit_degenerate_x_raises():
    with pytest.raises(RankError):
        linear_fit(SweepRecord(np.ones(5), np.arange(5.0)))


def test_linear_fit_needs_points():
    with pytest.raises(FitError):
        linear_fit(SweepRecord(np.array([1.0]), np.array([2.0])))


def test_nlls_lorentzian_noiseless_recovery():
    x = np.linspace(-5, 5, 201)
    true = np.array([1.3, 0.4, 2.0])
    y = lorentzian_mag(x, true)
    res = nlls_fit(lorentzian_mag, SweepRecord(x, y), [1.0, 0.0, 1.5])
    assert res.converged
    assert np.max(np.abs(res.params - true) / true) < 1e-9


def test_nlls_matches_scipy_curve_fit():
    rng = np.random.default_rng(17)
    x = np.linspace(-5, 5, 201)
    true = np.array([1.3, 0.4, 2.0])
    y = lorentzian_mag(x, true) + rng.normal(0, 0.01, x.size)
    data = SweepRecord(x, y, np.full(x.size, 0.01))
    res = nlls_fit(lorentzian_mag, data, [1.0, 0.0, 1.5])
    popt, _ = curve_fit(
        lambda xx, k, f0, a: lorentzian_mag(xx, (k, f0, a)), x, y, p0=[1.0, 0.0, 1.5], sigma=np.full(x.size, 0.01)
    )
    assert res.params == pytest.approx(popt, rel=1e-6)


def test_nlls_gain_curve_plant_kappa_within_3_sigma():
    rng = np.random.default_rng(11)
    # 1% amplitude noise is about 0.043 dB on the power-gain curve.
    cav = io_dynamics.PumpedCavity.from_ordinary(1.98e7, 1.0e6, 0.0, -1j * 0.9487 * (1.98e7 + 0.5e6), 1.1347e10)
    curve = io_dynamics.GainCurve.from_cavity(cav, np.linspace(5.6735e9 - 2e8, 5.6735e9 + 2e8, 801))
    sweep, truth = synthetic.gain_sweep(cav, curve, 0.043, rng)
    p0 = [1.9e7, 1.5e6, 1e5, truth["xi_hz"] * 0.95]
    res = nlls_fit(lambda x, p: io_dynamics.gain_db_model(x, p, 1.1347e10), sweep, p0)
    assert res.converged
    assert abs(res.params[0] - truth["kappa_hz"]) < 3.0 * res.stderr[0]


def test_nlls_clem_plant_recovery():
    f_r0, alpha = 5.75e9, 0.9

    def clem_model(i, p):
        i_star, n = p
        r = (1.0 - (np.abs(i) / i_star) ** n) ** (-1.0 / n)
        return f_r0 * ((1.0 - alpha) + alpha * r) ** -0.5

    i = np.linspace(0, 160e-6, 25)
    true = np.array([345e-6, 2.21])
    y = clem_model(i, true)
    res = nlls_fit(clem_model, SweepRecord(i, y), [300e-6, 2.0])
    assert np.max(np.abs(res.params - true) / true) < 0.005
    assert abs(res.params[0] - 345e-6) / 345e-6 < 1e-6  # noiseless case is exact


def test_nlls_reordering_invariance():
    rng = np.random.default_rng(3)
    x = np.linspace(-5, 5, 101)
    y = lorentzian_mag(x, (1.3, 0.4, 2.0)) + rng.normal(0, 0.01, x.size)
    data = SweepRecord(x, y)
    res1 = nlls_fit(lorentzian_mag, data, [1.0, 0.0, 1.5])
    perm = rng.permutation(x.size)
    res2 = nlls_fit(lorentzian_mag, SweepRecord(x[perm], y[perm]), [1.0, 0.0, 1.5])
    assert res1.params == pytest.approx(res2.params, rel=1e-9)


def test_nlls_sigma_rescale_invariance():
    rng = np.random.default_rng(4)
    x = np.linspace(-5, 5, 101)
    y = lorentzian_mag(x, (1.3, 0.4, 2.0)) + rng.normal(0, 0.01, x.size)
    sigma = np.full(x.size, 0.01)
    res1 = nlls_fit(lorentzian_mag, SweepRecord(x, y, sigma), [1.0, 0.0, 1.5])
    res3 = nlls_fit(lorentzian_mag, SweepRecord(x, y, 3.0 * sigma), [1.0, 0.0, 1.5])
    assert res1.params == pytest.approx(res3.params, rel=1e-12)
    assert res3.covariance == pytest.approx(9.0 * res1.covariance, rel=1e-9)


def test_numeric_jacobian_matches_analytic_quadratic():
    def quad(x, p):
        return p[0] * x**2 + p[1] * x + p[2]

    x = np.linspace(-2, 2, 41)
    p = np.array([1.7, -0.3, 0.9])
    J = _numeric_jacobian(quad, x, p)
    J_exact = np.column_stack([x**2, x, np.ones_like(x)])
    assert np.max(np.abs(J - J_exact) / np.maximum(np.abs(J_exact), 1e-12)) < 1e-6


def test_linear_and_nlls_agree_on_linear_model():
    rng = np.random.default_rng(8)
    x = np.linspace(0, 10, 50)
    y = 1.5 * x - 2.0 + rng.normal(0, 0.1, 50)
    data = SweepRecord(x, y)
    lin = linear_fit(data)
    nl = nlls_fit(lambda xx, p: p[0] * xx + p[1], data, [1.0, 0.0])
    assert nl.params == pytest.approx(lin.params, rel=1e-9)


def test_zero_jacobian_column_raises_rank_error():
    def model(x, p):
        return p[0] * x + 0.0 * p[1]

    with pytest.raises(RankError):
        nlls_fit(model, SweepRecord(np.arange(5.0), 2.0 * np.arange(5.0)), [1.0, 1.0])


def test_rank_deficient_fit_raises_rank_error():
    # Two planted currents do not pin (I*, n): the normal matrix inverts to a
    # negative variance, which must not be reported as a zero stderr.
    from kipa_lab.ki_device import ResonatorParams, fit_clem_tuning
    res = ResonatorParams(l_k0=7.4e-8, l_t=8.24e-8, i_star=3.45e-4, i_sw=1.82e-4, clem_exponent=2.21, f_r0=5.75e9, alpha=0.9)
    sweep, _ = synthetic.clem_tuning_sweep(res, np.linspace(0.0, 0.9 * res.i_sw, 2), 1e-4, np.random.default_rng(0))
    with pytest.raises(RankError, match="not finite and positive"):
        fit_clem_tuning(sweep, res.f_r0, res.alpha)


def test_clem_fit_rejects_all_zero_currents():
    from kipa_lab.ki_device import fit_clem_tuning
    with pytest.raises(RankError, match="all bias currents are zero"):
        fit_clem_tuning(SweepRecord(np.zeros(3), np.full(3, 5.75e9)), 5.75e9, 0.9)


def test_nonconvergence_is_flagged_not_raised(monkeypatch):
    # One real iteration budget: cannot converge, must not raise.
    def model(x, p):
        return np.exp(-p[0] * x) * np.cos(p[1] * x)

    x = np.linspace(0, 5, 80)
    y = model(x, (0.7, 3.1))
    monkeypatch.setattr(fitkit, "_MAX_ITER", 2)
    res = nlls_fit(model, SweepRecord(x, y), [2.0, 1.0])
    assert not res.converged
    assert res.n_iterations == 2


def test_sweep_record_csv_round_trip(tmp_path):
    data = SweepRecord(np.array([1.0, 2.0]), np.array([3.5, -1.25]), np.array([0.1, 0.2]))
    path = tmp_path / "sweep.csv"
    data.to_csv(path)
    back = read_sweep(path)
    assert np.array_equal(back.x, data.x)
    assert np.array_equal(back.y, data.y)
    assert np.array_equal(back.sigma_y, data.sigma_y)


def test_sweep_record_validation():
    with pytest.raises(FitError):
        SweepRecord(np.arange(3.0), np.arange(4.0))
    with pytest.raises(FitError):
        SweepRecord(np.arange(3.0), np.arange(3.0), np.array([1.0, -1.0, 1.0]))
