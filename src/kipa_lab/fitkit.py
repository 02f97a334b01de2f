"""Generic fitting engine: weighted linear regression and damped nonlinear
least squares with numeric Jacobians.

The nonlinear solver is a fixed, reproducible Levenberg-Marquardt variant:
central-difference Jacobians with relative step 1e-6, damping factor adapted
by x10 on rejection and /10 on acceptance, and hard convergence tolerances.
The tolerances are module constants so every run uses the same ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, FitError, RankError
from .report import write_csv


@dataclass
class SweepRecord:
    """A generic (x, y, sigma_y) dataset for fits.

    sigma_y is optional; when present it must be positive, with a finite
    weight 1/sigma_y^2, and is used as inverse-variance weights.
    """

    x: np.ndarray
    y: np.ndarray
    sigma_y: Optional[np.ndarray] = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.y = np.asarray(self.y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise FitError("x and y must be 1-d arrays of equal length")
        if self.sigma_y is not None:
            self.sigma_y = np.asarray(self.sigma_y, dtype=float)
            if self.sigma_y.shape != self.x.shape:
                raise FitError("sigma_y must match x in length")
            if np.any(self.sigma_y <= 0.0):
                raise FitError("sigma_y entries must be positive")
            with np.errstate(over="ignore", divide="ignore"):
                if not np.all(np.isfinite(1.0 / self.sigma_y**2)):
                    raise FitError(f"sigma_y entries must give a finite weight 1/sigma_y^2, not {np.min(self.sigma_y):g}")

    def __len__(self) -> int:
        return self.x.size

    @property
    def weights(self) -> np.ndarray:
        if self.sigma_y is None:
            return np.ones_like(self.x)
        with np.errstate(over="ignore"):  # a sigma_y above ~1.3e154 weighs 0
            return 1.0 / self.sigma_y**2

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            write_csv(fh, ["x", "y", "sigma_y"], [self.x, self.y, [""] * len(self) if self.sigma_y is None else self.sigma_y])


@dataclass
class FitResult:
    params: np.ndarray
    covariance: np.ndarray
    reduced_chi2: float
    n_iterations: int
    converged: bool

    @property
    def stderr(self) -> np.ndarray:
        return np.sqrt(np.clip(np.diag(self.covariance), 0.0, None))


def proportional_fit(y: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple:
    """Weighted least squares of y = p*b through the origin, with weights w.

    Returns (p, var_p, reduced_chi2): p = sum(w*b*y)/sum(w*b^2), its
    variance 1/sum(w*b^2) with w taken at face value, and chi^2 over n - 1
    degrees of freedom (0.0 when n = 1).  A zero sum(w*b^2), as when every
    b is zero or w*b^2 underflows, raises DomainError.
    """
    wb = w * b
    denom = float(np.sum(wb * b))
    if denom == 0.0:
        raise DomainError("no point carries weight in the fit: each point's weight times its squared regressor is zero")
    p = float(np.sum(wb * y)) / denom
    resid = y - p * b
    dof = y.size - 1
    return p, 1.0 / denom, float(np.sum(w * resid**2)) / dof if dof > 0 else 0.0


def linear_fit(data: SweepRecord, fixed_slope: Optional[float] = None) -> FitResult:
    """Weighted least-squares straight line y = a*x + b, params [a, b].

    A free slope is proportional_fit of y - y_w on x - x_w about the weighted
    centroid (x_w, y_w), losing no digits to an offset in x; a ``fixed_slope``
    has var_a = 0.  The intercept is proportional_fit of y - a*x on ones, with
    variance var_b + x_w^2*var_a and cov_ab = -x_w*var_a.  sigma_y is taken at
    face value (unit weights without it); a free line's chi^2 has n - 2 dof.
    """
    n, w, ones = len(data), data.weights, np.ones(len(data))
    a, var_a, x_w = fixed_slope, 0.0, 0.0
    if fixed_slope is None:
        if n < 2:
            raise FitError("line fit needs at least 2 points")
        if np.ptp(data.x) == 0.0:
            raise RankError("all x values identical; slope is undetermined")
        x_w, y_w = (proportional_fit(v, ones, w)[0] for v in (data.x, data.y))
        a, var_a, _ = proportional_fit(data.y - y_w, data.x - x_w, w)
    elif n < 1:
        raise FitError("intercept fit needs at least 1 point")
    b, var_b, rchi2 = proportional_fit(data.y - a * data.x, ones, w)
    if fixed_slope is None:
        rchi2 = rchi2 * (n - 1) / (n - 2) if n > 2 else 0.0
    cov_ab = -x_w * var_a
    cov = np.array([[var_a, cov_ab], [cov_ab, var_b - x_w * cov_ab]])
    return FitResult(params=np.array([a, b]), covariance=cov, reduced_chi2=rchi2, n_iterations=1, converged=True)


# Levenberg-Marquardt settings, fixed for reproducibility.
_REL_STEP = 1e-6  # central-difference Jacobian step, relative
_LAMBDA0 = 1e-3
_LAMBDA_FACTOR = 10.0  # damping x10 on rejection, /10 on acceptance
_LAMBDA_MAX = 1e12
_RTOL_COST = 1e-12
_RTOL_STEP = 1e-12
_MAX_ITER = 200


def _numeric_jacobian(model: Callable, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian d model / d p, shape (len(x), len(p))."""
    m = p.size
    J = np.empty((x.size, m))
    for i in range(m):
        h = _REL_STEP * abs(p[i]) if p[i] != 0.0 else _REL_STEP
        pp = p.copy()
        pm = p.copy()
        pp[i] += h
        pm[i] -= h
        J[:, i] = (np.asarray(model(x, pp)) - np.asarray(model(x, pm))) / (2.0 * h)
    return J


def nlls_fit(
    model: Callable[[np.ndarray, Sequence[float]], np.ndarray],
    data: SweepRecord,
    p0: Sequence[float],
    bounds: Optional[tuple] = None,
) -> FitResult:
    """Damped nonlinear least squares.

    ``model(x, params)`` must be a pure, reentrant evaluator returning an
    array like x.  Steps solve (J^T W J + lambda*diag(J^T W J)) d = J^T W r;
    lambda is multiplied by 10 on rejection and divided by 10 on acceptance.
    Convergence: relative cost change < _RTOL_COST or relative step norm
    < _RTOL_STEP, within _MAX_ITER iterations; otherwise converged=False.

    ``bounds`` is an optional (lo, hi) pair of arrays; trial steps are
    clipped into the box.
    """
    p = np.asarray(p0, dtype=float).copy()
    if bounds is not None:
        lo = np.asarray(bounds[0], dtype=float)
        hi = np.asarray(bounds[1], dtype=float)
        if np.any(lo > hi):
            raise FitError("inconsistent bounds: lo > hi")
        p = np.clip(p, lo, hi)
    w = data.weights

    def cost_of(params):
        r = data.y - np.asarray(model(data.x, params))
        return float(np.sum(w * r * r)), r

    cost, r = cost_of(p)
    lam = _LAMBDA0
    converged = False
    n_iter = 0
    for n_iter in range(1, _MAX_ITER + 1):
        J = _numeric_jacobian(model, data.x, p)
        A = J.T @ (w[:, None] * J)
        g = J.T @ (w * r)
        d = np.diag(A).copy()
        if np.any(d == 0.0):
            raise RankError("a parameter has no effect on the model (zero Jacobian column)")
        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(A + lam * np.diag(d), g)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_FACTOR
                continue
            trial = p + step
            if bounds is not None:
                trial = np.clip(trial, lo, hi)
            new_cost, new_r = cost_of(trial)
            if new_cost < cost:
                accepted = True
                step_norm = float(np.linalg.norm(trial - p))
                rel_drop = (cost - new_cost) / max(cost, np.finfo(float).tiny)
                p, cost, r = trial, new_cost, new_r
                lam = max(lam / _LAMBDA_FACTOR, 1e-15)
                if rel_drop < _RTOL_COST or step_norm < _RTOL_STEP * (
                    1.0 + float(np.linalg.norm(p))
                ):
                    converged = True
                break
            lam *= _LAMBDA_FACTOR
        if not accepted:
            # No downhill step found at any damping: stationary to tolerance.
            converged = cost == 0.0 or float(np.linalg.norm(g)) < 1e-8 * (1.0 + cost)
            break
        if converged:
            break

    J = _numeric_jacobian(model, data.x, p)
    A = J.T @ (w[:, None] * J)
    try:
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"normal matrix singular at solution: {exc}") from exc
    var = np.diag(cov)
    if not np.all(np.isfinite(var) & (var > 0.0)):
        raise RankError("normal matrix rank deficient at solution: a parameter variance is not finite and positive")
    dof = len(data) - p.size
    return FitResult(
        params=p,
        covariance=cov,
        reduced_chi2=cost / dof if dof > 0 else 0.0,
        n_iterations=n_iter,
        converged=converged,
    )
