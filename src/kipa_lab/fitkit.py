"""Generic fitting engine: weighted linear regression and damped nonlinear
least squares with numeric Jacobians.

The nonlinear solver is a fixed, reproducible Levenberg-Marquardt variant:
central-difference Jacobians with relative step 1e-6, damping factor adapted
by x10 on rejection and /10 on acceptance, and hard convergence tolerances.
The tolerances live in FitConfig so a run can be reproduced exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigError, FitError, RankError


@dataclass
class SweepRecord:
    """A generic (x, y, sigma_y) dataset for fits.

    sigma_y is optional; when present it must be positive and is used as
    inverse-variance weights.  ``meta`` carries free-form provenance.
    """

    x: np.ndarray
    y: np.ndarray
    sigma_y: Optional[np.ndarray] = None
    meta: dict = field(default_factory=dict)

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

    def __len__(self) -> int:
        return self.x.size

    @property
    def weights(self) -> np.ndarray:
        if self.sigma_y is None:
            return np.ones_like(self.x)
        return 1.0 / self.sigma_y**2

    def to_csv(self, path) -> None:
        sigma = [""] * len(self) if self.sigma_y is None else self.sigma_y.tolist()
        with open(path, "w", newline="") as fh:
            write_csv(fh, ["x", "y", "sigma_y"], zip(self.x.tolist(), self.y.tolist(), sigma))

    @classmethod
    def from_csv(cls, path) -> "SweepRecord":
        """Read x,y[,sigma_y] rows; an optional header and '#' comment lines
        are skipped.  A file without data rows, a short or non-numeric row,
        or a sigma_y left blank on some rows but not all raises ConfigError
        naming the file (and the line)."""
        xs, ys, ss, blank = [], [], [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            rows = [(reader.line_num, r) for r in reader if r and not r[0].lstrip().startswith("#")]
        start = 1 if rows and not _is_number(rows[0][1][0]) else 0  # optional header
        for line, r in rows[start:]:
            try:
                xs.append(float(r[0]))
                ys.append(float(r[1]))
                if len(r) > 2 and r[2].strip():
                    ss.append(float(r[2]))
                else:
                    blank.append(line)
            except (IndexError, ValueError):
                raise ConfigError(f"sweep {path} line {line}: expected numeric x,y[,sigma_y], got {','.join(r)!r}") from None
        if not xs:
            raise ConfigError(f"empty sweep file {path}: no data rows")
        if ss and blank:
            raise ConfigError(f"sweep {path} line {blank[0]}: sigma_y is blank here but given on other rows")
        sigma = np.array(ss) if ss else None
        return cls(np.array(xs), np.array(ys), sigma, meta={"source": str(path)})


def write_csv(fh, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write a header and rows as CSV to an open text stream.

    Every CSV file and CSV report of the package goes through here.  Python
    floats are written as their shortest round-trip repr.
    """
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(rows)


def _is_number(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


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


@dataclass(frozen=True)
class FitConfig:
    """Solver knobs, fixed for reproducibility."""

    rel_step: float = 1e-6  # central-difference Jacobian step, relative
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    lambda_max: float = 1e12
    rtol_cost: float = 1e-12
    rtol_step: float = 1e-12
    max_iter: int = 200


def linear_fit(data: SweepRecord, fixed_slope: Optional[float] = None) -> FitResult:
    """Weighted least-squares straight line y = a*x + b.

    Returns params [a, b].  With ``fixed_slope`` only the intercept is fitted
    and the slope rows of the covariance are zero.  Covariance is
    (X^T W X)^-1 with W = 1/sigma^2 (unit weights when sigma_y is absent),
    i.e. sigma_y is taken at face value, not rescaled by chi^2.
    """
    n = len(data)
    w = data.weights
    if fixed_slope is not None:
        if n < 1:
            raise FitError("intercept fit needs at least 1 point")
        r = data.y - fixed_slope * data.x
        sw = float(np.sum(w))
        b = float(np.sum(w * r) / sw)
        cov = np.zeros((2, 2))
        cov[1, 1] = 1.0 / sw
        resid = r - b
        chi2 = float(np.sum(w * resid**2))
        dof = n - 1
        return FitResult(
            params=np.array([fixed_slope, b]),
            covariance=cov,
            reduced_chi2=chi2 / dof if dof > 0 else 0.0,
            n_iterations=1,
            converged=True,
        )

    if n < 2:
        raise FitError("line fit needs at least 2 points")
    if np.ptp(data.x) == 0.0:
        raise RankError("all x values identical; slope is undetermined")
    X = np.column_stack([data.x, np.ones(n)])
    A = X.T @ (w[:, None] * X)
    rhs = X.T @ (w * data.y)
    try:
        params = np.linalg.solve(A, rhs)
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"normal equations singular: {exc}") from exc
    resid = data.y - X @ params
    chi2 = float(np.sum(w * resid**2))
    dof = n - 2
    return FitResult(
        params=params,
        covariance=cov,
        reduced_chi2=chi2 / dof if dof > 0 else 0.0,
        n_iterations=1,
        converged=True,
    )


def _numeric_jacobian(model: Callable, x: np.ndarray, p: np.ndarray, rel_step: float) -> np.ndarray:
    """Central-difference Jacobian d model / d p, shape (len(x), len(p))."""
    m = p.size
    J = np.empty((x.size, m))
    for i in range(m):
        h = rel_step * abs(p[i]) if p[i] != 0.0 else rel_step
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
    config: FitConfig = FitConfig(),
    n_starts: int = 1,
) -> FitResult:
    """Damped nonlinear least squares.

    ``model(x, params)`` must be a pure, reentrant evaluator returning an
    array like x.  Steps solve (J^T W J + lambda*diag(J^T W J)) d = J^T W r;
    lambda is multiplied by 10 on rejection and divided by 10 on acceptance.
    Convergence: relative cost change < rtol_cost or relative step norm
    < rtol_step, within max_iter iterations; otherwise converged=False.

    ``bounds`` is an optional (lo, hi) pair of arrays; trial steps are
    clipped into the box.  With ``n_starts > 1`` (requires bounds) the fit is
    repeated from a deterministic Halton sequence of starting points inside
    the box and the lowest-cost converged result wins.
    """
    if n_starts > 1:
        if bounds is None:
            raise FitError("multi-start fitting requires bounds")
        return _multistart(model, data, p0, bounds, config, n_starts)

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
    lam = config.lambda0
    converged = False
    n_iter = 0
    for n_iter in range(1, config.max_iter + 1):
        J = _numeric_jacobian(model, data.x, p, config.rel_step)
        A = J.T @ (w[:, None] * J)
        g = J.T @ (w * r)
        d = np.diag(A).copy()
        if np.any(d == 0.0):
            raise RankError("a parameter has no effect on the model (zero Jacobian column)")
        accepted = False
        while lam <= config.lambda_max:
            try:
                step = np.linalg.solve(A + lam * np.diag(d), g)
            except np.linalg.LinAlgError:
                lam *= config.lambda_up
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
                lam = max(lam / config.lambda_down, 1e-15)
                if rel_drop < config.rtol_cost or step_norm < config.rtol_step * (
                    1.0 + float(np.linalg.norm(p))
                ):
                    converged = True
                break
            lam *= config.lambda_up
        if not accepted:
            # No downhill step found at any damping: stationary to tolerance.
            converged = cost == 0.0 or float(np.linalg.norm(g)) < 1e-8 * (1.0 + cost)
            break
        if converged:
            break

    J = _numeric_jacobian(model, data.x, p, config.rel_step)
    A = J.T @ (w[:, None] * J)
    try:
        cov = np.linalg.inv(A)
    except np.linalg.LinAlgError as exc:
        raise RankError(f"normal matrix singular at solution: {exc}") from exc
    dof = len(data) - p.size
    return FitResult(
        params=p,
        covariance=cov,
        reduced_chi2=cost / dof if dof > 0 else 0.0,
        n_iterations=n_iter,
        converged=converged,
    )


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _radical_inverse(n: int, base: int) -> float:
    inv, f = 0.0, 1.0 / base
    while n:
        inv += (n % base) * f
        n //= base
        f /= base
    return inv


def halton_points(n: int, dim: int) -> np.ndarray:
    """First n points of the Halton low-discrepancy sequence in [0,1)^dim."""
    if dim > len(_PRIMES):
        raise FitError(f"halton sequence limited to {len(_PRIMES)} dimensions")
    return np.array(
        [[_radical_inverse(i, _PRIMES[d]) for d in range(dim)] for i in range(1, n + 1)]
    )


def _multistart(model, data, p0, bounds, config, n_starts) -> FitResult:
    lo = np.asarray(bounds[0], dtype=float)
    hi = np.asarray(bounds[1], dtype=float)
    starts = [np.asarray(p0, dtype=float)]
    for u in halton_points(n_starts - 1, lo.size):
        starts.append(lo + u * (hi - lo))
    best = None
    best_cost = math.inf
    for s in starts:
        try:
            res = nlls_fit(model, data, s, bounds=bounds, config=config)
        except (RankError, FitError):
            continue
        r = data.y - np.asarray(model(data.x, res.params))
        cost = float(np.sum(data.weights * r * r))
        # Prefer converged results; among those, the lowest cost wins.
        key = (not res.converged, cost)
        if best is None or key < (not best.converged, best_cost):
            best, best_cost = res, cost
    if best is None:
        raise FitError("all multi-start fits failed")
    return best
