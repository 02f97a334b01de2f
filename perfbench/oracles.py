"""Closed forms and properties the benchmark checks kipa-lab against.

Nothing here imports kipa_lab: each function restates the physics or the
statistic from its textbook form, so a later change to the program's method
shows up as agreement or disagreement with these, not as a diff of code.
Rates are ordinary frequencies in Hz; they enter every formula as ratios, so
the 2*pi factors cancel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import Polynomial


def kappa_bar(kappa: float, gamma: float) -> float:
    """Transmission half-linewidth (2*kappa + gamma)/2 of the two-port cavity."""
    return kappa + gamma / 2.0


def gain_power(kappa: float, gamma: float, delta: float, xi: float, omega) -> np.ndarray:
    """|g_s(omega)|^2 = kappa^2 (kb^2 + (Delta+omega)^2) / ((A - omega^2)^2 + 4 kb^2 omega^2)

    with A = Delta^2 + kb^2 - |xi|^2 and omega the offset from half the pump.
    """
    kb = kappa_bar(kappa, gamma)
    w = np.asarray(omega, dtype=float)
    a = delta**2 + kb**2 - xi**2
    return kappa**2 * (kb**2 + (delta + w) ** 2) / ((a - w**2) ** 2 + 4.0 * kb**2 * w**2)


def gain_db(kappa: float, gamma: float, delta: float, xi: float, omega) -> np.ndarray:
    return 10.0 * np.log10(gain_power(kappa, gamma, delta, xi, omega))


def peak_gain_db(kappa: float, gamma: float, delta: float, xi: float) -> float:
    """Maximum over omega of gain_db, from the real roots of d|g_s|^2/d omega.

    With |g_s|^2 = N/D the derivative vanishes where N'D - ND' = 0, a
    degree-5 polynomial in omega.  |g_s|^2 -> 0 as |omega| -> inf, so the
    maximum sits at one of its real roots.  Rates are scaled by kb first so
    the coefficients stay of order one.
    """
    s = kappa_bar(kappa, gamma)
    k, gm, d, x = kappa / s, gamma / s, delta / s, xi / s
    a = d**2 + 1.0 - x**2
    num = Polynomial([1.0 + d**2, 2.0 * d, 1.0])
    den = Polynomial([a**2, 0.0, 4.0 - 2.0 * a, 0.0, 1.0])
    crit = (num.deriv() * den - num * den.deriv()).roots()
    real = crit.real[np.abs(crit.imag) <= 1e-7 * (1.0 + np.abs(crit.real))]
    return float(np.max(gain_db(k, gm, d, x, np.append(real, 0.0))))


def resampled_peak_db(kappa: float, gamma: float, delta: float, xi: float, n: int = 241, span: float = 6.0) -> float:
    """Largest gain_db on n evenly spaced offsets in [-span*kappa, +span*kappa]."""
    w = np.linspace(-span * kappa, span * kappa, n)
    return float(np.max(gain_db(kappa, gamma, delta, xi, w)))


def center_gain_db(kappa: float, gamma: float, xi: float) -> float:
    """Peak gain at zero detuning, (kappa*kb / (kb^2 - |xi|^2))^2 in dB."""
    kb = kappa_bar(kappa, gamma)
    return 20.0 * math.log10(kappa * kb / (kb**2 - xi**2))


def drift_eigenvalues(kappa: float, gamma: float, delta: float, xi: complex) -> np.ndarray:
    """Eigenvalues of the drift matrix of (a, a^dagger) in the pump frame.

    d/dt (a, a+) = M (a, a+) with M = [[-kb - i Delta, -i xi], [i xi*, -kb + i Delta]];
    analytically -kb +- sqrt(|xi|^2 - Delta^2).
    """
    kb = kappa_bar(kappa, gamma)
    m = np.array([[-kb - 1j * delta, -1j * xi], [1j * np.conj(xi), -kb + 1j * delta]])
    return np.linalg.eigvals(m)


def is_stable(kappa: float, gamma: float, delta: float, xi: complex) -> bool:
    """True when every drift eigenvalue decays (negative real part)."""
    return bool(np.max(drift_eigenvalues(kappa, gamma, delta, xi).real) < 0.0)


def logistic_1db_dbm(p_mid_dbm: float, softness_db: float, depth_db: float) -> float:
    """Input power where g0 - depth/(1 + exp(-(P - p_mid)/s)) is 1 dB below g0."""
    return p_mid_dbm - softness_db * math.log(depth_db - 1.0)


def logistic_interp_tolerance(p_mid_dbm: float, softness_db: float, depth_db: float, step_db: float) -> float:
    """Bound on the error of locating the 1-dB point by linear interpolation.

    Linear interpolation between samples step_db apart misreads a smooth
    curve by at most step^2/8 * max|g''|; dividing by the slope |g'| at the
    crossing turns that into an error in input power.  max|g''| of the
    logistic is depth/s^2 * max|e(1-e)(1-2e)| = depth/s^2 * sqrt(3)/18.
    """
    p1 = logistic_1db_dbm(p_mid_dbm, softness_db, depth_db)
    e = 1.0 / (1.0 + math.exp(-(p1 - p_mid_dbm) / softness_db))
    slope = depth_db / softness_db * e * (1.0 - e)
    curvature = depth_db / softness_db**2 * math.sqrt(3.0) / 18.0
    return step_db**2 / 8.0 * curvature / slope


def clem_frequency(i_a, f_r0: float, alpha: float, i_star: float, n: float) -> np.ndarray:
    """Clem tuning law f(I) = f_r0 [(1 - alpha) + alpha (1 - (|I|/I*)^n)^(-1/n)]^(-1/2)."""
    r = (1.0 - (np.abs(np.asarray(i_a, dtype=float)) / i_star) ** n) ** (-1.0 / n)
    return f_r0 * ((1.0 - alpha) + alpha * r) ** -0.5


def chi2(y, model, sigma=None) -> float:
    """Weighted sum of squared residuals, sum((y - model)/sigma)^2."""
    r = np.asarray(y, dtype=float) - np.asarray(model, dtype=float)
    if sigma is not None:
        r = r / np.asarray(sigma, dtype=float)
    return float(np.sum(r * r))
