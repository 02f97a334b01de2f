"""Frozen reference for io_dynamics.peak_gain_db: the kernel that runs all
16 Newton steps from both starts at every grid point.

Test-only.  The library's kernel skips work whose result is already known
and must return the same bits as this one; tests/test_peak_kernel.py
compares the two.  Do not edit: the point of this copy is that it does not
follow the library.  (The directory is not named oracles/: the test also
loads perfbench/inputs.py, whose perfbench/oracles.py would shadow it.)
"""

import numpy as np

NEWTON_STEPS = 16


def peak_gain_db(kappa, gamma, delta, xi):
    """Maximum over the signal offset of 10*log10|g_s|^2, NaN without a
    steady state; see io_dynamics.peak_gain_db for the derivation."""
    kappa = np.asarray(kappa, dtype=float)
    kb = kappa + np.asarray(gamma, dtype=float) / 2.0
    delta, xi = np.asarray(delta, dtype=float), np.abs(xi)
    k, d, x = kappa / kb, delta / kb, xi / kb
    e = 1.0 + d * d
    a = e - x * x
    b = 4.0 - 2.0 * a
    c4, c3, c2, c1, c0 = 3.0 * d, 2.0 * e, b * d, b * e - a * a, -a * a * d
    r = np.sqrt(np.maximum(d * d - x * x, 0.0))
    starts = np.stack([r, -r])
    w = starts.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(NEWTON_STEPS):
            q = w + c4
            dq = 5.0 * w
            dq += 4.0 * c4
            for coef, n in ((c3, 3.0), (c2, 2.0), (c1, 1.0)):
                q *= w
                q += coef
                dq *= w
                dq += n * coef
            q *= w
            q += c0
            q /= dq
            w -= q
        peak = np.fmax(_gain_ratio(starts, d, a), _gain_ratio(w, d, a))
        peak_db = 10.0 * np.log10(k * k * peak)
    return np.where(np.abs(xi) < np.hypot(kb, delta), peak_db, np.nan)


def _gain_ratio(w, d, a):
    num = d + w
    num *= num
    num += 1.0
    den = w * w
    g = a - den
    g *= g
    den *= 4.0
    den += g
    num /= den
    return np.fmax.reduce(num, axis=0)
