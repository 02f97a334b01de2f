"""Input-output theory of the dc-pumped cavity measured in transmission.

Frequency-domain steady state only: signal and idler gains, the gain-curve
fit, degenerate phase-sensitive gain, quadrature transfer, output quadrature
variances, gain-bandwidth product extraction, pump-point search and 1-dB
compression extraction.

Conventions
-----------
* Both ports share the same external rate kappa; kappa_bar = (2k+g)/2 is the
  transmission half-linewidth, kappa_tilde = (k+g)/2 the reflection one.
* The gain formulas take the signal offset from half the pump frequency,
  omega = 2*pi*(f - f_pump/2); public functions take absolute f in Hz.
* The pump phase enters through the complex pump strength xi.  With
  arg(xi) = -pi/2 the X quadrature at band center is the deamplified
  (squeezed) one; that alignment is assumed by the variance helpers.
* The drift matrix of (a, a^dagger) in the pump frame has eigenvalues
  -kappa_bar +- sqrt(|xi|^2 - Delta^2), so the cavity has a steady state
  only for |xi|^2 < kappa_bar^2 + Delta^2 (Wustmann & Shumeiko, PRB 87,
  184501, 2013).  Beyond that is the self-oscillation regime.  It is
  representable (a flag, not a hard error) so searches can report it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, ExtractionError, SingularityError
from .quantities import VACUUM_VARIANCE
from .report import write_csv

_POLE_GUARD = 1e-12

# Newton steps of peak_gain_db, which returns exactly what this many give.  On
# a dense grid of |Delta| up to 1e6 kappa_bar and |xi| up to 1 - 1e-9 of the
# threshold, 10 reach the peak to 1e-12 dB; the rest is margin.
_NEWTON_STEPS = 16

# How far below floor_db the closed-form bound of peak_gain_db must lie
# before a point is not stepped; covers the rounding of bound and kernel.
_BOUND_MARGIN_DB = 1e-6

# Cap on the tenfold refinements of the pump-search frequency grid; the
# bundled search (10 MHz coarse step, 10 kHz target) takes 3.
_MAX_REFINEMENTS = 8

# Cap on the points of one level of the pump search (frequencies x powers);
# the bundled search has 41 x 81.
_MAX_GRID_POINTS = 10**7


def drift_stable(kappa_bar, delta, xi_abs):
    """Where both drift-matrix eigenvalues -kappa_bar +- sqrt(|xi|^2 - Delta^2)
    decay, i.e. |xi|^2 < kappa_bar^2 + Delta^2; elementwise on arrays.  The
    magnitudes are compared unsquared, so no finite rate overflows."""
    return np.abs(xi_abs) < np.hypot(kappa_bar, delta)


@dataclass(frozen=True)
class PumpedCavity:
    """Dynamical parameters of the driven cavity (angular rates, rad/s)."""

    kappa: float  # rad/s, external rate per port
    gamma: float  # rad/s, internal loss rate
    delta: float  # rad/s, pump-frame detuning
    xi: complex  # rad/s, three-wave-mixing pump strength
    f_pump: float  # Hz, pump frequency

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise DomainError("kappa must be positive")
        if self.gamma < 0.0:
            raise DomainError("gamma must be non-negative")
        if self.f_pump <= 0.0:
            raise DomainError("pump frequency must be positive")

    @property
    def kappa_bar(self) -> float:
        return (2.0 * self.kappa + self.gamma) / 2.0

    @property
    def kappa_tilde(self) -> float:
        return (self.kappa + self.gamma) / 2.0

    @property
    def is_stable(self) -> bool:
        return bool(drift_stable(self.kappa_bar, self.delta, abs(self.xi)))

    @classmethod
    def from_ordinary(
        cls,
        kappa_hz: float,
        gamma_hz: float,
        delta_hz: float,
        xi: complex,
        f_pump_hz: float,
    ) -> "PumpedCavity":
        """Build from ordinary-frequency rates in Hz (xi also in cycles/s)."""
        two_pi = 2.0 * math.pi
        return cls(
            kappa=two_pi * kappa_hz,
            gamma=two_pi * gamma_hz,
            delta=two_pi * delta_hz,
            xi=two_pi * xi,
            f_pump=f_pump_hz,
        )


def _offset_omega(cav: PumpedCavity, f_hz) -> np.ndarray:
    return 2.0 * math.pi * (np.asarray(f_hz, dtype=float) - cav.f_pump / 2.0)


def _denominator(cav: PumpedCavity, omega) -> np.ndarray:
    kb = cav.kappa_bar
    den = cav.delta**2 + (kb - 1j * omega) ** 2 - abs(cav.xi) ** 2
    if np.any(np.abs(den) < _POLE_GUARD * kb**2):
        raise SingularityError("gain evaluated too close to a pole of the response")
    return den


def _require_stable(cav: PumpedCavity, allow_unstable: bool) -> None:
    if not allow_unstable and not cav.is_stable:
        raise DomainError(
            f"|xi| = {abs(cav.xi):.4e} >= sqrt(kappa_bar^2 + Delta^2) = "
            f"{math.hypot(cav.kappa_bar, cav.delta):.4e}: self-oscillation regime "
            "(pass allow_unstable=True to evaluate anyway)"
        )


def signal_gain(cav: PumpedCavity, f_hz, allow_unstable: bool = False):
    """Complex signal gain g_s at absolute frequency f (scalar or array).

    g_s(w) = [k*kb - i*k*(Delta + w)] / [Delta^2 + (kb - i*w)^2 - |xi|^2]
    with w the offset from half the pump frequency.
    """
    _require_stable(cav, allow_unstable)
    w = _offset_omega(cav, f_hz)
    den = _denominator(cav, w)
    g = (cav.kappa * cav.kappa_bar - 1j * cav.kappa * (cav.delta + w)) / den
    return complex(g) if np.isscalar(f_hz) else g


def gain_db_model(f: np.ndarray, p: Sequence[float], f_pump_hz: float) -> np.ndarray:
    """Fit model: power gain in dB vs absolute frequency.

    p = [kappa_hz, gamma_hz, delta_hz, xi_hz]; the pump frequency is a fixed
    property of the sweep, not a fitted parameter.  Rate parameters enter
    through their absolute values so trial steps of an optimizer cannot
    leave the physical domain.
    """
    kappa_hz, gamma_hz, delta_hz, xi_hz = p
    cav = PumpedCavity.from_ordinary(
        abs(kappa_hz), abs(gamma_hz), delta_hz, -1j * abs(xi_hz), f_pump_hz
    )
    g = signal_gain(cav, np.asarray(f, dtype=float), allow_unstable=True)
    return 10.0 * np.log10(np.abs(g) ** 2)


def fit_gain_curve(sweep: SweepRecord, f_pump_hz: float, p0: Sequence[float]) -> FitResult:
    """Fit gain_db_model to a (frequency in Hz, power gain in dB) sweep at a
    fixed pump frequency, from p0 = [kappa_hz, gamma_hz, delta_hz, xi_hz].
    Returns a FitResult with params in that order."""
    from .fitkit import nlls_fit
    return nlls_fit(lambda f, p: gain_db_model(f, p, f_pump_hz), sweep, p0)


def idler_gain(cav: PumpedCavity, f_hz, allow_unstable: bool = False):
    """Complex idler gain g_i(w) = -i*xi*k / [Delta^2 + (kb - i*w)^2 - |xi|^2]."""
    _require_stable(cav, allow_unstable)
    w = _offset_omega(cav, f_hz)
    den = _denominator(cav, w)
    g = -1j * cav.xi * cav.kappa / den
    return complex(g) if np.isscalar(f_hz) else g


def peak_gain_db(kappa, gamma, delta, xi, floor_db=-math.inf):
    """Maximum over the signal offset of 10*log10|g_s|^2, elementwise.

    Takes broadcastable arrays of rates in one unit (xi by magnitude) and
    returns NaN where the cavity has no steady state (drift_stable).  With
    rates scaled by kappa_bar, |g_s|^2 = k^2 N/D with N = 1 + (d + w)^2 and
    D = (a - w^2)^2 + 4 w^2, a = 1 + d^2 - x^2.  D vanishes at infinity
    faster than N, so the peak sits at a real root of N'D - ND' = -2 Q,
    Q = w^5 + 3d w^4 + 2e w^3 + b d w^2 + (b e - a^2) w - a^2 d with
    e = 1 + d^2 and b = 4 - 2a.  Newton steps on Q start from
    w = +-sqrt(max(d^2 - x^2, 0)), the imaginary parts of the drift
    eigenvalues, near which the one or two gain peaks lie; the result is the
    largest gain at the starts and where the steps end.  Every point taken
    lies on the curve, so a start that does not converge can only be
    outdone, never overshoot the peak.  The result is bit for bit that of
    _NEWTON_STEPS steps from both starts at every point, but unstable points
    are not stepped.  The points stepped are gathered by one index array,
    Q and Q' of both starts are stepped as the four rows of one array
    (_newton), and the largest N/D is taken in one pass over the four rows
    of starts and ends: N/D is NaN or above 0, so fmax over the union picks
    the element that fmax over the starts' and the ends' maxima picks.

    With ``floor_db`` set, every stable point first gets a closed-form upper
    bound on its peak.  A point whose bound is more than _BOUND_MARGIN_DB
    below ``floor_db`` is not stepped and returns the bound, a value below
    ``floor_db``; every other point returns the bits it returns without
    ``floor_db``.  The bound: with q = d^2 - x^2 = a - 1 and v = 1 + w^2,
    D = (v - q)^2 + 4q, and N <= (1 + t) v with
    t = (d^2 + |d| sqrt(d^2 + 4))/2, as 1 + t is the larger eigenvalue of
    [[1, d], [d, 1 + d^2]], the matrix of N as a form in (w, 1).  The slope
    of v/D has the sign of q^2 + 4q - v^2, so over v >= 1 it peaks at
    F = 1/a^2 if q^2 + 4q <= 1, and otherwise at v* = sqrt(q^2 + 4q), where
    D = 2 v*(v* - q) and F = (q + v*)/(8q).  Hence
    |g_s|^2 <= k^2 (1 + t) F, with equality at Delta = 0: there t = 0, and
    bound and kernel both compute k^2/a^2, to the bit.  The bound is taken
    for the kernel's own rounded a, so the margin need only cover the
    rounding of N/D and of the bound: a few ulp, up to about |d| ulp where
    w^2 nearly cancels a, against the 2.3e-7 relative that 1e-6 dB allows.
    """
    kappa = np.asarray(kappa, dtype=float)
    kb = kappa + np.asarray(gamma, dtype=float) / 2.0
    delta, xi = np.asarray(delta, dtype=float), np.abs(xi)
    stable = drift_stable(kb, delta, xi)
    out = np.full(stable.shape, np.nan)
    k, d, x = (np.broadcast_to(v, stable.shape)[stable] for v in (kappa / kb, delta / kb, xi / kb))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dd = d * d
        e = 1.0 + dd
        a = e - x * x
        peak = _peak_bound_db(k, d, dd, a)
        keep = np.flatnonzero(~(peak < floor_db - _BOUND_MARGIN_DB))
        peak[keep] = _peak_db(*(v.take(keep) for v in (k, d, dd, e, a, x)))
    out[stable] = peak
    return out


def _peak_bound_db(k, d, dd, a):
    """The upper bound k^2 (1 + t) F of peak_gain_db's docstring, in dB, on
    gathered scaled rates (dd = d*d and a as the kernel computes them)."""
    bound = np.sqrt(dd + 4.0)
    bound *= np.abs(d)
    bound += dd
    bound *= 0.5
    bound += 1.0
    bound *= k * k
    q = a - 1.0
    s = q + 4.0
    s *= q
    f = a * a
    np.divide(1.0, f, out=f)
    high = s > 1.0
    if high.any():
        q = q[high]
        f[high] = (q + np.sqrt(s[high])) / (8.0 * q)
    bound *= f
    np.log10(bound, out=bound)
    bound *= 10.0
    return bound


def _peak_db(k, d, dd, e, a, x):
    """The Newton kernel of peak_gain_db on gathered stable points."""
    b = 4.0 - 2.0 * a
    cs = (3.0 * d, 2.0 * e, b * d, b * e - a * a, -a * a * d)
    r = np.sqrt(np.maximum(dd - x * x, 0.0))
    starts = np.array([r, -r])
    peak = _gain_ratio(np.concatenate((starts, _newton(starts, cs))), d, a)
    return 10.0 * np.log10(k * k * peak)


def _newton(w, cs):
    """w after _NEWTON_STEPS Newton steps on Q from the two rows of starts w
    (coefficients cs from c4 down, one per column of w).  Q and Q' of both
    starts are the four rows of one array, Horner-evaluated on w tiled into
    four rows: Q = w*1 + c4 and Q' = w*5 + 4 c4, then one multiply by w and
    one add per stage, and Q's last stage on its two rows.  Each element
    gets the IEEE operations of separate Q and Q' passes in the same order
    (w*1 is w, w*5 is 5*w), so the bits are theirs; no operand broadcasts,
    so each numpy call takes its contiguous loop.  A point whose step s+1
    returns the bits of step s-1 repeats those two values, so once every
    point does, the loop stops and the last iterate follows from the parity
    of the steps left."""
    c4, c3, c2, c1, c0 = cs
    d4, d3, d2 = 4.0 * c4, 3.0 * c3, 2.0 * c2
    *stages, last = np.array([c4, c4, d4, d4, c3, c3, d3, d3, c2, c2, d2, d2, c1, c1, c1, c1]).reshape(4, 4, -1)
    lead = np.repeat([1.0, 5.0], 2 * c4.size).reshape(4, -1)  # the leading coefficients of Q and Q'
    c0 = np.array([c0, c0])
    w = prev = np.concatenate((w, w))
    for t in range(_NEWTON_STEPS):
        h = w * lead
        for coef in stages:
            h += coef
            h *= w
        h += last
        q, dq = h[:2], h[2:]
        q *= w[:2]
        q += c0
        q /= dq
        h[2:] = q  # the step, in all four rows
        q = w - h
        if q.tobytes() == prev.tobytes():  # bit for bit
            return (q, w)[(_NEWTON_STEPS - t - 1) % 2][:2]
        prev, w = w, q
    return w[:2]


def _gain_ratio(w, d, a):
    """Largest N/D = (1 + (d + w)^2) / ((a - w^2)^2 + 4 w^2) over the first axis of w."""
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


@dataclass
class GainCurve:
    """Gain sampled on a frequency grid; power_gain_db = 10*log10|g|^2."""

    f_hz: np.ndarray
    complex_gain: np.ndarray
    power_gain_db: np.ndarray

    def __post_init__(self):
        self.f_hz = np.asarray(self.f_hz, dtype=float)
        self.complex_gain = np.asarray(self.complex_gain, dtype=complex)
        self.power_gain_db = np.asarray(self.power_gain_db, dtype=float)
        if not (self.f_hz.shape == self.complex_gain.shape == self.power_gain_db.shape):
            raise DomainError("GainCurve arrays must share one shape")

    @classmethod
    def from_gains(cls, f_hz, g) -> "GainCurve":
        g = np.asarray(g, dtype=complex)
        return cls(f_hz, g, 10.0 * np.log10(np.abs(g) ** 2))

    @classmethod
    def from_cavity(cls, cav: PumpedCavity, f_hz) -> "GainCurve":
        return cls.from_gains(f_hz, signal_gain(cav, np.asarray(f_hz, dtype=float)))

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            write_csv(fh, ["f_hz", "re_g", "im_g", "gain_db"], [self.f_hz, self.complex_gain.real, self.complex_gain.imag, self.power_gain_db])


def degenerate_gain(cav: PumpedCavity, psi_p: float) -> complex:
    """Phase-sensitive gain at the degenerate point f = f_pump/2.

    g(psi) = [k*kb + i*k*Delta + i*k*|xi|*exp(-i*psi)]
             / [Delta^2 + kb^2 - |xi|^2]

    Under this alignment |g| is maximal at psi = pi/2 and minimal at
    psi = 3*pi/2; a data set referenced to another phase origin is shifted
    by the caller.  At the minimum the magnitude reduces to the closed form
    of transmission_deamp.
    """
    kb = cav.kappa_bar
    den = cav.delta**2 + kb**2 - abs(cav.xi) ** 2
    if abs(den) < _POLE_GUARD * kb**2:
        raise SingularityError("degenerate gain evaluated at its pole")
    num = cav.kappa * kb + 1j * cav.kappa * cav.delta
    num += 1j * cav.kappa * abs(cav.xi) * np.exp(-1j * psi_p)
    return complex(num / den)


def transmission_deamp(cav: PumpedCavity) -> float:
    """Minimum phase-sensitive gain magnitude in transmission.

    |g| = k / (kb + |xi|), the destructive-interference limit of the
    degenerate gain; approaches 1/2 from above as |xi| -> kappa with no
    internal loss.  Regular for every |xi| >= 0.
    """
    return cav.kappa / (cav.kappa_bar + abs(cav.xi))


def reflection_deamp(cav: PumpedCavity) -> float:
    """Maximum achievable deamplification magnitude in reflection.

    |g| = |k / (kt + |xi|) - 1| with kt = (k+g)/2; reaches exactly zero at
    |xi| = k/2 for a lossless cavity, and at xi = 0 for a critically coupled
    one (gamma = kappa).
    """
    return abs(cav.kappa / (cav.kappa_tilde + abs(cav.xi)) - 1.0)


def quadrature_transfer(cav: PumpedCavity, f_hz: float) -> np.ndarray:
    """2x2 real quadrature transfer matrix [[Re e, -Im e], [Im e', Re e']]
    with e = g_s + conj(g_i) and e' = g_s - conj(g_i).

    The variance bookkeeping assumes the deamplification alignment
    arg(xi) = -pi/2 and zero detuning; entry [0, 0] is then the squeezed
    quadrature gain G_X.
    """
    gs = signal_gain(cav, f_hz, allow_unstable=True)
    gi = idler_gain(cav, f_hz, allow_unstable=True)
    eps = gs + np.conj(gi)
    eps_p = gs - np.conj(gi)
    return np.array([[eps.real, -eps.imag], [eps_p.imag, eps_p.real]])


def quadrature_gain_x(cav: PumpedCavity, f_hz: Optional[float] = None) -> float:
    """Squeezed-quadrature gain G_X = Re(g_s + conj(g_i)).

    With f_hz omitted, evaluates at band center through the pole-free
    algebraic form k*(kb + Im xi)/(kb^2 - |xi|^2 + Delta^2), taking the
    destructive-alignment limit k/(kb + |xi|) when numerator and
    denominator vanish together (|xi| -> kb, arg xi = -pi/2).
    """
    if f_hz is not None:
        return float(quadrature_transfer(cav, f_hz)[0, 0])
    kb = cav.kappa_bar
    num = kb + cav.xi.imag
    den = cav.delta**2 + kb**2 - abs(cav.xi) ** 2
    if abs(den) < _POLE_GUARD * kb**2:
        if abs(num) < _POLE_GUARD * kb and cav.delta == 0.0:
            return cav.kappa / (kb + abs(cav.xi))
        raise SingularityError("quadrature gain evaluated at its pole")
    return cav.kappa * num / den


def n_gamma_term(kappa: float, gamma: float) -> float:
    """Internal-loss noise term (gamma/kappa) * <X^2_b,in>."""
    if kappa <= 0.0 or gamma < 0.0:
        raise DomainError("need kappa > 0 and gamma >= 0")
    return gamma / kappa * VACUUM_VARIANCE


def output_quadrature_variance(
    cav: PumpedCavity, x_in_var: float, n_kappa2: float, n_gamma: float
) -> float:
    """Band-center output variance of the squeezed quadrature,

    <X^2_out> = G_X*x_in_var + (G_X - 1)*n_kappa2 + G_X*n_gamma,

    with G_X taken from the cavity at the deamplification alignment.  The
    n_kappa2 and n_gamma inputs come from n_kappa2_term and n_gamma_term.
    """
    g_x = quadrature_gain_x(cav)
    if g_x <= 0.0:
        raise DomainError(f"non-positive quadrature gain G_X = {g_x}")
    return g_x * x_in_var + (g_x - 1.0) * n_kappa2 + g_x * n_gamma


def _cross_interp(f: np.ndarray, gdb: np.ndarray, i_from: int, i_to: int, target: float) -> float:
    """Linear-in-dB interpolated frequency where gdb crosses target."""
    f0, f1 = f[i_from], f[i_to]
    g0, g1 = gdb[i_from], gdb[i_to]
    if g1 == g0:
        return float(f1)
    return float(f0 + (target - g0) * (f1 - f0) / (g1 - g0))


def gbp_extract(curve: GainCurve) -> float:
    """Gain-bandwidth product sqrt(G_peak) * df_3dB in Hz.

    The band edges are where the curve reads exactly 3 dB below the peak
    (power factor 10^-0.3, the way a dB plot is read), found by linear
    interpolation of gain in dB against frequency.  For the driven-cavity
    response this makes GBP/kappa approach sqrt(10^0.3 - 1)/1, about 0.998,
    at large gain.  Requires a single interior maximum at least 3 dB above
    both edges of the scan.
    """
    gdb = curve.power_gain_db
    f = curve.f_hz
    if f.size < 5:
        raise ExtractionError("gain curve too short for bandwidth extraction")
    i_pk = int(np.argmax(gdb))
    peak = float(gdb[i_pk])
    target = peak - 3.0
    if i_pk in (0, f.size - 1) or float(np.ptp(gdb)) < 3.0:
        raise ExtractionError("no 3 dB bandwidth resolvable in the gain curve")
    below = np.flatnonzero(gdb <= target)
    lo, hi = below[below < i_pk], below[below > i_pk]
    if lo.size == 0 or hi.size == 0:
        raise ExtractionError("gain does not fall 3 dB below the peak inside the scan")
    left = _cross_interp(f, gdb, lo[-1], lo[-1] + 1, target)
    right = _cross_interp(f, gdb, hi[0] - 1, hi[0], target)
    g_peak = 10.0 ** (peak / 10.0)
    return math.sqrt(g_peak) * (right - left)


class CompressionPoint(NamedTuple):
    p_in_1db_dbm: float
    p_out_sat_dbm: float


def compression_point(
    gain_vs_power: SweepRecord, small_signal_gain_db: float
) -> CompressionPoint:
    """1-dB compression point from a (input power dBm, gain dB) sweep.

    Finds by linear interpolation in the dB domain the first input power at
    which the gain is 1 dB below the small-signal value; the saturated
    output power is that input plus the compressed gain.
    """
    order = np.argsort(gain_vs_power.x)
    p = gain_vs_power.x[order]
    g = gain_vs_power.y[order]
    target = small_signal_gain_db - 1.0
    if g[0] <= target:
        raise ExtractionError("no small-signal plateau: first point is already compressed")
    below = np.flatnonzero(g <= target)
    if below.size == 0:
        raise ExtractionError("gain never compresses by 1 dB within the sweep")
    k = below[0]
    frac = (target - g[k - 1]) / (g[k] - g[k - 1])
    p_in = float(p[k - 1] + frac * (p[k] - p[k - 1]))
    return CompressionPoint(p_in, p_in + target)


@dataclass(frozen=True)
class PumpMap:
    """Peak gain over the plane of pump frequency and pump power.

    The pump power sets |xi| through an amplitude coupling
    |xi|/2pi = xi_hz_per_sqrt_mw * sqrt(P/1 mW); the detuning follows the
    pump frequency as Delta/2pi = f_r - f_pump/2.
    """

    kappa_hz: float
    gamma_hz: float
    f_r_hz: float
    xi_hz_per_sqrt_mw: float

    def __post_init__(self):
        if not self.kappa_hz > 0.0:
            raise DomainError("kappa must be positive")
        if not self.gamma_hz >= 0.0:
            raise DomainError("gamma must be non-negative")
        if not self.xi_hz_per_sqrt_mw > 0.0:
            raise DomainError("coupling must be positive")

    def peak_gain_db(self, f_pump_hz, p_pump_dbm, floor_db=-math.inf) -> np.ndarray:
        """Peak gain in dB on broadcast arrays of pump frequency (Hz) and
        power (dBm), NaN in the self-oscillation regime, with a bound below
        ``floor_db`` in place of a peak below it (peak_gain_db); the grid
        evaluator of find_optimal_pump.  A power too large for a double
        gives an infinite |xi|, which self-oscillates."""
        f_pump_hz = np.asarray(f_pump_hz, dtype=float)
        if np.any(f_pump_hz <= 0.0):
            raise DomainError("pump frequency must be positive")
        with np.errstate(over="ignore"):
            xi_hz = self.xi_hz_per_sqrt_mw * 10.0 ** (np.asarray(p_pump_dbm, dtype=float) / 20.0)
        return peak_gain_db(self.kappa_hz, self.gamma_hz, self.f_r_hz - f_pump_hz / 2.0, xi_hz, floor_db)


@dataclass
class PumpSearchResult:
    """Outcome of the optimal-pump search.

    On success the point is the lowest-power pump setting reaching the
    target gain; on failure it is the best point seen, all None when no
    evaluation was finite.
    """

    success: bool
    f_pump_hz: Optional[float]
    p_pump_dbm: Optional[float]
    gain_db: Optional[float]
    self_oscillation: bool
    n_evaluations: int
    message: str = ""


def find_optimal_pump(
    evaluator: Callable[[np.ndarray, np.ndarray, float], np.ndarray],
    target_db: float,
    f_bounds: Tuple[float, float],
    p_bounds_dbm: Tuple[float, float],
    n_f_coarse: int = 41,
    p_step_db: float = 0.25,
    refine_to_hz: float = 1e4,
) -> PumpSearchResult:
    """Grid search for the cheapest pump setting reaching a target gain.

    ``evaluator(f_pump_hz, p_pump_dbm, floor_db)`` takes a column of pump
    frequencies, a row of pump powers and a gain floor in dB, and returns
    the peak gain in dB on the whole (f_pump x P_pump) grid, non-finite where
    the cavity self-oscillates.  Where the peak is below ``floor_db`` it may
    return any finite value below ``floor_db`` instead, as
    peak_gain_db(..., floor_db) does from its closed-form bound; with
    ``floor_db = -inf`` every value is exact.  It is called once per level
    of the search with ``floor_db = target_db``: a point below the target
    neither stops a ramp nor becomes a candidate, whatever its value.  Each
    row is replayed as a power ramp from the lowest power, which stops at
    the first point that is non-finite or reaches the target.  Only the
    points a ramp visits count: they give the candidates,
    ``self_oscillation`` and ``n_evaluations``.  The frequency grid is
    refined tenfold around the best candidate until its spacing is at most
    ``refine_to_hz``, at most _MAX_REFINEMENTS times.  If the coarse level
    has no candidate, the search fails and calls the evaluator once more on
    that grid with ``floor_db = -inf``, to report the highest gain the ramps
    visited.  A level of more than _MAX_GRID_POINTS points is a DomainError,
    raised before any grid is built.
    """
    f_lo, f_hi = f_bounds
    p_lo, p_hi = p_bounds_dbm
    if not (f_hi > f_lo and p_hi >= p_lo and n_f_coarse >= 2 and p_step_db > 0 and refine_to_hz > 0):
        raise DomainError(
            "search bounds must be ordered: need f_hi > f_lo, p_hi >= p_lo, n_f_coarse >= 2, "
            "p_step_db > 0 and refine_to_hz > 0"
        )
    # A refined level spans twice the previous step in tenths: at most 21 frequencies.
    n_level = max(n_f_coarse, 21) * ((p_hi - p_lo) / p_step_db + 1.0)
    if not n_level <= _MAX_GRID_POINTS:
        raise DomainError(f"a search level would hold {n_level:.3g} pump points, more than {_MAX_GRID_POINTS:.0e}")
    p_grid = np.arange(p_lo, p_hi + 0.5 * p_step_db, p_step_db)

    f_values = np.linspace(f_lo, f_hi, n_f_coarse)
    step = (f_hi - f_lo) / (n_f_coarse - 1)
    n_eval, osc, best = 0, False, None
    for level in range(_MAX_REFINEMENTS + 1):
        g = evaluator(f_values[:, None], p_grid[None, :], target_db)
        stop = ~np.isfinite(g) | (g >= target_db)
        stopped = stop.any(axis=1)
        last = np.where(stopped, stop.argmax(axis=1), p_grid.size - 1)
        g_last = g[np.arange(f_values.size), last]
        n_eval += int(last.sum()) + f_values.size
        osc |= bool(np.any(stopped & ~np.isfinite(g_last)))
        hits = np.flatnonzero(stopped & np.isfinite(g_last))
        if hits.size:
            # Candidate ordering: lowest power first, then highest achieved
            # gain (at equal quantized power the gain peaks at the optimal
            # frequency), then frequency for determinism.
            p_hit, g_hit, f_hit = p_grid[last[hits]], g_last[hits], f_values[hits]
            j = np.lexsort((f_hit, -g_hit, p_hit))[0]
            best = (float(p_hit[j]), -float(g_hit[j]), float(f_hit[j]))
        elif best is None:
            # The best point is read from exact values: the first maximum in
            # ramp order, as a point-by-point scan meets it.
            g = evaluator(f_values[:, None], p_grid[None, :], -math.inf)
            seen = np.where((np.arange(p_grid.size) <= last[:, None]) & np.isfinite(g), g, -math.inf)
            i_f, i_p = np.unravel_index(np.argmax(seen), seen.shape)
            found = seen[i_f, i_p] > -math.inf
            return PumpSearchResult(
                success=False,
                f_pump_hz=float(f_values[i_f]) if found else None,
                p_pump_dbm=float(p_grid[i_p]) if found else None,
                gain_db=float(seen[i_f, i_p]) if found else None,
                self_oscillation=osc,
                n_evaluations=n_eval,
                message="target gain not reached inside the search rectangle",
            )
        if step <= refine_to_hz or level == _MAX_REFINEMENTS:
            break
        lo, hi = max(f_lo, best[2] - step), min(f_hi, best[2] + step)
        step /= 10.0
        f_values = np.arange(lo, hi + 0.5 * step, step)
    p_best, neg_g, f_best = best
    return PumpSearchResult(
        success=True,
        f_pump_hz=f_best,
        p_pump_dbm=p_best,
        gain_db=-neg_g,
        self_oscillation=osc,
        n_evaluations=n_eval,
        message=f"refined to {step:.3g} Hz frequency resolution",
    )
