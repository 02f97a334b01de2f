"""Environmental response of the resonator: magnetic field and temperature.

Field side: square-root suppression of the superconducting gap and the
quadratic parallel-field frequency-shift law for a thin diffusive film,
including the misalignment term that couples to the conductor width.

Temperature side: the two-level-system (TLS) dispersive shift, which needs
the complex digamma function, plus the dirty-limit kinetic-inductance term
proportional to (k_B T / gap)^4, and the bisection inversion that turns a
measured frequency shift into an effective device temperature.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import ConfigError, ConfigWarning, DomainError, InversionError, PhysicsWarning
from .quantities import BOLTZMANN, E_CHARGE, HBAR, PLANCK, bisect

#: BCS weak-coupling gap ratio, gap = 1.764 * k_B * T_C.
BCS_GAP_RATIO = 1.764

#: Default quartic coefficient of the dirty-limit kinetic-inductance term.
#: Heuristic: composing lambda(T)/lambda(0) - 1 = (T/T_C)^2 into
#: lambda^2(T)/lambda^2(0) - 1 keeps a (T/T_C)^4 piece, which expressed in
#: (k_B T/gap)^4 carries the factor 1.764^4.  It is a fit parameter; this
#: value is only a starting point.
DEFAULT_C4 = BCS_GAP_RATIO**4

#: The dirty-limit quartic term holds from QUARTIC_T_MIN_K up to
#: QUARTIC_T_MAX_OVER_TC * T_C: the default temperature grid and the range
#: of the monotonicity check and of the inversion.
QUARTIC_T_MIN_K = 0.05
QUARTIC_T_MAX_OVER_TC = 0.4
#: Default lower end of the device-temperature inversion, in K.
INVERSION_T_MIN_K = 0.02


@dataclass(frozen=True)
class FieldModel:
    """Film and geometry constants entering the parallel-field shift."""

    diffusion: float  # m^2/s, electron diffusion coefficient
    thickness: float  # m
    t_c: float  # K
    center_width: float  # m, resonator center conductor width
    theta_b: float = 0.0  # rad, field misalignment out of plane
    b_c_parallel: Optional[float] = None  # T, critical field (fitted/derived)
    delta_0: Optional[float] = None  # J, zero-field gap; default BCS ratio

    def __post_init__(self):
        for name in ("diffusion", "thickness", "t_c", "center_width"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"FieldModel.{name} must be positive")
        if abs(self.theta_b) > 0.1:
            warnings.warn(
                f"misalignment angle {self.theta_b} rad is large for the small-angle model",
                PhysicsWarning,
                stacklevel=3,
            )

    @property
    def gap_zero_field(self) -> float:
        if self.delta_0 is not None:
            return self.delta_0
        return BCS_GAP_RATIO * BOLTZMANN * self.t_c


def gap_vs_field(b: float, model: FieldModel) -> float:
    """Superconducting gap Delta(B) = Delta_0 * sqrt(1 - (B/B_C)^2) in J."""
    if model.b_c_parallel is None or model.b_c_parallel <= 0.0:
        raise DomainError("FieldModel.b_c_parallel must be set for gap evaluation")
    ratio = b / model.b_c_parallel
    if abs(ratio) > 1.0:
        raise DomainError(
            f"|B| = {abs(b)} T exceeds the critical field {model.b_c_parallel} T (normal state)"
        )
    return model.gap_zero_field * math.sqrt(1.0 - ratio**2)


def field_curvature(model: FieldModel, include_misalignment: bool = True) -> float:
    """Quadratic coefficient c in d_omega/omega = -c * B^2, in 1/T^2.

    c = (pi/48) * D e^2 t^2 / (hbar k_B T_C) * [1 + theta^2 (w/t)^2];
    the bracket is the misalignment enhancement.
    """
    c0 = (
        math.pi
        / 48.0
        * model.diffusion
        * E_CHARGE**2
        * model.thickness**2
        / (HBAR * BOLTZMANN * model.t_c)
    )
    if not include_misalignment:
        return c0
    geom = (model.theta_b * model.center_width / model.thickness) ** 2
    return c0 * (1.0 + geom)


def field_frequency_shift(b, model: FieldModel):
    """Relative frequency shift d_omega/omega at parallel field B (even in
    B), a scalar or an array."""
    return -field_curvature(model) * b**2


def _bc_pair_breaking_gap(curvature: float, model: FieldModel) -> float:
    """Heuristic critical-field estimate: the field at which the
    pair-breaking energy implied by the fitted curvature,
    Gamma(B) = (8/pi) * c * k_B * T_C * B^2, equals the zero-field gap.
    Documented as a guess; disabled unless requested."""
    return math.sqrt(math.pi * model.gap_zero_field / (8.0 * curvature * BOLTZMANN * model.t_c))


BC_CRITERIA: dict = {"pair-breaking-gap": _bc_pair_breaking_gap}


class FieldShiftFit(NamedTuple):
    curvature: float  # 1/T^2, fitted coefficient of -B^2
    curvature_sigma: float
    theta_b: Optional[float]  # rad, decomposed when center_width is known
    b_c_estimate: Optional[float]  # T, only under an explicit criterion
    reduced_chi2: float


def fit_field_shift(
    sweep: SweepRecord,
    model: FieldModel,
    estimate_theta: bool = True,
    bc_criterion: Optional[str] = None,
) -> FieldShiftFit:
    """Weighted least-squares fit of d_omega/omega = -c * B^2.

    The single curvature coefficient is always reported; a reduced chi^2
    above 10 warns that the data deviate from the law.  When
    ``estimate_theta`` and the model provides the conductor width, the
    misalignment angle is decomposed out of the ratio to the isotropic
    curvature.  A critical-field number is produced only under a criterion
    named from BC_CRITERIA; another name raises ConfigError.
    """
    if bc_criterion is not None and bc_criterion not in BC_CRITERIA:
        raise ConfigError(f"unknown bc_criterion {bc_criterion!r}; known: {', '.join(sorted(BC_CRITERIA))}")
    if len(sweep) < 5:
        raise DomainError("need at least 5 field points for the quadratic fit")
    from .fitkit import proportional_fit
    try:
        c, var_c, rchi2 = proportional_fit(-sweep.y, sweep.x**2, sweep.weights)
    except DomainError:  # every B, or every w*B^4, is zero
        raise DomainError("all field values are zero; curvature undetermined") from None
    if rchi2 > 10.0:
        warnings.warn(
            f"reduced chi^2 = {rchi2:.2f}: data deviate from the quadratic law",
            PhysicsWarning,
            stacklevel=2,
        )

    theta = None
    if estimate_theta:
        c0 = field_curvature(model, include_misalignment=False)
        ratio = c / c0
        if ratio >= 1.0:
            theta = (model.thickness / model.center_width) * math.sqrt(ratio - 1.0)
        else:
            theta = 0.0
            warnings.warn(
                "fitted curvature below the isotropic value; misalignment set to zero",
                PhysicsWarning,
                stacklevel=2,
            )

    b_c = None if bc_criterion is None else BC_CRITERIA[bc_criterion](c, model)

    return FieldShiftFit(
        curvature=c,
        curvature_sigma=math.sqrt(var_c),
        theta_b=theta,
        b_c_estimate=b_c,
        reduced_chi2=rchi2,
    )


# Stirling-series coefficients B_2k/(2k) for k = 1..7 (through the seventh
# Bernoulli number B_14).
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)

#: Upward recurrence steps: from Re(z) >= 1/2 they reach |z| > 10, where the
#: seven retained Stirling terms are accurate below 1e-15.
_RECURRENCE_STEPS = 10


def complex_digamma(z):
    """Digamma function for complex argument, scalar or array.

    Reflection psi(z) = psi(1 - z) - pi*cot(pi*z) maps Re(z) < 1/2 to the
    right half plane, ten steps of upward recurrence push |z| beyond 10, and
    the asymptotic series psi(z) ~ ln z - 1/(2z) - sum B_2k/(2k z^2k)
    finishes the job (Abramowitz & Stegun 6.3.5, 6.3.7, 6.3.18).  The
    cotangent is taken of z minus its nearest integer, so values next to a
    pole keep their relative accuracy.  Poles at the non-positive integers
    raise a domain error.
    """
    scalar = np.ndim(z) == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    poles = z.real[(z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))]
    if poles.size:
        raise DomainError(f"digamma pole at z = {poles[0]:.0f}")
    reflect = z.real < 0.5
    w = np.where(reflect, 1.0 - z, z)
    acc = series = 0.0
    for _ in range(_RECURRENCE_STEPS):
        acc = acc - 1.0 / w
        w = w + 1.0
    inv = 1.0 / w
    inv2 = inv * inv
    for coeff in reversed(_STIRLING):
        series = (series + coeff) * inv2
    psi = acc + np.log(w) - 0.5 * inv - series
    zr = z[reflect]
    psi[reflect] -= np.pi / np.tan(np.pi * (zr - np.round(zr.real)))
    return complex(psi[0]) if scalar else psi


@dataclass(frozen=True)
class TempModel:
    """Parameters of the temperature-dependent frequency shift.

    f_delta_tls is the TLS filling-factor/loss-tangent product, alpha the
    kinetic-inductance fraction, c4 the quartic coefficient of the
    dirty-limit term.  t_ref anchors the zero of the reported shift (the
    base-temperature point of a data set); t_ref = 0 keeps the absolute
    zero-temperature anchor where both terms vanish.
    """

    f_delta_tls: float
    alpha: float
    t_c: float  # K
    c4: float = DEFAULT_C4
    t_ref: float = 0.0  # K

    def __post_init__(self):
        if self.f_delta_tls < 0.0:
            raise DomainError("f_delta_tls must be >= 0")
        if not 0.0 < self.alpha <= 1.0:
            raise DomainError("alpha must be in (0, 1]")
        if self.c4 <= 0.0 or self.t_c <= 0.0:
            raise DomainError("c4 and t_c must be positive")
        if self.t_ref < 0.0:
            raise DomainError("t_ref must be >= 0")

    @property
    def gap(self) -> float:
        return BCS_GAP_RATIO * BOLTZMANN * self.t_c

    @property
    def quartic_t_max(self) -> float:
        """Upper end of the quartic term's validity, QUARTIC_T_MAX_OVER_TC * T_C, in K."""
        return QUARTIC_T_MAX_OVER_TC * self.t_c

    def warn_if_nonmonotone(self, f_r: float, t_lo: float = QUARTIC_T_MIN_K, t_hi: Optional[float] = None) -> bool:
        """Numerically check monotonicity of the shift at 64 points over
        [t_lo, t_hi] (default upper end quartic_t_max); warn and return False
        on violation."""
        t_hi = self.quartic_t_max if t_hi is None else t_hi
        d = np.diff(_shift_absolute(np.linspace(t_lo, t_hi, 64), f_r, self))
        ok = bool(np.all(d <= 0.0) or np.all(d >= 0.0))
        if not ok:
            warnings.warn(
                "temperature-shift model is not monotone over the requested range; "
                "inversion may be ambiguous",
                ConfigWarning,
                stacklevel=2,
            )
        return ok


def _shift_absolute(t, f_r: float, model: TempModel):
    """Shift relative to the T -> 0 anchor (both terms vanish there), at a
    temperature or an array of them."""
    t = np.asarray(t, dtype=float)
    x = PLANCK * f_r / (2.0 * math.pi * BOLTZMANN * t)
    if not np.all(x > 0.0):
        raise DomainError(f"h f_r / (2 pi k_B T) must be positive; at f_r = {f_r} Hz and T = {t.min()} to {t.max()} K it is not")
    tls = 0.0
    if model.f_delta_tls != 0.0:
        bracket = complex_digamma(0.5 - 1j * x).real - np.log(x)
        tls = model.f_delta_tls / math.pi * bracket
    with np.errstate(over="raise"):  # an overflowing term is a domain error, not an inf in the result
        quartic = model.alpha * model.c4 * (BOLTZMANN * t / model.gap) ** 4
    return tls - quartic


def _shift_reference(f_r: float, model: TempModel) -> float:
    """Absolute shift at the model's t_ref anchor; 0 for the T -> 0 anchor."""
    return _shift_absolute(model.t_ref, f_r, model) if model.t_ref > 0.0 else 0.0


def temp_frequency_shift(t, f_r: float, model: TempModel):
    """Relative frequency shift d_omega/omega at device temperature t (K), a
    scalar or an array.

    TLS term: (F*delta/pi) * [Re psi(1/2 + h f/(2 i pi k_B T)) -
    ln(h f/(2 pi k_B T))]; kinetic term: -alpha*c4*(k_B T/gap)^4.  The
    quartic law holds for T up to model.quartic_t_max; beyond that a warning
    is raised.  The result is referenced to the model's t_ref.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise DomainError("temperature must be positive")
    if f_r <= 0.0:
        raise DomainError("frequency must be positive")
    if np.any(t > model.quartic_t_max):
        warnings.warn(
            f"T = {np.max(t)} K exceeds {QUARTIC_T_MAX_OVER_TC}*T_C = {model.quartic_t_max:.3f} K, outside the "
            "validity of the dirty-limit quartic term",
            PhysicsWarning,
            stacklevel=2,
        )
    return _shift_absolute(t, f_r, model) - _shift_reference(f_r, model)


def device_temp_from_shift(
    delta_omega_rel: float,
    f_r: float,
    model: TempModel,
    t_min: float = INVERSION_T_MIN_K,
    t_max: Optional[float] = None,
) -> float:
    """Invert the shift model for temperature by bisection (tol = 10 uK).

    The model must be monotone over [t_min, t_max] (default upper end
    model.quartic_t_max); shifts outside the attainable range raise
    InversionError.
    """
    t_max = model.quartic_t_max if t_max is None else t_max
    if not t_max > t_min > 0.0:
        raise DomainError("need 0 < t_min < t_max")
    model.warn_if_nonmonotone(f_r, t_min, t_max)

    ref = _shift_reference(f_r, model)

    def f(t):
        return _shift_absolute(t, f_r, model) - ref - delta_omega_rel

    f_lo, f_hi = f(t_min), f(t_max)
    if f_lo == 0.0:
        return t_min
    if f_hi == 0.0:
        return t_max
    if f_lo * f_hi > 0.0:
        raise InversionError(
            f"shift {delta_omega_rel:.3e} outside the attainable range "
            f"[{min(f_lo, f_hi) + delta_omega_rel:.3e}, {max(f_lo, f_hi) + delta_omega_rel:.3e}] "
            f"for T in [{t_min}, {t_max}] K"
        )
    return bisect(f, t_min, t_max, f_lo, 1e-5)
