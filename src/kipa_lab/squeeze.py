"""Vacuum-squeezing budget of the transmission-mode amplifier.

Relates the measured squeezing factor S (pump-on over pump-off output
variance of the squeezed quadrature) to the quadrature gain G_X through the
chain efficiency and the cryogenic-amplifier noise, and computes the floor
S_min that the -3 dB transmission deamplification limit imposes on any
measurement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import DomainError
from .io_dynamics import VACUUM_VARIANCE, n_kappa2_term

#: Lowest quadrature gain reachable in transmission (the -3 dB limit).
GX_FLOOR = 0.5


@dataclass(frozen=True)
class SqueezeBudget:
    """Loss and noise budget between device output and analyzer.

    eta is the total efficiency (cryogenic components times device insertion
    loss), n_h the input-referred noise of the following amplifier in
    photons (half its thermal occupation).  The loss-port occupations n_eta
    and n_gamma default to zero (millikelvin loss channels, overcoupled
    cavity).  g_h, when given, keeps the exact (g_h - 1)/g_h prefactor on
    n_h instead of the large-gain simplification.  The second-port vacuum
    term is not a budget entry: it follows from G_X (io_dynamics.n_kappa2_term).
    """

    eta: float
    n_h: float
    g_h: Optional[float] = None
    n_eta: float = 0.0
    n_gamma: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eta <= 1.0:
            raise DomainError("eta must be in (0, 1]")
        if self.n_h < 0.0 or self.n_eta < 0.0 or self.n_gamma < 0.0:
            raise DomainError("photon numbers must be >= 0")
        if self.g_h is not None and self.g_h <= 1.0:
            raise DomainError("amplifier gain must exceed 1")

    @property
    def hemt_prefactor(self) -> float:
        return 1.0 if self.g_h is None else (self.g_h - 1.0) / self.g_h


def squeezing_factor(g_x: float, budget: SqueezeBudget) -> float:
    """Measured squeezing factor S for a given quadrature gain G_X.

    S = [G_X*eta/4 + (G_X-1)*eta*n_k2 + G_X*eta*n_g + (1-eta)*(1/4 + n_eta/2)
         + c*n_H] / [eta/4 + eta*n_g + (1-eta)*(1/4 + n_eta/2) + c*n_H]

    with n_k2 the second-port term computed from G_X, c the amplifier-gain
    prefactor, and vacuum (1/4) input variances.  With the default budget
    (zero loss-port occupations, large amplifier gain) this is the standard
    on/off variance ratio; S(1) = 1 identically.
    """
    if g_x <= 0.0:
        raise DomainError("quadrature gain must be positive")
    v = VACUUM_VARIANCE
    c = budget.hemt_prefactor
    loss_term = (1.0 - budget.eta) * (v + budget.n_eta / 2.0)
    n_k2 = n_kappa2_term(g_x)
    num = (
        g_x * budget.eta * v
        + (g_x - 1.0) * budget.eta * n_k2
        + g_x * budget.eta * budget.n_gamma
        + loss_term
        + c * budget.n_h
    )
    den = budget.eta * v + budget.eta * budget.n_gamma + loss_term + c * budget.n_h
    return num / den


def max_measurable_squeezing(budget: SqueezeBudget) -> float:
    """Floor S_min = S(G_X = 1/2), the deepest squeezing the chain can show.

    G_X = 1/2 is the transmission deamplification limit; a lossier chain or
    a noisier amplifier pushes the floor toward 1.
    """
    return squeezing_factor(GX_FLOOR, budget)


def extract_gx(s_measured: float, budget: SqueezeBudget) -> float:
    """Invert the squeezing relation for G_X on the physical branch [1/2, 1].

    S is strictly increasing in G_X there (the numerator is proportional to
    u^2 + (u-1)^2 with u = sqrt(G_X), whose minimum sits below the branch),
    so plain bisection converges, to an absolute tolerance of 1e-12 on G_X.
    """
    if s_measured > 1.0:
        raise DomainError(f"S = {s_measured} exceeds 1; no deamplification to extract")
    s_min = max_measurable_squeezing(budget)
    if s_measured <= s_min:
        raise DomainError(
            f"S = {s_measured:.6f} is at or below the measurable floor "
            f"S_min = {s_min:.6f} for this budget"
        )
    lo, hi = GX_FLOOR, 1.0
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if squeezing_factor(mid, budget) < s_measured:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
