"""Intrinsic-dimension functionals built on concentration/separation profiles.

Three functionals are provided, each with one definition, all growing as
the space concentrates:

* concentration dimension ``1 / (2 * int_0^diam alpha)**2``;
* separation dimension ``1 / (2 * int_0^{1/2} sep)**2``;
* distance-distribution dimension ``m**2 / (2 * sigma**2)`` with ``m`` and
  ``sigma**2`` the mean and variance of the distance under the product
  measure, diagonal pairs included.

The two integrals are the profiles' own ``integral()``.  Degenerate
inputs (zero integral, zero variance) yield ``math.inf`` explicitly; no
large sentinel values are used.  The module also brackets the
concentration distance from the space to a one-point space via the
profile's crossing with the line ``alpha = eps/2``, read off the profile's
grid by a lemma (``dconc_to_point_bracket``).  ``dimension_report``
gathers all of them as the JSON ``report`` block of ``dimensions.json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .concentration import ConcentrationProfile, SeparationProfile
from .mmspace import MMSpace, _unit_moments

def dim_concentration(profile: ConcentrationProfile) -> float:
    """Concentration dimension ``1 / (2 I)**2`` with ``I = int alpha``.

    The integral runs over ``[0, diameter]``, so the functional is defined
    for unnormalized spaces.  Returns ``inf`` when the integral vanishes.
    """
    return _inverse_square(profile.integral())


def dim_separation(profile: SeparationProfile) -> float:
    """Separation dimension ``1 / (2 J)**2`` with ``J = int_0^{1/2} sep``.

    The profile value at its smallest grid point extends the integrand to
    ``kappa -> 0``; returns ``inf`` when the integral vanishes.
    """
    return _inverse_square(profile.integral())


def _inverse_square(i: float) -> float:
    """``1 / (2 i)**2``: inf where ``i <= 0``, and 0 where the square
    overflows, as the exact value underflows."""
    if i <= 0.0:
        return math.inf
    try:
        return 1.0 / (2.0 * i) ** 2
    except OverflowError:
        return 0.0


def dim_chavez(space: MMSpace) -> float:
    """Distance-distribution dimension ``m**2 / (2 sigma**2)``.

    ``m`` and ``sigma**2`` are the mean and variance of the distance under
    the product measure, diagonal pairs included.  Scale-invariant;
    ``inf`` when the variance vanishes, singletons included.
    """
    m, var = _unit_moments(space)  # no overflow; the ratio has no unit
    if var <= 0.0:
        return math.inf
    return m * m / (2.0 * var)


@dataclass(frozen=True)
class PointBracket:
    """Certified interval for the concentration distance to a point space.

    ``certified_upper`` is False when the underlying profile is only a
    lower bound on alpha, in which case ``hi`` falls back to the diameter.
    """

    lo: float
    hi: float
    certified_upper: bool

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0


def dconc_to_point_bracket(profile: ConcentrationProfile) -> PointBracket:
    """Bracket the concentration distance to a one-point space.

    The distance lies in ``[c/2, c]``, ``c = inf{eps : alpha(eps) <=
    eps/2}``.  ``c`` is read off the grid ``g_k`` and values ``a_k`` by a
    lemma, with alpha 0 from the diameter on.

    * Exact profile.  The grid holds every jump of alpha, as the default
      grid does and as the step integral assumes, so alpha is ``a_k`` on
      ``[g_k, g_{k+1})``, but on the first interval, where ``a_0`` is the
      conventional 1/2.  The least eps of that interval with ``a_k <=
      eps/2`` is ``max(g_k, 2 a_k)`` if it falls below ``g_{k+1}``, so
      ``c`` is the least such value, and the bracket is ``[c/2, c]``.
    * Lower-bound profile.  alpha is non-increasing and at least
      ``a_{k+1}`` at ``g_{k+1}``, so ``alpha >= a_{k+1}`` on ``(g_k,
      g_{k+1}]``: a crossing there is at least ``max(g_k, 2 a_{k+1})``,
      and there is none if that exceeds ``g_{k+1}``.  The least such value
      that is at most ``g_{k+1}`` is a certified lower end for ``c``; the
      upper end is the diameter, flagged via ``certified_upper=False``.
    """
    diam = float(profile.diameter)
    if diam == 0.0:
        return PointBracket(0.0, 0.0, True)
    g = np.append(profile.eps_grid, diam)
    a = np.append(profile.alpha, 0.0)
    if profile.mode == "exact":
        cand = np.maximum(g, 2.0 * a)
        c = float(cand[cand < np.append(g[1:], np.inf)].min())
        return PointBracket(c / 2.0, c, True)
    cand = np.maximum(g[:-1], 2.0 * a[1:])
    return PointBracket(float(cand[cand <= g[1:]].min()) / 2.0, diam, False)


def dimension_report(space: MMSpace, alpha_profile: ConcentrationProfile,
                     sep_profile: SeparationProfile) -> dict:
    """All dimension functionals of one space and the point bracket, from
    precomputed profiles, as the JSON ``report`` block: an infinite
    dimension reads ``"inf"``."""
    def enc(v: float):
        return "inf" if math.isinf(v) else v

    bracket = dconc_to_point_bracket(alpha_profile)
    return {
        "dim_concentration": enc(dim_concentration(alpha_profile)),
        "dim_separation": enc(dim_separation(sep_profile)),
        "dim_chavez": enc(dim_chavez(space)),
        "dconc_to_point": [bracket.lo, bracket.hi],
        "provenance": {
            "alpha": alpha_profile.metadata(),
            "sep": sep_profile.metadata(),
            "chavez_include_diagonal": True,
            "bracket_certified_upper": bracket.certified_upper,
            "n": space.n,
            "label": space.label,
        },
    }
