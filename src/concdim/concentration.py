"""Concentration function, separation function, observable diameter, margins.

Every quantity comes in two flavors with an explicit certificate direction:

* exact oracles (subset enumeration over all ``2**n`` masks, or
  threshold-graph search over the ``2**(n-1)`` masks without point 0),
  available up to ``ORACLE_LIMIT`` points.  Every table over masks
  (subset masses, minima, common far sets, least keys) comes from one DP,
  `_subset_table`, which folds a ufunc over the point bits.  The sep
  oracles tabulate all ``2**(n-1)`` masks; the alpha oracles hold no
  table over all masks: they list the minimal half-mass subsets chunk
  by chunk and read each through two tables over half the point bits;
* witness-based heuristics for arbitrary sizes, whose values are certified
  lower bounds of the exact quantities.

Definitions and conventions
---------------------------
* ``alpha(eps)`` is ``1 - inf{mu(A_eps) : mu(A) >= 1/2}`` where ``A_eps``
  is the closed eps-neighborhood ``{x : d(x, A) <= eps}``; ``alpha(0)`` is
  fixed to ``1/2`` by convention.
* ``sep(kappa)`` is the largest ``delta`` admitting disjoint sets ``A, B``
  with ``mu(A) >= kappa``, ``mu(B) >= kappa`` and all cross distances at
  least ``delta``; the supremum over an empty witness set is 0.
* Measure constraints always use the weights, not cardinalities.

Profiles
--------
``ConcentrationProfile`` (alpha on an eps grid) and ``SeparationProfile``
(sep on a kappa grid) share one contract, `_Profile`: the grid is
ascending, the values non-increasing, both arrays read-only.  For both,
``at(x)`` is the value at the least grid point at or above ``x`` (for
sep, at or above ``x - MASS_TOL``), and 0 beyond the grid: a lower bound
at ``x``, since both functions are non-increasing.  ``integral()`` is the
quadrature every dimension functional uses: alpha over ``[0, diameter]``,
sep over ``[0, 1/2]`` extended to 0 by its first value.  ``metadata()``
is the ``profile`` block of the CLI's JSON files (kind, mode, step,
diameter, grid size), and ``to_csv`` writes the columns ``eps,alpha`` or
``kappa,sep``.  ``step`` is read off the mode: an exact or analytic
profile is a step profile and integrates by the step rule, exactly where
its grid holds every jump and from above on any other grid (the lemma in
``ConcentrationProfile``); a lower-bound profile takes the trapezoid
rule, an estimate.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import ClassVar

import numpy as np

from . import mmspace
from .errors import InputError, InvariantViolation, ResourceLimitError
from .features import LIPSCHITZ_TOL, Feature
from .io import write_csv
from .mmspace import (MMSpace, RowCache, check_int, diameter,
                      pick_order_stats, uniform_weights, weighted_median)

#: exact oracles enumerate all 2**n subsets; refuse above this size.
ORACLE_LIMIT = 22

#: slack used for measure comparisons (cumulative float sums).
MASS_TOL = 1e-12

#: default number of kappa grid points: {i/(2m) : i = 1..m}.
DEFAULT_KAPPA_POINTS = 50

#: cap on the default eps grid; the distinct realized distances are used
#: when there are at most this many, quantiles of them otherwise.
MAX_EPS_GRID = 512

#: largest cube dimension accepted by sep_hamming_analytic: at d=850,
#: 1.0 ms for kappa = 2**-680, 5.3 ms for 1/4 and 0.9 ms for 1/2 (Python
#: 3.11, one core of a 2-core Xeon).
MAX_ANALYTIC_CUBE_DIM = 850

#: largest cube dimension accepted by sep_hamming_profile: 0.15 s at
#: d=105 on the same machine.
MAX_PROFILE_CUBE_DIM = 105


# -- profiles -------------------------------------------------------------------


def _value_at(knots: np.ndarray, values: np.ndarray, x):
    """The value at the least knot >= `x` (a number or an array), 0 beyond
    the last: a lower bound at `x` on a non-increasing function."""
    i = np.searchsorted(knots, x)
    return np.where(i < knots.size, values[np.minimum(i, knots.size - 1)], 0.0)


def _check_eps_grid(g: np.ndarray, diameter: float) -> None:
    if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
        raise InputError("eps grid must be finite and strictly ascending")
    if g.size and (g.min() < 0 or g.max() > diameter + 1e-9):
        raise InputError("eps grid must lie within [0, diameter]")


def _check_kappa_grid(g: np.ndarray) -> None:
    if not np.all(np.isfinite(g)) or np.any(np.diff(g) <= 0):
        raise InputError("kappa grid must be finite and strictly ascending")
    if g.size and (g.min() <= 0 or g.max() > 0.5 + 1e-12):
        raise InputError("kappa grid must lie within (0, 1/2]")


class _Profile:
    """A non-increasing function sampled on an ascending grid, with its
    certificate ``mode`` and the space's ``diameter``.

    A subclass is a frozen dataclass whose first two fields are the grid
    and the values, written under the CSV columns ``_header``.  It checks
    its grid and the range of its values (``_check``) and integrates
    (``integral``); the checks of shape and order, the read-only arrays
    and the reads ``at``, ``metadata`` and ``to_csv`` are shared.
    """

    _kind: ClassVar[str]
    _header: ClassVar[tuple[str, str]]
    #: ``at(x)`` reads the value at the least knot >= ``x - _offset``
    _offset: ClassVar[float] = 0.0

    def __post_init__(self):
        g, v = (np.asarray(arr, dtype=float) for arr in self._arrays())
        if g.ndim != 1 or g.shape != v.shape or g.size == 0:
            raise InputError("profile grid and values must be matching 1-D arrays")
        self._check(g, v)
        if np.any(np.diff(v) > 1e-9):
            raise InvariantViolation(
                f"{self._header[1]} must be non-increasing in {self._header[0]}")
        for field, arr in zip(fields(self), (g, v)):
            arr.setflags(write=False)
            object.__setattr__(self, field.name, arr)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(grid, values)``."""
        return tuple(getattr(self, f.name) for f in fields(self)[:2])

    @property
    def step(self) -> bool:
        """True unless the profile is a lower bound: exact and analytic
        profiles are step functions on their grids."""
        return self.mode != "lower_bound"

    def at(self, x: float) -> float:
        """Lower bound on the function at `x`: the value at the least knot
        at or above ``x - _offset``, 0 beyond the last."""
        return float(_value_at(*self._arrays(), x - self._offset))

    def metadata(self) -> dict:
        return {
            "kind": self._kind,
            "mode": self.mode,
            "step": self.step,
            "diameter": self.diameter,
            "grid_size": int(self._arrays()[0].size),
        }

    def to_csv(self, path) -> None:
        write_csv(path, self._header, zip(*self._arrays()))


@dataclass(frozen=True)
class ConcentrationProfile(_Profile):
    """alpha on an ascending eps grid in ``[0, diameter]``.

    ``mode`` is ``"exact"`` or ``"lower_bound"``.  An exact profile is a
    step profile and integrates by the left step rule, ``sum_k a_k
    (g_{k+1} - g_k)``.  Lemma: on any grid this is at least the integral
    of alpha, and equal to it when the grid holds every jump, but on the
    first interval, where ``a_0`` is the conventional 1/2.  alpha is
    non-increasing, so ``alpha <= a_k`` on ``[g_k, g_{k+1})``; with closed
    neighborhoods it is right-continuous and constant between its jumps,
    the realized distances, so for ``k >= 1`` there ``alpha = a_k``
    unless a jump lies strictly inside.  A lower-bound profile takes the
    trapezoid rule, an estimate: alpha may drop right after a knot, so
    even on a lower-bound profile it can exceed the exact integral (the
    right-end rule cannot).
    """

    eps_grid: np.ndarray
    alpha: np.ndarray
    mode: str
    diameter: float

    _kind = "concentration_profile"
    _header = ("eps", "alpha")

    def _check(self, g: np.ndarray, a: np.ndarray) -> None:
        _check_eps_grid(g, self.diameter)
        if np.any(a < -1e-12) or np.any(a > 0.5 + 1e-9):
            raise InvariantViolation("alpha values outside [0, 1/2]")
        if g[0] == 0.0 and abs(a[0] - 0.5) > 1e-12:
            raise InvariantViolation("alpha(0) must equal 1/2 by convention")

    def integral(self, upper: float = math.inf) -> float:
        """Integral of alpha over [grid start, min(upper, grid end)]; a cut
        inside the grid ends it at `upper`, at the interpolated value."""
        g, a = self.eps_grid, self.alpha
        if upper < g[-1]:
            hi = int(np.searchsorted(g, upper, side="right"))
            end = a[hi] if self.step else np.interp(upper, g, a)
            g, a = np.append(g[:hi], upper), np.append(a[:hi], end)
        if g.size == 1:
            return 0.0
        if self.step:
            return float(np.sum(a[:-1] * np.diff(g)))
        return float(np.trapezoid(a, g))


@dataclass(frozen=True)
class SeparationProfile(_Profile):
    """sep on an ascending kappa grid in (0, 1/2].

    ``mode`` is ``"exact"``, ``"lower_bound"`` or ``"analytic"``.  The
    separation function is extended to ``kappa -> 0`` by its value at the
    smallest grid point when integrating, by the right-end rule (``step``)
    or, for lower-bound profiles, by the trapezoid rule, which even on a
    lower-bound profile can exceed the exact integral.  ``at`` reads
    ``kappa - MASS_TOL``, the slack of the mass comparisons.
    """

    kappa_grid: np.ndarray
    sep: np.ndarray
    mode: str
    diameter: float

    _kind = "separation_profile"
    _header = ("kappa", "sep")
    _offset = MASS_TOL

    def _check(self, g: np.ndarray, s: np.ndarray) -> None:
        _check_kappa_grid(g)
        if np.any(s < -1e-12) or np.any(s > self.diameter + 1e-9):
            raise InvariantViolation("sep values outside [0, diameter]")

    def integral(self) -> float:
        """Integral over [0, grid end], extending by the first value near 0."""
        head = float(self.sep[0] * self.kappa_grid[0])
        if self.kappa_grid.size == 1:
            return head
        if self.step:
            return head + float(np.sum(self.sep[1:] * np.diff(self.kappa_grid)))
        return head + float(np.trapezoid(self.sep, self.kappa_grid))


def default_kappa_grid() -> np.ndarray:
    """The grid {i/(2m) : i = 1..m} for m = ``DEFAULT_KAPPA_POINTS``,
    ending exactly at 1/2."""
    m = DEFAULT_KAPPA_POINTS
    return np.arange(1, m + 1) / (2.0 * m)


def default_eps_grid(space: MMSpace) -> np.ndarray:
    """Sorted distinct distances among ``min(n, 1024)`` seeded points (all
    of them up to 1024), quantile-subsampled when there are more than
    ``MAX_EPS_GRID``, with 0 and the diameter: exact profiles on it capture
    every step of alpha.  The diameter is read first, so a space under the
    materialization rule builds its matrix once and ``submatrix`` reads it.
    """
    diam = diameter(space)
    ids = np.random.default_rng(0).choice(space.n, size=min(space.n, 1024), replace=False)
    vals = np.unique(space.submatrix(ids))
    if vals.size > MAX_EPS_GRID:
        vals = np.quantile(vals, np.linspace(0.0, 1.0, MAX_EPS_GRID))
    return np.unique(np.concatenate([[0.0], vals, [diam]]))


def _eps_grid(space: MMSpace, eps_grid) -> tuple[np.ndarray, float]:
    """``(grid, diameter)``: the distinct values of `eps_grid`, or of
    ``default_eps_grid`` if it is None, with 0 and the diameter, checked."""
    diam = diameter(space)
    given = default_eps_grid(space) if eps_grid is None else np.asarray(eps_grid, float)
    grid = np.unique(np.concatenate([[0.0, diam], given.ravel()]))
    _check_eps_grid(grid, diam)
    return grid, diam


def _alpha_profile(grid: np.ndarray, alpha: np.ndarray, mode: str,
                   diam: float) -> ConcentrationProfile:
    """The profile of the `alpha` values on `grid` (from 0), clipped to
    ``[0, 1/2]``, 0 from the diameter on, 1/2 at 0 by convention, and
    made non-increasing over float dust by a running minimum."""
    alpha = np.minimum(np.maximum(alpha, 0.0), 0.5)
    alpha[(grid >= diam) & (grid > 0)] = 0.0
    alpha[0] = 0.5
    return ConcentrationProfile(grid, np.minimum.accumulate(alpha), mode, diam)


def _kappa_grid(kappa_grid) -> np.ndarray:
    """`kappa_grid` as an array, or the default grid if it is None, checked."""
    grid = default_kappa_grid() if kappa_grid is None else np.asarray(kappa_grid, float)
    _check_kappa_grid(grid)
    return grid


# -- exact oracles ---------------------------------------------------------------


def _require_oracle_size(space: MMSpace, fallback: str) -> None:
    if space.n > ORACLE_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration is limited to n <= {ORACLE_LIMIT} points "
            f"(got n={space.n}); use {fallback} instead"
        )


def _subset_table(values: np.ndarray, empty, op, out=None) -> np.ndarray:
    """``table[m]``: `op` (a ufunc such as ``np.add``, ``np.minimum`` or
    ``np.bitwise_and``) folded over ``values[i]`` for the bits i of m in
    ascending order, starting from `empty` (element-wise where ``values[i]``
    is a row).  One doubling per bit: ``table[m | 1 << i] = op(table[m],
    values[i])`` for ``m < 1 << i``.  Writes into `out` when given."""
    k = len(values)
    if out is None:
        out = np.empty((1 << k, *np.shape(values)[1:]), dtype=np.result_type(values, empty))
    out[0] = empty
    for i in range(k):
        op(out[: 1 << i], values[i], out=out[1 << i : 1 << (i + 1)])
    return out


def _common_far(far: np.ndarray, out=None) -> np.ndarray:
    """``table[A]``: the bitmask of the columns x with ``far[a, x]`` for
    every row a of A, A a set of `far`'s rows (all columns for the empty
    A)."""
    n = far.shape[1]
    rows = far.astype(np.int64) @ (1 << np.arange(n, dtype=np.int64))
    return _subset_table(rows, (1 << n) - 1, np.bitwise_and, out)


def _minimal_half_subsets(weights: np.ndarray) -> np.ndarray:
    """Ascending masks of the inclusion-minimal subsets with mass >= 1/2.

    Dropping any point of such a subset pushes its mass below one half;
    every half-mass subset contains one, and enlarging a witness set can
    only shrink the complement of its neighborhood, so maximizing over the
    minimal subsets is exhaustive.  A subset is minimal when its mass less
    its least weight is below one half.

    The masks are listed in chunks of ``2**low``, one per value of the top
    ``n - low`` point bits.  The low bits' subset masses and minima come
    from `_subset_table` once, and a chunk adds its top bits' weights to
    them in ascending bit order: the additions, in the order, of the
    ``2**n`` table ``_subset_table(weights, 0.0, np.add)``, so every mass
    keeps its bits.  The chunk's four float arrays, 32 bytes a mask, fit
    in ``mmspace.BLOCK_ENTRIES`` bytes.
    """
    n = weights.size
    low = min(n, max(0, (mmspace.BLOCK_ENTRIES // 32).bit_length() - 1))
    low_mass = _subset_table(weights[:low], 0.0, np.add)
    low_min = _subset_table(weights[:low], np.inf, np.minimum)
    mass, rest = np.empty_like(low_mass), np.empty_like(low_min)
    half = 0.5 - MASS_TOL
    found = []
    for top in range(1 << (n - low)):
        np.copyto(mass, low_mass)
        np.copyto(rest, low_min)
        for i in range(low, n):
            if top >> (i - low) & 1:
                mass += weights[i]
                np.minimum(rest, weights[i], out=rest)
        np.subtract(mass, rest, out=rest)
        found.append(np.flatnonzero((mass >= half) & (rest < half)) + (top << low))
    return np.concatenate(found)


def alpha_exact(space: MMSpace, eps: float) -> float:
    """Exact concentration function value by subset enumeration (n <= 22).

    Maximizes ``1 - mu(A_eps)`` over all subsets of mass at least one half,
    with closed eps-neighborhoods; at ``eps=0`` the conventional value 1/2.
    The mass outside ``A_eps`` is the mass of the points farther than eps
    from every member of A.

    A minimal half-mass subset's common far set is the AND of two
    `_common_far` tables, over the low and the high half of the point
    bits.  Its mass adds its points' weights in ascending order from 0:
    the low half's from a `_subset_table` of masses, then each high bit's
    weight where the bit is set.  These are the additions, in the order,
    of the ``2**n`` table of subset masses, so every value keeps its bits.
    The subsets are read in batches of ``mmspace.BLOCK_ENTRIES`` bytes,
    into buffers made once.
    """
    _require_oracle_size(space, "alpha_lower")
    if not eps >= 0:
        raise InputError(f"eps must be nonnegative, got {eps!r}")
    if eps == 0.0:
        return 0.5
    subs = _minimal_half_subsets(space.weights)
    n, w = space.n, space.weights
    h = (n + 1) // 2
    far = space.dist.T > eps
    low, high = _common_far(far[:h]), _common_far(far[h:])
    low_mass = _subset_table(w[:h], 0.0, np.add)
    # per subset a batch holds three 8-byte words, a mass and a flag
    batch = max(1, mmspace.BLOCK_ENTRIES // 33)
    size = min(batch, subs.size)
    bufs = (*np.empty((3, size), dtype=np.int64), np.empty(size), np.empty(size, dtype=bool))
    best = 0.0
    for start in range(0, subs.size, batch):
        masks = subs[start : start + batch]
        sets, idx, other, mass, bit = (b[: masks.size] for b in bufs)
        # the indices are in range; mode="raise" would buffer `out`
        np.take(low, np.bitwise_and(masks, (1 << h) - 1, out=idx), out=sets, mode="clip")
        np.take(high, np.right_shift(masks, h, out=idx), out=other, mode="clip")
        np.bitwise_and(sets, other, out=sets)  # each common far set
        np.take(low_mass, np.bitwise_and(sets, (1 << h) - 1, out=idx), out=mass, mode="clip")
        for i in range(h, n):  # the high bits' weights, in ascending order
            np.not_equal(np.bitwise_and(sets, 1 << i, out=idx), 0, out=bit)
            np.add(mass, w[i], out=mass, where=bit)
        best = max(best, float(mass.max()))
    return min(best, 0.5)


def alpha_exact_profile(space: MMSpace, eps_grid=None) -> ConcentrationProfile:
    """Exact concentration profile on a grid (default: realized distances).

    The default grid, `default_eps_grid`, holds every realized distance up
    to ``ORACLE_LIMIT`` points, so the profile captures every jump of
    alpha, and its step quadrature is the integral of alpha but on the
    first interval; on any other grid it is an upper bound (the lemma in
    ``ConcentrationProfile``).

    Every distance is ranked once against the grid, and the distinct
    ranks are numbered in order (their levels).  Ranking is monotone, so
    the least level over a set's members is the level of the distance to
    the set.  Each point's key packs (level, point) into one integer, and
    two subset-min tables of keys, over the low and the high half of the
    point bits (``2**ceil(n/2)`` rows at most), give a mask's keys as one
    ``np.minimum`` of two gathers.  The minimal half-mass subsets are
    processed in batches of ``mmspace.BLOCK_ENTRIES`` bytes, written into
    buffers made once per call, and each mask's keys are sorted once: its
    points by level, then in point order.

    The mass inside the closed neighborhood of a level sums the weights in
    point order within each level, from 0, and then the levels' sums in
    level order.  These are the additions, in the order, of a ``bincount``
    over (mask, level) followed by a ``cumsum`` over the levels; the
    empty levels that this skips only add 0.0, which is exact, so every
    mass keeps its bits.  A mask's mass at the end of a level run holds
    from that level up to the level before its next run.  The masses do
    not decrease along the runs, so the least mass over all masks at a
    level is the least over the runs whose interval ends at it or later:
    a scatter-min at each interval's end, then a minimum from the top
    level down.  Per mask this is O(n log n) work, and no array grows
    with the grid but the profile itself.
    """
    _require_oracle_size(space, "alpha_lower")
    grid, diam = _eps_grid(space, eps_grid)
    subs = _minimal_half_subsets(space.weights)
    n = space.n
    # rank[x, a] is the first grid index with grid[j] >= d(x, a); x lies in
    # the closed grid[j]-neighborhood of A from the least rank over A on
    ranks, level = np.unique(np.searchsorted(grid, space.dist, side="left"),
                             return_inverse=True)
    bits = max(n - 1, 1).bit_length()
    # key[a, x] packs (level of d(x, a), x) into an intp, so its point
    # indexes the weights without a cast; the last row lies above them all
    key = (np.vstack([level.reshape(n, n).T, np.full(n, ranks.size)]) << bits) | np.arange(n)
    h = (n + 1) // 2
    low = _subset_table(key[:h], key[n], np.minimum)
    high = _subset_table(key[h:n], key[n], np.minimum)
    # least[p]: the least mass inside over the runs whose level interval
    # ends at level p; the spare last entry takes what ends before level 0
    least = np.ones(ranks.size + 1)
    # per mask a batch holds two gathers of n keys, n masses (8 bytes
    # each), n - 1 flags, a carry and a table index
    batch = max(1, mmspace.BLOCK_ENTRIES // (25 * n + 15))
    size = min(batch, subs.size)
    gathers = np.empty((2, size * n), dtype=np.int64)
    masses, flags = np.empty(size * n), np.empty(size * (n - 1), dtype=bool)
    carries, indices = np.empty(size), np.empty(size, dtype=np.int64)
    for start in range(0, subs.size, batch):
        masks = subs[start : start + batch]
        k = masks.size
        carry, idx = carries[:k], indices[:k]
        keys, other = (g[: k * n].reshape(k, n) for g in gathers)
        np.take(low, np.bitwise_and(masks, (1 << h) - 1, out=idx), axis=0, out=keys,
                mode="clip")
        np.take(high, np.right_shift(masks, h, out=idx), axis=0, out=other, mode="clip")
        np.minimum(keys, other, out=keys)
        keys.sort(axis=1)
        # row i of the transpose: each mask's i-th key, split into its
        # level and its point
        lev, pts = (g[: k * n].reshape(n, k) for g in gathers)
        np.copyto(pts, keys.T)
        np.right_shift(pts, bits, out=lev)
        np.bitwise_and(pts, (1 << bits) - 1, out=pts)
        mass = masses[: k * n].reshape(n, k)
        np.take(space.weights, pts, out=mass, mode="clip")
        same = np.equal(lev[1:], lev[:-1], out=flags[: k * (n - 1)].reshape(n - 1, k))
        for i in range(1, n):  # each level's sum, in point order
            mass[i] += np.multiply(mass[i - 1], same[i - 1], out=carry)
        mass[:-1] *= np.logical_not(same, out=same)  # a level's sum stays at its last point
        for i in range(1, n):  # the levels' sums, in level order
            mass[i] += mass[i - 1]
        # a run ending at i - 1 holds mass[i - 1] up to level lev[i] - 1;
        # inside a run, mass[i - 1] repeats the entry of the run before it,
        # and inside the first run it is 0 and lands on the spare entry
        np.minimum.at(least, np.subtract(lev[1:], 1, out=lev[1:]).ravel(),
                      mass[:-1].ravel())
        least[ranks.size - 1] = min(least[ranks.size - 1], mass[-1].min())
    envelope = np.minimum.accumulate(least[-2::-1])[::-1]
    inside = envelope[np.searchsorted(ranks, np.arange(grid.size), side="right") - 1]
    return _alpha_profile(grid, 1.0 - inside, "exact", diam)


def _threshold_kappa(dist: np.ndarray, t: float, masses: np.ndarray,
                     neigh: np.ndarray, partner: np.ndarray) -> float:
    """The largest kappa admitting disjoint (A, B) with all cross
    distances >= t (t > 0).

    In the threshold graph with edges at distance >= t the best partner
    of a side A is its full common neighborhood N(A), so this is
    ``max_A min(mass(A), mass(N(A)))``.  `masses` holds every subset's
    mass (``2**n`` entries).

    Lemma (half the masks): the maximum is attained by some A without
    point 0.  Let A* attain it and hold point 0.  Then ``B = N(A*)`` does
    not, since ``d(0, 0) = 0 < t``, and ``N(B)`` contains A*, since the
    distances are exactly symmetric.  A subset's computed mass never
    exceeds its superset's (the lemma of `_sep_levels`), so ``(B, N(B))``
    attains at least ``min(mass(N(A*)), mass(A*))``.  So one subset DP
    folds the rows of points 1..n-1 over the ``2**(n-1)`` masks m of A
    without point 0, whose full mask is ``2 m``: A's mass is
    ``masses[::2][m]``, the same sum.  The DP writes into the
    ``2**(n-1)`` buffers `neigh` (int64) and `partner` (float).
    """
    _common_far(dist[1:] >= t, out=neigh)
    np.take(masses, neigh, out=partner, mode="wrap")  # in range: unbuffered
    return float(np.minimum(masses[::2], partner, out=partner).max())


def _sep_levels(space: MMSpace, floors: np.ndarray) -> np.ndarray:
    """For each mass floor f (``kappa - MASS_TOL``), the largest distinct
    positive distance t with ``kappa(t) >= f``, or 0 if there is none;
    ``kappa(t)`` is `_threshold_kappa`.

    Lemma: ``kappa(t)`` is non-increasing in t, also in floating point.
    Raising t only removes edges, so N(A) shrinks to a subset of itself;
    ``_subset_table(weights, 0.0, np.add)`` adds a subset's weights in
    ascending bit order from 0, and rounding is monotone, so a subset's
    computed mass never exceeds its superset's (induct over the bits: both
    partial sums take the same weight or only the superset's does).  The
    admissible thresholds of a floor are therefore a prefix of the
    ascending thresholds, and bisection finds its last element exactly
    where a scan of every threshold would.

    Each floor is bisected on its own (``bisect.bisect_left`` over the
    threshold indices).  Each evaluated ``kappa(t)`` is memoised on the
    space as a scalar, so floors whose bisections pass through the same
    threshold, in this call or a later one, share its DP; the mask tables
    (the ``2**n`` masses, the two ``2**(n-1)`` DP buffers) are made at the
    first DP and live only for this call.
    """
    dist = space.dist
    thresholds = np.unique(dist[dist > 0])
    memo = vars(space).setdefault("_threshold_kappas", {})
    bufs = []

    def kappa(i: int) -> float:
        t = float(thresholds[i])
        if t not in memo:
            if not bufs:
                size = 1 << (space.n - 1)
                bufs.extend((_subset_table(space.weights, 0.0, np.add),
                             np.empty(size, dtype=np.int64), np.empty(size)))
            memo[t] = _threshold_kappa(dist, t, *bufs)
        return memo[t]

    sep = np.zeros(floors.size)
    for k, floor in enumerate(floors):
        # the first threshold index whose kappa falls below the floor
        i = bisect.bisect_left(range(thresholds.size), True,
                               key=lambda i: kappa(i) < floor)
        sep[k] = thresholds[i - 1] if i else 0.0
    return sep


def sep_exact(space: MMSpace, kappa: float) -> float:
    """Exact separation distance by threshold-graph search (n <= 22).

    Bisects over the distinct realized distances, testing a threshold
    graph for a pair of disjoint vertex sets that are completely
    cross-connected and both carry mass at least kappa; returns 0 when no
    admissible pair exists.  At most ``ceil(log2(T + 1))`` subset DPs for
    T distinct distances, fewer where earlier calls evaluated them.
    """
    _require_oracle_size(space, "sep_lower")
    if not (kappa > 0):
        raise InputError(f"kappa must be positive, got {kappa!r}")
    return float(_sep_levels(space, np.array([kappa - MASS_TOL], dtype=float))[0])


def sep_exact_profile(space: MMSpace, kappa_grid=None) -> SeparationProfile:
    """Exact separation profile on a kappa grid (default {i/100}), from
    one bisection per grid point, which share their DPs (`_sep_levels`)."""
    _require_oracle_size(space, "sep_lower")
    grid = _kappa_grid(kappa_grid)
    return SeparationProfile(grid, _sep_levels(space, grid - MASS_TOL), "exact",
                             diameter(space))


# -- heuristics -------------------------------------------------------------------


def _check_features(space: MMSpace, feats) -> None:
    """Refuse a feature whose values are not one per point of `space`."""
    for f in feats:
        if f.values.shape != (space.n,):
            raise InputError(f"feature {f.name!r} has {f.values.size} values, "
                             f"but the space has {space.n} points")


def _witness_outside_profile(space: MMSpace, d_to_a: np.ndarray,
                             grid: np.ndarray) -> np.ndarray:
    order = np.argsort(d_to_a, kind="stable")
    cum = np.cumsum(space.weights[order])
    pos = np.searchsorted(d_to_a[order], grid, side="right")
    inside = np.where(pos > 0, cum[np.maximum(pos - 1, 0)], 0.0)
    return 1.0 - inside


def alpha_lower(space: MMSpace, eps_grid=None, dictionary: list[Feature] | None = None,
                ball_centers=None) -> ConcentrationProfile:
    """Certified lower bounds on alpha from an explicit witness family.

    Witnesses are the half-mass sublevel sets ``{x : v(x) <= median_v}`` of
    each dictionary feature and of the distance to each ball center (a
    weight-balanced ball, its rows read in one :meth:`MMSpace.iter_rows`
    call).  The default anchors (every point up to 64, else 32 seeded ones)
    are the default centers, and without a dictionary they join the given
    ones: an anchor feature's sublevel set is its anchor's ball.  Each
    distinct set is evaluated once, all in one ``iter_set_distances`` pass.
    Every value is ``1 - mu(A_eps)`` for one of them, hence at most the
    exact alpha.  Ball centers must be point ids in ``[0, n)``, and the
    features must have one value per point.
    """
    _check_features(space, dictionary or ())
    grid, diam = _eps_grid(space, eps_grid)
    anchors = np.random.default_rng(0).choice(
        space.n, size=space.n if space.n <= 64 else 32, replace=False)
    centers = anchors if ball_centers is None else space.check_ids(
        ball_centers, "ball centers")
    if dictionary is None:
        centers = np.union1d(anchors, centers)
    w = space.weights
    insides = [v <= weighted_median(v, w) for v in itertools.chain(
        (f.values for f in dictionary or ()), space.iter_rows(centers))]
    best = np.zeros(grid.size)
    for _, d_to_sets in space.iter_set_distances(
            np.unique(np.array(insides, dtype=bool).reshape(-1, space.n), axis=0)):
        for d_to_a in d_to_sets:
            np.maximum(best, _witness_outside_profile(space, d_to_a, grid), out=best)
    return _alpha_profile(grid, best, "lower_bound", diam)


def _greedy_growth_curve(space: MMSpace, i: int, j: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Grow disjoint sets from seeds (i, j); record (min side mass, cross).

    Each step adds, to the lighter side, the free point farthest from the
    other side, so the recorded cross distance is non-increasing while the
    min side mass is non-decreasing.  A taken point's distances to both
    sides are set to -inf, so the farthest free point is the first argmax,
    ties included.  The rows come from a :class:`RowCache`, which computes
    them ahead for the next picks of each side still growing: the free
    points farthest from the other side.  Only the free points' distances
    are read, so once at most half of the cache's columns are free, a
    cache that computes its rows narrows to them, and ``d_a``, ``d_b``
    and the weights follow.
    """
    n = space.n
    w = space.weights
    rows = RowCache(space)
    d_a = rows.take(i).copy()
    d_b = rows.take(j).copy()
    cross = float(d_a[j])
    d_a[[i, j]] = d_b[[i, j]] = -np.inf
    mass_a, mass_b = float(w[i]), float(w[j])
    minmass = [min(mass_a, mass_b)]
    crosses = [cross]
    target = 0.5 - MASS_TOL
    narrows, take = rows.narrows, rows.take
    for free in range(n - 3, -1, -1):  # free points after this step
        if mass_a >= target and mass_b >= target:
            break
        grow_a = (mass_a <= mass_b and mass_a < target) or mass_b >= target
        gain, grown = (d_b, d_a) if grow_a else (d_a, d_b)
        x = int(gain.argmax())
        far = float(gain[x])
        if far < cross:
            cross = far
        d_a[x] = d_b[x] = -np.inf
        row = take(x, gain, grown) if mass_a < target and mass_b < target else take(x, gain)
        np.minimum(grown, row, out=grown)
        if grow_a:
            mass_a += float(w[x])
        else:
            mass_b += float(w[x])
        minmass.append(mass_b if mass_b < mass_a else mass_a)
        crosses.append(cross)
        if narrows and 0 < 2 * free <= d_a.size:
            keep = np.flatnonzero(d_a > -np.inf)
            rows.narrow(keep)
            d_a, d_b, w = d_a[keep], d_b[keep], w[keep]
    return np.asarray(minmass), np.asarray(crosses)


#: a ball-complement witness reads the rows of its ball, half the points at
#: uniform weights, in blocks, and sorts one row per grid level: 0.48-0.58 s
#: at 10^4 unheld points in 50 coordinates; skipped above this size.
_BALL_COMPLEMENT_LIMIT = 4096


def _ball_complement_witness(space: MMSpace, center: int,
                             grid: np.ndarray) -> np.ndarray:
    """Lower bounds from a growing ball against its far complement.

    ``A`` is grown around the center in radius order; whenever its mass
    crosses a grid level, the partner ``B = {x : d(x, A) >= t}`` with the
    largest ``t`` keeping ``mu(B)`` at that level certifies ``sep >= t``.
    This shape (neighborhood complement of a ball-like set) matches the
    isoperimetric extremizers on Hamming cubes.

    The order is the center's row, sorted, so every row the ball takes is
    known before the first.  A level's ball is the prefix that first
    reaches it in ``np.cumsum`` of the weights in that order (the
    additions of a running sum from 0).  The rows up to the last level's
    prefix are read in blocks of ``block_rows``
    (``MMSpace.iter_blocks(ids=...)``) and turned, in place, into running
    minima from the first row on
    (``np.minimum.accumulate``), so the row of a prefix's last point is
    ``d(x, A)``.  ``min`` is exact, so the blocks change no bit.  A
    block's levels are then picked together, as ``pick_order_stats``
    picks one level: the points by ``-d(x, A)`` (a stable argsort per
    level), the running mass in that order (a row-wise ``cumsum``), and
    ``t`` at the count of masses below the level.
    """
    n = space.n
    w = space.weights
    order = np.argsort(next(space.iter_rows([center])), kind="stable")
    floors = grid - MASS_TOL
    ends = np.searchsorted(np.cumsum(w[order]), floors) + 1  # each level's ball
    out = np.zeros(grid.size)
    last = int(ends[ends <= n].max(initial=0))
    d_to_a, b1 = np.full(n, np.inf), 0
    for ids, block in space.iter_blocks(ids=order[:last]):
        b0, b1 = b1, b1 + ids.size
        np.minimum(block[0], d_to_a, out=block[0])
        np.minimum.accumulate(block, axis=0, out=block)  # row i: A = order[:b0 + i + 1]
        d_to_a = block[-1].copy()
        lv = np.flatnonzero((ends > b0) & (ends <= b1))
        if lv.size == 0:
            continue
        near = block[ends[lv] - b0 - 1]  # each level's d(., A)
        far = np.argsort(-near, axis=1, kind="stable")
        mass = np.cumsum(w[far], axis=1)
        k = np.minimum(np.count_nonzero(mass < floors[lv, None], axis=1), n - 1)
        t = near[np.arange(lv.size), far[np.arange(lv.size), k]]
        out[lv] = np.where(np.isfinite(t), np.maximum(t, 0.0), 0.0)
    return out


def sep_lower(space: MMSpace, kappa_grid=None, restarts: int = 8,
              seed: int = 0) -> SeparationProfile:
    """Witness-based lower bounds on the separation profile.

    Restart 0 seeds the two sets with the two-sweep far pair: the point
    ``a`` farthest from point 0, and the point farthest from ``a``.  Later
    restarts use a random point and its farthest partner; a pair drawn
    again is skipped, and drawing stops once every point has been drawn.
    Each seed pair contributes the greedy growth witness (grow both sets
    by the point farthest from the other side until they reach the target
    mass).  Up to ``_BALL_COMPLEMENT_LIMIT`` points, each seed of restart 0
    also centres a ball-complement witness.  Every value is certified by
    an explicit admissible pair, hence at most the exact separation
    distance.
    """
    grid = _kappa_grid(kappa_grid)
    restarts = check_int(restarts, "restarts", least=1)
    rng = np.random.default_rng(check_int(seed, "seed", least=0))
    n = space.n
    best = np.zeros(grid.size)
    if n >= 2:
        rows = RowCache(space)
        a = int(np.argmax(rows.take(0)))
        far = {a: int(np.argmax(rows.take(a)))}  # each seed point's partner
        for _ in range(restarts - 1):
            if len(far) == n:  # a later draw repeats a seed pair
                break
            i = int(rng.integers(n))
            if i not in far:
                far[i] = int(np.argmax(rows.take(i)))
        seeds = [(i, j) for i, j in far.items() if i != j or i == a]
        for i, j in seeds:
            minmass, crosses = _greedy_growth_curve(space, i, j)
            np.maximum(best, _value_at(minmass, crosses, grid - MASS_TOL), out=best)
        if n <= _BALL_COMPLEMENT_LIMIT:
            for c in seeds[0]:
                np.maximum(best, _ball_complement_witness(space, c, grid), out=best)
    best = np.minimum.accumulate(np.maximum(best, 0.0))
    return SeparationProfile(grid, best, "lower_bound", diameter(space))


def greedy_separated_subset(space: MMSpace, min_distance: float) -> np.ndarray:
    """Greedy maximal subset with all pairwise distances >= min_distance.

    Scans points in index order, keeping a point unless an already kept
    point lies strictly closer than `min_distance`.  Rows come from a
    :class:`RowCache` scored by the still-alive candidates, earliest first,
    so a miss computes the rows of the next alive candidates in one block;
    a candidate that a point kept before it removes wastes its row.  Only
    the alive candidates not yet scanned are read, so once at most half of
    the cache's columns are such, a cache that computes its rows narrows
    to them, and the scan goes on over their positions.
    """
    if not (min_distance > 0):
        raise InputError(f"min_distance must be positive, got {min_distance!r}")
    rows = RowCache(space)
    pts = np.arange(space.n)  # the point of each column
    alive = -pts.astype(float)  # -inf once removed; a kept point removes itself
    live, kept, p = space.n, [], 0
    while p < pts.size:
        if alive[p] > -np.inf:
            kept.append(int(pts[p]))
            near = np.flatnonzero(rows.take(p, alive) < min_distance)
            live -= np.count_nonzero(alive[near] > -np.inf)
            alive[near] = -np.inf
            if 0 < 2 * live <= pts.size and rows.narrows:
                keep = np.flatnonzero(alive > -np.inf)
                rows.narrow(keep)
                pts, alive, p = pts[keep], alive[keep], 0
                continue
        p += 1
    return np.asarray(kept, dtype=int)


def split_witness(space: MMSpace, subset_ids) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a separated subset into two measure-balanced halves.

    Returns ``(min side mass, A ids, B ids)``; if the subset is pairwise
    ``delta``-separated, the pair (A, B) certifies ``sep(kappa) >= delta``
    for every ``kappa`` up to the min side mass.
    """
    ids = space.check_ids(subset_ids, "subset ids")
    order = ids[np.argsort(-space.weights[ids], kind="stable")]
    side_a, side_b = [], []
    mass_a = mass_b = 0.0
    for x in order:
        if mass_a <= mass_b:
            side_a.append(int(x))
            mass_a += float(space.weights[x])
        else:
            side_b.append(int(x))
            mass_b += float(space.weights[x])
    return min(mass_a, mass_b), np.asarray(side_a, int), np.asarray(side_b, int)


# -- analytic Hamming separation ---------------------------------------------------
#
# The separation function of the cube reduces to vertex isoperimetry: two
# sets of >= a vertices admit bit-distance >= j between them exactly when
# the minimal (j-1)-step neighborhood closure of an a-vertex set leaves
# room for a vertices outside.  Extremal sets are initial segments of the
# simplicial order (full balls plus a shadow-minimal partial layer), and
# so are their closures (Harper), whose sizes follow in closed form from
# the iterated Kruskal-Katona shadow.


def _iterated_shadow(s: int, k: int, d: int, t: int) -> int:
    """Size of the t-fold lower shadow of the first s k-subsets of a d-set
    in colex order, for ``0 <= s <= C(d, k)``: ``sum_i C(a_i, k_i - t)``
    over the cascade ``s = sum_i C(a_i, k_i)``, ``k_i = k - i + 1``, a term
    with a negative lower index being 0.  At t = 1 this is the least
    shadow of s k-subsets (Kruskal-Katona); at t = 0 it is s.

    The digit of column k is the largest a with ``C(a, k) <= s``.  The
    digits strictly decrease, since the remainder ``s - C(a, k)`` is below
    ``C(a, k-1)``, so one walk down the columns finds them all: it starts
    at ``C(d, k)`` and ``C(d, k-t)`` and steps both by the exact
    recurrences ``C(a-1, m) = C(a, m) (a-m) / a`` and
    ``C(a, m-1) = C(a, m) m / (a-m+1)``, at most ``d`` steps down in all.
    It stops at the first column below t, whose terms are all 0.
    """
    if k < t:
        return 0
    total = 0
    a, c, ct = d, math.comb(d, k), math.comb(d, k - t)  # C(a, k), C(a, k - t)
    while s > 0 and k >= t:
        while c > s:
            c = c * (a - k) // a
            ct = ct * (a - k + t) // a
            a -= 1
        total += ct
        s -= c
        c = c * k // (a - k + 1)
        ct = ct * (k - t) // (a - k + t + 1)
        k -= 1
    return total


def _ball_sizes(d: int) -> list[int]:
    sizes, layer = [0], 1  # layer = C(d, r)
    for r in range(d + 1):
        sizes.append(sizes[-1] + layer)
        layer = layer * (d - r) // (r + 1)
    return sizes  # sizes[r+1] = |ball(r)|


def _closure(m: int, t: int, d: int, balls: list[int]) -> int:
    """Least size of the t-step neighborhood closure of an m-vertex set of
    the d-cube, ``1 <= m <= 2**d``, in closed form (the lemma in
    ``_max_bit_separation``)."""
    r = bisect.bisect_left(balls, m) - 1
    if r + t > d:
        return 1 << d
    return balls[r + t] + _iterated_shadow(m - balls[r], d - r, d, t)


def _max_bit_separation(a: int, d: int, balls: list[int]) -> int:
    """Largest j such that some pair of a-vertex sets is j bits apart.

    That is the largest ``j <= d`` whose ``(j-1)``-step closure of an
    a-vertex set leaves room for a vertices outside: at j = 1 the set
    itself, and where that leaves no room there is no pair (0).  Initial
    segments of the simplicial order have the least closures (Harper),
    and their sizes have a closed form (``_closure``).

    Lemma (iterated shadow).  Let ``balls[r] < m <= balls[r+1]``: the
    initial segment of size m is the ball of radius r-1 and the first
    ``s = m - balls[r]`` weight-r vertices, whose complements are the
    first s (d-r)-sets in colex order, ``s = sum_i C(a_i, k_i)`` with
    ``k_i = d - r - i + 1``.  Its t-step closure is the ball of radius
    r+t-1 and the t-fold upper shadow of those vertices in layer r+t, the
    t-fold lower shadow of their complements, an initial colex segment
    again (Kruskal-Katona, iterated).  So its size is
    ``min(2**d, balls[r+t] + sum_i C(a_i, k_i - t))``.  Edge cases: a term
    with a negative lower index is 0; a full layer (``s = C(d, r)``)
    closes to the ball ``balls[r+t+1]``; the closure is ``2**d`` once
    ``r + t > d``; t = 0 gives m.

    Closures grow with the step count, so ``j - 1`` is bisected over
    ``[0, d]``: the 0-step closure is the set itself, which fits, and the
    d-step closure is the whole cube, which does not.  About ``log2 d``
    closure evaluations, each one walk of the cascade.
    """
    room = (1 << d) - a
    if a > room:
        return 0
    # the steps 1..d-1 whose closure leaves room, a prefix
    return 1 + bisect.bisect_right(range(1, d), room,
                                   key=lambda t: _closure(a, t, d, balls))


def _check_cube_dim(d: int, limit: int) -> int:
    if check_int(d, "d", least=1) > limit:
        raise InputError(f"d must lie in [1, {limit}], got {d!r}")
    return int(d)


def sep_hamming_analytic(d: int, kappa) -> float:
    """Exact separation distance of the normalized Hamming cube.

    Computed without enumeration from vertex isoperimetry: the extremal
    witness pair consists of an initial segment of the simplicial order
    (a Hamming ball plus a shadow-minimal partial layer) and the
    complement of its neighborhood closure.  Exact integer arithmetic
    throughout; `kappa` may be a float or a Fraction.
    """
    d = _check_cube_dim(d, MAX_ANALYTIC_CUBE_DIM)
    if not (math.isfinite(kappa) and 0 < (kap := Fraction(kappa)) <= Fraction(1, 2)):
        raise InputError(f"kappa must lie in (0, 1/2], got {kappa!r}")
    a = int(math.ceil(kap * (1 << d)))
    return _max_bit_separation(a, d, _ball_sizes(d)) / d


def sep_hamming_profile(d: int) -> SeparationProfile:
    """Exact separation profile of the Hamming cube on its jump grid.

    Knots sit exactly where the separation drops as the required mass
    grows, so the step quadrature of this profile integrates the
    separation function exactly.  m vertices admit a pair j bits apart
    exactly when the ``(j-1)``-step closure of an initial segment of size
    m leaves m vertices outside, and the largest such m, ``m_j``, grows as
    j falls, up to ``m_1 = 2**(d-1)``.  So j runs from d down to 1: each
    ``m_j`` is bisected from the last knot up to half the cube, and a knot
    ``(m_j / 2**d, j / d)`` is added where ``m_j`` grows.  By the
    iterated-shadow lemma (see ``_max_bit_separation``:
    ``balls[r+t] + sum_i C(a_i, k_i - t)``, terms with a negative lower
    index 0, the whole cube once ``r + t > d``) each test is one walk of a
    cascade, not j - 1 closure steps.
    """
    d = _check_cube_dim(d, MAX_PROFILE_CUBE_DIM)
    balls = _ball_sizes(d)
    full = 1 << d
    knots: list[float] = []
    vals: list[float] = []
    last = 0  # m_j of the last knot
    for j in range(d, 0, -1):
        lo, hi = last, full // 2  # the largest m in [last, 2**(d-1)] keeping j
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _closure(mid, j - 1, d, balls) <= full - mid:
                lo = mid
            else:
                hi = mid - 1
        if lo > last:
            knots.append(lo / full)
            vals.append(j / d)
            last = lo
    return SeparationProfile(np.asarray(knots), np.asarray(vals), "analytic", 1.0)


# -- observable diameter and margins ----------------------------------------------


def _kth_largest_abs_diff(values: np.ndarray, u, target) -> float:
    """Largest attained ``|v_a - v_b|`` whose ordered pairs at or above it
    carry mass at least `target`, or 0 if the pairs with ``v_a != v_b``
    carry less; the pair (a, b) has mass ``u_a * u_b``, or 1 if `u` is None.

    Exact.  Each unordered pair counts once, against half the target.  Row
    a of the sorted values reaches a difference D on a prefix ``b < c_a``
    (:func:`_reaching`), so the pairs between two probes are a window of
    index ranges ``[lo_a, hi_a)``.  Probes narrow it to at most n pairs, or
    one difference; ``pick_order_stats`` then picks among its negated
    differences.  A probe is aimed just past the target, as read off a
    sample of the window (``_aimed_probe``), so the side kept is small
    however the differences spread over the binades; where the last probe
    left more than half of its pairs, it is the median of the rows' middle
    differences by row width (one ``pick_order_stats``), which keeps at
    most about three quarters.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    w = np.ones(v.size) if u is None else u[order]
    prefix = np.concatenate([[0.0], np.cumsum(w)])
    half = -(-target // 2) if u is None else target / 2
    rows, lo, hi = np.arange(v.size), np.zeros(v.size, dtype=int), np.searchsorted(v, v)
    if float(w @ prefix[hi]) < half:
        return 0.0
    above = 0.0  # mass of the pairs above the window
    halved = True  # the last probe left at most half of the window's pairs
    for _ in range(4096):  # each probe shrinks the window, every other one by a quarter
        keep = lo < hi
        rows, lo, hi = rows[keep], lo[keep], hi[keep]
        top, bottom = (v[rows] - v[lo]).max(), (v[rows] - v[hi - 1]).min()
        if top == bottom:
            return float(top)
        pairs = int((hi - lo).sum())
        if pairs <= v.size:
            break
        if halved:
            inside = float(w[rows] @ (prefix[hi] - prefix[lo]))
            probe = _aimed_probe(v, w, rows, lo, hi, (half - above) / inside)
        else:
            middles = v[rows] - v[(lo + hi - 1) // 2]
            probe = pick_order_stats(middles, hi - lo, 0.0, [pairs / 2])[0]
        c = _reaching(v, max(probe, np.nextafter(bottom, np.inf)), rows, lo, hi)
        m = above + float(w[rows] @ (prefix[c] - prefix[lo]))
        lo, hi, above = (lo, c, above) if m >= half else (c, hi, m)
        halved = 2 * int((hi - lo).sum()) <= pairs
    else:
        raise InvariantViolation("observable diameter selection did not converge")
    widths = hi - lo
    a = np.repeat(rows, widths)
    b = np.arange(a.size) + np.repeat(lo + widths - np.cumsum(widths), widths)
    masses = None if u is None else w[a] * w[b]
    return -pick_order_stats(v[b] - v[a], masses, above, [half])[0]


#: pairs of a window read to aim a probe of ``_kth_largest_abs_diff``.
_AIM_PAIRS = 1024


def _aimed_probe(v: np.ndarray, w: np.ndarray, rows, lo, hi, share: float) -> float:
    """A difference just past the one at which the window's pairs, from its
    largest difference down, reach the fraction `share` of its mass, read
    off ``_AIM_PAIRS`` evenly spaced pairs of it: below that point if
    `share` is at most one half, else above, by 2 standard errors and one
    pair, so that the side holding the target is small."""
    widths = hi - lo
    ends = np.cumsum(widths)
    k = min(_AIM_PAIRS, int(ends[-1]))
    at = (2 * np.arange(k) + 1) * ends[-1] // (2 * k)  # ranks in the window
    r = np.searchsorted(ends, at, side="right")
    b = lo[r] + at - (ends[r] - widths[r])
    order = np.argsort(v[b] - v[rows[r]], kind="stable")  # largest difference first
    mass = (w[rows[r]] * w[b])[order]
    reach = np.cumsum(mass) / mass.sum()
    margin = 2.0 * math.sqrt(share * max(1.0 - share, 0.0) / k) + 1.0 / k
    aim = share + margin if share <= 0.5 else share - margin
    j = order[min(int(np.searchsorted(reach, aim)), k - 1)]
    return float(v[rows[r[j]]] - v[b[j]])


def _reaching(v: np.ndarray, d: float, rows, lo, hi) -> np.ndarray:
    """For each of `rows`, the number of b with ``v[row] - v[b] >= d`` in
    floats, known to lie in ``[lo, hi]``; `v` ascending.  Bisection, whose
    first two steps test the two sides of a guess from ``v[row] - d``."""
    va, lo, hi = v[rows], lo.copy(), hi.copy()
    guess, step = np.searchsorted(v, va - d, side="right"), 0  # va - d rounds
    open_ = np.flatnonzero(lo < hi)
    while open_.size:
        mid = (np.clip(guess[open_] + step - 1, lo[open_], hi[open_] - 1) if step < 2
               else (lo[open_] + hi[open_]) // 2)
        ok = va[open_] - v[mid] >= d
        lo[open_[ok]], hi[open_[~ok]] = mid[ok] + 1, mid[~ok]
        open_, step = open_[lo[open_] < hi[open_]], step + 1
    return lo


def observable_diameter(space: MMSpace, kappa: float,
                        dictionary: list[Feature]) -> float:
    """Largest observable diameter over a feature dictionary (lower bound).

    For each feature the least D with ``P[|f(x) - f(y)| > D] < kappa``
    under the product measure, an attained ``|v_a - v_b|`` selected exactly
    from its n sorted values under any weights (O(n) memory; see
    ``_kth_largest_abs_diff``).  The maximum over the finite dictionary can
    only under-report the supremum over all non-expanding functions.
    """
    if not (0 < kappa < 1):
        raise InputError(f"kappa must lie in (0, 1), got {kappa!r}")
    if not dictionary:
        raise InputError("observable_diameter requires a nonempty dictionary")
    _check_features(space, dictionary)
    w = space.weights
    u, target = ((None, math.ceil(kappa * space.n * space.n)) if uniform_weights(w)
                 else (w, kappa - 1e-15))
    return max(_kth_largest_abs_diff(f.values, u, target) for f in dictionary)


def margin_error(space: MMSpace, labels, feature: Feature, gamma: float) -> float:
    """Weighted mass of points whose margin ``|f(x) - 1/2|`` is below gamma.

    `labels` must be a binary vector of length n; the printed error
    formula does not involve the labels, and they are validated but not
    otherwise used.  `feature` must be certified non-expanding.
    """
    labels = np.asarray(labels)
    if labels.shape != (space.n,) or not np.isin(labels, (0, 1)).all():
        raise InputError("labels must be a binary vector of length n")
    if not isinstance(feature, Feature):
        raise InputError("margin_error requires a certified Feature")
    _check_features(space, [feature])
    if feature.lipschitz_bound > 1.0 + LIPSCHITZ_TOL:
        raise InputError(
            f"feature is not certified 1-Lipschitz "
            f"(bound {feature.lipschitz_bound!r})"
        )
    if not gamma >= 0:
        raise InputError(f"gamma must be nonnegative, got {gamma!r}")
    margin = np.abs(feature.values - 0.5)
    return float(space.weights[margin < gamma].sum())
