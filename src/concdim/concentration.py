"""Concentration function, separation function, observable diameter, margins.

Every quantity comes in two flavors with an explicit certificate direction:

* exact oracles (subset enumeration / threshold-graph search over all
  ``2**n`` masks), available up to ``ORACLE_LIMIT`` points;
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation, ResourceLimitError
from .features import Feature, dictionary as make_dictionary
from .mmspace import MMSpace, diameter, weighted_median

#: exact oracles enumerate all 2**n subsets; refuse above this size.
ORACLE_LIMIT = 22

#: slack used for measure comparisons (cumulative float sums).
MASS_TOL = 1e-12

#: default number of kappa grid points: {i/(2m) : i = 1..m}.
DEFAULT_KAPPA_POINTS = 50

#: cap on the default eps grid; the distinct realized distances are used
#: when there are at most this many, quantiles of them otherwise.
MAX_EPS_GRID = 512

#: largest cube dimension accepted by sep_hamming_analytic.  Tiny kappa
#: (about 2**(-0.8 d)) is the slowest: 40 s at d=850, 63 s at d=900
#: (Python 3.11, one core of a 2-core Xeon).
MAX_ANALYTIC_CUBE_DIM = 850

#: largest cube dimension accepted by sep_hamming_profile: 40 s at d=100,
#: 55 s at d=105 on the same machine.
MAX_PROFILE_CUBE_DIM = 105


# -- profiles -------------------------------------------------------------------


def _write_two_column_csv(path, header: tuple[str, str], grid, values) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for g, v in zip(grid, values):
            w.writerow([repr(float(g)), repr(float(v))])


@dataclass(frozen=True)
class ConcentrationProfile:
    """alpha estimates on an ascending eps grid with a certificate mode.

    ``mode`` is ``"exact"`` or ``"lower_bound"``; ``step=True`` marks
    exact profiles evaluated at every realized distance, for which the
    right-continuous step quadrature reproduces the integral of alpha
    exactly.
    """

    eps_grid: np.ndarray
    alpha: np.ndarray
    mode: str
    diameter: float
    step: bool = True

    def __post_init__(self):
        g = np.asarray(self.eps_grid, dtype=float)
        a = np.asarray(self.alpha, dtype=float)
        if g.ndim != 1 or g.shape != a.shape or g.size == 0:
            raise InputError("profile grid and values must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise InputError("eps grid must be strictly ascending")
        if g[0] < 0 or g[-1] > self.diameter + 1e-9:
            raise InputError("eps grid must lie within [0, diameter]")
        if np.any(a < -1e-12) or np.any(a > 0.5 + 1e-9):
            raise InvariantViolation("alpha values outside [0, 1/2]")
        if np.any(np.diff(a) > 1e-9):
            raise InvariantViolation("alpha must be non-increasing in eps")
        if g[0] == 0.0 and abs(a[0] - 0.5) > 1e-12:
            raise InvariantViolation("alpha(0) must equal 1/2 by convention")
        for arr in (g, a):
            arr.setflags(write=False)
        object.__setattr__(self, "eps_grid", g)
        object.__setattr__(self, "alpha", a)

    def integral(self) -> float:
        """Integral of alpha over [grid start, grid end]."""
        if self.eps_grid.size == 1:
            return 0.0
        if self.step:
            return float(np.sum(self.alpha[:-1] * np.diff(self.eps_grid)))
        return float(np.trapezoid(self.alpha, self.eps_grid))

    def metadata(self) -> dict:
        return {
            "kind": "concentration_profile",
            "mode": self.mode,
            "step": self.step,
            "diameter": self.diameter,
            "grid_size": int(self.eps_grid.size),
        }

    def to_csv(self, path) -> None:
        _write_two_column_csv(path, ("eps", "alpha"), self.eps_grid, self.alpha)


@dataclass(frozen=True)
class SeparationProfile:
    """sep estimates on an ascending kappa grid in (0, 1/2].

    ``mode`` is ``"exact"``, ``"lower_bound"`` or ``"analytic"``.  The
    separation function is extended to ``kappa -> 0`` by its value at the
    smallest grid point when integrating.
    """

    kappa_grid: np.ndarray
    sep: np.ndarray
    mode: str
    diameter: float
    step: bool = True

    def __post_init__(self):
        g = np.asarray(self.kappa_grid, dtype=float)
        s = np.asarray(self.sep, dtype=float)
        if g.ndim != 1 or g.shape != s.shape or g.size == 0:
            raise InputError("profile grid and values must be matching 1-D arrays")
        if np.any(np.diff(g) <= 0):
            raise InputError("kappa grid must be strictly ascending")
        if g[0] <= 0 or g[-1] > 0.5 + 1e-12:
            raise InputError("kappa grid must lie within (0, 1/2]")
        if np.any(s < -1e-12) or np.any(s > self.diameter + 1e-9):
            raise InvariantViolation("sep values outside [0, diameter]")
        if np.any(np.diff(s) > 1e-9):
            raise InvariantViolation("sep must be non-increasing in kappa")
        for arr in (g, s):
            arr.setflags(write=False)
        object.__setattr__(self, "kappa_grid", g)
        object.__setattr__(self, "sep", s)

    def integral(self) -> float:
        """Integral over [0, grid end], extending by the first value near 0."""
        head = float(self.sep[0] * self.kappa_grid[0])
        if self.kappa_grid.size == 1:
            return head
        if self.step:
            return head + float(np.sum(self.sep[1:] * np.diff(self.kappa_grid)))
        return head + float(np.trapezoid(self.sep, self.kappa_grid))

    def metadata(self) -> dict:
        return {
            "kind": "separation_profile",
            "mode": self.mode,
            "step": self.step,
            "diameter": self.diameter,
            "grid_size": int(self.kappa_grid.size),
        }

    def to_csv(self, path) -> None:
        _write_two_column_csv(path, ("kappa", "sep"), self.kappa_grid, self.sep)


def default_kappa_grid(m: int = DEFAULT_KAPPA_POINTS) -> np.ndarray:
    """The grid {i/(2m) : i = 1..m}, ending exactly at 1/2."""
    return np.arange(1, m + 1) / (2.0 * m)


def default_eps_grid(space: MMSpace, max_points: int = MAX_EPS_GRID) -> np.ndarray:
    """Sorted distinct realized distances, quantile-subsampled when huge.

    Always contains 0 and the diameter, so exact profiles on this grid
    capture every step of alpha.
    """
    if space.is_dense or space.n <= 2048:
        vals = np.unique(space.dist)
    else:
        rng = np.random.default_rng(0)
        ids = rng.choice(space.n, size=min(space.n, 1024), replace=False)
        vals = np.unique(space.submatrix(ids))
    if vals.size > max_points:
        qs = np.quantile(vals, np.linspace(0.0, 1.0, max_points))
        vals = np.unique(np.concatenate([[0.0], qs, [diameter(space)]]))
    else:
        vals = np.unique(np.concatenate([[0.0], vals, [diameter(space)]]))
    return vals


# -- exact oracles ---------------------------------------------------------------


def _require_oracle_size(space: MMSpace, fallback: str) -> None:
    if space.n > ORACLE_LIMIT:
        raise ResourceLimitError(
            f"exact enumeration is limited to n <= {ORACLE_LIMIT} points "
            f"(got n={space.n}); use {fallback} instead"
        )


def _subset_masses(weights: np.ndarray) -> np.ndarray:
    n = len(weights)
    m = np.zeros(1 << n)
    for i in range(n):
        m[1 << i : 1 << (i + 1)] = m[: 1 << i] + weights[i]
    return m


def _minimal_half_subsets(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of inclusion-minimal subsets with mass >= 1/2, plus all masses.

    Dropping any point of such a subset pushes its mass below one half;
    every half-mass subset contains one, and enlarging a witness set can
    only shrink the complement of its neighborhood, so maximizing over the
    minimal subsets is exhaustive.
    """
    n = len(weights)
    masses = _subset_masses(weights)
    minw = np.full(1 << n, np.inf)
    for i in range(n):
        minw[1 << i : 1 << (i + 1)] = np.minimum(minw[: 1 << i], weights[i])
    admissible = masses >= 0.5 - MASS_TOL
    still = (masses - minw) >= 0.5 - MASS_TOL
    return np.flatnonzero(admissible & ~still), masses


def _ball_masks(space: MMSpace, eps: float) -> np.ndarray:
    """ball_masks[x] = bitmask of {a : d(x, a) <= eps}."""
    closed = space.dist <= eps
    powers = 1 << np.arange(space.n, dtype=np.int64)
    return closed.astype(np.int64) @ powers


def alpha_exact(space: MMSpace, eps: float, convention_at_zero: bool = True) -> float:
    """Exact concentration function value by subset enumeration (n <= 22).

    Maximizes ``1 - mu(A_eps)`` over all subsets of mass at least one half,
    with closed eps-neighborhoods.  At ``eps=0`` the conventional value 1/2
    is returned unless ``convention_at_zero=False``, in which case the
    enumeration value is used.
    """
    _require_oracle_size(space, "alpha_lower")
    if eps < 0:
        raise InputError(f"eps must be nonnegative, got {eps!r}")
    if eps == 0.0 and convention_at_zero:
        return 0.5
    subs, _ = _minimal_half_subsets(space.weights)
    balls = _ball_masks(space, eps)
    outside = np.zeros(len(subs))
    for x in range(space.n):
        outside += space.weights[x] * ((subs & balls[x]) == 0)
    return float(min(max(outside.max(), 0.0), 0.5))


def alpha_exact_profile(space: MMSpace, eps_grid=None) -> ConcentrationProfile:
    """Exact concentration profile on a grid (default: realized distances).

    On the default grid the profile captures every step of alpha, so its
    step quadrature integrates alpha exactly.
    """
    _require_oracle_size(space, "alpha_lower")
    diam = diameter(space)
    if eps_grid is None:
        grid = np.unique(np.concatenate([[0.0, diam], np.unique(space.dist)]))
    else:
        grid = np.unique(np.concatenate([[0.0, diam], np.asarray(eps_grid, dtype=float)]))
        if grid[0] < 0:
            raise InputError("eps grid must be nonnegative")
    subs, _ = _minimal_half_subsets(space.weights)
    best = np.zeros(grid.size)
    members = [np.flatnonzero((int(s) >> np.arange(space.n)) & 1) for s in subs]
    w = space.weights
    for ids in members:
        d_to_a = space.dist[:, ids].min(axis=1)
        idx = np.searchsorted(grid, d_to_a, side="left")
        # grid[j] >= d_to_a[x] iff j >= idx[x]; x lies outside A_eps below that
        bucket = np.zeros(grid.size + 1)
        np.add.at(bucket, idx, w)
        inside = np.cumsum(bucket[:-1])
        np.maximum(best, 1.0 - inside, out=best)
    best = np.minimum(np.maximum(best, 0.0), 0.5)
    best[(grid >= diam) & (grid > 0)] = 0.0
    best[0] = 0.5  # convention at eps = 0
    best = np.minimum.accumulate(best)
    return ConcentrationProfile(grid, best, "exact", diam, step=eps_grid is None)


def _threshold_curve(space: MMSpace) -> tuple[np.ndarray, np.ndarray]:
    """For each distinct positive distance t (ascending), the largest
    kappa admitting disjoint (A, B) with all cross distances >= t.

    For a threshold graph with edges at distance >= t, the best partner of
    a side A is the full common neighborhood N(A); the curve is
    ``max_A min(mass(A), mass(N(A)))`` computed by a subset DP.
    """
    cached = getattr(space, "_threshold_curve_cache", None)
    if cached is not None:
        return cached
    n = space.n
    dist = space.dist
    masses = _subset_masses(space.weights)
    thresholds = np.unique(dist[dist > 0])
    full = (1 << n) - 1
    kappas = np.zeros(thresholds.size)
    powers = 1 << np.arange(n, dtype=np.int64)
    neigh = np.empty(1 << n, dtype=np.int64)
    for ti, t in enumerate(thresholds):
        nbr = (dist >= t).astype(np.int64) @ powers
        neigh[0] = full
        for i in range(n):
            np.bitwise_and(neigh[: 1 << i], nbr[i], out=neigh[1 << i : 1 << (i + 1)])
        partner_mass = masses[neigh]
        kappas[ti] = float(np.minimum(masses, partner_mass).max())
    space._threshold_curve_cache = (thresholds, kappas)
    return thresholds, kappas


def sep_exact(space: MMSpace, kappa: float) -> float:
    """Exact separation distance by threshold-graph search (n <= 22).

    Descends through the distinct realized distances, testing each
    threshold graph for a pair of disjoint vertex sets that are completely
    cross-connected and both carry mass at least kappa; returns 0 when no
    admissible pair exists.
    """
    _require_oracle_size(space, "sep_lower")
    if not (kappa > 0):
        raise InputError(f"kappa must be positive, got {kappa!r}")
    thresholds, kappas = _threshold_curve(space)
    ok = kappas >= kappa - MASS_TOL
    if not ok.any():
        return 0.0
    return float(thresholds[ok].max())


def sep_exact_profile(space: MMSpace, kappa_grid=None) -> SeparationProfile:
    """Exact separation profile on a kappa grid (default {i/100})."""
    _require_oracle_size(space, "sep_lower")
    grid = default_kappa_grid() if kappa_grid is None else np.asarray(kappa_grid, float)
    thresholds, kappas = _threshold_curve(space)
    vals = np.zeros(grid.size)
    for j, k in enumerate(grid):
        ok = kappas >= k - MASS_TOL
        vals[j] = float(thresholds[ok].max()) if ok.any() else 0.0
    return SeparationProfile(grid, vals, "exact", diameter(space))


# -- heuristics -------------------------------------------------------------------


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

    Witnesses are the half-mass sublevel sets ``{x : f(x) <= median_f}``
    of each dictionary feature plus weight-balanced metric balls around
    `ball_centers` (default: up to 32 seeded points).  Every reported
    value is ``1 - mu(A_eps)`` for one of these sets, hence at most the
    exact alpha.
    """
    diam = diameter(space)
    grid = default_eps_grid(space) if eps_grid is None else np.unique(
        np.concatenate([[0.0, diam], np.asarray(eps_grid, dtype=float)]))
    if dictionary is None:
        if space.n <= 64:
            dictionary = make_dictionary(space, "anchors_all")
        else:
            dictionary = make_dictionary(space, "anchors_random", k=32, seed=0)
    if ball_centers is None:
        if space.n <= 64:
            ball_centers = np.arange(space.n)
        else:
            ball_centers = np.random.default_rng(0).choice(space.n, size=32,
                                                           replace=False)
    w = space.weights
    best = np.zeros(grid.size)
    for f in dictionary:
        med = weighted_median(f.values, w, "lower")
        ids = np.flatnonzero(f.values <= med)
        d_to_a = space.min_dist_to(ids)
        np.maximum(best, _witness_outside_profile(space, d_to_a, grid), out=best)
    for c in np.asarray(ball_centers, dtype=int):
        row = space.dist_row(int(c))
        radius = weighted_median(row, w, "lower")
        ids = np.flatnonzero(row <= radius)
        d_to_a = space.min_dist_to(ids)
        np.maximum(best, _witness_outside_profile(space, d_to_a, grid), out=best)
    best = np.minimum(np.maximum(best, 0.0), 0.5)
    best[(grid >= diam) & (grid > 0)] = 0.0
    best[0] = 0.5
    best = np.minimum.accumulate(best)  # monotone envelope over float dust
    return ConcentrationProfile(grid, best, "lower_bound", diam, step=False)


def _greedy_growth_curve(space: MMSpace, i: int, j: int
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Grow disjoint sets from seeds (i, j); record (min side mass, cross).

    Each step adds, to the lighter side, the free point farthest from the
    other side, so the recorded cross distance is non-increasing while the
    min side mass is non-decreasing.
    """
    n = space.n
    w = space.weights
    free = np.ones(n, dtype=bool)
    free[[i, j]] = False
    d_a = space.dist_row(i).copy()
    d_b = space.dist_row(j).copy()
    mass_a, mass_b = float(w[i]), float(w[j])
    cross = float(space.distance(i, j))
    minmass = [min(mass_a, mass_b)]
    crosses = [cross]
    target = 0.5 - MASS_TOL
    while free.any() and (mass_a < target or mass_b < target):
        grow_a = (mass_a <= mass_b and mass_a < target) or mass_b >= target
        gain = d_b if grow_a else d_a
        cand = np.flatnonzero(free)
        x = int(cand[np.argmax(gain[cand])])
        free[x] = False
        cross = min(cross, float(gain[x]))
        row = space.dist_row(x)
        if grow_a:
            mass_a += float(w[x])
            np.minimum(d_a, row, out=d_a)
        else:
            mass_b += float(w[x])
            np.minimum(d_b, row, out=d_b)
        minmass.append(min(mass_a, mass_b))
        crosses.append(cross)
    return np.asarray(minmass), np.asarray(crosses)


def _ball_pair_witness(space: MMSpace, i: int, j: int,
                       grid: np.ndarray) -> np.ndarray:
    """Lower bounds from complementary balls around a far-apart pair.

    With ``A`` the closed ball of mass kappa around i and ``B`` the one
    around j, the triangle inequality certifies all cross distances to be
    at least ``d(i, j) - r_A - r_B``.
    """
    d_ij = space.distance(i, j)
    out = np.zeros(grid.size)
    radii = []
    for c in (i, j):
        row = space.dist_row(c)
        order = np.argsort(row, kind="stable")
        cum = np.cumsum(space.weights[order])
        idx = np.searchsorted(cum, grid - MASS_TOL, side="left")
        radii.append(row[order][np.minimum(idx, space.n - 1)])
    np.maximum(out, d_ij - radii[0] - radii[1], out=out)
    return out


#: ball-complement witnesses cost O(n^2) row updates; skip above this size.
_BALL_COMPLEMENT_LIMIT = 4096


def _ball_complement_witness(space: MMSpace, center: int,
                             grid: np.ndarray) -> np.ndarray:
    """Lower bounds from a growing ball against its far complement.

    ``A`` is grown around the center in radius order; whenever its mass
    crosses a grid level, the partner ``B = {x : d(x, A) >= t}`` with the
    largest ``t`` keeping ``mu(B)`` at that level certifies ``sep >= t``.
    This shape (neighborhood complement of a ball-like set) matches the
    isoperimetric extremizers on Hamming cubes.
    """
    n = space.n
    w = space.weights
    order = np.argsort(space.dist_row(center), kind="stable")
    d_to_a = np.full(n, np.inf)
    out = np.zeros(grid.size)
    mass = 0.0
    gi = 0
    for idx in order:
        np.minimum(d_to_a, space.dist_row(int(idx)), out=d_to_a)
        mass += float(w[idx])
        while gi < grid.size and mass >= grid[gi] - MASS_TOL:
            far_order = np.argsort(-d_to_a, kind="stable")
            cum = np.cumsum(w[far_order])
            pos = int(np.searchsorted(cum, grid[gi] - MASS_TOL, side="left"))
            t = float(d_to_a[far_order][min(pos, n - 1)])
            out[gi] = max(t, 0.0) if np.isfinite(t) else 0.0
            gi += 1
    return out


def sep_lower(space: MMSpace, kappa_grid=None, restarts: int = 8,
              seed: int = 0) -> SeparationProfile:
    """Witness-based lower bounds on the separation profile.

    Restart 0 seeds the two sets with a deterministic far-apart pair; later
    restarts use a random point and its farthest partner.  Each seed pair
    contributes the greedy growth witness (grow both sets by the point
    farthest from the other side until they reach the target mass) and the
    complementary-ball witness around the seeds.  Every value is certified
    by an explicit admissible pair, hence at most the exact separation
    distance.
    """
    grid = default_kappa_grid() if kappa_grid is None else np.asarray(kappa_grid, float)
    if restarts < 1:
        raise InputError("restarts must be >= 1")
    n = space.n
    best = np.zeros(grid.size)
    if n >= 2:
        rng = np.random.default_rng(seed)
        seeds: list[tuple[int, int]] = []
        if space.is_dense:
            flat = int(np.argmax(space.dist))
            seeds.append(tuple(map(int, np.unravel_index(flat, (n, n)))))
        else:
            a = int(np.argmax(space.dist_row(0)))
            b = int(np.argmax(space.dist_row(a)))
            seeds.append((a, b))
        for _ in range(restarts - 1):
            i = int(rng.integers(n))
            j = int(np.argmax(space.dist_row(i)))
            if i == j:
                continue
            seeds.append((i, j))
        for i, j in seeds:
            minmass, crosses = _greedy_growth_curve(space, i, j)
            idx = np.searchsorted(minmass, grid - MASS_TOL, side="left")
            vals = np.where(idx < len(crosses), crosses[np.minimum(idx, len(crosses) - 1)], 0.0)
            np.maximum(best, vals, out=best)
            np.maximum(best, _ball_pair_witness(space, i, j, grid), out=best)
        if n <= _BALL_COMPLEMENT_LIMIT:
            for c in seeds[0]:
                np.maximum(best, _ball_complement_witness(space, c, grid), out=best)
    best = np.minimum.accumulate(np.maximum(best, 0.0))
    return SeparationProfile(grid, best, "lower_bound", diameter(space), step=False)


def greedy_separated_subset(space: MMSpace, min_distance: float) -> np.ndarray:
    """Greedy maximal subset with all pairwise distances >= min_distance.

    Scans points in index order, keeping a point unless an already kept
    point lies strictly closer than `min_distance`.  The rows of the next
    ``space.block_rows`` still-alive candidates come from one block; a
    candidate that a point kept earlier in its block removes wastes its row.
    """
    if not (min_distance > 0):
        raise InputError(f"min_distance must be positive, got {min_distance!r}")
    alive = np.ones(space.n, dtype=bool)
    kept = []
    start = 0
    while True:
        cand = start + np.flatnonzero(alive[start:])[: space.block_rows]
        if cand.size == 0:
            return np.asarray(kept, dtype=int)
        for i, row in zip(cand.tolist(), space.dist_block(cand)):
            if alive[i]:
                kept.append(i)
                alive &= row >= min_distance
        start = int(cand[-1]) + 1


def split_witness(space: MMSpace, subset_ids) -> tuple[float, np.ndarray, np.ndarray]:
    """Split a separated subset into two measure-balanced halves.

    Returns ``(min side mass, A ids, B ids)``; if the subset is pairwise
    ``delta``-separated, the pair (A, B) certifies ``sep(kappa) >= delta``
    for every ``kappa`` up to the min side mass.
    """
    ids = np.asarray(subset_ids, dtype=int)
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
# simplicial order (full balls plus a shadow-minimal partial layer), whose
# closure sizes follow from the cascade shadow formula.


def _cascade_shadow(s: int, k: int) -> int:
    """Minimal lower-shadow size of s many k-sets (cascade representation)."""
    if s <= 0:
        return 0
    total = 0
    while s > 0 and k >= 1:
        # the digit is the largest a with comb(a, k) <= s: double, then bisect
        a, step = k, 1
        while math.comb(a + step, k) <= s:
            a += step
            step *= 2
        hi = a + step
        while hi - a > 1:
            mid = (a + hi) // 2
            if math.comb(mid, k) <= s:
                a = mid
            else:
                hi = mid
        total += math.comb(a, k - 1)
        s -= math.comb(a, k)
        k -= 1
    return total


def _ball_sizes(d: int) -> list[int]:
    sizes = [0]
    run = 0
    for r in range(d + 1):
        run += math.comb(d, r)
        sizes.append(run)
    return sizes  # sizes[r+1] = |ball(r)|


def _closure_step(m: int, d: int, balls: list[int]) -> int:
    """Minimal one-step neighborhood closure size over m-vertex sets."""
    full = 1 << d
    if m >= full:
        return full
    r = 1
    while balls[r] < m:  # smallest r with |ball(r-1)| >= m
        r += 1
    r -= 1  # now balls[r] < m <= balls[r+1]; partial layer index is r
    if m == balls[r + 1]:
        return balls[min(r + 2, d + 1)]
    s = m - balls[r]
    # min upper shadow of s weight-r elements = min lower shadow of their
    # complements, which are (d-r)-sets
    return balls[r + 1] + _cascade_shadow(s, d - r)


def _max_bit_separation(a: int, d: int, balls: list[int]) -> int:
    """Largest j such that some pair of a-vertex sets is j bits apart."""
    full = 1 << d
    if a > full - a:
        return 0
    j = 1
    m = a
    while True:
        m = _closure_step(m, d, balls)
        if m <= full - a and j < d:
            j += 1
        else:
            return j


def _check_cube_dim(d: int, limit: int) -> int:
    d = int(d)
    if not (1 <= d <= limit):
        raise InputError(f"d must lie in [1, {limit}], got {d}")
    return d


def sep_hamming_analytic(d: int, kappa) -> float:
    """Exact separation distance of the normalized Hamming cube.

    Computed without enumeration from vertex isoperimetry: the extremal
    witness pair consists of an initial segment of the simplicial order
    (a Hamming ball plus a shadow-minimal partial layer) and the
    complement of its neighborhood closure.  Exact integer arithmetic
    throughout; `kappa` may be a float or a Fraction.
    """
    d = _check_cube_dim(d, MAX_ANALYTIC_CUBE_DIM)
    kap = Fraction(kappa)
    if not (0 < kap <= Fraction(1, 2)):
        raise InputError(f"kappa must lie in (0, 1/2], got {kappa!r}")
    a = int(math.ceil(kap * (1 << d)))
    return _max_bit_separation(a, d, _ball_sizes(d)) / d


def sep_hamming_profile(d: int) -> SeparationProfile:
    """Exact separation profile of the Hamming cube on its jump grid.

    Knots sit exactly where the separation drops as the required mass
    grows, so the step quadrature of this profile integrates the
    separation function exactly.
    """
    d = _check_cube_dim(d, MAX_PROFILE_CUBE_DIM)
    balls = _ball_sizes(d)
    full = 1 << d
    half = full // 2
    cache: dict[int, int] = {}

    def sep_bits(a: int) -> int:
        if a not in cache:
            cache[a] = _max_bit_separation(a, d, balls)
        return cache[a]

    knots: list[float] = []
    vals: list[float] = []
    a = 1
    while a <= half:
        j = sep_bits(a)
        lo, hi = a, half  # largest size keeping separation >= j
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if sep_bits(mid) >= j:
                lo = mid
            else:
                hi = mid - 1
        knots.append(lo / full)
        vals.append(j / d)
        a = lo + 1
    return SeparationProfile(np.asarray(knots), np.asarray(vals), "analytic",
                             1.0, step=True)


# -- observable diameter and margins ----------------------------------------------


def _kth_largest_abs_diff(values: np.ndarray, k: int) -> float:
    """k-th largest |v_a - v_b| over all ordered pairs, without the n**2 table.

    Bisection over the value range with an O(n log n) pair count per probe;
    the count function is a step function of the probe, so once the
    bracketing floats become adjacent the lower end is the exact order
    statistic.
    """
    v = np.sort(values)
    n = v.size
    total = n * n

    def count_at_least(d: float) -> int:
        if d <= 0:
            return total
        return 2 * int(np.searchsorted(v, v - d, side="right").sum())

    if k >= total:
        return 0.0
    lo, hi = 0.0, float(v[-1] - v[0]) + 1.0
    if count_at_least(lo) < k:  # pragma: no cover - k >= 1 makes this impossible
        return 0.0
    while True:
        mid = (lo + hi) / 2.0
        if mid <= lo or mid >= hi:
            return lo
        if count_at_least(mid) >= k:
            lo = mid
        else:
            hi = mid


def _feature_obs_diameter(space: MMSpace, values: np.ndarray, kappa: float) -> float:
    """Least D with product-measure mass of {|f(x)-f(y)| >= D} below kappa."""
    n = space.n
    uniform = bool(np.all(space.weights == space.weights[0]))
    if uniform:
        total = n * n
        allowed_above = math.ceil(kappa * total) - 1
        if allowed_above + 1 > total:
            return 0.0
        return _kth_largest_abs_diff(values, allowed_above + 1)
    flat = np.abs(values[:, None] - values[None, :]).ravel()
    w = np.multiply.outer(space.weights, space.weights).ravel()
    vs, inverse = np.unique(flat, return_inverse=True)
    masses = np.bincount(inverse, weights=w, minlength=vs.size)
    tail_above = 1.0 - np.cumsum(masses)  # mass strictly above vs[k]
    ok = np.flatnonzero(tail_above < kappa - 1e-15)
    return float(vs[ok[0]]) if ok.size else float(vs[-1])


def observable_diameter(space: MMSpace, kappa: float,
                        dictionary: list[Feature]) -> float:
    """Largest observable diameter over a feature dictionary (lower bound).

    For each feature the least D with
    ``P[|f(x) - f(y)| >= D] < kappa`` under the product measure is
    computed exactly from the n**2 value pairs; the maximum over the
    finite dictionary can only under-report the supremum over all
    non-expanding functions.
    """
    if not (0 < kappa < 1):
        raise InputError(f"kappa must lie in (0, 1), got {kappa!r}")
    if not dictionary:
        raise InputError("observable_diameter requires a nonempty dictionary")
    return max(_feature_obs_diameter(space, f.values, kappa) for f in dictionary)


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
    if feature.lipschitz_bound > 1.0 + 1e-12:
        raise InputError(
            f"feature is not certified 1-Lipschitz "
            f"(bound {feature.lipschitz_bound!r})"
        )
    if gamma < 0:
        raise InputError(f"gamma must be nonnegative, got {gamma!r}")
    margin = np.abs(feature.values - 0.5)
    return float(space.weights[margin < gamma].sum())
