"""Finite metric spaces carrying a probability measure.

The central object is :class:`MMSpace`: a finite point set with a metric
(given either as an explicit symmetric distance matrix or as coordinates
plus a named metric) and nonnegative point weights summing to one.  The
module also provides deterministic synthetic generators for the reference
families used throughout the package (spheres, Hamming cubes, Gaussian
clouds, noisy embeddings) and the basic size statistics: diameter and
characteristic size (the weighted median of the pairwise-distance
distribution under the product measure).

Conventions
-----------
* The product measure over ordered point pairs includes the diagonal
  ``(i, i)``; its total mass ``sum(w_i**2)`` vanishes as ``n`` grows.
* Weighted medians use the lower-median convention: the smallest value
  whose cumulative mass reaches one half.  Where the lower and upper
  medians differ, both are available via :func:`char_size_interval`.

The distance layer
------------------
These notes are the one statement of the distance layer's contract and
of the measurements behind its choices; README.md summarises them.
Unless noted, times are from 2 cores, OpenBLAS 0.3.31 (2 threads),
Python 3.11.7, numpy 2.4.6 and scipy 1.17.1, in fresh processes.

Every distance of a coordinate-backed space comes from one kernel,
``MMSpace._pairwise``.  ``dense()`` applies the materialization rule
below, and two readers of caller-chosen rows are the only ones that
choose between a held matrix and computed rows: ``dist_block`` copies
the rows into a block, and ``iter_rows`` yields them one at a time, as
views of a held matrix or else as the rows of ``iter_blocks(ids=...)``,
the one blocked reader of chosen rows, whose blocks ``dist_block``
computes into one buffer.  The other reads of chosen rows are built on
these: ``dist_row``, ``distance``, ``submatrix`` and each group of
``iter_set_distances`` (``min_dist_to``: one set, as ids) on
``iter_rows``, and the ball-complement witness on
``iter_blocks(ids=...)``.  Whole passes read ``iter_blocks()``, views
of a held matrix, or its upper-triangle form; loops that take one
point's row at a time read
through the read-ahead reader ``RowCache``; the pair sample of
``char_size`` reads ``_pair_distances``.  A test parses this module and
fails if any other function looks at the held matrix.  Every accessor
given point ids checks them with ``check_ids``: an id that is negative,
fractional, not below ``n`` or a bool, and a ragged list, is an
``InputError``, held matrix or not.  numpy reads ``[True, 0]`` as the
ints ``[1, 0]``, so the check looks at the elements of a list.

* When the matrix is held.  One rule, on the input alone, so results do
  not depend on call order: whole reads build the matrix, chosen-row
  reads never do.  A space built from a matrix holds it.  A coordinate
  space holds it iff ``n <= AUTO_DENSE``, and builds it, through
  ``dist``, on its first read of the whole space: ``dist``,
  ``iter_blocks()`` or a new ``RowCache``.  Reads of chosen rows
  (``dist_block``, ``iter_blocks(ids=...)``, ``iter_rows`` and the reads
  built on them) use the matrix only if it exists, and construction computes no distance: the
  named metrics satisfy the axioms by construction, so only finiteness
  and weights are checked.  An explicit ``dist`` request builds the
  matrix of any space up to ``MATERIALIZE_LIMIT`` points.  The default
  eps grid reads the distances among ``min(n, 1024)`` seeded points
  through ``submatrix``, held matrix or not.  Holding no matrix where
  one does not fit a single block (``AUTO_DENSE`` at 1448) took
  ``sphere_dense`` rounds at n = 5000 from 1.63-1.65 s to 1.94-2.11 s,
  for a peak RSS of 121 MB against 295 MB (3 alternating pairs).
  Other size thresholds choose witnesses or checks, not memory:
  ``concentration._BALL_COMPLEMENT_LIMIT``, the 64 points up to which
  ``alpha_lower`` uses every point as an anchor, and
  ``EXHAUSTIVE_CHECK_LIMIT``.

* Kernel choice.  ``normalized_hamming`` uses ``scipy``'s ``cdist``.
  Euclidean spaces with fewer than ``GEMM_MIN_DIM`` coordinates use
  ``cdist`` too; from ``GEMM_MIN_DIM`` on, squared distances are
  ``(|x|^2 + |y|^2) - 2 x.y`` on coordinates centred at their mean,
  computed as one BLAS GEMM with the squared norms folded into the
  product as its first two columns.  Where the bounding box's diagonal
  reaches 2**511, ``cdist`` and ``_pair_distances`` square coordinates
  divided by a power of two (``_unit_for``) and scale the distances
  back, exactly, so none overflows.  On 10^4 points (two runs), a full
  pass of row blocks took 0.45-0.59 s with ``cdist`` against 0.22-0.23 s
  with GEMM at 8 coordinates, 0.93-1.03 against 0.24-0.25 s at 16 and
  2.90-3.20 against 0.29-0.31 s at 50.  One row read alone took
  0.051-0.068 ms with ``cdist`` at 8 coordinates, 0.095-0.114 ms at 16
  and 0.34-0.40 ms at 50; on GEMM, where it is a product of two rows
  (next item), 0.22-0.24 ms at 16 and 0.44-0.47 ms at 50.  Building the
  held matrix of 5000 points on a sphere (3 sessions of 3-5 runs after a
  warm-up, 2-core Xeon, OpenBLAS 0.3.31): on S^1, in 2 coordinates, GEMM
  took 204-291 ms (and once 497 ms) against 91-130 ms with ``cdist``,
  because the cancellation guard recomputes 4930 of the 5000 rows (each
  point's nearest neighbour lies under its threshold); on S^2 GEMM took
  84-104 against 104-143 ms (96 rows guarded), and on S^3 78-95 against
  102-174 ms (none guarded).  No measurement here puts the switch at
  ``GEMM_MIN_DIM`` = 16, yet it stays there: moving it changes the bits
  of every distance of a space with 3 to 15 coordinates, such as the
  S^10 spheres of ``sphere_separation`` and the 3-coordinate clouds of
  the exact oracles' tests.
* Canonical rows.  Each distance row has the same bits however it is
  read: alone (``dist_row``, ``dist_block([i])``), entry by entry
  (``distance``, ``submatrix``, which read full rows), inside a block of
  any height and composition (``dist_block``, ``iter_blocks``,
  ``iter_set_distances``, ``RowCache``), over some of its columns only
  (the upper triangle, a narrowed ``RowCache``), or from the held matrix,
  which is built from the same full rows.  ``cdist`` computes each pair
  on its own.  On the GEMM kernel a single row would take BLAS's GEMV,
  and small or ragged products its small-matrix and edge kernels, which
  round the same dot product differently (up to 4.4e-16 at 10^4 points
  in 50 coordinates).  So the kernel computes every row in a product of
  at least two rows (a row read alone is paired with a copy of itself,
  and the guard runs once) whose right operand has a multiple of 8 rows,
  at least 1024 (``_gemm_cols``): all points, or those from a multiple
  of 8 on, as a view of the operand, or the rows of the columns asked
  for, gathered and padded with zero rows.  A gathered set is kept on
  the space until another is asked for, since a scan asks for the same
  one block after block.  For those shapes OpenBLAS was measured to run
  one kernel whatever the block, so an entry does not depend on the
  other rows or columns of its product: blocks of 1, 2, 3, 5, 64 and 209
  rows agree bit for bit from 5 to 10^4 points in 16 to 1500
  coordinates, and entries equal full rows in 81 of 81 gathered column
  sets (3000 to 10^4 points in 16 to 200 coordinates, blocks of 2 to 209
  rows, 1 to n columns) and in 49 of 49 triangle blocks of 10^4 points
  in 50 coordinates.  The guard sees only the rows and columns asked
  for.  ``tests/test_kernel.py`` checks these shapes, ``cdist`` spaces
  and Hamming spaces.
* Exact symmetry.  Every kernel's matrix equals its transpose bit for
  bit, so ``d(i, j)`` reads the same from either row and coincident
  points read equal rows.  The GEMM operands put the squared norms
  first: point j's column is ``[1, |x_j|^2, x_j]`` and point i's row
  ``[|x_i|^2, 1, -2 x_i]``, so each entry forms ``|x_i|^2 + |x_j|^2``
  before any other term and accumulates the rest in order, and the
  guard's decision is symmetric in ``(i, j)``.  That the product is then
  symmetric is a measured property of the BLAS: 0 asymmetric entries
  from 300 to 6001 points in 16 to 1500 coordinates (SkylakeX kernels).
  With the norms as the last two columns, 327 162 of the 9*10^6 entries
  at 3000 Gaussian points in 50 coordinates differed from their
  transpose.  Building the held matrix from full rows takes
  0.073-0.084 s for 5000 points on S^25 and 0.103-0.114 s on S^100 (10
  runs each); from upper-triangle products mirrored, 0.089-0.170 s and
  0.107-0.140 s.
* Whole passes read the upper triangle.  The matrix being exactly
  symmetric, a pass that only counts, selects or takes maxima
  (``char_size``, ``char_size_interval``, ``diameter``, the covering
  sweep's eccentricities) reads ``iter_blocks(upper=True)``: block
  ``i0:i1`` holds the columns from ``i0`` on, so the kernel computes
  about half the entries.  Its blocks have ``block_rows`` rounded down
  to a multiple of 8 rows (208 at 10^4 points), so each product starts
  at its first column and is written straight into the pass's buffer.
  The square of a block's own columns counts once, the rectangle right
  of it for both orders of its pairs.  A sum of distances
  (``product_distance_moments``) still reads full rows: adding a
  triangle twice would change its rounding.  On an unheld 10^4-point
  cloud in 50 coordinates ``char_size`` computes 0.51*n^2 kernel
  entries, and took 0.42 s against 0.95 s over full rows.
* Cancellation guard.  That formula loses accuracy when a squared
  distance is tiny against the squared norms.  A row whose minimum is
  below ``tau(d) * (|x_i|^2 + max_j |x_j|^2)`` (centred norms, ``d``
  coordinates) has each entry below ``tau(d) * (|x_i|^2 + |x_j|^2)``
  recomputed by direct differences of the original coordinates; other
  rows are left as they are, and a point's own entry is excluded and set
  to exactly 0.  The threshold ``tau(d)`` is chosen from the worst-case
  rounding of a ``d + 2`` term dot product so that every distance lies
  within ``GEMM_ACCURACY * (1 + largest centred norm)`` of the exact one
  (at 50 coordinates it covers pairs closer than about 2.5% of the
  norms); duplicate points get exactly 0, and no entry is negative.
  Where that threshold would cover every pair (``tau(d) >= 1``, beyond
  about 2000 coordinates), or the squared norms could overflow, ``cdist``
  is used.
* Distances to sets.  ``iter_set_distances`` takes k point sets as a
  ``(k, n)`` boolean mask and reads each row of the union of a group of
  sets once, in index order, through ``iter_rows``, taking it into the
  output of every set holding it by ``np.minimum``.  ``min`` is exact,
  so each output has the bits of a minimum over the set's rows taken in
  any order.  ``alpha_lower`` evaluates all its distinct witness sets in
  one call, and its ball rows and every dictionary's rows come from one
  ``iter_rows`` read.  The 24 witness sets of one ``sphere_dense``
  bracket (5000 points on S^2, held matrix) took 0.15-0.20 s in one pass
  against 0.43-0.70 s with one call per set; ``alpha_lower`` on 10^4
  unheld Gaussian points in 50 coordinates 1.6-1.7 s against 7.8-8.2 s.
* One block budget.  Loops over rows (``iter_blocks``, the statistics
  below, the read-ahead buffer of ``RowCache``) hold at most
  ``BLOCK_ENTRIES`` distances per block, and write every block into one
  reused buffer; ``iter_set_distances`` takes sets in groups of
  ``block_rows``, so a group's k outputs hold ``k * n <= BLOCK_ENTRIES``
  distances; and the dense matrix is built through blocks of the same
  size, written in place.
  ``char_size`` selects over these blocks
  (``_pair_order_stats``) under any weights, keeping at most
  ``BLOCK_ENTRIES`` values beyond the current block: no matrix copy.
  One pick, ``pick_order_stats``, answers from the values it keeps, as
  it does for the observable diameter of a feature and for every
  weighted median (``weighted_median``), by rank under equal weights.
  Triangle blocks are computed into the same one buffer, and the values
  of a rectangle are written twice into the values kept.
* No pass for a diameter or a pair sample.  The diameter is kept on the
  space, and two reads that already cover every pair fill it: the first
  counting pass of ``char_size``, and a ``RowCache`` once it has
  computed every point's row (a greedy growth curve under uniform
  weights takes every point, so ``sep_lower``'s closing ``diameter``
  costs nothing).  A point a narrowing drops is never computed after,
  so then every pair lies in the row of whichever of its points was
  computed first.  The ``2**18``-pair sample that brackets ``char_size``
  reads the sampled pairs from the held matrix or from their
  coordinates, 1024 pairs at a time; those bits may differ from the
  kernel's, but the exact counting pass decides the value.  A traced
  ``noise_rows`` round computed 36 028 distance rows with it against
  56 028 with a pass for the sample, and ``char_size`` on 10^4 Gaussian
  points in 50 coordinates took 0.79-0.89 s against 1.32-1.42 s (6 runs
  each).
* Read-ahead.  ``RowCache`` holds one block of ``block_rows`` rows.  A
  row not in it is computed together with the rows ranked highest by
  the caller's scores, so ``sep_lower``'s greedy growth computes the
  next picks of both sides in one block and picks what a scan of the
  free points picks, ties included.  Rows leave the buffer only when
  taken, so no row is computed twice; a taken row is freed where it
  lies, and a miss moves only the rows still held that lie where its
  block goes (about 1600 row moves per 10^4-point curve, where moving
  the last row in use into each freed one copied a row on nearly every
  take).  The other one-row-at-a-time loops read through it too:
  ``sep_lower``'s seed sweep, the farthest-point sweep of ``covering``
  and the greedy separated subset, scored by its alive candidates,
  earliest first.  Under the rule the cache builds the matrix: on 2000
  noisy points in 50 coordinates the greedy subset and ``sep_lower``
  together compute 2000 rows.  The ball-complement witness needs no
  cache: it takes its rows in the order of the centre's sorted row,
  known before the first, so it reads them in blocks of ``block_rows``
  through ``iter_blocks(ids=...)``.  On 10^4 unheld Gaussian points in 50
  coordinates a witness took 0.48-0.58 s that way, against 2.3-2.8 s one
  ``RowCache`` row at a time, with the same output bits.
* Narrowed scans.  A scan that stops reading some points' distances
  narrows its ``RowCache`` to the columns it still reads
  (``RowCache.narrow``), once at most half of its columns are live: the
  greedy growth to its free points, the greedy separated subset to its
  alive candidates not yet scanned.  The rows it holds are compacted in
  place, in the first columns of their buffer rows, and later rows are
  computed over the kept columns alone, straight into the buffer.  On an
  unheld 10^4-point cloud in 50 coordinates a growth curve computes
  0.68*n^2 entries (0.54-0.63 s against 0.80-0.87 s over full rows, 3
  runs each), and the noise experiment's greedy subset 0.32*n^2 instead
  of 0.60*n^2 (0.28-0.31 s against 0.47-0.68 s, 5 runs each).  A cache
  over a held matrix does not narrow: its rows cost nothing to compute,
  and a narrowed read would copy each row (100 held cube samples of 50
  to 256 points: ``sep_lower`` 0.54-0.79 s without, 0.85-0.88 s with).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, InvariantViolation, ResourceLimitError
from .io import read_csv_rows, split_weight_column

SYMMETRY_TOL = 1e-9
TRIANGLE_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12

#: largest point count for which a dense distance matrix may be materialized.
#: 12_000 points correspond to a ~1.2 GB float64 matrix.
MATERIALIZE_LIMIT = 12_000

#: coordinate-backed spaces at most this large hold their distance matrix
#: (see the module notes); larger ones are processed in row blocks.
AUTO_DENSE = 6_000

#: distances held by one block of rows, the memory budget of every blocked
#: loop (16 MiB of float64).
BLOCK_ENTRIES = 2 << 20

#: Euclidean spaces with at least this many coordinates use the GEMM kernel;
#: below it ``cdist`` is faster.
GEMM_MIN_DIM = 16

#: worst-case error of a GEMM-kernel distance, as a fraction of
#: ``1 + largest centred norm``; the cancellation guard enforces it.
GEMM_ACCURACY = 1e-12

#: point count up to which a given distance matrix is checked for the
#: triangle inequality exhaustively (O(n^3)); above it a deterministic
#: 200-point submatrix is checked instead.
EXHAUSTIVE_CHECK_LIMIT = 500

#: hard ceiling on generated sample sizes.
MAX_POINTS = 1_000_000

#: largest exhaustive Hamming cube (2**d points).
MAX_CUBE_DIM = 20

_KNOWN_METRICS = ("euclidean", "normalized_hamming")
_CHECK_SUBSET_SIZE = 200
_CHECK_SEED = 0x5EED
_PAIR_SAMPLE = 1 << 18  # pairs sampled to bracket a pair order statistic


def _as_weights(weights, n: int) -> np.ndarray:
    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (n,):
            raise InputError(f"weights must have shape ({n},), got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise InputError("weights contain non-finite entries")
        if np.any(w < 0):
            i = int(np.argmin(w))
            raise InputError(f"negative weight {float(w[i])!r} at index {i}")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InputError(
                f"weights must sum to 1 within {WEIGHT_SUM_TOL}; got {total!r}"
            )
    w = w.copy()
    w.setflags(write=False)
    return w


def check_int(x, what: str, least=None) -> int:
    """`x` as an int; InputError unless it is an integer, and at least
    `least` if given.  An int, a numpy integer or an integral float is an
    integer (the command line reads ``n=1e4`` as a float); a bool is not."""
    bound = "" if least is None else f" >= {least}"
    whole = (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
             or isinstance(x, (float, np.floating)) and float(x).is_integer())
    if not whole or bound and x < least:
        raise InputError(f"{what} must be an integer{bound}, got {x!r}")
    return int(x)


def _check_triangle(dist: np.ndarray, ids: np.ndarray) -> None:
    """Raise InputError naming a violated triangle among the points `ids`."""
    sub = dist[np.ix_(ids, ids)]
    for k in range(len(ids)):
        slack = sub - (sub[:, k][:, None] + sub[k, :][None, :])
        bad = np.argwhere(slack > TRIANGLE_TOL)
        if bad.size:
            i, j, k = (int(ids[t]) for t in (*bad[0], k))
            raise InputError(
                "triangle inequality violated at points "
                f"({i}, {j}, {k}): d({i},{j})={float(dist[i, j])!r} > "
                f"d({i},{k})+d({k},{j})={float(dist[i, k] + dist[k, j])!r}"
            )


def _gemm_operands(coords: np.ndarray):
    """``(aug, tau, thr)`` for the GEMM kernel, or None where ``cdist`` is
    used; ``thr[i]`` is the screen of row i in the guard.

    Row j of ``aug`` is ``[1, |x_j|^2, x_j]`` (centred coordinates), the
    right operand of point j, followed by zero rows up to ``_gemm_cols(n)``;
    the left operand of point i is ``[|x_i|^2, 1, -2 x_i]``.  Their product
    is the squared distance with ``|x_i|^2 + |x_j|^2`` formed before any
    other term, so with the terms accumulated in order the matrix is
    exactly symmetric.  A dot product of ``k = d + 2`` terms is off by at
    most about ``k u`` times the sum of their magnitudes, here at most
    ``2 S`` with ``S = |x_i|^2 + |x_j|^2``; adding the rounding of the norms
    gives ``c S``, ``c = 3 k u``.  The guard recomputes every entry below
    ``tau S``; one of at least ``tau S`` has a square root within
    ``c sqrt(S) / (2 sqrt(tau - c)) <= c M / sqrt(2 (tau - c))`` of the exact
    one (``M`` the largest centred norm, ``S <= 2 M^2``), which
    ``tau = c + 2 (c / GEMM_ACCURACY)**2`` keeps below half the accuracy.
    """
    n, d = coords.shape
    c = 3.0 * (d + 2) * np.finfo(float).eps / 2.0
    tau = c + 2.0 * (c / GEMM_ACCURACY) ** 2
    if d < GEMM_MIN_DIM or tau >= 1.0:
        return None
    aug = np.zeros((_gemm_cols(n), d + 2))
    np.subtract(coords, coords.mean(axis=0), out=aug[:n, 2:])
    aug[:n, 0] = 1.0
    aug[:n, 1] = np.einsum("ij,ij->i", aug[:n, 2:], aug[:n, 2:])
    if not aug[:n, 1].max() <= np.finfo(float).max / 4:  # the products could overflow
        return None
    aug.setflags(write=False)
    return aug, tau, tau * (aug[:n, 1] + aug[:n, 1].max())


def _unit_for(scale: float) -> float:
    """1 for a largest distance `scale` below 2**511, else the power of two
    that puts it in ``[2**510, 2**511)``: every distance over it squares
    without overflow, and the division is exact while the squares of the
    small ones stay normal (distances above ``scale * 2**-1021``)."""
    return math.ldexp(1.0, max(0, math.frexp(scale)[1] - 511))


def _gemm_cols(n: int) -> int:
    """Columns of the product that computes distances to ``n`` points: all
    of a space's points, or the columns a reader asks for.

    OpenBLAS gives an entry the same bits in products of any height, and
    over any set of columns, only when the product has at least 2 rows and
    a multiple of 8 columns, more than about 700 of them: otherwise it
    takes its small-matrix or edge kernels, which round the same dot
    product differently (measured with OpenBLAS 0.3.31 for 5 to 10^4
    points in 16 to 1500 coordinates; 512 columns still differed, 696 did
    not).  Zero rows of the right operand pad the columns up to it.
    """
    return max(1024, -(-n // 8) * 8)


class MMSpace:
    """A finite metric space with a probability measure.

    Parameters
    ----------
    dist : array, optional
        Symmetric ``(n, n)`` matrix of nonnegative distances with zero
        diagonal.  Validated on construction: finiteness, sign, diagonal,
        symmetry within ``1e-9``, and the triangle inequality within
        ``1e-9`` over every triple up to ``EXHAUSTIVE_CHECK_LIMIT`` points,
        over the triples of a deterministic 200-point subset above.
    coords : array, optional
        ``(n, d)`` point coordinates; distances are derived on demand
        under `metric`, which satisfies the metric axioms by construction,
        so only finiteness is validated (Euclidean: also of the diagonal of
        the bounding box, which bounds every distance) and no distance is
        computed at construction.  Exactly one of `dist` / `coords` must be
        given.
    metric : str, optional
        ``"euclidean"`` or ``"normalized_hamming"`` (fraction of differing
        coordinates).  Required with `coords`.
    weights : array, optional
        Nonnegative point weights summing to one (tolerance ``1e-12``);
        omitted means uniform ``1/n``.
    label : str, optional
        Free-form description carried into manifests.

    Notes
    -----
    The coordinates, the weights and a given matrix are read-only, but a
    space is not immutable: it fills caches as it is read, namely the
    distance matrix (under the rule in the module notes), the diameter,
    the gathered GEMM operand of the last column set ``_pairwise`` read,
    and the threshold memo of ``concentration._sep_levels``.  Each cache
    holds the same bits whichever read fills it, but no lock guards them:
    the class makes no claim of thread safety.
    """

    def __init__(self, *, dist=None, coords=None, metric=None, weights=None,
                 label: str | None = None):
        if (dist is None) == (coords is None):
            raise InputError("provide exactly one of dist= or coords=")
        if coords is not None:
            if metric not in _KNOWN_METRICS:
                raise InputError(
                    f"metric must be one of {_KNOWN_METRICS}, got {metric!r}"
                )
            coords = np.asarray(coords, dtype=float)
            if coords.ndim == 1:
                coords = coords[:, None]
            if coords.ndim != 2 or 0 in coords.shape:
                raise InputError(f"coords must be an (n, d) array with n, d >= 1, "
                                 f"got shape {coords.shape}")
            finite_rows = np.isfinite(coords).all(axis=1)
            if not finite_rows.all():
                row = int(np.argmin(finite_rows))
                raise InputError(f"non-finite coordinate in row {row}")
            if metric == "euclidean":
                with np.errstate(over="ignore"):
                    diagonal = math.hypot(*np.ptp(coords, axis=0))
                if not math.isfinite(diagonal):
                    raise InputError("distances overflow: the diagonal of the "
                                     "coordinates' bounding box is not finite")
            self._coords = coords
            self._coords.setflags(write=False)
            # cdist and _pair_distances square these over the unit (_unit_for)
            self._unit = _unit_for(diagonal if metric == "euclidean" else 1.0)
            self._scaled = coords if self._unit == 1.0 else coords / self._unit
            self._metric = metric
            self._dist_cache = None
            self._gemm = _gemm_operands(coords) if metric == "euclidean" else None
            n = coords.shape[0]
        else:
            dist = np.asarray(dist, dtype=float)
            if dist.ndim != 2 or dist.shape[0] != dist.shape[1] or dist.shape[0] < 1:
                raise InputError(f"distance matrix must be square, got shape {dist.shape}")
            n = dist.shape[0]
            if not np.all(np.isfinite(dist)):
                i, j = map(int, np.argwhere(~np.isfinite(dist))[0])
                raise InputError(f"non-finite distance at ({i}, {j})")
            if np.any(dist < 0):
                i, j = map(int, np.argwhere(dist < 0)[0])
                raise InputError(f"negative distance {float(dist[i, j])!r} at ({i}, {j})")
            if np.any(np.diag(dist) != 0.0):
                i = int(np.argmax(np.diag(dist) != 0.0))
                raise InputError(f"nonzero diagonal entry {float(dist[i, i])!r} at index {i}")
            asym = np.abs(dist - dist.T)
            if asym.max() > SYMMETRY_TOL:
                i, j = map(int, np.unravel_index(np.argmax(asym), asym.shape))
                raise InputError(
                    f"asymmetric distances at ({i}, {j}): "
                    f"{float(dist[i, j])!r} vs {float(dist[j, i])!r}"
                )
            dist = (dist + dist.T) / 2.0 if asym.max() > 0 else dist.copy()
            ids = np.arange(n)
            if n > EXHAUSTIVE_CHECK_LIMIT:
                ids = np.random.default_rng(_CHECK_SEED).choice(
                    n, size=_CHECK_SUBSET_SIZE, replace=False)
            _check_triangle(dist, ids)
            dist.setflags(write=False)
            self._dist_cache = dist
            self._unit = _unit_for(float(dist.max()))
            self._coords = None
            self._metric = None
            self._gemm = None
        self.n = n
        self.weights = _as_weights(weights, n)
        self.label = label
        self._diameter_cache: float | None = None
        self._gathered = None  # (cols, right operand) of the last gathered columns

    # -- distance access -----------------------------------------------------

    @property
    def metric(self) -> str | None:
        return self._metric

    @property
    def coords(self) -> np.ndarray | None:
        return self._coords

    @property
    def is_dense(self) -> bool:
        return self._dist_cache is not None

    @property
    def dist(self) -> np.ndarray:
        """The full distance matrix, materialized and cached on first use.

        Built from full rows in blocks, the same rows every other read
        computes (see the module notes).
        """
        if self._dist_cache is None:
            if self.n > MATERIALIZE_LIMIT:
                raise ResourceLimitError(
                    f"n={self.n} exceeds the dense-matrix limit "
                    f"{MATERIALIZE_LIMIT}; use dist_row()/dist_block() instead"
                )
            m = np.empty((self.n, self.n))
            for i0 in range(0, self.n, self.block_rows):
                i1 = min(i0 + self.block_rows, self.n)
                self._pairwise(np.arange(i0, i1), out=m[i0:i1])
            m.setflags(write=False)
            self._dist_cache = m
        return self._dist_cache

    def dense(self) -> np.ndarray | None:
        """The distance matrix if the space holds one under the
        materialization rule (building it on first use), else None."""
        if self._dist_cache is not None:
            return self._dist_cache
        return self.dist if self.n <= AUTO_DENSE else None

    @property
    def block_rows(self) -> int:
        """Rows per block under the ``BLOCK_ENTRIES`` budget."""
        return max(1, BLOCK_ENTRIES // self.n)

    def _pairwise(self, rows: np.ndarray, cols=None, out=None) -> np.ndarray:
        """Distances from the points `rows` to the points `cols` (ascending
        and distinct; default every point).  Each entry has the bits of the
        same entry of the full row, however many rows are read with it (see
        the module notes), and a point's own entry is exactly 0.

        `out`, if given, has a row per point of `rows` and at least as many
        columns as `cols`; the distances are written to its first columns,
        and the view of them returned.  Columns after them may be
        overwritten.
        """
        m = self.n if cols is None else len(cols)
        if self._gemm is None:
            metric = "euclidean" if self._metric == "euclidean" else "hamming"
            x = self._scaled
            whole = out is not None and out.shape[1] == m  # cdist fills whole arrays
            d = cdist(x[rows], x if cols is None else x[cols], metric=metric,
                      out=out if whole else None)
            if self._unit != 1.0:
                d *= self._unit
            if out is not None and not whole:
                out[:, :m] = d
                d = out[:, :m]
        else:
            d = self._gemm_pairwise(rows, cols, out)
        d[self._own_entries(rows, cols)] = 0.0
        return d

    def _own_entries(self, rows, cols):
        """Indices of the entries ``(row, col)`` of a point to itself."""
        if cols is None:
            return np.arange(len(rows)), rows
        at = np.minimum(np.searchsorted(cols, rows), len(cols) - 1)
        hit = np.flatnonzero(cols[at] == rows)
        return hit, at[hit]

    def _gemm_pairwise(self, rows, cols, out) -> np.ndarray:
        """The GEMM kernel with its cancellation guard; see the module notes.

        A row read alone is computed in a product of two copies of it.  The
        right operand of the columns from ``c`` on is a view ``aug[s:]``,
        ``s`` the multiple of 8 at or below ``c`` that leaves at least 1024
        columns; that of other columns is their rows of ``aug`` padded with
        zero rows to ``_gemm_cols``.  A product that starts at the first
        column asked for and fits `out` is written into it directly.  The
        guard sees only the rows and columns asked for.
        """
        aug, tau, thr = self._gemm
        n, k = self.n, len(rows)
        a = aug[rows if k > 1 else np.repeat(rows, 2)]
        a[:, 0] = a[:, 1]
        a[:, 1] = 1.0
        a[:, 2:] *= -2.0
        c = 0 if cols is None else int(cols[0])
        m = n if cols is None else len(cols)
        suffix = c + m == n  # every column from c on
        if suffix:
            s = max(0, min(c - c % 8, aug.shape[0] - 1024))
            right, lead, norms = aug[s:], c - s, aug[c:n, 1]
        else:  # a scan asks for the same columns block after block
            kept = self._gathered
            if kept is None or not np.array_equal(kept[0], cols):
                kept = (cols.copy(), np.zeros((_gemm_cols(m), aug.shape[1])))
                kept[1][:m] = aug[cols]
                kept[1].setflags(write=False)
                self._gathered = kept
            right, lead, norms = kept[1], 0, kept[1][:m, 1]
        width = right.shape[0]
        direct = (out is not None and a.shape[0] == k and lead == 0
                  and out.shape[1] >= width)
        if direct:
            d2 = np.matmul(a, right.T, out=out[:, :width])[:, :m]
        else:
            d2 = np.matmul(a, right.T)[:k, lead : lead + m]
        d2[self._own_entries(rows, cols)] = np.inf
        for i in np.flatnonzero(d2.min(axis=1) < thr[rows]):
            js = np.flatnonzero(d2[i] < tau * (aug[rows[i], 1] + norms))
            diff = self._coords[js + c if suffix else cols[js]] - self._coords[rows[i]]
            d2[i, js] = np.einsum("ij,ij->i", diff, diff)
        np.sqrt(d2, out=d2)
        if out is None or direct:
            return d2
        out[:, :m] = d2
        return out[:, :m]

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point `i` to every point: :meth:`iter_rows` of
        ``[i]``."""
        return next(self.iter_rows([i]))

    def dist_block(self, ids, out=None) -> np.ndarray:
        """Distance rows for the given point ids, shape ``(len(ids), n)``,
        written to `out` (C-contiguous) if given."""
        ids = self.check_ids(ids)
        if self._dist_cache is not None:
            # checked ids: "clip" indexes as [] does, without buffering `out`
            return np.take(self._dist_cache, ids, axis=0, out=out, mode="clip")
        return self._pairwise(ids, out=out)

    def iter_blocks(self, upper=False, ids=None):
        """Yield ``(block_ids, block)`` over every point in order, or over
        the caller-chosen `ids` in their order (repeats allowed),
        ``block_rows`` rows at a time, ``block`` the distance rows of
        ``block_ids``.

        With `upper`, a block of the rows ``i0:i1`` of a whole pass holds
        only their columns from ``i0`` on: the upper triangle, its leading
        ``i1 - i0`` columns a square and the rest a rectangle whose mirror
        image no block holds.  Its blocks take ``block_rows`` rounded down
        to a multiple of 8 rows, so each starts at a column where the GEMM
        kernel can start its product (``_gemm_pairwise``).  Chosen ids
        always read full rows.

        A whole pass on a space that holds its matrix (see :meth:`dense`)
        yields read-only views of it.  Otherwise every block is written
        into one buffer, chosen rows by :meth:`dist_block` (a copy of the
        held rows, or computed; never a matrix build), so a block is valid
        only until the next is yielded: copy what must outlive it.  Reusing
        the buffer saves allocating, and faulting in, a block per step.
        """
        m = self.dense() if ids is None else None
        step = self.block_rows
        if upper:
            step = step - step % 8 or step
        order = np.arange(self.n) if ids is None else self.check_ids(ids)
        if m is None:
            buf = np.empty((min(step, order.size), self.n))
        for i0 in range(0, order.size, step):
            part = order[i0 : i0 + step]
            if m is not None:
                yield part, m[i0 : i0 + part.size, i0 if upper else 0 :]
            elif ids is not None:
                yield part, self.dist_block(part, out=buf[: part.size])
            else:
                cols = np.arange(i0, self.n) if upper else None
                yield part, self._pairwise(part, cols, buf[: part.size])

    def iter_rows(self, ids):
        """Each id's distance row, in order: a read-only view of a held
        matrix, else a row of the blocks of :meth:`iter_blocks` of `ids`,
        valid until the next block.  The ids are checked at the call."""
        ids, m = self.check_ids(ids), self._dist_cache
        if m is not None:
            return (m[i] for i in ids.tolist())
        return (row for _, blk in self.iter_blocks(ids=ids) for row in blk)

    def check_ids(self, ids, what: str = "point ids") -> np.ndarray:
        """`ids` as a 1-D int array; InputError unless they are a flat
        sequence, each an integer in ``[0, n)`` and not a bool, which numpy
        would turn into one."""
        try:
            a = np.asarray(ids)
        except ValueError:  # ragged, such as [[0], 1]
            raise InputError(f"{what} must be a 1-D sequence of integers, "
                             f"got {ids!r}") from None
        if a.ndim != 1:
            raise InputError(f"{what} must be a 1-D sequence, got shape {a.shape}")
        if a.size == 0:
            return a.astype(int)
        whole = a.dtype.kind in "iu" or a.dtype.kind == "f" and np.all(a == np.floor(a))
        bools = not isinstance(ids, np.ndarray) and {bool, np.bool_} & set(map(type, ids))
        if not whole or bools:
            shown = a.tolist() if isinstance(ids, np.ndarray) else list(ids)
            raise InputError(f"{what} must be integers, got {shown[:8]!r}")
        bad = a[(a < 0) | (a >= self.n)]
        if bad.size:
            raise InputError(f"{what} out of range for n={self.n}: {bad[0].item()!r}")
        return a.astype(int)

    def iter_set_distances(self, sets):
        """Yield ``(set_ids, out)``, ``out[j]`` holding ``min over a in A of
        d(x, a)`` for every point x, A the set in row ``set_ids[j]`` of the
        ``(k, n)`` boolean mask `sets`; every set must be nonempty.  Sets
        go in groups of ``block_rows``, so an output holds at most
        ``BLOCK_ENTRIES`` distances.  A group reads each distance row of the
        union of its sets once, in index order, and takes it into the output
        of every set holding it, as :meth:`iter_rows` reads it.
        """
        if not (isinstance(sets, np.ndarray) and sets.dtype == bool and sets.ndim == 2
                and sets.shape[1] == self.n):
            raise InputError(f"sets must be a boolean mask of shape (k, {self.n})")
        empty = np.flatnonzero(~sets.any(axis=1))
        if empty.size:
            raise InputError(f"set {int(empty[0])} is empty")
        return self._set_distance_groups(sets)

    def _set_distance_groups(self, sets):
        """The generator of :meth:`iter_set_distances`, on a checked mask."""
        step = self.block_rows
        for j0 in range(0, len(sets), step):
            member = sets[j0 : j0 + step]
            out = np.full(member.shape, np.inf)
            dst = list(out)
            pts, owner = np.nonzero(member.T)  # by point, then set
            union, first = np.unique(pts, return_index=True)
            bounds = np.append(first, pts.size).tolist()
            owner = owner.tolist()
            for r, row in enumerate(self.iter_rows(union)):
                for j in owner[bounds[r] : bounds[r + 1]]:
                    np.minimum(dst[j], row, out=dst[j])
            yield np.arange(j0, j0 + len(member)), out

    def min_dist_to(self, ids) -> np.ndarray:
        """``min over a in ids of d(x, a)`` for every point x (ids nonempty):
        :meth:`iter_set_distances` of the one-row mask of `ids`."""
        mask = np.zeros((1, self.n), dtype=bool)
        mask[0, self.check_ids(ids, "set ids")] = True
        return next(self.iter_set_distances(mask))[1][0]

    def submatrix(self, ids) -> np.ndarray:
        """Distances among the points `ids`, read from their full rows."""
        ids = self.check_ids(ids)
        rows = [row[ids] for row in self.iter_rows(ids)]
        return np.array(rows).reshape(ids.size, ids.size)

    def distance(self, i: int, j: int) -> float:
        """The distance between points `i` and `j`, read from i's full row."""
        (j,) = self.check_ids([j])
        return float(next(self.iter_rows([i]))[j])

    # -- derived spaces --------------------------------------------------------

    def subspace(self, ids) -> "MMSpace":
        """Induced space on a subset of points, with uniform weights."""
        ids = self.check_ids(ids, "subspace ids")
        if ids.size < 1:
            raise InputError("subspace requires at least one point id")
        if self._coords is not None:
            return MMSpace(coords=self._coords[ids], metric=self._metric)
        return MMSpace(dist=self.dist[np.ix_(ids, ids)])

    def __repr__(self) -> str:
        kind = "dense" if self._coords is None else f"coords/{self._metric}"
        lbl = f", label={self.label!r}" if self.label else ""
        return f"MMSpace(n={self.n}, {kind}{lbl})"


class RowCache:
    """Distance rows taken one at a time, each computed in a block together
    with the rows likely to be taken next, over the columns still read.

    Columns.  Ids, scores and rows are indexed by the cache's columns, at
    first every point in order.  Where the matrix is not held,
    :meth:`narrow` keeps only the columns a caller still reads, in order;
    later rows are computed over those alone (``MMSpace._pairwise``: the
    same bits as in full rows).

    A new cache builds the matrix of a space under the materialization
    rule (:meth:`MMSpace.dense`); a row of a held matrix is a view of it.
    Otherwise rows live in one buffer of ``block_rows`` rows.  A row not
    in it is computed together with those of the columns ranked highest
    by each of the caller's scores in turn,
    as many as the buffer has free rows; columns already buffered and
    columns scored ``-inf`` are passed over.  The row returned last is
    freed, where it lies, on the next call, so a miss always finds a free
    row; a miss given scores first frees the rows that every one of them
    marks ``-inf``, then moves the rows still held that lie where its block
    goes into free rows before it.  Narrowing frees the rows of the
    columns it drops and compacts the others in place.  No other row is
    dropped before it is taken: taking each column at most once, and none
    once every score marks it ``-inf``, computes each row at most once.

    The cache keeps the largest value of the rows it computes.  Once it
    has computed every point's row, it fills the space's diameter if that
    is not known, so a caller that takes every point leaves no diameter
    pass to make.  A point a narrowing drops is never computed after, so
    then every point was computed before it was dropped, and each pair
    lies in the row of whichever of its points was computed first.
    """

    def __init__(self, space: MMSpace):
        self._space = space
        self._matrix = space.dense()
        self._cols = None  # the point of each column, once narrowed
        if self._matrix is None:
            rows = min(space.block_rows, space.n)
            self._buf = np.empty((rows, space.n))  # a row's first columns hold it
            self._width = space.n                  # the columns kept
            self._ids = np.full(rows, -1)          # each buffer row's column, or -1
            self._slot = np.full(space.n, -1)      # each column's buffer row, or -1
            self._taken = -1                       # the buffer row returned last
            self._unseen = np.ones(space.n, dtype=bool)  # rows never computed
            self._top = -np.inf                    # largest value computed

    @property
    def narrows(self) -> bool:
        """Whether :meth:`narrow` applies: not to a held matrix, whose rows
        cost nothing to compute, so keeping fewer columns would only add a
        copy to every take."""
        return self._matrix is None

    def take(self, x: int, *scores: np.ndarray) -> np.ndarray:
        """Column x's distance row, valid until the next call."""
        if self._matrix is not None:
            return self._matrix[x]
        self._free_taken()
        self._taken = int(self._slot[x])
        if self._taken < 0:
            self._taken = self._fetch(x, scores)
        return self._buf[self._taken, : self._width]

    def narrow(self, keep: np.ndarray) -> None:
        """Keep only the columns `keep`, ascending, where :attr:`narrows`:
        later ids, scores and rows refer to positions in it, and rows
        returned before are invalid."""
        pts = keep if self._cols is None else self._cols[keep]
        self._free_taken()
        pos = np.full(self._width, -1)
        pos[keep] = np.arange(keep.size)
        held = np.flatnonzero(self._ids >= 0)
        gone = pos[self._ids[held]] < 0
        self._free(held[gone])
        held = held[~gone]
        for r in held.tolist():
            self._buf[r, : keep.size] = self._buf[r, keep]
        self._width = keep.size
        self._ids[held] = pos[self._ids[held]]
        self._slot = np.full(keep.size, -1)
        self._slot[self._ids[held]] = held
        self._cols = pts

    def _free(self, rows) -> None:
        self._slot[self._ids[rows]] = -1
        self._ids[rows] = -1

    def _free_taken(self) -> None:
        if self._taken >= 0:
            self._free(self._taken)
            self._taken = -1

    def _fetch(self, x: int, scores) -> int:
        """Free the rows every score marks ``-inf`` and clear the block's
        place, then compute x's row with the best scored others; x's buffer
        row."""
        held = np.flatnonzero(self._ids >= 0)
        if scores and held.size:
            dead = np.max([s[self._ids[held]] for s in scores], axis=0) == -np.inf
            self._free(held[dead])
            held = held[~dead]
        h0 = held.size
        src = held[held >= h0]
        if src.size:  # into the free rows before h0, as many
            dst = np.flatnonzero(self._ids[:h0] < 0)
            for r, q in zip(src.tolist(), dst.tolist()):
                self._buf[q, : self._width] = self._buf[r, : self._width]
            self._ids[dst] = self._ids[src]
            self._slot[self._ids[dst]] = dst
            self._ids[src] = -1
        want = [np.array([x])]
        skip = self._slot >= 0
        skip[x] = True
        left = len(self._ids) - h0 - 1
        for k, score in enumerate(scores):
            quota = min(-(-left // (len(scores) - k)), score.size)
            if quota == 0:
                break
            pri = np.where(skip, -np.inf, score)
            top = np.argpartition(pri, -quota)[-quota:]
            top = top[pri[top] > -np.inf]
            skip[top] = True
            want.append(top)
            left -= top.size
        ids = np.concatenate(want)
        h1 = h0 + ids.size
        pts = ids if self._cols is None else self._cols[ids]
        blk = self._space._pairwise(pts, self._cols, out=self._buf[h0:h1])
        if self._space._diameter_cache is None:
            self._top = max(self._top, float(blk.max()))
            self._unseen[pts] = False
            if not self._unseen.any():
                self._space._diameter_cache = self._top
        self._ids[h0:h1] = ids
        self._slot[ids] = np.arange(h0, h1)
        return h0


# -- constructors ---------------------------------------------------------------


def from_points(coords, weights=None, metric: str = "euclidean",
                label: str | None = None) -> MMSpace:
    """Build a space from point coordinates under a named metric.

    ``metric`` is ``"euclidean"`` or ``"normalized_hamming"`` (fraction of
    differing coordinates).  Omitted weights mean uniform ``1/n``.
    """
    return MMSpace(coords=coords, metric=metric, weights=weights, label=label)


def from_distance_matrix(dist, weights=None, label: str | None = None) -> MMSpace:
    """Build a space from an explicit distance matrix.

    The matrix must be square and symmetric with zero diagonal and satisfy
    the triangle inequality within ``1e-9``, checked over every triple up
    to ``EXHAUSTIVE_CHECK_LIMIT`` points and over those of a deterministic
    200-point subset above; violations found are rejected with the
    offending indices named.
    """
    return MMSpace(dist=dist, weights=weights, label=label)


# -- generators ------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorSpec:
    """A fully deterministic recipe for a synthetic space.

    ``family`` is one of ``sphere``, ``hamming_cube``, ``hamming_sample``,
    ``gaussian_cloud``, ``noisy_embedding``; ``params`` holds that family's
    parameters and ``seed`` fixes the random stream.  Equal specs produce
    bit-identical spaces.
    """

    family: str
    seed: int
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        inner = ",".join(f"{k}={_short(v)}" for k, v in sorted(self.params.items()))
        return f"{self.family}({inner},seed={self.seed})"

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "seed": self.seed,
            "params": {k: _short(v) for k, v in sorted(self.params.items())},
        }


def _short(v: Any):
    if isinstance(v, MMSpace):
        return v.label or repr(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    return v


def _require(params: dict, family: str, *names: str) -> list:
    missing = [k for k in names if k not in params]
    if missing:
        raise InputError(f"{family} generator requires params {missing}")
    extra = sorted(set(params) - set(names))
    if extra:
        raise InputError(f"{family} generator got unknown params {extra}")
    return [params[k] for k in names]


def _check_sample_size(n) -> int:
    n = check_int(n, "sample size n", least=1)
    if n > MAX_POINTS:
        raise ResourceLimitError(f"sample size {n} exceeds the limit {MAX_POINTS}")
    return n


def _check_sigma(sigma) -> float:
    if not (isinstance(sigma, (int, float, np.integer, np.floating))
            and 0 <= sigma < math.inf):
        raise InputError(f"sigma must be finite and >= 0, got {sigma!r}")
    return float(sigma)


def generate(spec: GeneratorSpec) -> MMSpace:
    """Generate a synthetic space; identical specs give bit-identical output.

    Families
    --------
    sphere(n_dim, n)
        ``n`` points uniform on the unit sphere in ``R**(n_dim+1)``
        (normalized Gaussian vectors), Euclidean metric.
    hamming_cube(d)
        all ``2**d`` binary strings under the normalized Hamming metric;
        requires ``d <= 20``.
    hamming_sample(d, n)
        ``n`` i.i.d. uniform binary strings of length ``d``.
    gaussian_cloud(d, sigma, n)
        ``n`` i.i.d. draws from ``N(0, sigma**2 I_d)``.
    noisy_embedding(base, ambient_d, sigma, n)
        ``n`` points resampled from a coordinate-backed `base` space,
        embedded into the first coordinates of ``R**ambient_d`` and
        perturbed by ``N(0, sigma**2 I)`` noise.

    All families produce uniform weights.
    """
    rng = np.random.default_rng(check_int(spec.seed, "seed", least=0))
    fam = spec.family
    p = dict(spec.params)
    label = spec.describe()
    if fam == "sphere":
        n_dim, n = _require(p, fam, "n_dim", "n")
        n = _check_sample_size(n)
        n_dim = check_int(n_dim, "sphere dimension n_dim", least=1)
        pts = rng.standard_normal((n, n_dim + 1))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if np.any(norms == 0):  # pragma: no cover - probability zero
            raise InvariantViolation("degenerate zero-norm Gaussian draw")
        return from_points(pts / norms, metric="euclidean", label=label)
    if fam == "hamming_cube":
        (d,) = _require(p, fam, "d")
        d = check_int(d, "cube dimension d", least=1)
        if d > MAX_CUBE_DIM:
            raise ResourceLimitError(
                f"hamming_cube requires d <= {MAX_CUBE_DIM} (2**d points); got d={d}"
            )
        codes = np.arange(2**d, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(d)[None, :]) & 1
        return from_points(bits.astype(float), metric="normalized_hamming", label=label)
    if fam == "hamming_sample":
        d, n = _require(p, fam, "d", "n")
        n, d = _check_sample_size(n), check_int(d, "string length d", least=1)
        bits = rng.integers(0, 2, size=(n, d))
        return from_points(bits.astype(float), metric="normalized_hamming", label=label)
    if fam == "gaussian_cloud":
        d, sigma, n = _require(p, fam, "d", "sigma", "n")
        n, d = _check_sample_size(n), check_int(d, "dimension d", least=1)
        pts = rng.normal(0.0, _check_sigma(sigma), size=(n, d))
        return from_points(pts, metric="euclidean", label=label)
    if fam == "noisy_embedding":
        base, ambient_d, sigma, n = _require(p, fam, "base", "ambient_d", "sigma", "n")
        n, sigma = _check_sample_size(n), _check_sigma(sigma)
        ambient_d = check_int(ambient_d, "ambient dimension ambient_d", least=1)
        if not isinstance(base, MMSpace) or base.coords is None:
            raise InputError("noisy_embedding requires a coordinate-backed base space")
        bd = base.coords.shape[1]
        if ambient_d < bd:
            raise InputError(
                f"ambient dimension {ambient_d} smaller than base dimension {bd}"
            )
        idx = rng.choice(base.n, size=n, p=base.weights)
        pts = np.zeros((n, ambient_d))
        pts[:, :bd] = base.coords[idx]
        pts += rng.normal(0.0, sigma, size=(n, ambient_d))
        return from_points(pts, metric="euclidean", label=label)
    raise InputError(f"unknown generator family {fam!r}")


# -- size statistics ---------------------------------------------------------------


def diameter(space: MMSpace) -> float:
    """Largest pairwise distance; 0 for a singleton.

    Kept on the space once known.  A pass over ``iter_blocks`` finds it
    unless a read of every row has already filled it: the first counting
    pass of a pair order statistic (``char_size``), or a ``RowCache`` that
    has computed every point's row.  Each takes the maximum of the same
    canonical rows, so the bits do not depend on which read filled it.
    """
    if space._diameter_cache is None:
        space._diameter_cache = max(float(blk.max())
                                    for _, blk in space.iter_blocks(upper=True))
    return space._diameter_cache


def weighted_median(values, weights) -> float:
    """Lower weighted median of a finite distribution: the smallest value
    whose cumulative mass reaches 1/2.  One :func:`pick_order_stats` call
    on the lower target of :func:`_median_targets`: a rank under equal
    weights, else half the total mass less ``1e-12``.
    """
    values = np.array(values, dtype=float)  # a copy: the pick partitions it
    weights = np.asarray(weights, dtype=float)
    masses, (lower, _) = _median_targets(values.size, weights, float(weights.sum()))
    return pick_order_stats(values, masses, 0.0, [lower])[0]


def uniform_weights(w: np.ndarray) -> bool:
    """Whether the weights `w` are all equal, so that order statistics
    under them are picked by rank."""
    return bool(np.all(w == w[0]))


def _median_targets(n: int, w: np.ndarray, total: float):
    """The masses and the targets of the lower and upper medians of `n`
    values for :func:`pick_order_stats`: None and the ranks ``(n+1)//2``
    and ``n//2+1`` if the weights `w` are equal, else `w` and half of the
    `total` mass less ``1e-12`` and more (the smallest float above)."""
    if uniform_weights(w):
        return None, ((n + 1) // 2, n // 2 + 1)
    half = 0.5 * total
    return w, (half - 1e-12, np.nextafter(half + 1e-12, np.inf))


def _pair_sample_bracket(space: MMSpace, u, p_lo: float, p_hi: float
                         ) -> tuple[float, float]:
    """A range likely to hold the pair quantiles at mass fractions `p_lo`
    <= `p_hi`: 4 standard errors beyond them among ``_PAIR_SAMPLE`` pairs
    drawn by mass, with a fixed seed.  It makes no pass: the distances come
    from the held matrix or from the pairs' coordinates.  Only a range
    whose top lies at the sample's end reads the diameter (a pass, which
    fills it, unless it is known)."""
    rng = np.random.default_rng(0)
    if u is None:
        rows, cols = rng.integers(0, space.n, (2, _PAIR_SAMPLE))
    else:  # sorted keys search fast; a shuffle pairs rows and columns at random
        cum = np.cumsum(u)
        keys = rng.uniform(0.0, cum[-1], (2, _PAIR_SAMPLE))
        keys.sort(axis=1)
        rows, cols = np.minimum(np.searchsorted(cum, keys, side="right"), space.n - 1)
        rng.shuffle(cols)
    x = _pair_distances(space, rows, cols)
    x.sort()
    half = 4.0 * math.sqrt(p_lo * (1.0 - p_lo) / _PAIR_SAMPLE) + 1.0 / _PAIR_SAMPLE
    lo, hi = int((p_lo - half) * _PAIR_SAMPLE), math.ceil((p_hi + half) * _PAIR_SAMPLE)
    return (float(x[lo]) if lo > 0 else 0.0,
            float(x[hi]) if hi < _PAIR_SAMPLE else diameter(space))


def _pair_distances(space: MMSpace, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``d(rows[k], cols[k])`` for each k: from the held matrix, else from
    coordinate differences, 1024 pairs at a time.  Not canonical rows (see
    the module notes): the bits may differ from the kernel's."""
    if space._dist_cache is not None:
        return space._dist_cache[rows, cols]
    c, out = space._scaled, np.empty(rows.size)
    step = max(1, min(1024, BLOCK_ENTRIES // c.shape[1]))
    for k in range(0, rows.size, step):
        diff = c[rows[k : k + step]] - c[cols[k : k + step]]
        if space._metric == "euclidean":
            out[k : k + step] = np.einsum("ij,ij->i", diff, diff)
        else:
            out[k : k + step] = np.count_nonzero(diff, axis=1) / c.shape[1]
    if space._metric == "euclidean":
        np.multiply(np.sqrt(out, out=out), space._unit, out=out)
    return out


def pick_order_stats(vals: np.ndarray, masses, below, targets) -> list[float]:
    """For each of `targets`, the smallest of `vals` at which `below` plus
    the mass of the values up to it reaches the target; `masses` None gives
    each value mass 1, and the targets are then ranks, selected in place."""
    if masses is None:
        ks = [int(t - below) - 1 for t in targets]
        vals.partition(ks)
        return [float(vals[k]) for k in ks]
    order = np.argsort(vals, kind="stable")
    ks = np.searchsorted(below + np.cumsum(masses[order]), targets)
    return [float(vals[order[min(k, vals.size - 1)]]) for k in ks]


def _pair_order_stats(space: MMSpace, u, targets) -> list[float]:
    """For each of the ascending `targets`, the smallest distance whose
    pair mass up to and including it reaches it; pair (i, j) has mass
    ``u_i * u_j``, or 1 if `u` is None, when targets are ranks.

    Exact.  Each pass over the upper triangle (``iter_blocks(upper=True)``;
    the matrix is exactly symmetric, so an entry off a block's square
    stands for its mirror image too, and counts and is kept twice) counts
    the mass below a bracket ``[a, b]`` and collects the values inside it,
    at most ``BLOCK_ENTRIES``;
    the first bracket holds every pair if they all fit, else a pair sample
    picks it, wide enough for every target.  The collected values, or a
    single distinct one, answer each target inside the bracket.  A bracket
    that misses a target drops its side of the range ``[lo, hi]`` known to
    hold it; one holding too many values narrows to the one of 4096 bins
    reaching it.  Targets whose next bracket is the same share its passes;
    the others go on apart.  The first pass also takes each block's largest
    value, unless the diameter is known, and fills it; ``hi`` starts
    unbounded and is clamped to the diameter after that pass.
    """
    n2 = space.n * space.n
    a, b = 0.0, np.inf
    if n2 > BLOCK_ENTRIES:
        total = n2 if u is None else float(u.sum()) ** 2
        a, b = _pair_sample_bracket(space, u, targets[0] / total, targets[-1] / total)
    vals, masses = np.empty(min(BLOCK_ENTRIES, n2)), np.empty(min(BLOCK_ENTRIES, n2))

    def bins(x, m):
        return np.bincount(np.searchsorted(edges, x, side="right"), weights=m,
                           minlength=edges.size + 1)

    found = {}
    work = [(tuple(targets), (0.0, np.inf, a, b))]
    for _ in range(64 * len(targets)):
        pending, (lo, hi, a, b) = work.pop()
        below = inside = kept = 0
        vmin, vmax, counts = np.inf, -np.inf, None
        fill, top = space._diameter_cache is None, -np.inf
        for ids, blk in space.iter_blocks(upper=True):
            if fill:
                top = max(top, float(blk.max()))
            # the square of the block's own columns once, the rectangle
            # right of it for both orders of its pairs
            k = ids.size
            for part, c0, times in ((blk[:, :k], ids[0], 1), (blk[:, k:], ids[0] + k, 2)):
                sel = part < a
                below += times * (np.count_nonzero(sel) if u is None else
                                  float(u[ids] @ (sel @ u[c0 : c0 + part.shape[1]])))
                np.logical_xor(sel, part <= b, out=sel)  # now a <= d <= b
                if u is None:
                    x, m = part[sel], None
                else:
                    r, c = np.nonzero(sel)
                    x, m = part[r, c], u[ids[r]] * u[c0 + c]
                inside += times * (x.size if u is None else float(m.sum()))
                vmin = min(vmin, x.min(initial=np.inf))
                vmax = max(vmax, x.max(initial=-np.inf))
                if counts is None and kept + times * x.size <= vals.size:
                    for _ in range(times):
                        vals[kept : kept + x.size] = x
                        if u is not None:
                            masses[kept : kept + x.size] = m
                        kept += x.size
                    continue
                if counts is None:  # too many: bin the values kept and to come
                    edges = np.append(np.linspace(a, b, 4097)[1:-1], b)
                    counts = bins(vals[:kept], None if u is None else masses[:kept])
                counts = counts + times * bins(x, m)
        if fill:
            space._diameter_cache = top
        hi = min(hi, space._diameter_cache)
        nxt, binned, picked = {}, [], []
        for t in pending:
            if below >= t:
                nxt.setdefault((lo, np.nextafter(a, -np.inf)) * 2, []).append(t)
            elif below + inside < t:
                nxt.setdefault((np.nextafter(b, np.inf), hi) * 2, []).append(t)
            elif vmin == vmax:
                found[t] = float(vmin)
            else:
                (picked if counts is None else binned).append(t)
        if picked:
            found.update(zip(picked, pick_order_stats(
                vals[:kept], None if u is None else masses[:kept], below, picked)))
        if binned:
            for t, k in zip(binned, np.searchsorted(below + np.cumsum(counts), binned)):
                nxt.setdefault((a, b, a if k == 0 else edges[k - 1], b if k == edges.size
                                else np.nextafter(edges[k], -np.inf)), []).append(t)
        work.extend((tuple(ts), state) for state, ts in nxt.items())
        if not work:
            return [found[t] for t in targets]
    raise InvariantViolation("pair order statistic did not converge")


def _pair_median_targets(space: MMSpace):
    """`u` and the targets of the lower and upper pair medians, by the rule
    of :func:`weighted_median` (:func:`_median_targets`)."""
    w = space.weights
    return _median_targets(space.n * space.n, w, float(w.sum()) ** 2)


def char_size(space: MMSpace) -> float:
    """Characteristic size: the weighted median pairwise distance.

    Uses the product measure over ordered pairs (diagonal included) and
    the lower-median convention; see :func:`char_size_interval` for both
    median variants.  Under uniform weights it is exactly the
    ``ceil(n**2 / 2)``-th smallest pair distance; under other weights it
    meets the thresholds of :func:`weighted_median` (half the mass, less
    ``1e-12``).  Exact selection over distance blocks, of any size and
    under any weights: memory beyond the current block stays within
    ``BLOCK_ENTRIES`` values (see ``_pair_order_stats``).
    """
    u, (lower, _) = _pair_median_targets(space)
    return _pair_order_stats(space, u, [lower])[0]


def char_size_interval(space: MMSpace) -> tuple[float, float]:
    """(lower median, upper median) of the pairwise-distance distribution,
    selected together."""
    return tuple(_pair_order_stats(space, *_pair_median_targets(space)))


def product_distance_moments(space: MMSpace) -> tuple[float, float]:
    """Mean and variance of the distance under the product measure.  The
    variance is inf where it passes the largest float.
    """
    m1, var = _unit_moments(space, True)
    return m1 * space._unit, var * space._unit * space._unit


def _unit_moments(space: MMSpace, include_diagonal: bool) -> tuple[float, float]:
    """:func:`product_distance_moments` of the distances over the space's
    power-of-two unit (1 unless they are large), so squares do not
    overflow.  With ``include_diagonal=False`` the measure is conditioned
    on distinct index pairs (renormalized by ``1 - sum(w_i**2)``)."""
    w = space.weights
    m1 = m2 = 0.0
    for ids, blk in space.iter_blocks():
        if space._unit != 1.0:
            blk = blk / space._unit
        m1 += float(w[ids] @ (blk @ w))
        m2 += float(w[ids] @ ((blk * blk) @ w))
    if not include_diagonal:
        off = 1.0 - float(np.sum(w * w))
        if off <= 0.0:
            return 0.0, 0.0
        m1, m2 = m1 / off, m2 / off
    var = max(m2 - m1 * m1, 0.0)
    return m1, var


# -- CSV ingestion ---------------------------------------------------------------


def load_points_csv(path, metric: str = "euclidean") -> MMSpace:
    """Read a point cloud from CSV: one row per point, optional header.

    A column named ``weight`` is used (normalized) as the measure; all
    other columns are coordinates.  Parsing is locale-independent with
    ``.`` as the decimal separator.
    """
    header, rows = read_csv_rows(path)
    data = np.asarray(rows, dtype=float)
    data, w = split_weight_column(header, data)
    return from_points(data, weights=w, metric=metric, label=str(path))


def load_distance_csv(path) -> MMSpace:
    """Read a distance matrix from CSV: n rows of n floats, optional header.

    With a header, a ``weight`` column supplies the (normalized) measure.
    """
    header, rows = read_csv_rows(path)
    data = np.asarray(rows, dtype=float)
    data, w = split_weight_column(header, data)
    if data.shape[0] != data.shape[1]:
        raise InputError(
            f"{path}: distance matrix must be square, got {data.shape[0]} rows "
            f"of {data.shape[1]} values"
        )
    return from_distance_matrix(data, weights=w, label=str(path))
