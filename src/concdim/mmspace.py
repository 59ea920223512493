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
* Distance matrices are materialized only up to ``MATERIALIZE_LIMIT``
  points; larger spaces must be built from coordinates and are evaluated
  row by row.

The distance layer
------------------
Every distance of a coordinate-backed space comes from one kernel,
``MMSpace._pairwise``, and every caller reads it through ``dist``,
``dist_row``, ``dist_block``, ``submatrix``, ``distance``, ``min_dist_to``
or the block iterator ``iter_blocks``.

* Kernel choice.  ``normalized_hamming`` uses ``scipy``'s ``cdist``.
  Euclidean spaces with fewer than ``GEMM_MIN_DIM`` coordinates use
  ``cdist`` too, which is faster there; from ``GEMM_MIN_DIM`` on, squared
  distances are ``|x|^2 + |y|^2 - 2 x.y`` on coordinates centred at their
  mean, computed as one BLAS GEMM (one GEMV for a single row) with the
  squared norms folded into the product as two extra columns.
* Cancellation guard.  That formula loses accuracy when a squared
  distance is tiny against the squared norms.  Every entry below
  ``tau(d) * (|x_i|^2 + max_j |x_j|^2)`` (centred norms, ``d``
  coordinates) is recomputed by direct differences of the original
  coordinates; a row whose minimum clears that threshold is left as it
  is, and a point's own entry is excluded and set to exactly 0.  The
  threshold ``tau(d)`` is chosen from the worst-case rounding of a
  ``d + 2`` term dot product so that every distance lies within
  ``GEMM_ACCURACY * (1 + largest centred norm)`` of the exact one;
  duplicate points get exactly 0, and no entry is negative.  Where that
  threshold would cover every pair (``tau(d) >= 1``, beyond about 2000
  coordinates), or the squared norms could overflow, ``cdist`` is used.
* One block budget.  Loops over rows (``iter_blocks``, ``min_dist_to``,
  the statistics below, the greedy separated-subset scan in
  ``concentration``) hold at most ``BLOCK_ENTRIES`` distances per block
  (``iter_blocks`` reuses one buffer for all its blocks), and the dense
  matrix is built through blocks of the same size; on the
  GEMM kernel each block holds the upper triangle and is mirrored, so the
  matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InputError, InvariantViolation, ResourceLimitError

SYMMETRY_TOL = 1e-9
TRIANGLE_TOL = 1e-9
WEIGHT_SUM_TOL = 1e-12

#: largest point count for which a dense distance matrix may be materialized.
#: 12_000 points correspond to a ~1.2 GB float64 matrix.
MATERIALIZE_LIMIT = 12_000

#: coordinate-backed spaces at most this large are materialized eagerly by
#: the statistics below; larger ones are processed in row blocks.
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

#: point count up to which metric axioms are checked exhaustively (O(n^3));
#: above it a deterministic 200-point submatrix is checked instead.
EXHAUSTIVE_CHECK_LIMIT = 500

#: hard ceiling on generated sample sizes.
MAX_POINTS = 1_000_000

#: largest exhaustive Hamming cube (2**d points).
MAX_CUBE_DIM = 20

_KNOWN_METRICS = ("euclidean", "normalized_hamming")
_CHECK_SUBSET_SIZE = 200
_CHECK_SEED = 0x5EED


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


def _check_triangle_dense(dist: np.ndarray, tol: float) -> None:
    n = dist.shape[0]
    for k in range(n):
        slack = dist - (dist[:, k][:, None] + dist[k, :][None, :])
        bad = np.argwhere(slack > tol)
        if bad.size:
            i, j = map(int, bad[0])
            raise InputError(
                "triangle inequality violated at points "
                f"({i}, {j}, {k}): d({i},{j})={float(dist[i, j])!r} > "
                f"d({i},{k})+d({k},{j})={float(dist[i, k] + dist[k, j])!r}"
            )


def _gemm_operands(coords: np.ndarray):
    """``(aug, thr)`` for the GEMM kernel, or None where ``cdist`` is used.

    ``aug`` holds the centred coordinates, a column of ones and the squared
    centred norms, so ``[-2x_i, |x_i|^2, 1] . aug[j]`` is the squared
    distance; ``thr[i]`` is the guard threshold of row i.  A dot product of
    ``k = d + 2`` terms is off by at most about ``k*u`` times the sum of
    their magnitudes, here at most ``2 S`` with ``S = |x_i|^2 + |x_j|^2``;
    adding the rounding of the norms gives ``c S``, ``c = 3 k u``.  An
    entry of at least ``tau S`` then has a square root within
    ``c M / sqrt(2 (tau - c))`` of the exact one (``M`` the largest
    centred norm), which
    ``tau = c + 2 (c / GEMM_ACCURACY)**2`` keeps below half the accuracy.
    """
    n, d = coords.shape
    c = 3.0 * (d + 2) * np.finfo(float).eps / 2.0
    tau = c + 2.0 * (c / GEMM_ACCURACY) ** 2
    if d < GEMM_MIN_DIM or tau >= 1.0:
        return None
    aug = np.empty((n, d + 2))
    np.subtract(coords, coords.mean(axis=0), out=aug[:, :d])
    aug[:, d] = 1.0
    sq = np.einsum("ij,ij->i", aug[:, :d], aug[:, :d])
    if not sq.max() <= np.finfo(float).max / 4:  # the products could overflow
        return None
    aug[:, d + 1] = sq
    aug.setflags(write=False)
    return aug, tau * (sq + sq.max())


class MMSpace:
    """A finite metric space with a probability measure.

    Parameters
    ----------
    dist : array, optional
        Symmetric ``(n, n)`` matrix of nonnegative distances with zero
        diagonal.  Validated on construction (symmetry and triangle
        inequality within ``1e-9``).
    coords : array, optional
        ``(n, d)`` point coordinates; distances are derived on demand
        under `metric`.  Exactly one of `dist` / `coords` must be given.
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
    Instances are immutable after construction (arrays are marked
    read-only) and safe to share across threads.
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
            if coords.ndim != 2 or coords.shape[0] < 1:
                raise InputError("coords must be a nonempty (n, d) array")
            finite_rows = np.isfinite(coords).all(axis=1)
            if not finite_rows.all():
                row = int(np.argmin(finite_rows))
                raise InputError(f"non-finite coordinate in row {row}")
            self._coords = coords
            self._coords.setflags(write=False)
            self._metric = metric
            self._dist = None
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
            dist.setflags(write=False)
            self._dist = dist
            self._coords = None
            self._metric = None
            self._gemm = None
        self.n = n
        self.weights = _as_weights(weights, n)
        self.label = label
        self._dist_cache = self._dist
        self._diameter_cache: float | None = None
        self._verify_metric_axioms()

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

        Built in row blocks; the GEMM kernel's rounding is not symmetric, so
        there each block holds the upper triangle and is mirrored into the
        lower one, and the matrix is exactly symmetric either way.
        """
        if self._dist_cache is None:
            if self.n > MATERIALIZE_LIMIT:
                raise ResourceLimitError(
                    f"n={self.n} exceeds the dense-matrix limit "
                    f"{MATERIALIZE_LIMIT}; use dist_row()/dist_block() instead"
                )
            n = self.n
            m = np.empty((n, n))
            for i0 in range(0, n, self.block_rows):
                i1 = min(i0 + self.block_rows, n)
                rows = np.arange(i0, i1)
                if self._gemm is None:
                    self._pairwise(rows, self_cols=rows, out=m[i0:i1])
                    continue
                self._pairwise(rows, slice(i0, None), rows - i0, out=m[i0:i1, i0:])
                m[i1:, i0:i1] = m[i0:i1, i1:].T
                lower = np.tril_indices(i1 - i0, -1)
                m[i0:i1, i0:i1][lower] = m[i0:i1, i0:i1].T[lower]
            m.setflags(write=False)
            self._dist_cache = m
        return self._dist_cache

    @property
    def block_rows(self) -> int:
        """Rows per block under the ``BLOCK_ENTRIES`` budget."""
        return max(1, BLOCK_ENTRIES // self.n)

    def _pairwise(self, rows: np.ndarray, cols=slice(None), self_cols=None,
                  out=None) -> np.ndarray:
        """Distances from the points `rows` to the points `cols` (slice or
        ids), written to `out` if given; ``self_cols[k]``, when given, is
        the column of row k's own point, which is set to exactly 0."""
        if self._gemm is None:
            metric = "euclidean" if self._metric == "euclidean" else "hamming"
            out = cdist(self._coords[rows], self._coords[cols], metric=metric, out=out)
        else:
            out = self._gemm_pairwise(rows, cols, self_cols, out)
        if self_cols is not None:
            out[np.arange(len(rows)), self_cols] = 0.0
        return out

    def _gemm_pairwise(self, rows, cols, self_cols, out) -> np.ndarray:
        """The GEMM kernel with its cancellation guard; see the module notes."""
        aug, thr = self._gemm
        d = aug.shape[1] - 2
        a = aug[rows]
        a[:, :d] *= -2.0
        a[:, d] = a[:, d + 1]
        a[:, d + 1] = 1.0
        d2 = np.matmul(a, aug[cols].T, out=out)
        if self_cols is not None:
            d2[np.arange(len(rows)), self_cols] = np.inf
        t = thr[rows]
        for k in np.flatnonzero(d2.min(axis=1) < t):
            js = np.flatnonzero(d2[k] < t[k])
            diff = self._coords[np.arange(self.n)[cols][js]] - self._coords[rows[k]]
            d2[k, js] = np.einsum("ij,ij->i", diff, diff)
        return np.sqrt(d2, out=d2)

    def dist_row(self, i: int) -> np.ndarray:
        """Distances from point `i` to every point."""
        if self._dist_cache is not None:
            return self._dist_cache[i]
        return self._pairwise(np.array([i]), self_cols=[i])[0]

    def dist_block(self, ids, out=None) -> np.ndarray:
        """Distance rows for the given point ids, shape ``(len(ids), n)``,
        written to `out` (C-contiguous) if given."""
        ids = np.asarray(ids, dtype=int)
        if ids.size and not (-self.n <= ids.min() and ids.max() < self.n):
            raise IndexError(f"point ids out of range for n={self.n}")
        if self._dist_cache is not None:
            # in-range ids: "wrap" indexes as [] does, without buffering `out`
            return np.take(self._dist_cache, ids, axis=0, out=out, mode="wrap")
        return self._pairwise(ids, self_cols=ids, out=out)

    def iter_blocks(self, ids=None):
        """Yield ``(block_ids, dist_block(block_ids))`` over `ids` (default:
        every point) in order, ``block_rows`` rows at a time.

        Every block is written into one buffer, so a block is valid only
        until the next is yielded: copy what must outlive it.  Reusing the
        buffer saves allocating, and faulting in, a block per step.
        """
        ids = np.arange(self.n) if ids is None else np.asarray(ids, dtype=int)
        buf = np.empty((min(self.block_rows, len(ids)), self.n))
        for i0 in range(0, len(ids), self.block_rows):
            part = ids[i0 : i0 + self.block_rows]
            yield part, self.dist_block(part, out=buf[: len(part)])

    def min_dist_to(self, ids) -> np.ndarray:
        """``min over a in ids of d(x, a)`` for every point x (ids nonempty)."""
        out = None
        for _, blk in self.iter_blocks(ids):
            m = blk.min(axis=0)
            out = m if out is None else np.minimum(out, m, out=out)
        return out

    def submatrix(self, ids) -> np.ndarray:
        ids = np.asarray(ids, dtype=int)
        if self._dist_cache is not None:
            return self._dist_cache[np.ix_(ids, ids)]
        return self._pairwise(ids, ids, np.arange(len(ids)))

    def distance(self, i: int, j: int) -> float:
        if self._dist_cache is not None:
            return float(self._dist_cache[i, j])
        if i == j:
            return 0.0
        return float(self._pairwise(np.array([i]), np.array([j]))[0, 0])

    # -- derived spaces --------------------------------------------------------

    def subspace(self, ids, weights=None, label: str | None = None) -> "MMSpace":
        """Induced space on a subset of points, uniform weights by default."""
        ids = np.asarray(ids, dtype=int)
        if ids.size < 1:
            raise InputError("subspace requires at least one point id")
        if self._coords is not None:
            return MMSpace(coords=self._coords[ids], metric=self._metric,
                           weights=weights, label=label)
        return MMSpace(dist=self.dist[np.ix_(ids, ids)], weights=weights, label=label)

    def scaled(self, c: float, label: str | None = None) -> "MMSpace":
        """The same space with every distance multiplied by ``c > 0``."""
        if not (c > 0):
            raise InputError(f"scale factor must be positive, got {c!r}")
        if self._coords is not None and self._metric == "euclidean":
            return MMSpace(coords=self._coords * c, metric="euclidean",
                           weights=self.weights, label=label)
        return MMSpace(dist=self.dist * c, weights=self.weights, label=label)

    # -- validation -----------------------------------------------------------

    def _verify_metric_axioms(self) -> None:
        if self._dist_cache is not None and self.n <= EXHAUSTIVE_CHECK_LIMIT:
            _check_triangle_dense(self._dist_cache, TRIANGLE_TOL)
            return
        if self._dist_cache is not None:
            sub_ids = np.random.default_rng(_CHECK_SEED).choice(
                self.n, size=_CHECK_SUBSET_SIZE, replace=False
            )
            _check_triangle_dense(self.dist[np.ix_(sub_ids, sub_ids)], TRIANGLE_TOL)
            return
        # coordinate-backed spaces: the named metrics satisfy the axioms by
        # construction; spot-check a deterministic subset anyway.
        m = min(self.n, _CHECK_SUBSET_SIZE)
        sub_ids = np.random.default_rng(_CHECK_SEED).choice(self.n, size=m, replace=False)
        sub = self.submatrix(sub_ids)
        try:
            _check_triangle_dense(sub, TRIANGLE_TOL)
        except InputError as exc:  # pragma: no cover - unreachable for true metrics
            raise InvariantViolation(str(exc)) from exc

    def __repr__(self) -> str:
        kind = "dense" if self.is_dense else f"coords/{self._metric}"
        lbl = f", label={self.label!r}" if self.label else ""
        return f"MMSpace(n={self.n}, {kind}{lbl})"


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
    the triangle inequality within ``1e-9``; violations are rejected with
    the offending indices named.
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


def _check_count(n: int) -> int:
    n = int(n)
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    if n > MAX_POINTS:
        raise ResourceLimitError(f"sample size {n} exceeds the limit {MAX_POINTS}")
    return n


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
    rng = np.random.default_rng(spec.seed)
    fam = spec.family
    p = dict(spec.params)
    label = spec.describe()
    if fam == "sphere":
        n_dim, n = _require(p, fam, "n_dim", "n")
        n = _check_count(n)
        if int(n_dim) < 1:
            raise InputError(f"sphere dimension must be >= 1, got {n_dim}")
        pts = rng.standard_normal((n, int(n_dim) + 1))
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if np.any(norms == 0):  # pragma: no cover - probability zero
            raise InvariantViolation("degenerate zero-norm Gaussian draw")
        return from_points(pts / norms, metric="euclidean", label=label)
    if fam == "hamming_cube":
        (d,) = _require(p, fam, "d")
        d = int(d)
        if d < 1:
            raise InputError(f"cube dimension must be >= 1, got {d}")
        if d > MAX_CUBE_DIM:
            raise ResourceLimitError(
                f"hamming_cube requires d <= {MAX_CUBE_DIM} (2**d points); got d={d}"
            )
        codes = np.arange(2**d, dtype=np.int64)
        bits = (codes[:, None] >> np.arange(d)[None, :]) & 1
        return from_points(bits.astype(float), metric="normalized_hamming", label=label)
    if fam == "hamming_sample":
        d, n = _require(p, fam, "d", "n")
        n = _check_count(n)
        bits = rng.integers(0, 2, size=(n, int(d)))
        return from_points(bits.astype(float), metric="normalized_hamming", label=label)
    if fam == "gaussian_cloud":
        d, sigma, n = _require(p, fam, "d", "sigma", "n")
        n = _check_count(n)
        pts = rng.normal(0.0, float(sigma), size=(n, int(d)))
        return from_points(pts, metric="euclidean", label=label)
    if fam == "noisy_embedding":
        base, ambient_d, sigma, n = _require(p, fam, "base", "ambient_d", "sigma", "n")
        n = _check_count(n)
        if not isinstance(base, MMSpace) or base.coords is None:
            raise InputError("noisy_embedding requires a coordinate-backed base space")
        ambient_d = int(ambient_d)
        bd = base.coords.shape[1]
        if ambient_d < bd:
            raise InputError(
                f"ambient dimension {ambient_d} smaller than base dimension {bd}"
            )
        idx = rng.choice(base.n, size=n, p=base.weights)
        pts = np.zeros((n, ambient_d))
        pts[:, :bd] = base.coords[idx]
        pts += rng.normal(0.0, float(sigma), size=(n, ambient_d))
        return from_points(pts, metric="euclidean", label=label)
    raise InputError(f"unknown generator family {fam!r}")


# -- size statistics ---------------------------------------------------------------


def diameter(space: MMSpace) -> float:
    """Largest pairwise distance; 0 for a singleton."""
    if space._diameter_cache is None:
        if space.is_dense or space.n <= AUTO_DENSE:
            d = float(space.dist.max())
        else:
            d = max(float(blk.max()) for _, blk in space.iter_blocks())
        space._diameter_cache = d
    return space._diameter_cache


def weighted_median(values, weights, which: str = "lower") -> float:
    """Weighted median of a finite distribution.

    ``lower``: smallest value whose cumulative mass reaches 1/2;
    ``upper``: smallest value whose cumulative mass strictly exceeds 1/2.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    v = values[order]
    cw = np.cumsum(weights[order])
    half = 0.5 * cw[-1]
    if which == "lower":
        k = int(np.searchsorted(cw, half - 1e-12, side="left"))
    elif which == "upper":
        k = int(np.searchsorted(cw, half + 1e-12, side="right"))
    else:
        raise InputError(f"which must be 'lower' or 'upper', got {which!r}")
    return float(v[min(k, len(v) - 1)])


def _uniform_pair_order_stat(space: MMSpace, k: int) -> float:
    """k-th smallest (1-indexed) of the n**2 ordered pairwise distances."""
    n = space.n
    if space.is_dense or n <= AUTO_DENSE:
        flat = space.dist.ravel()
        return float(np.partition(flat, k - 1)[k - 1])
    # histogram refinement over row blocks; exact selection without
    # materializing the n**2 values
    lo, hi = 0.0, diameter(space) + 1e-12

    def blocks():
        for _, blk in space.iter_blocks():
            yield blk.ravel()

    for _ in range(64):
        nbins = 4096
        edges = np.linspace(lo, hi, nbins + 1)
        counts = np.zeros(nbins, dtype=np.int64)
        below = 0
        for blk in blocks():
            below += int((blk < lo).sum())
            inside = blk[(blk >= lo) & (blk <= hi)]
            counts += np.histogram(inside, bins=edges)[0]
        target = k - below
        cum = np.cumsum(counts)
        b = int(np.searchsorted(cum, target, side="left"))
        if b >= nbins:
            return float(hi)
        blo, bhi = edges[b], edges[b + 1]
        in_bin = int(counts[b])
        before = int(cum[b - 1]) if b > 0 else 0
        if in_bin <= (1 << 21):
            vals = np.concatenate([
                blk[(blk >= blo) & (blk <= bhi)] for blk in blocks()
            ])
            vals.sort()
            return float(vals[target - before - 1])
        # heavily tied bin: select among its distinct values exactly
        uniq: dict[float, int] = {}
        for blk in blocks():
            vs, cs = np.unique(blk[(blk >= blo) & (blk <= bhi)], return_counts=True)
            for v, c in zip(vs.tolist(), cs.tolist()):
                uniq[v] = uniq.get(v, 0) + c
            if len(uniq) > 65536:
                break
        if len(uniq) <= 65536:
            run = before
            for v in sorted(uniq):
                run += uniq[v]
                if run >= target:
                    return float(v)
        lo, hi = blo, bhi
    raise InvariantViolation("pair order-statistic refinement did not converge")


def _pair_median(space: MMSpace, which: str) -> float:
    n = space.n
    uniform = bool(np.all(space.weights == space.weights[0]))
    if uniform:
        total = n * n
        k = (total + 1) // 2 if which == "lower" else total // 2 + 1
        return _uniform_pair_order_stat(space, k)
    flat = space.dist.ravel()
    w = np.multiply.outer(space.weights, space.weights).ravel()
    return weighted_median(flat, w, which=which)


def char_size(space: MMSpace) -> float:
    """Characteristic size: the weighted median pairwise distance.

    Uses the product measure over ordered pairs (diagonal included) and
    the lower-median convention; see :func:`char_size_interval` for both
    median variants.
    """
    return _pair_median(space, "lower")


def char_size_interval(space: MMSpace) -> tuple[float, float]:
    """(lower median, upper median) of the pairwise-distance distribution."""
    return _pair_median(space, "lower"), _pair_median(space, "upper")


def product_distance_moments(space: MMSpace, include_diagonal: bool = True
                             ) -> tuple[float, float]:
    """Mean and variance of the distance under the product measure.

    With ``include_diagonal=False`` the measure is conditioned on distinct
    index pairs (renormalized by ``1 - sum(w_i**2)``).
    """
    w = space.weights
    if space.is_dense or space.n <= AUTO_DENSE:
        d = space.dist
        m1 = float(w @ d @ w)
        m2 = float(w @ (d * d) @ w)
    else:
        m1 = m2 = 0.0
        for ids, blk in space.iter_blocks():
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


def _read_csv_rows(path) -> tuple[list[str] | None, list[list[float]]]:
    import csv

    rows: list[list[float]] = []
    header: list[str] | None = None
    with open(path, newline="") as fh:
        for lineno, rec in enumerate(csv.reader(fh), start=1):
            rec = [c.strip() for c in rec if c.strip() != ""]
            if not rec:
                continue
            if header is None and rows == []:
                try:
                    rows.append([float(c) for c in rec])
                    continue
                except ValueError:
                    header = rec
                    continue
            try:
                rows.append([float(c) for c in rec])
            except ValueError as exc:
                raise InputError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputError(f"{path}: ragged rows (widths {sorted(widths)})")
    return header, rows


def _split_weight_column(header, data: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    if header is not None and "weight" in header:
        wi = header.index("weight")
        w = data[:, wi]
        data = np.delete(data, wi, axis=1)
        total = w.sum()
        if total <= 0:
            raise InputError("weight column must have positive total mass")
        return data, w / total
    return data, None


def load_points_csv(path, metric: str = "euclidean", label: str | None = None) -> MMSpace:
    """Read a point cloud from CSV: one row per point, optional header.

    A column named ``weight`` is used (normalized) as the measure; all
    other columns are coordinates.  Parsing is locale-independent with
    ``.`` as the decimal separator.
    """
    header, rows = _read_csv_rows(path)
    data = np.asarray(rows, dtype=float)
    data, w = _split_weight_column(header, data)
    return from_points(data, weights=w, metric=metric, label=label or str(path))


def load_distance_csv(path, label: str | None = None) -> MMSpace:
    """Read a distance matrix from CSV: n rows of n floats, optional header.

    With a header, a ``weight`` column supplies the (normalized) measure.
    """
    header, rows = _read_csv_rows(path)
    data = np.asarray(rows, dtype=float)
    data, w = _split_weight_column(header, data)
    if data.shape[0] != data.shape[1]:
        raise InputError(
            f"{path}: distance matrix must be square, got {data.shape[0]} rows "
            f"of {data.shape[1]} values"
        )
    return from_distance_matrix(data, weights=w, label=label or str(path))
