"""1-Lipschitz features on a finite metric measure space.

A feature is a real-valued function on the points, stored together with a
certified Lipschitz constant (a bound on ``|f(x)-f(y)|/d(x,y)`` over pairs
at positive distance, see :class:`Feature`) and its sup norm.  Finite
dictionaries of features stand in for the full non-expanding function class
when estimating observable diameters and concentration profiles; estimates
built on them are one-sided and can only under-report suprema taken over
all non-expanding functions.  Dictionary features are not shifted: no such
estimate reads a constant, and the triangle inequality already keeps the
sup norm of a distance row or half-difference within the diameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ResourceLimitError
from .mmspace import MATERIALIZE_LIMIT, MMSpace, check_int

#: slack admitted when asserting that a certified constant is at most 1.
LIPSCHITZ_TOL = 1e-12


@dataclass(frozen=True)
class Feature:
    """Real values on the points with a certified Lipschitz constant.

    ``lipschitz_bound`` bounds the ratio ``|f(x)-f(y)|/d(x,y)`` over pairs
    at positive distance (0 on a singleton).  :func:`check_lipschitz`
    measures the maximum by a scan of every pair.  Distance-to-a-set
    features and half-differences of distance rows carry, with no scan,
    the closed form 1 (0 when the values are all equal) that the triangle
    inequality certifies, which is the maximum.
    ``sup_norm`` is ``max|f|``.
    """

    values: np.ndarray
    lipschitz_bound: float
    sup_norm: float
    name: str = ""

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        if not np.isfinite(v).all():
            raise InputError(f"feature {self.name!r} has non-finite values")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def shifted(self, offset: float, name: str | None = None) -> "Feature":
        """The feature plus a constant; Lipschitz constant unchanged."""
        v = self.values + offset
        return Feature(v, self.lipschitz_bound, float(np.abs(v).max()),
                       name if name is not None else self.name)


@dataclass(frozen=True)
class LipschitzViolation:
    """Report produced when values are not non-expanding: the worst pair."""

    ratio: float
    pair: tuple[int, int]

    def __str__(self) -> str:
        i, j = self.pair
        return f"Lipschitz violation: ratio {self.ratio} at pair ({i}, {j})"


def _exact_max_ratio(space: MMSpace, values: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Exhaustive max of |f(x)-f(y)|/d(x,y) over pairs with d > 0."""
    n = space.n
    if n == 1:
        return 0.0, (0, 0)
    best, pair = 0.0, (0, 0)
    for ids, blk in space.iter_blocks():
        diffs = np.abs(values[ids][:, None] - values[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(blk > 0, diffs / blk, 0.0)
        k = int(np.argmax(ratios))
        r = float(ratios.ravel()[k])
        if r > best:
            best = r
            a, b = np.unravel_index(k, ratios.shape)
            pair = (int(ids[a]), int(b))
    return best, pair


def check_lipschitz(space: MMSpace, values, name: str = "") -> Feature | LipschitzViolation:
    """Certify values as non-expanding or report the maximizing pair.

    Always returns: a :class:`Feature` carrying the exact maximum ratio
    when it is at most ``1 + 1e-12``, otherwise a
    :class:`LipschitzViolation` naming the worst pair.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (space.n,):
        raise InputError(f"values must have shape ({space.n},), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise InputError("feature values must be finite")
    ratio, pair = _exact_max_ratio(space, values)
    if ratio > 1.0 + LIPSCHITZ_TOL:
        return LipschitzViolation(ratio, pair)
    return Feature(values, ratio, float(np.abs(values).max()), name)


def _certify_distance_combination(values: np.ndarray, name: str) -> Feature:
    """Build a feature whose exact constant is known analytically.

    Used for min-distance and half-difference features: the triangle
    inequality caps the ratio at 1 and the bound is attained at an
    (anchor, point) pair, so the exact constant is 1 whenever the values
    are not all equal and 0 otherwise.
    """
    bound = 1.0 if float(values.max() - values.min()) > 0.0 else 0.0
    return Feature(values, bound, float(np.abs(values).max()), name)


def distance_feature(space: MMSpace, anchor_set) -> Feature:
    """The distance-to-a-set feature ``x -> min_{a in A} d(x, a)``.

    Non-expanding with certified constant at most 1 (exactly 1 unless the
    anchors cover every point at distance zero).
    """
    ids = np.unique(space.check_ids(list(anchor_set), "anchor ids"))
    if ids.size == 0:
        raise InputError("anchor set must be nonempty")
    return _set_feature(ids, space.min_dist_to(ids))


def _set_feature(ids: np.ndarray, values: np.ndarray) -> Feature:
    """The distance feature of the sorted anchor ids `ids`, with `values`."""
    name = f"dist_to_{{{','.join(map(str, ids.tolist()))}}}" if ids.size <= 4 \
        else f"dist_to_set(|A|={ids.size})"
    return _certify_distance_combination(values, name)


def dictionary(space: MMSpace, kind: str, k: int | None = None,
               seed: int = 0) -> list[Feature]:
    """A finite family of certified non-expanding features.

    Kinds
    -----
    anchors_all
        one distance feature per singleton anchor (``n`` features).
    anchors_random
        ``k`` distance features at seeded random singleton anchors.
    halfspace_differences
        ``k`` features ``x -> (d(x,p) - d(x,q))/2`` over seeded random
        point pairs.

    The random kinds draw from ``numpy.random.default_rng(seed)``, seed 0
    by default as in ``sep_lower``, so a dictionary is a function of its
    arguments.

    Features are the rows and half-differences as read, with no shift:
    adding a constant changes no value difference, so no observable
    diameter or concentration estimate, and by the triangle inequality a
    distance feature takes values in ``[0, diam]`` and a half-difference
    in ``[-diam/2, diam/2]``, so sup norms stay within the diameter.  A
    dictionary of more than ``MATERIALIZE_LIMIT**2`` floats, the budget
    of a dense matrix, is a ResourceLimitError before any draw.  Each kind
    reads its rows in one :meth:`MMSpace.iter_rows` call (pairs: 2k rows,
    drawn first).
    """
    if kind == "anchors_all":
        k = space.n
    elif kind not in ("anchors_random", "halfspace_differences"):
        raise InputError("kind must be one of anchors_all, anchors_random, "
                         f"halfspace_differences; got {kind!r}")
    elif k is None or check_int(k, "k") < 1:
        raise InputError(f"{kind} requires k >= 1")
    elif kind == "anchors_random":
        k = min(k, space.n)
    if k * space.n > MATERIALIZE_LIMIT**2:  # k features of n floats
        raise ResourceLimitError(f"{kind} would hold {k} features of {space.n} floats, "
                                 f"more than MATERIALIZE_LIMIT**2 = {MATERIALIZE_LIMIT**2}")
    if kind == "anchors_all":
        ids = np.arange(space.n)
    else:
        rng = np.random.default_rng(check_int(seed, "seed", least=0))
        if kind == "anchors_random":
            ids = rng.choice(space.n, size=k, replace=False)
        else:  # the pairs (p, q), one after the other
            ids = np.ravel([rng.choice(space.n, size=2, replace=space.n < 2)
                            for _ in range(k)])
    rows = space.iter_rows(ids)
    if kind == "halfspace_differences":  # p's row copied: q's may start the next block
        return [_certify_distance_combination((row_p - row_q) / 2.0, f"half_diff({p},{q})")
                for (p, q), row_p, row_q in zip(ids.reshape(-1, 2).tolist(),
                                                map(np.copy, rows), rows)]
    return [_set_feature(ids[j : j + 1], row) for j, row in enumerate(rows)]
