"""1-Lipschitz features on a finite metric measure space.

A feature is a real-valued function on the points, stored together with a
certified Lipschitz constant (the exact maximum of ``|f(x)-f(y)|/d(x,y)``
over pairs at positive distance) and its sup norm.  Finite dictionaries of
features stand in for the full non-expanding function class when estimating
observable diameters and concentration profiles; estimates built on them
are one-sided and can only under-report suprema taken over all
non-expanding functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .mmspace import MMSpace, weighted_median

#: slack admitted when asserting that a certified constant is at most 1.
LIPSCHITZ_TOL = 1e-12

#: spaces at most this large are certified by the exhaustive pair scan;
#: larger ones use the closed-form constants proved in the builders.
_EXHAUSTIVE_CERT_LIMIT = 2048


@dataclass(frozen=True)
class Feature:
    """Real values on the points with a certified Lipschitz constant.

    ``lipschitz_bound`` is the exact maximum ratio ``|f(x)-f(y)|/d(x,y)``
    over pairs at positive distance (0 on a singleton); ``sup_norm`` is
    ``max|f|``.
    """

    values: np.ndarray
    lipschitz_bound: float
    sup_norm: float
    name: str = ""

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
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


def _certify_distance_combination(space: MMSpace, values: np.ndarray,
                                  name: str) -> Feature:
    """Build a feature whose exact constant is known analytically.

    Used for min-distance and half-difference features: the triangle
    inequality caps the ratio at 1 and the bound is attained at an
    (anchor, point) pair, so the exact constant is 1 whenever the values
    are not all equal and 0 otherwise.  Small spaces are certified by the
    exhaustive scan instead so both paths stay observable in tests.
    """
    if space.n <= _EXHAUSTIVE_CERT_LIMIT:
        got = check_lipschitz(space, values, name)
        if isinstance(got, LipschitzViolation):  # pragma: no cover - safety net
            raise InputError(str(got))
        return got
    bound = 1.0 if float(values.max() - values.min()) > 0.0 else 0.0
    return Feature(values, bound, float(np.abs(values).max()), name)


def distance_feature(space: MMSpace, anchor_set) -> Feature:
    """The distance-to-a-set feature ``x -> min_{a in A} d(x, a)``.

    Non-expanding with certified constant at most 1 (exactly 1 unless the
    anchors cover every point at distance zero).
    """
    ids = np.unique(np.asarray(list(anchor_set), dtype=int))
    if ids.size == 0:
        raise InputError("anchor set must be nonempty")
    if ids.min() < 0 or ids.max() >= space.n:
        raise InputError(f"anchor ids out of range for n={space.n}")
    values = space.min_dist_to(ids)
    name = f"dist_to_{{{','.join(map(str, ids.tolist()))}}}" if ids.size <= 4 \
        else f"dist_to_set(|A|={ids.size})"
    return _certify_distance_combination(space, values, name)


def _centered(space: MMSpace, feat: Feature) -> Feature:
    """Shift so the midpoint of the lower/upper weighted medians is zero.

    Keeps the sup norm within the diameter while leaving all pairwise value
    differences (hence Lipschitz constants and observable-diameter
    estimates) untouched.
    """
    lo = weighted_median(feat.values, space.weights, "lower")
    hi = weighted_median(feat.values, space.weights, "upper")
    return feat.shifted(-(lo + hi) / 2.0)


def dictionary(space: MMSpace, kind: str, k: int | None = None,
               seed: int | None = None) -> list[Feature]:
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

    All features are shifted to put the midpoint of their weighted medians
    at zero, so sup norms stay within the diameter.
    """
    if kind == "anchors_all":
        anchors = np.arange(space.n)
    elif kind == "anchors_random":
        if k is None or k < 1:
            raise InputError("anchors_random requires k >= 1")
        rng = np.random.default_rng(seed)
        anchors = rng.choice(space.n, size=min(k, space.n), replace=False)
    elif kind == "halfspace_differences":
        if k is None or k < 1:
            raise InputError("halfspace_differences requires k >= 1")
        rng = np.random.default_rng(seed)
        feats = []
        for _ in range(k):
            p, q = rng.choice(space.n, size=2, replace=space.n < 2)
            row_p = space.dist_row(int(p))
            row_q = space.dist_row(int(q))
            feat = _certify_distance_combination(
                space, (row_p - row_q) / 2.0, f"half_diff({int(p)},{int(q)})"
            )
            feats.append(_centered(space, feat))
        return feats
    else:
        raise InputError(
            "kind must be one of anchors_all, anchors_random, "
            f"halfspace_differences; got {kind!r}"
        )
    return [_centered(space, distance_feature(space, [int(a)])) for a in anchors]


def features_to_csv(features: list[Feature], path) -> None:
    """Write features as CSV columns keyed by point id."""
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        names = [f.name or f"f{i}" for i, f in enumerate(features)]
        w.writerow(["point_id", *names])
        for i in range(len(features[0].values)):
            w.writerow([i, *(repr(float(f.values[i])) for f in features)])
