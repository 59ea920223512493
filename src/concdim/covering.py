"""Greedy nets, covering-number bounds, and the sampling-size formula.

A farthest-point-first sweep produces, in one pass, nested nets whose
sizes upper-bound the covering numbers ``N(u)`` (open balls) at every
radius; because the sweep keeps net points pairwise at least ``u`` apart,
the same sizes read at radius ``2u`` give packing-based lower bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .io import write_csv
from .mmspace import MMSpace, RowCache

#: nodes used by the quadrature inside sample_size_bound.
QUADRATURE_NODES = 200


@dataclass(frozen=True)
class CoveringProfile:
    """Covering-number bounds per radius: n_lower <= N(u) <= n_upper."""

    u_grid: np.ndarray
    n_upper: np.ndarray
    n_lower: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.u_grid, dtype=float)
        up = np.asarray(self.n_upper, dtype=np.int64)
        lo = np.asarray(self.n_lower, dtype=np.int64)
        if g.ndim != 1 or g.size == 0 or up.shape != g.shape or lo.shape != g.shape:
            raise InputError("u_grid, n_upper, n_lower must be matching 1-D arrays")
        if not np.isfinite(g).all() or np.any(np.diff(g) <= 0) or g[0] <= 0:
            raise InputError("u grid must be finite, positive and strictly ascending")
        if np.any(lo > up):
            raise InputError("n_lower must not exceed n_upper")
        if np.any(np.diff(up) > 0) or np.any(np.diff(lo) > 0):
            raise InputError("covering bounds must be non-increasing in u")
        for arr in (g, up, lo):
            arr.setflags(write=False)
        object.__setattr__(self, "u_grid", g)
        object.__setattr__(self, "n_upper", up)
        object.__setattr__(self, "n_lower", lo)

    def upper_at(self, radius: float) -> int:
        """Valid upper bound on N(radius) from the profile (monotonicity)."""
        idx = int(np.searchsorted(self.u_grid, radius, side="right")) - 1
        if idx < 0:
            raise InputError(
                f"profile does not cover radius {radius!r}: smallest grid "
                f"radius is {float(self.u_grid[0])!r}"
            )
        return int(self.n_upper[idx])

    def to_csv(self, path) -> None:
        write_csv(path, ["u", "n_upper", "n_lower"],
                  zip(self.u_grid, self.n_upper, self.n_lower))


def _eccentricities(space: MMSpace) -> np.ndarray:
    """Each point's largest distance, from one pass over the upper
    triangle: a block's rows take their maxima, and so do its columns, the
    rows of the points right of it (the matrix is exactly symmetric)."""
    ecc = np.zeros(space.n)
    for ids, blk in space.iter_blocks(upper=True):
        right, own = ecc[ids[0] :], ecc[ids[0] : ids[-1] + 1]
        np.maximum(right, blk.max(axis=0), out=right)
        np.maximum(own, blk.max(axis=1), out=own)
    return ecc


def _farthest_point_sweep(space: MMSpace, stop_radius: float
                          ) -> tuple[list[int], list[float]]:
    """Farthest-point-first order with insertion radii.

    Starts from the point of least eccentricity; each further point is the
    one farthest from the current net, recorded with the covering radius
    it removes.  Stops once every point is within `stop_radius`
    (exclusive) of the net.
    """
    start = int(np.argmin(_eccentricities(space)))
    order = [start]
    radii = [math.inf]
    rows = RowCache(space)
    mind = rows.take(start).copy()
    while True:
        r = float(mind.max())
        if r < stop_radius or r == 0.0:
            break
        x = int(np.argmax(mind))
        order.append(x)
        radii.append(r)
        np.minimum(mind, rows.take(x), out=mind)
    return order, radii


def greedy_net(space: MMSpace, u: float) -> np.ndarray:
    """Point ids of a farthest-point-first net at open-ball radius `u`.

    Every point lies strictly within `u` of some net point, so the net
    size upper-bounds ``N(u)``; net points are pairwise at least `u`
    apart, so the same set is a packing witness lower-bounding
    ``N(u/2)``.
    """
    if not (u > 0):
        raise InputError(f"radius must be positive, got {u!r}")
    order, _ = _farthest_point_sweep(space, u)
    return np.asarray(order, dtype=int)


def covering_profile(space: MMSpace, u_grid) -> CoveringProfile:
    """Net-size upper bounds and packing lower bounds on a radius grid.

    One farthest-point sweep serves all radii: ``n_upper(u)`` counts
    insertion radii at least ``u`` and ``n_lower(u)`` counts those at
    least ``2u`` (points pairwise ``>= 2u`` apart occupy distinct open
    u-balls).
    """
    grid = np.unique(np.asarray(u_grid, dtype=float))
    if grid.size == 0 or grid[0] <= 0 or not np.all(np.isfinite(grid)):
        raise InputError("u grid must be positive and finite")
    _, radii = _farthest_point_sweep(space, grid[0])
    radii_arr = np.asarray(radii[1:], dtype=float)  # start point has radius inf
    n_upper = np.array([1 + int((radii_arr >= u).sum()) for u in grid], dtype=np.int64)
    n_lower = np.array([1 + int((radii_arr >= 2 * u).sum()) for u in grid],
                       dtype=np.int64)
    return CoveringProfile(grid, n_upper, np.minimum(n_lower, n_upper))


def net_is_valid(space: MMSpace, net_ids, u: float) -> bool:
    """Exhaustive check that open u-balls at the net cover every point.

    The net must be a nonempty sequence of point ids in ``[0, n)`` and `u`
    positive, else InputError.
    """
    if not (u > 0):
        raise InputError(f"radius must be positive, got {u!r}")
    net = space.check_ids(net_ids, "net ids")
    if net.size == 0:
        raise InputError("net must be nonempty")
    return bool((space.min_dist_to(net) < u).all())


def sample_size_bound(eps: float, delta: float, profile: CoveringProfile,
                      C: float) -> int:
    """Sample size sufficient for sampling convergence in distance.

    Evaluates ``ceil((C / eps**4) * max(log(2/delta), Q))`` where ``Q`` is
    the quadrature of ``sqrt(N(u/4) * log(4/u + 1))`` over
    ``[eps**2 / 8, 4]`` (200 log-spaced nodes, trapezoid rule), with
    ``N`` read conservatively from the profile's upper bounds.  The
    multiplicative constant ``C`` is not determined by the theory and
    must be supplied by the caller.
    """
    if not (0 < eps < 1) or not (0 < delta < 1):
        raise InputError("eps and delta must lie in (0, 1)")
    if not (0 < C < math.inf):
        raise InputError(f"C must be positive and finite, got C={C!r} at eps={eps!r}")
    lo = eps * eps / 8.0
    if float(profile.u_grid[0]) > lo / 4.0:
        raise InputError(
            f"covering profile starts at radius {float(profile.u_grid[0])!r} "
            f"but the integration range needs radii down to {lo / 4.0!r}"
        )
    nodes = np.geomspace(lo, 4.0, QUADRATURE_NODES)
    integrand = np.array([
        math.sqrt(profile.upper_at(u / 4.0) * math.log(4.0 / u + 1.0))
        for u in nodes
    ])
    quad = float(np.trapezoid(integrand, nodes))
    bound = (C / eps**4) * max(math.log(2.0 / delta), quad)
    if not math.isfinite(bound):
        raise InputError(f"the sample-size bound at C={C!r}, eps={eps!r} "
                         "exceeds the largest float")
    return int(math.ceil(bound))
