"""Output checks made apart from concdim.

Nothing here imports concdim.  Each check recomputes what it needs from
the workload's inputs with NumPy/SciPy, or tests a property the method
must have, and returns a list of problems (empty when the output passes).
Distances are recomputed on paths of their own (blocked GEMM, direct
differences, KD-trees), so agreement is required within stated
tolerances, and ties closer than the tolerance are reported as slack
rather than as failures.
"""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

#: distance agreement demanded between concdim's and the checks' paths.
DIST_TOL = 1e-9
#: agreement demanded for masses and values computed from exact sums.
VALUE_TOL = 1e-12


# -- independent distance path --------------------------------------------------


def sq_dist_blocks(x: np.ndarray, rows: int = 1024):
    """Yield ``(i0, D2)`` with squared Euclidean distances of rows
    ``i0:i0+rows`` of `x` to every row, by ``|a|^2 + |b|^2 - 2 a.b``."""
    x = np.asarray(x, dtype=float)
    sq = np.einsum("ij,ij->i", x, x)
    for i0 in range(0, len(x), rows):
        blk = x[i0 : i0 + rows]
        d2 = sq[i0 : i0 + rows, None] + sq[None, :] - 2.0 * (blk @ x.T)
        np.maximum(d2, 0.0, out=d2)
        yield i0, d2


def pair_distances(x: np.ndarray) -> np.ndarray:
    """Full Euclidean distance matrix by direct differences (small inputs)."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))


def dist_to(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row of `x` to the point `a`."""
    return np.sqrt(((np.asarray(x, float) - np.asarray(a, float)) ** 2).sum(axis=1))


# -- noise_rows -----------------------------------------------------------------


def conflict_graph(x: np.ndarray, threshold: float):
    """Neighbour lists of pairs closer than `threshold`, plus the number of
    unordered pairs within ``DIST_TOL`` of it (ambiguous at float level)."""
    lo2 = (threshold - DIST_TOL) ** 2
    t2 = threshold * threshold
    hi2 = (threshold + DIST_TOL) ** 2
    nbrs = [[] for _ in range(len(x))]
    slack = 0
    for i0, d2 in sq_dist_blocks(x):
        rows, cols = np.nonzero(d2 < t2)
        for r, c in zip(rows.tolist(), cols.tolist()):
            if i0 + r != c:
                nbrs[i0 + r].append(c)
        near = (d2 >= lo2) & (d2 <= hi2)
        slack += int(near.sum())
    return nbrs, slack // 2


def greedy_replay(nbrs) -> int:
    """Size of the greedy separated subset: scan in index order, keep a
    point unless a kept point conflicts with it."""
    alive = np.ones(len(nbrs), dtype=bool)
    kept = 0
    for i, row in enumerate(nbrs):
        if alive[i]:
            kept += 1
            alive[row] = False
    return kept


def check_greedy_coverage(x, min_distance: float, coverage: float) -> list[str]:
    nbrs, slack = conflict_graph(x, min_distance)
    kept = greedy_replay(nbrs)
    reported = coverage * len(x)
    if abs(reported - kept) > slack + 1e-6:
        return [f"greedy coverage {coverage!r} keeps {reported:.1f} points; the "
                f"replay keeps {kept} (slack {slack} near-threshold pairs)"]
    return []


def check_dim_claim(dim: float, limit: float = 1.125) -> list[str]:
    if not dim <= limit:
        return [f"dim_separation {dim!r} exceeds the noise claim {limit}"]
    return []


def count_pairs(x, lo: float, hi: float) -> tuple[int, int]:
    """(#{d < lo}, #{d <= hi}) over the n^2 ordered pairs, diagonal included."""
    below = at_most = 0
    lo2, hi2 = max(lo, 0.0) ** 2, hi * hi
    for _, d2 in sq_dist_blocks(x):
        if lo > 0:
            below += int((d2 < lo2).sum())
        at_most += int((d2 <= hi2).sum())
    return below, at_most


def check_pair_order_stat(x, value: float, k: int) -> list[str]:
    """`value` is the k-th smallest of the n^2 ordered pair distances."""
    below, at_most = count_pairs(x, value - DIST_TOL, value + DIST_TOL)
    if not below < k <= at_most:
        return [f"char_size {value!r}: #{{d < c-tol}}={below}, "
                f"#{{d <= c+tol}}={at_most}, k={k}"]
    return []


# -- sphere_dense -----------------------------------------------------------------


def lower_median_pairs(x) -> tuple[float, np.ndarray]:
    """Lower median of the n^2 ordered pair distances, and the matrix."""
    n = len(x)
    d = np.empty((n, n))
    for i0, d2 in sq_dist_blocks(x):
        d[i0 : i0 + len(d2)] = np.sqrt(d2)
    np.fill_diagonal(d, 0.0)
    k = (n * n + 1) // 2
    return float(np.partition(d.ravel(), k - 1)[k - 1]), d


def check_sphere_char_size(value: float, median: float) -> list[str]:
    out = []
    if abs(value - median) > VALUE_TOL:
        out.append(f"char_size {value!r} differs from the pair lower median "
                   f"{median!r}")
    if not 0.95 * math.sqrt(2) <= value <= 1.05 * math.sqrt(2):
        out.append(f"char_size {value!r} not within 5% of sqrt(2)")
    return out


def check_chavez(value: float, dist: np.ndarray) -> list[str]:
    m1 = float(dist.mean())
    var = float((dist * dist).mean()) - m1 * m1
    want = m1 * m1 / (2.0 * var)
    if abs(value - want) > 1e-9 * want:
        return [f"dim_chavez {value!r} differs from m^2/(2 var) = {want!r}"]
    return []


_ANCHOR = re.compile(r"^dist_to_\{(\d+)\}$")


def anchor_ids(names) -> list[int]:
    """Anchor point ids from singleton distance-feature names."""
    ids = []
    for name in names:
        m = _ANCHOR.match(name)
        if m is None:
            raise ValueError(f"not a singleton distance feature: {name!r}")
        ids.append(int(m.group(1)))
    return ids


def _pairs_with_gap(v_sorted: np.ndarray, t: float, strict: bool) -> int:
    """Ordered pairs with |v_a - v_b| >= t (> t if strict), for t > 0."""
    side = "right" if strict else "left"
    idx = np.searchsorted(v_sorted, v_sorted + t, side=side)
    return 2 * int((len(v_sorted) - idx).sum())


def check_obs_diameter(x, anchors, kappa: float, value: float) -> list[str]:
    """`value` is the max over anchor features of the k-th largest ordered
    |f(x) - f(y)|, with k = ceil(kappa n^2): no feature has k gaps above it
    and some feature has k gaps at least it."""
    n = len(x)
    k = math.ceil(kappa * n * n)
    some_attains = False
    for a in anchors:
        v = np.sort(dist_to(x, x[a]))
        if _pairs_with_gap(v, value + DIST_TOL, strict=True) >= k:
            return [f"observable diameter {value!r}: anchor {a} has at least "
                    f"{k} gaps above it"]
        if _pairs_with_gap(v, max(value - DIST_TOL, 1e-300), strict=False) >= k:
            some_attains = True
    if not some_attains:
        return [f"observable diameter {value!r}: no anchor has {k} gaps at least it"]
    return []


def check_obs_ratio(o100: float, o25: float) -> list[str]:
    r = o100 / o25
    if not 0.35 <= r <= 0.65:
        return [f"observable-diameter ratio S^100/S^25 {r!r} outside [0.35, 0.65]"]
    return []


def half_mass_ball(x, center: int) -> np.ndarray:
    """Ids of the ceil(n/2) points nearest to `center`: the half-mass
    sublevel set of a distance feature under uniform weights."""
    d = dist_to(x, x[center])
    return np.argsort(d, kind="stable")[: math.ceil(len(x) / 2)]


def alpha_envelope(x, centers, grid, diam: float, shift: float) -> np.ndarray:
    """Monotone envelope of the witnesses' outside masses 1 - mu(A_eps),
    uniform weights, with neighbourhoods taken at ``eps + shift``."""
    n = len(x)
    grid = np.asarray(grid, dtype=float)
    best = np.zeros(grid.size)
    for c in centers:
        d_to_a, _ = cKDTree(x[half_mass_ball(x, c)]).query(x)
        inside = np.searchsorted(np.sort(d_to_a), grid + shift, side="right")
        np.maximum(best, 1.0 - inside / n, out=best)
    best = np.clip(best, 0.0, 0.5)
    best[(grid >= diam) & (grid > 0)] = 0.0
    best[0] = 0.5
    return np.minimum.accumulate(best)


def check_alpha_envelope(x, centers, grid, diam: float, alpha) -> list[str]:
    """The profile equals the witnesses' envelope, up to points within
    ``DIST_TOL`` of a grid radius."""
    alpha = np.asarray(alpha, dtype=float)
    hi = alpha_envelope(x, centers, grid, diam, -DIST_TOL)
    lo = alpha_envelope(x, centers, grid, diam, +DIST_TOL)
    bad = np.flatnonzero((alpha > hi + VALUE_TOL) | (alpha < lo - VALUE_TOL))
    if bad.size:
        j = int(bad[0])
        return [f"alpha_lower at eps={float(grid[j])!r} is {float(alpha[j])!r}; "
                f"the witnesses give [{float(lo[j])!r}, {float(hi[j])!r}] "
                f"({bad.size} grid points off)"]
    return []


def bracket_lower_end(grid, alpha, diam: float) -> float:
    """Half the least grid radius with alpha(eps) <= eps/2."""
    grid = np.asarray(grid, dtype=float)
    below = np.flatnonzero(np.asarray(alpha) <= grid / 2.0)
    return (float(grid[below[0]]) if below.size else float(diam)) / 2.0


def mean_nn_spacing(x) -> float:
    dist, _ = cKDTree(x).query(x, k=2)
    return float(dist[:, 1].mean())


def check_strictly_decreasing(values, what: str) -> list[str]:
    values = [float(v) for v in values]
    if not all(a > b for a, b in zip(values, values[1:])):
        return [f"{what} not strictly decreasing: {values}"]
    return []


def check_resolved(spacing: float, lo: float) -> list[str]:
    if not spacing <= lo / 2.0:
        return [f"mean nearest-neighbour spacing {spacing!r} exceeds half the "
                f"certified lower end {lo!r}"]
    return []


def check_net(x, u: float, net_ids) -> list[str]:
    """Open u-balls at the net cover every point; net points are pairwise
    at least u apart."""
    net_ids = np.asarray(net_ids, dtype=int)
    if net_ids.size == 0:
        return ["empty net"]
    out = []
    reach, _ = cKDTree(x[net_ids]).query(x)
    if float(reach.max()) >= u + DIST_TOL:
        out.append(f"a point lies {float(reach.max())!r} from the net, not "
                   f"strictly within u={u!r}")
    if net_ids.size > 1:
        gap, _ = cKDTree(x[net_ids]).query(x[net_ids], k=2)
        if float(gap[:, 1].min()) < u - DIST_TOL:
            out.append(f"net points {float(gap[:, 1].min())!r} apart, below u={u!r}")
    return out


def check_count(got: int, want: int, what: str) -> list[str]:
    return [] if got == want else [f"{what}: {got} vs {want}"]


# -- exact_small ------------------------------------------------------------------


def step_value(grid, values, at: float) -> float:
    """Right-continuous step lookup of a profile on its own grid."""
    idx = int(np.searchsorted(grid, at, side="right")) - 1
    return float(values[max(idx, 0)])


def check_below(lower, exact, what: str) -> list[str]:
    lower, exact = np.asarray(lower, float), np.asarray(exact, float)
    if lower.shape != exact.shape:
        return [f"{what}: grids differ in size ({lower.size} vs {exact.size})"]
    bad = np.flatnonzero(lower > exact + VALUE_TOL)
    if bad.size:
        j = int(bad[0])
        return [f"{what}: lower bound {float(lower[j])!r} above exact "
                f"{float(exact[j])!r} at grid index {j} ({bad.size} points)"]
    return []


def check_cross_inequalities(eps_grid, alpha, kappa_grid, sep, sep_at,
                             diam: float) -> list[str]:
    """Criterion 2: sep(alpha(eps)) >= eps and alpha(sep(kappa)) <= kappa.

    `sep_at(kappa)` evaluates the exact separation distance at any kappa.
    """
    out = []
    for eps, a in zip(eps_grid, alpha):
        s = sep_at(float(a)) if a > 0 else diam
        if s < float(eps) - DIST_TOL:
            out.append(f"sep(alpha({float(eps)!r})) = {s!r} < eps")
    for kappa, delta in zip(kappa_grid, sep):
        if delta > 0 and step_value(eps_grid, alpha, float(delta)) > kappa + DIST_TOL:
            out.append(f"alpha(sep({float(kappa)!r})) exceeds kappa")
    return out


def naive_alpha(dist, w, grid) -> np.ndarray:
    """Concentration profile by enumerating every subset of mass >= 1/2."""
    n = len(w)
    grid = np.asarray(grid, dtype=float)
    best = np.zeros(grid.size)
    for r in range(1, n + 1):
        for ids in itertools.combinations(range(n), r):
            ids = list(ids)
            if w[ids].sum() < 0.5 - VALUE_TOL:
                continue
            d_to_a = dist[:, ids].min(axis=1)
            outside = (w[None, :] * (d_to_a[None, :] > grid[:, None])).sum(axis=1)
            np.maximum(best, outside, out=best)
    best = np.minimum(best, 0.5)
    best[0] = 0.5
    return best


def naive_sep(dist, w, kappa_grid) -> np.ndarray:
    """Separation profile by enumerating every pair of disjoint sets."""
    n = len(w)
    side_masses, crosses = [], []
    for assign in itertools.product((0, 1, 2), repeat=n):
        a = [i for i, s in enumerate(assign) if s == 1]
        b = [i for i, s in enumerate(assign) if s == 2]
        if a and b and a[0] < b[0]:
            side_masses.append(min(w[a].sum(), w[b].sum()))
            crosses.append(dist[np.ix_(a, b)].min())
    side_masses, crosses = np.asarray(side_masses), np.asarray(crosses)
    out = np.zeros(len(kappa_grid))
    for j, kappa in enumerate(kappa_grid):
        ok = side_masses >= kappa - VALUE_TOL
        out[j] = crosses[ok].max() if ok.any() else 0.0
    return out


def check_equal(got, want, what: str, tol: float = VALUE_TOL) -> list[str]:
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape} vs {want.shape}"]
    bad = np.flatnonzero(np.abs(got - want) > tol)
    if bad.size:
        j = int(bad[0])
        return [f"{what}: {float(got[j])!r} vs naive {float(want[j])!r} at "
                f"index {j} ({bad.size} entries off)"]
    return []


def check_harper(d: int, knots, vals) -> list[str]:
    """At kappa = |B(r)|/2^d the cube's separation is (d - 2r)/d, r < d/2
    (Harper's vertex-isoperimetric theorem)."""
    knots, vals = np.asarray(knots, float), np.asarray(vals, float)
    out = []
    ball = 0
    for r in range((d + 1) // 2):
        ball += math.comb(d, r)
        kappa = ball / 2**d
        idx = int(np.searchsorted(knots, kappa, side="left"))
        got = float(vals[idx]) if idx < vals.size else 0.0
        if abs(got - (d - 2 * r) / d) > VALUE_TOL:
            out.append(f"d={d}, r={r}: sep({kappa!r}) = {got!r}, Harper gives "
                       f"{(d - 2 * r) / d!r}")
    return out


def check_emd(x, counts_mu, counts_nu, cost: float) -> list[str]:
    """With measures counts/K, the transport cost is 1/K times the optimal
    assignment between the K replicated source and target atoms."""
    k = int(np.sum(counts_mu))
    if k != int(np.sum(counts_nu)):
        raise ValueError("count vectors must share their total")
    src = np.repeat(np.arange(len(x)), counts_mu)
    dst = np.repeat(np.arange(len(x)), counts_nu)
    d = pair_distances(x)[np.ix_(src, dst)]
    r, c = linear_sum_assignment(d)
    want = float(d[r, c].sum()) / k
    if abs(cost - want) > DIST_TOL:
        return [f"emd cost {cost!r} differs from the assignment optimum {want!r}"]
    return []


def check_sampling_convergence(rows, summary: dict) -> list[str]:
    """The CSV's errors are |dim - cube dim|, the manifest's medians are
    their per-size medians, and the largest sample's median error is
    below the smallest sample's."""
    cube = float(summary["cube_dim_separation"])
    by_size: dict[int, list[float]] = {}
    out = []
    for row in rows:
        err = float(row["abs_error"])
        if abs(err - abs(float(row["dim_separation"]) - cube)) > VALUE_TOL:
            out.append(f"row {row}: abs_error is not |dim - {cube!r}|")
        by_size.setdefault(int(row["sample_size"]), []).append(err)
    sizes = sorted(by_size)
    medians = [float(np.median(by_size[s])) for s in sizes]
    out += check_equal(summary["median_abs_error_by_size"], medians,
                       "median errors by size")
    if not medians or not medians[-1] < medians[0]:
        out.append(f"median error at size {sizes[-1]} is not below size "
                   f"{sizes[0]}: {medians}")
    return out


# -- determinism across rounds ------------------------------------------------------


def same(a, b) -> bool:
    """Exact equality of nested outputs (arrays, numbers, containers)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.shape == b.shape and bool(np.array_equal(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(u, v) for u, v in zip(a, b))
    if hasattr(a, "__dataclass_fields__") and type(a) is type(b):
        return all(same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return type(a) is type(b) and a == b
