"""Shared test helpers: random instances, naive reference oracles, pass
and row counters, a guard against single-point reads and a fresh-process
runner for resource limits.

The oracles here deliberately reimplement the quantities with plain
itertools enumeration so the library's bitmask/DP paths are checked
against an independent computation.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from concdim.concentration import MASS_TOL
from concdim.mmspace import MMSpace, from_distance_matrix, from_points


def random_space(rng: np.random.Generator, n: int | None = None) -> MMSpace:
    """A small random metric space: points, or a metric random matrix.

    Matrix entries live in [0.5, 1.0], where the triangle inequality holds
    automatically; weights are uniform or random with every entry below
    one half.
    """
    if n is None:
        n = int(rng.integers(3, 13))
    if rng.random() < 0.5:
        weights = None
    else:
        w = rng.random(n) + 0.25
        w = w / w.sum()
        weights = w
    if rng.random() < 0.5:
        d = int(rng.integers(1, 4))
        return from_points(rng.random((n, d)), weights=weights)
    m = rng.uniform(0.5, 1.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    return from_distance_matrix(m, weights=weights)


def naive_alpha(space: MMSpace, eps: float) -> float:
    """Concentration function by direct enumeration of all subsets."""
    n = space.n
    w = space.weights
    d = space.dist
    best = 0.0
    for r in range(1, n + 1):
        for combo in itertools.combinations(range(n), r):
            ids = list(combo)
            if w[ids].sum() < 0.5 - 1e-12:
                continue
            d_to_a = d[:, ids].min(axis=1)
            best = max(best, float(w[d_to_a > eps].sum()))
    return min(best, 0.5)


def naive_sep(space: MMSpace, kappa: float) -> float:
    """Separation distance by enumerating all disjoint subset pairs."""
    n = space.n
    w = space.weights
    d = space.dist
    best = 0.0
    for assign in itertools.product((0, 1, 2), repeat=n):
        a = [i for i, s in enumerate(assign) if s == 1]
        b = [i for i, s in enumerate(assign) if s == 2]
        if not a or not b:
            continue
        if w[a].sum() < kappa - 1e-12 or w[b].sum() < kappa - 1e-12:
            continue
        best = max(best, float(d[np.ix_(a, b)].min()))
    return best


def row_by_row_growth_curve(space, i, j):
    """The greedy growth of ``_greedy_growth_curve``, one row read per step."""
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


def sorted_medians(values, weights, total: float) -> tuple[float, float]:
    """The lower and upper weighted medians of `values` by a full sort: the
    values of ranks ``(n+1)//2`` and ``n//2+1`` under equal weights, else
    the first values whose cumulative mass in sorted order reaches half of
    `total` less ``1e-12`` and passes it plus ``1e-12``."""
    values, weights = np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
    order = np.argsort(values, kind="stable")
    v = values[order]
    if np.all(weights == weights[0]):
        return float(v[(v.size + 1) // 2 - 1]), float(v[v.size // 2])
    cw, half = np.cumsum(weights[order]), 0.5 * total
    lower = int(np.searchsorted(cw, half - 1e-12, side="left"))
    upper = int(np.searchsorted(cw, half + 1e-12, side="right"))
    return float(v[min(lower, v.size - 1)]), float(v[min(upper, v.size - 1)])


def pair_table_medians(s: MMSpace) -> tuple[float, float]:
    """char_size_interval from the whole n**2 table of the distances `s`
    reads, by a full sort (:func:`sorted_medians`): no selection code of
    the package."""
    flat = np.concatenate([blk.ravel().copy() for _, blk in s.iter_blocks()])
    w = s.weights
    return sorted_medians(flat, np.multiply.outer(w, w).ravel(), float(w.sum()) ** 2)


def count_passes(monkeypatch) -> list:
    """Record the `upper` flag of every ``MMSpace.iter_blocks`` call
    without ids, a pass over every point, until the monkeypatch is
    undone."""
    passes = []
    inner = MMSpace.iter_blocks

    def iter_blocks(self, upper=False, ids=None):
        if ids is None:
            passes.append(upper)
        return inner(self, upper, ids)

    monkeypatch.setattr(MMSpace, "iter_blocks", iter_blocks)
    return passes


class RowCalls(list):
    """The point ids of each kernel call; ``entries`` counts the distances
    they asked for, rows times columns."""

    entries = 0


def count_rows(monkeypatch) -> RowCalls:
    """Record the point ids of every ``MMSpace._pairwise`` call, the rows
    it computes, and the entries it computes, until the monkeypatch is
    undone."""
    calls = RowCalls()
    inner = MMSpace._pairwise

    def pairwise(self, rows, cols=None, out=None):
        calls.append(np.array(rows))
        calls.entries += len(rows) * (self.n if cols is None else len(cols))
        return inner(self, rows, cols, out)

    monkeypatch.setattr(MMSpace, "_pairwise", pairwise)
    return calls


def forbid_point_reads(monkeypatch) -> None:
    """Make ``MMSpace.dist_row`` and ``MMSpace.distance`` raise until the
    monkeypatch is undone: loops over single points read through
    ``RowCache``."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("a single-point read through dist_row or distance")

    monkeypatch.setattr(MMSpace, "dist_row", refuse)
    monkeypatch.setattr(MMSpace, "distance", refuse)


_FRESH_CHILD = """
import json, re, sys, time
setup, call = json.loads(sys.argv[1])
scope = {}
exec(setup, scope)
t0 = time.perf_counter()
value = eval(call, scope)
wall_s = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    peak_kb = int(re.search(r"VmHWM:\\s+(\\d+)", fh.read()).group(1))
print(json.dumps([value, wall_s, peak_kb / 1024.0]))
"""


def run_fresh(setup: str, call: str):
    """Evaluate `call` in a fresh interpreter after executing `setup` there.

    Returns ``(value, wall_s, peak_rss_mb)``: the call's JSON-serializable
    value, its wall time alone (imports and `setup` excluded) and the
    child's peak resident set size in MB over its whole life.  A limit
    test asserts on the last two, which an in-process measurement would
    mix with whatever earlier tests left allocated.  The peak is the
    child's ``VmHWM`` (Linux): its ``ru_maxrss`` would not do, because
    Linux carries the peak of the spawning process, here the test runner,
    into it across ``exec``.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD, json.dumps([setup, call])],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    return tuple(json.loads(out.stdout.splitlines()[-1]))
