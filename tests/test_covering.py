import itertools
import math

import numpy as np
import pytest

from concdim import covering, mmspace
from concdim.covering import (
    CoveringProfile,
    covering_profile,
    greedy_net,
    net_is_valid,
    sample_size_bound,
)
from concdim.errors import InputError
from concdim.mmspace import GeneratorSpec, from_points, generate

from util import forbid_point_reads, random_space


def exact_covering_number(space, u: float) -> int:
    """Smallest number of open u-balls covering the space (set cover)."""
    n = space.n
    balls = [frozenset(np.flatnonzero(space.dist[i] < u)) for i in range(n)]
    for k in range(1, n + 1):
        for centers in itertools.combinations(range(n), k):
            if len(frozenset().union(*(balls[c] for c in centers))) == n:
                return k
    raise AssertionError("full point set always covers")


def test_singleton_net():
    s = from_points([[0.0]])
    assert greedy_net(s, 0.5).tolist() == [0]


def test_two_point_nets():
    s = from_points([[0.0], [1.0]])
    assert len(greedy_net(s, 0.5)) == 2
    assert len(greedy_net(s, 1.5)) == 1


def test_cube3_net_matches_exact_cover():
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 3}))
    ids = greedy_net(s, 0.34)
    assert len(ids) == exact_covering_number(s, 0.34)


def test_net_validity_and_packing():
    rng = np.random.default_rng(5)
    for _ in range(15):
        s = random_space(rng)
        u = float(rng.uniform(0.2, 1.2))
        ids = greedy_net(s, u)
        assert net_is_valid(s, ids, u)
        if len(ids) > 1:
            sub = s.dist[np.ix_(ids, ids)]
            off = sub[~np.eye(len(ids), dtype=bool)]
            assert off.min() >= u - 1e-12


def test_covering_profile_invariants():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_space(rng)
        grid = np.linspace(0.1, 1.5, 8)
        prof = covering_profile(s, grid)
        assert np.all(prof.n_lower <= prof.n_upper)
        assert np.all(np.diff(prof.n_upper) <= 0)
        assert np.all(np.diff(prof.n_lower) <= 0)


def test_a_covering_profile_refuses_a_radius_that_is_not_finite():
    for grid in ([math.nan, 1.0], [0.1, math.inf], [math.nan]):
        with pytest.raises(InputError, match="finite"):
            CoveringProfile(grid, [2, 1][: len(grid)], [1, 1][: len(grid)])


@pytest.mark.parametrize("net, u, match", [
    ([], 0.5, "nonempty"),
    ([60], 0.5, "out of range"),
    ([-1], 0.5, "out of range"),
    ([2.5], 0.5, "integers"),
    ([0], 0.0, "positive"),
    ([0], -0.5, "positive"),
    ([0], float("nan"), "positive"),
])
def test_net_check_rejects_bad_nets_and_radii(net, u, match):
    s = from_points(np.random.default_rng(6).normal(size=(50, 2)))
    assert net_is_valid(s, np.arange(50), 1e-9) and not net_is_valid(s, [0], 1e-9)
    with pytest.raises(InputError, match=match):
        net_is_valid(s, net, u)


def test_covering_profile_matches_greedy_net_sizes():
    rng = np.random.default_rng(7)
    s = random_space(rng, n=12)
    grid = np.array([0.3, 0.6, 0.9])
    prof = covering_profile(s, grid)
    for u, n_up in zip(grid, prof.n_upper):
        assert n_up == len(greedy_net(s, float(u)))


def row_by_row_sweep(space, stop_radius):
    """The farthest-point sweep with one ``dist_row`` read per net point and
    eccentricities from every point's row."""
    order = [int(np.argmin([space.dist_row(i).max() for i in range(space.n)]))]
    radii = [math.inf]
    mind = space.dist_row(order[0]).copy()
    while (r := float(mind.max())) >= stop_radius and r > 0.0:
        order.append(int(np.argmax(mind)))
        radii.append(r)
        np.minimum(mind, space.dist_row(order[-1]), out=mind)
    return order, radii


@pytest.mark.parametrize("held", [True, False])
def test_sweep_reads_no_single_point_and_matches_the_row_by_row_loop(monkeypatch, held):
    if not held:
        monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    rng = np.random.default_rng(12)
    spaces = [from_points(rng.normal(size=(700, 3))), from_points(rng.normal(size=(700, 30))),
              # 8 bits: a few distinct distances, so ties at every step
              from_points(rng.integers(0, 2, size=(500, 8)).astype(float),
                          metric="normalized_hamming")]
    grid = np.array([0.25, 0.4, 0.6, 0.9, 1.5, 4.0])
    wants = [row_by_row_sweep(s, grid[0]) for s in spaces]
    forbid_point_reads(monkeypatch)
    for s, (order, radii) in zip(spaces, wants):
        assert len(order) > 50
        assert covering._farthest_point_sweep(s, grid[0]) == (order, radii)
        prof = covering_profile(s, grid)
        inserted = np.asarray(radii[1:])
        assert prof.n_upper.tolist() == [1 + int((inserted >= u).sum()) for u in grid]
        for u in grid[grid >= 0.4]:
            assert greedy_net(s, u).tolist() == order[: 1 + int((inserted >= u).sum())]
        assert s.is_dense == held


def curve_profile() -> CoveringProfile:
    # 1-D curve model: N(u) ~ 1/u on a fine grid
    grid = np.geomspace(1e-5, 2.0, 400)
    n_up = np.ceil(1.0 / grid).astype(np.int64)
    return CoveringProfile(grid, n_up, np.maximum(n_up // 2, 1))


def test_bound_monotone_in_eps_and_delta():
    prof = curve_profile()
    base = sample_size_bound(0.1, 1e-6, prof, 1.0)
    assert sample_size_bound(0.05, 1e-6, prof, 1.0) >= base
    assert sample_size_bound(0.1, 1e-9, prof, 1.0) >= base


def test_bound_monotone_in_profile():
    prof = curve_profile()
    bigger = CoveringProfile(prof.u_grid, prof.n_upper * 4, prof.n_lower)
    assert sample_size_bound(0.2, 0.5, bigger, 1.0) >= \
        sample_size_bound(0.2, 0.5, prof, 1.0)


def test_bound_doubling_scales_by_sqrt2():
    # with delta mild enough the integral term dominates, and doubling all
    # covering numbers scales the integrand by sqrt(2)
    prof = curve_profile()
    doubled = CoveringProfile(prof.u_grid, prof.n_upper * 2, prof.n_lower)
    a = sample_size_bound(0.2, 0.5, prof, 1.0)
    b = sample_size_bound(0.2, 0.5, doubled, 1.0)
    assert b / a == pytest.approx(math.sqrt(2), rel=2e-2)


def test_bound_curve_magnitude():
    # qualitative order only: the multiplicative constant is a caller input
    prof = curve_profile()
    n = sample_size_bound(0.1, 1e-6, prof, 1.0)
    assert 1e3 <= n <= 1e6


def test_bound_rejects_profile_gap():
    grid = np.geomspace(0.01, 2.0, 50)
    prof = CoveringProfile(grid, np.ceil(1 / grid).astype(np.int64),
                           np.ones(50, dtype=np.int64))
    with pytest.raises(InputError, match="radii down to"):
        sample_size_bound(0.1, 1e-6, prof, 1.0)


def test_bound_rejects_bad_inputs():
    prof = curve_profile()
    with pytest.raises(InputError):
        sample_size_bound(0.0, 0.5, prof, 1.0)
    with pytest.raises(InputError):
        sample_size_bound(0.1, 0.5, prof, 0.0)
    # an infinite C, or a finite one whose bound passes the largest float
    for C in (math.inf, math.nan, 1e308):
        with pytest.raises(InputError, match=r"C=.*eps=0\.2"):
            sample_size_bound(0.2, 0.01, prof, C)


def test_profile_csv_roundtrip(tmp_path):
    prof = curve_profile()
    path = tmp_path / "cover.csv"
    prof.to_csv(path)
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    re = CoveringProfile(rows[:, 0], rows[:, 1].astype(int), rows[:, 2].astype(int))
    assert np.array_equal(re.n_upper, prof.n_upper)
