import ast
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from concdim import concentration as conc, features, mmspace
from concdim.concentration import (
    DEFAULT_KAPPA_POINTS,
    MAX_ANALYTIC_CUBE_DIM,
    MAX_EPS_GRID,
    MAX_PROFILE_CUBE_DIM,
    MASS_TOL,
    ORACLE_LIMIT,
    ConcentrationProfile,
    SeparationProfile,
    _ball_sizes,
    _closure,
    _iterated_shadow,
    _minimal_half_subsets,
    alpha_exact,
    alpha_exact_profile,
    alpha_lower,
    default_kappa_grid,
    greedy_separated_subset,
    margin_error,
    observable_diameter,
    sep_exact,
    sep_exact_profile,
    sep_hamming_analytic,
    sep_hamming_profile,
    sep_lower,
    split_witness,
)
from concdim.covering import covering_profile
from concdim.errors import InputError, InvariantViolation, ResourceLimitError
from concdim.features import check_lipschitz, dictionary, distance_feature
from concdim.mmspace import (
    GeneratorSpec,
    diameter,
    from_distance_matrix,
    from_points,
    generate,
    weighted_median,
)

from util import (
    count_passes,
    count_rows,
    forbid_point_reads,
    naive_alpha,
    naive_sep,
    random_space,
    row_by_row_growth_curve,
    run_fresh,
)


def two_point():
    return from_points([[0.0], [1.0]])


def cube(d):
    return generate(GeneratorSpec("hamming_cube", 0, {"d": d}))


# -- alpha oracle -------------------------------------------------------------


def test_alpha_two_point_hand_values():
    s = two_point()
    assert alpha_exact(s, 0.5) == 0.5
    assert alpha_exact(s, 1.0) == 0.0
    assert alpha_exact(s, 2.0) == 0.0


def test_alpha_zero_convention():
    s = from_points([[0.0], [1.0], [2.0]])
    assert alpha_exact(s, 0.0) == 0.5


def test_alpha_beyond_diameter_is_zero():
    rng = np.random.default_rng(0)
    for _ in range(10):
        s = random_space(rng)
        assert alpha_exact(s, diameter(s)) == 0.0
        assert alpha_exact(s, 2 * diameter(s) + 1.0) == 0.0


def test_alpha_cube3_matches_enumeration_and_harper_ball():
    s = cube(3)
    val = alpha_exact(s, 1 / 3)
    assert val == naive_alpha(s, 1 / 3)
    # half cube = radius-1 ball; its 1/3-neighborhood is the radius-2 ball
    ball2 = (1 + 3 + 3) / 8
    assert val == pytest.approx(1 - ball2)


def test_alpha_exact_matches_naive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(12):
        s = random_space(rng, n=int(rng.integers(3, 9)))
        eps = float(rng.uniform(0, diameter(s)))
        assert alpha_exact(s, eps) == pytest.approx(naive_alpha(s, eps), abs=1e-12)


def _reference_minimal_half_subsets(weights):
    """The minimal half-mass subsets from three ``2**n`` tables: every
    subset's mass and least weight, each folded over the point bits in
    ascending order (`_subset_table`)."""
    masses = conc._subset_table(weights, 0.0, np.add)
    admissible = masses >= 0.5 - MASS_TOL
    still = (masses - conc._subset_table(weights, np.inf, np.minimum)) >= 0.5 - MASS_TOL
    return np.flatnonzero(admissible & ~still)


def _half_mass_weights(rng, n, kind):
    """Weights of `kind`: uniform; random; random with about a third
    zero; or dyadic, multiples of 2**-10 whose subset sums are exact, so
    many subsets have mass exactly 1/2."""
    if kind == "uniform":
        return np.full(n, 1.0 / n)
    if kind == "dyadic":
        return rng.multinomial(1 << 10, np.full(n, 1.0 / n)) / float(1 << 10)
    w = rng.random(n) + 0.1
    if kind == "zeros":
        w[rng.random(n) < 0.35] = 0.0
        w[int(rng.integers(n))] = 1.0
    return w / w.sum()


_WEIGHT_KINDS = ("uniform", "random", "zeros", "dyadic")


def test_minimal_half_subsets_equal_the_table_reference():
    rng = np.random.default_rng(31)
    for n in range(1, ORACLE_LIMIT + 1):
        for kind in _WEIGHT_KINDS:
            w = _half_mass_weights(rng, n, kind)
            got = _minimal_half_subsets(w)
            assert np.array_equal(got, _reference_minimal_half_subsets(w)), (n, kind)
    # a subset of mass exactly 1/2 is admissible; its supersets are not minimal
    w = np.array([0.25, 0.25, 0.5])
    assert _minimal_half_subsets(w).tolist() == [0b011, 0b100]


def test_minimal_half_subsets_in_many_chunks(monkeypatch):
    # a chunk holds BLOCK_ENTRIES // 32 masks, rounded down to a power of
    # two, and at least one: 1, 2 and 8 masks here
    rng = np.random.default_rng(32)
    cases = [(n, kind, _half_mass_weights(rng, n, kind))
             for n in range(1, 13) for kind in _WEIGHT_KINDS]
    for budget in (8, 64, 256):
        monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", budget)
        for n, kind, w in cases:
            got = _minimal_half_subsets(w)
            assert np.array_equal(got, _reference_minimal_half_subsets(w)), (n, kind, budget)


def _reference_alpha_exact(space, eps):
    """alpha_exact as one pass per point over the minimal half-mass
    subsets, adding the weight of each point outside the eps-neighborhood
    in point order: the reference for the common-far-set lookup."""
    if eps == 0.0:
        return 0.5
    subs = _reference_minimal_half_subsets(space.weights)
    powers = 1 << np.arange(space.n, dtype=np.int64)
    balls = (space.dist <= eps).astype(np.int64) @ powers  # balls[x]: {a : d(x, a) <= eps}
    outside = np.zeros(len(subs))
    for x in range(space.n):
        outside += space.weights[x] * ((subs & balls[x]) == 0)
    return float(min(max(outside.max(), 0.0), 0.5))


def test_alpha_exact_matches_the_per_point_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    cases = 0
    for n in range(1, 15):
        for kind in ("uniform", "random", "partly zero"):
            w = None
            if kind != "uniform":
                w = rng.random(n) + 0.25
                if kind == "partly zero":
                    w[rng.random(n) < 0.4] = 0.0
                    w[int(rng.integers(n))] = 1.0
                w = w / w.sum()
            # coordinates rounded to tenths: many tied distances
            s = from_points(np.round(rng.random((n, 2)), 1), weights=w)
            vals = np.unique(s.dist)
            grid = [*vals, *((vals[:-1] + vals[1:]) / 2.0), 2.0 * vals[-1] + 1.0]
            for eps in grid:
                want = _reference_alpha_exact(s, float(eps))
                assert repr(alpha_exact(s, float(eps))) == repr(want), (n, kind, eps)
                cases += 1
    assert cases > 1000


def test_alpha_exact_batches_keep_every_bit(monkeypatch):
    # a batch holds BLOCK_ENTRIES // 33 subsets: 1, 3 and 7 of them here
    rng = np.random.default_rng(24)
    cases = []
    for n in (5, 8, 10):
        for kind in _WEIGHT_KINDS:
            s = from_points(np.round(rng.random((n, 2)), 1),
                            weights=_half_mass_weights(rng, n, kind))
            vals = np.unique(s.dist)
            mids = (vals[:-1] + vals[1:]) / 2.0
            for eps in (*vals[1 :: max(1, vals.size // 5)], *mids[:: max(1, mids.size // 3)]):
                cases.append((s, float(eps), _reference_alpha_exact(s, float(eps))))
    for batch in (1, 3, 7):
        monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 33 * batch)
        for s, eps, want in cases:
            assert repr(alpha_exact(s, eps)) == repr(want), (s.n, eps, batch)


def test_alpha_oracles_hold_no_mask_tables():
    # at 20 points a 2**n table of floats is 8 MiB.  The oracles hold a
    # chunk's arrays, then a batch's buffers, BLOCK_ENTRIES bytes each,
    # and the mask list, twice while its chunks are joined
    import tracemalloc

    s = from_points(np.random.default_rng(25).normal(size=(20, 3)))
    s.dist
    masks = _minimal_half_subsets(s.weights)
    bound = 2 * mmspace.BLOCK_ENTRIES + 2 * masks.nbytes
    assert bound < 8 << 20
    eps = float(np.median(s.dist))
    for call in (lambda: alpha_exact_profile(s), lambda: alpha_exact(s, eps)):
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= bound, peak


def test_alpha_profile_matches_pointwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(6):
        s = random_space(rng, n=7)
        prof = alpha_exact_profile(s)
        for eps, val in zip(prof.eps_grid[1:], prof.alpha[1:]):
            assert val == pytest.approx(naive_alpha(s, float(eps)), abs=1e-12)


def _weighted_space(rng, n):
    w = rng.random(n) + 0.25
    return from_points(rng.random((n, 2)), weights=w / w.sum())


def _caller_grid(rng, s):
    """Realized distances, midpoints between them and random interior values."""
    vals = np.unique(s.dist)
    mids = (vals[:-1] + vals[1:]) / 2.0
    return np.concatenate([vals[1::2], mids[::2], rng.uniform(0, diameter(s), 5)])


def test_alpha_profile_matches_naive_on_weighted_and_caller_grids():
    rng = np.random.default_rng(11)
    for _ in range(10):
        s = _weighted_space(rng, int(rng.integers(3, 10)))
        for grid in (None, _caller_grid(rng, s)):
            prof = alpha_exact_profile(s, grid)
            for eps, val in zip(prof.eps_grid[1:], prof.alpha[1:]):
                assert val == pytest.approx(naive_alpha(s, float(eps)), abs=1e-12)


def test_alpha_profile_rejects_grid_beyond_diameter():
    s = _weighted_space(np.random.default_rng(12), 6)
    with pytest.raises(InputError, match="diameter"):
        alpha_exact_profile(s, [0.1, 1.5 * diameter(s)])


def test_oracle_profiles_check_the_grid_before_enumerating(monkeypatch):
    def enumerate_subsets(*args):
        raise AssertionError("enumerated before the grid was checked")

    monkeypatch.setattr(conc, "_minimal_half_subsets", enumerate_subsets)
    monkeypatch.setattr(conc, "_threshold_kappa", enumerate_subsets)
    s = _weighted_space(np.random.default_rng(12), 6)
    for grid in ([0.1, 1.5 * diameter(s)], [-0.1, 0.1]):
        with pytest.raises(InputError, match="eps grid"):
            alpha_exact_profile(s, grid)
    for grid in ([0.0, 0.25], [0.25, 0.6], [0.3, 0.2], []):
        with pytest.raises(InputError, match="kappa grid"):
            sep_exact_profile(s, grid)


def test_witness_bounds_check_the_grid_before_witness_work(monkeypatch):
    def witness_work(*args):
        raise AssertionError("witness work before the grid was checked")

    monkeypatch.setattr(mmspace.MMSpace, "iter_set_distances", witness_work)
    monkeypatch.setattr(conc, "_greedy_growth_curve", witness_work)
    s = generate(GeneratorSpec("sphere", 3, {"n_dim": 30, "n": 300}))
    for grid in ([0.1, 1.5 * diameter(s)], [-0.1, 0.1]):
        with pytest.raises(InputError, match="eps grid"):
            alpha_lower(s, grid)
    for grid in ([0.0, 0.25], [0.25, 0.6], [0.3, 0.2], []):
        with pytest.raises(InputError, match="kappa grid"):
            sep_lower(s, grid)


def test_alpha_profile_batches_split_subset_list(monkeypatch):
    rng = np.random.default_rng(13)
    for n in (8, 9):
        s = _weighted_space(rng, n)
        grid = _caller_grid(rng, s)
        want = alpha_exact_profile(s, grid)
        n_subsets = _minimal_half_subsets(s.weights).size
        per_mask = 25 * n + 15  # the profile's batch bytes per mask
        for batch in (1, 3, n_subsets - 1):
            assert 1 <= batch < n_subsets
            monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", batch * per_mask)
            got = alpha_exact_profile(s, grid)
            assert got.alpha.tobytes() == want.alpha.tobytes()
        monkeypatch.undo()
        for eps, val in zip(want.eps_grid[1:], want.alpha[1:]):
            assert val == pytest.approx(naive_alpha(s, float(eps)), abs=1e-12)


def _reference_alpha_profile(space, eps_grid=None):
    """The profile as computed before the per-set rank tables: a pass per
    member over every batch of masks, a ``bincount`` of each mask's weights
    over (mask, grid rank) and a ``cumsum`` over the grid."""
    diam = diameter(space)
    extra = space.dist if eps_grid is None else np.asarray(eps_grid, dtype=float)
    grid = np.unique(np.concatenate([[0.0, diam], extra.ravel()]))
    subs = _reference_minimal_half_subsets(space.weights)
    n, g = space.n, grid.size
    rank = np.searchsorted(grid, space.dist, side="left")
    batch = max(1, mmspace.BLOCK_ENTRIES // (n + 2 * g))
    inside = np.ones(g)
    for start in range(0, subs.size, batch):
        masks = subs[start : start + batch]
        member = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
        idx = np.full((masks.size, n), g)
        for a in range(n):
            np.minimum(idx, np.where(member[:, a, None], rank[:, a], g), out=idx)
        idx += np.arange(masks.size)[:, None] * (g + 1)
        bucket = np.bincount(idx.ravel(), weights=np.tile(space.weights, masks.size),
                             minlength=masks.size * (g + 1))
        np.minimum(inside, bucket.reshape(masks.size, g + 1)[:, :-1].cumsum(axis=1)
                   .min(axis=0), out=inside)
    best = np.minimum(np.maximum(1.0 - inside, 0.0), 0.5)
    best[(grid >= diam) & (grid > 0)] = 0.0
    best[0] = 0.5
    return grid, np.minimum.accumulate(best)


def _table_space(rng, n, weights, rounded):
    x = rng.normal(size=(n, 2))
    w = None
    if weights != "uniform":
        w = rng.random(n) + 0.1
        if weights == "zeros":
            w[rng.permutation(n)[: n // 3]] = 0.0
    return from_points(np.round(x, 1) if rounded else x,
                       weights=None if w is None else w / w.sum())


def test_alpha_profile_equals_the_bincount_reference_bit_for_bit():
    # rounded coordinates tie distances, so level runs hold several points
    rng = np.random.default_rng(21)
    for n in range(1, 19):
        for weights in ("uniform", "random", "zeros"):
            for rounded in (False, True):
                s = _table_space(rng, n, weights, rounded)
                grids = [None, np.sort(rng.uniform(0, diameter(s), 9))]
                if n > 1:
                    grids.append(_caller_grid(rng, s))
                for grid in grids:
                    want_grid, want = _reference_alpha_profile(s, grid)
                    got = alpha_exact_profile(s, grid)
                    assert got.eps_grid.tobytes() == want_grid.tobytes(), (n, weights)
                    assert got.alpha.tobytes() == want.tobytes(), (n, weights, rounded)


def test_alpha_profile_on_a_caller_grid_of_1e5_points():
    # the profile reads each mask's sorted keys, not the grid: memory grows
    # with the grid by a few arrays of its length, and on any grid alpha is
    # the default profile's step function
    import tracemalloc

    s = from_points(np.random.default_rng(22).normal(size=(16, 3)))
    s.dist
    exact = alpha_exact_profile(s)
    peaks = []
    for size in (10**4, 10**5):
        grid = np.linspace(0.0, diameter(s), size)
        tracemalloc.start()
        got = alpha_exact_profile(s, grid)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        at = np.searchsorted(exact.eps_grid, got.eps_grid, side="right") - 1
        assert got.alpha.tobytes() == exact.alpha[at].tobytes()
    assert peaks[1] - peaks[0] <= 8 * 8 * (10**5 - 10**4)  # 8 floats per grid point


def test_alpha_profile_at_oracle_limit_matches_pointwise_oracle():
    # a 22-point profile enumerates C(22, 11) = 705432 minimal subsets: the
    # call below takes 0.53-0.58 s on 2 cores at 92 MB (the profile
    # 0.24-0.34 s of it), where the 2**n tables took 0.66-0.81 s at 180 MB,
    # a per-member pass over every batch 2.4 s and the per-subset loop
    # before it 17-21 s
    setup = f"""
import numpy as np
from concdim.concentration import alpha_exact, alpha_exact_profile
from concdim.mmspace import from_points
s = from_points(np.random.default_rng(5).normal(size=({ORACLE_LIMIT}, 3)))
s.dist
def profile_and_points():
    prof = alpha_exact_profile(s)
    idx = np.linspace(1, prof.eps_grid.size - 2, 5).astype(int)
    return [prof.alpha[idx].tolist(),
            [alpha_exact(s, float(prof.eps_grid[j])) for j in idx]]
"""
    (prof_vals, oracle_vals), wall_s, peak_rss_mb = run_fresh(setup, "profile_and_points()")
    assert any(0.0 < v < 0.5 for v in oracle_vals)
    assert prof_vals == pytest.approx(oracle_vals, abs=1e-12)
    assert wall_s < 10.0
    assert peak_rss_mb < 120.0


def test_alpha_oracle_size_limit():
    s = generate(GeneratorSpec("sphere", 0, {"n_dim": 2, "n": 23}))
    with pytest.raises(ResourceLimitError, match="alpha_lower"):
        alpha_exact(s, 0.5)


def test_alpha_profile_monotone_and_endpoints():
    rng = np.random.default_rng(2)
    for _ in range(8):
        s = random_space(rng)
        prof = alpha_exact_profile(s)
        assert prof.alpha[0] == 0.5
        assert prof.alpha[-1] == 0.0
        assert np.all(np.diff(prof.alpha) <= 1e-12)


def test_alpha_lower_singleton():
    s = from_points([[0.0]])
    prof = alpha_lower(s)
    assert prof.eps_grid.tolist() == [0.0]
    assert prof.alpha.tolist() == [0.5]


def test_alpha_lower_dominated_by_exact():
    rng = np.random.default_rng(3)
    for _ in range(20):
        s = random_space(rng)
        prof = alpha_lower(s)
        for eps, val in zip(prof.eps_grid, prof.alpha):
            assert val <= alpha_exact(s, float(eps)) + 1e-12


def _alpha_lower_two_loops(space, eps_grid=None, dictionary=None, ball_centers=None):
    """alpha_lower as one loop over the dictionary's sublevel sets and one
    over the balls, with a default branch each, evaluating every set
    wherever it occurs: the reference for the single loop."""
    diam = diameter(space)
    grid = conc.default_eps_grid(space) if eps_grid is None else np.unique(
        np.concatenate([[0.0, diam], np.asarray(eps_grid, dtype=float)]))
    if dictionary is None:
        if space.n <= 64:
            dictionary = features.dictionary(space, "anchors_all")
        else:
            dictionary = features.dictionary(space, "anchors_random", k=32, seed=0)
    if ball_centers is None:
        if space.n <= 64:
            ball_centers = np.arange(space.n)
        else:
            ball_centers = np.random.default_rng(0).choice(space.n, size=32,
                                                           replace=False)
    w = space.weights
    best = np.zeros(grid.size)
    for f in dictionary:
        med = weighted_median(f.values, w)
        ids = np.flatnonzero(f.values <= med)
        d_to_a = space.min_dist_to(ids)
        np.maximum(best, conc._witness_outside_profile(space, d_to_a, grid), out=best)
    for c in np.asarray(ball_centers, dtype=int):
        row = space.dist_row(int(c))
        radius = weighted_median(row, w)
        ids = np.flatnonzero(row <= radius)
        d_to_a = space.min_dist_to(ids)
        np.maximum(best, conc._witness_outside_profile(space, d_to_a, grid), out=best)
    best = np.minimum(np.maximum(best, 0.0), 0.5)
    best[(grid >= diam) & (grid > 0)] = 0.0
    best[0] = 0.5
    best = np.minimum.accumulate(best)
    return ConcentrationProfile(grid, best, "lower_bound", diam)


def _full_matrix_eps_grid(space):
    """default_eps_grid from every entry of the held matrix: the reference
    for the grid of spaces whose sample is every point."""
    vals = np.unique(space.dense())
    if vals.size > MAX_EPS_GRID:
        vals = np.quantile(vals, np.linspace(0.0, 1.0, MAX_EPS_GRID))
    return np.unique(np.concatenate([[0.0], vals, [diameter(space)]]))


def test_default_eps_grid_holds_every_distance_up_to_1024_points():
    rng = np.random.default_rng(21)
    spaces = [from_points(rng.normal(size=(n, d)))
              for n, d in ((20, 3), (400, 3), (300, 30), (1024, 3), (1024, 20))]
    for n in (20, 120):
        m = rng.uniform(0.5, 1.0, size=(n, n))
        m = (m + m.T) / 2.0 + 1e-12 * rng.random((n, n))  # symmetrized on input
        np.fill_diagonal(m, 0.0)
        spaces.append(from_distance_matrix(m))
    for s in spaces:
        assert s.dense() is not None
        assert conc.default_eps_grid(s).tobytes() == _full_matrix_eps_grid(s).tobytes()


@pytest.mark.parametrize("d", [3, 30])
def test_default_eps_grid_does_not_depend_on_the_held_matrix(monkeypatch, d):
    # above 1024 points the grid reads a 1024-point sample, held matrix or not
    x = np.random.default_rng(22).normal(size=(2000, d))
    held = conc.default_eps_grid(from_points(x))
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    s = from_points(x)
    assert conc.default_eps_grid(s).tobytes() == held.tobytes()
    assert not s.is_dense


def _count_witness_sets(monkeypatch):
    """Record the ids of every set of the masks passed to
    iter_set_distances."""
    sets = []
    inner = mmspace.MMSpace.iter_set_distances

    def iter_set_distances(self, masks):
        sets.extend(np.flatnonzero(mask).tobytes() for mask in masks)
        return inner(self, masks)

    monkeypatch.setattr(mmspace.MMSpace, "iter_set_distances", iter_set_distances)
    return sets


def test_alpha_lower_evaluates_each_witness_set_once(monkeypatch):
    # the reference's default features and balls share their 32 anchors,
    # and an anchor's feature and ball have the same sublevel set
    s = generate(GeneratorSpec("sphere", 0, {"n_dim": 2, "n": 3000}))
    sets = _count_witness_sets(monkeypatch)
    got = alpha_lower(s)
    assert len(sets) == len(set(sets)) == 32
    monkeypatch.undo()
    want = _alpha_lower_two_loops(s)
    assert got.eps_grid.tobytes() == want.eps_grid.tobytes()
    assert got.alpha.tobytes() == want.alpha.tobytes()


@pytest.mark.parametrize("held", [True, False])
def test_alpha_lower_matches_the_two_loop_reference(monkeypatch, held):
    if not held:
        monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    spaces = [
        generate(GeneratorSpec("sphere", 1, {"n_dim": 2, "n": 40})),
        generate(GeneratorSpec("gaussian_cloud", 2, {"d": 20, "sigma": 1.0, "n": 300})),
        # 12 bits: many tied distances, so medians fall on ties
        generate(GeneratorSpec("hamming_sample", 3, {"d": 12, "n": 200})),
    ]
    for s in spaces:
        grid = np.linspace(0.0, diameter(s), 33)
        feats = dictionary(s, "anchors_random", k=12, seed=4)
        overlapping = np.concatenate([np.random.default_rng(4).choice(
            s.n, size=12, replace=False)[:6], [0, 1, 2]])
        # without a dictionary the default anchors join the given centers,
        # where the reference evaluates the default features
        for kwargs in ({}, {"eps_grid": grid}, {"ball_centers": overlapping},
                       {"eps_grid": grid, "dictionary": feats},
                       {"eps_grid": grid, "dictionary": feats,
                        "ball_centers": overlapping}):
            got = alpha_lower(s, **kwargs)
            want = _alpha_lower_two_loops(s, **kwargs)
            assert got.eps_grid.tobytes() == want.eps_grid.tobytes()
            assert got.alpha.tobytes() == want.alpha.tobytes()
        assert s.is_dense == held


@pytest.mark.parametrize("centers", [[-1], [40], [1.5], [0, float("nan")], [[0]],
                                     [True, 1], [True, 1.0], [np.False_, 2]])
def test_alpha_lower_rejects_centers_that_are_not_point_ids(centers):
    s = generate(GeneratorSpec("sphere", 1, {"n_dim": 2, "n": 40}))
    with pytest.raises(InputError, match="ball centers"):
        alpha_lower(s, ball_centers=centers)
    # split_witness refuses the same ids
    with pytest.raises(InputError, match="subset ids"):
        split_witness(s, centers)


def test_alpha_lower_computes_each_row_at_most_once(monkeypatch):
    # the 32 default ball rows in one block, then each row of the witness
    # sets' union once; a call per set would compute about half the rows
    # for each of the 32 sets
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    s = generate(GeneratorSpec("gaussian_cloud", 5, {"d": 50, "sigma": 1.0, "n": 1000}))
    grid = np.linspace(0.0, diameter(s), 65)
    calls = count_rows(monkeypatch)
    got = alpha_lower(s, grid)
    rows = [len(ids) for ids in calls]
    assert not s.is_dense
    assert rows.count(32) == 1 and rows.count(1) == 0
    assert sum(rows) <= s.n + 32
    monkeypatch.undo()
    assert got.alpha.tobytes() == _alpha_lower_two_loops(s, grid).alpha.tobytes()


# -- profile reads ----------------------------------------------------------------


def _bound_at(grid, bounds, x):
    """The lower bound the command line read off a profile before profiles
    read themselves: the bound at the least grid point >= x, 0 beyond."""
    i = int(np.searchsorted(grid, x))
    return float(bounds[i]) if i < bounds.size else 0.0


def _probe_points(grid):
    """Points below, on, between and beyond the grid points."""
    mids = (grid[:-1] + grid[1:]) / 2.0
    return [grid[0] - 0.25, *grid, *mids, grid[-1] + 0.25, math.inf]


def _concentration_profiles():
    rng = np.random.default_rng(41)
    s = from_points(rng.normal(size=(9, 2)) * 0.3)
    yield alpha_exact_profile(s)
    yield alpha_lower(s)
    yield alpha_lower(s, np.linspace(0.0, diameter(s), 7))
    yield alpha_exact_profile(s, np.linspace(0.0, diameter(s), 7))
    for mode in ("exact", "lower_bound"):
        yield ConcentrationProfile([0.1, 0.4, 0.7, 1.3], [0.45, 0.3, 0.1, 0.0],
                                   mode, 1.5)


def test_profile_reads_match_the_former_command_line_read():
    for prof in _concentration_profiles():
        for eps in _probe_points(prof.eps_grid)[:-1]:
            assert prof.at(eps) == _bound_at(prof.eps_grid, prof.alpha, eps)
    s = from_points(np.random.default_rng(42).normal(size=(60, 3)))
    for prof in (sep_lower(s), sep_lower(s, [0.1, 0.2, 0.35, 0.5]),
                 sep_hamming_profile(5)):
        g = prof.kappa_grid
        for kappa in [*_probe_points(g)[1:-1], 0.5]:
            assert prof.at(kappa) == _bound_at(g, prof.sep, kappa - MASS_TOL)
        for j, k in enumerate(g):
            assert prof.at(k + 1e-13) == prof.at(k - 1e-13) == prof.sep[j]


#: metadata kind -> (type, CSV header, a valid grid and values on a space
#: of diameter 1, values that break the contract and the message they raise)
PROFILES = {
    "concentration_profile": (ConcentrationProfile, ("eps", "alpha"),
                              [0.0, 0.4, 0.9], [0.5, 0.2, 0.0], [
        ([0.5, 0.2, -0.1], "alpha values outside"),
        ([0.6, 0.2, 0.0], "alpha values outside"),
        ([0.5, 0.2, 0.3], "alpha must be non-increasing in eps"),
        ([0.4, 0.2, 0.0], r"alpha\(0\) must equal 1/2")]),
    "separation_profile": (SeparationProfile, ("kappa", "sep"),
                           [0.1, 0.3, 0.5], [0.9, 0.4, 0.0], [
        ([0.9, 0.4, -0.1], "sep values outside"),
        ([1.5, 0.4, 0.0], "sep values outside"),
        ([0.9, 0.4, 0.5], "sep must be non-increasing in kappa")]),
}


@pytest.mark.parametrize("kind", sorted(PROFILES))
def test_profiles_share_one_contract(tmp_path, kind):
    cls, header, grid, values, broken = PROFILES[kind]
    for g, v in (([], []), (grid, values[:2]), ([grid], [values]), (grid[::-1], values)):
        with pytest.raises(InputError):
            cls(g, v, "lower_bound", 1.0)
    for v, message in broken:
        with pytest.raises(InvariantViolation, match=message):
            cls(grid, v, "lower_bound", 1.0)
    prof = cls(grid, values, "lower_bound", 1.0)
    arrays = getattr(prof, f"{header[0]}_grid"), getattr(prof, header[1])
    for arr, want in zip(arrays, (grid, values)):
        assert arr.tolist() == want
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.25
    prof.to_csv(tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text().splitlines() == [
        ",".join(header), *(f"{g!r},{v!r}" for g, v in zip(grid, values))]
    assert prof.metadata() == {"kind": kind, "mode": "lower_bound", "step": prof.step,
                               "diameter": 1.0, "grid_size": 3}


def test_only_a_lower_bound_separation_profile_is_no_step_profile():
    """Both profile kinds read ``step`` off the mode and take no flag."""
    for cls, grid, values in ((SeparationProfile, [0.25, 0.5], [0.5, 0.25]),
                              (ConcentrationProfile, [0.0, 0.5], [0.5, 0.0])):
        for mode in ("exact", "analytic", "lower_bound"):
            prof = cls(grid, values, mode, 1.0)
            assert prof.step == prof.metadata()["step"] == (mode != "lower_bound")
        with pytest.raises(TypeError):
            cls(grid, values, "exact", 1.0, step=True)


def test_an_exact_alpha_profile_integrates_from_above_on_any_grid():
    """The left step rule on an exact profile does not change on a grid
    that adds points past the first jump (the default grid holds them all),
    and is at least that on any other grid."""
    rng = np.random.default_rng(5)
    for _ in range(30):
        s = random_space(rng)
        full = alpha_exact_profile(s)
        exact = full.integral()
        finer = np.union1d(full.eps_grid, (full.eps_grid[1:-1] + full.eps_grid[2:]) / 2)
        assert alpha_exact_profile(s, finer).integral() == pytest.approx(exact, abs=1e-12)
        for _ in range(4):
            sub = rng.choice(full.eps_grid, size=rng.integers(1, full.eps_grid.size + 1),
                             replace=False)
            coarse = alpha_exact_profile(s, sub)
            assert coarse.step and coarse.integral() >= exact - 1e-12


def test_one_point_profiles_integrate_to_zero_and_to_the_head():
    """On a one-point grid the alpha integral is 0.0 and the sep integral
    ``sep[0] * kappa[0]``, bit for bit, in every mode."""
    for mode in ("exact", "lower_bound"):
        for g, a in (([0.0], [0.5]), ([0.7], [0.3])):
            assert ConcentrationProfile(g, a, mode, 1.5).integral().hex() == (0.0).hex()
    assert alpha_exact_profile(from_points([[2.0]])).integral().hex() == (0.0).hex()
    for mode in ("exact", "lower_bound", "analytic"):
        for k, v in ((0.5, 0.9), (0.3, 1 / 3), (0.1, 0.0)):
            got = SeparationProfile([k], [v], mode, 1.0).integral()
            assert got.hex() == (v * k).hex()


# -- separation oracle --------------------------------------------------------


def test_sep_two_point_hand_values():
    s = two_point()
    assert sep_exact(s, 0.4) == 1.0
    assert sep_exact(s, 0.6) == 0.0


def test_sep_cube3_antipodal_singletons():
    assert sep_exact(cube(3), 1 / 8) == 1.0


def test_sep_exact_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for _ in range(12):
        s = random_space(rng, n=int(rng.integers(3, 8)))
        kappa = float(rng.uniform(0.05, 0.5))
        assert sep_exact(s, kappa) == pytest.approx(naive_sep(s, kappa), abs=1e-12)


def test_sep_oracle_size_limit():
    s = generate(GeneratorSpec("sphere", 0, {"n_dim": 2, "n": 23}))
    with pytest.raises(ResourceLimitError, match="sep_lower"):
        sep_exact(s, 0.25)


def test_sep_profile_monotone_and_bounded():
    rng = np.random.default_rng(8)
    for _ in range(8):
        s = random_space(rng)
        prof = sep_exact_profile(s)
        assert np.all(np.diff(prof.sep) <= 1e-12)
        assert prof.sep.max() <= diameter(s) + 1e-12


def _threshold_curve(space):
    """For each distinct positive distance t (ascending), the largest kappa
    admitting disjoint (A, B) with all cross distances >= t, by one subset
    DP per threshold: the full-curve reference for the bisection."""
    n = space.n
    dist = space.dist
    masses = conc._subset_table(space.weights, 0.0, np.add)
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
    return thresholds, kappas


def _sep_from_curve(curve, kappa):
    thresholds, kappas = curve
    ok = kappas >= kappa - MASS_TOL
    return float(thresholds[ok].max()) if ok.any() else 0.0


def _tied_space(rng, n):
    """Points on a 3 x 3 integer grid: few distinct distances, many ties."""
    return from_points(rng.integers(0, 3, size=(n, 2)).astype(float))


def _weighted_matrix_space(rng, n):
    m = rng.uniform(0.5, 1.0, size=(n, n))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    w = rng.random(n) + 0.25
    return from_distance_matrix(m, weights=w / w.sum())


def _bisection_spaces():
    rng = np.random.default_rng(17)
    spaces = [_weighted_space(rng, int(rng.integers(2, 15))) for _ in range(8)]
    spaces += [_tied_space(rng, int(rng.integers(2, 13))) for _ in range(6)]
    spaces += [cube(3), _weighted_matrix_space(rng, 9), _weighted_matrix_space(rng, 9),
               from_points(rng.normal(size=(20, 3)))]
    return spaces


def test_sep_exact_bisection_matches_the_full_threshold_curve():
    rng = np.random.default_rng(18)
    for s in _bisection_spaces():
        curve = _threshold_curve(s)
        grids = [default_kappa_grid(), np.arange(1, 51) / 100.0,
                 np.sort(rng.choice(np.arange(1, 500), 7, replace=False)) / 1000.0]
        if s.n <= 14:
            kappas = [*curve[1], *(curve[1] + MASS_TOL), *(curve[1] + 2 * MASS_TOL)]
            grids.append(np.unique(np.clip(kappas, 1e-3, 0.5)))
        for grid in grids:
            want = np.array([_sep_from_curve(curve, k) for k in grid])
            assert sep_exact_profile(s, grid).sep.tobytes() == want.tobytes()
        fresh = from_distance_matrix(s.dist, weights=s.weights)
        for kappa in [*rng.uniform(0.001, 0.5, 6), *curve[1][curve[1] > 0][:4]]:
            want = _sep_from_curve(curve, kappa)
            assert sep_exact(fresh, float(kappa)) == sep_exact(s, float(kappa)) == want


def _half_mask_spaces():
    """120 seeded spaces of 2 to 12 points with ties: points in 2 coordinates
    rounded to 0.1, Hamming points and rounded random matrices; zero weights
    in most, point 0 the heaviest point in a third and a duplicate of
    another point in a third of the point spaces."""
    rng = np.random.default_rng(23)
    for k in range(120):
        n = int(rng.integers(2, 13))
        w = rng.random(n) + 0.1
        w[rng.random(n) < 0.3] = 0.0
        w[int(rng.integers(n))] = 1.0
        if k % 3 == 0:
            w[0] = 3.0 * w.max()
        w = w / w.sum() if k % 5 else None
        if k % 4 == 3:
            m = np.round(rng.uniform(0.5, 1.0, size=(n, n)), 1)
            m = (m + m.T) / 2.0
            np.fill_diagonal(m, 0.0)
            yield from_distance_matrix(m, weights=w)
        elif k % 4 == 2:
            yield from_points(rng.integers(0, 2, size=(n, 4)).astype(float), weights=w,
                              metric="normalized_hamming")
        else:
            x = np.round(rng.normal(size=(n, 2)), 1)
            if k % 3 == 1:
                x[0] = x[-1]
            yield from_points(x, weights=w)


def test_threshold_kappa_over_half_the_masks_equals_the_full_dp():
    # the DP skips every A holding point 0 (the lemma in its docstring);
    # the full curve folds all n rows over the 2**n masks
    tried = 0
    for s in _half_mask_spaces():
        masses = conc._subset_table(s.weights, 0.0, np.add)
        half = 1 << (s.n - 1)
        neigh, partner = np.empty(half, dtype=np.int64), np.empty(half)
        thresholds, want = _threshold_curve(s)
        got = [conc._threshold_kappa(s.dist, float(t), masses, neigh, partner)
               for t in thresholds]
        assert np.array(got, dtype=float).tobytes() == want.tobytes()
        tried += thresholds.size > 0
    assert tried >= 100


def _is_power_of_two_of(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift)
            and isinstance(node.left, ast.Constant) and node.left.value == 1)


def test_only_subset_table_writes_a_doubling_slice():
    # every table over the 2**n masks comes from one DP: a write to the
    # slice [1 << i : 1 << (i + 1)], as an assignment target or an `out=`
    # argument, belongs to _subset_table alone
    writers = set()
    tree = ast.parse(Path(conc.__file__).read_text())
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                target = node
            elif isinstance(node, ast.keyword) and node.arg == "out":
                target = node.value
            else:
                continue
            sl = getattr(target, "slice", None)
            if (isinstance(sl, ast.Slice) and _is_power_of_two_of(sl.lower)
                    and _is_power_of_two_of(sl.upper)):
                writers.add(fn.name)
    assert writers == {"_subset_table"}, sorted(writers)


def _count_dps(monkeypatch):
    calls = []
    inner = conc._threshold_kappa

    def dp(dist, t, *bufs):
        calls.append(t)
        return inner(dist, t, *bufs)

    monkeypatch.setattr(conc, "_threshold_kappa", dp)
    return calls


def test_sep_exact_needs_logarithmically_many_dps(monkeypatch):
    calls = _count_dps(monkeypatch)
    rng = np.random.default_rng(19)
    for s in _bisection_spaces():
        t_count = np.unique(s.dist[s.dist > 0]).size
        bound = math.ceil(math.log2(t_count + 1)) + 1
        for kappa in rng.uniform(0.001, 0.5, 3):
            fresh = from_distance_matrix(s.dist, weights=s.weights)
            calls.clear()
            first = sep_exact(fresh, float(kappa))
            assert len(calls) <= bound
            calls.clear()
            assert sep_exact(fresh, float(kappa)) == first
            assert calls == []


def test_sep_exact_profile_shares_dps_with_later_points(monkeypatch):
    calls = _count_dps(monkeypatch)
    s = from_points(np.random.default_rng(20).normal(size=(12, 2)))
    prof = sep_exact_profile(s)
    t_count = np.unique(s.dist[s.dist > 0]).size
    assert len(calls) == len(set(calls)) < t_count
    calls.clear()
    assert [sep_exact(s, float(k)) for k in prof.kappa_grid] == prof.sep.tolist()
    assert sep_exact_profile(s).sep.tobytes() == prof.sep.tobytes()
    assert calls == []


@pytest.mark.parametrize("points", [[[0.0]], [[1.0, 2.0]] * 5], ids=["singleton", "coincident"])
def test_sep_exact_without_positive_distances_is_zero(monkeypatch, points):
    calls = _count_dps(monkeypatch)
    s = from_points(points)
    assert sep_exact_profile(s).sep.tolist() == [0.0] * DEFAULT_KAPPA_POINTS
    assert sep_exact(s, 0.5) == sep_exact(s, 1e-6) == 0.0
    assert calls == []


def test_sep_exact_profile_at_oracle_limit_holds_no_mask_arrays():
    # every ndarray reachable from the space afterwards, through attributes
    # and containers, must be smaller than the 2**n DP buffers
    setup = f"""
import numpy as np
from concdim.concentration import sep_exact_profile
from concdim.mmspace import from_points
s = from_points(np.random.default_rng(5).normal(size=({ORACLE_LIMIT}, 3)))
s.dist
def reachable_sizes(obj, seen):
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj.size] + (reachable_sizes(obj.base, seen) if obj.base is not None else [])
    if isinstance(obj, dict):
        items = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    else:
        items = list(vars(obj).values()) if hasattr(obj, "__dict__") else []
    return [size for item in items for size in reachable_sizes(item, seen)]
def profile_and_held_sizes():
    prof = sep_exact_profile(s)
    return [prof.sep.tolist(), reachable_sizes(s, set())]
"""
    (sep, held), _, peak_rss_mb = run_fresh(setup, "profile_and_held_sizes()")
    assert 0.0 < sep[-1] <= sep[0]
    assert ORACLE_LIMIT**2 in held
    assert max(held) < 2**ORACLE_LIMIT
    assert peak_rss_mb <= 206.0


def test_sep_lower_dominated_by_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = random_space(rng)
        prof = sep_lower(s, restarts=4, seed=int(rng.integers(1 << 30)))
        for kappa, val in zip(prof.kappa_grid, prof.sep):
            assert val <= sep_exact(s, float(kappa)) + 1e-12


def test_sep_lower_never_exceeds_exact_on_collinear_points():
    # on a line the triangle inequality is tight, so a bound computed as
    # d(i, j) - r_A - r_B could round above the cross distance it bounds;
    # every value must be at most the exact one with no tolerance
    rng = np.random.default_rng(0)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        w = rng.random(n) + 0.1
        s = from_points(rng.normal(size=(n, 1)), weights=w / w.sum())
        assert np.all(sep_lower(s).sep <= sep_exact_profile(s).sep)


def test_sep_lower_two_point():
    prof = sep_lower(two_point(), restarts=2)
    idx = int(np.searchsorted(prof.kappa_grid, 0.4))
    assert prof.sep[idx] == 1.0


def test_sep_lower_grows_each_seed_pair_once(monkeypatch):
    # 4 points have at most 4 (point, farthest partner) pairs, so 8
    # restarts draw some pair again
    s = from_points(np.random.default_rng(44).normal(size=(4, 2)))
    grown = []
    inner = conc._greedy_growth_curve

    def growth(space, i, j):
        grown.append((i, j))
        return inner(space, i, j)

    monkeypatch.setattr(conc, "_greedy_growth_curve", growth)
    sep_lower(s, restarts=8)
    assert len(grown) == len(set(grown)) < 8


def _ball_complement_row_by_row(space, center, grid):
    """``_ball_complement_witness`` reading every row by ``dist_row``, in
    radius order, past the last grid level too."""
    w = space.weights
    d_to_a = np.full(space.n, np.inf)
    out = np.zeros(grid.size)
    mass, gi = 0.0, 0
    for idx in np.argsort(space.dist_row(center), kind="stable"):
        np.minimum(d_to_a, space.dist_row(int(idx)), out=d_to_a)
        mass += float(w[idx])
        while gi < grid.size and mass >= grid[gi] - MASS_TOL:
            far = np.argsort(-d_to_a, kind="stable")
            pos = int(np.searchsorted(np.cumsum(w[far]), grid[gi] - MASS_TOL, side="left"))
            t = float(d_to_a[far][min(pos, space.n - 1)])
            out[gi] = max(t, 0.0) if np.isfinite(t) else 0.0
            gi += 1
    return out


def _ball_spaces():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(300, 20))
    x[5] = x[200] = x[0]  # duplicates, one of them a centre below
    yield "gemm", from_points(x)
    w = rng.random(300)
    w[rng.choice(300, 60, replace=False)] = 0.0
    w[rng.choice(300, 10, replace=False)] *= 40.0  # a few heavy points
    yield "weighted", from_points(x, weights=w / w.sum())
    # 7 bits: few distinct distances, so ties at every level
    yield "ties", from_points(rng.integers(0, 2, size=(250, 7)).astype(float),
                              metric="normalized_hamming")
    yield "cdist", from_points(np.round(rng.normal(size=(200, 2)), 1))


@pytest.mark.parametrize("held", [True, False])
def test_ball_complement_reads_blocks_as_the_row_by_row_loop(monkeypatch, held):
    # blocks of 1, 3 and 64 rows put the levels' cuts on, before and after
    # block ends; the last grid puts several levels on one cut
    if not held:
        monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    rng = np.random.default_rng(38)
    budget = mmspace.BLOCK_ENTRIES
    grids = [default_kappa_grid(), np.linspace(0.001, 0.02, 12),
             np.sort(rng.choice(np.arange(1, 500), 9, replace=False)) / 1000.0]
    for name, s in _ball_spaces():
        if held:
            s.dense()
        for c in (0, 5, int(rng.integers(s.n))):
            for grid in grids:
                want = _ball_complement_row_by_row(s, c, grid)
                for block_rows in (1, 3, 64):
                    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", block_rows * s.n)
                    got = conc._ball_complement_witness(s, c, grid)
                    assert got.tobytes() == want.tobytes(), (name, c, block_rows)
                monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", budget)
        assert s.is_dense == held


def sep_lower_row_by_row(space, restarts, seed):
    """``sep_lower`` on the default grid with every row read by
    ``dist_row``: its seeds, the growth curves and the ball complements."""
    grid = default_kappa_grid()
    rng = np.random.default_rng(seed)
    a = int(np.argmax(space.dist_row(0)))
    seeds = [(a, int(np.argmax(space.dist_row(a))))]
    for _ in range(restarts - 1):
        i = int(rng.integers(space.n))
        j = int(np.argmax(space.dist_row(i)))
        if i != j and (i, j) not in seeds:
            seeds.append((i, j))
    best = np.zeros(grid.size)
    for i, j in seeds:
        minmass, crosses = row_by_row_growth_curve(space, i, j)
        np.maximum(best, conc._value_at(minmass, crosses, grid - MASS_TOL), out=best)
    for c in seeds[0]:
        np.maximum(best, _ball_complement_row_by_row(space, c, grid), out=best)
    return np.minimum.accumulate(np.maximum(best, 0.0))


@pytest.mark.parametrize("held", [True, False])
def test_sep_lower_reads_no_single_point_and_matches_the_row_by_row_loops(
        monkeypatch, held):
    if not held:
        monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    spaces = list(_growth_spaces())
    wants = [sep_lower_row_by_row(s, restarts=4, seed=7) for _, s in spaces]
    forbid_point_reads(monkeypatch)
    for (name, s), want in zip(spaces, wants):
        assert s.n <= conc._BALL_COMPLEMENT_LIMIT
        assert sep_lower(s, restarts=4, seed=7).sep.tobytes() == want.tobytes(), name
        assert s.is_dense == held


def _growth_spaces():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(1200, 50))
    x[5] = x[900] = x[17]  # duplicates
    x[40] = x[41] + 1e-7
    yield "gemm", from_points(x)
    w = rng.random(1200) + 0.1
    w[rng.choice(1200, 100, replace=False)] *= 30.0  # a few heavy points
    yield "weighted", from_points(x, weights=w / w.sum())
    # 8 bits: a few distinct distances, so ties at every step
    yield "ties", from_points(rng.integers(0, 2, size=(700, 8)).astype(float),
                              metric="normalized_hamming")
    yield "cdist", from_points(rng.normal(size=(500, 3)))


@pytest.mark.parametrize("block_rows", [1, 4, 64, None])
def test_greedy_growth_reads_ahead_as_the_row_by_row_loop(monkeypatch, block_rows):
    # the read-ahead buffer is one block; None leaves room for every row
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    calls = count_rows(monkeypatch)
    for name, s in _growth_spaces():
        if block_rows:
            monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", block_rows * s.n)
        a = int(np.argmax(s.dist_row(0)))
        for i, j in [(a, int(np.argmax(s.dist_row(a)))), (3, 400), (5, 17)]:
            want = row_by_row_growth_curve(s, i, j)
            calls.clear()
            got = conc._greedy_growth_curve(s, i, j)
            computed = [len(ids) for ids in calls]
            assert [v.tobytes() for v in got] == [v.tobytes() for v in want], (name, i, j)
            assert sum(computed) <= s.n, (name, i, j)
            assert len(computed) < len(want[0]) or block_rows == 1
        assert not s.is_dense


def test_greedy_growth_on_a_held_matrix_computes_no_row(monkeypatch):
    s = from_points(np.random.default_rng(32).normal(size=(400, 20)))
    want = row_by_row_growth_curve(s, 0, 1)
    s.dense()
    assert s.is_dense
    monkeypatch.setattr(mmspace.MMSpace, "_pairwise", None)
    got = conc._greedy_growth_curve(s, 0, 1)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]


def test_sep_lower_reads_its_diameter_from_the_growth_rows(monkeypatch):
    # above the ball-complement limit, sep_lower(restarts=2) reads three
    # seed rows and grows two curves of at most n rows each; the first takes
    # every point and so fills the diameter, and no pass over the space
    # follows
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    spec = GeneratorSpec("gaussian_cloud", 3,
                         {"d": 50, "sigma": 1.0, "n": conc._BALL_COMPLEMENT_LIMIT + 1})
    s = generate(spec)
    calls, passes = count_rows(monkeypatch), count_passes(monkeypatch)
    prof = sep_lower(s, restarts=2)
    assert passes == []
    assert sum(map(len, calls)) <= 2 * s.n + 3
    assert not s.is_dense
    assert np.float64(prof.diameter).tobytes() == np.float64(
        diameter(generate(spec))).tobytes()


def test_growth_that_stops_early_fills_no_diameter(monkeypatch):
    # the last 30 points weigh nothing and sit at the centre, so both sides
    # reach half the mass before taking them, and a read-ahead of 8 rows
    # never reaches them: their rows are not computed
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 8 * 300)
    x = np.random.default_rng(9).normal(size=(300, 20))
    x[270:] *= 1e-3
    w = np.r_[np.full(270, 1.0 / 270), np.zeros(30)]
    calls = count_rows(monkeypatch)
    for weights in (w, None):
        s = from_points(x, weights=weights)
        calls.clear()
        conc._greedy_growth_curve(s, 0, 1)
        ids = set(np.concatenate(calls).tolist())
        if weights is None:
            assert len(ids) == s.n
            assert np.float64(s._diameter_cache).tobytes() == np.float64(
                diameter(from_points(x))).tobytes()
        else:
            assert len(ids) < s.n
            assert s._diameter_cache is None


def test_sep_lower_reads_ahead_within_one_block_budget():
    # 10^4 points in 50 coordinates are never held.  Reading one row per
    # step, this call peaked at 103.6-103.9 MB; the read-ahead may add one
    # BLOCK_ENTRIES buffer to that, not keep every row it read (800 MB)
    _, _, peak_rss_mb = run_fresh(
        "from concdim.mmspace import GeneratorSpec, generate\n"
        "from concdim.concentration import sep_lower\n"
        "s = generate(GeneratorSpec('gaussian_cloud', 3,"
        " {'d': 50, 'sigma': 1.0, 'n': 10_000}))",
        "float(sep_lower(s, restarts=2).sep[0])")
    assert peak_rss_mb <= 104.0 + mmspace.BLOCK_ENTRIES * 8 / 2**20


def test_sphere_separation_decreases_with_dimension():
    # the decrease is assessed where concentration dominates the
    # finite-sample separation inflation of high-dimensional samples
    grid = default_kappa_grid()
    vals = {}
    for idx, dim in enumerate((3, 10)):
        s = generate(GeneratorSpec("sphere", 100 + idx, {"n_dim": dim, "n": 1500}))
        prof = sep_lower(s, grid, restarts=4, seed=idx)
        vals[dim] = prof
    for kappa in (0.05, 0.1):
        j = int(np.searchsorted(grid, kappa))
        assert vals[3].sep[j] > vals[10].sep[j]


# -- analytic Hamming separation ------------------------------------------------


def test_hamming_analytic_d1():
    assert sep_hamming_analytic(1, 0.5) == 1.0


def test_hamming_analytic_d3_values():
    assert sep_hamming_analytic(3, Fraction(1, 8)) == 1.0
    assert sep_hamming_analytic(3, Fraction(1, 2)) == pytest.approx(1 / 3)


def test_hamming_analytic_matches_exact_on_dyadic_grid():
    for d in (1, 2, 3, 4):
        c = cube(d)
        for i in range(1, 2 ** (d - 1) + 1):
            kap = Fraction(i, 2**d)
            assert sep_hamming_analytic(d, kap) == sep_exact(c, float(kap))


# Exact references beyond ORACLE_LIMIT on the full uniform cube {0,1}^d:
# sep from its closed form, and alpha at eps = t/d by Harper's theorem.
# For odd d the half-size initial segment of the simplicial order is the
# ball of radius (d-1)/2, so alpha(t/d) = 1 - |B((d-1)/2 + t)| / 2**d.


@pytest.mark.parametrize("d", range(8, 13))
def test_sep_lower_on_the_full_cube_never_exceeds_the_closed_form(d):
    prof = sep_lower(cube(d))
    exact = np.array([sep_hamming_analytic(d, kappa) for kappa in prof.kappa_grid])
    assert np.all(prof.sep <= exact + 1e-12)


@pytest.mark.parametrize("d", [9, 11])
def test_alpha_lower_on_an_odd_cube_never_exceeds_harpers_ball(d):
    steps = range(1, 5)
    prof = alpha_lower(cube(d), [t / d for t in steps])
    for t in steps:
        ball = sum(math.comb(d, i) for i in range((d - 1) // 2 + t + 1))
        assert prof.at(t / d) <= 1.0 - ball / 2**d + 1e-12


def linear_cascade_shadow(s: int, k: int) -> int:
    """Cascade shadow with each digit found by a linear scan."""
    total = 0
    while s > 0 and k >= 1:
        a = k
        while math.comb(a + 1, k) <= s:
            a += 1
        total += math.comb(a, k - 1)
        s -= math.comb(a, k)
        k -= 1
    return total


def test_cascade_shadow_search_matches_linear_search():
    for k in range(1, 14):
        sizes = list(range(0, 300))
        for a in (k + 1, 2 * k + 3, 40):
            c = math.comb(a, k)
            sizes += [c - 1, c, c + 1, 3 * c + 7]
        for s in sizes:
            top = k
            while math.comb(top, k) <= s:
                top += 1
            for d in (top, top + 1, top + 5):  # least d with s < C(d, k), and above
                # the shadow is the one-step case of the iterated shadow
                assert _iterated_shadow(s, k, d, 1) == linear_cascade_shadow(s, k), (s, k, d)


# the cube's separation as computed before the walk down the binomial
# columns: every cascade digit by doubling and bisecting through math.comb,
# the partial layer by a linear scan over the ball sizes


def _reference_cascade_shadow(s: int, k: int) -> int:
    total = 0
    while s > 0 and k >= 1:
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


def _reference_ball_sizes(d):
    sizes = [0]
    for r in range(d + 1):
        sizes.append(sizes[-1] + math.comb(d, r))
    return sizes


def _reference_closure_step(m, d, balls):
    """The least one-step neighborhood closure of an m-vertex set: the
    ball of the partial layer's weight, and the upper shadow of its
    vertices one layer up."""
    full = 1 << d
    if m >= full:
        return full
    r = 1
    while balls[r] < m:
        r += 1
    r -= 1
    if m == balls[r + 1]:
        return balls[min(r + 2, d + 1)]
    return balls[r + 1] + _reference_cascade_shadow(m - balls[r], d - r)


def _reference_max_bit_separation(a, d, balls):
    full = 1 << d
    if a > full - a:
        return 0
    j, m = 1, a
    while True:
        m = _reference_closure_step(m, d, balls)
        if m <= full - a and j < d:
            j += 1
        else:
            return j


def _reference_hamming_profile(d):
    balls = _reference_ball_sizes(d)
    full, half = 1 << d, 1 << (d - 1)
    knots, vals = [], []
    a = 1
    while a <= half:
        j = _reference_max_bit_separation(a, d, balls)
        lo, hi = a, half
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _reference_max_bit_separation(mid, d, balls) >= j:
                lo = mid
            else:
                hi = mid - 1
        knots.append(lo / full)
        vals.append(j / d)
        a = lo + 1
    return np.asarray(knots), np.asarray(vals)


def test_hamming_profile_matches_the_bisected_digit_reference():
    for d in [*range(1, 41), 50, 64]:
        knots, vals = _reference_hamming_profile(d)
        prof = sep_hamming_profile(d)
        assert prof.kappa_grid.tobytes() == knots.tobytes(), d
        assert prof.sep.tobytes() == vals.tobytes(), d


def test_hamming_analytic_matches_the_bisected_digit_reference():
    for d in (7, 33, 100, 200, 300):
        balls = _reference_ball_sizes(d)
        for kap in (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0.1234,
                    Fraction(3, 2 ** (d // 2)), Fraction(1, 2 ** (d * 4 // 5)),
                    Fraction(1, 2**d)):
            a = math.ceil(Fraction(kap) * 2**d)
            want = _reference_max_bit_separation(a, d, balls) / d
            assert sep_hamming_analytic(d, kap) == want, (d, kap)


def _closures_match_the_iterated_step(d, sizes):
    balls = _reference_ball_sizes(d)
    assert _ball_sizes(d) == balls
    for a in sizes:
        m = a
        for t in range(d + 3):  # the whole cube from t = d on
            assert _closure(a, t, d, balls) == m, (a, t, d)
            m = _reference_closure_step(m, d, balls)


def test_closure_in_closed_form_equals_the_iterated_step_for_every_size():
    for d in range(1, 13):
        _closures_match_the_iterated_step(d, range(1, 2**d + 1))


def test_closure_in_closed_form_equals_the_iterated_step_on_sampled_sizes():
    rng = np.random.default_rng(23)
    for d in range(13, 106, 4):
        balls = _reference_ball_sizes(d)
        sizes = {b + e for b in balls for e in (-1, 0, 1)}
        sizes |= {int.from_bytes(rng.bytes(14), "little") % 2**d + 1 for _ in range(12)}
        _closures_match_the_iterated_step(d, sorted(a for a in sizes if 1 <= a <= 2**d))


def test_hamming_cube_dimension_ceilings():
    with pytest.raises(InputError):
        sep_hamming_analytic(MAX_ANALYTIC_CUBE_DIM + 1, 0.25)
    with pytest.raises(InputError):
        sep_hamming_profile(MAX_PROFILE_CUBE_DIM + 1)
    with pytest.raises(InputError):
        sep_hamming_analytic(0, 0.25)
    assert sep_hamming_analytic(200, 0.25) == 0.05
    # a fractional or bool dimension is refused, not truncated to a smaller cube
    for d in (5.9, 3.5, True, float("nan"), "5"):
        with pytest.raises(InputError, match="integer"):
            sep_hamming_analytic(d, 0.25)
        with pytest.raises(InputError, match="integer"):
            sep_hamming_profile(d)
    assert sep_hamming_analytic(5.0, 0.25) == sep_hamming_analytic(5, 0.25)


def test_hamming_analytic_rejects_bad_kappa():
    for kappa in (0.75, 0.0, float("nan"), float("inf")):
        with pytest.raises(InputError, match=r"kappa must lie in \(0, 1/2\]"):
            sep_hamming_analytic(4, kappa)


def test_hamming_profile_integrates_exactly():
    prof = sep_hamming_profile(1)
    assert prof.integral() == pytest.approx(0.5)
    # the separation function is constant between consecutive dyadic masses,
    # so the exact integral is the mean of the oracle values on that grid
    for d in (2, 3, 4):
        c = cube(d)
        want = sum(sep_exact(c, a / 2**d) for a in range(1, 2 ** (d - 1) + 1)) / 2**d
        assert sep_hamming_profile(d).integral() == pytest.approx(want, abs=1e-12)


def test_hamming_profile_agrees_with_pointwise_values():
    for d in (2, 5, 8):
        prof = sep_hamming_profile(d)
        for kap in np.linspace(0.01, 0.5, 23):
            idx = int(np.searchsorted(prof.kappa_grid, kap - 1e-15, side="left"))
            want = sep_hamming_analytic(d, float(kap))
            assert prof.sep[min(idx, prof.sep.size - 1)] == pytest.approx(want)


# -- cross inequalities ---------------------------------------------------------


def test_cross_inequalities_on_random_spaces():
    rng = np.random.default_rng(12)
    for _ in range(15):
        s = random_space(rng)
        prof = alpha_exact_profile(s)
        for eps, a_val in zip(prof.eps_grid, prof.alpha):
            if a_val > 0:
                sep_at = sep_exact(s, float(a_val))
                if a_val == 0.5 and eps == 0.0:
                    continue
                assert sep_at >= float(eps) - 1e-9
        for kappa in (0.1, 0.25, 0.4, 0.5):
            delta = sep_exact(s, kappa)
            if delta > 0:
                assert alpha_exact(s, delta) <= kappa + 1e-9


# -- observable diameter ---------------------------------------------------------


def test_obsdiam_singleton():
    s = from_points([[0.0]])
    feats = [distance_feature(s, [0])]
    for kappa in (0.01, 0.3, 0.9):
        assert observable_diameter(s, kappa, feats) == 0.0


def test_obsdiam_two_point_identity_feature():
    s = two_point()
    f = check_lipschitz(s, [0.0, 1.0])
    assert observable_diameter(s, 0.3, [f]) == 1.0
    # the off-diagonal pairs carry mass 1/2, so above it the value is 0
    assert observable_diameter(s, 0.6, [f]) == 0.0


def test_obsdiam_rejects_bad_kappa():
    s = two_point()
    f = check_lipschitz(s, [0.0, 1.0])
    with pytest.raises(InputError):
        observable_diameter(s, 0.0, [f])
    with pytest.raises(InputError):
        observable_diameter(s, 1.0, [f])


def test_obsdiam_weighted_two_point():
    s = from_points([[0.0], [1.0]], weights=[0.75, 0.25])
    f = check_lipschitz(s, [0.0, 1.0])
    # P[|f(x)-f(y)| >= D] = 2*0.75*0.25 = 0.375 on (0, 1], so the infimum
    # is 0 once kappa exceeds 0.375 and 1 at or below it
    assert observable_diameter(s, 0.5, [f]) == 0.0
    assert observable_diameter(s, 0.375, [f]) == 1.0
    assert observable_diameter(s, 0.3, [f]) == 1.0


def test_obsdiam_weighted_and_uniform_paths_agree():
    rng = np.random.default_rng(17)
    from concdim.mmspace import from_distance_matrix

    for _ in range(10):
        n = int(rng.choice([3, 5, 7, 9]))  # odd: 1/n is not dyadic
        m = rng.uniform(0.5, 1.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        uni = from_distance_matrix(m)
        # same measure expressed as an explicitly non-detected-uniform vector
        w = np.full(n, 1.0 / n)
        w[0] = 1.0 - w[1:].sum()
        wtd = from_distance_matrix(m, weights=w)
        vals = rng.normal(size=n) * 0.1
        fu = check_lipschitz(uni, vals)
        fw = check_lipschitz(wtd, vals)
        for kappa in (0.05, 0.3, 0.7):
            assert observable_diameter(uni, kappa, [fu]) == pytest.approx(
                observable_diameter(wtd, kappa, [fw]), abs=1e-12)


def _obsdiam_table(space, values, kappa):
    """Observable diameter of one feature from the weighted n**2 table."""
    flat = np.abs(values[:, None] - values[None, :]).ravel()
    w = np.multiply.outer(space.weights, space.weights).ravel()
    vs, inverse = np.unique(flat, return_inverse=True)
    masses = np.bincount(inverse, weights=w, minlength=vs.size)
    tail_above = 1.0 - np.cumsum(masses)  # mass strictly above vs[k]
    ok = np.flatnonzero(tail_above < kappa - 1e-15)
    return float(vs[ok[0]]) if ok.size else float(vs[-1])


def test_obsdiam_weighted_matches_the_pair_table():
    # the selection picks an attained |v_a - v_b| from the pairs its probes
    # leave, so it is the table's value, bit for bit
    rng = np.random.default_rng(31)
    for n in (2, 5, 40, 300):
        w = rng.random(n) + 0.5
        s = from_points(rng.normal(size=(n, 3)), weights=w / w.sum())
        for f in dictionary(s, "anchors_random", k=4, seed=n):
            for kappa in (0.001, 0.01, 0.1, 0.25, 0.45, 0.9):
                assert observable_diameter(s, kappa, [f]) == _obsdiam_table(
                    s, f.values, kappa)


@pytest.mark.parametrize("weighted", [False, True])
def test_obsdiam_answers_zero_without_bisecting(monkeypatch, weighted):
    # on two values, the pairs that differ carry about half the mass: the
    # answer is 0 at kappa 0.6, which bisecting down to adjacent floats
    # found after about 1076 probes
    rng = np.random.default_rng(43)
    w = rng.random(2000) + 0.5 if weighted else np.ones(2000)
    s = from_points(np.repeat([[0.0], [1.0]], 1000, axis=0), weights=w / w.sum())
    f = distance_feature(s, [0])
    assert observable_diameter(s, 0.4, [f]) == _obsdiam_table(s, f.values, 0.4) == 1.0
    probes = []
    searchsorted = np.searchsorted

    def counted(*args, **kwargs):
        probes.append(args)
        return searchsorted(*args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    assert observable_diameter(s, 0.6, [f]) == 0.0
    monkeypatch.undo()
    assert _obsdiam_table(s, f.values, 0.6) == 0.0
    assert len(probes) <= 2


def _obsdiam_ranked(values, kappa):
    """Observable diameter of one feature under uniform weights: the largest
    ``|v_a - v_b|`` that at least ``ceil(kappa n**2)`` ordered pairs reach."""
    n = values.size
    flat = np.sort(np.abs(values[:, None] - values[None, :]).ravel())[::-1]
    return float(flat[math.ceil(kappa * n * n) - 1])


def test_obsdiam_equals_the_pair_table_bit_for_bit():
    # anchor features of clouds, rounded for ties, and 1-D points whose
    # coordinates are the values: far from 0, so that v_b <= v_a - D and
    # v_a - v_b >= D disagree, or spread over many binades
    rng = np.random.default_rng(2025)
    for case in range(36):
        n = int(rng.choice([2, 3, 8, 40, 300, 700]))
        weighted = case % 2 == 1
        w = rng.random(n) + 0.5 if weighted else np.ones(n)
        kind = case // 2 % 3
        if kind == 0:
            s = from_points(np.round(rng.normal(size=(n, 2)), int(rng.integers(1, 4))),
                            weights=w / w.sum())
            feats = dictionary(s, "anchors_random", k=2, seed=case)
        else:
            x = (1e9 + np.round(rng.normal(size=n), 3) if kind == 1
                 else rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-40, 40, n))
            s = from_points(x[:, None], weights=w / w.sum())
            feats = [check_lipschitz(s, x)]
        for f in feats:
            for kappa in (1e-3, 1e-2, 0.1, 0.3, 0.6):
                ref = (_obsdiam_table(s, f.values, kappa) if weighted
                       else _obsdiam_ranked(f.values, kappa))
                assert observable_diameter(s, kappa, [f]) == ref, (case, kappa)


def count_probes(monkeypatch) -> list:
    """Record every probe of the observable diameter's selection, one
    ``_reaching`` call each, until the monkeypatch is undone."""
    probes = []
    inner = conc._reaching

    def reaching(v, d, *args):
        probes.append(d)
        return inner(v, d, *args)

    monkeypatch.setattr(conc, "_reaching", reaching)
    return probes


def test_obsdiam_anchor_features_take_at_most_10_probes(monkeypatch):
    # bisecting each feature down to adjacent floats took 54-55 probes, and
    # probes halfway between the window's least and largest differences 10
    n = 5000
    probes = count_probes(monkeypatch)
    for seed, n_dim in ((3, 25), (4, 100)):
        s = generate(GeneratorSpec("sphere", seed, {"n_dim": n_dim, "n": n}))
        for f in dictionary(s, "anchors_random", k=4, seed=seed):
            probes.clear()
            assert observable_diameter(s, 1e-2, [f]) > 0.0
            assert len(probes) <= 10, n_dim


def test_obsdiam_on_values_over_many_binades_takes_2_log2_n_probes(monkeypatch):
    # +-2**k for k in -60..60: probes halfway between the window's least and
    # largest differences cut off few pairs each, up to 37 per feature
    rng = np.random.default_rng(2026)
    probes = count_probes(monkeypatch)
    for n in (100, 300, 1000, 2000):
        x = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-60, 61, n)
        s = from_points(x[:, None])
        f = check_lipschitz(s, x)
        for kappa in (1e-3, 1e-2, 0.1):
            probes.clear()
            got = observable_diameter(s, kappa, [f])
            assert len(probes) <= 2 * math.log2(n) + 4, (n, kappa)
            assert got == _obsdiam_ranked(x, kappa), (n, kappa)


def test_obsdiam_sphere_scaling_ratio():
    feats = {}
    spaces = {}
    for idx, dim in enumerate((25, 100)):
        s = generate(GeneratorSpec("sphere", 200 + idx, {"n_dim": dim, "n": 1200}))
        spaces[dim] = s
        feats[dim] = dictionary(s, "anchors_random", k=16, seed=idx)
    ratio = (observable_diameter(spaces[100], 1e-2, feats[100])
             / observable_diameter(spaces[25], 1e-2, feats[25]))
    assert 0.3 <= ratio <= 0.7


def test_features_from_another_space_are_refused_before_any_work(monkeypatch):
    s40 = from_points(np.random.default_rng(0).normal(size=(40, 2)))
    s20 = from_points(np.random.default_rng(1).normal(size=(20, 2)))
    feats = dictionary(s20, "anchors_random", k=2, seed=0)
    monkeypatch.setattr(conc, "diameter", lambda space: pytest.fail("work before the check"))
    monkeypatch.setattr(conc, "_kth_largest_abs_diff",
                        lambda *a: pytest.fail("work before the check"))
    message = f"feature '{feats[0].name}' has 20 values, but the space has 40 points"
    for call in (lambda: observable_diameter(s40, 0.1, feats),
                 lambda: alpha_lower(s40, dictionary=feats),
                 lambda: margin_error(s40, np.zeros(40, dtype=int), feats[0], 0.1)):
        with pytest.raises(InputError, match=re.escape(message)):
            call()


# -- margins ----------------------------------------------------------------------


def test_margin_constant_half_feature():
    s = two_point()
    f = check_lipschitz(s, [0.5, 0.5])
    labels = [0, 1]
    assert margin_error(s, labels, f, 0.2) == 1.0


def test_margin_gamma_zero():
    s = two_point()
    f = check_lipschitz(s, [0.5, 0.5])
    assert margin_error(s, [0, 1], f, 0.0) == 0.0


def test_margin_rejects_uncertified_feature():
    from concdim.features import Feature

    s = two_point()
    fake = Feature(np.array([0.0, 2.0]), 2.0, 2.0)
    with pytest.raises(InputError, match="1-Lipschitz"):
        margin_error(s, [0, 1], fake, 0.1)


def test_margin_theorem_bound_sample():
    rng = np.random.default_rng(21)
    from concdim.mmspace import weighted_median

    for _ in range(10):
        s = random_space(rng)
        labels = rng.integers(0, 2, size=s.n)
        for f in dictionary(s, "anchors_all"):
            med = weighted_median(f.values, s.weights)
            calibrated = f.shifted(0.5 - med)
            # midpoint grid: at gamma exactly equal to a realized margin
            # the strict-inequality error carries an uncovered boundary atom
            for gamma in (np.arange(8) + 0.5) / 8.0 * diameter(s):
                er = margin_error(s, labels, calibrated, float(gamma))
                assert er >= 1.0 - 2.0 * alpha_exact(s, float(gamma)) - 1e-9


# -- separated subsets -------------------------------------------------------------


def test_greedy_separated_subset_is_separated():
    rng = np.random.default_rng(30)
    s = generate(GeneratorSpec("gaussian_cloud", 5, {"d": 3, "sigma": 1.0, "n": 80}))
    ids = greedy_separated_subset(s, 1.0)
    sub = s.dist[np.ix_(ids, ids)]
    off = sub[~np.eye(len(ids), dtype=bool)]
    assert np.all(off >= 1.0)


def test_split_witness_balances_mass():
    s = generate(GeneratorSpec("gaussian_cloud", 6, {"d": 3, "sigma": 1.0, "n": 60}))
    ids = greedy_separated_subset(s, 0.8)
    min_side, a, b = split_witness(s, ids)
    assert set(a).isdisjoint(b)
    assert min_side <= s.weights[a].sum() + 1e-12
    assert min_side <= s.weights[b].sum() + 1e-12
    assert min_side >= (len(ids) // 2) / s.n - 1e-12

def test_oracles_with_duplicate_points():
    # distance-zero pairs (e.g. repeated sample strings) must not break
    # the enumeration: the zero-radius neighborhood absorbs duplicates
    s = from_points([[0.0], [0.0], [1.0], [1.0]])
    assert alpha_exact(s, 0.5) == 0.5
    assert alpha_exact(s, 1.0) == 0.0
    assert sep_exact(s, 0.5) == 1.0
    assert sep_exact(s, 0.25) == 1.0
    prof = sep_lower(s, restarts=2)
    assert prof.sep[0] <= 1.0 + 1e-12


def test_oracles_with_zero_weight_points():
    s = from_points([[0.0], [1.0], [0.5]], weights=[0.5, 0.5, 0.0])
    # the massless midpoint cannot help or hurt either invariant
    assert alpha_exact(s, 0.25) == 0.5
    assert sep_exact(s, 0.5) == 1.0
    assert naive_sep(s, 0.5) == 1.0


@pytest.mark.parametrize("call", [
    lambda s, f: alpha_lower(s, [0.5, np.nan], dictionary=[f]),
    lambda s, f: alpha_exact_profile(s, [np.nan]),
    lambda s, f: alpha_exact(s, np.nan),
    lambda s, f: sep_lower(s, [0.25, np.nan]),
    lambda s, f: sep_exact_profile(s, [np.inf]),
    lambda s, f: covering_profile(s, [0.5, np.nan]),
    lambda s, f: covering_profile(s, [0.5, np.inf]),
    lambda s, f: margin_error(s, [0, 1, 0], f, np.nan),
], ids=["alpha_lower", "alpha_exact_profile", "alpha_exact", "sep_lower",
        "sep_exact_profile", "covering_profile_nan", "covering_profile_inf",
        "margin_error"])
def test_non_finite_parameters_are_input_errors(call):
    s = from_points([[0.0], [1.0], [3.0]])
    f = check_lipschitz(s, [0.0, 0.5, 0.5])
    with pytest.raises(InputError):
        call(s, f)


@pytest.mark.parametrize("call", [
    lambda s: sep_lower(s, restarts=2.5),
    lambda s: sep_lower(s, restarts=True),
    lambda s: sep_lower(s, seed=1.5),
    lambda s: dictionary(s, "anchors_random", k=2.5),
    lambda s: dictionary(s, "halfspace_differences", k=2.5),
    lambda s: dictionary(s, "anchors_random", k=2, seed=1.5),
    lambda s: sep_lower(s, restarts=0),
    lambda s: sep_lower(s, seed=-1),
    lambda s: dictionary(s, "anchors_random", k=2, seed=-1),
    lambda s: generate(GeneratorSpec("hamming_cube", -1, {"d": 2})),
    lambda s: generate(GeneratorSpec("hamming_cube", True, {"d": 2})),
], ids=["sep_lower_restarts", "sep_lower_restarts_bool", "sep_lower_seed",
        "anchors_random_k", "halfspace_differences_k", "dictionary_seed",
        "sep_lower_no_restart", "sep_lower_seed_below_0", "dictionary_seed_below_0",
        "generate_seed_below_0", "generate_seed_bool"])
def test_non_integer_counts_are_input_errors(call, monkeypatch):
    # checked before any distance is computed or any draw made: a seed
    # below 0 would reach numpy as a ValueError
    s = from_points([[0.0], [1.0], [3.0]])
    calls = count_rows(monkeypatch)
    with pytest.raises(InputError, match="must be an integer"):
        call(s)
    assert calls == []
