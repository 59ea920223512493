"""The distance layer: the GEMM kernel, its guard, and the blocked scans.

``scipy.spatial.distance.cdist`` is used here only as the reference.
With ``mmspace.AUTO_DENSE`` at 0 no space holds its matrix unless asked
for ``dist``, so every accessor computes its rows.

That GEMM rows have the same bits in products of any height, and that the
GEMM kernel's matrix equals its transpose, are measured properties of the
BLAS, not guarantees.  They were measured with numpy 2.4.6 and the
OpenBLAS it bundles, ``OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH
NO_AFFINITY`` (as ``np.show_config()`` reports it), running its SkylakeX
kernels on 2 threads.  A failure of the bit-equality or symmetry tests on
another BLAS means that BLAS rounds one dot product differently by shape
or by operand order.
"""

import itertools

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from concdim import concentration as conc_mod, mmspace
from concdim.concentration import greedy_separated_subset, sep_lower
from concdim.dimension import dim_chavez
from concdim.errors import InputError
from concdim.features import Feature, check_lipschitz, dictionary, distance_feature
from concdim.mmspace import (
    GEMM_ACCURACY,
    GEMM_MIN_DIM,
    MMSpace,
    char_size,
    char_size_interval,
    diameter,
    from_distance_matrix,
    from_points,
    product_distance_moments,
)

from util import (count_passes, count_rows, pair_table_medians, row_by_row_growth_curve,
                  run_fresh)


def cloud(d: int, n: int = 300, seed: int = 0) -> np.ndarray:
    """Gaussian points with exact duplicates and pairs 1e-7 apart."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    x[7] = x[3]
    x[50] = x[3]
    x[11] = x[10] + 1e-7 * rng.normal(size=d) / np.sqrt(d)
    x[200] = x[199] + 1e-7 * rng.normal(size=d) / np.sqrt(d)
    return x


def every_path(x: np.ndarray) -> list[np.ndarray]:
    """The full matrix as read through each distance accessor."""
    rows = from_points(x)
    ids = np.arange(rows.n)
    return [
        np.vstack([rows.dist_row(i) for i in ids]),
        np.vstack([blk.copy() for _, blk in rows.iter_blocks()]),
        rows.dist_block(ids[::-1])[::-1],
        rows.submatrix(ids),
        np.array([[rows.distance(i, j) for j in ids[:60]] for i in ids[:60]]),
        from_points(x).dist,
    ]


TRANSFORMS = {
    "plain": lambda x: x,
    "offset_1e3": lambda x: x + 1e3,
    "scaled_1e-3": lambda x: x * 1e-3,
}


@pytest.mark.parametrize("name", sorted(TRANSFORMS))
@pytest.mark.parametrize("d", [GEMM_MIN_DIM - 1, GEMM_MIN_DIM, 50])
def test_kernel_matches_cdist(name, d, monkeypatch):
    x = TRANSFORMS[name](cloud(d))
    space = from_points(x)
    assert (space._gemm is not None) == (d >= GEMM_MIN_DIM)
    ref = cdist(x, x)
    centred = x - x.mean(axis=0)
    bound = GEMM_ACCURACY * (1.0 + np.sqrt((centred * centred).sum(axis=1)).max())
    m = space.dist
    # the matrix read by the rule, then rows computed one call at a time:
    # each path reads the held matrix's bits
    for auto_dense in (mmspace.AUTO_DENSE, 0):
        monkeypatch.setattr(mmspace, "AUTO_DENSE", auto_dense)
        for got in every_path(x):
            k = got.shape[0]
            assert bits(got) == bits(m[:k, :k])
            assert np.abs(got - ref[:k, :k]).max() <= bound
            assert (got >= 0).all()
            assert got[3, 7] == got[7, 3] == got[3, 50] == 0.0
            assert np.all(np.diag(got) == 0.0)
    assert np.array_equal(m, m.T)
    for i, j in [(10, 11), (199, 200)]:
        assert m[i, j] > 0 and abs(m[i, j] - ref[i, j]) <= 1e-6 * ref[i, j]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def in_blocks(space: MMSpace, size: int, seed: int) -> np.ndarray:
    """The full matrix from `dist_block` reads of `size` shuffled rows."""
    perm = np.random.default_rng(seed).permutation(space.n)
    m = np.empty((space.n, space.n))
    for k in range(0, space.n, size):
        m[perm[k : k + size]] = space.dist_block(perm[k : k + size])
    return m


KERNELS = {
    "gemm": lambda n: from_points(cloud(50, n)),
    "cdist": lambda n: from_points(cloud(GEMM_MIN_DIM - 1, n)),
    "hamming": lambda n: from_points(
        (cloud(40, n) > 0).astype(float), metric="normalized_hamming"),
}


@pytest.mark.parametrize("n", [300, 1001])
@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_single_reads_equal_the_same_row_in_any_block(kernel, n, monkeypatch):
    # rows are a function of the point alone: neither a row read alone nor
    # one entry differs, in any bit, from its row inside a block
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = KERNELS[kernel](n)
    assert (space._gemm is not None) == (kernel == "gemm")
    ref = np.vstack([blk.copy() for _, blk in space.iter_blocks()])
    for k, size in enumerate((2, 64, space.block_rows)):
        assert bits(in_blocks(space, size, k)) == bits(ref), size
    for i in (0, 3, 7, 10, 11, 50, 199, 200, n - 1):
        assert bits(space.dist_row(i)) == bits(ref[i])
        assert bits(space.dist_block([i])[0]) == bits(ref[i])
        assert bits(space.min_dist_to([i])) == bits(ref[i])
        assert bits([space.distance(i, j) for j in range(n)]) == bits(ref[i])
    ids = np.r_[3, 7, 50, 10, 11, 199, 200, 0:n:9]
    assert bits(space.submatrix(ids)) == bits(ref[np.ix_(ids, ids)])
    assert not space.is_dense
    assert bits(space.dist) == bits(ref)


@pytest.mark.parametrize("n, d", [(300, 20), (1001, 16), (3000, 50), (5000, 26),
                                  (6000, 300), (6001, 50), (4000, 1500)])
def test_gemm_matrix_is_exactly_symmetric(n, d, monkeypatch):
    # |x_i|^2 + |x_j|^2 is formed before the dot product, and the guard
    # recomputes an entry on a threshold symmetric in (i, j)
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = from_points(cloud(d, n, seed=d))
    assert space._gemm is not None
    m = np.empty((n, n))
    for ids, blk in space.iter_blocks():
        m[ids] = blk
    assert np.array_equal(m, m.T)
    assert bits(space.dist_block([n - 1, 3, 7])) == bits(m[[n - 1, 3, 7]])


SET_SPACES = {
    **KERNELS,
    "weighted": lambda n: from_points(
        cloud(50, n), weights=np.random.default_rng(1).dirichlet(np.ones(n))),
    "matrix": lambda n: mmspace.from_distance_matrix(
        from_points(cloud(GEMM_MIN_DIM - 1, n)).dist),
}


def set_stack(n: int) -> list[np.ndarray]:
    """Singletons, the full set, repeated ids, a duplicate set and
    overlapping sets, each in its own order, the sets in a shuffled one."""
    rng = np.random.default_rng(n)
    halves = [rng.choice(n, n // 2, replace=False) for _ in range(3)]
    sets = [np.array([0]), np.array([n - 1]), np.array([7]), np.array([3, 7, 50]),
            rng.permutation(n), np.array([9, 9, 4, 9]), *halves, halves[1][::-1],
            np.r_[halves[0][:20], halves[2][:20]]]
    return [sets[j] for j in rng.permutation(len(sets))]


@pytest.mark.parametrize("budget", [None, 3])
@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("kind", sorted(SET_SPACES))
def test_set_distances_are_the_minimum_of_the_sets_rows(kind, held, budget, monkeypatch):
    # min is exact and rows are canonical, so every bit equals the row-wise
    # minimum over the held matrix; `budget` sets per group, rows per block
    n = 300
    monkeypatch.setattr(mmspace, "AUTO_DENSE", mmspace.AUTO_DENSE if held else 0)
    if budget:
        monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", budget * n)
    space = SET_SPACES[kind](n)
    if held:
        space.dist

        def no_copies(*args, **kwargs):
            raise AssertionError("held rows were copied or computed")

        monkeypatch.setattr(MMSpace, "dist_block", no_copies)
        monkeypatch.setattr(MMSpace, "_pairwise", no_copies)
    sets = set_stack(n)
    masks = np.zeros((len(sets), n), dtype=bool)
    for mask, ids in zip(masks, sets):
        mask[ids] = True
    groups = list(space.iter_set_distances(masks))
    assert all(len(js) <= space.block_rows for js, _ in groups)
    assert np.concatenate([js for js, _ in groups]).tolist() == list(range(len(sets)))
    got = np.vstack([out for _, out in groups])
    assert space.is_dense == (held or kind == "matrix")
    monkeypatch.undo()
    m = space.dist
    want = np.vstack([np.min(m[ids], axis=0) for ids in sets])
    assert bits(got) == bits(want)
    assert [bits(space.min_dist_to(ids)) for ids in sets] == [bits(row) for row in want]


@pytest.mark.parametrize("sets, match", [
    (np.eye(2, 300, dtype=bool) * [[True], [False]], "set 1 is empty"),
    ([[0, 300]], "out of range"),
    ([[-1]], "out of range"),
    ([[0.5]], "integers"),
    ([np.array([True, False])], "integers"),
    (np.zeros((2, 300), dtype=bool), "set 0 is empty"),
    (np.ones((2, 30), dtype=bool), "shape"),
    (np.ones(300, dtype=bool), "shape"),
    (np.ones((2, 300), dtype=int), "boolean mask"),
    ([[]], "empty"),
    ([[True, 2]], "integers"),
])
def test_set_distances_reject_empty_and_foreign_sets(sets, match):
    # sets come only as a boolean mask; the ids of one set, as min_dist_to
    # and distance_feature take them, are checked as point ids
    space = from_points(cloud(3))
    mask = isinstance(sets, np.ndarray)
    with pytest.raises(InputError, match=match if mask else "boolean mask"):
        space.iter_set_distances(sets)
    for read in () if mask else (space.min_dist_to, lambda ids: distance_feature(space, ids)):
        with pytest.raises(InputError, match=match):
            read(sets[0])


def test_anchor_dictionaries_read_their_rows_in_one_block(monkeypatch):
    # held or not, in one block or in blocks of 3 rows, which split pairs
    # (p, q) between two blocks of one buffer
    for held, block_rows in itertools.product((True, False), (None, 3)):
        monkeypatch.setattr(mmspace, "AUTO_DENSE", mmspace.AUTO_DENSE if held else 0)
        space = from_points(cloud(50, 1000))
        if block_rows:
            monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", block_rows * space.n)
        if held:
            space.dist
        calls = count_rows(monkeypatch)
        feats = dictionary(space, "anchors_random", k=32, seed=0)
        anchors = np.random.default_rng(0).choice(space.n, 32, replace=False)
        rng = np.random.default_rng(0)
        pairs = [rng.choice(space.n, 2, replace=False).tolist() for _ in range(16)]
        halves = dictionary(space, "halfspace_differences", k=16, seed=0)
        if held:
            assert calls == []
        elif block_rows is None:
            assert [ids.tolist() for ids in calls] == [anchors.tolist(),
                                                       np.ravel(pairs).tolist()]
        assert [f.name for f in feats] == [f"dist_to_{{{a}}}" for a in anchors]
        assert [f.name for f in halves] == [f"half_diff({p},{q})" for p, q in pairs]
        # the rows and half-differences as read, with no shift
        for f, a in zip(feats, anchors):
            assert bits(f.values) == bits(space.dist_row(a))
        for f, (p, q) in zip(halves, pairs):
            assert bits(f.values) == bits((space.dist_row(p) - space.dist_row(q)) / 2.0)
        assert space.is_dense == held
        monkeypatch.undo()


def test_features_do_not_depend_on_a_held_matrix():
    fresh = from_points(cloud(50, 3000))
    read = from_points(cloud(50, 3000))
    read.dist
    for kind in ("anchors_random", "halfspace_differences"):
        a, b = (dictionary(s, kind, k=32, seed=0) for s in (fresh, read))
        assert [bits(f.values) for f in a] == [bits(f.values) for f in b]
    assert not fresh.is_dense and read.is_dense


def test_kernel_falls_back_where_squared_norms_overflow():
    x = cloud(GEMM_MIN_DIM) * 1.2e153
    space = from_points(x)
    assert space._gemm is None
    ref = cdist(x[:2], x)
    assert np.isfinite(ref).all()
    assert np.array_equal(space.dist_block([0, 1]), ref)


def test_kernel_scales_coordinates_whose_squares_overflow(monkeypatch):
    # (2e200)**2 overflows: cdist and the pair sample read the coordinates
    # over a power of two and scale the distances back, exactly
    space = from_points([[1e200], [-1e200], [0.0]])
    assert diameter(space) == 2e200
    assert space.dist.tolist() == [[0.0, 2e200, 1e200], [2e200, 0.0, 1e200],
                                   [1e200, 1e200, 0.0]]
    rows, cols = np.array([0, 0, 1, 2]), np.array([1, 2, 2, 2])
    monkeypatch.setattr(space, "_dist_cache", None)
    assert mmspace._pair_distances(space, rows, cols).tolist() == [2e200, 1e200, 1e200, 0.0]
    # near the largest finite diagonal a distance of 5 keeps its bits, and
    # only a variance beyond the largest float is inf
    x = from_points([[0.0, 0.0], [1.7e308, 0.0], [0.0, 5.0]])
    assert x.dist_block([0, 1, 2]).tolist() == [
        [0.0, 1.7e308, 5.0], [1.7e308, 0.0, 1.7e308], [5.0, 1.7e308, 0.0]]
    assert product_distance_moments(from_points([[0.0], [1.7e308]])) == (0.85e308, np.inf)
    # a cloud scaled by a power of two has its distances scaled by it, exactly
    x = cloud(3)
    assert np.array_equal(from_points(x * 2.0 ** 540).dist_block([0, 1]),
                          cdist(x[:2], x) * 2.0 ** 540)
    # and its distance moments too, so the unit-free Chavez ratio is the same
    m = cdist(x[:40], x[:40])
    assert dim_chavez(from_distance_matrix(m * 2.0 ** 700)) == dim_chavez(from_distance_matrix(m))


def test_kernel_self_entry_does_not_trip_the_guard(monkeypatch):
    # rows are recomputed by direct differences only for their close pairs
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = from_points(cloud(50) + 1e3)
    direct = []
    einsum = np.einsum

    def counting(*args, **kwargs):
        direct.append(args[1].shape[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    space.dist_block(np.arange(60, 100))
    space.dist_row(100)
    assert direct == []
    space.dist_row(3)
    space.dist_block([10, 12])
    assert direct == [2, 1]


def test_lipschitz_certificate_on_near_duplicates():
    space = from_points(cloud(50) + 1e3)
    for anchor in (3, 10, 11, 199, 0):
        got = check_lipschitz(space, space.dist_row(anchor), f"dist_to_{anchor}")
        assert isinstance(got, Feature), str(got)


def naive_greedy(space: MMSpace, min_distance: float) -> list[int]:
    alive = np.ones(space.n, dtype=bool)
    kept = []
    for i in range(space.n):
        if alive[i]:
            kept.append(i)
            alive &= ~(space.dist_row(i) < min_distance)
    return kept


@pytest.mark.parametrize("d", [3, 50])
def test_blocked_greedy_matches_row_by_row_scan(d):
    rng = np.random.default_rng(d)
    x = rng.normal(0.0, np.sqrt(1.0 / d), size=(1500, d))
    x[100] = x[99]
    for space in (from_points(x), from_points(x[:400])):
        got = greedy_separated_subset(space, 1.0)
        want = naive_greedy(from_points(space.coords), 1.0)
        assert got.tolist() == want
        assert 0 < len(want) < space.n
    dense = from_points(x[:400])
    dense.dist
    assert greedy_separated_subset(dense, 1.0).tolist() == naive_greedy(dense, 1.0)


def noise(n: int, d: int = 50) -> np.ndarray:
    """Gaussian points at noise scale ``sigma**2 = 1/d``, as in criterion 7."""
    return np.random.default_rng(d).normal(0.0, np.sqrt(1.0 / d), size=(n, d))


def scan_blocks(x: np.ndarray, min_distance: float, block_rows: int) -> list[list[int]]:
    """The blocks of a scan that computes the rows of the next `block_rows`
    still-alive candidates at once, from the one after its last block."""
    ref = from_points(x)
    alive = np.ones(len(x), dtype=bool)
    blocks, start = [], 0
    while (cand := start + np.flatnonzero(alive[start:])[:block_rows]).size:
        blocks.append(cand.tolist())
        for i in cand:
            if alive[i]:
                alive &= ref.dist_row(i) >= min_distance
        start = int(cand[-1]) + 1
    return blocks


def test_greedy_scan_reads_ahead_the_next_alive_candidates(monkeypatch):
    # a miss frees the rows of candidates removed since they were read, so
    # every block holds the next block_rows alive candidates
    x = noise(1500)
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 64 * len(x))
    want = scan_blocks(x, 1.0, 64)
    calls = count_rows(monkeypatch)
    greedy_separated_subset(from_points(x), 1.0)
    assert [sorted(c.tolist()) for c in calls] == want
    assert 5 < len(want) < len(x) // 64


def test_greedy_subset_and_sep_lower_compute_each_row_once(monkeypatch):
    # a space under the rule: the scan builds the matrix that sep_lower reads
    space = from_points(noise(1500))
    calls = count_rows(monkeypatch)
    greedy_separated_subset(space, 1.0)
    sep_lower(space, restarts=2)
    assert sorted(np.concatenate(calls).tolist()) == list(range(space.n))


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("kind", sorted(SET_SPACES))
def test_accessors_reject_ids_that_are_not_points(kind, held, monkeypatch):
    # id -1 of an unheld GEMM space of fewer than 1024 points used to read
    # the zero padding row of the kernel's operand: distances from the
    # centroid, not from point n - 1
    monkeypatch.setattr(mmspace, "AUTO_DENSE", mmspace.AUTO_DENSE if held else 0)
    space = SET_SPACES[kind](300)
    space.dense()
    reads = [space.dist_row, lambda i: space.dist_block([i]),
             lambda i: space.submatrix([i, 0]), lambda i: space.distance(i, 0),
             lambda i: space.distance(0, i), lambda i: space.min_dist_to([i])]
    for read in reads:
        for bad, match in ((-1, "out of range"), (300, "out of range"), (1.5, "integers"),
                           (True, "integers")):
            with pytest.raises(InputError, match=match):
                read(bad)
    # numpy would read a bool among numbers as 0 or 1, and refuse a ragged
    # list with its own ValueError
    for read in (space.dist_block, space.submatrix, space.min_dist_to):
        for bad in ([True, 0], [True, 1.0], [0, np.True_], (2, False), [[0], 1]):
            with pytest.raises(InputError, match="integers"):
                read(bad)
    # subspace used to cast ids: -1 took point n - 1, 0.7 point 0 and True
    # point 1, and n raised IndexError
    for bad, match in (([-1, 0], "out of range"), ([0.7, 2], "integers"),
                       ([True, 3], "integers"), ([0, 300], "out of range")):
        with pytest.raises(InputError, match=match):
            space.subspace(bad)
    assert bits(space.dist_row(299.0)) == bits(space.dist_block([299])[0])
    assert space.distance(299, 0) == space.submatrix([299, 0])[0, 1]
    assert space.is_dense == (held or kind == "matrix")


@pytest.mark.parametrize("n", [300, 1500])
@pytest.mark.parametrize("kind", ["cdist", "gemm", "hamming", "weighted"])
def test_char_size_makes_one_pass_and_fills_the_diameter(kind, n, monkeypatch):
    # 300 points: every pair fits the first bracket; 1500: n**2 exceeds
    # BLOCK_ENTRIES, and a pair sample read from coordinates picks it
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = SET_SPACES[kind](n)
    passes = count_passes(monkeypatch)
    got = char_size(space)
    assert passes == [True]
    interval = char_size_interval(space)
    assert not space.is_dense
    monkeypatch.undo()
    assert bits(space._diameter_cache) == bits(diameter(SET_SPACES[kind](n)))
    held = SET_SPACES[kind](n)
    want = pair_table_medians(held)
    assert got == want[0]
    assert interval == char_size_interval(held) == want


def test_a_bracket_topped_at_the_sample_end_reads_the_diameter_first(monkeypatch):
    # the largest pair: its sampled bracket runs to the end of the sample
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = from_points(cloud(50, 1500))
    passes = count_passes(monkeypatch)
    got = mmspace._pair_order_stats(space, None, [space.n ** 2])
    assert passes == [True, True]
    fresh = diameter(from_points(cloud(50, 1500)))
    assert bits(got) == bits(space._diameter_cache) == bits(fresh)


# -- column subsets and upper-triangle passes -------------------------------------


def column_sets(n: int, rng) -> list[np.ndarray]:
    """Suffixes from any column, from a multiple of 8 and from within the
    last 1024 columns, and gathered sets of under 1024 columns, of a
    multiple of 8 columns and of any size."""
    sets = [np.arange(c, n) for c in (0, int(rng.integers(n)), int(rng.integers(n)) // 8 * 8,
                                      max(0, n - int(rng.integers(1, 1024))))]
    for m in (min(n, int(rng.integers(1, 1024))), n // 16 * 8, int(rng.integers(1, n + 1))):
        if m:
            sets.append(np.sort(rng.choice(n, size=m, replace=False)))
    return sets


SUBSET_SPACES = {
    "gemm": [(5, 16), (300, 20), (1001, 16), (3000, 100), (4000, 1500), (10_000, 50)],
    "cdist": [(5, 3), (1001, GEMM_MIN_DIM - 1)],
    "hamming": [(5, 40), (1001, 40)],
}


@pytest.mark.parametrize("kernel", sorted(SUBSET_SPACES))
def test_rows_over_column_subsets_equal_full_rows(kernel):
    # the entries of any columns, written into any out that holds them, have
    # the bits of the same entries of full rows
    rng = np.random.default_rng(len(kernel))
    for n, d in SUBSET_SPACES[kernel]:
        x = cloud(d, n, seed=d) if n >= 300 else rng.normal(size=(n, d))
        space = (from_points(x) if kernel != "hamming"
                 else from_points((x > 0).astype(float), metric="normalized_hamming"))
        assert (space._gemm is not None) == (kernel == "gemm")
        for h in (1, 2, 3, 64, 209):
            rows = rng.permutation(n)[: min(h, n)]
            full = space._pairwise(rows)
            for cols in column_sets(n, rng):
                want = bits(full[:, cols])
                assert bits(space._pairwise(rows, cols)) == want, (n, d, h, cols[0])
                for width in (cols.size, n):
                    got = space._pairwise(rows, cols, np.full((rows.size, width), np.nan))
                    assert got.shape == (rows.size, cols.size)
                    assert bits(got) == want, (n, d, h, width)


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("kind", sorted(SET_SPACES))
def test_upper_blocks_are_the_upper_triangle(kind, held, monkeypatch):
    # 37 rows a block: the upper form steps by 32, the matrix's own blocks
    # by 37; block i0:i1 holds the columns from i0 on
    monkeypatch.setattr(mmspace, "AUTO_DENSE", mmspace.AUTO_DENSE if held else 0)
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 37 * 1001)
    space = SET_SPACES[kind](1001)
    ref = np.vstack([blk.copy() for _, blk in space.iter_blocks()])
    starts = []
    for ids, blk in space.iter_blocks(upper=True):
        starts.append(int(ids[0]))
        assert ids.tolist() == list(range(ids[0], ids[0] + len(ids)))
        assert bits(blk) == bits(ref[ids, ids[0] :])
    assert starts == list(range(0, 1001, 32))
    assert space.is_dense == (held or kind == "matrix")


@pytest.mark.parametrize("block_rows", [1, 3, 64])
@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("kind", sorted(SET_SPACES))
def test_chosen_blocks_are_the_rows_dist_block_reads(kind, held, block_rows, monkeypatch):
    # iter_blocks(ids=...) yields the ids in their order, repeats included,
    # block_rows at a time, and iter_rows their rows; a chosen-row read
    # never builds the matrix
    n = 300
    monkeypatch.setattr(mmspace, "AUTO_DENSE", mmspace.AUTO_DENSE if held else 0)
    space = SET_SPACES[kind](n)
    if held:
        space.dist
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", block_rows * n)
    ids = np.r_[7, 3, 7, 299, 0, 150, 150, 150, 42, 280:200:-3]
    want = space.dist_block(ids)
    got_ids, got = [], []
    for part, blk in space.iter_blocks(ids=ids):
        assert blk.shape == (part.size, n) and part.size <= block_rows
        got_ids += part.tolist()
        got.append(blk.tobytes())
    assert got_ids == ids.tolist()
    assert b"".join(got) == want.tobytes()
    assert [row.tobytes() for row in space.iter_rows(ids)] == [r.tobytes() for r in want]
    assert list(space.iter_blocks(ids=[])) == []
    assert space.is_dense == (held or kind == "matrix")


def lower_median_holds(space: MMSpace, c: float) -> bool:
    """The pairs below `c` miss half the pairs and those up to `c` reach it,
    counted over full rows."""
    below = at_most = 0
    for _, blk in space.iter_blocks():
        below += np.count_nonzero(blk < c)
        at_most += np.count_nonzero(blk <= c)
    return below < (space.n ** 2 + 1) // 2 <= at_most


def test_char_size_computes_the_upper_triangle_once(monkeypatch):
    # one counting pass over blocks [i0:i1] x [i0:n]: n (n + 1) / 2 entries
    # and half the square of each block's own columns; the pair sample
    # reads coordinates, not the kernel
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    x = np.random.default_rng(50).normal(size=(10_000, 50))
    space = from_points(x)
    n = space.n
    calls = count_rows(monkeypatch)
    c = char_size(space)
    assert 0 < calls.entries <= n * (n + space.block_rows) / 2
    monkeypatch.undo()
    assert lower_median_holds(from_points(x), c)
    fresh = max(float(blk.max()) for _, blk in from_points(x).iter_blocks())
    assert bits(space._diameter_cache) == bits(fresh)


@pytest.mark.parametrize("kind", ["gemm", "weighted"])
def test_growth_curve_narrows_to_the_free_points(kind, monkeypatch):
    # above the ball-complement limit: once at most half of the columns are
    # free the cache narrows to them, so the curve computes about 2/3 of
    # the n**2 entries, with the bits of the row-by-row loop over full rows
    n = conc_mod._BALL_COMPLEMENT_LIMIT + 104
    x = cloud(50, n, seed=7)
    w = np.random.default_rng(8).dirichlet(np.ones(n)) if kind == "weighted" else None
    held = from_points(x, weights=w)
    held.dense()
    a = int(np.argmax(held.dist_row(0)))
    b = int(np.argmax(held.dist_row(a)))
    want = row_by_row_growth_curve(held, a, b)
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    space = from_points(x, weights=w)
    calls = count_rows(monkeypatch)
    got = conc_mod._greedy_growth_curve(space, a, b)
    assert [v.tobytes() for v in got] == [v.tobytes() for v in want]
    assert not space.is_dense
    if kind == "gemm":  # takes every point, so fills the diameter
        assert calls.entries <= 0.75 * n * n
        assert bits(space._diameter_cache) == bits(diameter(held))
    assert len(np.concatenate(calls)) <= n


@pytest.mark.parametrize("kind", sorted(KERNELS))
def test_row_cache_narrows_to_the_kept_columns(kind, monkeypatch):
    # rows held across a narrowing keep their kept entries; later rows are
    # computed over the kept columns alone, each row at most once.  A held
    # matrix's rows cost nothing, and its cache does not narrow
    assert not mmspace.RowCache(KERNELS[kind](300)).narrows
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 16 * 1001)
    space = KERNELS[kind](1001)
    m = from_points(space.coords, metric=space.metric).dist
    calls = count_rows(monkeypatch)
    rows = mmspace.RowCache(space)
    assert rows.narrows
    rng = np.random.default_rng(3)
    cols, score = np.arange(space.n), rng.random(space.n)
    for step in range(3):
        for x in rng.choice(np.flatnonzero(score > -np.inf), 20, replace=False):
            assert bits(rows.take(int(x), score)) == bits(m[cols[x], cols])
            score[x] = -np.inf
        keep = np.sort(rng.choice(cols.size, cols.size // 2, replace=False))
        rows.narrow(keep)
        cols, score = cols[keep], score[keep]
    taken = np.concatenate(calls)
    assert np.unique(taken).size == taken.size
    assert not space.is_dense


def test_upper_passes_and_narrowed_scans_hold_no_more_memory():
    # char_size and sep_lower on an unheld 10**4 x 50 cloud.  Full-row
    # passes and scans peaked at 115.4-117.4 MB over 12 runs (median
    # 116.8), these at 113.3-114.7 MB over 9 (numpy 2.4.6 and its OpenBLAS
    # on 2 threads; 85.6 MB after the imports and the cloud): triangle
    # blocks are computed into the one block buffer, and a narrowed cache
    # keeps its rows in place
    setup = """
import numpy as np
from concdim.concentration import sep_lower
from concdim.mmspace import char_size, from_points
s = from_points(np.random.default_rng(50).normal(size=(10_000, 50)))
def check():
    c = char_size(s)
    prof = sep_lower(s, restarts=2)
    return [c, prof.sep.tolist(), s.is_dense]
"""
    (c, sep, materialized), _, peak_rss_mb = run_fresh(setup, "check()")
    assert c > 0.0 and 0.0 < sep[-1] <= sep[0]
    assert not materialized
    assert peak_rss_mb <= 116.0
