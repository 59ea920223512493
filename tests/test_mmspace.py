import numpy as np
import pytest

from concdim import mmspace
from concdim.errors import InputError, ResourceLimitError
from concdim.mmspace import (
    AUTO_DENSE,
    GeneratorSpec,
    char_size,
    char_size_interval,
    diameter,
    from_distance_matrix,
    from_points,
    generate,
    load_distance_csv,
    load_points_csv,
    product_distance_moments,
    weighted_median,
)

from util import count_passes, count_rows, pair_table_medians, run_fresh, sorted_medians


def test_single_point():
    s = from_points([[0.0]])
    assert s.n == 1
    assert s.dist.tolist() == [[0.0]]
    assert s.weights.tolist() == [1.0]
    assert diameter(s) == 0.0
    assert char_size(s) == 0.0


def test_unit_segment():
    s = from_points([[0.0], [1.0]])
    assert s.dist[0, 1] == 1.0


def test_normalized_hamming_by_hand():
    s = from_points([[0, 0, 0], [0, 1, 1], [1, 0, 1]], metric="normalized_hamming")
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert s.dist[i, j] == pytest.approx(2 / 3)


def test_from_points_rejects_nonfinite_with_row():
    with pytest.raises(InputError, match="row 1"):
        from_points([[0.0], [np.nan]])


def test_from_points_rejects_coordinates_whose_distances_overflow():
    # finite coordinates 2e308 apart; the Hamming metric cannot overflow
    x = [[1e308, 0.0], [-1e308, 0.0]]
    with pytest.raises(InputError, match="overflow"):
        from_points(x)
    assert from_points(x, metric="normalized_hamming").dist[0, 1] == 0.5
    assert from_points([[1e153] * 16, [-1e153] * 16]).n == 2


def test_from_points_rejects_negative_weight():
    with pytest.raises(InputError, match="negative weight"):
        from_points([[0.0], [1.0]], weights=[1.5, -0.5])


def test_distance_matrix_two_point():
    s = from_distance_matrix([[0, 1], [1, 0]])
    assert s.n == 2
    assert np.allclose(s.weights, 0.5)


def test_distance_matrix_asymmetry_names_indices():
    with pytest.raises(InputError, match=r"\(0, 1\)"):
        from_distance_matrix([[0, 1], [2, 0]])


def test_distance_matrix_triangle_violation_names_triple():
    with pytest.raises(InputError, match="triangle"):
        from_distance_matrix([[0, 1, 3], [1, 0, 1], [3, 1, 0]])


def test_matrix_above_exhaustive_limit_checks_a_subset():
    n = 600
    rng = np.random.default_rng(4)
    m = rng.uniform(0.5, 1.0, size=(n, n))  # any such matrix is a metric
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    ids = np.random.default_rng(mmspace._CHECK_SEED).choice(
        n, size=mmspace._CHECK_SUBSET_SIZE, replace=False)
    i, j, k = (int(ids[t]) for t in (5, 17, 0))
    m[i, j] = m[j, i] = 2.5
    with pytest.raises(InputError, match=rf"triangle .* \({i}, {j}, {k}\)"):
        from_distance_matrix(m)


def test_construction_computes_no_distance(monkeypatch):
    calls = count_rows(monkeypatch)
    rng = np.random.default_rng(2)
    for d in (3, 20):
        s = from_points(rng.normal(size=(700, d)))
        s.subspace(np.arange(0, 700, 2))
    from_points(rng.integers(0, 2, size=(700, 8)), metric="normalized_hamming")
    sphere = generate(GeneratorSpec("sphere", 1, {"n_dim": 2, "n": 700}))
    for fam, params in [
        ("hamming_cube", {"d": 10}),
        ("hamming_sample", {"d": 8, "n": 700}),
        ("gaussian_cloud", {"d": 30, "sigma": 1.0, "n": 700}),
        ("noisy_embedding", {"base": sphere, "ambient_d": 20, "sigma": 0.1, "n": 700}),
    ]:
        generate(GeneratorSpec(fam, 1, params)).subspace([0, 1, 2])
    assert calls == []


def test_generator_determinism():
    for fam, params in [
        ("sphere", {"n_dim": 5, "n": 64}),
        ("hamming_sample", {"d": 12, "n": 40}),
        ("gaussian_cloud", {"d": 4, "sigma": 0.3, "n": 50}),
    ]:
        a = generate(GeneratorSpec(fam, 1234, params))
        b = generate(GeneratorSpec(fam, 1234, params))
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.weights, b.weights)


def test_hamming_cube_one():
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 1}))
    assert s.n == 2
    assert s.dist[0, 1] == 1.0


def test_hamming_cube_three_pair_multiset():
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 3}))
    iu = np.triu_indices(8, 1)
    vals, counts = np.unique(s.dist[iu], return_counts=True)
    assert np.allclose(vals, [1 / 3, 2 / 3, 1.0])
    assert counts.tolist() == [12, 12, 4]


def test_hamming_cube_char_size_and_diameter():
    for d in (3, 4, 6, 8):
        s = generate(GeneratorSpec("hamming_cube", 0, {"d": d}))
        assert diameter(s) == 1.0
        assert abs(char_size(s) - 0.5) <= 1 / (2 * d) + 1e-12


def test_hamming_cube_resource_limit():
    with pytest.raises(ResourceLimitError, match="d <= 20"):
        generate(GeneratorSpec("hamming_cube", 0, {"d": 21}))


BASE = from_points([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("family, params", [
    ("sphere", {"n_dim": 2, "n": 2.5}),
    ("sphere", {"n_dim": 1.9, "n": 10}),
    ("sphere", {"n_dim": 2, "n": True}),
    ("sphere", {"n_dim": 0, "n": 10}),
    ("sphere", {"n_dim": 2, "n": "10"}),
    ("hamming_cube", {"d": 2.7}),
    ("hamming_cube", {"d": True}),
    ("hamming_cube", {"d": 0}),
    ("hamming_sample", {"d": 0, "n": 10}),
    ("hamming_sample", {"d": -3, "n": 10}),
    ("hamming_sample", {"d": 4, "n": 0}),
    ("gaussian_cloud", {"d": 3, "sigma": -1.0, "n": 10}),
    ("gaussian_cloud", {"d": 3, "sigma": float("nan"), "n": 10}),
    ("gaussian_cloud", {"d": 3, "sigma": float("inf"), "n": 10}),
    ("gaussian_cloud", {"d": 2.5, "sigma": 1.0, "n": 10}),
    ("gaussian_cloud", {"d": 3, "sigma": 1.0, "n": float("nan")}),
    ("noisy_embedding", {"base": BASE, "ambient_d": 2.5, "sigma": 0.1, "n": 10}),
    ("noisy_embedding", {"base": BASE, "ambient_d": 3, "sigma": -1, "n": 10}),
    ("noisy_embedding", {"base": BASE, "ambient_d": 3, "sigma": 0.1, "n": 10.5}),
])
def test_generators_refuse_counts_that_are_not_whole_and_bad_sigma(family, params):
    with pytest.raises(InputError, match="must be an integer >= 1|sigma must be finite"):
        generate(GeneratorSpec(family, 0, params))


def test_generators_take_integral_float_counts():
    # the command line reads n=1e4 as a float
    for family, params in [("sphere", {"n_dim": 2, "n": 40}),
                           ("hamming_sample", {"d": 6, "n": 40}),
                           ("gaussian_cloud", {"d": 3, "sigma": 0.5, "n": 40}),
                           ("noisy_embedding", {"base": BASE, "ambient_d": 3,
                                                "sigma": 0.0, "n": 40})]:
        as_floats = {k: float(v) if k in ("n", "n_dim", "d", "ambient_d") else v
                     for k, v in params.items()}
        a = generate(GeneratorSpec(family, 3, params))
        b = generate(GeneratorSpec(family, 3, as_floats))
        assert a.coords.tobytes() == b.coords.tobytes() and a.n == 40
    assert generate(GeneratorSpec("hamming_cube", 0, {"d": 3.0})).n == 8


@pytest.mark.parametrize("coords", [np.zeros((5, 0)), np.zeros((0, 2)), np.zeros(0)])
def test_from_points_refuses_coordinates_with_no_column_or_row(coords):
    for metric in ("euclidean", "normalized_hamming"):
        with pytest.raises(InputError, match=r"n, d >= 1"):
            from_points(coords, metric=metric)


def test_generate_rejects_oversized_sample():
    with pytest.raises(ResourceLimitError, match="limit"):
        generate(GeneratorSpec("gaussian_cloud", 0,
                               {"d": 2, "sigma": 1.0, "n": 2_000_000}))


def test_char_size_two_point_medians():
    s = from_points([[0.0], [1.0]])
    assert char_size(s) == 0.0
    assert char_size_interval(s) == (0.0, 1.0)


def test_weighted_median_conventions():
    vals = [0.0, 1.0]
    w = [0.5, 0.5]
    assert weighted_median(vals, w) == 0.0
    assert weighted_median([3.0], [1.0]) == 3.0


def test_weighted_median_equals_a_full_sort_bit_for_bit():
    # seeded sizes from 1 to 2000; values with and without ties; weights
    # 1/n, equal but not 1/n (a normalized column of 0.7), and random
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 4, 5, 7, 8, 31, 64, 257, 1000, 1999, 2000,
             *rng.integers(1, 2001, 12).tolist()]
    for n in sizes:
        for values in (rng.normal(size=n), rng.integers(0, 4, n).astype(float),
                       np.full(n, 2.5)):
            column = np.full(n, 0.7)
            for w in (np.full(n, 1.0 / n), column / column.sum(), rng.random(n) + 0.01,
                      np.where(rng.random(n) < 0.5, 0.0, 1.0 / n)):
                if not w.any():
                    continue
                want = sorted_medians(values, w, float(w.sum()))
                # the upper median is char_size_interval's rule, picked alone
                masses, (_, upper) = mmspace._median_targets(n, w, float(w.sum()))
                got = (weighted_median(values, w),
                       mmspace.pick_order_stats(values.copy(), masses, 0.0, [upper])[0])
                assert np.array(got).tobytes() == np.array(want).tobytes(), (n, w[:3])
                if np.all(w == w[0]):  # the ranks are what mass thresholds pick
                    order = np.argsort(values, kind="stable")
                    cw = np.cumsum(w[order])
                    ks = (np.searchsorted(cw, 0.5 * cw[-1] - 1e-12, side="left"),
                          np.searchsorted(cw, 0.5 * cw[-1] + 1e-12, side="right"))
                    assert got == tuple(values[order][min(k, n - 1)] for k in ks)


def test_sphere_sample_diameter_bound():
    s = generate(GeneratorSpec("sphere", 3, {"n_dim": 4, "n": 300}))
    assert diameter(s) <= 2.0 + 1e-12


def test_sphere_char_size_trend():
    s = generate(GeneratorSpec("sphere", 5, {"n_dim": 25, "n": 2000}))
    assert abs(char_size(s) - np.sqrt(2)) <= 0.05 * np.sqrt(2)


def test_gaussian_cloud_median_distance_band():
    spec = GeneratorSpec("gaussian_cloud", 11,
                         {"d": 50, "sigma": (1 / 50) ** 0.5, "n": 10_000})
    s = generate(spec)
    med = char_size(s)
    assert 1.34 <= med <= 1.49


def test_noisy_embedding_shapes_and_determinism():
    base = from_points([[0.0, 0.0], [1.0, 0.0]])
    spec = GeneratorSpec("noisy_embedding", 9,
                         {"base": base, "ambient_d": 6, "sigma": 0.1, "n": 40})
    a = generate(spec)
    b = generate(spec)
    assert a.coords.shape == (40, 6)
    assert np.array_equal(a.coords, b.coords)


def test_metric_axioms_on_generated_spaces():
    rng = np.random.default_rng(0)
    for fam, params in [
        ("sphere", {"n_dim": 2, "n": 40}),
        ("hamming_sample", {"d": 6, "n": 30}),
        ("gaussian_cloud", {"d": 3, "sigma": 1.0, "n": 35}),
    ]:
        s = generate(GeneratorSpec(fam, int(rng.integers(1 << 30)), params))
        d = s.dist
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        for k in range(s.n):
            assert np.all(d <= d[:, [k]] + d[[k], :] + 1e-9)


def test_product_moments_two_point():
    s = from_points([[0.0], [1.0]])
    m, var = product_distance_moments(s)
    assert m == pytest.approx(0.5)
    assert var == pytest.approx(0.25)


def test_lazy_rows_match_dense(monkeypatch):
    spec = GeneratorSpec("gaussian_cloud", 2, {"d": 3, "sigma": 1.0, "n": 25})
    s = generate(spec)
    dense = s.dist
    monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)  # rows computed one at a time
    lazy = generate(spec)
    for i in (0, 7, 24):
        row = lazy.dist_row(i)
        assert np.allclose(row, dense[i], atol=1e-12)
    assert not lazy.is_dense


def test_points_csv_roundtrip(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x0,x1,weight\n0.0,0.0,2.0\n1.0,0.0,1.0\n0.0,1.0,1.0\n")
    s = load_points_csv(path)
    assert s.n == 3
    assert np.allclose(s.weights, [0.5, 0.25, 0.25])
    assert s.dist[0, 1] == pytest.approx(1.0)


def test_points_csv_bad_line_number(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("x0\n0.0\noops\n")
    with pytest.raises(InputError, match="line 3"):
        load_points_csv(path)


def test_distance_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1\n1,0\n")
    s = load_distance_csv(path)
    assert s.dist[0, 1] == 1.0


def test_distance_csv_rejects_nonsquare(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("0,1,2\n1,0,1\n")
    with pytest.raises(InputError, match="square"):
        load_distance_csv(path)


def test_subspace_induced_metric():
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 3}))
    sub = s.subspace([0, 3, 5])
    assert sub.n == 3
    assert np.allclose(sub.dist, s.dist[np.ix_([0, 3, 5], [0, 3, 5])])
    assert np.allclose(sub.weights, 1 / 3)


def test_weighted_pair_statistics_run_above_auto_dense():
    # the weighted n**2 tables these statistics used to sort took 1.7 and
    # 2.2 GB at n=6000; the blocked pair selection and the observable
    # diameter's selection over windows of sorted values hold no such
    # table, and the matrix is never built
    setup = f"""
import numpy as np
from scipy.spatial.distance import cdist
from concdim.concentration import observable_diameter
from concdim.features import dictionary
from concdim.mmspace import char_size, from_points
rng = np.random.default_rng(0)
n = {AUTO_DENSE + 1}
w = rng.random(n) + 0.5
w = w / w.sum()
x = rng.normal(size=(n, 3))
s = from_points(x, weights=w)
feats = dictionary(s, "anchors_random", k=1, seed=0)
def masses(c):
    below = at_most = 0.0
    for i0 in range(0, n, 500):
        d = cdist(x[i0 : i0 + 500], x)
        below += float(w[i0 : i0 + 500] @ ((d < c) @ w))
        at_most += float(w[i0 : i0 + 500] @ ((d <= c) @ w))
    return below, at_most
def check():
    c = char_size(s)
    obs = observable_diameter(s, 0.25, feats)
    return [c, obs, s.is_dense, *masses(c)]
"""
    (c, obs, materialized, below, at_most), _, peak_rss_mb = run_fresh(setup, "check()")
    assert below < 0.5 - 1e-12 <= at_most
    assert obs > 0.0
    assert not materialized
    assert peak_rss_mb < 250.0


def _pair_statistic_spaces():
    rng = np.random.default_rng(23)
    yield from_points([[0.5, 1.0]])
    yield from_points([[0.0], [1.0]])
    yield from_points([[0.0], [1.0]], weights=[0.75, 0.25])
    yield generate(GeneratorSpec("hamming_cube", 0, {"d": 6}))
    cube = generate(GeneratorSpec("hamming_cube", 0, {"d": 6}))
    w = rng.random(cube.n) + 0.5
    yield from_points(cube.coords, metric="normalized_hamming", weights=w / w.sum())
    for n, d in ((7, 2), (40, 3), (61, 20)):
        x = rng.normal(size=(n, d))
        yield from_points(x)
        w = rng.random(n) + 0.5
        yield from_points(x, weights=w / w.sum())
    m = rng.uniform(0.5, 1.0, size=(30, 30))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    yield from_distance_matrix(m)
    # 450 of the 900 pairs lie at distance 0 or 1, the rest at 2: the lower
    # median is 1 and the upper 2, and a bracket holding both holds all
    # pairs but the diagonal, so the two selections go apart
    iu = np.triu_indices(30, 1)
    pick = rng.choice(iu[0].size, 210, replace=False)
    m = np.full((30, 30), 2.0)
    m[iu[0][pick], iu[1][pick]] = 1.0
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    yield from_distance_matrix(m)
    # one pair moved from 2 to 1.5: the upper median is 1.5, inside the
    # sampled bracket [1, 2] but below its top, and the ties at 1 keep the
    # bracket overfull, so the two medians must narrow to their own bins
    i = np.flatnonzero(m[iu] == 2.0)[0]
    m[iu[0][i], iu[1][i]] = m[iu[1][i], iu[0][i]] = 1.5
    yield from_distance_matrix(m)


@pytest.mark.parametrize("held", [True, False])
@pytest.mark.parametrize("block_entries", [mmspace.BLOCK_ENTRIES, 64])
def test_pair_medians_match_the_full_table(monkeypatch, held, block_entries):
    # small blocks send every space of more than 8 points through the
    # sampled bracket
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", block_entries)
    if not held:
        monkeypatch.setattr(mmspace, "AUTO_DENSE", 0)
    for s in _pair_statistic_spaces():
        ref = pair_table_medians(s)
        assert char_size_interval(s) == ref
        assert char_size(s) == ref[0]
        assert s.is_dense == (held or s.coords is None)


@pytest.mark.parametrize("bracket, passes", [
    ("sampled", 1), ("everything", 2), ("below", 3), ("above", 3)])
@pytest.mark.parametrize("weighted", [False, True])
def test_pair_selection_exits(monkeypatch, bracket, passes, weighted):
    """Every exit of the selection loop gives the full-table value.  With
    128 values per bracket, the 2304 pairs here are collected from a
    sampled bracket; a bracket holding all of them is narrowed by bins
    and then collected; a bracket that misses on either side costs one
    more pass.  The sample itself makes no pass, and the first counting
    pass fills the diameter, so `passes` counts the counting passes of the
    two medians selected together.  They share every pass but for the
    last when they part: the weighted medians are one distance, and the
    uniform ones share a bin of the range left by `above` but not of the
    ranges that `everything` and `below` narrow, where each is collected
    on its own."""
    parted = not weighted and bracket in ("everything", "below")
    rng = np.random.default_rng(5)
    x = rng.normal(size=(48, 3))
    w = None
    if weighted:
        w = rng.random(48) + 0.5
        w = w / w.sum()
    ref = pair_table_medians(from_points(x, weights=w))
    if bracket != "sampled":
        # pair distances of this cloud lie in (0.1, 6)
        top = diameter(from_points(x))
        fake = {"everything": (0.0, top), "below": (0.0, 0.1), "above": (6.0, top)}
        monkeypatch.setattr(mmspace, "_pair_sample_bracket",
                            lambda *args: fake[bracket])
    s = from_points(x, weights=w)
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 128)
    seen = count_passes(monkeypatch)
    assert char_size_interval(s) == ref
    assert len(seen) == passes + parted
    assert s._diameter_cache == diameter(from_points(x))


def test_pair_selection_returns_a_single_valued_bracket(monkeypatch):
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 8}))
    monkeypatch.setattr(mmspace, "BLOCK_ENTRIES", 1024)
    monkeypatch.setattr(mmspace, "_pair_sample_bracket", lambda *args: (0.5, 0.5))
    seen = count_passes(monkeypatch)
    # a fifth of the 65536 pairs lie at distance 1/2, the median: far more
    # than a bracket holds, so only the single-valued exit ends the loop,
    # for both medians in the first pass, which also fills the diameter
    assert char_size_interval(s) == (0.5, 0.5)
    assert len(seen) == 1
    assert s._diameter_cache == 1.0
