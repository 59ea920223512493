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

from util import run_fresh


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
    def pairwise(*args, **kwargs):
        raise AssertionError("distance computed at construction")

    monkeypatch.setattr(mmspace.MMSpace, "_pairwise", pairwise)
    rng = np.random.default_rng(2)
    for d in (3, 20):
        s = from_points(rng.normal(size=(700, d)))
        s.subspace(np.arange(0, 700, 2))
        s.scaled(3.0)
    from_points(rng.integers(0, 2, size=(700, 8)), metric="normalized_hamming")
    sphere = generate(GeneratorSpec("sphere", 1, {"n_dim": 2, "n": 700}))
    for fam, params in [
        ("hamming_cube", {"d": 10}),
        ("hamming_sample", {"d": 8, "n": 700}),
        ("gaussian_cloud", {"d": 30, "sigma": 1.0, "n": 700}),
        ("noisy_embedding", {"base": sphere, "ambient_d": 20, "sigma": 0.1, "n": 700}),
    ]:
        generate(GeneratorSpec(fam, 1, params)).subspace([0, 1, 2])


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
    assert weighted_median(vals, w, "lower") == 0.0
    assert weighted_median(vals, w, "upper") == 1.0
    assert weighted_median([3.0], [1.0], "lower") == 3.0


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


def test_scaled_space():
    s = from_points([[0.0], [1.0], [3.0]])
    t = s.scaled(2.0)
    assert np.allclose(t.dist, 2.0 * s.dist)


def test_weighted_pair_statistics_refuse_above_bound():
    # one n**2 float64 table at this size is 288 MB; the refused paths
    # would peak near 1.7 GB (char_size) and 2.2 GB (observable diameter)
    setup = f"""
import numpy as np
from concdim.concentration import observable_diameter
from concdim.errors import ResourceLimitError
from concdim.features import dictionary
from concdim.mmspace import char_size, from_points
rng = np.random.default_rng(0)
n = {AUTO_DENSE + 1}
w = rng.random(n) + 0.5
s = from_points(rng.normal(size=(n, 3)), weights=w / w.sum())
feats = dictionary(s, "anchors_random", k=1, seed=0)
def refused(call):
    try:
        call()
    except ResourceLimitError:
        return True
    return False
def check():
    return [refused(lambda: char_size(s)),
            refused(lambda: observable_diameter(s, 0.25, feats)), s.is_dense]
"""
    (pair_refused, obs_refused, materialized), _, peak_rss_mb = run_fresh(setup, "check()")
    assert pair_refused and obs_refused
    assert not materialized
    assert peak_rss_mb < 250.0
