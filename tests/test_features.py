import numpy as np
import pytest

from concdim.errors import InputError, ResourceLimitError
from concdim.features import (
    Feature,
    LipschitzViolation,
    _certify_distance_combination,
    check_lipschitz,
    dictionary,
    distance_feature,
)
from concdim import mmspace
from concdim.mmspace import GeneratorSpec, from_points, generate

from util import random_space


def two_point():
    return from_points([[0.0], [1.0]])


def test_distance_feature_all_anchors_is_zero():
    s = two_point()
    f = distance_feature(s, [0, 1])
    assert f.values.tolist() == [0.0, 0.0]
    assert f.lipschitz_bound == 0.0


def test_distance_feature_two_point():
    f = distance_feature(two_point(), [0])
    assert f.values.tolist() == [0.0, 1.0]
    assert f.lipschitz_bound == 1.0


def test_distance_feature_cube_is_hamming_weight():
    s = generate(GeneratorSpec("hamming_cube", 0, {"d": 3}))
    f = distance_feature(s, [0])
    weights = s.coords.sum(axis=1) / 3.0
    assert np.allclose(f.values, weights)
    assert f.lipschitz_bound == 1.0


def test_distance_feature_rejects_empty_anchor_set():
    with pytest.raises(InputError, match="nonempty"):
        distance_feature(two_point(), [])
    for anchors in ([2], [-1], [0.5]):
        with pytest.raises(InputError, match="anchor ids"):
            distance_feature(two_point(), anchors)


def test_feature_refuses_non_finite_values():
    # distances that overflowed to inf made observable_diameter bisect forever
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InputError, match="non-finite"):
            Feature(np.array([0.0, bad]), 1.0, 1.0, "f")


def test_check_lipschitz_constant_function():
    f = check_lipschitz(two_point(), [0.7, 0.7])
    assert isinstance(f, Feature)
    assert f.lipschitz_bound == 0.0


def test_check_lipschitz_violation_names_pair():
    got = check_lipschitz(two_point(), [0.0, 2.0])
    assert isinstance(got, LipschitzViolation)
    assert got.ratio == pytest.approx(2.0)
    assert got.pair in {(0, 1), (1, 0)}


def test_sphere_coordinate_projection_is_nonexpanding():
    s = generate(GeneratorSpec("sphere", 4, {"n_dim": 5, "n": 150}))
    got = check_lipschitz(s, s.coords[:, 0])
    assert isinstance(got, Feature)
    assert got.lipschitz_bound <= 1.0 + 1e-12


def test_dictionary_anchors_all_count():
    feats = dictionary(two_point(), "anchors_all")
    assert len(feats) == 2


def test_dictionary_halfspace_two_point_values():
    s = two_point()
    rng_hits = []
    for seed in range(20):
        feats = dictionary(s, "halfspace_differences", k=1, seed=seed)
        vals = sorted(feats[0].values.tolist())
        rng_hits.append(vals)
        assert vals in ([-0.5, 0.5], [0.0, 0.0])
        assert feats[0].lipschitz_bound in (0.0, 1.0)
    assert [-0.5, 0.5] in rng_hits


def test_dictionary_random_anchors_deterministic():
    s = generate(GeneratorSpec("sphere", 8, {"n_dim": 3, "n": 60}))
    a = dictionary(s, "anchors_random", k=5, seed=42)
    b = dictionary(s, "anchors_random", k=5, seed=42)
    assert len(a) == 5
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    for kind in ("anchors_random", "halfspace_differences"):  # seed 0 by default
        assert ([f.name for f in dictionary(s, kind, k=5)]
                == [f.name for f in dictionary(s, kind, k=5, seed=0)])


def test_dictionary_rejects_unknown_kind():
    with pytest.raises(InputError, match="kind"):
        dictionary(two_point(), "nope")


def test_dictionary_members_certified_nonexpanding():
    rng = np.random.default_rng(7)
    for _ in range(25):
        s = random_space(rng)
        for kind, k in [("anchors_all", None), ("anchors_random", 3),
                        ("halfspace_differences", 3)]:
            for f in dictionary(s, kind, k=k, seed=int(rng.integers(1 << 30))):
                assert f.lipschitz_bound <= 1.0 + 1e-12


def test_distance_feature_triangle_bound_property():
    rng = np.random.default_rng(11)
    for _ in range(25):
        s = random_space(rng)
        anchors = rng.choice(s.n, size=int(rng.integers(1, s.n + 1)),
                             replace=False)
        f = distance_feature(s, anchors)
        v = f.values
        assert np.all(v[:, None] <= v[None, :] + s.dist + 1e-9)


def test_closed_form_certificate_matches_pair_scan():
    # distance features carry the closed form 1 (0 when constant); the
    # exhaustive scan of check_lipschitz is the reference it must match
    rng = np.random.default_rng(3)
    x = rng.normal(size=(150, 3))
    spaces = [
        from_points(rng.normal(size=(200, 3))),
        from_points(rng.normal(size=(200, 20)) * 1e3),
        from_points(rng.normal(size=(200, 50))),
        generate(GeneratorSpec("hamming_sample", 1, {"d": 6, "n": 200})),  # ties, duplicates
        from_points(np.vstack([x, x[:50]])),  # duplicate points
        *(random_space(rng, n=12) for _ in range(6)),
    ]
    for s in spaces:
        feats = [distance_feature(s, [a]) for a in rng.choice(s.n, 3, replace=False)]
        feats.append(distance_feature(s, rng.choice(s.n, 7, replace=False)))
        feats.append(distance_feature(s, np.arange(s.n)))
        feats += dictionary(s, "halfspace_differences", k=8, seed=int(rng.integers(99)))
        for f in feats:
            measured = check_lipschitz(s, f.values)
            assert isinstance(measured, Feature)
            assert f.lipschitz_bound in (0.0, 1.0)
            assert abs(f.lipschitz_bound - measured.lipschitz_bound) <= 1e-12, f.name


def test_coincident_points_read_equal_rows(monkeypatch):
    # held and computed GEMM rows are the same rows, so two coincident
    # points read equal ones and their half-difference is constant 0
    x = np.random.default_rng(5).normal(size=(150, 20))
    for auto_dense in (mmspace.AUTO_DENSE, 0):
        monkeypatch.setattr(mmspace, "AUTO_DENSE", auto_dense)
        s = from_points(np.vstack([x, x]))
        assert s._gemm is not None
        for p in range(150):
            values = (s.dist_row(p) - s.dist_row(p + 150)) / 2.0
            assert not values.any()
            f = _certify_distance_combination(values, "half_diff")
            assert f.lipschitz_bound == 0.0 == check_lipschitz(s, values).lipschitz_bound
        assert s.is_dense == (auto_dense > 0)


def test_centered_features_have_sup_norm_within_diameter():
    rng = np.random.default_rng(5)
    from concdim.mmspace import diameter

    for _ in range(20):
        s = random_space(rng)
        for f in dictionary(s, "anchors_all"):
            assert f.sup_norm <= diameter(s) + 1e-9


def test_anchor_features_are_the_distance_rows_as_read():
    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_space(rng)
        feats = dictionary(s, "anchors_all")
        assert np.array([f.values for f in feats]).tobytes() == s.dist.tobytes()
        assert [f.sup_norm for f in feats] == s.dist.max(axis=1).tolist()


def test_dictionaries_beyond_a_dense_matrix_are_refused_before_any_draw(monkeypatch):
    s = from_points(np.arange(6.0)[:, None])
    monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("drew"))
    with pytest.raises(ResourceLimitError, match="MATERIALIZE_LIMIT"):
        dictionary(s, "halfspace_differences", k=10**9, seed=0)
    limit = mmspace.MATERIALIZE_LIMIT
    with pytest.raises(ResourceLimitError, match=f"{limit + 1} features"):
        dictionary(from_points(np.zeros((limit + 1, 1))), "anchors_all")
    monkeypatch.undo()
    # anchors_random holds at most n features however large k is
    assert len(dictionary(s, "anchors_random", k=10**9, seed=0)) == 6
