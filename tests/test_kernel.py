"""The distance layer: the GEMM kernel, its guard, and the blocked scans.

``scipy.spatial.distance.cdist`` is used here only as the reference.
"""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from concdim.concentration import greedy_separated_subset
from concdim.features import Feature, check_lipschitz
from concdim.mmspace import GEMM_ACCURACY, GEMM_MIN_DIM, MMSpace, from_points


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
    rows = from_points(x)  # never materialized
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
def test_kernel_matches_cdist(name, d):
    x = TRANSFORMS[name](cloud(d))
    space = from_points(x)
    assert (space._gemm is not None) == (d >= GEMM_MIN_DIM)
    ref = cdist(x, x)
    centred = x - x.mean(axis=0)
    bound = GEMM_ACCURACY * (1.0 + np.sqrt((centred * centred).sum(axis=1)).max())
    for got in every_path(x):
        k = got.shape[0]
        assert np.abs(got - ref[:k, :k]).max() <= bound
        assert (got >= 0).all()
        assert got[3, 7] == got[7, 3] == got[3, 50] == 0.0
        assert np.all(np.diag(got) == 0.0)
    m = space.dist
    assert np.array_equal(m, m.T)
    for i, j in [(10, 11), (199, 200)]:
        assert m[i, j] > 0 and abs(m[i, j] - ref[i, j]) <= 1e-6 * ref[i, j]


def test_kernel_falls_back_where_squared_norms_overflow():
    x = cloud(GEMM_MIN_DIM) * 1.2e153
    space = from_points(x)
    assert space._gemm is None
    ref = cdist(x[:2], x)
    assert np.isfinite(ref).all()
    assert np.array_equal(space.dist_block([0, 1]), ref)


def test_kernel_self_entry_does_not_trip_the_guard(monkeypatch):
    # rows are recomputed by direct differences only for their close pairs
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
