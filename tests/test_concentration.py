import math
from fractions import Fraction

import numpy as np
import pytest

from concdim.concentration import (
    MAX_ANALYTIC_CUBE_DIM,
    MAX_PROFILE_CUBE_DIM,
    _cascade_shadow,
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
from concdim.errors import InputError, ResourceLimitError
from concdim.features import check_lipschitz, dictionary, distance_feature
from concdim.mmspace import GeneratorSpec, diameter, from_points, generate

from util import naive_alpha, naive_sep, random_space


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
    assert alpha_exact(s, 0.0, convention_at_zero=False) < 0.5


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


def test_alpha_profile_matches_pointwise_oracle():
    rng = np.random.default_rng(1)
    for _ in range(6):
        s = random_space(rng, n=7)
        prof = alpha_exact_profile(s)
        for eps, val in zip(prof.eps_grid[1:], prof.alpha[1:]):
            assert val == pytest.approx(naive_alpha(s, float(eps)), abs=1e-12)


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


def test_sep_lower_dominated_by_exact():
    rng = np.random.default_rng(9)
    for _ in range(20):
        s = random_space(rng)
        prof = sep_lower(s, restarts=4, seed=int(rng.integers(1 << 30)))
        for kappa, val in zip(prof.kappa_grid, prof.sep):
            assert val <= sep_exact(s, float(kappa)) + 1e-12


def test_sep_lower_two_point():
    prof = sep_lower(two_point(), restarts=2)
    idx = int(np.searchsorted(prof.kappa_grid, 0.4))
    assert prof.sep[idx] == 1.0


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
            assert _cascade_shadow(s, k) == linear_cascade_shadow(s, k), (s, k)


def test_hamming_cube_dimension_ceilings():
    with pytest.raises(InputError):
        sep_hamming_analytic(MAX_ANALYTIC_CUBE_DIM + 1, 0.25)
    with pytest.raises(InputError):
        sep_hamming_profile(MAX_PROFILE_CUBE_DIM + 1)
    with pytest.raises(InputError):
        sep_hamming_analytic(0, 0.25)
    assert sep_hamming_analytic(200, 0.25) == 0.05


def test_hamming_analytic_rejects_bad_kappa():
    with pytest.raises(InputError):
        sep_hamming_analytic(4, 0.75)
    with pytest.raises(InputError):
        sep_hamming_analytic(4, 0.0)


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
            med = weighted_median(f.values, s.weights, "lower")
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
    assert alpha_exact(s, 0.0, convention_at_zero=False) == 0.5
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
