import math

import numpy as np
import pytest

from concdim.concentration import (
    ConcentrationProfile,
    alpha_exact_profile,
    sep_exact_profile,
    sep_hamming_profile,
    sep_lower,
)
from concdim.dimension import (
    dconc_to_point_bracket,
    dim_chavez,
    dim_concentration,
    dim_separation,
    dimension_report,
)
from concdim.errors import InputError
from concdim.mmspace import GeneratorSpec, from_distance_matrix, from_points, generate

from util import random_space


def two_point():
    return from_points([[0.0], [1.0]])


def singleton():
    return from_points([[0.0]])


# -- closed-form values ------------------------------------------------------


def test_two_point_concentration_dimension_is_one():
    prof = alpha_exact_profile(two_point())
    assert dim_concentration(prof) == pytest.approx(1.0)
    # alpha = 1/2 on [0, 3): the integral runs over the whole diameter
    prof = alpha_exact_profile(from_points([[0.0], [3.0]]))
    assert dim_concentration(prof) == pytest.approx(1.0 / 9.0)


def test_two_point_separation_dimension_is_one():
    prof = sep_exact_profile(two_point())
    assert dim_separation(prof) == pytest.approx(1.0)


def test_two_point_chavez_dimension_is_half():
    assert dim_chavez(two_point()) == pytest.approx(0.5)


def test_singleton_all_dimensions_infinite():
    s = singleton()
    assert dim_concentration(alpha_exact_profile(s)) == math.inf
    assert dim_separation(sep_exact_profile(s)) == math.inf
    assert dim_chavez(s) == math.inf


def test_chavez_hamming_closed_forms():
    for d in range(4, 13):
        s = generate(GeneratorSpec("hamming_cube", 0, {"d": d}))
        # product-measure distance is Binomial(d, 1/2)/d: mean 1/2 and
        # variance 1/(4d) give exactly d/2 with the diagonal included
        assert dim_chavez(s) == pytest.approx(d / 2, abs=1e-9)


# -- scale covariance -----------------------------------------------------------


def test_scale_covariance_exact():
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = random_space(rng)
        t = from_distance_matrix(2 * s.dist, weights=s.weights)
        assert dim_chavez(t) == dim_chavez(s)
        d_s = dim_concentration(alpha_exact_profile(s))
        d_t = dim_concentration(alpha_exact_profile(t))
        assert d_t == d_s / 4.0
        j_s = dim_separation(sep_exact_profile(s))
        j_t = dim_separation(sep_exact_profile(t))
        assert j_t == j_s / 4.0


# -- brackets ---------------------------------------------------------------------


def test_bracket_singleton_collapses_to_zero():
    br = dconc_to_point_bracket(alpha_exact_profile(singleton()))
    assert (br.lo, br.hi) == (0.0, 0.0)
    assert br.certified_upper


def test_bracket_two_point():
    br = dconc_to_point_bracket(alpha_exact_profile(two_point()))
    assert (br.lo, br.hi) == (0.5, 1.0)
    assert br.certified_upper


def test_bracket_lower_bound_profile_is_one_sided():
    from concdim.concentration import alpha_lower
    from concdim.mmspace import diameter

    s = generate(GeneratorSpec("sphere", 1, {"n_dim": 4, "n": 120}))
    prof = alpha_lower(s)
    br = dconc_to_point_bracket(prof)
    assert not br.certified_upper
    assert br.hi == diameter(s)
    assert 0.0 <= br.lo <= br.hi


def _crossing(d, alpha) -> float:
    """inf{eps : alpha(eps) <= eps/2} where alpha is ``alpha[k]`` on
    ``[d[k], d[k+1])`` and 0 from ``d[-1]`` on."""
    return min(max(e, 2 * a) for e, a, end in zip(d, alpha, [*d[1:], np.inf])
               if max(e, 2 * a) < end)


def test_bracket_reads_the_crossing_on_random_spaces():
    # alpha_exact alone, apart from the profile's sums: alpha is constant
    # from each realized distance to the next.  The step profile reads the
    # conventional 1/2 at 0 over all of [0, d_1), where alpha is
    # alpha_exact(d_1 / 2), so the exact bracket equals the crossing of that
    # reading, and the lower-bound bracket is checked against the true one
    from concdim.concentration import alpha_exact, alpha_lower

    rng = np.random.default_rng(0)
    for _ in range(100):
        s = from_points(rng.normal(size=(int(rng.integers(6, 15)), 3)))
        d = np.unique(s.dist)
        alpha = [alpha_exact(s, e) for e in d]
        c_step = _crossing(d, alpha)
        c = _crossing(d, [alpha_exact(s, d[1] / 2), *alpha[1:]])
        assert abs(dconc_to_point_bracket(alpha_exact_profile(s)).lo - c_step / 2) <= 1e-12
        assert dconc_to_point_bracket(alpha_lower(s)).lo <= c / 2 + 1e-12


def test_bracket_consistent_with_emd_upper_bound():
    # sqrt of the transport cost to a point mass upper-bounds the distance
    # to a point space, which can never undercut the bracket's lower end
    from concdim.transport import dconc_upper_via_emd

    rng = np.random.default_rng(6)
    for _ in range(10):
        s = random_space(rng, n=10)
        br = dconc_to_point_bracket(alpha_exact_profile(s))
        best = min(
            dconc_upper_via_emd(s, s.weights, np.eye(s.n)[j]) for j in range(s.n)
        )
        assert best >= br.lo - 1e-9


def _cube_alpha(d: int, t: int) -> float:
    """alpha(t/d) on the odd-dimensional Hamming cube: by Harper's theorem
    the ball of radius (d-1)/2, of mass exactly 1/2, is a worst half-mass
    set, and its closed t/d-neighbourhood is the ball of radius
    (d-1)/2 + t."""
    return 1 - sum(math.comb(d, k) for k in range(min(d, (d - 1) // 2 + t) + 1)) / 2**d


def test_bracket_on_the_hamming_cube_matches_the_closed_form():
    # the grid is the realized distances t/d; c is the least
    # max(t/d, 2 alpha(t/d)) below (t+1)/d, and the lower-bound profile's
    # certified end is the least max(t/d, 2 alpha((t+1)/d)) at most (t+1)/d
    from concdim.concentration import alpha_lower

    for d in (3, 5, 7, 9, 11):
        s = generate(GeneratorSpec("hamming_cube", 0, {"d": d}))
        a = [_cube_alpha(d, t) for t in range(d + 1)]
        ends = [(t + 1) / d for t in range(d)] + [math.inf]
        c = min(max(t / d, 2 * a[t]) for t in range(d + 1) if max(t / d, 2 * a[t]) < ends[t])
        lo = min(max(t / d, 2 * a[t + 1]) for t in range(d)
                 if max(t / d, 2 * a[t + 1]) <= ends[t]) / 2
        if d == 3:
            br = dconc_to_point_bracket(alpha_exact_profile(s))
            assert br.certified_upper
            assert abs(br.lo - c / 2) <= 1e-12 and abs(br.hi - c) <= 1e-12
        br = dconc_to_point_bracket(alpha_lower(s))
        assert abs(br.lo - lo) <= 1e-12
        assert br.lo <= c / 2
        if d == 9:
            assert c == 2 / 9 and abs(lo - 46 / 512) <= 1e-15


# -- trend properties ---------------------------------------------------------------


def test_hamming_separation_dimension_band():
    # band frozen from the first oracle run: ratios grow from ~1.16 to ~1.27
    for d in range(11, 26, 2):
        dim = dim_separation(sep_hamming_profile(d))
        assert 1.0 * d <= dim <= 1.5 * d


def test_hamming_separation_dimension_monotone():
    dims = [dim_separation(sep_hamming_profile(d)) for d in range(11, 26, 2)]
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_gaussian_family_chavez_monotone():
    dims = []
    for d in (4, 16, 64):
        s = generate(GeneratorSpec("gaussian_cloud", 50 + d,
                                   {"d": d, "sigma": d ** -0.5, "n": 1200}))
        dims.append(dim_chavez(s))
    assert dims[0] < dims[1] < dims[2]


def test_sphere_family_chavez_monotone():
    dims = []
    for d in (4, 16, 64):
        s = generate(GeneratorSpec("sphere", 60 + d, {"n_dim": d, "n": 1200}))
        dims.append(dim_chavez(s))
    assert dims[0] < dims[1] < dims[2]


def test_sphere_chavez_ratio_band_frozen():
    # distance-distribution dimension tracks the sphere dimension with a
    # stable ratio; band frozen from the first oracle run (1.67 .. 1.94)
    for d in (10, 30, 100):
        s = generate(GeneratorSpec("sphere", 400 + d, {"n_dim": d, "n": 2000}))
        assert 1.4 * d <= dim_chavez(s) <= 2.2 * d


def test_sphere_profile_dimension_regression_band():
    # profile-based dimensions of fixed-size samples saturate as the
    # ambient dimension outgrows the sampling resolution; these values are
    # regression-frozen from the first oracle run rather than Theta(d)
    from concdim.concentration import alpha_lower
    from concdim.features import dictionary
    from concdim.mmspace import diameter

    frozen = {10: (1.8375, 1.1361), 30: (1.0054, 0.8288)}
    for d, (want_c, want_s) in frozen.items():
        s = generate(GeneratorSpec("sphere", 500 + d, {"n_dim": d, "n": 1500}))
        feats = dictionary(s, "anchors_random", k=12, seed=d)
        prof = alpha_lower(s, np.linspace(0, diameter(s), 101), dictionary=feats)
        got_c = dim_concentration(prof)
        got_s = dim_separation(sep_lower(s, restarts=3, seed=d))
        assert got_c == pytest.approx(want_c, rel=0.2)
        assert got_s == pytest.approx(want_s, rel=0.2)


def test_sphere_low_dim_profile_dimensions_monotone():
    # resolution-limited sampling flattens these functionals in high
    # dimension, so the increase is asserted on well-sampled low dims
    from concdim.concentration import alpha_lower
    from concdim.features import dictionary
    from concdim.mmspace import diameter

    vals_c, vals_s = [], []
    for d in (2, 6):
        s = generate(GeneratorSpec("sphere", 80 + d, {"n_dim": d, "n": 3000}))
        feats = dictionary(s, "anchors_random", k=16, seed=d)
        prof = alpha_lower(s, np.linspace(0, diameter(s), 121), dictionary=feats)
        vals_c.append(dim_concentration(prof))
        vals_s.append(dim_separation(sep_lower(s, restarts=3, seed=d)))
    assert vals_c[0] < vals_c[1]
    assert vals_s[0] < vals_s[1]


# -- report -----------------------------------------------------------------------


def test_dimension_report_roundtrip():
    s = two_point()
    d = dimension_report(s, alpha_exact_profile(s), sep_exact_profile(s))
    assert d["dim_concentration"] == pytest.approx(1.0)
    assert d["dim_separation"] == pytest.approx(1.0)
    assert d["dim_chavez"] == pytest.approx(0.5)
    assert d["dconc_to_point"] == [0.5, 1.0]
    assert d["provenance"]["alpha"]["mode"] == "exact"


def test_dimension_report_infinite_encoding():
    s = singleton()
    d = dimension_report(s, alpha_exact_profile(s), sep_exact_profile(s))
    assert d["dim_concentration"] == "inf"
    assert d["dim_separation"] == "inf"
    assert d["dim_chavez"] == "inf"


def test_empty_profile_rejected():
    with pytest.raises(InputError):
        dim_concentration(ConcentrationProfile(np.array([]), np.array([]),
                                               "exact", 1.0))
