"""Each output check accepts concdim's real output and rejects a perturbed one.

Run with ``python -m pytest perfbench/test_checks.py``; the inputs are
small, so the file takes a few seconds.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks as ck  # noqa: E402
import run  # noqa: E402
from concdim import concentration as conc, covering as cov  # noqa: E402
from concdim import dimension as dim, features as feat, mmspace as mm  # noqa: E402
from concdim import transport as tr  # noqa: E402


def sphere(n_dim: int, n: int, seed: int = 0):
    return mm.generate(mm.GeneratorSpec("sphere", seed, {"n_dim": n_dim, "n": n}))


def test_greedy_coverage():
    d = 8
    x = np.random.default_rng(0).normal(0.0, np.sqrt(1.0 / d), size=(300, d))
    kept = len(conc.greedy_separated_subset(mm.from_points(x), 1.0))
    assert ck.check_greedy_coverage(x, 1.0, kept / 300) == []
    assert ck.check_greedy_coverage(x, 1.0, (kept + 1) / 300)


def test_dim_claim():
    assert ck.check_dim_claim(0.82) == []
    assert ck.check_dim_claim(1.2)


def test_pair_order_stat():
    x = np.random.default_rng(1).normal(size=(200, 5))
    c = mm.char_size(mm.from_points(x))
    k = (200 * 200 + 1) // 2
    assert ck.check_pair_order_stat(x, c, k) == []
    assert ck.check_pair_order_stat(x, c + 1e-3, k)
    assert ck.check_pair_order_stat(x, c - 1e-3, k)


def test_sphere_char_size_and_chavez():
    s = sphere(25, 300)
    median, dist = ck.lower_median_pairs(s.coords)
    c = mm.char_size(s)
    assert ck.check_sphere_char_size(c, median) == []
    assert ck.check_sphere_char_size(c + 1e-9, median)
    assert ck.check_sphere_char_size(1.0, 1.0)  # outside 5% of sqrt(2)
    chavez = dim.dim_chavez(s)
    assert ck.check_chavez(chavez, dist) == []
    assert ck.check_chavez(chavez * 1.001, dist)


def test_obs_diameter_and_ratio():
    s = sphere(5, 400)
    feats = feat.dictionary(s, "anchors_random", k=8, seed=3)
    value = conc.observable_diameter(s, 0.05, feats)
    anchors = ck.anchor_ids(f.name for f in feats)
    assert ck.check_obs_diameter(s.coords, anchors, 0.05, value) == []
    assert ck.check_obs_diameter(s.coords, anchors, 0.05, value + 1e-3)
    assert ck.check_obs_diameter(s.coords, anchors, 0.05, value - 1e-3)
    assert ck.check_obs_ratio(0.5, 1.0) == []
    assert ck.check_obs_ratio(0.7, 1.0)
    with pytest.raises(ValueError):
        ck.anchor_ids(["half_diff(1,2)"])


def test_alpha_envelope():
    s = sphere(2, 400, seed=4)
    feats = feat.dictionary(s, "anchors_random", k=4, seed=5)
    centers = [7, 77, 177, 277]
    prof = conc.alpha_lower(s, np.linspace(0.0, mm.diameter(s), 41),
                            dictionary=feats, ball_centers=centers)
    witnesses = ck.anchor_ids(f.name for f in feats) + centers
    args = (s.coords, witnesses, prof.eps_grid, prof.diameter)
    assert ck.check_alpha_envelope(*args, prof.alpha) == []
    j = int(np.flatnonzero((prof.alpha > 0.05) & (prof.alpha < 0.45))[0])
    for delta in (-0.01, 0.01):
        bad = prof.alpha.copy()
        bad[j] += delta
        assert ck.check_alpha_envelope(*args, bad)


def test_brackets():
    assert ck.check_strictly_decreasing([0.32, 0.27, 0.25], "lows") == []
    assert ck.check_strictly_decreasing([0.32, 0.32, 0.25], "lows")
    assert ck.check_resolved(0.1, 0.3) == []
    assert ck.check_resolved(0.2, 0.3)
    grid = np.array([0.0, 0.1, 0.2, 0.3])
    assert ck.bracket_lower_end(grid, [0.5, 0.4, 0.1, 0.0], 0.3) == 0.1
    assert ck.bracket_lower_end(grid, [0.5, 0.5, 0.5, 0.5], 0.3) == 0.15


def test_net():
    s = sphere(2, 400, seed=6)
    u = 0.3
    net = cov.greedy_net(s, u)
    assert ck.check_net(s.coords, u, net) == []
    assert ck.check_net(s.coords, u, net[:-1])  # last point left uncovered
    near = int(np.argsort(ck.dist_to(s.coords, s.coords[net[0]]))[1])
    assert ck.check_net(s.coords, u, np.append(net, near))  # packing broken
    prof = cov.covering_profile(s, [u, 2 * u])
    assert ck.check_count(int(prof.n_upper[0]), len(net), "n_upper") == []
    assert ck.check_count(int(prof.n_upper[0]) + 1, len(net), "n_upper")


@pytest.fixture(scope="module")
def small_exact():
    rng = np.random.default_rng(7)
    m = rng.uniform(0.5, 1.0, size=(7, 7))
    m = (m + m.T) / 2.0
    np.fill_diagonal(m, 0.0)
    w = rng.random(7) + 0.25
    w /= w.sum()
    space = mm.from_distance_matrix(m, weights=w)
    kappas = np.arange(1, 51) / 100.0
    return m, w, space, conc.alpha_exact_profile(space), \
        conc.sep_exact_profile(space, kappas)


def test_naive_enumeration(small_exact):
    m, w, _, a, s = small_exact
    want_a = ck.naive_alpha(m, w, a.eps_grid)
    want_s = ck.naive_sep(m, w, s.kappa_grid)
    assert ck.check_equal(a.alpha, want_a, "alpha") == []
    assert ck.check_equal(s.sep, want_s, "sep") == []
    j = int(np.flatnonzero((a.alpha > 0) & (a.alpha < 0.5))[0])
    bad = a.alpha.copy()
    bad[j] += 0.01
    assert ck.check_equal(bad, want_a, "alpha")
    assert ck.check_equal(s.sep * 0.99, want_s, "sep")


def test_below_and_cross_inequalities(small_exact):
    _, _, space, a, s = small_exact
    lb = conc.alpha_lower(space, a.eps_grid)
    assert ck.check_below(lb.alpha, a.alpha, "alpha_lower") == []
    assert ck.check_below(a.alpha + 0.01, a.alpha, "alpha_lower")

    def sep_at(k):
        return conc.sep_exact(space, k)

    args = (s.kappa_grid, s.sep, sep_at, a.diameter)
    assert ck.check_cross_inequalities(a.eps_grid, a.alpha, *args) == []
    inflated = np.where(a.eps_grid < a.diameter, 0.5, 0.0)
    assert ck.check_cross_inequalities(a.eps_grid, inflated, *args)


def test_harper():
    prof = conc.sep_hamming_profile(12)
    assert ck.check_harper(12, prof.kappa_grid, prof.sep) == []
    assert ck.check_harper(12, prof.kappa_grid, prof.sep * 0.9)


def test_emd():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 3))
    counts = [1 + rng.multinomial(20, np.full(20, 1 / 20)) for _ in range(2)]
    cost = tr.emd(mm.from_points(x), counts[0] / 40, counts[1] / 40).cost
    assert ck.check_emd(x, *counts, cost) == []
    assert ck.check_emd(x, *counts, cost + 1e-6)


def test_same():
    a = {"p": conc.sep_hamming_profile(6), "v": [1.0, np.arange(3)]}
    b = {"p": conc.sep_hamming_profile(6), "v": [1.0, np.arange(3)]}
    assert ck.same(a, b)
    b["v"][1] = np.arange(3) * 1.0 + 1e-15
    assert not ck.same(a, b)
    assert not ck.same(1.0, 1.0 + 1e-15)


class _Fake:
    """A workload whose operations raise, drift between rounds, or fail
    their check, to show how the harness counts failures."""

    def __init__(self):
        self.calls = 0

    def ops(self, inp, out_dir):
        self.calls += 1
        yield "ok", lambda: 1.0
        yield "raises", lambda: 1 / 0
        yield "drifts", lambda: float(self.calls)
        yield "wrong", lambda: 2.0

    def checks(self, inp, outs):
        yield "wrong", lambda: [] if outs["wrong"] == 3.0 else ["wrong value"]


def test_harness_counts_failures(tmp_path):
    wl = _Fake()
    rounds = run.run_rounds(wl, {}, range(2), tmp_path, None)
    failed = run.verdicts(wl, {}, rounds, ck.same)
    # round 1: raises, wrong; round 2: raises, drifts, wrong
    assert sorted((name, raised) for name, _, raised in failed) == [
        ("drifts", False), ("raises", True), ("raises", True),
        ("wrong", False), ("wrong", False)]


def test_sampling_convergence():
    rows = [{"sample_size": str(s), "dim_separation": str(2.0 + e), "abs_error": str(e)}
            for s, e in [(50, 1.0), (50, 3.0), (100, 0.5), (100, 0.75)]]
    summary = {"cube_dim_separation": 2.0, "median_abs_error_by_size": [2.0, 0.625]}
    assert ck.check_sampling_convergence(rows, summary) == []
    assert ck.check_sampling_convergence(
        rows, dict(summary, median_abs_error_by_size=[2.0, 0.7]))
    assert ck.check_sampling_convergence(
        rows, dict(summary, cube_dim_separation=2.5))
    flat = [dict(r, abs_error=r["abs_error"]) for r in rows]
    flat[2]["abs_error"] = flat[3]["abs_error"] = "3.5"
    flat[2]["dim_separation"] = flat[3]["dim_separation"] = "5.5"
    assert ck.check_sampling_convergence(
        flat, dict(summary, median_abs_error_by_size=[2.0, 3.5]))
