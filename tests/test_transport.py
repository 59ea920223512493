import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from concdim import transport
from concdim.cli import main
from concdim.errors import InputError, InvariantViolation, ResourceLimitError
from concdim.mmspace import diameter, from_distance_matrix, from_points
from concdim.transport import EMD_LIMIT, MARGINAL_TOL, dconc_upper_via_emd, emd

from util import random_space, run_fresh


def vertex_minimum(dist: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Exhaustive minimum over transportation-polytope vertices.

    Vertices are supported on spanning forests of the bipartite supply/
    demand graph; enumerating all edge subsets of size m+k-1 and solving
    the unique flow on the acyclic ones covers every vertex.
    """
    rows = np.flatnonzero(mu > 0)
    cols = np.flatnonzero(nu > 0)
    m, k = len(rows), len(cols)
    edges = [(i, j) for i in range(m) for j in range(k)]
    best = None
    for combo in itertools.combinations(edges, m + k - 1):
        parent = list(range(m + k))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for i, j in combo:
            a, b = find(i), find(m + j)
            if a == b:
                acyclic = False
                break
            parent[a] = b
        if not acyclic:
            continue
        # leaf elimination solves the unique flow on the tree
        flow = {}
        adj = {v: [] for v in range(m + k)}
        for i, j in combo:
            adj[i].append(m + j)
            adj[m + j].append(i)
        need = np.concatenate([mu[rows], -nu[cols]])
        alive = set(range(m + k))
        edges_left = {frozenset((i, m + j)) for i, j in combo}
        feasible = True
        while edges_left:
            leaf = next(v for v in alive
                        if sum(1 for u in adj[v] if frozenset((v, u)) in edges_left) == 1)
            other = next(u for u in adj[leaf] if frozenset((leaf, u)) in edges_left)
            amount = need[leaf] if leaf < m else -need[leaf]
            i, j = (leaf, other - m) if leaf < m else (other, leaf - m)
            if amount < -1e-12:
                feasible = False
                break
            flow[(i, j)] = max(amount, 0.0)
            need[other] += need[leaf]
            need[leaf] = 0.0
            edges_left.discard(frozenset((leaf, other)))
            alive.discard(leaf)
        if not feasible:
            continue
        cost = sum(dist[rows[i], cols[j]] * f for (i, j), f in flow.items())
        best = cost if best is None else min(best, cost)
    return best


def _reference_emd(space, mu, nu):
    """Transport cost from one LP over all m*k edges.

    The solve `emd` made before it priced a sparse support: every edge a
    variable, the row sums and all but the last column sum as equalities.
    """
    rows = np.flatnonzero(mu > 0)
    cols = np.flatnonzero(nu > 0)
    d = space.dist[np.ix_(rows, cols)]
    m, k = d.shape
    a_eq = sparse.vstack([
        sparse.kron(sparse.eye(m), np.ones((1, k))),
        sparse.kron(np.ones((1, m)), sparse.eye(k), format="csr")[: k - 1],
    ], format="csr")
    b_eq = np.concatenate([mu[rows], nu[cols[: k - 1]]])
    res = linprog(d.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success
    coupling = np.zeros((space.n, space.n))
    coupling[np.ix_(rows, cols)] = res.x.reshape(m, k)
    return float(np.sum(coupling * space.dist))


def test_identity_coupling():
    s = from_distance_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    w = np.array([0.2, 0.3, 0.5])
    plan = emd(s, w, w)
    assert plan.cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(plan.coupling, np.diag(w), atol=1e-9)


def test_point_masses_cost_is_distance():
    s = from_distance_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    plan = emd(s, [1, 0, 0], [0, 0, 1])
    assert plan.cost == pytest.approx(2.0)


def test_three_point_hand_value():
    s = from_distance_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    plan = emd(s, [1, 0, 0], [0, 0.5, 0.5])
    assert plan.cost == pytest.approx(1.5, abs=1e-9)


def test_rejects_mismatched_lengths():
    s = from_points([[0.0], [1.0]])
    with pytest.raises(InputError, match="length"):
        emd(s, [1.0], [0.5, 0.5])


def test_rejects_unnormalized_weights():
    s = from_points([[0.0], [1.0]])
    with pytest.raises(InputError, match="sum to 1"):
        emd(s, [0.7, 0.7], [0.5, 0.5])


def test_size_limit():
    s = from_points(np.arange(600, dtype=float)[:, None])
    with pytest.raises(ResourceLimitError):
        emd(s, s.weights, s.weights)


def test_emd_at_size_limit_fits_in_memory():
    # full-support measures give the largest LP: n**2 edges to price, 2n - 1 rows
    setup = f"""
import numpy as np
from concdim.transport import emd
from concdim.mmspace import from_points
rng = np.random.default_rng(17)
s = from_points(rng.normal(size=({EMD_LIMIT}, 3)))
mu, nu = (v / v.sum() for v in rng.random((2, {EMD_LIMIT})) + 0.05)
s.dist
def solve():
    plan = emd(s, mu, nu)  # raises unless the dual certificate holds
    return [plan.cost, *plan.marginal_residuals]
"""
    (cost, res_mu, res_nu), _, peak_rss_mb = run_fresh(setup, "solve()")
    assert cost > 0.0
    assert res_mu <= MARGINAL_TOL and res_nu <= MARGINAL_TOL
    # 105.5-105.8 MB measured (about 80 MB of it imports and the matrix);
    # 54 MB of headroom.  One LP over all n**2 edges peaked at 339 MB.
    assert peak_rss_mb < 160.0


def test_zero_weight_points_reinserted():
    s = from_distance_matrix([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    plan = emd(s, [0.5, 0.0, 0.5], [0.0, 1.0, 0.0])
    assert plan.coupling[1].sum() == 0.0
    assert plan.coupling[:, 0].sum() == 0.0
    assert plan.cost == pytest.approx(1.0)


def test_solver_matches_vertex_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = rng.uniform(0.5, 1.0, size=(n, n))
        m = (m + m.T) / 2.0
        np.fill_diagonal(m, 0.0)
        s = from_distance_matrix(m)
        mu = rng.random(n) + 0.05
        mu /= mu.sum()
        nu = rng.random(n) + 0.05
        nu /= nu.sum()
        plan = emd(s, mu, nu)
        want = vertex_minimum(s.dist, mu, nu)
        assert plan.cost == pytest.approx(want, abs=1e-9)


def test_priced_solve_matches_the_full_lp(monkeypatch):
    # random, partly zero and integer-count measures on point clouds, on
    # clouds rounded to tenths (tied distances) and on integer matrices
    certified = []
    certify = transport._certify
    monkeypatch.setattr(transport, "_certify", lambda slack, plan: (
        certified.append((slack.shape, plan.copy())), certify(slack, plan)))
    rng = np.random.default_rng(23)
    for case in range(60):
        n = int(rng.integers(2, 61))
        if case % 3 == 0:
            s = from_points(rng.normal(size=(n, 3)))
        elif case % 3 == 1:
            s = from_points(np.round(rng.normal(size=(n, 2)), 1))
        else:
            m = np.triu(rng.integers(2, 4, size=(n, n)).astype(float), 1)
            s = from_distance_matrix(m + m.T)
        plain = rng.random((2, n)) + 0.01
        sparse_ = rng.random((2, n)) * (rng.random((2, n)) >= 0.3)  # about 30% zero
        sparse_[:, rng.integers(n)] += 0.1
        counts = 1 + np.stack([rng.multinomial(2 * n, np.full(n, 1 / n)) for _ in range(2)])
        for mu, nu in (plain, sparse_, counts / (3 * n)):
            mu, nu = mu / mu.sum(), nu / nu.sum()
            certified.clear()
            plan = emd(s, mu, nu)
            assert abs(plan.cost - _reference_emd(s, mu, nu)) <= 1e-12
            assert max(plan.marginal_residuals) <= MARGINAL_TOL
            rows, cols = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
            if len(rows) > 1 and len(cols) > 1:
                # certified once, on every edge between positive weights
                [(shape, sub)] = certified
                assert shape == (len(rows), len(cols))
                assert np.array_equal(sub, plan.coupling[np.ix_(rows, cols)])


def test_priced_solves_stay_small(monkeypatch):
    n = 300
    sizes = []
    solve = transport.linprog
    monkeypatch.setattr(transport, "linprog",
                        lambda c, **kw: (sizes.append(len(c)), solve(c, **kw))[1])
    solves = []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        s = from_points(rng.normal(size=(n, 3)))
        mu, nu = (1 + np.stack([rng.multinomial(2 * n, np.full(n, 1 / n))
                                for _ in range(2)])) / (3 * n)
        sizes.clear()
        assert emd(s, mu, nu).cost > 0.0
        assert max(sizes) < n * n / 10
        solves.append(len(sizes))
    assert max(solves) >= 2  # the pricing round added edges and solved again


def test_certificate_reads_the_marginals_with_one_sign(monkeypatch):
    # HiGHS's equality marginals are the dual potentials as they are; the
    # same solves read with the opposite sign must not certify
    rng = np.random.default_rng(0)
    measures = []
    for n in (3, 7, 23, 59):
        s = from_points(rng.normal(size=(n, 3)))
        mu, nu = rng.random((2, n)) * (rng.random((2, n)) >= 0.3)  # about 30% zero
        mu[:2] += 0.1
        nu[-2:] += 0.1
        measures.append((s, mu / mu.sum(), nu / nu.sum()))
        assert emd(s, *measures[-1][1:]).cost > 0.0
    slack = transport._slack
    monkeypatch.setattr(transport, "_slack",
                        lambda d, marginals: slack(d, -marginals))
    for s, mu, nu in measures:
        with pytest.raises(InvariantViolation, match="complementary slackness"):
            emd(s, mu, nu)


def test_a_plan_with_negative_mass_is_refused(monkeypatch, tmp_path):
    # HiGHS accepts entries down to its feasibility tolerance (1e-7): an
    # optimal plan moved by a 3.3e-8 cycle on a 2x2 block keeps its
    # marginals and its certificate, but holds negative mass
    priced = transport._priced_plan

    def cycled(d, a, b):
        plan = priced(d, a, b)
        i, j = np.argwhere(plan == 0.0)[0]
        p, q = next((p, q) for p, q in np.argwhere(plan >= 3.3e-8) if p != i and q != j)
        plan[[i, p], [j, q]] -= 3.3e-8
        plan[[i, p], [q, j]] += 3.3e-8
        assert np.abs(plan.sum(axis=1) - a).max() <= MARGINAL_TOL
        assert np.abs(plan.sum(axis=0) - b).max() <= MARGINAL_TOL
        return plan

    rng = np.random.default_rng(3)
    s = from_points(rng.normal(size=(12, 2)))
    mu, nu = rng.random((2, 12)) + 0.05
    mu, nu = mu / mu.sum(), nu / nu.sum()
    assert emd(s, mu, nu).coupling.min() >= 0.0
    monkeypatch.setattr(transport, "_priced_plan", cycled)
    with pytest.raises(InvariantViolation, match=r"coupling entry \(\d+, \d+\) is -3.3e-08"):
        emd(s, mu, nu)
    paths = {}
    for name, rows in (("d", s.dist), ("mu", mu[:, None]), ("nu", nu[:, None])):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("".join(",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    assert main(["emd", "--space", str(paths["d"]), "--mu", str(paths["mu"]),
                 "--nu", str(paths["nu"]), "--out", str(tmp_path / "out")]) == 4


def test_metric_axioms_on_measures():
    rng = np.random.default_rng(14)
    for _ in range(25):
        s = random_space(rng, n=int(rng.integers(3, 9)))
        ms = []
        for _ in range(3):
            w = rng.random(s.n) + 0.05
            ms.append(w / w.sum())
        a, b, c = ms
        ab = emd(s, a, b).cost
        ba = emd(s, b, a).cost
        ac = emd(s, a, c).cost
        cb = emd(s, c, b).cost
        assert ab == pytest.approx(ba, abs=1e-9)
        assert ab <= ac + cb + 1e-9


def test_emd_bounded_by_diameter_and_zero_iff_equal():
    rng = np.random.default_rng(15)
    for _ in range(15):
        s = random_space(rng, n=6)
        w1 = rng.random(6) + 0.05
        w1 /= w1.sum()
        w2 = rng.random(6) + 0.05
        w2 /= w2.sum()
        cost = emd(s, w1, w2).cost
        assert cost <= diameter(s) + 1e-12
        assert cost > 0.0
        assert emd(s, w1, w1).cost == pytest.approx(0.0, abs=1e-12)


def test_dconc_upper_values():
    two = from_points([[0.0], [1.0]])
    assert dconc_upper_via_emd(two, [1, 0], [0, 1]) == pytest.approx(1.0)
    assert dconc_upper_via_emd(two, [0.5, 0.5], [0.5, 0.5]) == 0.0


def test_deleted_point_measure_upper_bound():
    rng = np.random.default_rng(16)
    s = random_space(rng, n=10)
    w = np.array(s.weights)
    w[0] = 0.0
    w = w / w.sum()
    val = dconc_upper_via_emd(s, s.weights, w)
    assert 0.0 < val <= np.sqrt(diameter(s)) + 1e-12


def test_plan_csv_export(tmp_path):
    s = from_distance_matrix([[0, 1], [1, 0]])
    plan = emd(s, [1, 0], [0, 1])
    path = tmp_path / "plan.csv"
    plan.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,mass"
    assert lines[1].startswith("0,1,")
