"""Exact mass-transportation distance between two measures on one space.

The optimal coupling is obtained by column generation on the
transportation LP: HiGHS solves it on a small support of edges, every
edge is priced against that solve's dual potentials, and edges with
negative slack join the support until none is left.  The potentials then
certify optimality on the whole matrix (dual feasibility, and
complementary slackness within 1e-9), so the loop's stopping test is the
certificate.  The square root of the optimal cost upper-bounds the
concentration distance between the two metric measure spaces sharing the
metric; no bound in the opposite direction holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InputError, InvariantViolation, ResourceLimitError
from .io import write_csv
from .mmspace import MMSpace

MARGINAL_TOL = 1e-9
CERT_TOL = 1e-9

#: pricing and the certificate read all n**2 slacks of the transportation
#: LP, though HiGHS sees only the priced support; refuse above this size.
#: At n=512 a solve took 0.35-0.42 s and 106 MB peak RSS (README, Limits).
EMD_LIMIT = 512
#: each row's and each column's nearest partners in the starting support
NEAREST = 5


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling between two weight vectors on a common metric.

    ``marginal_residuals`` holds the largest row-sum and column-sum
    deviations from the two prescribed marginals.  No entry is below
    ``-MARGINAL_TOL``: a plan with negative mass is not a coupling, and
    its cost may lie below the optimum, so it bounds nothing.
    """

    coupling: np.ndarray
    cost: float
    marginal_residuals: tuple[float, float]

    def __post_init__(self):
        c = np.asarray(self.coupling, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coupling", c)
        if c.size and c.min() < -MARGINAL_TOL:
            i, j = np.unravel_index(np.argmin(c), c.shape)
            raise InvariantViolation(
                f"coupling entry ({i}, {j}) is {float(c[i, j])!r}, below -{MARGINAL_TOL}")
        if max(self.marginal_residuals) > MARGINAL_TOL:
            raise InvariantViolation(
                f"coupling marginals off by {self.marginal_residuals}, "
                f"tolerance {MARGINAL_TOL}"
            )

    def to_csv(self, path) -> None:
        """Write the plan as sparse (i, j, mass) triples."""
        i, j = np.nonzero(self.coupling)
        write_csv(path, ["i", "j", "mass"], zip(i, j, self.coupling[i, j]))


def _check_measure(name: str, v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise InputError(f"{name} must have length {n}, got shape {v.shape}")
    if not np.all(np.isfinite(v)) or np.any(v < 0):
        raise InputError(f"{name} must be nonnegative and finite")
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise InputError(f"{name} must sum to 1, got {float(v.sum())!r}")
    return v


def emd(space: MMSpace, mu, nu) -> TransportPlan:
    """Exact Monge-Kantorovich distance between two measures on `space`.

    Solves the transportation linear program exactly, on a support that
    starts from a feasible staircase plus near neighbours and grows by
    every edge the dual potentials price below zero.  The optimum is
    certified on all edges against the last solve's potentials:
    feasibility ``u_i + v_j <= d_ij`` and complementary slackness on the
    support, both within 1e-9.  Zero-weight points are dropped before the
    solve and reinserted as zero rows/columns.
    """
    n = space.n
    mu = _check_measure("mu", mu, n)
    nu = _check_measure("nu", nu, n)
    if n > EMD_LIMIT:
        raise ResourceLimitError(
            f"exact transport solve is limited to n <= {EMD_LIMIT} points, got {n}"
        )
    rows = np.flatnonzero(mu > 0)
    cols = np.flatnonzero(nu > 0)
    d = space.dist[np.ix_(rows, cols)]
    m, k = len(rows), len(cols)

    if m == 1:
        sub = nu[cols][None, :].copy()
    elif k == 1:
        sub = mu[rows][:, None].copy()
    else:
        sub = _priced_plan(d, mu[rows], nu[cols])

    coupling = np.zeros((n, n))
    coupling[np.ix_(rows, cols)] = sub
    cost = float(np.sum(coupling * space.dist))
    res_mu = float(np.abs(coupling.sum(axis=1) - mu).max())
    res_nu = float(np.abs(coupling.sum(axis=0) - nu).max())
    return TransportPlan(coupling, cost, (res_mu, res_nu))


def _starting_support(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Edges that carry a feasible plan, plus each point's nearest partners.

    The northwest-corner staircase walks from (0, 0) to (m-1, k-1), moving
    down when the running row mass ends first and right otherwise; its
    m+k-1 edges carry the northwest-corner plan.  The nearest partners
    are where an optimal plan mostly lies.
    """
    m, k = d.shape
    ends = np.concatenate([np.cumsum(a[:-1]), np.cumsum(b[:-1])])
    down = np.concatenate([np.ones(m - 1, bool), np.zeros(k - 1, bool)])
    steps = down[np.argsort(ends, kind="stable")]
    i = np.concatenate([[0], np.cumsum(steps)])
    j = np.arange(m + k - 1) - i
    support = np.zeros((m, k), dtype=bool)
    support[i, j] = True
    for edges, cost in ((support, d), (support.T, d.T)):
        near = min(NEAREST, cost.shape[1])
        np.put_along_axis(edges, np.argpartition(cost, near - 1)[:, :near], True, axis=1)
    return support


def _priced_plan(d: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal plan of the (m, k) transportation LP, by column generation.

    Solves the LP restricted to a support, prices every edge against the
    restricted solve's dual potentials and adds the edges whose slack is
    negative, until none is: those potentials then certify the plan on
    the whole matrix.  The support only grows, so the loop ends.
    """
    m, k = d.shape
    support = _starting_support(d, a, b)
    # equality rows: every row sum, then all but the last column sum (the
    # last is implied by the totals)
    b_eq = np.concatenate([a, b[:-1]])
    while True:
        i, j = np.nonzero(support)
        var = np.arange(len(i))
        a_eq = sparse.csr_matrix(
            (np.ones(2 * len(i)), (np.concatenate([i, m + j]), np.concatenate([var, var]))),
            shape=(m + k, len(i)))[:-1]
        res = linprog(d[i, j], A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if not res.success:  # pragma: no cover - well-posed by construction
            raise InvariantViolation(f"transport solve failed: {res.message}")
        slack = _slack(d, res.eqlin.marginals)
        entering = (slack < 0.0) & ~support
        if not entering.any():
            break
        support |= entering
    plan = np.zeros((m, k))
    plan[i, j] = res.x
    _certify(slack, plan)
    return plan


def _slack(d: np.ndarray, eq_marginals: np.ndarray) -> np.ndarray:
    """Reduced costs ``d_ij - u_i - v_j`` of every edge.

    HiGHS's equality marginals are the potentials ``u`` (row sums) and
    ``v`` (column sums, the dropped last one 0).
    """
    m = len(d)
    u, v = eq_marginals[:m], np.append(eq_marginals[m:], 0.0)
    return d - (u[:, None] + v[None, :])


def _certify(slack: np.ndarray, plan: np.ndarray) -> None:
    """Dual feasibility and complementary slackness at the claimed optimum.

    The certificate holds iff every edge's slack ``d_ij - u_i - v_j`` is
    nonnegative and the slack is zero on the support.
    """
    feas = float(slack.min())
    comp = float(np.abs(slack[plan > CERT_TOL]).max(initial=0.0))
    if feas < -CERT_TOL or comp > CERT_TOL:
        raise InvariantViolation(
            f"dual potentials do not certify optimality: least slack {feas!r} "
            f"(feasibility needs >= -{CERT_TOL}), largest slack on the support "
            f"{comp!r} (complementary slackness needs <= {CERT_TOL})"
        )


def dconc_upper_via_emd(space: MMSpace, mu, nu) -> float:
    """Upper bound ``sqrt(d_mass)`` on the concentration distance.

    Applies to the two metric measure spaces obtained by pairing the
    common metric with `mu` and with `nu`; the bound is one-sided.
    """
    return float(np.sqrt(emd(space, mu, nu).cost))
