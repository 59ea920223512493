"""Exact mass-transportation distance between two measures on one space.

The optimal coupling is obtained by an exact linear-programming solve of
the transportation problem; optimality is certified a posteriori through
the recovered dual potentials (complementary slackness within 1e-9).  The
square root of the optimal cost upper-bounds the concentration distance
between the two metric measure spaces sharing the metric; no bound in the
opposite direction holds.
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

#: transportation LPs have n**2 variables and 2n-1 equality rows, passed to
#: HiGHS as a sparse matrix with 2n**2 - n nonzeros; refuse above this size.
#: At n=512 a solve took 2.3 s and 345 MB peak RSS (README, Limits).
EMD_LIMIT = 512


@dataclass(frozen=True)
class TransportPlan:
    """An optimal coupling between two weight vectors on a common metric.

    ``marginal_residuals`` holds the largest row-sum and column-sum
    deviations from the two prescribed marginals.
    """

    coupling: np.ndarray
    cost: float
    marginal_residuals: tuple[float, float]

    def __post_init__(self):
        c = np.asarray(self.coupling, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "coupling", c)
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

    Solves the transportation linear program exactly and certifies the
    optimum against the recovered dual potentials: feasibility
    ``u_i + v_j <= d_ij`` and complementary slackness on the support,
    both within 1e-9.  Zero-weight points are dropped before the solve
    and reinserted as zero rows/columns.
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
        # row sums over the (m, k) plan raveled row-major, then all but one
        # column sum (the last is implied by the totals)
        a_eq = sparse.vstack([
            sparse.kron(sparse.eye(m), np.ones((1, k))),
            sparse.kron(np.ones((1, m)), sparse.eye(k), format="csr")[: k - 1],
        ], format="csr")
        b_eq = np.concatenate([mu[rows], nu[cols[: k - 1]]])
        res = linprog(d.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                      method="highs")
        if not res.success:  # pragma: no cover - well-posed by construction
            raise InvariantViolation(f"transport solve failed: {res.message}")
        sub = res.x.reshape(m, k)
        _certify(d, sub, res.eqlin.marginals, m, k)

    coupling = np.zeros((n, n))
    coupling[np.ix_(rows, cols)] = sub
    cost = float(np.sum(coupling * space.dist))
    res_mu = float(np.abs(coupling.sum(axis=1) - mu).max())
    res_nu = float(np.abs(coupling.sum(axis=0) - nu).max())
    return TransportPlan(coupling, cost, (res_mu, res_nu))


def _certify(d: np.ndarray, plan: np.ndarray, eq_marginals: np.ndarray,
             m: int, k: int) -> None:
    """Dual feasibility and complementary slackness at the claimed optimum.

    HiGHS's equality marginals are the potentials ``u`` (row sums) and
    ``v`` (column sums, the dropped last one 0); the certificate holds
    iff ``u_i + v_j <= d_ij`` everywhere and equality holds on the support.
    """
    u, v = eq_marginals[:m], np.append(eq_marginals[m : m + k - 1], 0.0)
    slack = d - (u[:, None] + v[None, :])
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
