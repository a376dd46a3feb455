"""Dual certificates for the resource-sharing LP, recovered three ways.

* closed form from the optimal basis (unique at non-degenerate optima),
* the full dual with one multiplier per upper limit,
* the relaxation-form dual where only the budget rows are dualized and each
  agent contributes a scalar relaxation value.

Both explicit duals are transcribed to the bounded standard form and solved by
the same simplex as the primal: one pivoting code path, tested once. Equality
budget rows leave their multiplier sign-free (encoded by splitting, not by
penalties); inequality rows keep a non-negative multiplier structurally.

Both duals have a feasible basis read off their own structure (never off a
primal solution, so the three certificates stay independent checks):
coordinate row j takes its multiplier nu_j at value -c_j when c_j <= 0 and
d_j is finite, otherwise its surplus at value c_j, and in the relaxation form
agent row i takes h_i. In the full dual these columns are singletons, which
the solver's crash finds by itself. In the relaxation form nu_j also enters
its agent row, so the crash skips it; the basis is instead block lower
triangular and is passed to the solver as its start. A coordinate with
c_j < 0 and d_j = inf has neither column, and then phase 1 runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_core import AssembledLP, BasisPartition, PrimalSolution, solve_primal

__all__ = [
    "DualCertificate",
    "closed_form_certificate",
    "dual_objective",
    "relaxation_values",
    "solve_dual_full",
    "solve_dual_relaxation",
]


@dataclass(frozen=True, eq=False)
class DualCertificate:
    """Budget multipliers ``lam`` (length p), upper-limit multipliers ``nu``
    (length ell, leading n0 entries identically zero, zero wherever the limit
    is infinite) and per-agent relaxation values ``h``."""

    lam: np.ndarray
    nu: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", np.asarray(self.lam, dtype=float))
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))


def relaxation_values(lp: AssembledLP, nu: np.ndarray) -> np.ndarray:
    """Per-agent sums of nu_j * d_j with the convention inf * 0 = 0."""
    nu = np.asarray(nu, dtype=float)
    finite = np.isfinite(lp.d)
    contrib = np.where(finite, nu * np.where(finite, lp.d, 0.0), 0.0)
    contrib = np.where(~finite & (nu > 0.0), np.inf, contrib)
    if lp.ell - lp.n0 == lp.m:
        # one column per agent: a sum of one term, which turns -0.0 into 0.0
        return contrib[lp.n0 :] + 0.0
    return np.array([block.sum() for block in np.split(contrib, lp.starts)[1:]])


def closed_form_certificate(lp: AssembledLP, solution: PrimalSolution) -> DualCertificate:
    """Full certificate implied by the optimal basis: the solution's ``lam``,
    and nu as the positive part of -c - lam^T A (exactly zero on the slack
    block and wherever the upper limit is infinite)."""
    lam = solution.lam
    nu = np.maximum(0.0, -lp.c - lam @ lp.A)
    nu[: lp.n0] = 0.0
    nu[~np.isfinite(lp.d)] = 0.0
    return DualCertificate(lam=lam, nu=nu, h=relaxation_values(lp, nu))


def _transcribe_dual(lp: AssembledLP, epigraph: bool):
    """Standard bounded form of the dual.

    Variables, in column order: lam (p, the first n0 are the non-negative
    inequality multipliers, the rest the positive split halves), the negative
    split halves for equality rows (p - n0), nu for every finite-limit agent
    coordinate, one surplus per agent coordinate, and, for the epigraph
    (relaxation) form, one h and one slack per agent.

    Returns (dual_lp, meta, start). ``start`` is the structural feasible
    basis of the epigraph form described in the module docstring, or None
    for the full form and when some c_j < 0 has d_j = inf.
    """
    p, n0, m = lp.p, lp.n0, lp.m
    q = lp.ell - n0
    if m == 0 or q == 0:
        raise ValueError("dual transcription needs at least one agent variable")
    Ag = lp.A[:, n0:]
    cg = lp.c[n0:]
    dg = lp.d[n0:]
    fin = np.flatnonzero(np.isfinite(dg))
    nfin = fin.size

    agent_of = np.repeat(np.arange(m), np.diff(lp.starts, append=lp.ell))

    n_rows = q + (m if epigraph else 0)
    n_split = p - n0
    ncols = p + n_split + nfin + q + (2 * m if epigraph else 0)
    M = np.zeros((n_rows, ncols))
    cost = np.zeros(ncols)

    lam_pos, lam_neg = 0, p
    nu_off = p + n_split
    u_off = nu_off + nfin
    h_off = u_off + q
    w_off = h_off + m

    M[:q, lam_pos : lam_pos + p] = Ag.T
    M[:q, lam_neg : lam_neg + n_split] = -Ag[n0:, :].T
    M[fin, nu_off + np.arange(nfin)] = 1.0
    M[np.arange(q), u_off + np.arange(q)] = -1.0

    cost[lam_pos : lam_pos + p] = lp.b
    cost[lam_neg : lam_neg + n_split] = -lp.b[n0:]

    rhs = np.concatenate([-cg, np.zeros(m)]) if epigraph else -cg

    start = None
    if epigraph:
        M[q + agent_of[fin], nu_off + np.arange(nfin)] = dg[fin]
        M[q + np.arange(m), h_off + np.arange(m)] = -1.0
        M[q + np.arange(m), w_off + np.arange(m)] = 1.0
        cost[h_off : h_off + m] = 1.0
        nu_col = np.full(q, -1)
        nu_col[fin] = nu_off + np.arange(nfin)
        take_nu = (cg <= 0.0) & (nu_col >= 0)
        if np.all(take_nu | (cg >= 0.0)):
            basic = np.concatenate(
                [np.where(take_nu, nu_col, u_off + np.arange(q)), h_off + np.arange(m)]
            )
            start = BasisPartition(
                basic=tuple(basic.tolist()),
                at_lower=tuple(np.delete(np.arange(ncols), basic).tolist()),
                at_upper=(),
            )
    else:
        cost[nu_off : nu_off + nfin] = dg[fin]

    dual_lp = AssembledLP(A=M, b=rhs, c=cost, d=np.full(ncols, np.inf), n0=0)
    meta = dict(fin=fin, q=q, lam_neg=lam_neg, nu_off=nu_off, h_off=h_off)
    return dual_lp, meta, start


def _extract_lam_nu(lp: AssembledLP, x: np.ndarray, meta) -> tuple[np.ndarray, np.ndarray]:
    p, n0 = lp.p, lp.n0
    lam = x[:p].copy()
    lam[n0:] -= x[meta["lam_neg"] : meta["lam_neg"] + (p - n0)]
    nu = np.zeros(lp.ell)
    nu[n0 + meta["fin"]] = x[meta["nu_off"] : meta["nu_off"] + meta["fin"].size]
    return lam, nu


def solve_dual_full(lp: AssembledLP) -> DualCertificate:
    """Solve the dual with explicit upper-limit multipliers.

    Coordinates with infinite upper limit have their multiplier fixed to zero
    (any positive value would drive the objective to -inf), which is encoded
    by simply not giving them a multiplier column.
    """
    dual_lp, meta, _ = _transcribe_dual(lp, epigraph=False)
    sol = solve_primal(dual_lp)
    lam, nu = _extract_lam_nu(lp, sol.x, meta)
    return DualCertificate(lam=lam, nu=nu, h=relaxation_values(lp, nu))


def solve_dual_relaxation(lp: AssembledLP) -> tuple[np.ndarray, np.ndarray]:
    """Solve the relaxation-form dual where each agent's inner maximization is
    resolved to its componentwise positive part and bounded by a scalar h.

    The solve starts from the dual's structural basis (module docstring), so
    it skips phase 1; only when some coordinate has c_j < 0 and d_j = inf
    is there no such basis, and phase 1 finds one.

    Returns (lam, h).
    """
    dual_lp, meta, start = _transcribe_dual(lp, epigraph=True)
    sol = solve_primal(dual_lp, start=start)
    lam, _ = _extract_lam_nu(lp, sol.x, meta)
    h = sol.x[meta["h_off"] : meta["h_off"] + lp.m].copy()
    return lam, h


def dual_objective(lp: AssembledLP, cert: DualCertificate) -> float:
    """Value of the dual objective -lam^T b - sum_i h_i at the certificate."""
    return float(-cert.lam @ lp.b - cert.h.sum())
