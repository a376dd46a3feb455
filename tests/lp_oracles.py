"""Independent oracles and instance generators for the test suite.

The vertex enumerator is the reference implementation for every derived
expectation: it tries all p-column bases, assigns each remaining variable to
one of its bounds, solves the square system, and keeps feasible points. It
shares no code with the production simplex.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from share_sense import (
    AgentProfile,
    AssembledLP,
    DualCertificate,
    PrimalSolution,
    SharingProblem,
    assemble,
    augment,
    epsilon_table,
    solve_primal,
)
from share_sense.lp_core import ACT_TOL, RC_TOL

FEAS_TOL = 1e-9


def enumerate_basic_feasible(lp: AssembledLP, tol: float = FEAS_TOL):
    """All basic feasible points as (x, objective) pairs."""
    A, b, c, d = lp.A, lp.b, lp.c, lp.d
    p, ell = A.shape
    points = []
    scale = 1.0 + float(np.max(np.abs(b)))
    for basis in itertools.combinations(range(ell), p):
        AB = A[:, basis]
        if abs(np.linalg.det(AB)) < 1e-9 and np.linalg.matrix_rank(AB) < p:
            continue
        nonbasic = [j for j in range(ell) if j not in basis]
        options = [
            (0.0, float(d[j])) if np.isfinite(d[j]) else (0.0,) for j in nonbasic
        ]
        assignments = np.array(list(itertools.product(*options)))
        if assignments.size == 0:
            assignments = np.zeros((1, 0))
        rhs = b[:, None] - (A[:, nonbasic] @ assignments.T if nonbasic else 0.0)
        xB = np.linalg.solve(AB, rhs)  # p x n_assign
        dB = d[list(basis)][:, None]
        feasible = np.all(xB >= -tol * scale, axis=0) & np.all(
            (xB <= dB + tol * scale) | ~np.isfinite(dB), axis=0
        )
        for col in np.flatnonzero(feasible):
            x = np.zeros(ell)
            x[list(basis)] = xB[:, col]
            if nonbasic:
                x[nonbasic] = assignments[col]
            points.append((x, float(c @ x)))
    return points


def brute_force_optimum(lp: AssembledLP, tol: float = FEAS_TOL):
    """Best vertex and the set of optimal points (for uniqueness checks).

    Returns (x_best, obj_best, optima) where optima holds every feasible
    vertex within absolute/relative 1e-9 of the best objective.
    """
    points = enumerate_basic_feasible(lp, tol)
    if not points:
        return None
    obj_best = min(obj for _, obj in points)
    cutoff = obj_best + 1e-9 * (1.0 + abs(obj_best))
    optima = [x for x, obj in points if obj <= cutoff]
    x_best = min(points, key=lambda pair: pair[1])[0]
    return x_best, obj_best, optima


def oracle_is_unique(optima, tol: float = 1e-7) -> bool:
    ref = optima[0]
    return all(np.max(np.abs(x - ref)) <= tol for x in optima[1:])


# --- random instance generators ----------------------------------------------


def random_agent(rng: np.random.Generator, p: int, allow_inf: bool = True) -> AgentProfile:
    n = int(rng.integers(1, 3))
    d = np.where(
        rng.random(n) < 0.75 if allow_inf else np.ones(n, bool),
        rng.uniform(0.3, 3.0, n),
        np.inf,
    )
    return AgentProfile(
        n=n,
        c=rng.uniform(-4.0, 3.0, n),
        d=d,
        A=rng.uniform(0.05, 1.5, (p, n)),
    )


def random_sharing_problem(
    rng: np.random.Generator,
    max_ell: int = 12,
    allow_inf: bool = True,
    n0: int | None = None,
) -> SharingProblem:
    """Feasible, bounded random instance: usage entries are strictly positive
    (so no recession direction exists) and budgets come from a random interior
    point, with slack margins on the inequality rows."""
    p = int(rng.integers(1, 4))
    n0 = int(rng.integers(0, p + 1)) if n0 is None else n0
    agents = []
    total = n0
    target = int(rng.integers(max(p, n0 + 1), max_ell + 1))
    while total < target:
        ag = random_agent(rng, p, allow_inf)
        if total + ag.n > max_ell:
            break
        agents.append(ag)
        total += ag.n
    while total < p or not agents:  # keep ell >= p and at least one agent
        ag = random_agent(rng, p, allow_inf)
        agents.append(ag)
        total += ag.n

    x_ref = np.concatenate(
        [
            np.where(
                np.isfinite(ag.d),
                rng.uniform(0.1, 0.9, ag.n) * np.minimum(ag.d, 2.5),
                rng.uniform(0.1, 2.0, ag.n),
            )
            for ag in agents
        ]
    )
    A_agents = np.hstack([ag.A for ag in agents])
    b = A_agents @ x_ref
    b[:n0] += rng.uniform(0.05, 1.0, n0)
    return SharingProblem(p=p, n0=n0, b=b, agents=tuple(agents))


def random_unbounded_free_problem(rng: np.random.Generator) -> SharingProblem:
    """All upper limits infinite, equality rows only (the no-limit setting)."""
    p = int(rng.integers(1, 4))
    m = int(rng.integers(max(2, p), 7))
    agents = []
    for _ in range(m):
        n = int(rng.integers(1, 3))
        agents.append(
            AgentProfile(
                n=n,
                c=rng.uniform(-4.0, 3.0, n),
                d=np.full(n, np.inf),
                A=rng.uniform(0.2, 2.0, (p, n)),
            )
        )
    x_ref = np.concatenate([rng.uniform(0.2, 1.5, ag.n) for ag in agents])
    b = np.hstack([ag.A for ag in agents]) @ x_ref
    return SharingProblem(p=p, n0=0, b=b, agents=tuple(agents))


def flagged_or_clean_instance(rng: np.random.Generator, shape: str):
    """A random instance and its optimum from the production solver.

    ``duplicate`` clones a basic agent, so its reduced cost vanishes
    (non-unique optimum); ``vertex`` moves the budgets so that a basic
    variable of the optimum sits at zero (degenerate optimum); ``price_tie``
    gives every agent coordinate the same cost; ``unlimited`` has equality
    rows only and no finite upper limit; ``random`` is usually clean.
    """
    if shape == "unlimited":
        lp = assemble(random_unbounded_free_problem(rng))
        return lp, solve_primal(lp)
    lp = assemble(random_sharing_problem(rng))
    if shape == "price_tie":
        c = lp.c.copy()
        c[lp.n0 :] = rng.uniform(-4.0, -0.5)
        lp = AssembledLP(
            A=lp.A, b=lp.b, c=c, d=lp.d, n0=lp.n0, agent_spans=lp.agent_spans
        )
        return lp, solve_primal(lp)
    sol = solve_primal(lp)
    basic_agents = [j for j in sol.partition.basic if j >= lp.n0]
    if shape == "duplicate" and basic_agents:
        j = basic_agents[0]
        clone = AgentProfile(n=1, c=lp.c[j : j + 1], d=lp.d[j : j + 1], A=lp.A[:, j : j + 1])
        lp = augment(lp, clone)
    elif shape == "vertex":
        x = sol.x.copy()
        x[sol.partition.basic[0]] = 0.0
        lp = AssembledLP(
            A=lp.A, b=lp.A @ x, c=lp.c, d=lp.d, n0=lp.n0, agent_spans=lp.agent_spans
        )
    return lp, solve_primal(lp)


# --- complementary slackness (criterion 4) ------------------------------------


@dataclass(frozen=True)
class SlacknessReport:
    """Complementary-slackness products and the strict activity/multiplier
    equivalences that hold at clean optima. ``mismatches`` lists coordinates
    where an equivalence failed in either direction."""

    max_upper_product: float
    max_stationarity_product: float
    products_ok: bool
    interior_iff_zero_gradient: bool
    upper_iff_positive_nu: bool
    mismatches: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.products_ok
            and self.interior_iff_zero_gradient
            and self.upper_iff_positive_nu
        )


def verify_complementary_slackness(
    lp: AssembledLP,
    solution: PrimalSolution,
    cert: DualCertificate,
) -> SlacknessReport:
    """Check the slackness products (with inf * 0 = 0) plus both directions of
    the activity/multiplier equivalences. Pure report, never raises."""
    x = solution.x
    lam, nu = cert.lam, cert.nu
    d = lp.d
    finite = np.isfinite(d)

    gap = np.where(finite, x - np.where(finite, d, 0.0), 0.0)
    upper_products = np.abs(gap * nu)
    upper_products = np.where(~finite & (nu > ACT_TOL), np.inf, upper_products)

    grad = -lp.c - lam @ lp.A
    stationarity_products = np.abs((grad - nu) * x)

    scale = ACT_TOL * (1.0 + np.max(np.abs(x), initial=0.0)) * (
        1.0 + np.max(np.abs(lam), initial=0.0) + np.max(np.abs(nu), initial=0.0)
    )
    products_ok = bool(
        np.max(upper_products, initial=0.0) <= scale
        and np.max(stationarity_products, initial=0.0) <= scale
    )

    interior = (x > ACT_TOL) & (~finite | (x < d - ACT_TOL))
    zero_grad = np.abs(grad) <= ACT_TOL
    at_upper = finite & (x >= d - ACT_TOL)
    nu_pos = nu > ACT_TOL

    mismatches = []
    for j in np.flatnonzero(interior != zero_grad):
        mismatches.append(
            f"coordinate {j}: interior={bool(interior[j])} but |grad|={abs(grad[j]):.3e}"
        )
    for j in np.flatnonzero(at_upper != nu_pos):
        mismatches.append(
            f"coordinate {j}: at_upper={bool(at_upper[j])} but nu={nu[j]:.3e}"
        )

    return SlacknessReport(
        max_upper_product=float(np.max(upper_products, initial=0.0)),
        max_stationarity_product=float(np.max(stationarity_products, initial=0.0)),
        products_ok=products_ok,
        interior_iff_zero_gradient=bool(np.all(interior == zero_grad)),
        upper_iff_positive_nu=bool(np.all(at_upper == nu_pos)),
        mismatches=tuple(mismatches),
    )


# --- cargo change probability -------------------------------------------------


def cargo_change_probability(lam, config) -> float:
    """Exact chance that one cargo newcomer changes an optimum whose budget
    multipliers are ``lam`` (weight row, volume row).

    The newcomer's reduced cost is -price + lam_0 + lam_1 / rho, so it changes
    the optimum iff price > theta(rho) = lam_0 + RC_TOL + lam_1 / rho. With
    price ~ U[p_min, p_max] independent of rho ~ U[rho_min, rho_max], and the
    demand not entering, this is the mean over rho of
    clip((p_max - theta(rho)) / (p_max - p_min), 0, 1). theta is monotone in
    rho, so the density range splits where theta crosses p_min and p_max; each
    piece integrates in closed form. Shares no code with the certificate.
    """
    lam0, lam1 = float(lam[0]), float(lam[1])
    p_min, p_max = config.p_min, config.p_max
    r_min, r_max = config.rho_min, config.rho_max
    assert p_min < p_max and r_min < r_max and lam1 >= 0.0
    base = lam0 + RC_TOL

    def theta(rho):
        return base + lam1 / rho

    cuts = [r_min, r_max]
    for price in (p_min, p_max):
        if lam1 > 0.0 and price > base:
            rho = lam1 / (price - base)
            if r_min < rho < r_max:
                cuts.append(rho)
    cuts.sort()
    total = 0.0
    for r0, r1 in zip(cuts[:-1], cuts[1:]):
        mid = theta(0.5 * (r0 + r1))
        if mid >= p_max:
            continue
        if mid <= p_min:
            total += r1 - r0
        else:
            total += ((p_max - base) * (r1 - r0) - lam1 * math.log(r1 / r0)) / (p_max - p_min)
    return total / (r_max - r_min)


# --- high-precision polynomial oracles ----------------------------------------


def poly_residual_exact(m: int, k: int, beta: float, t: float) -> float:
    """Exact rational evaluation of the confidence polynomial, scaled by its
    largest term. Tractable for small m only."""
    tf = Fraction(t)
    bf = Fraction(beta)
    terms = [Fraction(math.comb(m, k)) * tf ** (m - k)]
    for i in range(k, m):
        terms.append(-bf * math.comb(i, k) * tf ** (i - k) / (2 * m))
    for i in range(m + 1, 4 * m + 1):
        terms.append(-bf * math.comb(i, k) * tf ** (i - k) / (6 * m))
    value = sum(terms)
    scale = max(abs(term) for term in terms)
    return float(value / scale)


def poly_residual_mp(m: int, k: int, beta: float, t: float, dps: int = 60) -> float:
    """Arbitrary-precision evaluation, scaled by the largest term."""
    with mpmath.workdps(dps):
        tf = mpmath.mpf(t)
        bf = mpmath.mpf(beta)
        terms = [mpmath.binomial(m, k) * tf ** (m - k)]
        for i in range(k, m):
            terms.append(-bf * mpmath.binomial(i, k) * tf ** (i - k) / (2 * m))
        for i in range(m + 1, 4 * m + 1):
            terms.append(-bf * mpmath.binomial(i, k) * tf ** (i - k) / (6 * m))
        value = mpmath.fsum(terms)
        scale = max(abs(term) for term in terms)
        return float(value / scale)


@functools.lru_cache(maxsize=None)
def cached_table(m: int, beta: float):
    return epsilon_table(m, beta)
