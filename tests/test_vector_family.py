"""Coverage of the wait-and-judge interval on a family of vector agents.

Every agent, base and newcomer alike, has n=2 columns under p=3 inequality
budget rows: costs c ~ -U[1, 4], upper limits d ~ U[0.5, 2] and usage
A ~ U[0.1, 1], entry by entry. Each budget is 35% of what m agents would use
at mean demand and mean usage. Unlike the cargo LP, several budget rows are
priced at once and a newcomer can change the optimum through either of its
columns, so the screen's per-newcomer segments and the audits' two-column
re-solves are both exercised.
"""

import lp_oracles as oracle
from share_sense import (
    AgentProfile,
    SharingProblem,
    assemble,
    count_active_primal,
    empirical_violation_probability,
    solve_primal,
)
from share_sense.rng import stream

P, N, M, BETA = 3, 2, 50, 1e-7
DRAWS, TRIALS, AUDIT_FRACTION = 5000, 100, 0.01
BUDGET = 0.35 * M * N * 0.55 * 1.25


def draw_agents(rng, count):
    """``count`` agents stacked as (c, d, A), agent i in columns N*i .. N*i + N."""
    cols = N * count
    c = -rng.uniform(1.0, 4.0, cols)
    d = rng.uniform(0.5, 2.0, cols)
    return c, d, rng.uniform(0.1, 1.0, (P, cols))


def base_problem(rng):
    c, d, A = draw_agents(rng, M)
    agents = tuple(
        AgentProfile(n=N, c=c[j : j + N], d=d[j : j + N], A=A[:, j : j + N])
        for j in range(0, N * M, N)
    )
    return SharingProblem(p=P, n0=P, b=[BUDGET] * P, agents=agents)


def test_vector_family_covers_every_clean_trial():
    table = oracle.cached_table(M, BETA)
    clean = covered = mismatches = audited = ties = 0
    margins, s_stars = [], []
    for trial in range(TRIALS):
        lp = assemble(base_problem(stream(0, trial, "agents")))
        sol = solve_primal(lp)
        if not sol.clean:
            continue
        est = empirical_violation_probability(
            lp,
            sol,
            (*draw_agents(stream(0, trial, "arrivals"), DRAWS), range(0, N * DRAWS, N)),
            audit_fraction=AUDIT_FRACTION,
        )
        s_star = count_active_primal(sol)
        lo, hi = table.interval(s_star)
        clean += 1
        covered += lo <= est.fraction <= hi
        margins.append(min(est.fraction - lo, hi - est.fraction))
        s_stars.append(s_star)
        audited += est.audited
        mismatches += est.audit_mismatches
        ties += est.ties
    print(
        f"\n[vector family] {clean}/{TRIALS} clean, {covered} covered, smallest margin "
        f"{min(margins):.3f}, s* {min(s_stars)}-{max(s_stars)}, {ties} ties, "
        f"{mismatches}/{audited} audits disagreed"
    )
    assert clean >= TRIALS * 9 // 10
    assert covered == clean
    assert audited >= clean * DRAWS * AUDIT_FRACTION * 9 // 10
    assert mismatches == 0
