"""Does a newly arriving agent change the optimal allocation?

The certificate evaluates the newcomer's reduced costs ``c + lam^T A``
against the multipliers ``lam`` of the current optimal basis; a strictly
negative entry means the enlarged problem has a better optimum. ``lam`` is
solved once per base solution, and every newcomer of a screen, however it was
sampled, is classified in one array pass over the stacked columns.

The independent check is a re-solve of the enlarged problem. Appending the
newcomer's columns at their lower bound keeps the old optimal basis feasible,
so ``solve_augmented(..., base=solution)`` restarts phase 2 from it; the
campaign audits re-solve this way. Without ``base`` the re-solve starts cold
from phase 1 and shares nothing with the base solve: that is the reference
the acceptance and unit tests compare the certificate against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .duality import dual_closed_form
from .errors import DegenerateBase
from .lp_core import (
    DEFAULT_TOLS,
    AgentProfile,
    AssembledLP,
    BasisPartition,
    PrimalSolution,
    Tolerances,
    _any_per_segment,
    solve_primal,
)

__all__ = [
    "ArrivalVerdict",
    "ViolationEstimate",
    "augment",
    "changes_solution",
    "empirical_violation_probability",
    "solve_augmented",
]


@dataclass(frozen=True, eq=False)
class ArrivalVerdict:
    """Outcome of the reduced-cost test for one newcomer.

    ``changes`` is true iff some reduced-cost entry is below -tol.rc. ``tie``
    marks a vanishing reduced cost: the newcomer could be swapped in at no
    gain, classified as no change.
    """

    changes: bool
    reduced_costs: np.ndarray
    tie: bool


def _check_base(solution: PrimalSolution, allow_flagged: bool) -> None:
    if not solution.clean and not allow_flagged:
        raise DegenerateBase(
            "base solution carries degeneracy/non-uniqueness flags; verdict would be unreliable"
        )


def _check_rows(lp: AssembledLP, A: np.ndarray) -> None:
    if A.shape[0] != lp.p:
        raise ValueError(
            f"newcomer usage matrix has {A.shape[0]} rows, expected p={lp.p}"
        )


def _classify(lam: np.ndarray, c: np.ndarray, A: np.ndarray, starts, tol: Tolerances):
    """Reduced costs of stacked newcomer columns and per-newcomer flags.

    Newcomer i owns the columns from ``starts[i]`` up to the next start. It
    changes the optimum iff one of its reduced costs is below -tol.rc, and
    ties iff it does not and one of them vanishes. ``lam^T A`` is summed row
    by row, because a BLAS product rounds a column by its place in the stack.
    Returns (rc, changed, tie).
    """
    rc = lam[0] * A[0]
    for k in range(1, lam.size):
        rc += lam[k] * A[k]
    rc += c
    changed = _any_per_segment(rc < -tol.rc, starts)
    tie = ~changed & _any_per_segment(np.abs(rc) <= tol.rc, starts)
    return rc, changed, tie


def changes_solution(
    lp: AssembledLP,
    solution: PrimalSolution,
    newcomer: AgentProfile,
    tol: Tolerances = DEFAULT_TOLS,
    allow_flagged: bool = False,
) -> ArrivalVerdict:
    """Reduced-cost certificate: would adding ``newcomer`` move the optimum?

    Refuses flagged (degenerate or non-unique) base solutions unless
    ``allow_flagged`` is set, because the certificate is only reliable under
    the clean-basis conditions.
    """
    _check_base(solution, allow_flagged)
    _check_rows(lp, newcomer.A)
    lam = dual_closed_form(lp, solution.partition)
    rc, changed, tie = _classify(lam, newcomer.c, newcomer.A, (0,), tol)
    return ArrivalVerdict(changes=bool(changed[0]), reduced_costs=rc, tie=bool(tie[0]))


def augment(lp: AssembledLP, newcomer: AgentProfile) -> AssembledLP:
    """The LP with the newcomer's block appended after all existing agents."""
    _check_rows(lp, newcomer.A)
    start = lp.ell
    return AssembledLP(
        A=np.hstack([lp.A, newcomer.A]),
        b=lp.b,
        c=np.concatenate([lp.c, newcomer.c]),
        d=np.concatenate([lp.d, newcomer.d]),
        n0=lp.n0,
        agent_spans=lp.agent_spans + ((start, start + newcomer.n),),
    )


def solve_augmented(
    lp: AssembledLP,
    newcomer: AgentProfile,
    tol: Tolerances = DEFAULT_TOLS,
    base: PrimalSolution | None = None,
) -> PrimalSolution:
    """Re-solve with the newcomer included. The old optimum padded with zeros
    stays feasible, so the objective can only improve or stay equal.

    With ``base`` (an optimum of ``lp``) the simplex starts from its basis,
    the newcomer's columns at their lower bound; without it, from scratch.
    """
    augmented = augment(lp, newcomer)
    start = None
    if base is not None:
        part = base.partition
        start = BasisPartition(
            basic=part.basic,
            at_lower=part.at_lower + tuple(range(lp.ell, augmented.ell)),
            at_upper=part.at_upper,
        )
    return solve_primal(augmented, tol, start=start)


def _resolve_says_changed(
    base: PrimalSolution, augmented: PrimalSolution, tol: Tolerances
) -> bool:
    start, stop = augmented.agent_spans[-1]
    if np.any(np.abs(augmented.x[start:stop]) > tol.act):
        return True
    rel = abs(augmented.objective - base.objective) / (1.0 + abs(base.objective))
    return rel > 1e-8


def _audit_disagrees(
    lp: AssembledLP,
    solution: PrimalSolution,
    newcomer: AgentProfile,
    changes: bool,
    tol: Tolerances,
) -> bool:
    """Re-solve warm from ``solution`` and compare with the certificate."""
    augmented = solve_augmented(lp, newcomer, tol, base=solution)
    return _resolve_says_changed(solution, augmented, tol) != changes


@dataclass(frozen=True)
class ViolationEstimate:
    """Empirical fraction of arrivals that change the optimum.

    ``ties`` counts zero-reduced-cost arrivals (classified as no change).
    When an audit subsample was re-solved, ``audited``/``audit_mismatches``
    report how many certificates were double-checked and how many disagreed.
    """

    fraction: float
    changes: int
    ties: int
    draws: int
    audited: int = 0
    audit_mismatches: int = 0

    def __float__(self) -> float:
        return self.fraction


def empirical_violation_probability(
    lp: AssembledLP,
    solution: PrimalSolution,
    sampler,
    draws: int,
    rng: np.random.Generator,
    tol: Tolerances = DEFAULT_TOLS,
    audit_fraction: float = 0.0,
    allow_flagged: bool = False,
) -> ViolationEstimate:
    """Monte Carlo estimate over ``draws`` i.i.d. newcomers from ``sampler``.

    ``sampler(rng)`` must return an AgentProfile; a sampler exposing
    ``sample_batch(draws, rng) -> (c, d, A)`` (stacked arrays for scalar
    agents) is asked for the whole batch at once. Either way the newcomers
    are classified together by the certificate; re-solves run only on the
    audit subsample.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    _check_base(solution, allow_flagged)

    if hasattr(sampler, "sample_batch"):
        cs, ds, As = sampler.sample_batch(draws, rng)
        _check_rows(lp, As)
        starts = range(draws)  # one column each; a range allocates no array

        def newcomer(i: int) -> AgentProfile:
            return AgentProfile(n=1, c=cs[i : i + 1], d=ds[i : i + 1], A=As[:, i : i + 1])

    else:
        newcomers = [sampler(rng) for _ in range(draws)]
        for nc in newcomers:
            _check_rows(lp, nc.A)
        cs = np.concatenate([nc.c for nc in newcomers])
        As = np.hstack([nc.A for nc in newcomers])
        starts = np.cumsum([0] + [nc.n for nc in newcomers[:-1]])
        newcomer = newcomers.__getitem__

    lam = dual_closed_form(lp, solution.partition)
    _, changed, ties = _classify(lam, cs, As, starts, tol)

    audited = mismatches = 0
    audit_step = int(round(1.0 / audit_fraction)) if audit_fraction > 0.0 else 0
    if audit_step:
        for i in range(0, draws, audit_step):
            if ties[i]:
                continue
            audited += 1
            mismatches += _audit_disagrees(lp, solution, newcomer(i), bool(changed[i]), tol)
    n_changes = int(changed.sum())
    return ViolationEstimate(
        fraction=n_changes / draws,
        changes=n_changes,
        ties=int(ties.sum()),
        draws=draws,
        audited=audited,
        audit_mismatches=mismatches,
    )
