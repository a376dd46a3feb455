"""Does a newly arriving agent change the optimal allocation?

The certificate evaluates the newcomer's reduced costs against the current
optimal basis; a strictly negative entry means the enlarged problem has a
better optimum. ``changes_solution`` also evaluates the multiplier form
(positive part of -c - lam^T A weighted by the upper limits) and requires the
two to agree.

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
from .errors import ArrivalFormsDisagree, DegenerateBase
from .lp_core import (
    DEFAULT_TOLS,
    AgentProfile,
    AssembledLP,
    BasisPartition,
    PrimalSolution,
    Tolerances,
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
    gain, classified as no change. ``resolve_objective_delta`` is filled only
    when a re-solve was requested.
    """

    changes: bool
    reduced_costs: np.ndarray
    tie: bool
    resolve_objective_delta: float | None = None


def _dual_form_changes(
    lam: np.ndarray, newcomer: AgentProfile, tol: Tolerances
) -> bool:
    """max{0, -c - lam^T A} d > 0 with the convention inf * 0 = 0."""
    gain = np.maximum(0.0, -newcomer.c - lam @ newcomer.A)
    gain[gain <= tol.rc] = 0.0
    finite = np.isfinite(newcomer.d)
    weighted = np.where(finite, gain * np.where(finite, newcomer.d, 0.0), 0.0)
    weighted = np.where(~finite & (gain > 0.0), np.inf, weighted)
    return bool(weighted.sum() > 0.0)


def changes_solution(
    lp: AssembledLP,
    solution: PrimalSolution,
    newcomer: AgentProfile,
    tol: Tolerances = DEFAULT_TOLS,
    resolve: bool = False,
    allow_flagged: bool = False,
) -> ArrivalVerdict:
    """Reduced-cost certificate: would adding ``newcomer`` move the optimum?

    Refuses flagged (degenerate or non-unique) base solutions unless
    ``allow_flagged`` is set, because the certificate is only reliable under
    the clean-basis conditions. Both the direct reduced-cost form and the
    multiplier form are evaluated and must classify identically.
    """
    if not solution.clean and not allow_flagged:
        raise DegenerateBase(
            "base solution carries degeneracy/non-uniqueness flags; verdict would be unreliable"
        )
    if newcomer.A.shape[0] != lp.p:
        raise ValueError(
            f"newcomer usage matrix has {newcomer.A.shape[0]} rows, expected p={lp.p}"
        )
    lam = dual_closed_form(lp, solution.partition)
    rc = newcomer.c + lam @ newcomer.A
    changes = bool(np.any(rc < -tol.rc))
    tie = bool(not changes and np.any(np.abs(rc) <= tol.rc))

    if _dual_form_changes(lam, newcomer, tol) != changes:
        raise ArrivalFormsDisagree(
            "reduced-cost and multiplier forms of the arrival test disagree"
        )

    delta = None
    if resolve:
        augmented = solve_augmented(lp, newcomer, tol)
        delta = float(augmented.objective - solution.objective)
    return ArrivalVerdict(
        changes=changes, reduced_costs=rc, tie=tie, resolve_objective_delta=delta
    )


def augment(lp: AssembledLP, newcomer: AgentProfile) -> AssembledLP:
    """The LP with the newcomer's block appended after all existing agents."""
    if newcomer.A.shape[0] != lp.p:
        raise ValueError(
            f"newcomer usage matrix has {newcomer.A.shape[0]} rows, expected p={lp.p}"
        )
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
    newcomer_idx = augmented.agent_index_map[-1]
    if np.any(np.abs(augmented.x[newcomer_idx]) > tol.act):
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
    agents) enables the vectorized path. The certificate is the default;
    re-solves run only on the audit subsample.
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    if not solution.clean and not allow_flagged:
        raise DegenerateBase(
            "base solution carries degeneracy/non-uniqueness flags"
        )

    if hasattr(sampler, "sample_batch"):
        cs, ds, As = sampler.sample_batch(draws, rng)
        rc = cs + dual_closed_form(lp, solution.partition) @ As
        changed = rc < -tol.rc
        ties = (~changed) & (np.abs(rc) <= tol.rc)

        def newcomer(i: int) -> AgentProfile:
            return AgentProfile(n=1, c=cs[i : i + 1], d=ds[i : i + 1], A=As[:, i : i + 1])

    else:
        newcomers = [sampler(rng) for _ in range(draws)]
        verdicts = [
            changes_solution(lp, solution, nc, tol, allow_flagged=allow_flagged)
            for nc in newcomers
        ]
        changed = np.array([v.changes for v in verdicts], dtype=bool)
        ties = np.array([v.tie for v in verdicts], dtype=bool)
        newcomer = newcomers.__getitem__

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
