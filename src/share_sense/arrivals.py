"""Does a newly arriving agent change the optimal allocation?

The certificate evaluates the newcomer's reduced costs ``c + lam^T A``
against the multipliers ``lam`` of the current optimal basis; a strictly
negative entry means the enlarged problem has a better optimum. ``lam`` is
the ``PrimalSolution.lam`` the simplex left from its final basis inverse, so
a screen solves nothing. One newcomer is classified on Python floats by
``changes_solution``. ``empirical_violation_probability`` takes a batch as
stacked columns ``(c, d, A)`` plus the column where each newcomer starts, and
classifies it in one array pass. Both sum in the same order, so they agree
to the last bit.

The independent check is a re-solve of the enlarged problem. Appending the
newcomer's columns at their lower bound keeps the old optimal basis feasible,
so ``solve_augmented(..., base=solution)`` restarts phase 2 from it; the
campaign audits re-solve this way. Without ``base`` the re-solve starts cold
from phase 1 and shares nothing with the base solve: that is the reference
the acceptance and unit tests compare the certificate against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBase
from .lp_core import (
    ACT_TOL,
    RC_TOL,
    AgentProfile,
    AssembledLP,
    BasisPartition,
    PrimalSolution,
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

    ``changes`` is true iff some reduced-cost entry is below -RC_TOL. ``tie``
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


def _newcomer(c: np.ndarray, d: np.ndarray, A: np.ndarray, starts, i: int) -> AgentProfile:
    """Newcomer i of a stack, as its own profile."""
    lo = starts[i]
    hi = starts[i + 1] if i + 1 < len(starts) else A.shape[1]
    return AgentProfile(n=hi - lo, c=c[lo:hi], d=d[lo:hi], A=A[:, lo:hi])


def _check_stack_values(c: np.ndarray, d: np.ndarray, A: np.ndarray, starts) -> None:
    """``AgentProfile``'s value checks over a whole stack in one pass: finite
    costs and usage, and limits > 0 or +inf. The first newcomer that fails is
    built as a profile, so the error names it with the profile's message."""
    ok = np.isfinite(c)
    ok &= d > 0.0  # False on NaN, -inf and finite entries <= 0
    for row in A:  # one row at a time keeps the temporaries to one bool per column
        ok &= np.isfinite(row)
    if ok.all():
        return
    col = int(np.argmin(ok))
    i = int(np.searchsorted(starts, col, side="right")) - 1
    try:
        _newcomer(c, d, A, starts, i)
    except ValueError as err:
        raise ValueError(f"newcomer {i}: {err}") from None


def _classify(lam: np.ndarray, c: np.ndarray, A: np.ndarray, starts):
    """Reduced costs of stacked newcomer columns and per-newcomer flags.

    Newcomer i owns the columns from ``starts[i]`` up to the next start. It
    changes the optimum iff one of its reduced costs is below -RC_TOL, and
    ties iff it does not and one of them vanishes. ``lam^T A`` is summed row
    by row, because a BLAS product rounds a column by its place in the stack.
    Returns (rc, changed, tie).

    The batch screen of ``empirical_violation_probability``. It sums in the
    order of ``changes_solution``, so both give the same bits
    (``test_stacked_screen_matches_one_at_a_time``).
    """
    rc = lam[0] * A[0]
    for k in range(1, lam.size):
        rc += lam[k] * A[k]
    rc += c
    changed = _any_per_segment(rc < -RC_TOL, starts)
    tie = ~changed & _any_per_segment(np.abs(rc) <= RC_TOL, starts)
    return rc, changed, tie


def changes_solution(
    lp: AssembledLP,
    solution: PrimalSolution,
    newcomer: AgentProfile,
    allow_flagged: bool = False,
) -> ArrivalVerdict:
    """Reduced-cost certificate: would adding ``newcomer`` move the optimum?

    Refuses flagged (degenerate or non-unique) base solutions unless
    ``allow_flagged`` is set, because the certificate is only reliable under
    the clean-basis conditions.

    The screen for one newcomer: its few columns are summed on Python floats,
    which skips numpy's fixed cost per call. The order of operations is that
    of the batch screen ``_classify``, so both give the same bits, signed
    zeros included (``test_stacked_screen_matches_one_at_a_time``).
    """
    _check_base(solution, allow_flagged)
    _check_rows(lp, newcomer.A)
    lam = solution.lam.tolist()
    rows = newcomer.A.tolist()
    rc = newcomer.c.tolist()
    for j, cj in enumerate(rc):
        r = lam[0] * rows[0][j]
        for k in range(1, len(lam)):
            r += lam[k] * rows[k][j]
        rc[j] = r + cj
    changed = min(rc) < -RC_TOL
    tie = not changed and any(abs(r) <= RC_TOL for r in rc)
    return ArrivalVerdict(changes=changed, reduced_costs=np.array(rc), tie=tie)


def augment(lp: AssembledLP, newcomer: AgentProfile) -> AssembledLP:
    """The LP with the newcomer's block appended after all existing agents."""
    _check_rows(lp, newcomer.A)
    start = lp.ell
    return AssembledLP(
        A=np.concatenate([lp.A, newcomer.A], axis=1),
        b=lp.b,
        c=np.concatenate([lp.c, newcomer.c]),
        d=np.concatenate([lp.d, newcomer.d]),
        n0=lp.n0,
        agent_spans=lp.agent_spans + ((start, start + newcomer.n),),
    )


def solve_augmented(
    lp: AssembledLP, newcomer: AgentProfile, base: PrimalSolution | None = None
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
    return solve_primal(augmented, start=start)


def _resolve_says_changed(base: PrimalSolution, augmented: PrimalSolution) -> bool:
    start, stop = augmented.agent_spans[-1]
    if np.any(np.abs(augmented.x[start:stop]) > ACT_TOL):
        return True
    rel = abs(augmented.objective - base.objective) / (1.0 + abs(base.objective))
    return rel > 1e-8


def _audit_disagrees(
    lp: AssembledLP,
    solution: PrimalSolution,
    newcomer: AgentProfile,
    changes: bool,
) -> bool:
    """Re-solve warm from ``solution`` and compare with the certificate."""
    augmented = solve_augmented(lp, newcomer, base=solution)
    return _resolve_says_changed(solution, augmented) != changes


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


def _audit_draws(draws: int, fraction: float) -> np.ndarray:
    """The draws i at which floor(i * fraction) steps up, draw 0 first:
    floor((draws - 1) * fraction) + 1 of them, evenly spread.

    The step to j lies within one draw of j / fraction, so only those draws
    are tested, each once; the work and memory scale with the audit, not
    with the draws.
    """
    if fraction == 0.0:
        return np.empty(0, dtype=int)
    steps = np.arange(math.floor(draws * fraction) + 1)
    near = np.sort((np.ceil(steps / fraction)[:, None] + (-1.0, 0.0, 1.0)).ravel())
    near = near[(near >= 0.0) & (near < draws) & (np.diff(near, prepend=-1.0) > 0.0)]
    up = np.floor(near * fraction) != np.floor((near - 1.0) * fraction)
    return near[up].astype(int)


def empirical_violation_probability(
    lp: AssembledLP,
    solution: PrimalSolution,
    c: np.ndarray,
    d: np.ndarray,
    A: np.ndarray,
    starts=None,
    audit_fraction: float = 0.0,
    allow_flagged: bool = False,
) -> ViolationEstimate:
    """Monte Carlo estimate over stacked i.i.d. newcomers.

    Newcomer i owns the columns of ``c``, ``d`` and ``A`` from ``starts[i]``
    up to the next start; ``starts=None`` gives each column its own newcomer,
    as the campaign's scalar arrivals have. A value ``AgentProfile`` would
    refuse raises its ``ValueError`` before any newcomer is screened. All
    newcomers are classified together by the certificate; re-solves run only
    on the audit subsample: draw i wherever floor(i * audit_fraction) steps
    up, ties skipped.
    """
    if not 0.0 <= audit_fraction <= 1.0:
        raise ValueError(f"audit_fraction must lie in [0, 1], got {audit_fraction}")
    _check_base(solution, allow_flagged)
    _check_rows(lp, A)
    ncols = A.shape[1]
    if c.shape != (ncols,) or d.shape != (ncols,):
        raise ValueError(f"newcomer stack has c{c.shape} and d{d.shape} for {ncols} columns")
    if starts is None:
        starts = range(ncols)  # one column each; a range allocates no array
    elif not (len(starts) and starts[0] == 0 and starts[-1] < ncols and np.all(np.diff(starts) > 0)):
        raise ValueError(f"starts must begin at 0 and ascend strictly below {ncols} columns")
    draws = len(starts)
    if draws < 1:
        raise ValueError("need at least one draw")
    _check_stack_values(c, d, A, starts)

    _, changed, ties = _classify(solution.lam, c, A, starts)

    audited = mismatches = 0
    for i in _audit_draws(draws, audit_fraction):
        if ties[i]:
            continue
        audited += 1
        mismatches += _audit_disagrees(
            lp, solution, _newcomer(c, d, A, starts, i), bool(changed[i])
        )
    n_changes = int(changed.sum())
    return ViolationEstimate(
        fraction=n_changes / draws,
        changes=n_changes,
        ties=int(ties.sum()),
        draws=draws,
        audited=audited,
        audit_mismatches=mismatches,
    )
