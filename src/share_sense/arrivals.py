"""Does a newly arriving agent change the optimal allocation?

The certificate evaluates the newcomer's reduced costs ``c + lam^T A``
against the multipliers ``lam`` of the current optimal basis; a strictly
negative entry means the enlarged problem has a better optimum. ``lam`` is
the ``PrimalSolution.lam`` the simplex left from its final basis inverse, so
a screen solves nothing. One newcomer is classified on Python floats by
``changes_solution``. ``empirical_violation_probability`` takes a batch as
one stack ``(c, d, A[, starts])``, columns plus the column where each
newcomer starts, and classifies it in one array pass. Both sum in the same
order, so they agree to the last bit.

The independent check is a re-solve of the enlarged problem, whose last
agent is the newcomer (``starts`` gains the old ``lp.ell``). Its columns at
their lower bound keep the old optimal basis feasible, so
``solve_augmented(..., base=solution)`` restarts phase 2 from the solution's
own basis arrays. The campaign audits re-solve this way, many at once:
``empirical_violation_probability`` cuts its audited draws out of the stack
(checked by ``lp_core._check_stack``), grouped by newcomer width, and hands
each group to ``solve_augmented``, which ``lp_core.solve_appended``
re-solves in one lock-step pivot loop per batch of ``appended_batch`` LPs;
the verdicts are read off a batch's solutions from ``starts[-1]`` on, in one
array pass. Each re-solve gets the bits of its
one-newcomer warm re-solve, and start feasibility, the scaled residual and
the degenerate/nonunique flags are still checked on every one. Without
``base`` the re-solve starts cold from phase 1 and shares nothing with the
base solve: that is the reference the acceptance and unit tests compare the
certificate against.
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
    PrimalSolution,
    SolutionStack,
    _any_per_segment,
    _check_stack,
    _set_fields,
    _span,
    appended_batch,
    solve_appended,
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


def _check_rows(lp: AssembledLP, rows: int) -> None:
    if rows != lp.p:
        raise ValueError(f"newcomer usage matrix has {rows} rows, expected p={lp.p}")


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
    _check_rows(lp, newcomer.A.shape[0])
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


def _check_append(lp: AssembledLP, rows: int) -> None:
    """What appending newcomer columns adds to check: their row count, and
    that their block can start at ``lp.ell`` (an LP without agent blocks must
    end at its slacks)."""
    _check_rows(lp, rows)
    if not lp.starts.size and lp.ell != lp.n0:
        raise ValueError(
            f"an LP with no agent starts has {lp.ell - lp.n0} columns past its "
            f"{lp.n0} slacks; a newcomer cannot follow them"
        )


def augment(lp: AssembledLP, newcomer: AgentProfile) -> AssembledLP:
    """The LP with the newcomer's block appended after all existing agents.
    Both passed their own checks when they were built, so only what the
    append adds is checked (``_check_append``)."""
    _check_append(lp, newcomer.A.shape[0])
    return _set_fields(
        object.__new__(AssembledLP),
        A=np.concatenate([lp.A, newcomer.A], axis=1),
        b=lp.b,
        c=np.concatenate([lp.c, newcomer.c]),
        d=np.concatenate([lp.d, newcomer.d]),
        n0=lp.n0,
        starts=np.concatenate([lp.starts, [lp.ell]]),
    )


def solve_augmented(
    lp: AssembledLP,
    newcomer: AgentProfile | tuple[np.ndarray, np.ndarray, np.ndarray],
    base: PrimalSolution | None = None,
) -> PrimalSolution | SolutionStack:
    """Re-solve with the newcomer included. The old optimum padded with zeros
    stays feasible, so the objective can only improve or stay equal.

    With ``base`` (an optimum of ``lp``) the simplex starts from its basis
    arrays, the newcomer's columns at their lower bound; without it, from
    scratch.

    ``newcomer`` is an ``AgentProfile``, or a stack of K newcomers of one
    width n as arrays ``(c, d, A)`` of shapes (K, n), (K, n) and (K, p, n),
    whose values the caller has checked. A stack needs ``base``: its K
    enlarged LPs are re-solved warm in one lock-step loop
    (``lp_core.solve_appended``), and their K solutions return stacked, item
    k to the bits of ``solve_augmented(lp, <newcomer k>, base=base)``.
    """
    if isinstance(newcomer, AgentProfile):
        return solve_primal(augment(lp, newcomer), start=base)
    if base is None:
        raise ValueError("a stack of newcomers is re-solved warm: pass base")
    c, d, A = newcomer
    if A.ndim != 3 or c.shape != (A.shape[0], A.shape[2]) or d.shape != c.shape:
        raise ValueError(f"newcomer stack has c{c.shape}, d{d.shape} and A{A.shape}")
    _check_append(lp, A.shape[1])
    return solve_appended(lp, c, d, A, base)


def _resolve_says_changed(base: PrimalSolution, augmented: PrimalSolution | SolutionStack):
    """Whether a re-solve moved the optimum: a column of the newcomer left 0,
    or the objective stepped by more than 1e-8 relative to the base. A bool
    for one solution, one per LP for a stack."""
    moved = (np.abs(augmented.x[..., augmented.starts[-1] :]) > ACT_TOL).any(axis=-1)
    rel = np.abs(augmented.objective - base.objective) / (1.0 + abs(base.objective))
    return moved | (rel > 1e-8)


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
    newcomers: tuple,
    audit_fraction: float = 0.0,
    allow_flagged: bool = False,
) -> ViolationEstimate:
    """Monte Carlo estimate over stacked i.i.d. newcomers.

    ``newcomers`` is a stack ``(c, d, A)`` or ``(c, d, A, starts)``, as
    ``SharingProblem`` takes its agents: newcomer i owns the columns from
    ``starts[i]`` up to the next start, and without ``starts`` (or with None)
    each column is a newcomer of its own, as the campaign's scalar arrivals
    are. A value ``AgentProfile`` would refuse raises its ``ValueError``
    before any newcomer is screened. All newcomers are classified together by
    the certificate; re-solves run only on the audit subsample: draw i
    wherever floor(i * audit_fraction) steps up, ties skipped.

    The audited columns are cut out of the stack right after the screen and
    the stack is let go: passed as a fresh tuple, as ``cargo.run_trial``
    does, its arrays are freed before the re-solves start. The audited draws
    of one width are re-solved together, in stacks of at most
    ``appended_batch`` LPs, and each batch's solutions are dropped once
    compared.
    """
    if not 0.0 <= audit_fraction <= 1.0:
        raise ValueError(f"audit_fraction must lie in [0, 1], got {audit_fraction}")
    _check_base(solution, allow_flagged)
    c, d, A = newcomers[:3]
    starts = newcomers[3] if len(newcomers) > 3 else None
    del newcomers
    starts = _check_stack(c, d, A, starts, lp.p, "newcomer")
    ncols, draws = A.shape[1], len(starts)
    if draws < 1:
        raise ValueError("need at least one draw")

    changed, ties = _classify(solution.lam, c, A, starts)[1:]

    picked = _audit_draws(draws, audit_fraction)
    picked = picked[~ties[picked]]
    spans = np.array([_span(starts, i, ncols) for i in picked.tolist()], dtype=int).reshape(-1, 2)
    lo, width = spans[:, 0], spans[:, 1] - spans[:, 0]
    audits = []  # (the draws, their stacked columns) per newcomer width
    for n in sorted(set(width.tolist())):  # np.unique imports numpy.ma, ~15 ms, on first use
        group = (width == n).nonzero()[0]
        cols = lo[group][:, None] + np.arange(n)
        audits.append((picked[group], c[cols], d[cols], A[:, cols].transpose(1, 0, 2)))
    del c, d, A

    mismatches = 0
    for drawn, cs, ds, As in audits:
        batch = appended_batch(lp.p, lp.ell + cs.shape[1])
        for first in range(0, drawn.size, batch):
            part = slice(first, first + batch)
            # no name holds the solutions: they go before the next batch comes
            says = _resolve_says_changed(
                solution, solve_augmented(lp, (cs[part], ds[part], As[part]), base=solution)
            )
            mismatches += int((says != changed[drawn[part]]).sum())
    n_changes = int(changed.sum())
    return ViolationEstimate(
        fraction=n_changes / draws,
        changes=n_changes,
        ties=int(ties.sum()),
        draws=draws,
        audited=picked.size,
        audit_mismatches=mismatches,
    )
