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
so ``solve_augmented(..., base=solution)`` restarts phase 2 from the
solution's own basis arrays. The campaign audits re-solve this way, many at
once: ``empirical_violation_probability`` groups its audited draws by
newcomer width and hands each group to ``solve_augmented`` as stacks of
column slices (the stack ``_check_stack_values`` has checked), which
``lp_core.solve_appended`` re-solves in one lock-step pivot loop per batch
of ``lp_core.appended_batch`` LPs. Each re-solve gets the bits of its
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
    _any_per_segment,
    _unchecked,
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


def _span(starts, i: int, ncols: int) -> tuple[int, int]:
    """The columns lo..hi of newcomer i in a stack of ``ncols`` columns."""
    return int(starts[i]), int(starts[i + 1]) if i + 1 < len(starts) else ncols


def _newcomer(c: np.ndarray, d: np.ndarray, A: np.ndarray, starts, i: int) -> AgentProfile:
    """Newcomer i of a stack, as its own checked profile."""
    lo, hi = _span(starts, i, A.shape[1])
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
    that their span can follow the last one (an LP without agent blocks must
    end at its slacks)."""
    _check_rows(lp, rows)
    if not lp.agent_spans and lp.ell != lp.n0:
        raise ValueError(
            f"an LP with no agent spans has {lp.ell - lp.n0} columns past its "
            f"{lp.n0} slacks; a newcomer cannot follow them"
        )


def augment(lp: AssembledLP, newcomer: AgentProfile) -> AssembledLP:
    """The LP with the newcomer's block appended after all existing agents.

    ``lp`` and ``newcomer`` passed their own checks when they were built, so
    only what the append adds is checked: the newcomer's row count, and that
    its span follows the last one (an LP without agent blocks must end at its
    slacks)."""
    _check_append(lp, newcomer.A.shape[0])
    start = lp.ell
    return _unchecked(
        AssembledLP,
        A=np.concatenate([lp.A, newcomer.A], axis=1),
        b=lp.b,
        c=np.concatenate([lp.c, newcomer.c]),
        d=np.concatenate([lp.d, newcomer.d]),
        n0=lp.n0,
        agent_spans=lp.agent_spans + ((start, start + newcomer.n),),
    )


def solve_augmented(
    lp: AssembledLP,
    newcomer: AgentProfile | tuple[np.ndarray, np.ndarray, np.ndarray],
    base: PrimalSolution | None = None,
) -> PrimalSolution | list[PrimalSolution]:
    """Re-solve with the newcomer included. The old optimum padded with zeros
    stays feasible, so the objective can only improve or stay equal.

    With ``base`` (an optimum of ``lp``) the simplex starts from its basis
    arrays, the newcomer's columns at their lower bound; without it, from
    scratch.

    ``newcomer`` is an ``AgentProfile``, or a stack of K newcomers of one
    width n as arrays ``(c, d, A)`` of shapes (K, n), (K, n) and (K, p, n),
    whose values the caller has checked. A stack needs ``base``: its K
    enlarged LPs are re-solved warm in one lock-step loop
    (``lp_core.solve_appended``), and the list of their K solutions returns,
    each to the bits of ``solve_augmented(lp, <newcomer k>, base=base)``.
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


def _resolve_says_changed(base: PrimalSolution, augmented: PrimalSolution) -> bool:
    start, stop = augmented.agent_spans[-1]
    # on Python floats: a newcomer has a column or two
    if any(abs(v) > ACT_TOL for v in augmented.x[start:stop].tolist()):
        return True
    rel = abs(augmented.objective - base.objective) / (1.0 + abs(base.objective))
    return rel > 1e-8


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
    up, ties skipped. The audited draws of one width are re-solved together,
    in stacks of at most ``appended_batch`` LPs, and each solution is dropped
    once compared, so the audit's memory is bounded by one batch.
    """
    if not 0.0 <= audit_fraction <= 1.0:
        raise ValueError(f"audit_fraction must lie in [0, 1], got {audit_fraction}")
    _check_base(solution, allow_flagged)
    _check_rows(lp, A.shape[0])
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

    changed, ties = _classify(solution.lam, c, A, starts)[1:]

    picked = _audit_draws(draws, audit_fraction)
    picked = picked[~ties[picked]]
    spans = np.array([_span(starts, i, ncols) for i in picked.tolist()], dtype=int).reshape(-1, 2)
    lo, width = spans[:, 0], spans[:, 1] - spans[:, 0]
    mismatches = 0
    for n in sorted(set(width.tolist())):  # np.unique imports numpy.ma, ~15 ms, on first use
        group = (width == n).nonzero()[0]
        batch = appended_batch(lp.p, lp.ell + n)
        for first in range(0, group.size, batch):
            part = group[first : first + batch]
            cols = lo[part][:, None] + np.arange(n)
            stack = (c[cols], d[cols], A[:, cols].transpose(1, 0, 2))
            # no name holds the solutions: they go before the next batch comes
            mismatches += sum(
                _resolve_says_changed(solution, plus) != changed[draw]
                for draw, plus in zip(
                    picked[part].tolist(), solve_augmented(lp, stack, base=solution)
                )
            )
    n_changes = int(changed.sum())
    return ViolationEstimate(
        fraction=n_changes / draws,
        changes=n_changes,
        ties=int(ties.sum()),
        draws=draws,
        audited=picked.size,
        audit_mismatches=int(mismatches),
    )
