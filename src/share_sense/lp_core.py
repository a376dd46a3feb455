"""Core LP machinery for multi-agent resource sharing with upper limits.

Assembled problems have the form

    min  c^T x   subject to   A x = b,   0 <= x_j <= d_j,

where the leading ``n0`` columns are slack variables absorbing the inequality
budget rows (cost 0, no upper limit) and the remaining column blocks belong to
the agents, in input order: agent i from column ``starts[i]`` to the next
start, the last to the end. The LP and its solutions hold that ``starts``,
the problem the same from column 0 of its stack. Upper limits may be
``+inf``; infinities are kept as genuine extended reals, never as large
sentinel numbers.

The solver is a dense bounded-variable revised simplex with a phase-1
feasibility stage (artificial variables on rows not covered by a slack/crash
column). A caller holding a feasible basis can pass it as ``start`` and go
straight to phase 2: a ``BasisPartition`` of the columns, or a solution of the
same problem before columns were appended, whose ``basis`` and ``status``
arrays are copied with the new columns at lower. Every start is converted to
those arrays and checked for feasibility once. It targets desk-scale problems:
hundreds of variables, a handful of budget rows. Rows of ``A`` and ``b`` are rescaled to unit max-norm before
pivoting because realistic instances mix magnitudes like 1 and 1/7000.

Each phase inverts its starting basis once and keeps the inverse across
pivots, updating it by rank 1 on a basis change and rebuilding it every
``_REFACTOR_EVERY`` basis changes (every one with at most two rows). Optimality
is only declared on a fresh inverse, so the returned solution comes from a
fresh inverse of the final basis, and near-ties in pricing and in the ratio
test go to the lowest index, so rounding in the updated inverse does not steer
the pivots. A run of bound flips, which keeps the basis, is made in one
vectorized pass, with the pivots the loop would make one flip at a time.

``solve_appended`` re-solves a stack of LPs that differ only in the columns
appended to one LP, each warm from that LP's solution, in one lock-step pivot
loop over stacked arrays: one numpy call serves every LP of the batch. Each
LP keeps every rule above and comes out to the bits ``solve_primal`` gives it
alone. One LP runs faster through ``solve_primal``'s own loop (on m=50 cargo
instances, 766 against the lock-step loop's 2225 us for a full dual and 1446
against 3011 us for a relaxation dual), so that stays the path for a single
solve. Only the pivot loops are two: the row scaling
(``_row_scale``), the start check (``_start_check``), the basis inverse
(``_invert_stack``) and the finish (``_finish``: residual check, flags,
objective, multipliers) are written once over a leading stack axis, and
``solve_primal`` runs them on a stack of one and returns item 0 of the
``SolutionStack``. Only an error from a stack of two or more LPs names the
LP by its position.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FeasibilityCheckFailed,
    InfeasibleProblem,
    InfeasibleStart,
    PivotLimit,
    RankDeficient,
    SingularBasis,
    UnboundedProblem,
)

__all__ = [
    "AgentProfile",
    "AssembledLP",
    "AuditReport",
    "BasicSolutionCheck",
    "BasisPartition",
    "PrimalSolution",
    "SharingProblem",
    "assemble",
    "audit_assumptions",
    "check_basic_solution",
    "reduced_costs",
    "solve_primal",
]


# Numerical thresholds used across the package. FEAS_TOL is absolute on
# row-scaled data; ACT_TOL classifies a variable as sitting at a bound; RC_TOL
# is one order below ACT_TOL so that a sign test on a reduced cost cannot flip
# an activity classification.
FEAS_TOL = 1e-8
ACT_TOL = 1e-7
RC_TOL = 1e-9


def _as_float_vector(v, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _set_fields(obj, **fields):
    """``obj`` with its fields set one at a time, as a dataclass ``__init__``
    does: CPython keeps them inline, about 3x faster to read than a ``__dict__``.
    Given ``object.__new__(cls)`` it builds a ``cls`` without its
    ``__post_init__``, for values that passed those checks already."""
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _span(starts, i: int, ncols: int) -> tuple[int, int]:
    """The columns lo..hi of agent i in a stack of ``ncols`` columns."""
    return int(starts[i]), int(starts[i + 1]) if i + 1 < len(starts) else ncols


def _check_starts(starts, first: int, end: int) -> np.ndarray:
    """The one test of agent boundaries: ``starts`` as an int array, if it is a
    nonempty 1-D run of integers from ``first`` ascending strictly below ``end``."""
    s = np.asarray(starts)
    ok = s.ndim == 1 and s.size and s.dtype.kind in "iu"
    if not (ok and s[0] == first and s[-1] < end and (np.diff(s) > 0).all()):
        raise ValueError(f"starts must be integers beginning at {first} and ascending strictly below {end}")
    return s.astype(int, copy=False)


def _check_stack(c, d, A, starts, p: int, label: str | None = None):
    """The one check of a stack of agents using ``p`` rows, agent i owning the
    columns from ``starts[i]`` (None: one each, as a range, which allocates no
    array) up to the next start: shapes, ``_check_starts``, then
    ``_check_values``. Returns the checked ``starts``."""
    if A.ndim != 2 or A.shape[0] != p:
        raise ValueError(f"{label} usage matrix has shape {A.shape}, expected p={p} rows")
    ncols = A.shape[1]
    if c.shape != (ncols,) or d.shape != (ncols,):
        raise ValueError(f"{label} stack has c{c.shape} and d{d.shape} for {ncols} columns")
    starts = range(ncols) if starts is None else _check_starts(starts, 0, ncols)
    _check_values(c, d, A, starts, label)
    return starts


def _check_values(c, d, A, starts, label: str | None = None) -> None:
    """The values of a stack whose shapes and ``starts`` are right, in one
    pass. The first agent with a bad value raises the first of its checks
    that fails (finite costs, finite usage, no NaN or -inf limit, no finite
    limit <= 0), as "<label> i: ..." given a ``label``."""
    ok = np.isfinite(c)
    ok &= d > 0.0  # False on NaN, -inf and finite entries <= 0
    for row in A:  # one row at a time keeps the temporaries to one bool per column
        ok &= np.isfinite(row)
    if ok.all():
        return
    i = int(np.searchsorted(starts, int(np.argmin(ok)), side="right")) - 1
    lo, hi = _span(starts, i, c.size)
    d = d[lo:hi]
    if not np.isfinite(c[lo:hi]).all():
        message = "agent costs must be finite"
    elif not np.isfinite(A[:, lo:hi]).all():
        message = "agent usage matrix must be finite"
    elif np.isnan(d).any() or (d == -np.inf).any():
        message = "upper limits must be > 0 or +inf"
    else:
        message = "every finite upper limit must be strictly positive"
    raise ValueError(message if label is None else f"{label} {i}: {message}")


@dataclass(frozen=True, eq=False)
class AgentProfile:
    """One agent: decision length ``n``, unit costs ``c``, upper limits ``d``
    (entries > 0 or +inf) and resource usage matrix ``A`` with one row per
    shared resource."""

    n: int
    c: np.ndarray
    d: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        n = int(self.n)
        if n < 1:
            raise ValueError("agent dimension n must be >= 1")
        c = _as_float_vector(self.c, "c")
        d = _as_float_vector(self.d, "d")
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be a matrix, got shape {A.shape}")
        if c.shape != (n,) or d.shape != (n,) or A.shape[1] != n:
            raise ValueError(
                f"inconsistent agent dimensions: n={n}, c{c.shape}, d{d.shape}, A{A.shape}"
            )
        _check_values(c, d, A, (0,))  # the shapes are checked above
        _set_fields(self, n=n, c=c, d=d, A=A)


@dataclass(frozen=True, eq=False, init=False)
class SharingProblem:
    """A resource-sharing LP: ``p`` resources with totals ``b`` (first ``n0``
    rows are inequalities, the rest equalities) shared by agents stacked as
    columns, agent i owning those of ``c``, ``d`` and ``A`` from ``starts[i]``
    up to the next start. ``agents`` is a sequence of ``AgentProfile``s,
    concatenated once here, or a stack ``(c, d, A[, starts])`` (no ``starts``:
    one column per agent); either way ``_check_stack`` checks the stack."""

    p: int
    n0: int
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    A: np.ndarray
    starts: np.ndarray

    def __init__(self, p, n0, b, agents):
        p, n0 = int(p), int(n0)
        if p < 1:
            raise ValueError("resource count p must be >= 1")
        if not 0 <= n0 <= p:
            raise ValueError(f"n0 must lie in [0, p]={p}, got {n0}")
        b = _as_float_vector(b, "b")
        if b.shape != (p,):
            raise ValueError(f"b must have length p={p}, got {b.shape}")
        if not np.isfinite(b).all() or (b < 0.0).any():
            raise ValueError("resource totals b must be finite and >= 0")
        agents = tuple(agents)
        if all(isinstance(ag, AgentProfile) for ag in agents):
            try:
                A = np.concatenate([np.empty((p, 0)), *(ag.A for ag in agents)], axis=1)
            except ValueError:  # a profile whose row count is not p
                i, rows = next((i, ag.A.shape[0]) for i, ag in enumerate(agents) if ag.A.shape[0] != p)
                raise ValueError(f"agent {i} usage matrix has {rows} rows, expected p={p}") from None
            c = np.concatenate([np.empty(0), *(ag.c for ag in agents)])
            d = np.concatenate([np.empty(0), *(ag.d for ag in agents)])
            starts = np.cumsum([0] + [ag.n for ag in agents[:-1]]) if agents else None
        else:
            c, d, A = (np.asarray(v, dtype=float) for v in agents[:3])
            starts = agents[3] if len(agents) > 3 else None
        checked = _check_stack(c, d, A, starts, p, "agent")
        starts = np.arange(c.size) if starts is None else checked
        _set_fields(self, p=p, n0=n0, b=b, c=c, d=d, A=A, starts=starts)

    @property
    def m(self) -> int:
        return self.starts.size

    @property
    def ell(self) -> int:
        """Total variable count: slack block plus all agent columns."""
        return self.n0 + self.c.size

    @property
    def agents(self) -> tuple[AgentProfile, ...]:
        """One profile per agent, built from the stack on each call."""
        parts = zip(*(np.split(v, self.starts, axis=-1)[1:] for v in (self.c, self.d, self.A)))
        return tuple(AgentProfile(n=c.size, c=c, d=d, A=A) for c, d, A in parts)


@dataclass(frozen=True, eq=False)
class AssembledLP:
    """Dense stacked form of a sharing problem (or any bounded LP).

    Column order is the slack block first, then agents in input order, agent
    i from column ``starts[i]`` up to the next start (the last up to ``ell``).
    ``starts`` is empty (an LP with no agent blocks, such as a dual) or passes
    ``_check_starts`` from column ``n0``; ``0 <= n0 <= min(p, ell)``. A
    violation raises ``ValueError``.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    n0: int
    starts: np.ndarray = ()

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = _as_float_vector(self.b, "b")
        c = _as_float_vector(self.c, "c")
        d = _as_float_vector(self.d, "d")
        if A.ndim != 2 or A.shape != (b.size, c.size) or d.shape != c.shape:
            raise ValueError(
                f"inconsistent LP dimensions: A{A.shape}, b{b.shape}, c{c.shape}, d{d.shape}"
            )
        p, ell, n0 = b.size, c.size, int(self.n0)
        if not 0 <= n0 <= min(p, ell):
            raise ValueError(f"n0 must lie in [0, min(p, ell)]=[0, {min(p, ell)}], got {n0}")
        starts = _check_starts(self.starts, n0, ell) if len(self.starts) else np.empty(0, dtype=int)
        _set_fields(self, A=A, b=b, c=c, d=d, n0=n0, starts=starts)

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def ell(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.starts.size


@dataclass(frozen=True, eq=False)
class BasisPartition:
    """Index partition of an extended basic solution: ``basic`` (one per
    budget row, in row order), ``at_lower`` (value 0) and ``at_upper``
    (value d, necessarily finite)."""

    basic: tuple[int, ...]
    at_lower: tuple[int, ...]
    at_upper: tuple[int, ...]

    def as_sets(self):
        return set(self.basic), set(self.at_lower), set(self.at_upper)


@dataclass(frozen=True, eq=False)
class PrimalSolution:
    """Optimal basic feasible solution with its final basis and agent starts.

    ``basis`` holds the basic column of each budget row and ``status`` one
    entry per column: 0 at lower, 1 at upper, 2 basic. Both are the
    simplex's own final arrays; a warm start from this solution copies them,
    so no later solve changes them.

    ``degenerate`` is set when a basic variable sits at a bound (more active
    constraints than variables); ``nonunique`` when some non-basic reduced
    cost vanishes. Both flags mean the almost-sure assumptions behind the
    sensitivity theory failed for this instance; the solution itself is still
    valid.

    ``lam`` holds the budget multipliers of the final basis for the unscaled
    rows, so the reduced costs are ``c + lam^T A``. They come from the fresh
    basis inverse the simplex declared optimality on, and are meaningful at
    clean optima (at a degenerate one they need not be unique).
    """

    x: np.ndarray
    objective: float
    basis: np.ndarray
    status: np.ndarray
    starts: np.ndarray
    lam: np.ndarray
    degenerate: bool = False
    nonunique: bool = False

    @property
    def clean(self) -> bool:
        return not (self.degenerate or self.nonunique)

    @property
    def partition(self) -> BasisPartition:
        """The final basis as index tuples, built from ``basis`` and ``status``."""
        return BasisPartition(
            basic=tuple(self.basis.tolist()),
            at_lower=tuple((self.status == _AT_LOWER).nonzero()[0].tolist()),
            at_upper=tuple((self.status == _AT_UPPER).nonzero()[0].tolist()),
        )

    @property
    def agent_index_map(self) -> tuple[np.ndarray, ...]:
        """Column indices of each agent, built from ``starts``."""
        return tuple(np.split(np.arange(self.x.size), self.starts)[1:])


def _any_per_segment(flags: np.ndarray, starts) -> np.ndarray:
    """Logical or of ``flags`` over consecutive nonempty segments, the i-th
    from ``starts[i]`` to the next start (the last to the end of ``flags``).
    With one start per flag the segments are single and ``flags`` returns."""
    if len(starts) == flags.size:
        return flags
    return np.logical_or.reduceat(flags, starts)


def assemble(problem: SharingProblem) -> AssembledLP:
    """The slack block and the problem's agent columns as one dense LP."""
    p, n0 = problem.p, problem.n0
    return _set_fields(  # the problem's stack passed its checks
        object.__new__(AssembledLP),
        A=np.concatenate([np.eye(p, n0), problem.A], axis=1),
        b=problem.b.copy(),
        c=np.concatenate([np.zeros(n0), problem.c]),
        d=np.concatenate([np.full(n0, np.inf), problem.d]),
        n0=n0,
        starts=problem.starts + n0,
    )


# --- bounded-variable revised simplex ---------------------------------------

_AT_LOWER, _AT_UPPER, _BASIC = 0, 1, 2
# pricing sign per status: a reduced cost r improves at lower when -r > 0,
# at upper when r > 0; basic variables price at 0 and never enter
_PRICE_SIGN = np.array([-1.0, 1.0, 0.0])
_BLAND_TRIGGER = 50  # consecutive degenerate pivots before least-index rule
_REFACTOR_EVERY = 32  # basis changes between fresh inversions of the basis
_PIV_TOL = 1e-10  # direction entries smaller than this cannot block/pivot
_DEGEN_STEP = 1e-11
# Reduced costs or pivot sizes within this relative gap of the largest tie,
# and the first in index order wins. Duplicated columns and rows are equal in
# exact arithmetic but not always in floating point, so a strict argmax would
# let rounding (a fresh against an updated basis inverse) pick the pivot.
_TIE = 1e-9
_SINGULAR_DET = 1e-300  # a 1x1 or 2x2 basis with |det| below this is singular


def _nonbasic_values(vstat: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Full-length x with non-basic entries at their bounds, basics at 0."""
    return np.where(vstat == _AT_UPPER, d, 0.0)


def _lp_error(error, k: int, size: int, message: str):
    """``error`` with ``message`` about LP k of a stack of ``size`` LPs; a
    stack of one is a single solve, so only a larger stack names the LP."""
    return error(message if size == 1 else f"LP {k} of the stack: {message}")


def _fail(error, bad: np.ndarray, size: int, message, lps=None) -> None:
    """Raise ``error`` for the first LP ``bad`` flags in a stack of ``size``
    LPs, if any: ``lps`` holds the stack position of each flag (None: its
    index), and ``message(k)`` describes the LP at position k."""
    if bad.any():
        k = int(bad.argmax()) if lps is None else int(lps[bad.argmax()])
        raise _lp_error(error, k, size, message(k))


def _row_scale(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row divisor that brings each row of [A | b] to unit max-norm (1 for
    an all-zero row), for a (p, ell) matrix or a stack (..., p, ell) sharing
    ``b``. A max and a min are exact in any order and make no temporary the
    size of ``A``."""
    scale = np.maximum(A.max(axis=-1, initial=0.0), -A.min(axis=-1, initial=0.0))
    scale = np.maximum(scale, np.abs(b))
    return np.where(scale > 0.0, scale, 1.0)


def _invert_stack(B: np.ndarray, lps: np.ndarray | None = None, size: int = 0) -> np.ndarray:
    """Inverses of a stack of (small) bases: closed forms for p <= 2, where
    the pivot loop is dominated by call overhead at cargo scale, and LAPACK's
    inverse of each slice above. Each slice gets the bits it gets alone, so a
    single solve inverts ``B[None]``. A singular slice raises SingularBasis
    naming its LP: ``lps`` holds the position of each slice in a stack of
    ``size`` LPs (default: the slices are that stack)."""
    size = size or len(B)
    p = B.shape[-1]
    if p > 2:
        try:
            return np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            for i, Bk in enumerate(B):
                try:
                    np.linalg.inv(Bk)
                except np.linalg.LinAlgError:
                    k = i if lps is None else int(lps[i])
                    raise _lp_error(SingularBasis, k, size, "basis matrix is singular") from exc
            raise
    # C order: numpy multiplies a slice in another order without BLAS, which
    # rounds unlike the product of one LP
    inv = np.empty(B.shape)
    if p == 1:
        det = B[:, 0, 0]
        np.divide(1.0, B, out=inv)
    else:
        a, bb, cc, dd = B[:, 0, 0], B[:, 0, 1], B[:, 1, 0], B[:, 1, 1]
        det = a * dd - bb * cc
        inv[:, 0, 0], inv[:, 0, 1], inv[:, 1, 0], inv[:, 1, 1] = dd, -bb, -cc, a
        inv /= det[:, None, None]
    bad = np.abs(det) < _SINGULAR_DET
    _fail(SingularBasis, bad, size, lambda k: f"{p}x{p} basis is singular", lps)
    return inv


def _basic_values(As, bs, Binv, x, ax=None) -> np.ndarray:
    """x_B = Binv (b - A x_N) of each LP of a stack, ``ax`` taking A x_N."""
    ax = np.matmul(As, x[:, :, None], out=ax)
    return (Binv @ (bs[..., None] - ax))[:, :, 0]


def _start_check(As, bs, basis, x, dB):
    """Basis inverse and basic values of each LP of a stack started from one
    ``basis``, with ``x`` its nonbasic values (basics at 0) and ``dB`` the
    limits of the basic columns; raise InfeasibleStart unless the basic
    values lie within their bounds."""
    Binv = _invert_stack(As[:, :, basis])
    xB = _basic_values(As, bs, Binv, x)
    # a column at upper d = inf makes x_B non-finite; inf - inf is NaN and fails
    _fail(
        InfeasibleStart,
        ~((xB.min(axis=1) >= -FEAS_TOL) & (xB - dB <= FEAS_TOL).all(axis=1)),
        len(xB),
        lambda k: f"start basis puts a basic variable outside its bounds: x_B = {xB[k]}",
    )
    return Binv, xB


@dataclass(frozen=True, eq=False)
class SolutionStack:
    """The solutions of a stack of K LPs, LP k's in row k of each array:
    ``x`` and ``status`` of shape (K, ell), ``basis`` and ``lam`` (K, p), and
    ``objective``, ``degenerate`` and ``nonunique`` (K,); ``starts`` is
    every LP's. Item k is LP k's ``PrimalSolution``, built on each access:
    ``solve_appended`` returns the stack, ``solve_primal`` item 0 of one."""

    x: np.ndarray
    objective: np.ndarray
    basis: np.ndarray
    status: np.ndarray
    starts: np.ndarray
    lam: np.ndarray
    degenerate: np.ndarray
    nonunique: np.ndarray

    def __len__(self) -> int:
        return self.objective.size

    def __getitem__(self, k: int) -> PrimalSolution:
        return PrimalSolution(
            x=self.x[k],
            objective=float(self.objective[k]),
            basis=self.basis[k],
            status=self.status[k],
            starts=self.starts,
            lam=self.lam[k],
            degenerate=bool(self.degenerate[k]),
            nonunique=bool(self.nonunique[k]),
        )


def _finish(lp, As, bs, scale, x, basis, vstat, dB, r, y, c=None) -> SolutionStack:
    """The solutions of a stack of LPs, each ``lp`` with the columns of costs
    ``c`` (K, n) appended (None: none), from the x each pivot loop assembled,
    the scaled rows ``As`` and ``bs`` and the final basis, statuses, basic
    limits ``dB`` and prices ``y``: the scaled-residual check, the
    ``degenerate`` and ``nonunique`` flags, ``objective`` and ``lam``. ``r``
    holds the final reduced costs, or pricing values (|r| off the basis); its
    rows are spent on the results."""
    size = len(x)
    residual = np.abs((As @ x[:, :, None])[:, :, 0] - bs).max(axis=1, initial=0.0)
    _fail(
        FeasibilityCheckFailed,
        ~(residual <= 10.0 * FEAS_TOL),  # a NaN fails too
        size,
        lambda k: f"solution failed the feasibility check: scaled residual {residual[k]:.3e}",
    )
    # an infinite or NaN entry of x fails the residual check, so no basic
    # variable with d = inf reads as at its limit
    xb = x[np.arange(size)[:, None], basis]
    degenerate = ((xb <= ACT_TOL) | (xb >= dB - ACT_TOL)).any(axis=1)
    nonunique = ((np.abs(r, out=r) <= RC_TOL) & (vstat != _BASIC)).any(axis=1)
    # the spent rows of r take each LP's full cost vector, then its statuses
    cost, starts = r, lp.starts
    cost[:, : lp.ell] = lp.c
    if c is not None:  # the appended columns are one more agent
        cost[:, lp.ell :] = c
        starts = np.concatenate([starts, [lp.ell]])
    objective = (cost[:, None, :] @ x[:, :, None])[:, 0, 0]
    status = r.view(int)
    status[:] = vstat
    return SolutionStack(
        x=x,
        objective=objective,
        basis=basis,
        status=status,
        starts=starts,
        lam=-y / scale,
        degenerate=degenerate,
        nonunique=nonunique,
    )


def _flip_run(A, b, d, Binv, basis, vstat, xN, viol, limit: int):
    """Make at once the bound flips that ``_bounded_simplex`` would make
    next, at most ``limit``, and return how many it made.

    A flip keeps the basis, its inverse and the prices, so until the next
    basis change pricing takes the positive pricing values in descending
    order, and each flip moves the basic values by its ``delta * d_j``. The
    candidates' directions come from one product ``Binv @ A[:, order]`` and
    their basic values from a running sum of those moves; both round unlike
    the loop's own products. So the run stops before the first candidate
    that pricing might not pick alone (the next one lies in its ``_TIE``
    band, or it prices at most ``RC_TOL``), that has an infinite limit,
    whose row steps, less a bound on that rounding, could fall within a
    relative ``_TIE`` of its flip test, or whose step could be degenerate.
    The loop then takes that candidate itself, with the same pivots.
    """
    pos = (viol > 0.0).nonzero()[0]
    order = pos[np.argsort(-viol[pos], kind="stable")]
    v = viol[order]
    sure = (v > RC_TOL) & (d[order] < np.inf)
    sure[:-1] &= v[1:] < v[:-1] * (1.0 - _TIE)  # candidate k + 1 outside k's band
    n = min(int(np.append(sure, False).argmin()), limit)
    if n == 0:
        return 0

    cand = order[:n]
    dj = d[cand]
    Ac = A[:, cand]
    delta = (Binv @ Ac) * np.where(vstat[cand] == _AT_LOWER, -1.0, 1.0)
    xBk = np.empty_like(delta)  # x_B before each flip
    xBk[:, 0] = Binv @ (b - A @ xN)
    np.cumsum(delta[:, :-1] * dj[:-1], axis=1, out=xBk[:, 1:])
    xBk[:, 1:] += xBk[:, :1]
    # allowances for rounding, in the magnitudes summed: `slack` for either
    # product giving delta, `err` for either way of getting x_B. A sum of n
    # products rounds by at most n eps / 2 of them, so the two ways differ
    # by under 4 (p + ell) eps of them, a quarter of `rnd`
    rnd = 16.0 * np.finfo(float).eps * sum(A.shape)
    absBinv = np.abs(Binv)
    slack = rnd * (absBinv @ np.abs(Ac))
    err = np.empty_like(delta)
    err[:, 0] = rnd * (absBinv @ (np.abs(b) + np.abs(A) @ xN))
    np.cumsum(slack[:, :-1] * dj[:-1], axis=1, out=err[:, 1:])
    err[:, 1:] += err[:, :1]
    # lower bounds on the loop's row steps, over every row that may block
    t_zero = np.full_like(delta, np.inf)
    np.divide(xBk - err, slack - delta, out=t_zero, where=delta < slack - _PIV_TOL)
    t_upper = np.full_like(delta, np.inf)
    room = d[basis][:, None] - xBk - err
    np.divide(room, delta + slack, out=t_upper, where=delta > _PIV_TOL - slack)
    t_rows = np.maximum(np.minimum(t_zero, t_upper) * (1.0 - _TIE), 0.0).min(axis=0)
    sure = (dj <= t_rows + 1e-12 * (1.0 + t_rows)) & (np.minimum(t_rows, dj) > _DEGEN_STEP)
    n = int(np.append(sure, False).argmin())
    j = cand[:n]
    vstat[j] = np.where(vstat[j] == _AT_LOWER, _AT_UPPER, _AT_LOWER)
    xN[j] = np.where(vstat[j] == _AT_UPPER, dj[:n], 0.0)
    viol[j] = -viol[j]
    return n


def _bounded_simplex(A, b, c, d, basis, vstat, max_iter: int, warm=None):
    """Pivot until optimal, keeping the basis inverse across pivots.

    The basis is inverted once on entry unless the caller passes ``warm``:
    its inverse and the nonbasic and basic values, as the start check
    (``_start_check`` on a stack of one) gives them. A basis change updates
    the inverse by rank 1 (the eta update with the entering column
    ``Binv @ A[:, j]``), and every
    ``_REFACTOR_EVERY`` basis changes (every one with at most two rows, where
    that costs fewer calls) rebuilds it from ``A[:, basis]`` to shed the
    rounding the updates accumulate. A bound flip leaves the basis and its
    inverse unchanged, so the prices ``y = c_B Binv`` and reduced costs
    ``r = c - y A`` would come out the same bits; they are kept, and only the
    flipped column's pricing sign turns. When pricing
    on an updated inverse finds no entering column, the basis is re-inverted
    and priced again before
    optimality is declared, so the returned values always come from a fresh
    inverse of the final basis. Ties within ``_TIE`` in pricing and pivot
    size, and within rounding in step length, are broken by position, so a
    fresh and an updated inverse take the same pivots.

    After a bound flip outside Bland's rule, ``_flip_run`` makes the flips
    that follow in one pass, up to the first one it cannot call clear of
    rounding; the loop goes on from there with the same pivots. Each flip of
    a run counts as one iteration toward ``max_iter``, so ``PivotLimit``
    comes on the same iteration either way, and, as none of them is
    degenerate, a run resets the count of degenerate pivots that engages
    Bland's rule.

    ``basis`` (row -> column) and ``vstat`` are updated in place. Returns the
    final (x, y, r): full primal vector, row multipliers, reduced costs.
    ``solve_primal`` runs it, and the start check, under one ``np.errstate``
    that silences divide and invalid warnings.
    """
    bland = False
    degen_run = 0
    changes = 0  # basis changes since Binv was last inverted
    y = None  # prices of the current basis and inverse; None once stale
    if warm is None:
        Binv = xB = None
        xN = _nonbasic_values(vstat, d)
    else:
        Binv, xN, xB = warm
    # xN is kept in step with vstat; xB holds until the next pivot
    t_zero, t_upper = np.empty(basis.size), np.empty(basis.size)  # step per row
    it = 0
    while it < max_iter:
        it += 1
        if Binv is None:
            Binv = _invert_stack(A[:, basis][None])[0]
            changes = 0
        if y is None:
            y = c[basis] @ Binv
            r = c - y @ A
            viol = r * _PRICE_SIGN[vstat]

        if bland:
            candidates = (viol > RC_TOL).nonzero()[0]
            j = int(candidates[0]) if candidates.size else -1
        else:
            best = viol.max()
            j = int((viol >= best * (1.0 - _TIE)).argmax()) if best > RC_TOL else -1
        if j < 0:
            if changes == 0:
                break
            Binv = y = None
            continue

        if xB is None:
            xB = Binv @ (b - A @ xN)
        sigma = 1.0 if vstat[j] == _AT_LOWER else -1.0
        col = Binv @ A[:, j]
        # change of x_B per unit step of the entering variable
        delta = (-sigma) * col

        dB = d[basis]
        shrink = delta < -_PIV_TOL
        grow = delta > _PIV_TOL
        # a row that cannot block keeps an infinite step; xB is finite, so a
        # row with dB = inf reads inf where it grows
        t_zero.fill(np.inf)
        np.divide(xB, -delta, out=t_zero, where=shrink)
        t_upper.fill(np.inf)
        np.divide(dB - xB, delta, out=t_upper, where=grow)
        t_rows = np.maximum(np.minimum(t_zero, t_upper), 0.0)
        t_row_min = float(t_rows.min()) if t_rows.size else np.inf
        t_own = float(d[j]) if math.isfinite(d[j]) else np.inf
        t_step = min(t_row_min, t_own)

        if not math.isfinite(t_step):
            raise UnboundedProblem(
                f"entering variable {j} can improve the objective without bound"
            )

        # steps within rounding of the shortest one tie; a tied flip wins
        reach = t_step + 1e-12 * (1.0 + t_step)
        flip = t_own <= reach
        if flip:
            # bound flip: the entering variable traverses its whole range,
            # and its pricing sign turns
            vstat[j] = _AT_UPPER if vstat[j] == _AT_LOWER else _AT_LOWER
            xN[j] = d[j] if vstat[j] == _AT_UPPER else 0.0
            viol[j] = -viol[j]
        else:
            near = (t_rows <= reach).nonzero()[0]
            if near.size == 1:  # no tie to break
                row = int(near[0])
            elif bland:
                row = int(near[basis[near].argmin()])
            else:
                size = np.abs(delta[near])
                row = int(near[(size >= size.max() * (1.0 - _TIE)).argmax()])
            leaving = int(basis[row])
            hits_zero = t_zero[row] <= t_upper[row]
            vstat[leaving] = _AT_LOWER if hits_zero else _AT_UPPER
            xN[leaving] = 0.0 if hits_zero else d[leaving]
            basis[row] = j
            vstat[j], xN[j] = _BASIC, 0.0
            changes += 1
            y = None
            if changes == _REFACTOR_EVERY or basis.size <= 2:
                Binv = None
            else:
                prow = Binv[row] / col[row]
                Binv -= col[:, None] @ prow[None, :]
                Binv[row] = prow
        xB = None

        if t_step <= _DEGEN_STEP:
            degen_run += 1
            if degen_run >= _BLAND_TRIGGER:
                bland = True
        else:
            degen_run = 0
        if flip and not bland:
            run = _flip_run(A, b, d, Binv, basis, vstat, xN, viol, max_iter - it)
            it += run
            if run:
                degen_run = 0
    else:
        raise PivotLimit(f"simplex failed to terminate within {max_iter} pivots")

    x = xN
    x[basis] = Binv @ (b - A @ xN) if xB is None else xB
    return x, y, r


def _crash_basis(A, b, d):
    """Seed the basis with structural singleton columns (slack-like) whose
    implied value is within bounds; remaining rows get artificial variables."""
    p, ell = A.shape
    cols = (np.count_nonzero(A, axis=0) == 1).nonzero()[0]
    rows = A[:, cols].T.nonzero()[1]  # the one nonzero row of each
    v = b[rows] / A[rows, cols]
    fits = (v >= -FEAS_TOL) & (v <= d[cols] + FEAS_TOL)
    basis = np.full(p, ell)
    np.minimum.at(basis, rows[fits], cols[fits])  # each row's first fitting column
    vstat = np.full(ell, _AT_LOWER, dtype=int)
    vstat[basis[basis < ell]] = _BASIC
    basis[basis == ell] = -1
    return basis, vstat


def _phase1(A, b, d, max_iter: int):
    """Find a basic feasible starting point; raise InfeasibleProblem if none."""
    p, ell = A.shape
    basis, vstat = _crash_basis(A, b, d)
    free_rows = np.flatnonzero(basis < 0)
    if free_rows.size == 0:
        return basis, vstat

    n_art = free_rows.size
    resid = b - A @ _nonbasic_values(vstat, d)
    # crash picks exactly zero their rows; the solve below re-derives values
    signs = np.where(resid[free_rows] >= 0.0, 1.0, -1.0)
    A1 = np.zeros((p, ell + n_art))
    A1[:, :ell] = A
    A1[free_rows, ell + np.arange(n_art)] = signs
    d1 = np.concatenate([d, np.full(n_art, np.inf)])
    c1 = np.concatenate([np.zeros(ell), np.ones(n_art)])
    basis1 = basis.copy()
    basis1[free_rows] = ell + np.arange(n_art)
    vstat1 = np.concatenate([vstat, np.full(n_art, _BASIC, dtype=int)])

    x1, _, _ = _bounded_simplex(A1, b, c1, d1, basis1, vstat1, max_iter)
    art_sum = float(x1[ell:].sum())
    if art_sum > FEAS_TOL:
        raise InfeasibleProblem(
            f"phase-1 optimum {art_sum:.3e} exceeds the feasibility tolerance"
        )

    # pivot zero-level artificials out of the basis
    for row in np.flatnonzero(basis1 >= ell):
        pivots = _invert_stack(A1[:, basis1][None])[0, row] @ A
        pivots[basis1[basis1 < ell]] = 0.0
        j = int(np.argmax(np.abs(pivots)))
        if abs(pivots[j]) <= 1e-9:
            raise RankDeficient(
                "budget rows are linearly dependent; cannot complete a structural basis"
            )
        vstat1[j] = _BASIC
        basis1[row] = j

    basis = basis1
    vstat = vstat1[:ell]
    return basis, vstat


def _start_arrays(start, p: int, ell: int):
    """Basis and statuses of a warm start, as new arrays the simplex may
    change. A ``PrimalSolution`` gives copies of its own arrays, and columns
    past its last one start at lower. A ``BasisPartition`` is converted: with
    p basic of ell indices in [0, ell), its sets partition the columns iff
    each column gets a status."""
    if isinstance(start, PrimalSolution):
        n_basic, n_indices = start.basis.size, start.status.size
        if n_basic == p and n_indices <= ell:
            vstat = np.full(ell, _AT_LOWER)
            vstat[:n_indices] = start.status
            return start.basis.copy(), vstat
    else:
        n_basic, n_lower = len(start.basic), len(start.at_lower)
        indices = np.array([*start.basic, *start.at_lower, *start.at_upper], dtype=int)
        n_indices = indices.size
        if n_basic == p and n_indices == ell and indices.min() >= 0 and indices.max() < ell:
            vstat = np.full(ell, -1)
            vstat[indices[n_basic + n_lower :]] = _AT_UPPER
            vstat[indices[n_basic : n_basic + n_lower]] = _AT_LOWER
            vstat[indices[:n_basic]] = _BASIC
            if vstat.min() >= 0:
                return indices[:n_basic], vstat
    raise ValueError(
        f"start must partition {ell} columns with {p} basic, got "
        f"{n_basic} basic of {n_indices} indices"
    )


def solve_primal(
    lp: AssembledLP, start: BasisPartition | PrimalSolution | None = None
) -> PrimalSolution:
    """Solve the assembled LP to an optimal basic feasible solution.

    ``start`` replaces phase 1 by a known feasible basis; phase 2 pivots on
    from there. It is a partition of the columns, or a solution of an LP
    whose columns are the first ones of ``lp`` (the rest start at lower, as
    for an appended agent). A start whose basic values leave their bounds
    raises InfeasibleStart: there is no fallback to phase 1.

    Degeneracy and non-uniqueness do not abort: they set flags on the returned
    solution so callers can discard the instance. Infeasibility and
    unboundedness raise.
    """
    p, ell = lp.p, lp.ell
    if ell < p:
        raise ValueError(f"need at least as many variables as rows: ell={ell} < p={p}")

    scale = _row_scale(lp.A, lp.b)
    As = lp.A / scale[:, None]
    bs = lp.b / scale

    max_iter = 2000 + 60 * (ell + p)
    with np.errstate(divide="ignore", invalid="ignore"):
        if start is None:
            basis, vstat = _phase1(As, bs, lp.d, max_iter)
            warm = None
        else:
            basis, vstat = _start_arrays(start, p, ell)
            xN = _nonbasic_values(vstat, lp.d)
            Binv, xB = _start_check(As[None], bs, basis, xN[None], lp.d[basis])
            warm = Binv[0], xN, xB[0]
        x, y, r = _bounded_simplex(As, bs, lp.c, lp.d, basis, vstat, max_iter, warm)

    # the checks and flags of ``solve_appended``, on a stack of one
    As, x, basis, vstat, dB, r, y = (v[None] for v in (As, x, basis, vstat, lp.d[basis], r, y))
    return _finish(lp, As, bs, scale, x, basis, vstat, dB, r, y)[0]


# --- lock-step re-solves of appended LPs -------------------------------------

# Working set of one batch of ``solve_appended``. Each LP takes about
# 8 * ell * (p + 4) bytes: its scaled (p, ell) block, its values, its pricing
# row, and the solution it returns. 1 MB holds 212 LPs of an m=100 cargo
# trial, so the trial's 50 audits are one batch.
_STACK_BYTES = 1 << 20
_UFUNC_BUFFER = 512  # elements per numpy ufunc buffer in a batch


def appended_batch(p: int, ell: int) -> int:
    """LPs of p rows and ell columns per ``solve_appended`` call that keep its
    working set within ``_STACK_BYTES``."""
    return max(1, _STACK_BYTES // (8 * ell * (p + 4)))


def solve_appended(
    lp: AssembledLP, c: np.ndarray, d: np.ndarray, A: np.ndarray, base: PrimalSolution
) -> SolutionStack:
    """Re-solve K copies of ``lp``, copy k with the n columns ``c[k]``,
    ``d[k]`` and ``A[k]`` appended (shapes (K, n), (K, n) and (K, p, n)),
    each warm from ``base``, a solution of ``lp``, in one lock-step loop.

    The solutions return stacked (``SolutionStack``). Copy k comes out to the
    bits ``solve_primal`` gives it alone with ``start=base``: the same row
    scaling, start check, pivot rules, inverse updates, final checks and
    flags. Each copy keeps its own scaled block, basis, inverse, statuses
    and values; the costs and limits of the old columns are shared. Every
    iteration prices every copy, because a copy whose basis and inverse
    stand prices to the same bits (so a finished copy stays finished), and
    pivots the copies that have an entering column, each by its own ties,
    Bland switch and refactorization count. Products
    are stacked ``matmul`` calls, which round each slice as one LP's product
    does; a plain gemm over the stack would not. A failure raises the typed
    error of ``solve_primal``, naming the copy by its position in a stack of
    two or more.

    Built for many small LPs: one LP is solved faster by ``solve_primal``.
    """
    # a broadcast into a slice of the batch's arrays is buffered, at numpy's
    # default size a buffer of 64 KB
    bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return _solve_appended(lp, c, d, A, base)
    finally:
        np.setbufsize(bufsize)


def _solve_appended(lp, c, d, A, base):
    """``solve_appended``'s loop and checks, in its errstate and buffer size."""
    K, p, n = A.shape
    ell0, ell = lp.ell, lp.ell + n
    # shared costs and limits: column j >= ell0 of copy k is entry j + k * n
    c_all = np.concatenate([lp.c, c.ravel()])
    d_all = np.concatenate([lp.d, d.ravel()])
    As = np.empty((K, p, ell))  # each enlarged LP's rows, scaled in place
    As[:, :, :ell0], As[:, :, ell0:] = lp.A, A
    scale = _row_scale(As, lp.b)
    As /= scale[:, :, None]
    bs = lp.b / scale

    basis1, vstat1 = _start_arrays(base, p, ell)
    basis = np.repeat(basis1[None], K, axis=0)
    cB, dB = np.repeat(c_all[basis1][None], K, axis=0), np.repeat(d_all[basis1][None], K, axis=0)
    vstat = np.empty((K, ell), dtype=np.int8)
    vstat[:] = vstat1
    x = np.zeros((K, ell))  # nonbasic values, basics at 0, as xN
    x[:, :ell0] = _nonbasic_values(vstat1[:ell0], lp.d)
    ax = np.empty((K, p, 1))  # A x of each copy
    y = np.empty((K, 1, p))
    viol = np.empty((K, ell))  # reduced costs, then their pricing values

    max_iter = 2000 + 60 * (ell + p)
    Binv = _start_check(As, bs, basis1, x, d_all[basis1])[0]

    done = np.zeros(K, dtype=bool)
    stale = np.zeros(K, dtype=bool)  # the inverse must be rebuilt
    bland = np.zeros(K, dtype=bool)
    changes = np.zeros(K, dtype=int)  # basis changes since the last inversion
    degen_run = np.zeros(K, dtype=int)
    for _ in range(max_iter):
        if stale.any():
            s = stale.nonzero()[0]
            B = As[s[:, None, None], np.arange(p)[:, None], basis[s, None, :]]
            Binv[s] = _invert_stack(B, s, K)
            stale[s], changes[s] = False, 0
        np.matmul(cB[:, None, :], Binv, out=y)
        np.matmul(y, As, out=viol[:, None, :])
        np.subtract(lp.c, viol[:, :ell0], out=viol[:, :ell0])
        np.subtract(c, viol[:, ell0:], out=viol[:, ell0:])
        np.multiply(viol, -1.0, out=viol, where=vstat == _AT_LOWER)
        np.multiply(viol, 0.0, out=viol, where=vstat == _BASIC)

        best = viol.max(axis=1)
        j = (viol >= (best * (1.0 - _TIE))[:, None]).argmax(axis=1)
        j[~(best > RC_TOL)] = -1
        if bland.any():
            candidates = viol > RC_TOL
            j_bland = np.where(candidates.any(axis=1), candidates.argmax(axis=1), -1)
            j = np.where(bland, j_bland, j)
        priced_out = ~done & (j < 0)
        done |= priced_out & (changes == 0)
        stale |= priced_out & (changes > 0)  # price again on a fresh inverse
        m = (~done & (j >= 0)).nonzero()[0]
        if m.size == 0:
            if done.all():
                break
            continue

        # ratio test of the pivoting copies m, entering column jm each
        jm = j[m]
        xB = _basic_values(As, bs, Binv, x, ax)[m]
        sigma = np.where(vstat[m, jm] == _AT_LOWER, 1.0, -1.0)
        col = (Binv[m] @ As[m, :, jm][:, :, None])[:, :, 0]
        delta = (-sigma)[:, None] * col
        dBm = dB[m]
        t_zero = np.full_like(delta, np.inf)
        np.divide(xB, -delta, out=t_zero, where=delta < -_PIV_TOL)
        t_upper = np.full_like(delta, np.inf)
        np.divide(dBm - xB, delta, out=t_upper, where=delta > _PIV_TOL)
        t_rows = np.maximum(np.minimum(t_zero, t_upper), 0.0)
        own = jm + np.where(jm >= ell0, n * m, 0)  # entering columns in c_all, d_all
        dj = d_all[own]
        t_own = np.where(np.isfinite(dj), dj, np.inf)
        t_step = np.minimum(t_rows.min(axis=1), t_own)
        _fail(
            UnboundedProblem,
            ~np.isfinite(t_step),
            K,
            lambda k: f"entering variable {j[k]} can improve the objective without bound",
            m,
        )

        # steps within rounding of the shortest one tie; a tied flip wins
        reach = t_step + 1e-12 * (1.0 + t_step)
        flip = t_own <= reach
        f, jf = m[flip], jm[flip]
        vstat[f, jf] = np.where(vstat[f, jf] == _AT_LOWER, _AT_UPPER, _AT_LOWER)
        x[f, jf] = np.where(vstat[f, jf] == _AT_UPPER, dj[flip], 0.0)

        change = ~flip
        g, jg = m[change], jm[change]
        if g.size:
            near = t_rows[change] <= reach[change, None]
            size = np.where(near, np.abs(delta[change]), -np.inf)
            row = (size >= size.max(axis=1, keepdims=True) * (1.0 - _TIE)).argmax(axis=1)
            lowest = np.where(near, basis[g], ell).argmin(axis=1)
            row = np.where(bland[g], lowest, row)
            leaving = basis[g, row]
            hits_zero = t_zero[change, row] <= t_upper[change, row]
            vstat[g, leaving] = np.where(hits_zero, _AT_LOWER, _AT_UPPER)
            x[g, leaving] = np.where(hits_zero, 0.0, dB[g, row])
            basis[g, row] = jg
            cB[g, row], dB[g, row] = c_all[own[change]], dj[change]
            vstat[g, jg], x[g, jg] = _BASIC, 0.0
            changes[g] += 1
            refactor = (changes[g] == _REFACTOR_EVERY) | (p <= 2)
            stale[g[refactor]] = True
            e, col_e, row_e = g[~refactor], col[change][~refactor], row[~refactor]
            if e.size:
                prow = Binv[e, row_e] / col_e[np.arange(e.size), row_e][:, None]
                Binv[e] -= col_e[:, :, None] @ prow[:, None, :]
                Binv[e, row_e] = prow

        degen = t_step <= _DEGEN_STEP
        degen_run[m] = np.where(degen, degen_run[m] + 1, 0)
        bland[m] |= degen_run[m] >= _BLAND_TRIGGER
    else:
        _fail(
            PivotLimit,
            ~done,
            K,
            lambda k: f"simplex failed to terminate within {max_iter} pivots",
        )

    np.put_along_axis(x, basis, _basic_values(As, bs, Binv, x, ax), axis=1)
    return _finish(lp, As, bs, scale, x, basis, vstat, dB, viol, y[:, 0, :], c)


# --- structural checks -------------------------------------------------------


@dataclass(frozen=True)
class BasicSolutionCheck:
    """Outcome of the extended-basic-solution test; ``failures`` names every
    violated condition, first entry being the decisive one."""

    ok: bool
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_basic_solution(
    lp: AssembledLP, x: np.ndarray, partition: BasisPartition
) -> BasicSolutionCheck:
    """Test the four extended-basic-solution conditions: budget equations hold,
    the basic set has size p, its columns are independent, and every non-basic
    variable sits at one of its bounds."""
    x = np.asarray(x, dtype=float)
    failures = []

    scale = _row_scale(lp.A, lp.b)
    resid = float(np.max(np.abs((lp.A @ x - lp.b) / scale), initial=0.0))
    if resid > 10.0 * FEAS_TOL:
        failures.append(f"budget residual {resid:.3e}")

    basic, low, up = partition.as_sets()
    if len(partition.basic) != lp.p or len(basic) != lp.p:
        failures.append(f"basic set has size {len(basic)}, expected p={lp.p}")
    union = basic | low | up
    overlap = (basic & low) | (basic & up) | (low & up)
    if union != set(range(lp.ell)) or overlap:
        failures.append("index sets do not partition the variables")

    if len(basic) == lp.p:
        AB = lp.A[:, list(partition.basic)]
        if np.linalg.matrix_rank(AB) < lp.p:
            failures.append("basic columns are linearly dependent")

    for j in sorted(low | up):
        dj = lp.d[j]
        at_zero = abs(x[j]) <= ACT_TOL
        at_limit = np.isfinite(dj) and abs(x[j] - dj) <= ACT_TOL
        if not (at_zero or at_limit):
            failures.append(f"nonbasic index {j} strictly interior (x={x[j]:.6g})")
            break

    return BasicSolutionCheck(ok=not failures, failures=tuple(failures))


def reduced_costs(lp: AssembledLP, partition: BasisPartition):
    """Reduced-cost vectors over the at-lower and at-upper index sets.

    At an optimal basic feasible solution the first is >= 0 and the second
    <= 0 (up to ``RC_TOL``). The multipliers are solved here from
    ``A_B^T w = c_B`` rather than read from a solution's ``lam``, so this is
    an optimality check of any partition that shares nothing with the simplex.
    """
    basic = list(partition.basic)
    try:
        w = np.linalg.solve(lp.A[:, basic].T, lp.c[basic])
    except np.linalg.LinAlgError as exc:
        raise SingularBasis("basis matrix is singular") from exc
    r = lp.c - w @ lp.A
    return r[list(partition.at_lower)], r[list(partition.at_upper)]


@dataclass(frozen=True)
class AuditReport:
    """Checkable parts of the almost-sure regularity assumptions for one
    solved instance. The distributional non-accumulation condition cannot be
    checked from a single sample and is reported as a fixed note."""

    rank_A: int
    full_row_rank: bool
    active_constraints: int
    exactly_ell_active: bool
    upper_limits_positive: bool
    unique_optimum: bool
    nondegenerate: bool
    note: str = "boundary non-accumulation is a property of the sampling distribution: not checkable from one sample"

    @property
    def ok(self) -> bool:
        return (
            self.full_row_rank
            and self.exactly_ell_active
            and self.upper_limits_positive
            and self.unique_optimum
            and self.nondegenerate
        )


def audit_assumptions(lp: AssembledLP, solution: PrimalSolution) -> AuditReport:
    """Report which regularity conditions hold at the solved instance."""
    rank_A = int(np.linalg.matrix_rank(lp.A))
    x = solution.x
    finite = np.isfinite(lp.d)
    n_active = lp.p
    n_active += int(np.count_nonzero(np.abs(x) <= ACT_TOL))
    n_active += int(np.count_nonzero(finite & (np.abs(x - lp.d) <= ACT_TOL)))
    finite_d_ok = bool(np.all(lp.d[finite] > 0.0))
    return AuditReport(
        rank_A=rank_A,
        full_row_rank=rank_A == lp.p,
        active_constraints=n_active,
        exactly_ell_active=n_active == lp.ell,
        upper_limits_positive=finite_d_ok,
        unique_optimum=not solution.nonunique,
        nondegenerate=not solution.degenerate,
    )
