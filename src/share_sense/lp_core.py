"""Core LP machinery for multi-agent resource sharing with upper limits.

Assembled problems have the form

    min  c^T x   subject to   A x = b,   0 <= x_j <= d_j,

where the leading ``n0`` columns are slack variables absorbing the inequality
budget rows (cost 0, no upper limit) and the remaining column blocks belong to
the agents, in input order. Upper limits may be ``+inf``; infinities are kept
as genuine extended reals, never as large sentinel numbers.

The solver is a dense bounded-variable revised simplex with a phase-1
feasibility stage (artificial variables on rows not covered by a slack/crash
column). A caller holding a feasible basis, such as the optimum of the same
problem before a column was appended, can pass it as ``start`` and go straight
to phase 2. It targets desk-scale problems: hundreds of variables, a handful of
budget rows. Rows of ``A`` and ``b`` are rescaled to unit max-norm before
pivoting because realistic instances mix magnitudes like 1 and 1/7000.

Each phase inverts its starting basis once and keeps the inverse across
pivots, updating it by rank 1 on a basis change and rebuilding it every
``_REFACTOR_EVERY`` basis changes (every one with at most two rows). Optimality
is only declared on a fresh inverse, so the returned solution comes from a
fresh inverse of the final basis, and near-ties in pricing and in the ratio
test go to the lowest index, so rounding in the updated inverse does not steer
the pivots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if not np.isfinite(c).all():
            raise ValueError("agent costs must be finite")
        if not np.isfinite(A).all():
            raise ValueError("agent usage matrix must be finite")
        # d > 0 fails exactly on NaN, -inf and finite entries <= 0
        if not (d > 0.0).all():
            if np.isnan(d).any() or (d == -np.inf).any():
                raise ValueError("upper limits must be > 0 or +inf")
            raise ValueError("every finite upper limit must be strictly positive")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "A", A)

    @property
    def p(self) -> int:
        """Number of resource rows this profile was built for."""
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class SharingProblem:
    """A resource-sharing LP: ``p`` resources with totals ``b`` (first ``n0``
    rows are inequalities, the rest equalities) shared by ``agents``."""

    p: int
    n0: int
    b: np.ndarray
    agents: tuple[AgentProfile, ...]

    def __post_init__(self):
        p = int(self.p)
        n0 = int(self.n0)
        if p < 1:
            raise ValueError("resource count p must be >= 1")
        if not 0 <= n0 <= p:
            raise ValueError(f"n0 must lie in [0, p]={p}, got {n0}")
        b = _as_float_vector(self.b, "b")
        if b.shape != (p,):
            raise ValueError(f"b must have length p={p}, got {b.shape}")
        if not np.isfinite(b).all() or (b < 0.0).any():
            raise ValueError("resource totals b must be finite and >= 0")
        agents = tuple(self.agents)
        for i, ag in enumerate(agents):
            if ag.p != p:
                raise ValueError(
                    f"agent {i} usage matrix has {ag.p} rows, expected p={p}"
                )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "agents", agents)

    @property
    def m(self) -> int:
        return len(self.agents)

    @property
    def ell(self) -> int:
        """Total variable count: slack block plus all agent blocks."""
        return self.n0 + sum(ag.n for ag in self.agents)


@dataclass(frozen=True, eq=False)
class AssembledLP:
    """Dense stacked form of a sharing problem (or any bounded LP).

    Column order is the slack block first, then agents in input order;
    ``agent_spans`` holds the half-open column range of each agent. The spans
    are nonempty and consecutive, and the last one ends at the last column.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    n0: int
    agent_spans: tuple[tuple[int, int], ...] = field(default_factory=tuple)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = _as_float_vector(self.b, "b")
        c = _as_float_vector(self.c, "c")
        d = _as_float_vector(self.d, "d")
        if A.ndim != 2 or A.shape != (b.size, c.size) or d.shape != c.shape:
            raise ValueError(
                f"inconsistent LP dimensions: A{A.shape}, b{b.shape}, c{c.shape}, d{d.shape}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "n0", int(self.n0))
        object.__setattr__(self, "agent_spans", tuple(map(tuple, self.agent_spans)))

    @property
    def p(self) -> int:
        return self.A.shape[0]

    @property
    def ell(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return len(self.agent_spans)


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
    """Optimal basic feasible solution with its partition and agent spans.

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
    partition: BasisPartition
    agent_spans: tuple[tuple[int, int], ...]
    lam: np.ndarray
    degenerate: bool = False
    nonunique: bool = False

    @property
    def clean(self) -> bool:
        return not (self.degenerate or self.nonunique)

    @property
    def agent_index_map(self) -> tuple[np.ndarray, ...]:
        """Column indices of each agent, built from ``agent_spans``."""
        return tuple(np.arange(start, stop) for start, stop in self.agent_spans)


def _any_per_segment(flags: np.ndarray, starts) -> np.ndarray:
    """Logical or of ``flags`` over consecutive nonempty segments, the i-th
    from ``starts[i]`` to the next start (the last to the end of ``flags``).
    With one start per flag the segments are single and ``flags`` returns."""
    if len(starts) == flags.size:
        return flags
    return np.logical_or.reduceat(flags, starts)


def assemble(problem: SharingProblem) -> AssembledLP:
    """Stack the slack block and all agent blocks into one dense LP."""
    p, n0 = problem.p, problem.n0
    slack = np.zeros((p, n0))
    slack[:n0, :n0] = np.eye(n0)
    blocks_A = [slack]
    blocks_c = [np.zeros(n0)]
    blocks_d = [np.full(n0, np.inf)]
    spans = []
    offset = n0
    for ag in problem.agents:
        blocks_A.append(ag.A)
        blocks_c.append(ag.c)
        blocks_d.append(ag.d)
        spans.append((offset, offset + ag.n))
        offset += ag.n
    return AssembledLP(
        A=np.hstack(blocks_A),
        b=problem.b.copy(),
        c=np.concatenate(blocks_c),
        d=np.concatenate(blocks_d),
        n0=n0,
        agent_spans=tuple(spans),
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


def _nonbasic_values(vstat: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Full-length x with non-basic entries at their bounds, basics at 0."""
    return np.where(vstat == _AT_UPPER, d, 0.0)


def _invert_basis(B: np.ndarray) -> np.ndarray:
    """Inverse of the (small) basis matrix; hand-coded for p = 1 and p = 2
    because the pivot loop is dominated by call overhead at cargo scale."""
    p = B.shape[0]
    if p == 1:
        det = B[0, 0]
        if abs(det) < 1e-300:
            raise SingularBasis("1x1 basis is singular")
        return np.array([[1.0 / det]])
    if p == 2:
        (a, bb), (cc, dd) = B.tolist()  # floats round as numpy scalars do
        det = a * dd - bb * cc
        if abs(det) < 1e-300:
            raise SingularBasis("2x2 basis is singular")
        return np.array([[dd, -bb], [-cc, a]]) / det
    try:
        return np.linalg.inv(B)
    except np.linalg.LinAlgError as exc:
        raise SingularBasis("basis matrix is singular") from exc


def _bounded_simplex(A, b, c, d, basis, vstat, max_iter: int, Binv=None):
    """Pivot until optimal, keeping the basis inverse across pivots.

    The basis is inverted once on entry unless the caller passes its inverse
    as ``Binv``. A basis change updates the inverse by rank 1 (the eta update
    with the entering column ``Binv @ A[:, j]``), and every
    ``_REFACTOR_EVERY`` basis changes (every one with at most two rows, where
    that costs fewer calls) rebuilds it from ``A[:, basis]`` to shed the
    rounding the updates accumulate. A bound flip leaves the basis and its
    inverse unchanged, so the prices ``y = c_B Binv`` and reduced costs
    ``r = c - y A`` would come out the same bits; they are kept. When pricing
    on an updated inverse finds no entering column, the basis is re-inverted
    and priced again before
    optimality is declared, so the returned values always come from a fresh
    inverse of the final basis. Ties within ``_TIE`` in pricing and pivot
    size, and within rounding in step length, are broken by position, so a
    fresh and an updated inverse take the same pivots.

    ``basis`` (row -> column) and ``vstat`` are updated in place. Returns the
    final (x, y, r): full primal vector, row multipliers, reduced costs.
    """
    bland = False
    degen_run = 0
    changes = 0  # basis changes since Binv was last inverted
    y = None  # prices of the current basis and inverse; None once stale
    t_zero, t_upper = np.empty(basis.size), np.empty(basis.size)  # step per row
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if Binv is None:
                Binv = _invert_basis(A[:, basis])
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

            xB = Binv @ (b - A @ _nonbasic_values(vstat, d))
            sigma = 1.0 if vstat[j] == _AT_LOWER else -1.0
            col = Binv @ A[:, j]
            # change of x_B per unit step of the entering variable
            delta = (-sigma) * col

            dB = d[basis]
            shrink = delta < -_PIV_TOL
            grow = (delta > _PIV_TOL) & np.isfinite(dB)
            # a row that cannot block keeps an infinite step
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
            if t_own <= reach:
                # bound flip: the entering variable traverses its whole range
                vstat[j] = _AT_UPPER if vstat[j] == _AT_LOWER else _AT_LOWER
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
                basis[row] = j
                vstat[j] = _BASIC
                changes += 1
                y = None
                if changes == _REFACTOR_EVERY or basis.size <= 2:
                    Binv = None
                else:
                    prow = Binv[row] / col[row]
                    Binv -= col[:, None] @ prow[None, :]
                    Binv[row] = prow

            if t_step <= _DEGEN_STEP:
                degen_run += 1
                if degen_run >= _BLAND_TRIGGER:
                    bland = True
            else:
                degen_run = 0
        else:
            raise PivotLimit(f"simplex failed to terminate within {max_iter} pivots")

    x = _nonbasic_values(vstat, d)
    x[basis] = Binv @ (b - A @ x)
    return x, y, r


def _crash_basis(A, b, d):
    """Seed the basis with structural singleton columns (slack-like) whose
    implied value is within bounds; remaining rows get artificial variables."""
    p, ell = A.shape
    basis = np.full(p, -1, dtype=int)
    vstat = np.full(ell, _AT_LOWER, dtype=int)
    for j in (np.count_nonzero(A, axis=0) == 1).nonzero()[0].tolist():
        i = int(np.argmax(np.abs(A[:, j])))
        if basis[i] >= 0:
            continue
        v = b[i] / A[i, j]
        if -FEAS_TOL <= v <= d[j] + FEAS_TOL:
            basis[i] = j
            vstat[j] = _BASIC
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
        pivots = _invert_basis(A1[:, basis1])[row] @ A
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


def _start_basis(A, b, d, start: BasisPartition):
    """Basis, statuses and basis inverse of a caller's partition; raise
    InfeasibleStart unless its basic values lie within their bounds. With p
    basic of ell indices in [0, ell), the sets partition the columns iff each
    column gets a status."""
    p, ell = A.shape
    n_basic, n_lower = len(start.basic), len(start.at_lower)
    indices = np.array([*start.basic, *start.at_lower, *start.at_upper], dtype=int)
    vstat = np.full(ell, -1)
    counted = n_basic == p and indices.size == ell
    if counted and indices.min() >= 0 and indices.max() < ell:
        vstat[indices[n_basic + n_lower :]] = _AT_UPPER
        vstat[indices[n_basic : n_basic + n_lower]] = _AT_LOWER
        vstat[indices[:n_basic]] = _BASIC
    if vstat.min() < 0:
        raise ValueError(
            f"start must partition {ell} columns with {p} basic, got "
            f"{n_basic} basic of {indices.size} indices"
        )
    basis = indices[:n_basic]
    Binv = _invert_basis(A[:, basis])
    with np.errstate(invalid="ignore"):
        xB = Binv @ (b - A @ _nonbasic_values(vstat, d))
        # a column at upper d = inf makes x_B non-finite; inf - inf is NaN and fails
        inside = xB.min() >= -FEAS_TOL and (xB - d[basis] <= FEAS_TOL).all()
    if not inside:
        raise InfeasibleStart(
            f"start basis puts a basic variable outside its bounds: x_B = {xB}"
        )
    return basis, vstat, Binv


def _row_scale(lp: AssembledLP) -> np.ndarray:
    """Per-row divisor that brings each row of [A | b] to unit max-norm
    (1 for an all-zero row)."""
    scale = np.maximum(np.abs(lp.A).max(axis=1, initial=0.0), np.abs(lp.b))
    return np.where(scale > 0.0, scale, 1.0)


def solve_primal(lp: AssembledLP, start: BasisPartition | None = None) -> PrimalSolution:
    """Solve the assembled LP to an optimal basic feasible solution.

    ``start`` replaces phase 1 by a known feasible partition of the columns;
    phase 2 pivots on from there. A start whose basic values leave their
    bounds raises InfeasibleStart: there is no fallback to phase 1.

    Degeneracy and non-uniqueness do not abort: they set flags on the returned
    solution so callers can discard the instance. Infeasibility and
    unboundedness raise.
    """
    p, ell = lp.p, lp.ell
    if ell < p:
        raise ValueError(f"need at least as many variables as rows: ell={ell} < p={p}")

    scale = _row_scale(lp)
    As = lp.A / scale[:, None]
    bs = lp.b / scale

    max_iter = 2000 + 60 * (ell + p)
    if start is None:
        basis, vstat = _phase1(As, bs, lp.d, max_iter)
        Binv = None
    else:
        basis, vstat, Binv = _start_basis(As, bs, lp.d, start)
    x, y, r = _bounded_simplex(As, bs, lp.c, lp.d, basis, vstat, max_iter, Binv)

    residual = float(np.abs(As @ x - bs).max(initial=0.0))
    if residual > 10.0 * FEAS_TOL:
        raise FeasibilityCheckFailed(
            f"solution failed the feasibility check: scaled residual {residual:.3e}"
        )

    xb = x[basis]
    db = lp.d[basis]
    at_up = np.isfinite(db) & (xb >= db - ACT_TOL)
    degenerate = bool(((xb <= ACT_TOL) | at_up).any())
    nonunique = bool(((np.abs(r) <= RC_TOL) & (vstat != _BASIC)).any())

    partition = BasisPartition(
        basic=tuple(basis.tolist()),
        at_lower=tuple((vstat == _AT_LOWER).nonzero()[0].tolist()),
        at_upper=tuple((vstat == _AT_UPPER).nonzero()[0].tolist()),
    )
    return PrimalSolution(
        x=x,
        objective=float(lp.c @ x),
        partition=partition,
        agent_spans=lp.agent_spans,
        lam=-y / scale,
        degenerate=degenerate,
        nonunique=nonunique,
    )


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

    scale = _row_scale(lp)
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
