"""Confidence bounds for the probability that a new agent changes the optimum.

For a sample of ``m`` agents and confidence parameter ``beta`` the interval
endpoints come from the two non-negative roots of a family of degree-4m
polynomials, one per possible count ``k`` of active agents. The family is
always built and solved whole, for k = 0..m, and its row index is k;
``epsilon_table`` is the one entry point to the roots. Everything here is
evaluated in log space: the coefficients reach sizes like C(4000, 500), far
beyond float range.

Numerical scheme
----------------
Each polynomial has a single positive term (degree m - k) and two groups of
negative terms. In u = log t the log-ratio of the positive term to the sum of
negative terms is concave (affine minus log-sum-exp), so the set where the
polynomial is positive is exactly one interval and its endpoints are the two
roots. We locate the maximum of the ratio by golden-section search, expand
outward for sign changes, and bisect in t. Binomial log-coefficients are built
by a cumulative recurrence in extended precision so that errors shared by the
positive term and the dominant negative terms cancel in the ratio; this keeps
the normalized residual at the reported roots below 1e-10 even at m = 1000.
Coefficient rows are built, and evaluated in place over contiguous row ranges,
in blocks of about 256 KB that stay in cache (the exponent rows are views of
one vector); every operation runs along a whole row as an unblocked evaluation
would, so the blocking changes no bit of any result.

The negative-side terms of a row are shifted by their maximum before ``exp``.
Shifted terms below log of the smallest normal float (about -708.4) skip
``exp``, which is many times slower on subnormal and zero results, and count
as +0.0. Below -745.14 their ``exp`` is exactly +0.0 anyway; between the two
it is a subnormal under 2.3e-308, added to a row sum of at least 1 (the
maximum term is exp(0)), so it could move a bit only through the rounding of
a tiny partial sum. The bitwise tests against the full ``exp`` show the
tables unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import DualCertificate
from .errors import BracketFailure, TableCheckFailed
from .lp_core import ACT_TOL, AssembledLP, PrimalSolution, _any_per_segment

__all__ = [
    "EpsilonTable",
    "count_active_dual",
    "count_active_primal",
    "epsilon_table",
    "explicit_upper_bound",
    "sensitivity_interval",
]

_U_FLOOR = -60.0 * math.log(2.0)
_U_CAP = 40.0 * math.log(2.0)
_T_TOL = 1e-12  # absolute bisection width in t
_RESIDUAL_TOL = 1e-10  # on the largest-term-normalized value
_GOLDEN_ITERS = 48  # shrinks the golden-section u-bracket by 0.618^48, about 1e-10
_BLOCK_BYTES = 1 << 18  # 256 KB row blocks of _PolyFamily work stay in L2
_EXP_FLOOR = math.log(np.finfo(float).smallest_normal)  # shifted terms below skip exp


class _PolyFamily:
    """Log-space coefficient rows of the confidence polynomials for a fixed
    (m, beta), row k for each k = 0..m. The exponents i - k of row k are a
    window of one vector; ``expo`` is a view."""

    def __init__(self, m: int, beta: float):
        if m < 1:
            raise ValueError("m must be >= 1")
        if not 0.0 < beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        self.m = m

        n_i = 4 * m + 1
        K = np.arange(m + 1, dtype=float)[:, None]
        # row k is i - k: windows of J from k = m down, reversed
        J = np.arange(-m, n_i, dtype=float)
        self.expo = np.lib.stride_tricks.sliding_window_view(J, n_i)[::-1]
        self.logcoef = np.empty((m + 1, n_i))
        pref = np.full(n_i, math.log(beta / (6.0 * m)))
        pref[:m] = math.log(beta / (2.0 * m))
        pref[m] = 0.0
        self._block_rows = max(1, _BLOCK_BYTES // self.logcoef.strides[0])
        buf = np.empty((min(m + 1, self._block_rows), n_i))
        for lo in range(0, m + 1, self._block_rows):
            hi = min(lo + self._block_rows, m + 1)
            diff, out, inc = self.expo[lo:hi], self.logcoef[lo:hi], buf[: hi - lo]
            np.maximum(diff, 1.0, out=inc)
            np.divide(K[lo:hi], inc, out=inc)
            np.copyto(inc, 0.0, where=diff < 1.0)
            np.log1p(inc, out=inc)
            # log C(i,k) = sum_{j<=i} log(j/(j-k)) along each row, accumulated in
            # extended precision to keep the rounding below the residual budget
            out[...] = np.cumsum(inc, axis=1, dtype=np.longdouble)
            out += pref
            out[diff < 0.0] = -np.inf

    def eval_rows(self, rows: np.ndarray, t: np.ndarray):
        """Normalized value and positive/negative log-ratio at t[j] for the
        ascending, distinct rows[j].

        t entries must be strictly positive. The ratio is formed fully in log
        space so it stays finite (and concave in log t) even where one side
        would underflow; this is what makes the bracketing search reliable.
        The row range rows[0]..rows[-1] is evaluated from slices, in blocks,
        with no temporary of the full (rows x columns) size; rows in between
        get t = 1 and are dropped.
        """
        a, sel = rows[0], rows - rows[0]
        lt = np.zeros(sel[-1] + 1)
        lt[sel] = np.log(t)
        n = lt.size
        pos_log, negmax, negsum = np.empty((3, n))
        buf = np.empty((min(n, self._block_rows), self.expo.shape[1]))
        live_buf = np.empty(buf.shape, dtype=bool)
        for lo in range(0, n, self._block_rows):
            hi = min(lo + self._block_rows, n)
            LT, live = buf[: hi - lo], live_buf[: hi - lo]
            np.copyto(LT, self.expo[a + lo : a + hi])
            LT *= lt[lo:hi, None]
            LT += self.logcoef[a + lo : a + hi]
            pos_log[lo:hi] = LT[:, self.m]
            LT[:, self.m] = -np.inf
            LT.max(axis=1, out=negmax[lo:hi])
            LT -= negmax[lo:hi, None]
            # terms below the floor (-inf included) become +0.0 without exp;
            # NaN fails the test and maximum keeps it
            np.greater_equal(LT, _EXP_FLOOR, out=live)
            np.exp(LT, out=LT, where=live)
            np.maximum(LT, 0.0, out=LT)
            LT.sum(axis=1, out=negsum[lo:hi])
        pos_log, negmax, negsum = pos_log[sel], negmax[sel], negsum[sel]
        logneg = negmax + np.log(negsum)
        g = pos_log - logneg
        rowmax = np.maximum(pos_log, negmax)
        val = np.exp(pos_log - rowmax) - np.exp(logneg - rowmax)
        return val, g, rowmax


def _golden_max(fam: _PolyFamily, rows: np.ndarray):
    """Vectorized golden-section maximization of the concave log-ratio over
    u = log t. Returns (u_star, g_star) per row."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    n = rows.size
    a = np.full(n, _U_FLOOR)
    b = np.full(n, _U_CAP)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    _, gc, _ = fam.eval_rows(rows, np.exp(c))
    _, gd, _ = fam.eval_rows(rows, np.exp(d))
    for _ in range(_GOLDEN_ITERS):
        keep_left = gc >= gd
        surviving = np.where(keep_left, gc, gd)
        a = np.where(keep_left, a, c)
        b = np.where(keep_left, d, b)
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        # the surviving interior point coincides with one recomputed slot:
        # old c becomes the new d when keeping the left part, and vice versa
        probe = np.where(keep_left, c, d)
        _, gp, _ = fam.eval_rows(rows, np.exp(probe))
        gc = np.where(keep_left, gp, surviving)
        gd = np.where(keep_left, surviving, gp)
    u_star = 0.5 * (a + b)
    _, g_star, _ = fam.eval_rows(rows, np.exp(u_star))
    return u_star, g_star


def _expand_brackets(fam, rows, u_star, direction: int):
    """March away from the maximum in +-u until the ratio turns negative.

    Returns (t_inner, t_outer) with the polynomial positive at t_inner and
    negative at t_outer. Going left, hitting the floor with a positive value
    yields t_outer = 0 (the polynomial is negative at 0 for k < m). Going
    right past the cap raises BracketFailure.
    """
    n = rows.size
    inner = np.exp(u_star)
    outer = np.full(n, np.nan)
    active = np.ones(n, dtype=bool)
    step = np.ones(n)
    u_cur = u_star.copy()
    # u_star lies in [_U_FLOOR, _U_CAP], 100 ln 2 wide, so steps of 1, 2, 4,
    # ... reach the clipped edge within 7 passes; a row at the edge leaves
    # (going left) or raises (going right), so the loop ends
    while active.any():
        u_next = u_cur + direction * step
        clipped = (
            np.maximum(u_next, _U_FLOOR) if direction < 0 else np.minimum(u_next, _U_CAP)
        )
        idx = np.flatnonzero(active)
        _, g, _ = fam.eval_rows(rows[idx], np.exp(clipped[idx]))
        negative = g < 0.0
        done = idx[negative]
        outer[done] = np.exp(clipped[done])
        active[done] = False

        still = idx[~negative]
        at_edge = (
            clipped[still] <= _U_FLOOR if direction < 0 else clipped[still] >= _U_CAP
        )
        edge = still[at_edge]
        if direction < 0:
            inner[edge] = np.exp(clipped[edge])
            outer[edge] = 0.0
            active[edge] = False
        elif edge.size:
            raise BracketFailure(f"no sign change up to t = 2^40 for k in {rows[edge].tolist()}")
        moving = still[~at_edge]
        inner[moving] = np.exp(clipped[moving])
        u_cur[active] = clipped[active]
        step[active] *= 2.0
    return inner, outer


def _bisect(fam, rows, t_neg, t_pos):
    """Bisection on sign between a negative-value and a positive-value point.

    Width is driven below ``_T_TOL`` first, and then further until the
    normalized residual at the midpoint drops below half the residual budget
    (or the bracket reaches float resolution).
    """
    neg_end = t_neg.copy()
    pos_end = t_pos.copy()
    n = rows.size
    root = 0.5 * (neg_end + pos_end)
    resid = np.full(n, np.inf)
    active = np.ones(n, dtype=bool)
    for _ in range(220):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        mid = 0.5 * (neg_end[idx] + pos_end[idx])
        val, _, _ = fam.eval_rows(rows[idx], mid)
        positive = val > 0.0
        pos_end[idx[positive]] = mid[positive]
        neg_end[idx[~positive]] = mid[~positive]
        root[idx] = mid
        resid[idx] = np.abs(val)

        width = np.abs(pos_end[idx] - neg_end[idx])
        floor = 4.0 * np.finfo(float).eps * np.maximum(np.abs(pos_end[idx]), 1e-300)
        converged = (width <= _T_TOL) & (
            (resid[idx] <= 0.5 * _RESIDUAL_TOL) | (width <= floor)
        )
        active[idx[converged]] = False
    return root, resid


def _solve_family(fam: _PolyFamily):
    """All roots for k = 0..m: (t_low, t_high, resid_low, resid_high).

    Row m gets t_low = 0 by definition (its value at 0 is +1 and the positive
    window extends to the origin)."""
    m = fam.m
    rows = np.arange(m + 1)
    u_star, g_star = _golden_max(fam, rows)
    if np.any(g_star <= 0.0):
        raise BracketFailure(f"polynomial never positive for k in {rows[g_star <= 0.0].tolist()}")

    t_low = np.zeros(m + 1)
    resid_low = np.full(m + 1, np.nan)
    inner, outer = _expand_brackets(fam, rows[:m], u_star[:m], direction=-1)
    t_low[:m], resid_low[:m] = _bisect(fam, rows[:m], outer, inner)

    inner, outer = _expand_brackets(fam, rows, u_star, direction=+1)
    t_high, resid_high = _bisect(fam, rows, outer, inner)
    return t_low, t_high, resid_low, resid_high


def explicit_upper_bound(m: int, k: int, beta: float) -> float:
    """One-sided closed form 1 - (beta / (m C(m,k)))^(1/(m-k)) at confidence
    1 - beta.

    Classically stated for 1 <= k <= m-1 with value 1 at k = m; we also apply
    the (well-defined) formula at k = 0. It spends all of beta on one tail, so
    at this beta it does not bound the two-sided ``eps_high``; the table's
    ``eps_explicit`` column evaluates it at beta / 2.
    """
    if not 0 <= k <= m:
        raise ValueError("k must lie in [0, m]")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    if k == m:
        return 1.0
    lnC = math.lgamma(m + 1) - math.lgamma(k + 1) - math.lgamma(m - k + 1)
    exponent = (math.log(beta) - math.log(m) - lnC) / (m - k)
    return float(min(1.0, -math.expm1(exponent)))


@dataclass(frozen=True, eq=False)
class EpsilonTable:
    """Interval endpoints for every possible active-agent count k = 0..m.

    ``residual_low``/``residual_high`` hold the normalized polynomial values
    at the reported roots (NaN where the root is 0 by definition).

    ``eps_explicit`` is ``explicit_upper_bound`` at beta / 2, a cruder upper
    bound on ``eps_high`` for every k = 0..m. Proof: at t_low the positive
    term C(m,k) t^(m-k) equals the sum of the non-negative negative-side
    terms, whose i = k term alone is beta/(2m); hence
    t_low^(m-k) >= beta / (2m C(m,k)), i.e. eps_high <= eps_explicit.
    """

    m: int
    beta: float
    t_low: np.ndarray
    t_high: np.ndarray
    eps_low: np.ndarray
    eps_high: np.ndarray
    eps_explicit: np.ndarray
    residual_low: np.ndarray
    residual_high: np.ndarray

    def __post_init__(self):
        m = self.m
        if self.t_low.shape != (m + 1,):
            raise ValueError("table arrays must have length m + 1")
        if self.t_low[m] != 0.0:
            raise TableCheckFailed("t_low at k = m must be exactly 0")
        if np.any(self.t_low < 0.0) or np.any(self.t_low > self.t_high):
            raise TableCheckFailed("root ordering violated: need 0 <= t_low <= t_high")
        if np.any(self.eps_low < 0.0) or np.any(self.eps_low > self.eps_high):
            raise TableCheckFailed("bound ordering violated")
        if np.any(self.eps_high > 1.0) or self.eps_high[m] != 1.0:
            raise TableCheckFailed("upper bounds must lie in [0, 1] with value 1 at k = m")
        resid = np.concatenate([self.residual_low[:m], self.residual_high])
        if np.any(np.abs(resid) >= _RESIDUAL_TOL):
            worst = float(np.nanmax(np.abs(resid)))
            raise TableCheckFailed(f"root residual {worst:.3e} exceeds {_RESIDUAL_TOL}")

    def interval(self, k: int) -> tuple[float, float]:
        if not 0 <= k <= self.m:
            raise ValueError(f"k must lie in [0, m]={self.m}, got {k}")
        return float(self.eps_low[k]), float(self.eps_high[k])

    def rows(self):
        """Iterate (k, t_low, t_high, eps_low, eps_high, eps_explicit)."""
        for k in range(self.m + 1):
            yield (
                k,
                float(self.t_low[k]),
                float(self.t_high[k]),
                float(self.eps_low[k]),
                float(self.eps_high[k]),
                float(self.eps_explicit[k]),
            )


def epsilon_table(m: int, beta: float) -> EpsilonTable:
    """Roots and interval endpoints for all k = 0..m at confidence 1 - beta.

    ``eps_explicit`` is the one-sided closed form at beta / 2, which bounds
    ``eps_high`` from above (see ``EpsilonTable``)."""
    fam = _PolyFamily(m, beta)
    t_low, t_high, resid_low, resid_high = _solve_family(fam)
    eps_low = np.maximum(0.0, 1.0 - t_high)
    eps_high = np.maximum(0.0, 1.0 - t_low)
    explicit = np.array([explicit_upper_bound(m, k, beta / 2.0) for k in range(m + 1)])
    return EpsilonTable(
        m=m,
        beta=beta,
        t_low=t_low,
        t_high=t_high,
        eps_low=eps_low,
        eps_high=eps_high,
        eps_explicit=explicit,
        residual_low=resid_low,
        residual_high=resid_high,
    )


def count_active_primal(solution: PrimalSolution) -> int:
    """Number of agents with at least one decision component away from zero.
    The slack block lies before the first agent span and is left out."""
    starts = [start for start, _ in solution.agent_spans]
    return int(np.count_nonzero(_any_per_segment(np.abs(solution.x) > ACT_TOL, starts)))


def count_active_dual(lp: AssembledLP, cert: DualCertificate) -> int:
    """Active-agent count read off the dual certificate: agents with a
    positive relaxation value plus agents whose constraint is tight at the
    multiplier (some coordinate gradient vanishing). The two sets are disjoint
    because the boundary test requires the relaxation value to be zero."""
    grad = -lp.c - cert.lam @ lp.A
    starts = [start for start, _ in lp.agent_spans]
    tight = _any_per_segment(np.abs(grad) <= ACT_TOL, starts)
    return int(np.count_nonzero((cert.h > ACT_TOL) | tight))


def sensitivity_interval(
    solution: PrimalSolution, table: EpsilonTable
) -> tuple[float, float, int]:
    """Interval for the probability that a random new agent changes the
    optimum: the table row selected by the observed active-agent count."""
    m = len(solution.agent_spans)
    if m != table.m:
        raise ValueError(f"table was built for m={table.m}, solution has m={m} agents")
    s_star = count_active_primal(solution)
    lo, hi = table.interval(s_star)
    return lo, hi, s_star
