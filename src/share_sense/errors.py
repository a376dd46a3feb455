"""Exception types shared across the package."""


class ShareSenseError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleProblem(ShareSenseError):
    """The constraint set is empty (phase-1 optimum stayed positive)."""


class UnboundedProblem(ShareSenseError):
    """A cost-improving ray exists; some budget direction is unconstrained."""


class SingularBasis(ShareSenseError):
    """A basis matrix that should be invertible is numerically singular."""


class RankDeficient(ShareSenseError):
    """The budget rows are linearly dependent; the basis-partition theory
    downstream assumes full row rank."""


class BracketFailure(ShareSenseError):
    """No sign change found when searching for a polynomial root; the
    (m, beta) pair is outside the sane range."""


class DegenerateBase(ShareSenseError):
    """The base solution carries degeneracy/non-uniqueness flags, so the
    arrival certificate would be unreliable."""


class InfeasibleStart(ShareSenseError):
    """A starting basis handed to the simplex puts a basic variable outside
    its bounds, so phase 2 cannot begin from it."""


class PivotLimit(ShareSenseError):
    """The simplex did not reach optimality within its pivot budget."""


class FeasibilityCheckFailed(ShareSenseError):
    """A solution the simplex returned does not satisfy ``A x = b`` within
    the feasibility tolerance."""


class AuditMismatch(ShareSenseError):
    """A re-solve of the enlarged problem disagreed with the reduced-cost
    certificate of an arrival."""


class CountMismatch(ShareSenseError):
    """The primal and dual reads of the active-agent count disagree on a
    clean solve."""


class TableCheckFailed(ShareSenseError):
    """An epsilon table violates root ordering, bound ordering, the k = m
    boundary values or the root-residual tolerance."""
