"""Multi-agent resource-sharing LPs and the probability that a newly arriving
agent changes the optimal allocation, with high-confidence interval bounds and
a Monte Carlo validation harness."""

from .arrivals import (
    ArrivalVerdict,
    ViolationEstimate,
    augment,
    changes_solution,
    empirical_violation_probability,
    solve_augmented,
)
from .cargo import (
    CampaignSummary,
    CargoArrivalSampler,
    CargoConfig,
    TrialRecord,
    TruncatedGaussianDemand,
    UniformDemand,
    build_problem,
    run_campaign,
    run_trial,
    sample_cargo_agent,
)
from .duality import (
    DualCertificate,
    SlacknessReport,
    closed_form_certificate,
    dual_closed_form,
    dual_objective,
    relaxation_values,
    solve_dual_full,
    solve_dual_relaxation,
    verify_complementary_slackness,
)
from .errors import (
    AuditMismatch,
    BracketFailure,
    CountMismatch,
    DegenerateBase,
    FeasibilityCheckFailed,
    InfeasibleProblem,
    InfeasibleStart,
    PivotLimit,
    RankDeficient,
    ShareSenseError,
    SingularBasis,
    TableCheckFailed,
    UnboundedProblem,
)
from .lp_core import (
    DEFAULT_TOLS,
    AgentProfile,
    AssembledLP,
    AuditReport,
    BasisPartition,
    PrimalSolution,
    SharingProblem,
    Tolerances,
    assemble,
    audit_assumptions,
    check_basic_solution,
    reduced_costs,
    solve_primal,
)
from .sensitivity import (
    EpsilonTable,
    SignedLogValue,
    count_active_dual,
    count_active_primal,
    epsilon_table,
    explicit_upper_bound,
    poly_value,
    sensitivity_interval,
    solve_roots,
)

__version__ = "0.1.0"
