"""Cargo-aircraft loading benchmark and its Monte Carlo campaign.

Each agent is one shipping request: a scalar quantity in kg, paid at a random
price per kg, with a random density and a random demand cap. The aircraft
contributes two inequality budget rows (weight W in kg, volume V in m^3,
densities in kg/m^3). A campaign solves many independent batches, counts the
active agents per batch, estimates the probability that one more request
changes the plan, and checks that estimate against the confidence interval for
the observed count.

W and V have no canonical values here; they are required inputs. Under the
placeholders W = 20000 kg and V = 30 m^3 of the two campaign configs the volume
row never binds (its multiplier is 0 in all 200 trials); V = 6 m^3 in
``configs/cargo_m100_two_row.json`` prices both rows in 92 of its 100 trials.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import rng as rng_streams
from .arrivals import empirical_violation_probability
from .duality import closed_form_certificate
from .errors import AuditMismatch, CountMismatch
from .lp_core import SharingProblem, assemble, solve_primal
from .sensitivity import (
    EpsilonTable,
    count_active_dual,
    count_active_primal,
    epsilon_table,
)

__all__ = [
    "CampaignSummary",
    "CargoArrivalSampler",
    "CargoConfig",
    "TrialRecord",
    "TruncatedGaussianDemand",
    "UniformDemand",
    "build_problem",
    "run_campaign",
    "run_trial",
]

_AUDIT_FRACTION = 0.01  # share of a clean trial's arrivals re-solved as a check


_DECLARED = {"int": numbers.Integral, "int | None": (numbers.Integral, type(None)), "float": numbers.Real}


def _check_types(obj) -> None:
    """ValueError naming the first field of ``obj`` whose value is not of the
    type its annotation string declares; an int is a float here, a bool is
    neither. Values are refused, never converted, so a config names its run."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, bool) or not isinstance(value, _DECLARED.get(f.type, object)):
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass(frozen=True)
class UniformDemand:
    d_min: float
    d_max: float

    def __post_init__(self):
        _check_types(self)
        if not 0.0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.d_min, self.d_max, size=size)


@dataclass(frozen=True)
class TruncatedGaussianDemand:
    """Gaussian demand truncated to positive values by rejection: resample
    until positive. ``mu > 0`` keeps each draw's acceptance above 1/2; with a
    mean far below zero the loop would practically never end."""

    mu: float
    sigma2: float

    def __post_init__(self):
        _check_types(self)
        if self.sigma2 <= 0.0:
            raise ValueError("need sigma2 > 0")
        if self.mu <= 0.0:
            raise ValueError("need mu > 0")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        sigma = float(np.sqrt(self.sigma2))
        out = rng.normal(self.mu, sigma, size=size)
        bad = out <= 0.0
        while np.any(bad):
            out[bad] = rng.normal(self.mu, sigma, size=int(bad.sum()))
            bad = out <= 0.0
        return out


@dataclass(frozen=True)
class CargoConfig:
    """Campaign parameters. ``arrivals`` defaults to 50 per agent."""

    m: int
    W: float
    V: float
    demand: UniformDemand | TruncatedGaussianDemand
    trials: int = 100
    arrivals: int | None = None
    beta: float = 1e-7
    p_min: float = 20.0
    p_max: float = 60.0
    rho_min: float = 900.0
    rho_max: float = 7000.0
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.m < 1:
            raise ValueError("need at least one agent per trial")
        if self.trials < 0:
            raise ValueError("trial count must be >= 0")
        if not (self.W > 0.0 and self.V > 0.0):
            raise ValueError("aircraft capacities W and V must be positive")
        if not self.p_min <= self.p_max:
            raise ValueError("need p_min <= p_max")
        if not 0.0 < self.rho_min <= self.rho_max:
            raise ValueError("need 0 < rho_min <= rho_max")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if self.arrivals is not None and self.arrivals < 1:
            raise ValueError("arrivals must be >= 1")

    @property
    def n_arrivals(self) -> int:
        return 50 * self.m if self.arrivals is None else self.arrivals


class CargoArrivalSampler:
    """Request sampler bound to a config. ``sample_batch(draws, rng) -> (c, d, A)``
    stacks one column per request: cost -price, demand cap and usage
    (1, 1/density). ``build_problem`` draws a trial's m agents with it, and
    ``run_trial`` the arrivals it screens at one column per newcomer."""

    def __init__(self, config: CargoConfig):
        self.config = config

    def sample_batch(self, draws: int, rng: np.random.Generator):
        prices = rng.uniform(self.config.p_min, self.config.p_max, size=draws)
        rhos = rng.uniform(self.config.rho_min, self.config.rho_max, size=draws)
        demands = self.config.demand.sample(rng, draws)
        # filled in place: a batch holds no temporary copy of its columns
        A = np.empty((2, draws))
        A[0] = 1.0
        np.divide(1.0, rhos, out=A[1])
        return np.negative(prices, out=prices), demands, A


def build_problem(config: CargoConfig, rng: np.random.Generator) -> SharingProblem:
    """One random batch of m requests under the aircraft's two budget rows:
    the agents are drawn as newcomers are, one stacked column each."""
    agents = CargoArrivalSampler(config).sample_batch(config.m, rng)
    return SharingProblem(p=2, n0=2, b=[config.W, config.V], agents=agents)


@dataclass(frozen=True)
class TrialRecord:
    """One batch: active count, empirical change probability, its interval,
    and the flags that exclude a trial from acceptance statistics."""

    trial_index: int
    s_star: int
    p_hat: float
    eps_low: float
    eps_high: float
    tie_count: int
    degenerate: bool
    nonunique: bool

    @property
    def clean(self) -> bool:
        return not (self.degenerate or self.nonunique)

    @property
    def covered(self) -> bool:
        return self.eps_low <= self.p_hat <= self.eps_high


def run_trial(config: CargoConfig, trial_index: int, table: EpsilonTable) -> TrialRecord:
    """Solve one batch, count active agents (primal and dual reads must agree
    on clean trials), and estimate the arrival-change probability.

    Only clean trials are audited: on a flagged base the certificate can
    disagree with every re-solve, and such a trial is discarded anyway."""
    if table.m != config.m:
        raise ValueError(f"table was built for m={table.m}, config has m={config.m}")
    agent_rng = rng_streams.stream(config.seed, trial_index, "agents")
    lp = assemble(build_problem(config, agent_rng))  # the agent profiles are not kept
    solution = solve_primal(lp)

    s_star = count_active_primal(solution)
    if solution.clean:
        cert = closed_form_certificate(lp, solution)
        s_dual = count_active_dual(lp, cert)
        if s_dual != s_star:
            raise CountMismatch(
                f"trial {trial_index}: primal count {s_star} != dual count {s_dual} on a clean solve"
            )

    arrival_rng = rng_streams.stream(config.seed, trial_index, "arrivals")
    # a fresh stack that no name here holds: it is freed before the audits
    estimate = empirical_violation_probability(
        lp,
        solution,
        CargoArrivalSampler(config).sample_batch(config.n_arrivals, arrival_rng),
        audit_fraction=_AUDIT_FRACTION if solution.clean else 0.0,
        allow_flagged=True,
    )
    if estimate.audit_mismatches:
        raise AuditMismatch(
            f"trial {trial_index}: {estimate.audit_mismatches} audit re-solves disagreed with the certificate"
        )

    eps_low, eps_high = table.interval(s_star)
    return TrialRecord(
        trial_index=trial_index,
        s_star=s_star,
        p_hat=estimate.fraction,
        eps_low=eps_low,
        eps_high=eps_high,
        tie_count=estimate.ties,
        degenerate=solution.degenerate,
        nonunique=solution.nonunique,
    )


@dataclass(frozen=True)
class CampaignSummary:
    trials: int
    clean_trials: int
    covered: int
    discarded: int
    tie_total: int

    @property
    def all_covered(self) -> bool:
        return self.covered == self.clean_trials


def run_campaign(
    config: CargoConfig, table: EpsilonTable | None = None
) -> tuple[list[TrialRecord], CampaignSummary]:
    """All trials of a campaign, in trial order. Results are deterministic
    functions of (config, seed) alone."""
    if table is None:
        table = epsilon_table(config.m, config.beta)
    records = [run_trial(config, i, table) for i in range(config.trials)]

    clean = [r for r in records if r.clean]
    summary = CampaignSummary(
        trials=len(records),
        clean_trials=len(clean),
        covered=sum(1 for r in clean if r.covered),
        discarded=len(records) - len(clean),
        tie_total=sum(r.tie_count for r in records),
    )
    return records, summary
