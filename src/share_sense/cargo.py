"""Cargo-aircraft loading benchmark and its Monte Carlo campaign.

Each agent is one shipping request: a scalar quantity in kg, paid at a random
price per kg, with a random density and a random demand cap. The aircraft
contributes two inequality budget rows (weight W in kg, volume V in m^3,
densities in kg/m^3). A campaign solves many independent batches, counts the
active agents per batch, estimates the probability that one more request
changes the plan, and checks that estimate against the confidence interval for
the observed count.

W and V have no canonical values here; they are required inputs. The example
configs ship W = 20000 kg and V = 30 m^3, placeholders chosen to produce mixed
regimes at m = 100.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

from . import rng as rng_streams
from .arrivals import empirical_violation_probability
from .duality import closed_form_certificate
from .errors import AuditMismatch, CountMismatch
from .lp_core import (
    DEFAULT_TOLS,
    AgentProfile,
    SharingProblem,
    Tolerances,
    assemble,
    solve_primal,
)
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
    "sample_cargo_agent",
]

THREADS_ENV = "SHARE_SENSE_THREADS"


@dataclass(frozen=True)
class UniformDemand:
    d_min: float
    d_max: float

    def __post_init__(self):
        if not 0.0 < self.d_min < self.d_max:
            raise ValueError("need 0 < d_min < d_max")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.d_min, self.d_max, size=size)


@dataclass(frozen=True)
class TruncatedGaussianDemand:
    """Gaussian demand truncated to positive values by rejection: resample
    until positive. Acceptance is high for the intended mean/variance."""

    mu: float
    sigma2: float

    def __post_init__(self):
        if self.sigma2 <= 0.0:
            raise ValueError("need sigma2 > 0")

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


def _draw_agents(config: CargoConfig, rng: np.random.Generator, size: int):
    prices = rng.uniform(config.p_min, config.p_max, size=size)
    rhos = rng.uniform(config.rho_min, config.rho_max, size=size)
    demands = config.demand.sample(rng, size)
    return prices, rhos, demands


def _profile(price: float, rho: float, demand: float) -> AgentProfile:
    return AgentProfile(
        n=1, c=[-price], d=[demand], A=np.array([[1.0], [1.0 / rho]])
    )


def sample_cargo_agent(config: CargoConfig, rng: np.random.Generator) -> AgentProfile:
    """One shipping request: cost = -price, usage = (1, 1/density)."""
    price, rho, demand = (v[0] for v in _draw_agents(config, rng, 1))
    return _profile(price, rho, demand)


class CargoArrivalSampler:
    """Arrival sampler bound to a config; supports batch draws for the
    vectorized certificate path."""

    def __init__(self, config: CargoConfig):
        self.config = config

    def __call__(self, rng: np.random.Generator) -> AgentProfile:
        return sample_cargo_agent(self.config, rng)

    def sample_batch(self, draws: int, rng: np.random.Generator):
        prices, rhos, demands = _draw_agents(self.config, rng, draws)
        A = np.vstack([np.ones(draws), 1.0 / rhos])
        return -prices, demands, A


def build_problem(config: CargoConfig, rng: np.random.Generator) -> SharingProblem:
    """One random batch of m requests under the aircraft's two budget rows."""
    prices, rhos, demands = _draw_agents(config, rng, config.m)
    agents = tuple(
        _profile(prices[i], rhos[i], demands[i]) for i in range(config.m)
    )
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


def run_trial(
    config: CargoConfig,
    trial_index: int,
    table: EpsilonTable,
    tol: Tolerances = DEFAULT_TOLS,
    audit_fraction: float = 0.01,
) -> TrialRecord:
    """Solve one batch, count active agents (primal and dual reads must agree
    on clean trials), and estimate the arrival-change probability."""
    if table.m != config.m:
        raise ValueError(f"table was built for m={table.m}, config has m={config.m}")
    agent_rng = rng_streams.stream(config.seed, trial_index, "agents")
    problem = build_problem(config, agent_rng)
    lp = assemble(problem)
    solution = solve_primal(lp, tol)

    s_star = count_active_primal(solution, tol)
    if solution.clean:
        cert = closed_form_certificate(lp, solution, tol)
        s_dual = count_active_dual(lp, cert, tol)
        if s_dual != s_star:
            raise CountMismatch(
                f"trial {trial_index}: primal count {s_star} != dual count {s_dual} on a clean solve"
            )

    arrival_rng = rng_streams.stream(config.seed, trial_index, "arrivals")
    estimate = empirical_violation_probability(
        lp,
        solution,
        CargoArrivalSampler(config),
        config.n_arrivals,
        arrival_rng,
        tol,
        audit_fraction=audit_fraction,
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


def _pool_size() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_campaign(
    config: CargoConfig,
    table: EpsilonTable | None = None,
    tol: Tolerances = DEFAULT_TOLS,
    max_workers: int | None = None,
) -> tuple[list[TrialRecord], CampaignSummary]:
    """All trials of a campaign, in trial order regardless of scheduling.

    Worker count comes from ``max_workers`` or the SHARE_SENSE_THREADS
    environment variable (default 1). Results are deterministic functions of
    (config, seed) alone.
    """
    if table is None:
        table = epsilon_table(config.m, config.beta)
    workers = _pool_size() if max_workers is None else max(1, max_workers)

    indices = range(config.trials)
    if workers == 1 or config.trials <= 1:
        records = [run_trial(config, i, table, tol) for i in indices]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda i: run_trial(config, i, table, tol), indices))
    records.sort(key=lambda r: r.trial_index)

    clean = [r for r in records if r.clean]
    summary = CampaignSummary(
        trials=len(records),
        clean_trials=len(clean),
        covered=sum(1 for r in clean if r.covered),
        discarded=len(records) - len(clean),
        tie_total=sum(r.tie_count for r in records),
    )
    return records, summary
