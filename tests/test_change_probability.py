"""The campaign's empirical change probability against its closed form, on
the two shipped configs and on the two-row config that prices both budget
rows.

``lp_oracles.cargo_change_probability`` integrates the newcomer's price and
density distributions exactly, given the base multipliers. It shares no code
with the sampler, the reduced-cost screen or the audit re-solves, so a biased
sampler, a wrong sign or scale on ``lam``, or a screen off by ``RC_TOL`` shows
as a z-score far from zero.
"""

import functools
from pathlib import Path

import numpy as np
import pytest

import lp_oracles as oracle
from share_sense import assemble, build_problem, run_campaign, solve_primal
from share_sense.lp_core import RC_TOL
from share_sense.rng import stream
from share_sense.serialize import load_cargo_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ["cargo_m100_uniform", "cargo_m200_gaussian"]
TWO_ROW = "cargo_m100_two_row"


@functools.lru_cache(maxsize=None)
def campaign(name):
    """(config, records, base multipliers per trial) of a config file."""
    config = load_cargo_config(CONFIGS / f"{name}.json")
    records, summary = run_campaign(config)
    lams = []
    for r in records:
        problem = build_problem(config, stream(config.seed, r.trial_index, "agents"))
        lams.append(solve_primal(assemble(problem)).lam)
    return config, records, summary, lams


@pytest.mark.parametrize(
    "lam",
    [(30.0, 0.0), (0.0, 6.0e4), (5.0, 1.2e5), (22.0, 2.4e4), (70.0, 0.0), (0.0, 0.0)],
    ids=["weight-only", "both-cuts", "one-cut", "two-row-trial", "never", "always"],
)
def test_closed_form_matches_numeric_integration(lam):
    config = load_cargo_config(CONFIGS / f"{TWO_ROW}.json")
    n = 1_000_000  # midpoint rule over the density range
    rho = config.rho_min + (np.arange(n) + 0.5) * (config.rho_max - config.rho_min) / n
    theta = lam[0] + RC_TOL + lam[1] / rho
    share = np.clip((config.p_max - theta) / (config.p_max - config.p_min), 0.0, 1.0)
    assert oracle.cargo_change_probability(lam, config) == pytest.approx(share.mean(), abs=1e-9)


def test_two_row_band_coverage():
    # criterion 1 on the config whose audits pivot under two priced rows
    config, records, summary, lams = campaign(TWO_ROW)
    both = sum(bool(lam[0] > 0.0 and lam[1] > 0.0) for lam in lams)
    print(
        f"\n[two-row coverage] {summary.clean_trials}/{summary.trials} clean, "
        f"{summary.clean_trials - summary.covered} outside their interval, "
        f"both rows priced in {both}"
    )
    assert summary.discarded == 0 and summary.clean_trials == config.trials
    assert summary.all_covered
    assert both >= config.trials // 2


@pytest.mark.parametrize("name", SHIPPED)
def test_shipped_configs_never_price_the_volume_row(name):
    # what the cargo docstring states about the shipped placeholders
    _, _, _, lams = campaign(name)
    assert all(lam[0] > 0.0 and lam[1] == 0.0 for lam in lams)


@pytest.mark.parametrize("name", SHIPPED + [TWO_ROW])
def test_change_probability_matches_closed_form(name):
    config, records, _, lams = campaign(name)
    n = config.n_arrivals
    z = []
    for r, lam in zip(records, lams):
        exact = oracle.cargo_change_probability(lam, config)
        assert 0.0 < exact < 1.0
        z.append((r.p_hat - exact) / np.sqrt(exact * (1.0 - exact) / n))
    z = np.array(z)
    print(
        f"\n[{name}] z-scores: mean {z.mean():.3f}, sd {z.std():.2f}, "
        f"max |z| {np.abs(z).max():.2f}"
    )
    assert np.abs(z).max() <= 4.5
    assert abs(z.mean()) <= 0.4


@pytest.mark.parametrize("name", SHIPPED + [TWO_ROW])
def test_exact_change_probability_lies_in_interval(name):
    config, records, _, lams = campaign(name)
    margins = [
        min(exact - r.eps_low, r.eps_high - exact)
        for r, lam in zip(records, lams)
        for exact in [oracle.cargo_change_probability(lam, config)]
    ]
    print(f"\n[{name}] smallest margin of the exact probability: {min(margins):.3f}")
    assert min(margins) >= 0.0
