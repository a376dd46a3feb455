"""The campaign's empirical change probability against its closed form, on
the two shipped configs and on the two-row config that prices both budget
rows; and the closed form against the interval at m = 1000.

``lp_oracles.cargo_change_probability`` integrates the newcomer's price and
density distributions exactly, given the base multipliers. It shares no code
with the sampler, the reduced-cost screen or the audit re-solves, so a biased
sampler, a wrong sign or scale on ``lam``, or a screen off by ``RC_TOL`` shows
as a z-score far from zero.
"""

import dataclasses
import functools
from pathlib import Path

import numpy as np
import pytest

import lp_oracles as oracle
from share_sense import (
    assemble,
    build_problem,
    epsilon_table,
    run_campaign,
    sensitivity_interval,
    solve_primal,
)
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


def test_interval_misses_at_most_beta_share_at_large_beta():
    # the confidence statement itself: at beta = 0.1 the exact probability may
    # leave [eps_low(s*), eps_high(s*)] in at most a share beta of the batches
    base = load_cargo_config(CONFIGS / "cargo_m100_uniform.json")
    config = dataclasses.replace(base, m=20, beta=0.1, W=4000.0, V=6.0, seed=123)
    table = epsilon_table(config.m, config.beta)
    n = 1000
    below = above = flagged = 0
    for i in range(n):
        sol = solve_primal(assemble(build_problem(config, stream(config.seed, i, "agents"))))
        if not sol.clean:
            flagged += 1
            continue
        lo, hi, _ = sensitivity_interval(sol, table)
        exact = oracle.cargo_change_probability(sol.lam, config)
        below += exact < lo
        above += exact > hi
    print(f"\n[m=20, beta=0.1] {below} below, {above} above, {flagged} flagged of {n}")
    # flagged batches are outside the statement; the count means little if many are
    assert flagged <= n // 100
    assert below + above <= config.beta * (n - flagged)


@pytest.mark.parametrize("V, volume_priced", [(300.0, 0), (60.0, 30)])
def test_exact_change_probability_lies_in_interval_at_m1000(V, volume_priced):
    # at m = 1000 the interval is about 0.16 wide and the smallest margin about
    # 0.05, so an error of that size in the table, s* or lam leaves it; no
    # arrivals are drawn, so there is no sampling noise
    base = load_cargo_config(CONFIGS / "cargo_m100_uniform.json")
    config = dataclasses.replace(base, m=1000, W=200000.0, V=V, trials=30)
    table = oracle.cached_table(config.m, config.beta)
    margins, priced = [], 0
    for i in range(config.trials):
        sol = solve_primal(assemble(build_problem(config, stream(config.seed, i, "agents"))))
        assert sol.clean
        lo, hi, _ = sensitivity_interval(sol, table)
        exact = oracle.cargo_change_probability(sol.lam, config)
        margins.append(min(exact - lo, hi - exact))
        priced += bool(sol.lam[1] > 0.0)
    print(f"\n[m=1000, V={V:g}] smallest margin {min(margins):.3f}, volume priced in {priced}")
    assert min(margins) >= 0.0
    assert priced == volume_priced
