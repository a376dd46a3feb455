import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

from share_sense import (
    AgentProfile,
    AuditMismatch,
    CargoArrivalSampler,
    CargoConfig,
    CountMismatch,
    TruncatedGaussianDemand,
    UniformDemand,
    assemble,
    build_problem,
    run_campaign,
    run_trial,
    solve_primal,
)
from share_sense import arrivals, cargo
from share_sense.duality import closed_form_certificate
from share_sense.lp_core import ACT_TOL, RC_TOL
from share_sense.rng import stream
from share_sense.serialize import load_cargo_config
from share_sense.sensitivity import count_active_dual, count_active_primal, epsilon_table


def small_config(**overrides):
    base = dict(
        m=8,
        W=600.0,
        V=0.35,
        demand=UniformDemand(40.0, 160.0),
        trials=4,
        arrivals=60,
        beta=1e-4,
        seed=123,
    )
    base.update(overrides)
    return CargoConfig(**base)


class TestSampling:
    # both draws: the newcomer batch and the agents of a batch of m requests
    def test_point_mass_price(self):
        config = small_config(p_min=30.0, p_max=30.0)
        cs, _, _ = CargoArrivalSampler(config).sample_batch(5, stream(config.seed, 0, "arrivals"))
        assert np.all(cs == -30.0)
        for ag in build_problem(config, stream(config.seed, 0, "agents")).agents:
            assert ag.c[0] == -30.0

    def test_usage_column_is_one_over_density(self):
        config = small_config(rho_min=900.0, rho_max=900.0)
        _, _, A = CargoArrivalSampler(config).sample_batch(1, stream(0, 0, "arrivals"))
        ag = build_problem(config, stream(0, 0, "agents")).agents[0]
        for col in (A[:, 0], ag.A[:, 0]):
            assert col[0] == 1.0
            assert col[1] == pytest.approx(1.0 / 900.0)

    def test_uniform_demand_mean(self):
        demand = UniformDemand(100.0, 300.0)
        draws = demand.sample(np.random.default_rng(1), 100_000)
        assert abs(draws.mean() - 200.0) / 200.0 < 0.01

    def test_truncated_gaussian_is_positive(self):
        demand = TruncatedGaussianDemand(mu=10.0, sigma2=3096.0)
        draws = demand.sample(np.random.default_rng(2), 50_000)
        assert np.all(draws > 0.0)
        # heavy truncation pushes the mean above the raw center
        assert draws.mean() > 10.0

    def test_demand_validation(self):
        with pytest.raises(ValueError):
            UniformDemand(5.0, 5.0)
        with pytest.raises(ValueError):
            TruncatedGaussianDemand(mu=1.0, sigma2=0.0)
        with pytest.raises(ValueError, match="d_max must be of type float, got '5'"):
            UniformDemand(1.0, "5")
        with pytest.raises(ValueError, match="mu must be of type float, got True"):
            TruncatedGaussianDemand(mu=True, sigma2=1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="W and V"):
            small_config(W=0.0)
        with pytest.raises(ValueError, match="beta"):
            small_config(beta=1.5)

    def test_default_arrivals_is_fifty_per_agent(self):
        config = small_config(arrivals=None)
        assert config.n_arrivals == 50 * config.m


class TestBuildProblem:
    def test_two_inequality_rows(self):
        config = small_config()
        prob = build_problem(config, stream(config.seed, 0, "agents"))
        assert prob.p == 2 and prob.n0 == 2
        assert prob.m == config.m
        np.testing.assert_allclose(prob.b, [config.W, config.V])

    def test_identical_seed_identical_problem(self):
        config = small_config()
        a = build_problem(config, stream(config.seed, 1, "agents"))
        b = build_problem(config, stream(config.seed, 1, "agents"))
        for ag_a, ag_b in zip(a.agents, b.agents):
            np.testing.assert_array_equal(ag_a.c, ag_b.c)
            np.testing.assert_array_equal(ag_a.d, ag_b.d)
            np.testing.assert_array_equal(ag_a.A, ag_b.A)

    @pytest.mark.parametrize(
        "name",
        ["cargo_m100_uniform", "cargo_m200_gaussian", "cargo_m100_two_row", "cargo_m1000_uniform"],
    )
    def test_stacked_build_matches_per_profile_reference(self, name):
        """The stacked build assembles to the bits of one checked profile per
        request, drawn from the same stream in the same order (prices,
        densities, demands) and stacked block by block after the slacks."""
        config = load_cargo_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
        for trial in range(20):
            lp = assemble(build_problem(config, stream(config.seed, trial, "agents")))
            rng = stream(config.seed, trial, "agents")
            prices = rng.uniform(config.p_min, config.p_max, size=config.m)
            rhos = rng.uniform(config.rho_min, config.rho_max, size=config.m)
            demands = config.demand.sample(rng, config.m)
            profiles = [
                AgentProfile(n=1, c=[-prices[i]], d=[demands[i]], A=[[1.0], [1.0 / rhos[i]]])
                for i in range(config.m)
            ]
            slack_c, slack_d = np.zeros(2), np.full(2, np.inf)
            np.testing.assert_array_equal(lp.A, np.hstack([np.eye(2)] + [ag.A for ag in profiles]))
            np.testing.assert_array_equal(lp.b, [config.W, config.V])
            np.testing.assert_array_equal(lp.c, np.concatenate([slack_c, *(ag.c for ag in profiles)]))
            np.testing.assert_array_equal(lp.d, np.concatenate([slack_d, *(ag.d for ag in profiles)]))
            assert lp.n0 == 2
            assert lp.starts.tolist() == [2 + i for i in range(config.m)]


class TestRegimes:
    def test_slack_capacity_saturates_count_and_probability(self):
        # capacities dwarf total demand: everyone ships, any arrival helps
        config = small_config(W=1e9, V=1e6, trials=1)
        table = epsilon_table(config.m, config.beta)
        record = run_trial(config, 0, table)
        assert record.s_star == config.m
        assert record.p_hat == 1.0
        assert record.eps_high == 1.0

    def test_tight_capacity_needs_few_agents(self):
        config = small_config(W=50.0, V=0.05, demand=UniformDemand(400.0, 900.0), trials=1)
        table = epsilon_table(config.m, config.beta)
        record = run_trial(config, 0, table)
        assert record.s_star <= 2

    def test_median_count_drops_when_demand_scales_up(self):
        table = epsilon_table(8, 1e-4)
        lo = small_config(demand=UniformDemand(40.0, 160.0), trials=6)
        hi = small_config(demand=UniformDemand(400.0, 1600.0), trials=6)
        s_lo = [run_trial(lo, t, table).s_star for t in range(6)]
        s_hi = [run_trial(hi, t, table).s_star for t in range(6)]
        assert np.median(s_hi) < np.median(s_lo)


class TestRunTrial:
    def test_bit_identical_repeat(self):
        config = small_config()
        table = epsilon_table(config.m, config.beta)
        first = run_trial(config, 2, table)
        second = run_trial(config, 2, table)
        assert first == second

    def test_counts_match_solution(self):
        config = small_config()
        table = epsilon_table(config.m, config.beta)
        record = run_trial(config, 0, table)
        prob = build_problem(config, stream(config.seed, 0, "agents"))
        sol = solve_primal(assemble(prob))
        assert record.s_star == count_active_primal(sol)
        assert record.degenerate == sol.degenerate

    def test_rejects_mismatched_table(self):
        config = small_config()
        with pytest.raises(ValueError, match="m="):
            run_trial(config, 0, epsilon_table(5, 1e-4))

    def test_audit_mismatch_is_typed(self, monkeypatch):
        config = small_config(arrivals=400)
        table = epsilon_table(config.m, config.beta)
        real = arrivals._resolve_says_changed
        monkeypatch.setattr(arrivals, "_resolve_says_changed", lambda *a: ~real(*a))
        with pytest.raises(AuditMismatch, match="audit"):
            run_trial(config, 0, table)

    def test_flagged_trial_is_discarded_not_audited(self, monkeypatch):
        # on a flagged base the certificate may disagree with every re-solve;
        # such a trial must come back flagged instead of aborting the campaign
        config = small_config(arrivals=400)
        table = epsilon_table(config.m, config.beta)
        unpatched = run_trial(config, 0, table)
        real_solve = cargo.solve_primal
        monkeypatch.setattr(
            cargo, "solve_primal", lambda *a: dataclasses.replace(real_solve(*a), degenerate=True)
        )
        real = arrivals._resolve_says_changed
        monkeypatch.setattr(arrivals, "_resolve_says_changed", lambda *a: ~real(*a))
        record = run_trial(config, 0, table)
        assert record.degenerate and not record.clean
        assert (record.s_star, record.p_hat) == (unpatched.s_star, unpatched.p_hat)

    def test_count_mismatch_is_typed(self, monkeypatch):
        config = small_config()
        table = epsilon_table(config.m, config.beta)
        clean = next(
            i for i in range(20)
            if solve_primal(assemble(build_problem(config, stream(config.seed, i, "agents")))).clean
        )
        monkeypatch.setattr(cargo, "count_active_dual", lambda *a: -1)
        with pytest.raises(CountMismatch, match="dual count -1"):
            run_trial(config, clean, table)

    def test_counts_agree_beside_a_small_reduced_cost(self):
        # agent 95 sits at lower with reduced cost 6.8e-8: above RC_TOL, so
        # the solve is clean, but within ACT_TOL, where the dual count once
        # called it tight and the trial raised CountMismatch
        configs = Path(__file__).resolve().parents[1] / "configs"
        config = dataclasses.replace(
            load_cargo_config(configs / "cargo_m100_uniform.json"), trials=1, seed=65_000_924
        )
        lp = assemble(build_problem(config, stream(config.seed, 0, "agents")))
        sol = solve_primal(lp)
        cert = closed_form_certificate(lp, sol)
        j = lp.starts[95]
        rc = lp.c[j] + sol.lam @ lp.A[:, j]
        assert sol.clean and sol.status[j] == 0 and RC_TOL < rc <= ACT_TOL
        assert count_active_dual(lp, cert) == count_active_primal(sol) == 81
        run_trial(config, 0, epsilon_table(config.m, config.beta))

    def test_audits_are_one_batch_after_the_arrivals_are_freed(self, monkeypatch):
        # an m=100 trial re-solves its audits in one lock-step batch, which
        # starts once the 5000-draw arrival stack is gone
        config = load_cargo_config(
            Path(__file__).resolve().parents[1] / "configs" / "cargo_m100_uniform.json"
        )
        lp = assemble(build_problem(config, stream(config.seed, 0, "agents")))
        sol = solve_primal(lp)
        assert sol.clean
        arrivals_rng = stream(config.seed, 0, "arrivals")
        estimate = arrivals.empirical_violation_probability(
            lp,
            sol,
            CargoArrivalSampler(config).sample_batch(config.n_arrivals, arrivals_rng),
            audit_fraction=0.01,
        )
        assert estimate.audited > 0

        drawn, calls = [], []
        real_sample = CargoArrivalSampler.sample_batch
        real_solve = arrivals.solve_appended

        def sample(self, draws, rng):
            stack = real_sample(self, draws, rng)
            if draws == config.n_arrivals:
                drawn.extend(weakref.ref(v) for v in stack)
            return stack

        def solve(lp_, c, d, A, base):
            calls.append((c.shape[0], [ref() is None for ref in drawn]))
            return real_solve(lp_, c, d, A, base)

        monkeypatch.setattr(CargoArrivalSampler, "sample_batch", sample)
        monkeypatch.setattr(arrivals, "solve_appended", solve)
        run_trial(config, 0, epsilon_table(config.m, config.beta))
        assert len(drawn) == 3
        assert calls == [(estimate.audited, [True, True, True])]


class TestRunCampaign:
    def test_zero_trials_is_valid(self):
        config = small_config(trials=0)
        records, summary = run_campaign(config)
        assert records == []
        assert summary.trials == 0 and summary.covered == 0

    def test_summary_counts_are_consistent(self):
        config = small_config()
        records, summary = run_campaign(config)
        assert summary.trials == config.trials
        assert summary.clean_trials + summary.discarded == summary.trials
        assert summary.covered <= summary.clean_trials
        assert [r.trial_index for r in records] == list(range(config.trials))

    def test_band_coverage_small_campaign(self):
        # small-scale version of the coverage experiment
        config = small_config(trials=6, arrivals=400, beta=1e-6)
        records, summary = run_campaign(config)
        assert summary.discarded == 0
        assert summary.all_covered

    def test_record_serializes_to_plain_types(self):
        config = small_config(trials=1)
        records, _ = run_campaign(config)
        payload = dataclasses.asdict(records[0])
        assert set(payload) == {
            "trial_index",
            "s_star",
            "p_hat",
            "eps_low",
            "eps_high",
            "tie_count",
            "degenerate",
            "nonunique",
        }
