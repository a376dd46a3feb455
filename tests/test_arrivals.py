import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

import lp_oracles as oracle
from share_sense import (
    AgentProfile,
    CargoArrivalSampler,
    CargoConfig,
    DegenerateBase,
    SharingProblem,
    UniformDemand,
    assemble,
    augment,
    build_problem,
    changes_solution,
    empirical_violation_probability,
    solve_augmented,
    solve_primal,
)
from share_sense import arrivals, lp_core
from share_sense.lp_core import RC_TOL
from share_sense.rng import stream
from share_sense.serialize import load_cargo_config
from test_lp_core import toy_problem


@pytest.fixture(scope="module")
def toy():
    lp = assemble(toy_problem())
    return lp, solve_primal(lp)


def profitable_newcomer():
    return AgentProfile(n=1, c=[-5.0], d=[1.0], A=[[1.0]])


def unprofitable_newcomer():
    return AgentProfile(n=1, c=[-0.5], d=[1.0], A=[[1.0]])


def replay_samplers(newcomers):
    """A per-profile sampler and a batch sampler serving ``newcomers``, which
    must have one column each, in order."""
    queue = iter(newcomers)

    class Batch:
        def sample_batch(self, draws, rng):
            return tuple(np.hstack([getattr(nc, k) for nc in newcomers]) for k in "cdA")

    return [lambda rng: next(queue), Batch()]


class TestChangesSolution:
    def test_profitable_arrival_changes(self, toy):
        lp, sol = toy
        verdict = changes_solution(lp, sol, profitable_newcomer())
        assert verdict.changes
        assert_allclose(verdict.reduced_costs, [-4.0], atol=1e-12)
        plus = solve_augmented(lp, profitable_newcomer())
        assert plus.objective - sol.objective == pytest.approx(-4.0, abs=1e-9)

    def test_unprofitable_arrival_keeps_solution(self, toy):
        lp, sol = toy
        verdict = changes_solution(lp, sol, unprofitable_newcomer())
        assert not verdict.changes
        assert_allclose(verdict.reduced_costs, [0.5], atol=1e-12)
        assert not verdict.tie

    def test_clone_of_interior_agent_is_a_tie(self, toy):
        lp, sol = toy
        clone = AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]])
        verdict = changes_solution(lp, sol, clone)
        assert not verdict.changes
        assert verdict.tie

    def test_flagged_base_refused(self):
        dup = AgentProfile(n=1, c=[-2.0], d=[1.0], A=[[1.0]])
        prob = SharingProblem(p=1, n0=1, b=[1.5], agents=(dup, dup))
        lp = assemble(prob)
        sol = solve_primal(lp)
        assert sol.nonunique
        with pytest.raises(DegenerateBase):
            changes_solution(lp, sol, profitable_newcomer())
        verdict = changes_solution(lp, sol, profitable_newcomer(), allow_flagged=True)
        assert verdict.changes

    def test_underflowing_weight_changes_on_every_path(self):
        # the reduced cost -1e-8 is a change even though gain * d underflows
        # to 0; one newcomer and both sampler paths say so alike
        one = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0]])
        lp = assemble(SharingProblem(p=1, n0=1, b=[2.0], agents=(one,)))
        sol = solve_primal(lp)
        tiny = AgentProfile(n=1, c=[-1e-8], d=[1e-320], A=[[1.0]])
        assert changes_solution(lp, sol, tiny).changes
        for sampler in replay_samplers([tiny] * 3):
            est = empirical_violation_probability(lp, sol, sampler, 3, np.random.default_rng(0))
            assert (est.changes, est.ties) == (3, 0)

    def test_dimension_mismatch_rejected(self, toy):
        lp, sol = toy
        wide = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [1.0]])
        with pytest.raises(ValueError, match="rows"):
            changes_solution(lp, sol, wide)
        for sampler in replay_samplers([wide, wide]):
            with pytest.raises(ValueError, match="rows"):
                empirical_violation_probability(lp, sol, sampler, 2, np.random.default_rng(0))


    def test_screens_solve_no_basis(self, monkeypatch):
        # the verdicts read the solution's lam; no screen factors or solves
        rng = np.random.default_rng(5)
        lp = assemble(oracle.random_sharing_problem(rng, n0=0))
        sol = solve_primal(lp)
        newcomers = [oracle.random_agent(rng, lp.p, allow_inf=False) for _ in range(6)]
        singles = [
            AgentProfile(n=1, c=nc.c[:1], d=nc.d[:1], A=nc.A[:, :1]) for nc in newcomers
        ]
        calls = []

        def spy(real):
            def counting(*args, **kwargs):
                calls.append(real)
                return real(*args, **kwargs)

            return counting

        monkeypatch.setattr(lp_core, "_invert_basis", spy(lp_core._invert_basis))
        monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
        for nc in newcomers:
            changes_solution(lp, sol, nc, allow_flagged=True)
        sampler = lambda rng: newcomers[int(rng.integers(len(newcomers)))]
        for s in [sampler] + replay_samplers(singles):
            empirical_violation_probability(
                lp, sol, s, len(singles), np.random.default_rng(0), allow_flagged=True
            )
        assert calls == []
        # the spies are live: a warm re-solve factors its start basis
        solve_augmented(lp, newcomers[0], base=sol)
        assert calls


class TestSolveAugmented:
    def test_zero_usage_newcomer_changes_nothing(self, toy):
        lp, sol = toy
        inert = AgentProfile(n=1, c=[2.0], d=[1.0], A=[[0.0]])
        plus = solve_augmented(lp, inert)
        assert plus.objective == pytest.approx(sol.objective, abs=1e-9)
        assert plus.x[-1] == pytest.approx(0.0, abs=1e-12)

    def test_profitable_newcomer_reshuffles(self, toy):
        lp, sol = toy
        plus = solve_augmented(lp, profitable_newcomer())
        assert plus.objective == pytest.approx(-11.0, abs=1e-9)
        # newcomer ships its full unit, the cheap agent is squeezed out
        assert_allclose(plus.x, [0.0, 2.0, 0.0, 1.0], atol=1e-9)

    def test_augment_appends_after_existing_agents(self, toy):
        lp, _ = toy
        plus = augment(lp, profitable_newcomer())
        assert plus.ell == lp.ell + 1
        assert plus.agent_spans[-1] == (lp.ell, lp.ell + 1)

    def test_objective_never_worse(self, toy):
        lp, sol = toy
        rng = np.random.default_rng(11)
        for _ in range(40):
            newcomer = oracle.random_agent(rng, lp.p)
            plus = solve_augmented(lp, newcomer)
            assert plus.objective <= sol.objective + 1e-9


def warm_test_newcomer(rng, lp, sol, kind):
    """``tie`` clones a basic column (zero reduced cost); ``wide`` has two
    columns, the second without an upper limit."""
    if kind == "tie":
        j = sol.partition.basic[int(rng.integers(lp.p))]
        return AgentProfile(n=1, c=lp.c[j : j + 1], d=[rng.uniform(0.3, 3.0)], A=lp.A[:, j : j + 1])
    if kind == "wide":
        return AgentProfile(
            n=2,
            c=rng.uniform(-4.0, 3.0, 2),
            d=[rng.uniform(0.3, 3.0), np.inf],
            A=rng.uniform(0.05, 1.5, (lp.p, 2)),
        )
    return oracle.random_agent(rng, lp.p)


class TestWarmResolve:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "duplicate", "vertex"]),
        kind=st.sampled_from(["random", "tie", "wide"]),
    )
    def test_warm_matches_cold(self, seed, shape, kind):
        rng = np.random.default_rng(seed)
        lp, sol = oracle.flagged_or_clean_instance(rng, shape)
        newcomer = warm_test_newcomer(rng, lp, sol, kind)
        verdict = changes_solution(lp, sol, newcomer, allow_flagged=True)
        cold = solve_augmented(lp, newcomer)
        warm = solve_augmented(lp, newcomer, base=sol)
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))
        assert warm.objective <= sol.objective + 1e-9 * (1.0 + abs(sol.objective))
        # a tied newcomer may enter one optimal vertex and not another, so
        # only the untied verdicts (the ones the audit re-solves) must match
        if not verdict.tie:
            says = arrivals._resolve_says_changed
            assert says(sol, warm) == says(sol, cold)
            # on a degenerate base a negative reduced cost can buy a zero step
            if sol.clean:
                assert says(sol, warm) == verdict.changes

    def test_generators_reach_flagged_bases_and_ties(self):
        rng = np.random.default_rng(3)
        flagged = {"duplicate": 0, "vertex": 0}
        for shape in flagged:
            for _ in range(30):
                _, sol = oracle.flagged_or_clean_instance(rng, shape)
                flagged[shape] += not sol.clean
        assert min(flagged.values()) >= 10, flagged
        lp, sol = oracle.flagged_or_clean_instance(rng, "random")
        verdict = changes_solution(
            lp, sol, warm_test_newcomer(rng, lp, sol, "tie"), allow_flagged=True
        )
        assert verdict.tie

    def test_base_optimum_is_the_start(self, toy):
        lp, sol = toy
        inert = AgentProfile(n=1, c=[2.0], d=[1.0], A=[[1.0]])
        plus = solve_augmented(lp, inert, base=sol)
        assert np.array_equal(plus.x[:-1], sol.x)
        assert plus.partition.basic == sol.partition.basic


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    p=st.integers(1, 3),
    draws=st.integers(1, 40),
)
def test_multiplier_form_is_the_negated_reduced_cost(data, p, draws):
    """The multiplier form max(0, -c - lam^T A) is max(0, -rc) to the last
    bit, so it cannot classify an arrival differently from rc < -RC_TOL.
    That is why the arrival screen evaluates the reduced cost alone."""
    finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    lam = data.draw(hnp.arrays(float, p, elements=finite))
    cs = data.draw(hnp.arrays(float, draws, elements=finite))
    As = data.draw(hnp.arrays(float, (p, draws), elements=finite))
    rc = cs + lam @ As
    gain = np.maximum(0.0, -cs - lam @ As)
    assert np.array_equal(gain, np.maximum(0.0, -rc))
    gain[gain <= RC_TOL] = 0.0
    assert np.array_equal(gain > 0.0, rc < -RC_TOL)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from(["random", "duplicate", "price_tie", "unlimited", "vertex"]),
    kinds=st.lists(st.sampled_from(["random", "tie", "wide"]), min_size=1, max_size=12),
)
# here a BLAS product over the stack rounds the third column unlike one over it alone
@example(seed=119, shape="random", kinds=["random", "random", "random"])
def test_stacked_screen_matches_one_at_a_time(seed, shape, kinds):
    """Classifying stacked newcomers in one pass gives the same reduced-cost
    bits and flags as classifying each newcomer alone."""
    rng = np.random.default_rng(seed)
    lp, sol = oracle.flagged_or_clean_instance(rng, shape)
    newcomers = [warm_test_newcomer(rng, lp, sol, kind) for kind in kinds]
    alone = [changes_solution(lp, sol, nc, allow_flagged=True) for nc in newcomers]
    starts = np.cumsum([0] + [nc.n for nc in newcomers[:-1]])
    rc, changed, tie = arrivals._classify(
        sol.lam,
        np.concatenate([nc.c for nc in newcomers]),
        np.hstack([nc.A for nc in newcomers]),
        starts,
    )
    assert rc.tobytes() == np.concatenate([v.reduced_costs for v in alone]).tobytes()
    assert changed.tolist() == [v.changes for v in alone]
    assert tie.tolist() == [v.tie for v in alone]
    queue = iter(newcomers)
    est = empirical_violation_probability(
        lp, sol, lambda rng: next(queue), len(newcomers), rng, allow_flagged=True
    )
    assert (est.changes, est.ties) == (sum(changed), sum(tie))


def test_single_screen_matches_stacked_on_cargo_base():
    """The benchmark's m=50 cargo instance at seed 1 leaves the volume row
    unpriced, with multiplier -0.0; screened one at a time, 1000 newcomers
    get the same reduced-cost bits and flags as in the stacked pass."""
    configs = Path(__file__).resolve().parents[1] / "configs"
    base = load_cargo_config(configs / "cargo_m100_uniform.json")
    config = dataclasses.replace(base, m=50, W=10000.0, V=15.0)
    lp = assemble(build_problem(config, stream(1, 0, "agents")))
    sol = solve_primal(lp)
    assert sol.clean
    assert np.any((sol.lam == 0.0) & np.signbit(sol.lam))
    cs, ds, As = CargoArrivalSampler(config).sample_batch(1000, stream(1, 0, "arrivals"))
    newcomers = [
        AgentProfile(n=1, c=cs[i : i + 1], d=ds[i : i + 1], A=As[:, i : i + 1])
        for i in range(1000)
    ]
    alone = [changes_solution(lp, sol, nc) for nc in newcomers]
    rc, changed, tie = arrivals._classify(sol.lam, cs, As, range(1000))
    assert rc.tobytes() == np.concatenate([v.reduced_costs for v in alone]).tobytes()
    assert changed.tolist() == [v.changes for v in alone]
    assert tie.tolist() == [v.tie for v in alone]


class TestCertificateMatchesResolve:
    @pytest.mark.parametrize("seed", range(5))
    def test_agreement_campaign(self, seed):
        rng = np.random.default_rng(5000 + seed)
        pairs = 0
        while pairs < 60:
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            if not sol.clean:
                continue
            for _ in range(10):
                newcomer = oracle.random_agent(rng, lp.p)
                verdict = changes_solution(lp, sol, newcomer)
                if verdict.tie:
                    continue
                plus = solve_augmented(lp, newcomer)
                moved = np.any(
                    np.abs(plus.x[plus.agent_index_map[-1]]) > 1e-7
                ) or abs(plus.objective - sol.objective) > 1e-8 * (
                    1.0 + abs(sol.objective)
                )
                assert moved == verdict.changes
                pairs += 1


class TestEmpiricalViolationProbability:
    def test_constant_changer_gives_one(self, toy):
        lp, sol = toy
        est = empirical_violation_probability(
            lp, sol, lambda rng: profitable_newcomer(), 25, np.random.default_rng(0)
        )
        assert est.fraction == 1.0
        assert est.changes == 25

    def test_constant_keeper_gives_zero(self, toy):
        lp, sol = toy
        est = empirical_violation_probability(
            lp, sol, lambda rng: unprofitable_newcomer(), 25, np.random.default_rng(0)
        )
        assert est.fraction == 0.0

    def test_counts_are_a_plain_fraction(self, toy):
        lp, sol = toy
        toggle = [0]

        def sampler(rng):
            toggle[0] += 1
            return profitable_newcomer() if toggle[0] % 100 < 37 else unprofitable_newcomer()

        est = empirical_violation_probability(
            lp, sol, sampler, 100, np.random.default_rng(0)
        )
        assert est.fraction == pytest.approx(0.37)
        assert float(est) == est.fraction

    @pytest.mark.parametrize("audit_fraction", [-0.1, 1.5, 3.0])
    def test_audit_fraction_outside_unit_interval_rejected(self, toy, audit_fraction):
        # no share of the draws: the audit step round(1 / audit_fraction) would
        # audit every draw at 1.5 and none at 3.0 or -0.1
        lp, sol = toy
        with pytest.raises(ValueError, match="audit_fraction"):
            empirical_violation_probability(
                lp, sol, lambda rng: profitable_newcomer(), 100, np.random.default_rng(0),
                audit_fraction=audit_fraction,
            )

    def test_full_audit_resolves_every_untied_draw(self, toy):
        lp, sol = toy
        clone = AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]])  # a tie
        kinds = [profitable_newcomer(), unprofitable_newcomer(), clone]
        queue = iter(kinds[i % 3] for i in range(100))
        est = empirical_violation_probability(
            lp, sol, lambda rng: next(queue), 100, np.random.default_rng(0),
            audit_fraction=1.0,
        )
        assert (est.ties, est.audited, est.audit_mismatches) == (33, 67, 0)

    @pytest.mark.parametrize(
        "audit_fraction, every",
        [(0.3, None), (0.4, None), (0.6, None), (0.07, None),
         (0.01, 100), (0.05, 20), (0.5, 2), (1.0, 1)],
    )
    def test_audit_subsample_takes_the_asked_share(self, toy, monkeypatch, audit_fraction, every):
        # every draw changes the optimum, so no audited draw is skipped as a tie
        lp, sol = toy
        draws = 300
        profiles = [profitable_newcomer() for _ in range(draws)]
        queue = iter(profiles)
        picked = []

        def record(lp_, sol_, newcomer, changes):
            picked.append(next(i for i, p in enumerate(profiles) if p is newcomer))
            return False

        monkeypatch.setattr(arrivals, "_audit_disagrees", record)
        est = empirical_violation_probability(
            lp, sol, lambda rng: next(queue), draws, np.random.default_rng(0),
            audit_fraction=audit_fraction,
        )
        assert est.audited == len(picked)
        assert abs(len(picked) - draws * audit_fraction) <= 1.0
        if every:  # a share of 1/n audits every n-th draw, as the campaign's 0.01 does
            assert picked == list(range(0, draws, every))

    @pytest.mark.parametrize("audit_fraction", [0.0, 1 / 49, 1 / 3, 0.07, 0.3, 1e-3, 0.999, 1.0])
    @pytest.mark.parametrize("draws", [1, 7, 5000])
    def test_audit_draws_are_where_the_floor_steps_up(self, audit_fraction, draws):
        # the full-length reference: one floor per draw
        level = np.floor(np.arange(-1, draws) * audit_fraction)
        want = np.flatnonzero(np.diff(level))
        assert arrivals._audit_draws(draws, audit_fraction).tolist() == want.tolist()

    def test_batch_path_matches_loop_path_on_same_draws(self):
        config = CargoConfig(
            m=4, W=6.0, V=0.004, demand=UniformDemand(1.0, 3.0), p_min=1.0, p_max=4.0,
            rho_min=900.0, rho_max=7000.0, seed=3,
        )
        lp = assemble(build_problem(config, stream(3, 0, "agents")))
        sol = solve_primal(lp)
        cs, ds, As = CargoArrivalSampler(config).sample_batch(400, stream(3, 0, "arrivals"))
        newcomers = [
            AgentProfile(n=1, c=cs[i : i + 1], d=ds[i : i + 1], A=As[:, i : i + 1])
            for i in range(400)
        ]
        est_loop, est_batch = (
            empirical_violation_probability(
                lp, sol, sampler, 400, np.random.default_rng(0), audit_fraction=0.05
            )
            for sampler in replay_samplers(newcomers)
        )
        assert est_batch.changes == est_loop.changes
        assert est_batch.ties == est_loop.ties
        assert est_batch == est_loop
        assert est_batch.audited > 0 and est_batch.audit_mismatches == 0

    def test_audit_resolves_warm_from_the_base(self, toy, monkeypatch):
        lp, sol = toy
        starts = []
        real = arrivals.solve_primal

        def spy(lp_, start=None):
            starts.append(start)
            return real(lp_, start=start)

        monkeypatch.setattr(arrivals, "solve_primal", spy)
        empirical_violation_probability(
            lp, sol, lambda rng: profitable_newcomer(), 10, np.random.default_rng(0),
            audit_fraction=0.5,
        )
        assert len(starts) == 5
        assert all(s.basic == sol.partition.basic for s in starts)
        assert all(s.at_lower == sol.partition.at_lower + (lp.ell,) for s in starts)

    def test_audit_counts_a_disagreeing_resolve(self, toy, monkeypatch):
        lp, sol = toy
        real = arrivals._resolve_says_changed
        monkeypatch.setattr(arrivals, "_resolve_says_changed", lambda *a: not real(*a))
        est = empirical_violation_probability(
            lp, sol, lambda rng: profitable_newcomer(), 10, np.random.default_rng(0),
            audit_fraction=0.5,
        )
        assert est.audited == 5
        assert est.audit_mismatches == 5

    def test_audit_subsample_runs_clean(self, toy):
        lp, sol = toy
        rng_main = np.random.default_rng(42)

        def sampler(rng):
            return oracle.random_agent(rng_main, lp.p)

        est = empirical_violation_probability(
            lp, sol, sampler, 200, np.random.default_rng(0), audit_fraction=0.05
        )
        assert est.audited > 0
        assert est.audit_mismatches == 0
