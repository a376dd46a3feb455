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
    InfeasibleStart,
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
from share_sense import AssembledLP, BasisPartition, ShareSenseError, arrivals, lp_core
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
        # to 0; one newcomer and a stack, with explicit or implied starts, say so alike
        one = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0]])
        lp = assemble(SharingProblem(p=1, n0=1, b=[2.0], agents=(one,)))
        sol = solve_primal(lp)
        tiny = AgentProfile(n=1, c=[-1e-8], d=[1e-320], A=[[1.0]])
        assert changes_solution(lp, sol, tiny).changes
        c, d, A, starts = oracle.stack([tiny] * 3)
        for s in (starts, None):
            est = empirical_violation_probability(lp, sol, (c, d, A, s))
            assert (est.changes, est.ties) == (3, 0)

    def test_dimension_mismatch_rejected(self, toy):
        lp, sol = toy
        wide = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [1.0]])
        with pytest.raises(ValueError, match="rows"):
            changes_solution(lp, sol, wide)

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

        monkeypatch.setattr(lp_core, "_invert_stack", spy(lp_core._invert_stack))
        monkeypatch.setattr(np.linalg, "solve", spy(np.linalg.solve))
        for nc in newcomers:
            changes_solution(lp, sol, nc, allow_flagged=True)
        drawn = [newcomers[int(rng.integers(len(newcomers)))] for _ in singles]
        c, d, A, starts = oracle.stack(singles)
        for stack in [oracle.stack(drawn), (c, d, A, starts), (c, d, A, None)]:
            empirical_violation_probability(lp, sol, stack, allow_flagged=True)
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
        assert plus.starts.tolist() == lp.starts.tolist() + [lp.ell]
        assert plus.A.tobytes() == np.concatenate([lp.A, [[1.0]]], axis=1).tobytes()
        assert plus.c.tolist() == lp.c.tolist() + [-5.0]
        assert plus.d.tolist() == lp.d.tolist() + [1.0]

    def test_augment_checks_what_it_appends(self, toy):
        lp, _ = toy
        with pytest.raises(ValueError, match="2 rows, expected p=1"):
            augment(lp, AgentProfile(n=1, c=[1.0], d=[1.0], A=[[1.0], [1.0]]))
        # columns past the slacks that no agent owns: a newcomer cannot follow
        bare = AssembledLP(A=lp.A, b=lp.b, c=lp.c, d=lp.d, n0=lp.n0)
        with pytest.raises(ValueError, match="no agent starts"):
            augment(bare, profitable_newcomer())
        # with no columns past the slacks, the newcomer is the first agent
        slacks = AssembledLP(A=lp.A[:, :1], b=lp.b, c=lp.c[:1], d=lp.d[:1], n0=1)
        assert augment(slacks, profitable_newcomer()).starts.tolist() == [1]

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
    c, d, A, starts = oracle.stack(newcomers)
    est = empirical_violation_probability(lp, sol, (c, d, A, starts), allow_flagged=True)
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


def old_partition_tuples(sol):
    """The index tuples solve_primal built before it kept the basis arrays:
    the basis in row order, then each status's columns in ascending order."""
    status = sol.status.tolist()
    return (
        tuple(sol.basis.tolist()),
        tuple(j for j, s in enumerate(status) if s == lp_core._AT_LOWER),
        tuple(j for j, s in enumerate(status) if s == lp_core._AT_UPPER),
    )


def solve_bits(sol):
    part = sol.partition
    assert (part.basic, part.at_lower, part.at_upper) == old_partition_tuples(sol)
    return (
        sol.x.tobytes(), sol.objective.hex(), sol.lam.tobytes(),
        (part.basic, part.at_lower, part.at_upper), sol.degenerate, sol.nonunique,
    )


def padded_start(lp, sol, newcomer):
    """The base partition with the newcomer's columns at lower, as index sets."""
    part = sol.partition
    return BasisPartition(
        basic=part.basic,
        at_lower=part.at_lower + tuple(range(lp.ell, lp.ell + newcomer.n)),
        at_upper=part.at_upper,
    )


class TestAuditPath:
    """The audit re-solve restarts from the base solution's arrays. It must
    take the same pivots as a start from the padded partition and return
    the same bits, and leave the base solution's arrays as they were."""

    def assert_matches_partition_start(self, lp, sol, newcomer):
        basis, status = sol.basis.copy(), sol.status.copy()
        try:
            audit = solve_bits(solve_augmented(lp, newcomer, base=sol))
        except ShareSenseError as err:
            audit = type(err)
        try:
            start = padded_start(lp, sol, newcomer)
            reference = solve_bits(solve_primal(augment(lp, newcomer), start=start))
        except ShareSenseError as err:
            reference = type(err)
        assert audit == reference
        assert sol.basis.tobytes() == basis.tobytes()
        assert sol.status.tobytes() == status.tobytes()

    @pytest.mark.parametrize(
        "name", ["cargo_m100_uniform", "cargo_m200_gaussian", "cargo_m100_two_row"]
    )
    def test_cargo_bases_at_m100(self, name):
        configs = Path(__file__).resolve().parents[1] / "configs"
        config = dataclasses.replace(load_cargo_config(configs / f"{name}.json"), m=100)
        for trial in range(4):
            lp = assemble(build_problem(config, stream(config.seed, trial, "agents")))
            sol = solve_primal(lp)
            solve_bits(sol)
            c, d, A = CargoArrivalSampler(config).sample_batch(
                40, stream(config.seed, trial, "arrivals")
            )
            for i in range(40):
                newcomer = AgentProfile(n=1, c=c[i : i + 1], d=d[i : i + 1], A=A[:, i : i + 1])
                self.assert_matches_partition_start(lp, sol, newcomer)

    @pytest.mark.parametrize("shape", ["random", "duplicate", "vertex", "price_tie", "unlimited"])
    def test_flagged_or_clean_shapes(self, shape):
        rng = np.random.default_rng(7100)
        for _ in range(25):
            lp, sol = oracle.flagged_or_clean_instance(rng, shape)
            solve_bits(sol)
            for kind in ["random", "tie", "wide"]:
                newcomer = warm_test_newcomer(rng, lp, sol, kind)
                self.assert_matches_partition_start(lp, sol, newcomer)

    def test_audit_builds_no_tuples(self, monkeypatch):
        # the start and the result stay arrays; only a caller asks for tuples
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        monkeypatch.setattr(lp_core, "BasisPartition", None)
        plus = solve_augmented(lp, profitable_newcomer(), base=sol)
        assert_allclose(plus.x, [0.0, 2.0, 0.0, 1.0], atol=1e-9)


def stack_of(newcomers):
    """Newcomers of one width as the stack ``solve_augmented`` re-solves:
    arrays of shapes (K, n), (K, n) and (K, p, n)."""
    return tuple(np.stack([getattr(nc, name) for nc in newcomers]) for name in "cdA")


class TestStackedAudit:
    """A stack of newcomers re-solved in lock step gives each LP the bits of
    its one-newcomer warm re-solve: x, objective, lam, basis, status (dtype
    included), partition and flags."""

    def assert_matches_one_at_a_time(self, lp, sol, newcomers):
        stacked = solve_augmented(lp, stack_of(newcomers), base=sol)
        assert len(stacked) == len(newcomers)
        for nc, plus in zip(newcomers, stacked):
            alone = solve_augmented(lp, nc, base=sol)
            assert solve_bits(plus) == solve_bits(alone)
            assert plus.basis.tobytes() == alone.basis.tobytes()
            assert plus.status.tobytes() == alone.status.tobytes()
            assert plus.starts.tolist() == alone.starts.tolist() == augment(lp, nc).starts.tolist()

    @pytest.mark.parametrize(
        "name", ["cargo_m100_uniform", "cargo_m200_gaussian", "cargo_m100_two_row"]
    )
    def test_cargo_bases_at_m100(self, name):
        configs = Path(__file__).resolve().parents[1] / "configs"
        config = dataclasses.replace(load_cargo_config(configs / f"{name}.json"), m=100)
        for trial in range(4):
            lp = assemble(build_problem(config, stream(config.seed, trial, "agents")))
            sol = solve_primal(lp)
            c, d, A = CargoArrivalSampler(config).sample_batch(
                50, stream(config.seed, trial, "arrivals")
            )
            newcomers = [
                AgentProfile(n=1, c=c[i : i + 1], d=d[i : i + 1], A=A[:, i : i + 1])
                for i in range(50)
            ]
            self.assert_matches_one_at_a_time(lp, sol, newcomers)

    def test_vector_family(self):
        # p=3 rows update the inverse by rank 1 between refactorizations
        from test_vector_family import N, base_problem, draw_agents

        for trial in range(4):
            lp = assemble(base_problem(stream(0, trial, "agents")))
            sol = solve_primal(lp)
            c, d, A = draw_agents(stream(0, trial, "arrivals"), 40)
            newcomers = [
                AgentProfile(n=N, c=c[j : j + N], d=d[j : j + N], A=A[:, j : j + N])
                for j in range(0, N * 40, N)
            ]
            self.assert_matches_one_at_a_time(lp, sol, newcomers)

    def test_toy_lp(self, toy):
        lp, sol = toy
        rng = np.random.default_rng(5)
        newcomers = [profitable_newcomer(), unprofitable_newcomer()]
        newcomers += [oracle.random_agent(rng, 1, allow_inf=False) for _ in range(30)]
        for n in (1, 2):
            self.assert_matches_one_at_a_time(lp, sol, [nc for nc in newcomers if nc.n == n])

    @pytest.mark.parametrize("shape", ["random", "duplicate", "vertex", "price_tie", "unlimited"])
    def test_flagged_or_clean_shapes(self, shape):
        rng = np.random.default_rng(7200)
        for _ in range(25):
            lp, sol = oracle.flagged_or_clean_instance(rng, shape)
            for kind in ["random", "tie", "wide"]:
                newcomers = [warm_test_newcomer(rng, lp, sol, kind) for _ in range(8)]
                for n in {nc.n for nc in newcomers}:
                    self.assert_matches_one_at_a_time(
                        lp, sol, [nc for nc in newcomers if nc.n == n]
                    )

    def test_infeasible_start_names_its_lp(self, toy):
        # the stack's values are not checked again: a NaN usage makes that
        # LP's start values NaN, which no bound admits
        lp, sol = toy
        c, d, A = stack_of([profitable_newcomer()] * 4)
        A[2, 0, 0] = np.nan
        with pytest.raises(InfeasibleStart, match="LP 2 of the stack"):
            solve_augmented(lp, (c, d, A), base=sol)

    def test_stack_needs_the_base_rows_and_a_base(self, toy):
        lp, sol = toy
        wide = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [1.0]])
        with pytest.raises(ValueError, match="rows"):
            solve_augmented(lp, stack_of([wide] * 3), base=sol)
        with pytest.raises(ValueError, match="base"):
            solve_augmented(lp, stack_of([profitable_newcomer()] * 3))
        c, d, A = stack_of([profitable_newcomer()] * 3)
        with pytest.raises(ValueError, match="stack"):
            solve_augmented(lp, (c[:2], d, A), base=sol)


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
        stack = oracle.stack([profitable_newcomer()] * 25)
        est = empirical_violation_probability(lp, sol, stack)
        assert est.fraction == 1.0
        assert est.changes == 25

    def test_constant_keeper_gives_zero(self, toy):
        lp, sol = toy
        stack = oracle.stack([unprofitable_newcomer()] * 25)
        est = empirical_violation_probability(lp, sol, stack)
        assert est.fraction == 0.0

    def test_counts_are_a_plain_fraction(self, toy):
        lp, sol = toy
        profiles = [
            profitable_newcomer() if k % 100 < 37 else unprofitable_newcomer()
            for k in range(1, 101)
        ]
        est = empirical_violation_probability(lp, sol, oracle.stack(profiles))
        assert est.fraction == pytest.approx(0.37)
        assert float(est) == est.fraction

    @pytest.mark.parametrize("audit_fraction", [-0.1, 1.5, 3.0])
    def test_audit_fraction_outside_unit_interval_rejected(self, toy, audit_fraction):
        # no share of the draws: the audit step round(1 / audit_fraction) would
        # audit every draw at 1.5 and none at 3.0 or -0.1
        lp, sol = toy
        stack = oracle.stack([profitable_newcomer()] * 100)
        with pytest.raises(ValueError, match="audit_fraction"):
            empirical_violation_probability(lp, sol, stack, audit_fraction=audit_fraction)

    def test_full_audit_resolves_every_untied_draw(self, toy):
        lp, sol = toy
        clone = AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]])  # a tie
        kinds = [profitable_newcomer(), unprofitable_newcomer(), clone]
        est = empirical_violation_probability(
            lp, sol, oracle.stack([kinds[i % 3] for i in range(100)]), audit_fraction=1.0
        )
        assert (est.ties, est.audited, est.audit_mismatches) == (33, 67, 0)

    @pytest.mark.parametrize(
        "audit_fraction, every",
        [(0.3, None), (0.4, None), (0.6, None), (0.07, None),
         (0.01, 100), (0.05, 20), (0.5, 2), (1.0, 1)],
    )
    def test_audit_subsample_takes_the_asked_share(self, toy, monkeypatch, audit_fraction, every):
        # every draw changes the optimum, so no audited draw is skipped as a
        # tie; draw i costs -5 - i, which names it in the rebuilt profile
        lp, sol = toy
        draws = 300
        profiles = [AgentProfile(n=1, c=[-5.0 - i], d=[1.0], A=[[1.0]]) for i in range(draws)]
        picked = []
        real = arrivals.solve_augmented

        def record(lp_, stack, base=None):
            picked.extend(int(-5.0 - ci) for ci in stack[0][:, 0].tolist())
            return real(lp_, stack, base=base)

        monkeypatch.setattr(arrivals, "solve_augmented", record)
        est = empirical_violation_probability(
            lp, sol, oracle.stack(profiles), audit_fraction=audit_fraction
        )
        assert est.audited == len(picked)
        assert est.audit_mismatches == 0
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

    def test_cargo_arrays_match_their_stacked_profiles(self):
        # the campaign's arrays at one column per newcomer, against the same
        # draws as per-draw profiles stacked with explicit starts
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
        est_batch = empirical_violation_probability(lp, sol, (cs, ds, As), audit_fraction=0.05)
        c, d, A, starts = oracle.stack(newcomers)
        est_loop = empirical_violation_probability(
            lp, sol, (c, d, A, starts), audit_fraction=0.05
        )
        assert est_batch.changes == est_loop.changes
        assert est_batch.ties == est_loop.ties
        assert est_batch == est_loop
        assert est_batch.audited > 0 and est_batch.audit_mismatches == 0

    def test_audit_resolves_warm_from_the_base(self, toy, monkeypatch):
        lp, sol = toy
        calls = []
        real = arrivals.solve_appended

        def spy(lp_, c, d, A, base):
            solved = real(lp_, c, d, A, base)
            calls.append((lp_, base, [plus.x.size for plus in solved]))
            return solved

        monkeypatch.setattr(arrivals, "solve_appended", spy)
        empirical_violation_probability(
            lp, sol, oracle.stack([profitable_newcomer()] * 10), audit_fraction=0.5
        )
        # one stack of five one-column-wider LPs, each started from the base
        # solution itself
        assert [(lp_, base, ells) for lp_, base, ells in calls] == [(lp, sol, [lp.ell + 1] * 5)]

    def test_audit_counts_a_disagreeing_resolve(self, toy, monkeypatch):
        lp, sol = toy
        real = arrivals._resolve_says_changed
        monkeypatch.setattr(arrivals, "_resolve_says_changed", lambda *a: ~real(*a))
        est = empirical_violation_probability(
            lp, sol, oracle.stack([profitable_newcomer()] * 10), audit_fraction=0.5
        )
        assert est.audited == 5
        assert est.audit_mismatches == 5

    def test_audit_subsample_runs_clean(self, toy):
        lp, sol = toy
        rng = np.random.default_rng(42)
        newcomers = [oracle.random_agent(rng, lp.p) for _ in range(200)]
        stack = oracle.stack(newcomers)
        est = empirical_violation_probability(lp, sol, stack, audit_fraction=0.05)
        assert est.audited > 0
        assert est.audit_mismatches == 0


class TestMisSizedStacks:
    """A stack whose parts disagree in size is refused: it is neither
    broadcast over the columns nor folded into the last newcomer."""

    def test_costs_and_limits_need_one_entry_per_column(self, toy):
        lp, sol = toy
        c, d, A, _ = oracle.stack([profitable_newcomer()] * 4)
        for stack in [(c[:1], d, A), (c, d[:3], A), (c, d, np.ones((1, 7)))]:
            with pytest.raises(ValueError, match="columns"):
                empirical_violation_probability(lp, sol, stack)

    @pytest.mark.parametrize(
        "starts",
        [[], [1, 2], [0, 2, 2], [0, 3, 1], [0, 2, 4], np.array([0, 1, 5])],
        ids=["empty", "late-first", "repeated", "descending", "at-end", "past-end"],
    )
    def test_starts_must_split_the_columns(self, toy, starts):
        lp, sol = toy
        c, d, A, _ = oracle.stack([profitable_newcomer()] * 4)
        with pytest.raises(ValueError, match="starts"):
            empirical_violation_probability(lp, sol, (c, d, A, starts))

    def test_rows_must_match_the_base(self, toy):
        lp, sol = toy
        wide = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [1.0]])
        c, d, A, starts = oracle.stack([wide, wide])
        for s in (starts, None):
            with pytest.raises(ValueError, match="rows"):
                empirical_violation_probability(lp, sol, (c, d, A, s))

    def test_empty_stack_has_no_draw(self, toy):
        lp, sol = toy
        with pytest.raises(ValueError, match="at least one draw"):
            empirical_violation_probability(lp, sol, (np.empty(0), np.empty(0), np.empty((1, 0))))


@pytest.mark.parametrize("audit_fraction", [0.0, 1.0])
class TestStackValues:
    """A stack is held to ``AgentProfile``'s value checks before any newcomer
    is screened, so a bad value raises at every audit fraction, not only when
    its draw happens to be re-solved; the error names the first bad newcomer."""

    def test_costs_must_be_finite(self, toy, audit_fraction):
        lp, sol = toy
        c, d = np.array([-5.0, -5.0, np.nan, -5.0]), np.array([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="newcomer 2: agent costs must be finite"):
            empirical_violation_probability(
                lp, sol, (c, d, np.ones((1, 4))), audit_fraction=audit_fraction
            )

    def test_usage_must_be_finite(self, toy, audit_fraction):
        lp, sol = toy
        A = np.array([[1.0, 1.0, 1.0, np.inf]])
        with pytest.raises(ValueError, match="newcomer 3: agent usage matrix must be finite"):
            empirical_violation_probability(
                lp, sol, (np.full(4, -5.0), np.ones(4), A), audit_fraction=audit_fraction
            )

    def test_limits_must_be_positive_or_plus_inf(self, toy, audit_fraction):
        lp, sol = toy
        c, A = np.full(4, -5.0), np.ones((1, 4))
        cases = [
            ([1.0, -1.0, 1.0, 1.0], None, "newcomer 1: every finite upper limit"),
            ([1.0, 1.0, np.nan, 1.0], None, "newcomer 2: upper limits must be > 0 or"),
            # two-column newcomers: column 3 is the second newcomer's
            ([np.inf, 1.0, 1.0, -np.inf], [0, 2], "newcomer 1: upper limits must be > 0 or"),
        ]
        for d, starts, match in cases:
            with pytest.raises(ValueError, match=match):
                empirical_violation_probability(
                    lp, sol, (c, np.array(d), A, starts), audit_fraction=audit_fraction
                )
