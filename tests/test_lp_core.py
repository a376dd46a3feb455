import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import lp_oracles as oracle
from share_sense import (
    AgentProfile,
    AssembledLP,
    BasisPartition,
    CargoConfig,
    FeasibilityCheckFailed,
    InfeasibleProblem,
    InfeasibleStart,
    PivotLimit,
    RankDeficient,
    SharingProblem,
    SingularBasis,
    UnboundedProblem,
    UniformDemand,
    assemble,
    audit_assumptions,
    augment,
    build_problem,
    check_basic_solution,
    count_active_primal,
    reduced_costs,
    solve_augmented,
    solve_primal,
)
from share_sense import duality, lp_core
from share_sense.rng import stream
from share_sense.serialize import load_cargo_config


def toy_problem():
    """b=3 shared by two unit agents with costs -3 and -1, limits 2."""
    return SharingProblem(
        p=1,
        n0=1,
        b=[3.0],
        agents=(
            AgentProfile(n=1, c=[-3.0], d=[2.0], A=[[1.0]]),
            AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]]),
        ),
    )


class TestAssemble:
    def test_slack_only(self):
        lp = assemble(SharingProblem(p=2, n0=2, b=[1.0, 2.0], agents=()))
        assert_allclose(lp.A, np.eye(2))
        assert_allclose(lp.c, [0.0, 0.0])
        assert np.all(np.isinf(lp.d))

    def test_single_agent_concatenation(self):
        prob = SharingProblem(
            p=1, n0=1, b=[3.0], agents=(AgentProfile(n=1, c=[-3.0], d=[2.0], A=[[1.0]]),)
        )
        lp = assemble(prob)
        assert_allclose(lp.A, [[1.0, 1.0]])
        assert_allclose(lp.c, [0.0, -3.0])
        assert lp.d[0] == np.inf and lp.d[1] == 2.0
        assert lp.starts.tolist() == [1]

    def test_cargo_mapping(self):
        rho = 900.0
        prob = SharingProblem(
            p=2,
            n0=2,
            b=[20000.0, 30.0],
            agents=(AgentProfile(n=1, c=[-35.0], d=[100.0], A=[[1.0], [1.0 / rho]]),),
        )
        lp = assemble(prob)
        assert_allclose(lp.A[:, :2], np.eye(2))
        assert_allclose(lp.A[:, 2], [1.0, 1.0 / rho])
        assert_allclose(lp.b, [20000.0, 30.0])

    def test_dimension_mismatch_rejected(self):
        ag = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [2.0]])  # p = 2 rows
        with pytest.raises(ValueError, match="rows"):
            SharingProblem(p=1, n0=0, b=[1.0], agents=(ag,))


class TestAgentProfileInvariants:
    def test_rejects_zero_upper_limit(self):
        with pytest.raises(ValueError, match="positive"):
            AgentProfile(n=1, c=[1.0], d=[0.0], A=[[1.0]])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            AgentProfile(n=2, c=[1.0], d=[1.0, 1.0], A=[[1.0, 1.0]])

    def test_accepts_infinite_limits(self):
        ag = AgentProfile(n=2, c=[1.0, -1.0], d=[np.inf, 2.0], A=[[1.0, 0.5]])
        assert np.isinf(ag.d[0])

    def test_scalar_fields_are_taken_as_length_one(self):
        ag = AgentProfile(n=1, c=-2.0, d=3.0, A=[[1.0], [0.5]])
        assert ag.c.shape == (1,) and ag.d.shape == (1,)
        assert (ag.c[0], ag.d[0]) == (-2.0, 3.0)

    # the first failing check names the error; most cases also break later ones
    @pytest.mark.parametrize(
        "n, c, d, A, message",
        [
            (0, [np.nan], [np.nan], [[np.nan]], "agent dimension n must be >= 1"),
            (1.0, [1.0], [1.0], [[1.0]], "n must be an integer, got 1.0"),
            (True, [1.0], [1.0], [[1.0]], "n must be an integer, got True"),
            ("1", [1.0], [1.0], [[1.0]], "n must be an integer, got '1'"),
            (1, [[1.0]], [0.0], [[1.0]], "c must be one-dimensional, got shape (1, 1)"),
            (1, [1.0], [[1.0]], [[1.0]], "d must be one-dimensional, got shape (1, 1)"),
            (1, [np.nan], [0.0], [1.0], "A must be a matrix, got shape (1,)"),
            (
                2, [np.nan], [0.0], [[1.0]],
                "inconsistent agent dimensions: n=2, c(1,), d(1,), A(1, 1)",
            ),
            (
                1, [1.0], [1.0, 2.0], [[1.0]],
                "inconsistent agent dimensions: n=1, c(1,), d(2,), A(1, 1)",
            ),
            (
                1, [1.0], [1.0], [[1.0, 2.0]],
                "inconsistent agent dimensions: n=1, c(1,), d(1,), A(1, 2)",
            ),
            (1, [np.nan], [np.nan], [[np.inf]], "agent costs must be finite"),
            (1, [np.inf], [1.0], [[1.0]], "agent costs must be finite"),
            (1, [-np.inf], [1.0], [[1.0]], "agent costs must be finite"),
            (1, [1.0], [-np.inf], [[np.nan]], "agent usage matrix must be finite"),
            (2, [1.0, 1.0], [1.0, 1.0], [[1.0, -np.inf]], "agent usage matrix must be finite"),
            # NaN and -inf are named before any finite limit <= 0
            (2, [1.0, 1.0], [0.0, np.nan], [[1.0, 1.0]], "upper limits must be > 0 or +inf"),
            (2, [1.0, 1.0], [-1.0, -np.inf], [[1.0, 1.0]], "upper limits must be > 0 or +inf"),
            (1, [1.0], [-np.inf], [[1.0]], "upper limits must be > 0 or +inf"),
            (
                2, [1.0, 1.0], [np.inf, -1.0], [[1.0, 1.0]],
                "every finite upper limit must be strictly positive",
            ),
            (1, [1.0], [-0.0], [[1.0]], "every finite upper limit must be strictly positive"),
        ],
    )
    def test_first_failing_check_names_the_error(self, n, c, d, A, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AgentProfile(n=n, c=c, d=d, A=A)


class TestStackedProblem:
    """Profiles and a stack ``(c, d, A[, starts])`` land in the same problem."""

    PROFILES = (
        AgentProfile(n=2, c=[-1.0, -2.0], d=[1.0, np.inf], A=[[1.0, 2.0], [0.5, 0.25]]),
        AgentProfile(n=1, c=[-3.0], d=[2.0], A=[[1.0], [1.0]]),
    )
    STACK = (
        np.array([-1.0, -2.0, -3.0]),
        np.array([1.0, np.inf, 2.0]),
        np.array([[1.0, 2.0, 1.0], [0.5, 0.25, 1.0]]),
        [0, 2],
    )

    def test_profiles_and_stack_give_one_problem(self):
        a = SharingProblem(p=2, n0=1, b=[3.0, 2.0], agents=self.PROFILES)
        b = SharingProblem(p=2, n0=1, b=[3.0, 2.0], agents=self.STACK)
        for x in (a, b):
            assert (x.m, x.ell, x.starts.tolist()) == (2, 4, [0, 2])
            lp = assemble(x)
            assert lp.starts.tolist() == (x.starts + x.n0).tolist() == [1, 3]
            np.testing.assert_array_equal(lp.A, [[1.0, 1.0, 2.0, 1.0], [0.0, 0.5, 0.25, 1.0]])
            for ag, ref in zip(x.agents, self.PROFILES, strict=True):
                assert ag.n == ref.n
                np.testing.assert_array_equal(ag.A, ref.A)
                np.testing.assert_array_equal(ag.d, ref.d)

    def test_no_agents(self):
        prob = SharingProblem(p=1, n0=1, b=[1.0], agents=())
        assert (prob.m, prob.ell, prob.agents) == (0, 1, ())

    def test_one_column_per_agent_without_starts(self):
        prob = SharingProblem(p=2, n0=2, b=[3.0, 2.0], agents=self.STACK[:3])
        assert prob.m == 3 and assemble(prob).starts.tolist() == [2, 3, 4]

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("c", [np.nan, -2.0, -3.0], "agent 0: agent costs must be finite"),
            ("A", [[1.0, 2.0, np.inf], [0.5, 0.25, 1.0]], "agent 1: agent usage matrix must be finite"),
            ("d", [1.0, 1.0, -2.0], "agent 1: every finite upper limit must be strictly positive"),
            ("d", [-1.0, np.nan, 1.0], "agent 0: upper limits must be > 0 or +inf"),
        ],
    )
    def test_a_bad_value_names_its_agent(self, column, value, message):
        c, d, A, starts = self.STACK
        stack = {"c": c, "d": d, "A": A} | {column: np.array(value)}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SharingProblem(p=2, n0=1, b=[3.0, 2.0], agents=(*stack.values(), starts))

    def test_mis_sized_stacks_are_refused(self):
        c, d, A, starts = self.STACK
        for stack, match in [
            ((c, d, A[:1], starts), "rows"),
            ((c[:2], d, A, starts), "columns"),
            ((c, d, A, [1, 2]), "starts"),
            ((c, d, A, [0, 3]), "starts"),
            ((c, d, A, [0, 1.5]), "starts"),
            ((c, d, A, [[0, 2]]), "starts"),
        ]:
            with pytest.raises(ValueError, match=match):
                SharingProblem(p=2, n0=1, b=[3.0, 2.0], agents=stack)

    @pytest.mark.parametrize(
        "p, n0, message",
        [
            (0, 0, "resource count p must be >= 1"),
            (2, 3, "n0 must lie in [0, p]=2, got 3"),
            (2.5, 1, "p must be an integer, got 2.5"),
            ("2", 1, "p must be an integer, got '2'"),
            (True, 1, "p must be an integer, got True"),
            (2, 1.9, "n0 must be an integer, got 1.9"),
        ],
    )
    def test_counts_must_be_integers(self, p, n0, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SharingProblem(p=p, n0=n0, b=[3.0, 2.0], agents=self.STACK[:3])

    def test_numpy_integer_counts_are_taken(self):
        prob = SharingProblem(p=np.int64(2), n0=np.uint8(1), b=[3.0, 2.0], agents=self.STACK[:3])
        assert (type(prob.p), type(prob.n0), prob.p, prob.n0) == (int, int, 2, 1)
        lp = AssembledLP(A=np.ones((1, 2)), b=[1.0], c=[0.0, 0.0], d=[1.0, 1.0], n0=np.int32(1))
        assert type(lp.n0) is int and lp.n0 == 1
        ag = AgentProfile(n=np.int64(1), c=[1.0], d=[1.0], A=[[1.0]])
        assert type(ag.n) is int and ag.n == 1

    def test_profile_of_other_row_count_is_named(self):
        wide = AgentProfile(n=1, c=[-1.0], d=[1.0], A=[[1.0], [1.0], [1.0]])
        with pytest.raises(ValueError, match=r"^agent 2 usage matrix has 3 rows, expected p=2$"):
            SharingProblem(p=2, n0=1, b=[3.0, 2.0], agents=(*self.PROFILES, wide))


class TestAssembledLPInvariants:
    def test_scalar_vectors_are_taken_as_length_one(self):
        lp = AssembledLP(A=[[1.0]], b=2.0, c=0.0, d=np.inf, n0=1)
        assert lp.b.shape == lp.c.shape == lp.d.shape == (1,)
        assert (lp.p, lp.ell, lp.m) == (1, 1, 0)

    @pytest.mark.parametrize(
        "A, b, c, d, message",
        [
            ([[1.0]], [[1.0]], [0.0], [1.0], "b must be one-dimensional, got shape (1, 1)"),
            ([[1.0]], [1.0], [[0.0]], [1.0], "c must be one-dimensional, got shape (1, 1)"),
            ([[1.0]], [1.0], [0.0], [[1.0]], "d must be one-dimensional, got shape (1, 1)"),
            (
                [1.0], [1.0], [0.0], [1.0],
                "inconsistent LP dimensions: A(1,), b(1,), c(1,), d(1,)",
            ),
            (
                [[1.0, 2.0]], [1.0, 2.0], [0.0, 0.0], [1.0, 1.0],
                "inconsistent LP dimensions: A(1, 2), b(2,), c(2,), d(2,)",
            ),
            (
                [[1.0, 2.0]], [1.0], [0.0], [1.0],
                "inconsistent LP dimensions: A(1, 2), b(1,), c(1,), d(1,)",
            ),
            (
                [[1.0, 2.0]], [1.0], [0.0, 0.0], [1.0],
                "inconsistent LP dimensions: A(1, 2), b(1,), c(2,), d(1,)",
            ),
        ],
    )
    def test_inconsistent_shapes_are_named(self, A, b, c, d, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AssembledLP(A=A, b=b, c=c, d=d, n0=0)

    @pytest.mark.parametrize(
        "ell, n0, starts, message",
        [
            (3, 1, [2, 1], "starts must be integers beginning at 1 and ascending strictly below 3"),
            (3, 1, [1, 1], "starts must be integers beginning at 1 and ascending strictly below 3"),
            (3, 1, [1, 3], "starts must be integers beginning at 1 and ascending strictly below 3"),
            (3, 1, [1, 1.5], "starts must be integers beginning at 1 and ascending strictly below 3"),
            (3, 1, [[1, 2]], "starts must be integers beginning at 1 and ascending strictly below 3"),
            (2, 5, (), "n0 must lie in [0, min(p, ell)]=[0, 1], got 5"),
            (2, -1, (), "n0 must lie in [0, min(p, ell)]=[0, 1], got -1"),
            (2, 0.5, (), "n0 must be an integer, got 0.5"),
            (2, False, (), "n0 must be an integer, got False"),
        ],
    )
    def test_starts_must_cover_the_agent_columns(self, ell, n0, starts, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            AssembledLP(
                A=np.ones((1, ell)), b=[1.0], c=np.zeros(ell), d=np.ones(ell), n0=n0,
                starts=starts,
            )

    def test_starts_are_empty_or_cover_the_agent_columns(self):
        ones = dict(A=np.ones((1, 3)), b=[1.0], c=np.zeros(3), d=np.ones(3))
        assert AssembledLP(**ones, n0=0, starts=()).m == 0
        lp = AssembledLP(**ones, n0=1, starts=np.array([1, 2]))
        assert lp.starts.tolist() == [1, 2] and lp.m == 2


class TestSolvePrimal:
    def test_two_agent_toy(self):
        sol = solve_primal(assemble(toy_problem()))
        assert_allclose(sol.x, [0.0, 2.0, 1.0], atol=1e-9)
        assert sol.objective == pytest.approx(-7.0, abs=1e-9)
        assert sol.partition.basic == (2,)
        assert sol.partition.at_lower == (0,)
        assert sol.partition.at_upper == (1,)
        assert sol.clean

    def test_slack_absorbs_surplus(self):
        prob = SharingProblem(
            p=1, n0=1, b=[10.0], agents=(AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]]),)
        )
        sol = solve_primal(assemble(prob))
        assert_allclose(sol.x, [8.0, 2.0], atol=1e-9)
        assert sol.objective == pytest.approx(-2.0)
        assert sol.partition.basic == (0,)
        assert sol.partition.at_upper == (1,)

    def test_zero_budget_equality_pins_origin(self):
        prob = SharingProblem(
            p=1, n0=0, b=[0.0], agents=(AgentProfile(n=1, c=[-3.0], d=[2.0], A=[[1.0]]),)
        )
        sol = solve_primal(assemble(prob))
        assert_allclose(sol.x, [0.0], atol=1e-12)
        assert sol.objective == pytest.approx(0.0)
        assert sol.degenerate  # the basic variable sits at its lower bound

    def test_infeasible_raises(self):
        prob = SharingProblem(
            p=1, n0=0, b=[5.0], agents=(AgentProfile(n=1, c=[1.0], d=[2.0], A=[[1.0]]),)
        )
        with pytest.raises(InfeasibleProblem):
            solve_primal(assemble(prob))

    def test_unbounded_raises(self):
        prob = SharingProblem(
            p=1,
            n0=1,
            b=[1.0],
            agents=(AgentProfile(n=1, c=[-1.0], d=[np.inf], A=[[0.0]]),),
        )
        with pytest.raises(UnboundedProblem):
            solve_primal(assemble(prob))

    def test_needs_enough_variables(self):
        lp = AssembledLP(A=np.ones((2, 1)), b=[1.0, 1.0], c=[0.0], d=[np.inf], n0=0)
        with pytest.raises(ValueError, match="ell"):
            solve_primal(lp)

    def test_degenerate_instance_terminates(self):
        # Beale's classic cycling setup; anti-cycling must still terminate
        A = np.array(
            [
                [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ]
        )
        c = np.array([-0.75, 150.0, -1.0 / 50.0, 6.0, 0.0, 0.0, 0.0])
        lp = AssembledLP(A=A, b=[0.0, 0.0, 1.0], c=c, d=np.full(7, np.inf), n0=0)
        sol = solve_primal(lp)
        _, obj_ref, _ = oracle.brute_force_optimum(lp)
        assert sol.objective == pytest.approx(obj_ref, abs=1e-9)

    def test_crash_takes_the_first_fitting_singleton_of_each_row(self):
        # row 0 has singletons 0, 1 and 3: column 0 would sit at 2 > d = 1,
        # so column 1 is taken, not the later column 3; no singleton of row 1
        # fits (column 2 at 3 > 2, column 5 at -3), so phase 1 covers it
        lp = AssembledLP(
            A=[[1.0, 1.0, 0.0, 2.0, 1.0, 0.0], [0.0, 0.0, 1.0, 0.0, 1.0, -1.0]],
            b=[2.0, 3.0],
            c=[-1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            d=[1.0, 5.0, 2.0, np.inf, np.inf, np.inf],
            n0=0,
        )
        basis, vstat = lp_core._crash_basis(lp.A, lp.b, lp.d)
        assert basis.tolist() == [1, -1]
        assert vstat.tolist() == [lp_core._AT_LOWER, lp_core._BASIC] + [lp_core._AT_LOWER] * 4
        _, obj_ref, _ = oracle.brute_force_optimum(lp)
        assert solve_primal(lp).objective == pytest.approx(obj_ref, abs=1e-9)

    def test_step_tie_leaves_the_row_with_the_largest_pivot(self):
        # the agent empties both slacks at the same step; on the scaled rows
        # its pivot entries are 1 and 2, so the second slack leaves
        agent = AgentProfile(n=1, c=[-1.0], d=[np.inf], A=[[1.0], [2.0]])
        sol = solve_primal(assemble(SharingProblem(p=2, n0=2, b=[1.0, 2.0], agents=(agent,))))
        assert sol.partition.basic == (0, 2)
        assert_allclose(sol.x, [0.0, 0.0, 1.0], atol=1e-12)
        assert sol.degenerate


class TestWarmStart:
    def test_optimal_start_returns_same_x_without_pivots(self, monkeypatch):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        factorizations = []
        real = lp_core._invert_stack

        def counting(B, *args):
            factorizations.append(B)
            return real(B, *args)

        monkeypatch.setattr(lp_core, "_invert_stack", counting)
        again = solve_primal(lp, start=sol.partition)
        # the factorization that checks the start also finds it optimal
        assert len(factorizations) == 1
        assert np.array_equal(again.x, sol.x)
        assert again.partition.as_sets() == sol.partition.as_sets()

    @pytest.mark.parametrize("seed", range(4))
    def test_optimal_start_is_a_fixed_point_on_random_batches(self, seed):
        rng = np.random.default_rng(700 + seed)
        for _ in range(25):
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            again = solve_primal(lp, start=sol.partition)
            assert np.array_equal(again.x, sol.x)
            assert again.objective == sol.objective

    def test_feasible_suboptimal_start_reaches_optimum(self):
        lp = assemble(toy_problem())
        # slack basic at 1, cheap agent at its limit, the better agent parked at 0
        start = BasisPartition(basic=(0,), at_lower=(2,), at_upper=(1,))
        sol = solve_primal(lp, start=start)
        assert_allclose(sol.x, [0.0, 2.0, 1.0], atol=1e-9)
        assert sol.objective == pytest.approx(-7.0, abs=1e-9)

    def test_start_outside_bounds_raises(self):
        lp = assemble(toy_problem())
        # both agents at their limits need 4 units of a budget of 3: slack = -1
        start = BasisPartition(basic=(0,), at_lower=(), at_upper=(1, 2))
        with pytest.raises(InfeasibleStart) as info:
            solve_primal(lp, start=start)
        assert "of the stack" not in str(info.value)

    def test_start_with_infinite_upper_value_raises(self):
        prob = SharingProblem(
            p=1, n0=1, b=[3.0], agents=(AgentProfile(n=1, c=[-1.0], d=[np.inf], A=[[1.0]]),)
        )
        start = BasisPartition(basic=(0,), at_lower=(), at_upper=(1,))
        with pytest.raises(InfeasibleStart):
            solve_primal(assemble(prob), start=start)

    def test_infinite_upper_value_raises_where_basic_limit_is_infinite(self):
        # the unlimited agent at "upper" pushes the slack to +inf, whose own
        # limit is inf too; the LP itself is bounded
        prob = SharingProblem(
            p=1,
            n0=1,
            b=[3.0],
            agents=(
                AgentProfile(n=1, c=[1.0], d=[np.inf], A=[[-1.0]]),
                AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]]),
            ),
        )
        lp = assemble(prob)
        assert_allclose(solve_primal(lp).x, [1.0, 0.0, 2.0], atol=1e-9)
        start = BasisPartition(basic=(0,), at_lower=(2,), at_upper=(1,))
        with pytest.raises(InfeasibleStart):
            solve_primal(lp, start=start)

    def test_start_must_partition_the_columns(self):
        lp = assemble(toy_problem())
        with pytest.raises(ValueError, match="partition"):
            solve_primal(lp, start=BasisPartition(basic=(0,), at_lower=(1,), at_upper=()))
        with pytest.raises(ValueError, match="partition"):
            solve_primal(lp, start=BasisPartition(basic=(0, 1), at_lower=(2,), at_upper=()))

    @pytest.mark.parametrize(
        "basic, at_lower, at_upper, counts",
        [
            ((0,), (1, 1), (), "1 basic of 3 indices"),  # duplicate, column 2 missing
            ((0,), (1,), (1,), "1 basic of 3 indices"),  # one column in two sets
            ((0,), (1, 3), (), "1 basic of 3 indices"),  # index == ell
            ((0,), (1, 2), (7,), "1 basic of 4 indices"),  # index > ell, all covered
            ((0,), (1, -1), (), "1 basic of 3 indices"),  # -1 would wrap to column 2
            ((-3,), (1, 2), (), "1 basic of 3 indices"),  # -3 would wrap to column 0
            ((), (0, 1, 2), (), "0 basic of 3 indices"),  # p - 1 basic
            ((0, 1), (), (2,), "2 basic of 3 indices"),  # p + 1 basic
            ((0, 1), (2,), (2,), "2 basic of 4 indices"),
            ((0,), (), (), "1 basic of 1 indices"),
        ],
    )
    def test_start_partition_errors_share_one_message(self, basic, at_lower, at_upper, counts):
        lp = assemble(toy_problem())
        start = BasisPartition(basic=basic, at_lower=at_lower, at_upper=at_upper)
        message = f"start must partition 3 columns with 1 basic, got {counts}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_primal(lp, start=start)

    def test_solution_start_matches_its_partition(self):
        rng = np.random.default_rng(760)
        for _ in range(25):
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            basis, status = sol.basis.copy(), sol.status.copy()
            a, b = solve_primal(lp, start=sol), solve_primal(lp, start=sol.partition)
            assert a.x.tobytes() == b.x.tobytes() == sol.x.tobytes()
            assert a.basis.tolist() == b.basis.tolist() == basis.tolist()
            assert a.status.tolist() == b.status.tolist() == status.tolist()
            # the later solves worked on copies of the start's arrays
            assert sol.basis.tolist() == basis.tolist()
            assert sol.status.tolist() == status.tolist()

    def test_solution_start_must_fit_the_lp(self):
        lp = assemble(toy_problem())
        wide = solve_primal(lp)
        narrow = AssembledLP(
            A=lp.A[:, :2], b=lp.b, c=lp.c[:2], d=lp.d[:2], n0=1, starts=[1]
        )
        message = "start must partition 2 columns with 1 basic, got 1 basic of 3 indices"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_primal(narrow, start=wide)
        two_rows = AssembledLP(A=np.eye(2), b=[1.0, 1.0], c=[0.0, 0.0], d=[np.inf, np.inf], n0=2)
        message = "start must partition 2 columns with 2 basic, got 1 basic of 3 indices"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            solve_primal(two_rows, start=wide)

    def test_solution_start_outside_bounds_raises(self):
        # the toy optimum has the cheap agent at its limit 2 and the other
        # basic at 1; on a budget of 0.5 that basis puts the other at -1.5
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        tighter = AssembledLP(A=lp.A, b=[0.5], c=lp.c, d=lp.d, n0=lp.n0, starts=lp.starts)
        with pytest.raises(InfeasibleStart):
            solve_primal(tighter, start=sol)


def half_size_cargo_lp(seed):
    """An m=50 cargo instance on a half-size aircraft (W=10000, V=15)."""
    config = CargoConfig(
        m=50, W=10000.0, V=15.0, demand=UniformDemand(d_min=100.0, d_max=400.0)
    )
    return assemble(build_problem(config, np.random.default_rng(seed)))


def fingerprint(sol):
    return (
        sol.x.tobytes(),
        sol.objective,
        sol.lam.tobytes(),
        sol.basis.tobytes(),
        sol.status.tobytes(),
        sol.degenerate,
        sol.nonunique,
    )


def solve_three_ways(lp, duals=True, **patches):
    """The primal solve and, with ``duals``, the LP solves behind both
    explicit duals, with the ``lp_core`` names in ``patches`` replaced; each
    as the bytes of x, the objective, lam, the basis, the statuses and the
    flags."""
    solved = []

    def recording(dual_lp, start=None):
        solved.append(lp_core.solve_primal(dual_lp, start=start))
        return solved[-1]

    with pytest.MonkeyPatch.context() as mp:
        for name, value in patches.items():
            mp.setattr(lp_core, name, value)
        mp.setattr(duality, "solve_primal", recording)
        solved.append(solve_primal(lp))
        if duals:
            duality.solve_dual_full(lp)
            duality.solve_dual_relaxation(lp)
    return [fingerprint(s) for s in solved]


class TestBasisInverseUpdate:
    """The rank-1 update of the basis inverse against a reference that
    re-inverts after every basis change, as a solver without the update
    would: both must take the same pivots and return the same bits."""

    def assert_matches_reference(self, lp):
        assert solve_three_ways(lp) == solve_three_ways(lp, _REFACTOR_EVERY=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches(self, seed):
        rng = np.random.default_rng(3000 + seed)
        for _ in range(20):
            self.assert_matches_reference(assemble(oracle.random_sharing_problem(rng)))

    @pytest.mark.parametrize("seed", range(3))
    def test_half_size_cargo(self, seed):
        self.assert_matches_reference(half_size_cargo_lp(seed))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["random", "duplicate", "price_tie", "unlimited", "vertex"]),
    )
    # rounding chose the pivot here before near-ties went to the lowest
    # index: reduced costs of a duplicated column, pivot sizes of the two
    # rows a duplicated agent gives its dual, and a flip tied with a row
    @example(seed=8, shape="duplicate")
    @example(seed=2131, shape="duplicate")
    @example(seed=68, shape="vertex")
    def test_adversarial_instances(self, seed, shape):
        lp, _ = oracle.flagged_or_clean_instance(np.random.default_rng(seed), shape)
        self.assert_matches_reference(lp)

    def test_relaxation_dual_inverts_rarely(self):
        # solved cold, so phase 1 and phase 2 both make a long pivot sequence
        dual_lp = duality._transcribe_dual(half_size_cargo_lp(0), True)[0]

        def inversions_per_phase(refactor_every):
            counts = []
            invert, simplex = lp_core._invert_stack, lp_core._bounded_simplex

            def counting_invert(B, *args):
                counts[-1] += 1
                return invert(B, *args)

            def counting_simplex(*args):
                counts.append(0)
                return simplex(*args)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(lp_core, "_REFACTOR_EVERY", refactor_every)
                mp.setattr(lp_core, "_invert_stack", counting_invert)
                mp.setattr(lp_core, "_bounded_simplex", counting_simplex)
                solve_primal(dual_lp)
            return counts

        # the reference inverts once on entry and once per basis change
        changes = [n - 1 for n in inversions_per_phase(1)]
        assert sum(changes) >= 60
        counts = inversions_per_phase(lp_core._REFACTOR_EVERY)
        assert len(counts) == len(changes)
        for n, k in zip(counts, changes):
            assert n <= math.ceil(k / lp_core._REFACTOR_EVERY) + 2


def shipped_config(name, **changes):
    configs = Path(__file__).resolve().parents[1] / "configs"
    return dataclasses.replace(load_cargo_config(configs / f"{name}.json"), **changes)


class TestFlipRuns:
    """A run of bound flips made in one pass against the loop making each
    flip itself: the same pivots, so the same bits."""

    def assert_same_bits(self, lp, duals=False, min_run_flips=0):
        """Returns the flips each run made."""
        run_flips = []
        real_run = lp_core._flip_run

        def counting_run(*args):
            run_flips.append(real_run(*args))
            return run_flips[-1]

        with_runs = solve_three_ways(lp, duals, _flip_run=counting_run)
        # a run that makes no flip leaves every flip to the loop
        assert with_runs == solve_three_ways(lp, duals, _flip_run=lambda *args: 0)
        assert sum(run_flips) >= min_run_flips
        return run_flips

    @pytest.mark.parametrize("m", [100, 200])
    @pytest.mark.parametrize(
        "name", ["cargo_m100_uniform", "cargo_m200_gaussian", "cargo_m100_two_row"]
    )
    def test_cargo_bases(self, name, m):
        config = shipped_config(name, m=m)
        for trial in range(3):
            lp = assemble(build_problem(config, stream(config.seed, trial, "agents")))
            # nearly every iteration of a cargo base solve is a flip: about
            # 80 agents fill the aircraft
            self.assert_same_bits(lp, min_run_flips=50)

    def test_m1000_base(self):
        config = shipped_config("cargo_m1000_uniform")
        lp = assemble(build_problem(config, stream(config.seed, 0, "agents")))
        self.assert_same_bits(lp, min_run_flips=500)

    @pytest.mark.parametrize("seed", range(2))
    def test_m50_duals(self, seed):
        self.assert_same_bits(half_size_cargo_lp(seed), duals=True)

    def test_vector_family(self):
        from test_vector_family import base_problem

        rng = np.random.default_rng(11)
        for _ in range(5):
            self.assert_same_bits(assemble(base_problem(rng)), duals=True)

    @pytest.mark.parametrize("shape", ["random", "duplicate", "price_tie", "unlimited", "vertex"])
    def test_flagged_or_clean_shapes(self, shape):
        rng = np.random.default_rng(5100)
        for _ in range(10):
            lp, _ = oracle.flagged_or_clean_instance(rng, shape)
            self.assert_same_bits(lp, duals=True)

    @pytest.mark.parametrize("gap", [0.0, 1e-10])
    def test_run_ends_at_a_price_tie(self, gap):
        # columns 1 and 3 price within _TIE of each other, 3 the higher, and
        # the budget fits one of them: pricing takes the lower index, so
        # column 1 flips and column 3 enters the basis at 0.5
        prices = [3.0, 8.0, 3.0 * (1.0 + gap), 6.0, 1.0]
        agents = tuple(AgentProfile(n=1, c=[-v], d=[1.0], A=[[1.0]]) for v in prices)
        lp = assemble(SharingProblem(p=1, n0=1, b=[3.5], agents=agents))
        sol = solve_primal(lp)
        assert sol.x[[1, 2, 4, 5]].tolist() == [1.0, 1.0, 1.0, 0.0]
        assert sol.x[3] == pytest.approx(0.5)
        # after column 2 flips, column 4 flips in a run that ends before the
        # tied pair
        assert self.assert_same_bits(lp)[0] == 1

    def test_run_ends_before_a_degenerate_flip(self):
        # column 2's limit is below _DEGEN_STEP, so the loop counts its flip
        # as degenerate: the run after column 1 leaves it to the loop, and
        # the next run takes column 3
        agents = tuple(
            AgentProfile(n=1, c=[-v], d=[limit], A=[[1.0]])
            for v, limit in [(5.0, 1.0), (4.0, 1e-12), (3.0, 1.0)]
        )
        lp = assemble(SharingProblem(p=1, n0=1, b=[10.0], agents=agents))
        assert self.assert_same_bits(lp) == [0, 1]

    def test_run_ends_where_its_running_sum_rounds_high(self):
        # after columns 1 and 2 flip, the loop finds 1 - (0.18 + 0.81999999)
        # of the budget left, about 1e-8, and the run's running sum
        # (1 - 0.18) - 0.81999999, an ulp of 1 more: a relative 5e-9, beyond
        # the _TIE band. Column 3's limit lies between the two flip
        # thresholds, so the loop makes it basic, and the run must leave it
        # to the loop.
        left = 1.0 - (0.18 + 0.81999999)
        limit = float(np.nextafter(left + 1e-12 * (1.0 + left), 1.0))
        agents = tuple(
            AgentProfile(n=1, c=[-v], d=[d], A=[[1.0]])
            for v, d in [(10.0, 0.18), (9.0, 0.81999999), (8.0, limit), (7.0, 1.0)]
        )
        lp = assemble(SharingProblem(p=1, n0=1, b=[1.0], agents=agents))
        assert self.assert_same_bits(lp)[0] == 1
        assert solve_primal(lp).status.tolist() == [0, 1, 1, 2, 0]

    def test_pivot_limit_on_the_same_iteration(self, monkeypatch):
        config = shipped_config("cargo_m100_uniform")
        lp = assemble(build_problem(config, stream(config.seed, 0, "agents")))

        def outcomes():
            out = []
            for max_iter in range(1, 100):
                basis = np.arange(lp.n0)  # the slacks, as the crash finds them
                vstat = np.where(np.arange(lp.ell) < lp.n0, lp_core._BASIC, lp_core._AT_LOWER)
                try:
                    x, _, _ = lp_core._bounded_simplex(
                        lp.A, lp.b, lp.c, lp.d, basis, vstat, max_iter
                    )
                    out.append(("x", x.tobytes()))
                except PivotLimit:
                    # the statuses the loop stopped at
                    out.append(("limit", vstat.tobytes()))
            return out

        with_runs = outcomes()
        monkeypatch.setattr(lp_core, "_flip_run", lambda *args: 0)
        without = outcomes()
        assert with_runs == without
        # the limit binds for a while, then the solve completes
        assert with_runs[0][0] == "limit" and with_runs[-1][0] == "x"


class TestTypedFailures:
    def test_pivot_limit(self):
        lp = assemble(toy_problem())
        # from the slack basis the better agent must flip to its limit first
        basis = np.array([0])
        vstat = np.array([lp_core._BASIC, lp_core._AT_LOWER, lp_core._AT_LOWER])
        with pytest.raises(PivotLimit):
            lp_core._bounded_simplex(lp.A, lp.b, lp.c, lp.d, basis, vstat, 1)

    def test_feasibility_check(self, monkeypatch):
        real = lp_core._bounded_simplex

        def drifting(*args):
            x, y, r = real(*args)
            return x + 1e-3, y, r

        monkeypatch.setattr(lp_core, "_bounded_simplex", drifting)
        with pytest.raises(FeasibilityCheckFailed) as info:
            solve_primal(assemble(toy_problem()))
        assert "of the stack" not in str(info.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_feasibility_check_fails_a_non_finite_x(self, monkeypatch, bad):
        # a NaN residual compares false with any tolerance; it must not pass
        real = lp_core._bounded_simplex

        def broken(*args):
            x, y, r = real(*args)
            x[-1] = bad
            return x, y, r

        monkeypatch.setattr(lp_core, "_bounded_simplex", broken)
        with pytest.raises(FeasibilityCheckFailed, match="scaled residual (nan|inf)"):
            solve_primal(assemble(toy_problem()))

    @pytest.mark.parametrize(
        "A, basic, message",
        [
            ([[0.0, 1.0]], (0,), "1x1 basis is singular"),
            ([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0]], (0, 1), "2x2 basis is singular"),
            (np.ones((3, 3)), (0, 1, 2), "basis matrix is singular"),
        ],
    )
    def test_singular_start_basis(self, A, basic, message):
        A = np.asarray(A)
        p, ell = A.shape
        lp = AssembledLP(A=A, b=np.ones(p), c=np.zeros(ell), d=np.full(ell, np.inf), n0=0)
        start = BasisPartition(basic=basic, at_lower=tuple(range(p, ell)), at_upper=())
        with pytest.raises(SingularBasis, match=message) as info:
            solve_primal(lp, start=start)
        # only a stack of two or more LPs names the LP
        assert "of the stack" not in str(info.value)

    def test_rank_deficient(self):
        # proportional equality rows: phase 1 ends with an artificial at zero
        # that no structural column can replace
        lp = AssembledLP(
            A=[[1.0, 2.0, 1.0], [2.0, 4.0, 2.0]],
            b=[2.0, 4.0],
            c=np.ones(3),
            d=np.full(3, np.inf),
            n0=0,
        )
        with pytest.raises(RankDeficient, match="linearly dependent"):
            solve_primal(lp)


class TestMultipliers:
    @staticmethod
    def assert_closed_form(lp, sol):
        basic = list(sol.partition.basic)
        ref = -np.linalg.solve(lp.A[:, basic].T, lp.c[basic])
        assert np.max(np.abs(sol.lam - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_match_closed_form_cold_and_warm(self):
        # lam = -y / scale from the final inverse on scaled rows, against
        # A_B^T w = c_B on the unscaled rows
        rng = np.random.default_rng(77)
        cold = warm = 0
        while cold < 120 or warm < 120:
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            if not sol.clean:
                continue
            self.assert_closed_form(lp, sol)
            cold += 1
            newcomer = oracle.random_agent(rng, lp.p)
            plus = solve_augmented(lp, newcomer, base=sol)
            if plus.clean:
                self.assert_closed_form(augment(lp, newcomer), plus)
                warm += 1


class TestCheckBasicSolution:
    def test_solver_output_passes(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        assert check_basic_solution(lp, sol.x, sol.partition).ok

    def test_interior_nonbasic_fails(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        swapped = BasisPartition(basic=(0,), at_lower=(), at_upper=(1, 2))
        report = check_basic_solution(lp, sol.x, swapped)
        assert not report.ok
        assert any("strictly interior" in msg for msg in report.failures)

    def test_budget_violation_fails(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        x_bad = sol.x + np.array([1.0, 0.0, 0.0])
        report = check_basic_solution(lp, x_bad, sol.partition)
        assert not report.ok
        assert any("budget residual" in msg for msg in report.failures)

    def test_wrong_basis_size_fails(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        part = BasisPartition(basic=(1, 2), at_lower=(0,), at_upper=())
        assert not check_basic_solution(lp, sol.x, part).ok


class TestReducedCosts:
    def test_toy_values(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        r_low, r_up = reduced_costs(lp, sol.partition)
        assert_allclose(r_low, [1.0], atol=1e-12)
        assert_allclose(r_up, [-2.0], atol=1e-12)

    def test_suboptimal_vertex_shows_negative_entry(self):
        lp = assemble(toy_problem())
        # slack basic at 1, cheap agent at its limit, the better agent parked at 0
        part = BasisPartition(basic=(0,), at_lower=(2,), at_upper=(1,))
        r_low, _ = reduced_costs(lp, part)
        assert np.min(r_low) < 0.0

    def test_bitwise_equal_to_direct_multiplier_form(self):
        # reduced_costs solves its own multipliers from the partition; it
        # must equal c - y A to the last bit
        rng = np.random.default_rng(41)
        for _ in range(20):
            lp = assemble(oracle.random_sharing_problem(rng))
            part = solve_primal(lp).partition
            basic = list(part.basic)
            y = np.linalg.solve(lp.A[:, basic].T, lp.c[basic])
            r = lp.c - y @ lp.A
            r_low, r_up = reduced_costs(lp, part)
            assert np.array_equal(r_low, r[list(part.at_lower)])
            assert np.array_equal(r_up, r[list(part.at_upper)])

    def test_zero_costs_give_zero_reduced_costs(self):
        prob = SharingProblem(
            p=1,
            n0=1,
            b=[2.0],
            agents=(AgentProfile(n=1, c=[0.0], d=[1.0], A=[[1.0]]),),
        )
        lp = assemble(prob)
        sol = solve_primal(lp)
        r_low, r_up = reduced_costs(lp, sol.partition)
        assert np.all(np.abs(np.concatenate([r_low, r_up])) < 1e-12)
        assert sol.nonunique


class TestAuditAssumptions:
    def test_toy_counts_exactly_ell_actives(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        report = audit_assumptions(lp, sol)
        assert report.full_row_rank and report.rank_A == 1
        assert report.active_constraints == lp.ell == 3
        assert report.exactly_ell_active and report.ok

    def test_price_tied_duplicates_raise_uniqueness_flag(self):
        dup = AgentProfile(n=1, c=[-2.0], d=[1.0], A=[[1.0]])
        prob = SharingProblem(p=1, n0=1, b=[1.5], agents=(dup, dup))
        sol = solve_primal(assemble(prob))
        assert sol.nonunique
        assert not audit_assumptions(assemble(prob), sol).unique_optimum

    def test_nonpositive_upper_limit_reported(self):
        lp = AssembledLP(
            A=np.array([[1.0, 1.0]]),
            b=[1.0],
            c=[0.0, -1.0],
            d=[np.inf, 0.0],
            n0=1,
            starts=[1],
        )
        sol = solve_primal(lp)
        assert not audit_assumptions(lp, sol).upper_limits_positive


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_on_batches(self, seed):
        rng = np.random.default_rng(1000 + seed)
        for _ in range(15):
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            x_ref, obj_ref, optima = oracle.brute_force_optimum(lp)
            assert sol.objective == pytest.approx(obj_ref, rel=1e-8, abs=1e-10)
            if sol.clean and oracle.oracle_is_unique(optima):
                assert np.max(np.abs(sol.x - x_ref)) < 1e-6

    @pytest.mark.parametrize("shape", ["random", "duplicate", "price_tie", "unlimited", "vertex"])
    def test_flagged_shapes_match_brute_force(self, shape):
        # criterion 3's objective tolerance, on the degenerate and tied
        # optima that random instances and the shipped configs rarely reach
        flagged = 0
        for seed in range(20):
            lp, sol = oracle.flagged_or_clean_instance(np.random.default_rng(4000 + seed), shape)
            _, obj_ref, _ = oracle.brute_force_optimum(lp)
            assert abs(sol.objective - obj_ref) / (1.0 + abs(obj_ref)) <= 1e-8, seed
            flagged += not sol.clean
        if shape in ("duplicate", "vertex"):
            assert flagged >= 10

    def test_mixed_magnitude_rows_survive_scaling(self):
        rng = np.random.default_rng(7)
        rhos = rng.uniform(900.0, 7000.0, 6)
        agents = tuple(
            AgentProfile(
                n=1,
                c=[-float(rng.uniform(20, 60))],
                d=[float(rng.uniform(50, 400))],
                A=[[1.0], [1.0 / r]],
            )
            for r in rhos
        )
        prob = SharingProblem(p=2, n0=2, b=[900.0, 0.4], agents=agents)
        lp = assemble(prob)
        sol = solve_primal(lp)
        _, obj_ref, _ = oracle.brute_force_optimum(lp)
        assert sol.objective == pytest.approx(obj_ref, rel=1e-8)


def permute_agents(lp, order):
    """``lp`` with its agents' column blocks in ``order``, the slacks first."""
    blocks = np.split(np.arange(lp.ell), lp.starts)
    cols = np.concatenate([blocks[0], *(blocks[1 + i] for i in order)])
    widths = np.diff(lp.starts, append=lp.ell)[order]
    return AssembledLP(
        A=lp.A[:, cols], b=lp.b, c=lp.c[cols], d=lp.d[cols], n0=lp.n0,
        starts=lp.n0 + np.cumsum(widths) - widths,
    )


def same_objective(a, b):
    return abs(a.objective - b.objective) <= 1e-9 * (1.0 + abs(a.objective))


class TestMetamorphicRelations:
    """Exact relations between the solves of an LP and of a transformed copy.
    They need no oracle and no sampling noise, and they catch scaling and
    tie-order faults that an objective comparison against an oracle misses."""

    def test_power_of_two_row_scaling_is_divided_out_exactly(self):
        # _row_scale divides row i of [A | b] by its max-norm, which scaling
        # the row by 2^k multiplies by 2^k exactly
        for seed in range(500):
            rng = np.random.default_rng(seed)
            lp = assemble(oracle.random_sharing_problem(rng, max_ell=14))
            sol = solve_primal(lp)
            f = np.ldexp(1.0, rng.integers(-20, 21, lp.p))
            scaled = solve_primal(
                AssembledLP(
                    A=lp.A * f[:, None], b=lp.b * f, c=lp.c, d=lp.d, n0=lp.n0,
                    starts=lp.starts,
                )
            )
            assert scaled.x.tobytes() == sol.x.tobytes(), seed
            assert (scaled.lam * f).tobytes() == sol.lam.tobytes(), seed

    def test_agent_order_keeps_objective_and_active_count(self):
        clean = 0
        for seed in range(500):
            rng = np.random.default_rng(seed)
            lp = assemble(oracle.random_sharing_problem(rng, max_ell=14))
            sol = solve_primal(lp)
            permuted = solve_primal(permute_agents(lp, rng.permutation(lp.m)))
            assert same_objective(sol, permuted), seed
            if sol.clean:
                clean += 1
                assert count_active_primal(permuted) == count_active_primal(sol), seed
        assert clean >= 450

    @pytest.mark.parametrize("shape", ["random", "duplicate", "price_tie", "unlimited", "vertex"])
    def test_agent_order_keeps_objective_on_flagged_shapes(self, shape):
        # which flags survive a permutation is not pinned, only the optimum
        rng = np.random.default_rng(7)
        for _ in range(100):
            lp, sol = oracle.flagged_or_clean_instance(rng, shape)
            permuted = solve_primal(permute_agents(lp, rng.permutation(lp.m)))
            assert same_objective(sol, permuted)


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_solution_structure(self, seed):
        rng = np.random.default_rng(2000 + seed)
        for _ in range(15):
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            assert sol.starts.tolist() == lp.starts.tolist()
            assert check_basic_solution(lp, sol.x, sol.partition).ok
            # optimality certificate
            r_low, r_up = reduced_costs(lp, sol.partition)
            assert np.all(r_low >= -1e-9)
            assert np.all(r_up <= 1e-9)
            # infinite limits never appear in the at-upper set
            assert all(np.isfinite(lp.d[j]) for j in sol.partition.at_upper)
            # basic variables strictly inside their bounds unless flagged
            if not sol.degenerate:
                xb = sol.x[list(sol.partition.basic)]
                db = lp.d[list(sol.partition.basic)]
                assert np.all(xb > 1e-7) and np.all(
                    (xb < db - 1e-7) | ~np.isfinite(db)
                )
            # feasibility within tolerance on scaled rows
            scale = np.maximum(np.max(np.abs(lp.A), axis=1), 1e-300)
            assert np.max(np.abs((lp.A @ sol.x - lp.b) / scale)) < 1e-8
            assert np.all(sol.x >= -1e-8)
            finite = np.isfinite(lp.d)
            assert np.all(sol.x[finite] <= lp.d[finite] + 1e-8)
