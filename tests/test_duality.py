import numpy as np
import pytest
from numpy.testing import assert_allclose

import lp_oracles as oracle
from lp_oracles import verify_complementary_slackness
from share_sense import (
    AgentProfile,
    SharingProblem,
    UnboundedProblem,
    assemble,
    closed_form_certificate,
    dual_objective,
    relaxation_values,
    solve_dual_full,
    solve_dual_relaxation,
    solve_primal,
)
from share_sense import duality, lp_core
from test_lp_core import half_size_cargo_lp, toy_problem


@pytest.fixture(scope="module")
def toy():
    lp = assemble(toy_problem())
    return lp, solve_primal(lp)


class TestClosedForm:
    def test_toy_multiplier(self, toy):
        lp, sol = toy
        assert_allclose(sol.lam, [1.0], atol=1e-12)

    def test_slack_only_basis_gives_zero(self):
        prob = SharingProblem(
            p=1, n0=1, b=[10.0], agents=(AgentProfile(n=1, c=[1.0], d=[2.0], A=[[1.0]]),)
        )
        lp = assemble(prob)
        sol = solve_primal(lp)
        assert sol.partition.basic == (0,)
        assert_allclose(sol.lam, [0.0])

    def test_certificate_matches_hand_values(self, toy):
        lp, sol = toy
        cert = closed_form_certificate(lp, sol)
        assert_allclose(cert.lam, [1.0], atol=1e-12)
        assert_allclose(cert.nu, [0.0, 2.0, 0.0], atol=1e-12)
        assert_allclose(cert.h, [4.0, 0.0], atol=1e-12)


class TestExplicitDuals:
    def test_full_dual_on_toy(self, toy):
        lp, sol = toy
        cert = solve_dual_full(lp)
        assert_allclose(cert.lam, [1.0], atol=1e-9)
        assert_allclose(cert.nu, [0.0, 2.0, 0.0], atol=1e-9)
        assert dual_objective(lp, cert) == pytest.approx(sol.objective, abs=1e-9)

    def test_relaxation_dual_on_toy(self, toy):
        lp, _ = toy
        lam, h = solve_dual_relaxation(lp)
        assert_allclose(lam, [1.0], atol=1e-9)
        assert_allclose(h, [4.0, 0.0], atol=1e-9)

    def test_zero_cost_problem(self):
        prob = SharingProblem(
            p=1,
            n0=1,
            b=[2.0],
            agents=(AgentProfile(n=1, c=[0.0], d=[1.0], A=[[1.0]]),),
        )
        lp = assemble(prob)
        cert = solve_dual_full(lp)
        assert_allclose(cert.lam, [0.0], atol=1e-9)
        assert_allclose(cert.nu, 0.0, atol=1e-9)
        assert dual_objective(lp, cert) == pytest.approx(0.0, abs=1e-9)

    def test_unbounded_dual_mirrors_infeasible_primal(self):
        # budget cannot be met, so the dual objective grows without bound
        prob = SharingProblem(
            p=1, n0=0, b=[5.0], agents=(AgentProfile(n=1, c=[1.0], d=[2.0], A=[[1.0]]),)
        )
        with pytest.raises(UnboundedProblem):
            solve_dual_full(assemble(prob))

    def test_relaxation_values_respect_infinity_convention(self):
        ag = AgentProfile(n=2, c=[1.0, 1.0], d=[np.inf, 2.0], A=[[1.0, 1.0]])
        lp = assemble(SharingProblem(p=1, n0=1, b=[1.0], agents=(ag,)))
        h = relaxation_values(lp, np.array([0.0, 0.0, 3.0]))
        assert_allclose(h, [6.0])
        h_inf = relaxation_values(lp, np.array([0.0, 1.0, 0.0]))
        assert h_inf[0] == np.inf


class TestComplementarySlackness:
    def test_toy_report_clean(self, toy):
        lp, sol = toy
        report = verify_complementary_slackness(lp, sol, solve_dual_full(lp))
        assert report.ok
        assert report.max_upper_product < 1e-9
        assert report.max_stationarity_product < 1e-9
        assert not report.mismatches

    def test_all_slack_optimum_trivial_products(self):
        # huge budget, non-negative costs: agents park at zero, nu vanishes
        agents = tuple(
            AgentProfile(n=1, c=[float(c)], d=[2.0], A=[[1.0]]) for c in (0.5, 1.5)
        )
        prob = SharingProblem(p=1, n0=1, b=[100.0], agents=agents)
        lp = assemble(prob)
        sol = solve_primal(lp)
        cert = solve_dual_full(lp)
        assert_allclose(sol.x[1:], 0.0, atol=1e-12)
        assert_allclose(cert.nu, 0.0, atol=1e-12)
        report = verify_complementary_slackness(lp, sol, cert)
        assert report.products_ok

    def test_detects_broken_certificate(self, toy):
        lp, sol = toy
        cert = solve_dual_full(lp)
        bad = type(cert)(lam=cert.lam + 0.5, nu=cert.nu, h=cert.h)
        assert not verify_complementary_slackness(lp, sol, bad).ok


class TestRandomCampaign:
    @pytest.mark.parametrize("seed", range(5))
    def test_triple_agreement_and_strong_duality(self, seed):
        rng = np.random.default_rng(3000 + seed)
        done = 0
        while done < 16:
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            if not sol.clean:
                continue
            done += 1
            lam_cf = sol.lam
            cert = solve_dual_full(lp)
            lam_rel, h_rel = solve_dual_relaxation(lp)
            # one multiplier vector, three recoveries
            assert np.max(np.abs(lam_cf - cert.lam)) < 1e-6
            assert np.max(np.abs(lam_cf - lam_rel)) < 1e-6
            # strong duality
            gap = abs(dual_objective(lp, cert) - sol.objective)
            assert gap <= 1e-7 * (1.0 + abs(sol.objective))
            # relaxation values coincide with nu^T d
            assert np.max(np.abs(h_rel - relaxation_values(lp, cert.nu))) < 1e-7
            # multipliers vanish on the basic block
            assert np.max(np.abs(cert.nu[list(sol.partition.basic)])) < 1e-9
            # slackness holds in both directions
            assert verify_complementary_slackness(lp, sol, cert).ok
            # inequality-row multipliers are non-negative
            assert np.all(cert.lam[: lp.n0] >= -1e-9)

    def test_closed_form_certificate_agrees_with_lp_dual(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            if not sol.clean:
                continue
            cert_fast = closed_form_certificate(lp, sol)
            cert_lp = solve_dual_full(lp)
            assert np.max(np.abs(cert_fast.lam - cert_lp.lam)) < 1e-6
            assert np.max(np.abs(cert_fast.nu - cert_lp.nu)) < 1e-6
            assert np.max(np.abs(cert_fast.h - cert_lp.h)) < 1e-6


class TestRelaxationStart:
    """The relaxation dual starts from its structural basis; the cold solve
    of the same transcribed LP, through phase 1, is the reference."""

    @staticmethod
    def assert_matches_cold(lp):
        dual_lp, meta, _ = duality._transcribe_dual(lp, epigraph=True)
        cold = solve_primal(dual_lp)
        lam_cold, _ = duality._extract_lam_nu(lp, cold.x, meta)
        h_cold = cold.x[meta["h_off"] : meta["h_off"] + lp.m]
        lam, h = solve_dual_relaxation(lp)
        assert np.max(np.abs(lam - lam_cold)) <= 1e-9
        assert np.max(np.abs(h - h_cold)) <= 1e-9
        objective = lam @ lp.b + h.sum()
        assert abs(objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))

    @pytest.mark.parametrize("seed", range(3))
    def test_half_size_cargo_matches_cold_solve(self, seed):
        lp = half_size_cargo_lp(seed)
        assert duality._transcribe_dual(lp, epigraph=True)[2] is not None
        self.assert_matches_cold(lp)

    def test_random_instances_match_cold_solve(self):
        rng = np.random.default_rng(3000)
        started = 0
        for _ in range(200):
            lp = assemble(oracle.random_sharing_problem(rng))
            started += duality._transcribe_dual(lp, epigraph=True)[2] is not None
            self.assert_matches_cold(lp)
        # both the started and the phase-1 path are exercised
        assert 0 < started < 200

    def test_unlimited_profitable_agent_has_no_start(self):
        agents = (
            AgentProfile(n=1, c=[-3.0], d=[np.inf], A=[[1.0]]),
            AgentProfile(n=1, c=[-1.0], d=[2.0], A=[[1.0]]),
        )
        lp = assemble(SharingProblem(p=1, n0=1, b=[3.0], agents=agents))
        assert duality._transcribe_dual(lp, epigraph=True)[2] is None
        cert = solve_dual_full(lp)
        lam, h = solve_dual_relaxation(lp)
        assert_allclose(lam, cert.lam, atol=1e-9)
        assert_allclose(h, relaxation_values(lp, cert.nu), atol=1e-9)

    def test_half_size_cargo_skips_phase_one(self, monkeypatch):
        # 12 basis changes from the start, against 50 + 37 through both phases cold
        inversions = []
        invert = lp_core._invert_stack

        def counting_invert(B, *args):
            inversions.append(B.shape[-1])
            return invert(B, *args)

        monkeypatch.setattr(lp_core, "_REFACTOR_EVERY", 1)
        monkeypatch.setattr(lp_core, "_invert_stack", counting_invert)
        solve_dual_relaxation(half_size_cargo_lp(0))
        # one inversion checks the start, then one per basis change
        assert len(inversions) - 1 <= 20
