"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The explicit-bound domination check (7b) compares the table's
``eps_explicit`` column, the one-sided closed form at beta / 2, with the
two-sided ``eps_high``; the closed form at the full beta does not dominate it
(pinned in ``tests/test_sensitivity.py``).
"""

import time

import numpy as np
import pytest

import lp_oracles as oracle
from share_sense import (
    CargoConfig,
    TruncatedGaussianDemand,
    UniformDemand,
    assemble,
    changes_solution,
    closed_form_certificate,
    count_active_dual,
    count_active_primal,
    dual_objective,
    epsilon_table,
    relaxation_values,
    run_campaign,
    solve_augmented,
    solve_dual_full,
    solve_dual_relaxation,
    solve_primal,
)

W_PLACEHOLDER = 20000.0  # kg; not a published aircraft value
V_PLACEHOLDER = 30.0  # m^3
DEMAND_RANGES = [(50.0, 150.0), (100.0, 400.0), (1000.0, 4000.0), (2000.0, 6000.0)]
DEMAND_CENTERS = [0.5 * (lo + hi) for lo, hi in DEMAND_RANGES]

_cloud_medians: dict[tuple, float] = {}


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _coverage_campaigns(m, demands, seed0, label):
    total_clean = total = violations = discards = 0
    for i, demand in enumerate(demands):
        config = CargoConfig(
            m=m,
            W=W_PLACEHOLDER,
            V=V_PLACEHOLDER,
            demand=demand,
            trials=100,
            beta=1e-7,
            seed=seed0 + i,
        )
        records, summary = run_campaign(config)
        total += summary.trials
        total_clean += summary.clean_trials
        discards += summary.discarded
        violations += summary.clean_trials - summary.covered
        _cloud_medians[(label, i)] = float(
            np.median([r.s_star for r in records if r.clean])
        )
    return total, total_clean, violations, discards


def test_criterion_1_band_coverage_uniform_m100():
    demands = [UniformDemand(lo, hi) for lo, hi in DEMAND_RANGES]
    total, clean, violations, discards = _coverage_campaigns(100, demands, 101, "u100")
    # scaling the demand range up by 10x must shift activity down (clouds drift)
    drift_ok = _cloud_medians[("u100", 2)] < _cloud_medians[("u100", 1)]
    _report(
        "criterion 1: band coverage, m=100 uniform",
        violations == 0 and clean > 0 and drift_ok,
        f"{clean}/{total} clean trials, {violations} outside their interval, "
        f"{discards} discarded, drift {_cloud_medians[('u100', 1)]:.0f} -> {_cloud_medians[('u100', 2)]:.0f}",
    )


def test_criterion_2_band_coverage_gaussian_m200():
    demands = [TruncatedGaussianDemand(mu, 3096.0) for mu in DEMAND_CENTERS]
    total, clean, violations, discards = _coverage_campaigns(200, demands, 201, "g200")

    # matched activity ratios: the interval must tighten with more agents
    t100 = oracle.cached_table(100, 1e-7)
    t200 = oracle.cached_table(200, 1e-7)
    w100 = (t100.eps_high - t100.eps_low)[np.arange(101)]
    w200 = (t200.eps_high - t200.eps_low)[2 * np.arange(101)]
    tighter = float(w200.mean()) < float(w100.mean())

    _report(
        "criterion 2: band coverage, m=200 truncated Gaussian",
        violations == 0 and clean > 0 and tighter,
        f"{clean}/{total} clean trials, {violations} outside their interval, "
        f"{discards} discarded; mean width {w200.mean():.4f} (m=200) < {w100.mean():.4f} (m=100): {tighter}",
    )


def test_criterion_3_oracle_equivalence_500():
    rng = np.random.default_rng(33)
    worst_obj = worst_x = 0.0
    checked = skipped_flagged = 0
    for _ in range(500):
        lp = assemble(oracle.random_sharing_problem(rng))
        sol = solve_primal(lp)
        x_ref, obj_ref, optima = oracle.brute_force_optimum(lp)
        rel = abs(sol.objective - obj_ref) / (1.0 + abs(obj_ref))
        worst_obj = max(worst_obj, rel)
        assert rel <= 1e-8
        if sol.clean and oracle.oracle_is_unique(optima):
            gap = float(np.max(np.abs(sol.x - x_ref)))
            worst_x = max(worst_x, gap)
            assert gap <= 1e-6
            checked += 1
        else:
            skipped_flagged += 1
    _report(
        "criterion 3: simplex vs enumeration oracle",
        checked >= 450,
        f"500 objectives within 1e-8 (worst {worst_obj:.2e}); "
        f"{checked} unique solutions within 1e-6 (worst {worst_x:.2e}); {skipped_flagged} flagged/tied skipped",
    )


_clean_instances: list = []


def test_criterion_4_dual_triple_agreement_500():
    rng = np.random.default_rng(44)
    worst_lam = worst_gap = worst_h = 0.0
    while len(_clean_instances) < 500:
        lp = assemble(oracle.random_sharing_problem(rng))
        sol = solve_primal(lp)
        if not sol.clean:
            continue
        _clean_instances.append((lp, sol))
        lam_cf = sol.lam
        cert = solve_dual_full(lp)
        lam_rel, h_rel = solve_dual_relaxation(lp)
        worst_lam = max(
            worst_lam,
            float(np.max(np.abs(lam_cf - cert.lam))),
            float(np.max(np.abs(lam_cf - lam_rel))),
            float(np.max(np.abs(cert.lam - lam_rel))),
        )
        assert worst_lam < 1e-6
        gap = abs(dual_objective(lp, cert) - sol.objective) / (1.0 + abs(sol.objective))
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-7
        dh = float(np.max(np.abs(h_rel - relaxation_values(lp, cert.nu))))
        worst_h = max(worst_h, dh)
        assert dh < 1e-7
    _report(
        "criterion 4: dual triple agreement",
        True,
        f"500 instances; worst multiplier spread {worst_lam:.2e}, "
        f"duality gap {worst_gap:.2e}, relaxation identity {worst_h:.2e}",
    )


def test_criterion_5_active_count_consistency():
    if not _clean_instances:  # allows running this test alone
        test_criterion_4_dual_triple_agreement_500()
    mismatches = 0
    for lp, sol in _clean_instances:
        cert = closed_form_certificate(lp, sol)
        if count_active_primal(sol) != count_active_dual(lp, cert):
            mismatches += 1
    rng = np.random.default_rng(55)
    over_cap = 0
    for _ in range(500):
        prob = oracle.random_unbounded_free_problem(rng)
        sol = solve_primal(assemble(prob))
        if count_active_primal(sol) > prob.p:
            over_cap += 1
    _report(
        "criterion 5: active-count consistency",
        mismatches == 0 and over_cap == 0,
        f"{len(_clean_instances)} primal/dual counts equal ({mismatches} mismatches); "
        f"500 no-limit instances with count <= resources ({over_cap} over)",
    )


def test_criterion_6_arrival_certificate_10k():
    rng = np.random.default_rng(66)
    start = time.perf_counter()
    pairs = ties = 0
    while pairs < 10_000:
        lp = assemble(oracle.random_sharing_problem(rng))
        sol = solve_primal(lp)
        if not sol.clean:
            continue
        for _ in range(40):
            newcomer = oracle.random_agent(rng, lp.p)
            verdict = changes_solution(lp, sol, newcomer)
            if verdict.tie:
                ties += 1
                continue
            plus = solve_augmented(lp, newcomer)
            moved = bool(
                np.any(np.abs(plus.x[plus.agent_index_map[-1]]) > 1e-7)
            ) or abs(plus.objective - sol.objective) > 1e-8 * (1.0 + abs(sol.objective))
            assert moved == verdict.changes, (
                f"certificate {verdict.changes} but re-solve {moved} "
                f"(rc={verdict.reduced_costs})"
            )
            pairs += 1
            if pairs >= 10_000:
                break
    elapsed = time.perf_counter() - start
    _report(
        "criterion 6: arrival certificate vs re-solve",
        elapsed < 60.0,
        f"{pairs} pairs agreed exactly, {ties} zero-reduced-cost ties skipped, {elapsed:.1f}s (< 60s)",
    )


GRID_M = [1, 10, 100, 250, 500, 1000]
GRID_BETA = [1e-4, 1e-6, 1e-8]


def test_criterion_7_epsilon_engine_grid():
    t0 = time.perf_counter()
    epsilon_table(1000, 1e-6)  # fresh, uncached build for the timing gate
    big_build = time.perf_counter() - t0
    worst_resid = 0.0
    for m in GRID_M:
        for beta in GRID_BETA:
            tab = oracle.cached_table(m, beta)
            resid = np.concatenate([tab.residual_low[:m], tab.residual_high])
            worst_resid = max(worst_resid, float(np.nanmax(np.abs(resid))))
            assert np.all(tab.eps_low >= 0.0)
            assert np.all(tab.eps_low <= tab.eps_high)
            assert np.all(tab.eps_high <= 1.0)
            assert tab.eps_high[m] == 1.0
    _report(
        "criterion 7: epsilon engine grid",
        worst_resid < 1e-10 and big_build < 30.0,
        f"18 tables; worst normalized residual {worst_resid:.2e} (< 1e-10); "
        f"m=1000 build {big_build:.1f}s (< 30s)",
    )


def test_criterion_7_explicit_bound_dominates():
    # eps_explicit is the one-sided closed form at beta / 2. At t_low the
    # positive term C(m,k) t^(m-k) equals the sum of the negative-side terms,
    # whose i = k term alone is beta/(2m), so t_low^(m-k) >= beta/(2m C(m,k))
    # and eps_high <= eps_explicit. At k = m both sides are 1.0, and at
    # k = m-1 both equal 1 - beta/(2 m^2) up to O(beta^3), so they tie exactly
    # in floating point there.
    worst = 0.0
    worst_at = None
    for m in GRID_M:
        for beta in GRID_BETA:
            tab = oracle.cached_table(m, beta)
            deficit = tab.eps_high[1:] - tab.eps_explicit[1:]
            k_bad = int(np.argmax(deficit)) + 1
            if deficit.max() > worst:
                worst = float(deficit.max())
                worst_at = (m, beta, k_bad)
    _report(
        "criterion 7b: explicit bound >= interval bound for k >= 1",
        worst <= 0.0,
        f"worst deficit {worst:.3e} at (m, beta, k) = {worst_at}",
    )


def test_criterion_8_band_shape_across_m_and_beta():
    widths = {
        (m, beta): float(
            (oracle.cached_table(m, beta).eps_high - oracle.cached_table(m, beta).eps_low).max()
        )
        for m in (250, 500, 1000)
        for beta in GRID_BETA
    }
    narrows = all(
        widths[(250, b)] > widths[(500, b)] > widths[(1000, b)] for b in GRID_BETA
    )
    moderate = all(widths[(m, 1e-8)] <= 2.0 * widths[(m, 1e-4)] for m in (250, 500, 1000))
    detail = ", ".join(
        f"m={m}: {widths[(m, 1e-4)]:.3f}->{widths[(m, 1e-8)]:.3f}" for m in (250, 500, 1000)
    )
    _report(
        "criterion 8: interval shape",
        narrows and moderate,
        f"max widths (beta 1e-4 -> 1e-8): {detail}; narrows with m: {narrows}",
    )
