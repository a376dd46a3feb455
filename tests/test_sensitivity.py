import dataclasses
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lp_oracles as oracle
from share_sense import (
    AgentProfile,
    BracketFailure,
    SharingProblem,
    TableCheckFailed,
    assemble,
    closed_form_certificate,
    count_active_dual,
    count_active_primal,
    epsilon_table,
    explicit_upper_bound,
    sensitivity_interval,
    solve_primal,
)
from share_sense import sensitivity
from share_sense.sensitivity import _EXP_FLOOR, _U_CAP, _U_FLOOR, _PolyFamily
from test_acceptance import GRID_BETA, GRID_M
from test_lp_core import toy_problem

# frozen by an independent 50-digit root solve of t - 0.05 - (t^2+t^3+t^4)/60
T_LOW_M1_K0 = 0.050043933284056422
T_HIGH_M1_K0 = 3.511600883865039857
T_HIGH_M1_K1 = 2.179193621873242242


def row_value(m, k, beta, t):
    """Normalized value of polynomial k at t > 0 and its log scale, read off
    the full family by the row evaluation the root search uses."""
    val, _, log_scale = _PolyFamily(m, beta).eval_rows(np.array([k]), np.array([t]))
    return float(val[0]), float(log_scale[0])


def plain_value(m, k, beta, t):
    val, log_scale = row_value(m, k, beta, t)
    return val * math.exp(log_scale)


class TestFamilyValues:
    # t = 2^-60 is the floor of the left bracket search; every term above
    # degree zero is below 1e-15 of the value there
    def test_value_one_at_origin_for_k_equals_m(self):
        assert plain_value(5, 5, 0.3, math.exp(_U_FLOOR)) == pytest.approx(1.0)

    def test_origin_value_is_minus_half_beta_over_m(self):
        assert plain_value(1, 0, 0.1, math.exp(_U_FLOOR)) == pytest.approx(-0.05, abs=1e-15)

    def test_rational_point_value(self):
        # 1 - 0.05 - (1 + 1 + 1)/60 evaluated exactly
        assert plain_value(1, 0, 0.1, 1.0) == pytest.approx(0.9, abs=1e-14)

    def test_huge_degree_does_not_overflow(self):
        val, g, log_scale = _PolyFamily(1000, 1e-8).eval_rows(np.array([500]), np.array([0.5]))
        assert np.all(np.isfinite([val, g, log_scale]))

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 7),
        k_frac=st.floats(0.0, 1.0),
        beta=st.sampled_from([0.5, 0.1, 0.01, 1e-4]),
        t=st.floats(0.001, 8.0, allow_nan=False),
    )
    def test_matches_exact_rational_oracle(self, m, k_frac, beta, t):
        k = min(m, int(round(k_frac * m)))
        got, _ = row_value(m, k, beta, t)
        want = oracle.poly_residual_exact(m, k, beta, t)
        assert got == pytest.approx(want, abs=1e-12)


class TestLogBinomials:
    @settings(max_examples=150, deadline=None)
    @given(i=st.integers(0, 60), k_frac=st.floats(0.0, 1.0))
    def test_exact_to_1e12_relative_up_to_60(self, i, k_frac):
        m = 15  # family columns reach 4m = 60
        k = min(m, int(round(k_frac * m)))
        if i < k:
            return
        fam = _PolyFamily(m, 0.5)
        if i < m:
            pref = math.log(0.5 / (2 * m))
        elif i == m:
            pref = 0.0
        else:
            pref = math.log(0.5 / (6 * m))
        ln_c = fam.logcoef[k, i] - pref
        assert math.exp(ln_c) == pytest.approx(math.comb(i, k), rel=1e-12)


class TestTableRoots:
    def test_frozen_small_case(self):
        tab = epsilon_table(1, 0.1)
        assert tab.t_low[0] == pytest.approx(T_LOW_M1_K0, abs=1e-12)
        assert tab.t_high[0] == pytest.approx(T_HIGH_M1_K0, abs=1e-11)
        assert tab.t_high[1] == pytest.approx(T_HIGH_M1_K1, abs=1e-11)

    @pytest.mark.parametrize("m", [1, 5, 40])
    def test_k_equals_m_lower_root_is_zero(self, m):
        tab = epsilon_table(m, 1e-4)
        assert tab.t_low[m] == 0.0
        assert tab.t_high[m] > 0.0

    @pytest.mark.parametrize("m,k,beta", [(1, 0, 0.1), (10, 3, 1e-4), (60, 45, 1e-6)])
    def test_residuals_small_at_roots(self, m, k, beta):
        tab = epsilon_table(m, beta)
        for t in (tab.t_low[k], tab.t_high[k]):
            assert abs(row_value(m, k, beta, t)[0]) < 1e-10

    def test_sign_pattern_around_roots(self):
        m, k, beta = 30, 12, 1e-5
        tab = epsilon_table(m, beta)
        t_low, t_high = tab.t_low[k], tab.t_high[k]
        assert row_value(m, k, beta, 0.5 * t_low)[0] < 0.0
        assert row_value(m, k, beta, 0.5 * (t_low + t_high))[0] > 0.0
        assert row_value(m, k, beta, 2.0 * t_high)[0] < 0.0

    @pytest.mark.parametrize(
        "m,k,beta",
        [(1, 0, 0.1), (4, 2, 0.05), (8, 8, 0.01), (10, 1, 1e-4), (12, 11, 1e-6)],
    )
    def test_roots_verified_by_exact_arithmetic(self, m, k, beta):
        tab = epsilon_table(m, beta)
        if k < m:
            assert abs(oracle.poly_residual_exact(m, k, beta, tab.t_low[k])) < 1e-10
        assert abs(oracle.poly_residual_exact(m, k, beta, tab.t_high[k])) < 1e-10


class TestEpsilonTable:
    @pytest.mark.parametrize(
        "m,beta",
        [(m, b) for m in (1, 2, 10, 100, 250, 500) for b in (1e-4, 1e-6, 1e-7, 1e-8)]
        + [(1000, 1e-7)],  # the remaining m=1000 grid lives in the acceptance suite
    )
    def test_invariants_hold_across_sweep(self, m, beta):
        tab = oracle.cached_table(m, beta)
        assert tab.t_low[m] == 0.0
        assert np.all(tab.t_low >= 0.0) and np.all(tab.t_low <= tab.t_high)
        assert np.all(tab.eps_low >= 0.0)
        assert np.all(tab.eps_low <= tab.eps_high)
        assert np.all(tab.eps_high <= 1.0)
        assert tab.eps_high[m] == 1.0
        resid = np.concatenate([tab.residual_low[:m], tab.residual_high])
        assert np.nanmax(np.abs(resid)) < 1e-10

    @pytest.mark.parametrize("m", [500, 1000])
    def test_large_m_spot_checked_against_mpmath(self, m):
        tab = oracle.cached_table(m, 1e-7)
        rng = np.random.default_rng(5)
        for k in rng.choice(m, size=12, replace=False):
            k = int(k)
            assert abs(oracle.poly_residual_mp(m, k, 1e-7, tab.t_low[k])) < 1e-10
            assert abs(oracle.poly_residual_mp(m, k, 1e-7, tab.t_high[k])) < 1e-10

    def test_small_case_eps_from_roots(self):
        tab = epsilon_table(1, 0.1)
        assert tab.eps_low[0] == 0.0
        assert tab.eps_high[0] == pytest.approx(1.0 - T_LOW_M1_K0, abs=1e-12)

    def test_band_tightens_with_more_agents(self):
        small = oracle.cached_table(250, 1e-6)
        large = oracle.cached_table(500, 1e-6)
        w_small = (small.eps_high - small.eps_low).max()
        w_large = (large.eps_high - large.eps_low).max()
        assert w_large < w_small


    @pytest.mark.parametrize(
        "field,k,value,match",
        [
            ("t_low", -1, 0.5, "t_low at k = m"),
            ("t_low", 0, 9.0, "root ordering"),
            ("eps_low", 0, 0.99, "bound ordering"),
            ("eps_high", -1, 0.5, "upper bounds"),
            ("residual_high", 0, 1e-3, "root residual"),
        ],
    )
    def test_corrupted_table_is_typed(self, field, k, value, match):
        tab = epsilon_table(2, 1e-2)
        arrays = {name: getattr(tab, name).copy() for name in ("eps_low", "eps_high")}
        arrays[field] = getattr(tab, field).copy()
        arrays[field][k] = value
        if field == "eps_high":
            arrays["eps_low"][k] = 0.0
        with pytest.raises(TableCheckFailed, match=match):
            dataclasses.replace(tab, **arrays)


def _reference_init(self, m, beta):
    """``_PolyFamily.__init__`` built from full (rows x columns) arrays."""
    self.m = m
    n_i = 4 * m + 1
    I = np.arange(n_i, dtype=float)
    K = np.arange(m + 1, dtype=float)[:, None]
    diff = I[None, :] - K
    ratio = np.where(diff >= 1.0, K / np.maximum(diff, 1.0), 0.0)
    inc = np.log1p(ratio)
    lnC = np.cumsum(inc.astype(np.longdouble), axis=1).astype(float)
    pref = np.where(
        I[None, :] < m,
        math.log(beta / (2.0 * m)),
        np.where(I[None, :] == m, 0.0, math.log(beta / (6.0 * m))),
    )
    logcoef = lnC + pref
    logcoef[diff < 0.0] = -np.inf
    self.logcoef = logcoef
    self.expo = diff


def _reference_eval_rows(self, rows, t):
    """``_PolyFamily.eval_rows`` with a fresh full-size temporary per step."""
    lt = np.log(t)
    LT = self.logcoef[rows] + self.expo[rows] * lt[:, None]
    pos_log = LT[:, self.m].copy()
    LT[:, self.m] = -np.inf
    negmax = LT.max(axis=1)
    negsum = np.exp(LT - negmax[:, None]).sum(axis=1)
    logneg = negmax + np.log(negsum)
    g = pos_log - logneg
    rowmax = np.maximum(pos_log, negmax)
    val = np.exp(pos_log - rowmax) - np.exp(logneg - rowmax)
    return val, g, rowmax


def _reference_family(m, beta):
    fam = object.__new__(_PolyFamily)
    _reference_init(fam, m, beta)
    return fam


TABLE_ARRAYS = (
    "t_low", "t_high", "eps_low", "eps_high", "eps_explicit", "residual_low", "residual_high"
)


class TestBlockedEvaluation:
    """The row-blocked, in-place family build and evaluation make the same
    IEEE operations in the same order as the full-array reference, so every
    bit must agree."""

    @pytest.mark.parametrize("m", [1, 100, 250, 1000])
    def test_coefficients_match_full_array_build(self, m):
        fam = _PolyFamily(m, 1e-6)
        ref = _reference_family(m, 1e-6)
        assert fam.expo.tobytes() == ref.expo.tobytes()
        assert fam.logcoef.tobytes() == ref.logcoef.tobytes()

    @pytest.mark.parametrize("m", [250, 1000])
    def test_exponents_are_a_view_of_one_vector(self, m):
        fam = _PolyFamily(m, 1e-6)
        owner = fam.expo
        while getattr(owner, "base", None) is not None:
            owner = owner.base
        assert fam.expo.shape == (m + 1, 4 * m + 1)
        assert owner.nbytes == 8 * (5 * m + 1)

    @pytest.mark.parametrize("m", [50, 100, 200, 250, 1000])
    def test_eval_rows_matches_reference_across_blocks(self, m):
        fam = _PolyFamily(m, 1e-6)
        rng = np.random.default_rng(m)
        # a sorted subset spanning several blocks whose size is no multiple of
        # one; at m = 50 all rows fit in one block
        size = 2 * fam._block_rows + 5
        subset = np.sort(rng.choice(m + 1, size=min(size, m), replace=False))
        assert subset.size % fam._block_rows
        assert subset.size > fam._block_rows or m + 1 <= fam._block_rows
        every = np.arange(m + 1)
        cases = [
            (rows, np.exp(rng.uniform(u_lo, u_hi, rows.size)))
            for u_lo, u_hi in ((-8.0, 3.0), (_U_FLOOR, _U_CAP))
            for rows in (subset, every)
        ]
        cases.append((every, np.full(m + 1, math.exp(_U_FLOOR))))
        for rows, t in cases:
            got = fam.eval_rows(rows, t)
            want = _reference_eval_rows(fam, rows, t)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        # at the bracket floor most finite terms skip exp, some of them in the
        # band (-745.13, _EXP_FLOOR) of non-zero subnormal results, so the
        # comparison is not vacuous
        shifted = fam.logcoef + fam.expo * _U_FLOOR
        shifted[:, m] = -np.inf
        shifted -= shifted.max(axis=1, keepdims=True)
        finite = shifted[np.isfinite(shifted)]
        assert np.mean(finite < _EXP_FLOOR) >= 0.5
        assert np.any((finite < _EXP_FLOOR) & (finite > -745.13))

    def test_tables_match_reference_on_7b_grid(self, monkeypatch):
        # the 7b grid and the tables of the shipped workloads
        grid = [(m, beta) for m in GRID_M for beta in GRID_BETA]
        grid += [(50, 1e-7), (100, 1e-7), (200, 1e-7)]
        tables = {key: oracle.cached_table(*key) for key in grid}
        monkeypatch.setattr(_PolyFamily, "__init__", _reference_init)
        monkeypatch.setattr(_PolyFamily, "eval_rows", _reference_eval_rows)
        for (m, beta), table in tables.items():
            ref = epsilon_table(m, beta)
            for name in TABLE_ARRAYS:
                got, want = getattr(table, name), getattr(ref, name)
                assert got.tobytes() == want.tobytes(), (m, beta, name)


def _partitions(m):
    """Cut points of 0..m: halves, an uneven 3-way split, single-row runs at
    both ends, and a run holding only row m (the ones m allows, deduplicated)."""
    n = m + 1
    cases = ([n // 2], [n // 5, n // 5 + n // 2], [1, m], [m])
    return sorted({tuple(sorted({c for c in cuts if 0 < c < n})) for cuts in cases})


class TestRowRuns:
    """The family is solved in contiguous runs of rows, one thread per run;
    each row's search reads only its own row, so any split gives the bits of
    one run over all rows."""

    @pytest.mark.parametrize("beta", [1e-4, 1e-8])
    @pytest.mark.parametrize("m", [1, 10, 100, 250])
    def test_any_split_matches_one_run(self, monkeypatch, m, beta):
        fam = _PolyFamily(m, beta)
        every = np.arange(m + 1)
        whole = sensitivity._solve_rows(fam, every)
        for cuts in _partitions(m):
            parts = [sensitivity._solve_rows(fam, rows) for rows in np.split(every, cuts)]
            for got, want in zip(zip(*parts), whole):
                assert np.concatenate(got).tobytes() == want.tobytes(), (m, beta, cuts)
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 1)
        one = epsilon_table(m, beta)
        for name, want in zip(("t_low", "t_high", "residual_low", "residual_high"), whole):
            assert getattr(one, name).tobytes() == want.tobytes(), (m, beta, name)
        # three CPUs split m = 250 into three runs; smaller tables stay on one
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 3)
        split = epsilon_table(m, beta)
        for name in TABLE_ARRAYS:
            assert getattr(split, name).tobytes() == getattr(one, name).tobytes(), (m, beta, name)

    @pytest.mark.parametrize(
        "m, cpus, runs",
        [
            (50, 2, 1),
            (100, 2, 1),
            # two 512 KB eval blocks start at m = 180 (91 and 90 rows a block)
            (179, 2, 1),
            (180, 2, 2),
            (250, 1, 1),
            (250, 2, 2),
            (250, 64, 3),
        ],
    )
    def test_run_count_follows_cpus_and_block_size(self, monkeypatch, m, cpus, runs):
        calls = []
        solve_rows = sensitivity._solve_rows

        def spy(fam, rows):
            calls.append((rows, threading.get_ident()))
            return solve_rows(fam, rows)

        monkeypatch.setattr(sensitivity, "_solve_rows", spy)
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        epsilon_table(m, 1e-6)
        assert threading.active_count() == before
        assert len(calls) == runs
        rows = np.concatenate([r for r, _ in sorted(calls, key=lambda c: c[0][0])])
        assert np.array_equal(rows, np.arange(m + 1))
        in_caller = [ident == threading.get_ident() for _, ident in calls]
        assert in_caller == [runs == 1] * runs

    def test_two_run_build_peak_stays_under_its_bound(self, monkeypatch):
        # perfbench reads the epsilon_tables op_peak_mb the same way (3.16 MiB
        # with 256 KB eval blocks, 3.24 with 512 KB); larger blocks, or 512 KB
        # build blocks (4.42), would break its 10% bound
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
        epsilon_table(250, 1e-6)  # the first threaded build imports concurrent.futures
        tracemalloc.start()
        try:
            epsilon_table(250, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.40 * 2**20

    def test_bracket_failure_in_a_worker_is_raised_and_joined(self, monkeypatch):
        # with t capped at 1 the top rows (t_high > 1 at m = 250) find no sign
        # change to the right; they lie in the second of two runs
        monkeypatch.setattr(sensitivity, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sensitivity, "_U_CAP", 0.0)
        raised_in = []
        expand = sensitivity._expand_brackets

        def spy(*args, **kwargs):
            try:
                return expand(*args, **kwargs)
            except BracketFailure:
                raised_in.append(threading.current_thread())
                raise

        monkeypatch.setattr(sensitivity, "_expand_brackets", spy)
        before = threading.active_count()
        with pytest.raises(BracketFailure, match="no sign change"):
            epsilon_table(250, 1e-6)
        assert threading.active_count() == before
        assert raised_in and threading.current_thread() not in raised_in


class TestExplicitUpperBound:
    def test_hand_value(self):
        assert explicit_upper_bound(2, 1, 0.5) == pytest.approx(0.875)

    def test_k_equals_m_is_one(self):
        assert explicit_upper_bound(7, 7, 1e-6) == 1.0

    def test_within_unit_interval(self):
        for m in (3, 50, 400):
            vals = [explicit_upper_bound(m, k, 1e-5) for k in range(m + 1)]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert vals[-1] == 1.0

    def test_k_zero_extension_is_defined(self):
        v = explicit_upper_bound(100, 0, 1e-7)
        assert 0.0 < v < 1.0

    def test_dominates_interval_upper_bound_away_from_saturation(self):
        # the column is the closed form at beta / 2, a proven upper bound on
        # eps_high for every k = 0..m, saturation at k = m-1 and k = m included
        tab = oracle.cached_table(100, 1e-8)
        assert np.all(tab.eps_explicit >= tab.eps_high)

    def test_full_beta_form_does_not_bound_two_sided_interval(self):
        # at the full beta the polynomial is still positive at
        # t = 1 - explicit_upper_bound, so t_low lies below it and eps_high
        # exceeds the one-sided form; at beta / 2 the sign flips
        m, k, beta = 10, 1, 1e-6
        full = oracle.poly_residual_exact(m, k, beta, 1.0 - explicit_upper_bound(m, k, beta))
        half = oracle.poly_residual_exact(m, k, beta, 1.0 - explicit_upper_bound(m, k, beta / 2))
        assert full > 0.0
        assert half <= 0.0


class TestActiveCounts:
    def test_toy_counts_agree(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        cert = closed_form_certificate(lp, sol)
        assert count_active_primal(sol) == 2
        assert count_active_dual(lp, cert) == 2

    def test_idle_agents_not_counted(self):
        agents = tuple(
            AgentProfile(n=1, c=[c], d=[2.0], A=[[1.0]]) for c in (0.5, 2.0)
        )
        prob = SharingProblem(p=1, n0=1, b=[10.0], agents=agents)
        lp = assemble(prob)
        sol = solve_primal(lp)
        assert count_active_primal(sol) == 0
        assert count_active_dual(lp, closed_form_certificate(lp, sol)) == 0

    def test_all_agents_at_limits_counts_m(self):
        agents = tuple(
            AgentProfile(n=1, c=[-c], d=[1.0], A=[[1.0]]) for c in (3.0, 2.0, 1.5)
        )
        prob = SharingProblem(p=1, n0=1, b=[10.0], agents=agents)
        lp = assemble(prob)
        sol = solve_primal(lp)
        cert = closed_form_certificate(lp, sol)
        assert np.all(cert.h > 0.0)
        assert count_active_primal(sol) == count_active_dual(lp, cert) == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_primal_and_dual_counts_agree_on_random_instances(self, seed):
        rng = np.random.default_rng(4000 + seed)
        checked = 0
        while checked < 20:
            lp = assemble(oracle.random_sharing_problem(rng))
            sol = solve_primal(lp)
            if not sol.clean:
                continue
            checked += 1
            cert = closed_form_certificate(lp, sol)
            assert count_active_primal(sol) == count_active_dual(lp, cert)

    def test_no_upper_limits_bounds_count_by_resources(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            prob = oracle.random_unbounded_free_problem(rng)
            sol = solve_primal(assemble(prob))
            assert count_active_primal(sol) <= prob.p


class TestSensitivityInterval:
    def test_row_lookup(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        tab = epsilon_table(2, 0.1)
        lo, hi, s = sensitivity_interval(sol, tab)
        assert s == 2
        assert hi == 1.0  # saturated count selects the k = m row
        assert lo == tab.eps_low[2]

    def test_rejects_mismatched_m(self):
        lp = assemble(toy_problem())
        sol = solve_primal(lp)
        with pytest.raises(ValueError, match="m="):
            sensitivity_interval(sol, epsilon_table(5, 0.1))
