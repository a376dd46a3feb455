"""The three benchmark workloads, each a closed loop with one client.

A workload generates the inputs of op ``i`` from the seed (untimed), runs the
op through the package's public API (timed), and checks its outputs (untimed).
Every op of a run is checked; an op that raises or fails its check counts as
failed. Tolerances are those of acceptance criteria 4 and 6.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

from share_sense import arrivals, cargo, duality, lp_core, rng, sensitivity, serialize

# Op index used for the untimed warm-up op in set-up; measured ops count from 0.
WARMUP = 999_999


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


class Workload:
    name = ""
    min_ops = 1  # ops every run completes, and the prefix its digest covers
    after_ops = 0  # checked operations that after() runs

    def __init__(self, root: Path, seed: int, tracer):
        self.root = root
        self.seed = seed
        self.tracer = tracer

    def setup(self) -> None:
        """Build what every op shares, then run one untimed op of this
        workload's kind so one-time library initialization lands in set-up."""
        inp = self.make_input(WARMUP)
        failure, _, _ = self.check(inp, self.run(inp))
        if failure:
            raise RuntimeError(f"warm-up op failed its check: {failure}")

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[str | None, str, dict]:
        """(failure reason or None, digest of the op's outputs, the few facts
        about the op that the run's ratios and report need)."""
        raise NotImplementedError

    def wraps(self) -> list[tuple[object, str, str]]:
        """(owner, attribute, span name) for every name the traced run wraps."""
        raise NotImplementedError

    def ratios(self, facts: list[dict], stats) -> dict[str, float]:
        """Per-layer ratios from the facts and spans of the traced ops."""
        raise NotImplementedError

    def report(self, facts: list[dict]) -> dict[str, float]:
        """Workload-specific figures printed with the end-to-end metrics."""
        return {}

    def after(self) -> dict[str, float]:
        """Untimed, checked work after the timed loop of an untraced run.
        Returns figures for the report; raises if a check fails."""
        return {}


class CampaignM100(Workload):
    """Trials of configs/cargo_m100_uniform.json through cargo.run_campaign,
    written out as ``simulate`` writes them. One op is one trial: op ``i``
    runs the config with ``trials=1`` and ``seed = 1_000_000 * seed + i``."""

    name = "campaign_m100"
    min_ops = 10

    def setup(self) -> None:
        self.config = serialize.load_cargo_config(
            self.root / "configs" / "cargo_m100_uniform.json"
        )
        self.table = sensitivity.epsilon_table(self.config.m, self.config.beta)
        self.out_dir = self.root / ".bench_out" / self.name
        self.out_dir.mkdir(parents=True, exist_ok=True)
        super().setup()

    def make_input(self, i: int):
        return dataclasses.replace(self.config, trials=1, seed=1_000_000 * self.seed + i)

    def run(self, config):
        records, summary = cargo.run_campaign(config, self.table)
        with self.tracer.span("serialize.write_outputs"):
            serialize.write_trials_csv(records, self.out_dir / "trials.csv")
            serialize.write_epsilon_csv(self.table, self.out_dir / "epsilon.csv")
        return records, summary

    def check(self, config, out):
        records, summary = out
        digest = _sha((self.out_dir / "trials.csv").read_bytes())
        facts = {
            "trials": len(records),
            "clean": sum(r.clean for r in records),
            "ties": sum(r.tie_count for r in records),
        }
        # run_trial raises on any audit mismatch or clean-trial count mismatch
        if summary.trials != config.trials or len(records) != config.trials:
            return f"{len(records)} trial records for {config.trials} trials", digest, facts
        for r in records:
            if not r.eps_low <= r.eps_high:
                failure = f"trial {r.trial_index}: eps_low {r.eps_low} > eps_high {r.eps_high}"
                return failure, digest, facts
        return None, digest, facts

    def wraps(self):
        return [
            (cargo, "run_campaign", "cargo.run_campaign"),
            (cargo, "run_trial", "cargo.run_trial"),
            (cargo, "build_problem", "cargo.build_problem"),
            (cargo.CargoArrivalSampler, "sample_batch", "cargo.sample_batch"),
            (cargo, "assemble", "lp_core.assemble"),
            (cargo, "solve_primal", "lp_core.solve_primal.base"),
            (cargo, "count_active_primal", "sensitivity.count_active_primal"),
            (cargo, "count_active_dual", "sensitivity.count_active_dual"),
            (cargo, "closed_form_certificate", "duality.closed_form_certificate"),
            (cargo, "empirical_violation_probability", "arrivals.empirical_violation_probability"),
            (arrivals, "solve_augmented", "arrivals.solve_augmented"),
            (arrivals, "augment", "arrivals.augment"),
            (arrivals, "solve_primal", "lp_core.solve_primal.audit"),
            (serialize, "write_trials_csv", "serialize.write_trials_csv"),
            (serialize, "write_epsilon_csv", "serialize.write_epsilon_csv"),
        ]

    def ratios(self, facts, stats):
        trials = sum(f["trials"] for f in facts)
        draws = trials * self.config.n_arrivals
        return {
            "cargo.clean_ratio": sum(f["clean"] for f in facts) / trials,
            "arrivals.audit_ratio": stats.calls("arrivals.solve_augmented") / draws,
            "arrivals.tie_ratio": sum(f["ties"] for f in facts) / draws,
        }


class EpsilonTables(Workload):
    """Epsilon-table builds. One op builds the m=250 table for one beta drawn
    log-uniformly from [1e-8, 1e-4]. After the timed loop of an untraced run,
    one m=1000 table is built for op 0's beta, timed and checked; its time is
    a report figure, not a bounded metric (see README, "Workloads")."""

    name = "epsilon_tables"
    min_ops = 20
    after_ops = 1
    M = 250
    LARGE_M = 1000

    def make_input(self, i: int) -> float:
        gen = np.random.default_rng([self.seed, i])
        return float(10.0 ** gen.uniform(-8.0, -4.0))

    def run(self, beta: float):
        return sensitivity.epsilon_table(self.M, beta)

    def check(self, beta, table):
        digest = _sha(table.eps_low.tobytes(), table.eps_high.tobytes())
        failure, worst = self._failure(table, self.M, beta)
        return failure, digest, {"worst_residual": worst}

    @staticmethod
    def _failure(table, m: int, beta: float) -> tuple[str | None, float]:
        # EpsilonTable.__post_init__ already enforced the ordering invariants
        # and the 1e-10 residual gate; what is left is shape and beta.
        if table.m != m or table.beta != beta or table.eps_low.shape != (m + 1,):
            return f"table for m={m} came back with m={table.m}, beta={table.beta}", 0.0
        resid = np.concatenate([table.residual_low[:m], table.residual_high])
        return None, float(np.nanmax(np.abs(resid)))

    def after(self) -> dict:
        beta = self.make_input(0)
        start = time.perf_counter()
        table = sensitivity.epsilon_table(self.LARGE_M, beta)
        seconds = time.perf_counter() - start
        failure, worst = self._failure(table, self.LARGE_M, beta)
        if failure:
            raise RuntimeError(failure)
        return {f"table_s.m{self.LARGE_M}": seconds, f"worst_residual.m{self.LARGE_M}": worst}

    def wraps(self):
        family = sensitivity._PolyFamily
        return [
            (sensitivity, "epsilon_table", "sensitivity.epsilon_table"),
            (family, "__init__", "sensitivity.family_init"),
            (family, "eval_rows", "sensitivity.eval_rows"),
            (sensitivity, "_solve_family", "sensitivity.solve_family"),
            (sensitivity, "_golden_max", "sensitivity.golden_max"),
            (sensitivity, "_expand_brackets", "sensitivity.expand_brackets"),
            (sensitivity, "_bisect", "sensitivity.bisect"),
            (sensitivity, "explicit_upper_bound", "sensitivity.explicit_upper_bound"),
        ]

    def ratios(self, facts, stats):
        return {
            "sensitivity.worst_residual": max(f["worst_residual"] for f in facts),
            # computed, not measured: the float64 coefficient and exponent
            # arrays of one (m+1) x (4m+1) polynomial family
            "sensitivity.family_bytes": 2.0 * 8.0 * (self.M + 1) * (4 * self.M + 1),
        }

    def report(self, facts):
        return {"worst_residual": max(f["worst_residual"] for f in facts)}


class CertifyM50(Workload):
    """Cargo instances with m=50 on a half-size aircraft, certified step by
    step: primal solve, closed-form certificate, both explicit duals, both
    active counts, the sensitivity interval, then 1000 newcomers screened one
    at a time with arrivals.changes_solution."""

    name = "certify_m50"
    min_ops = 20
    ARRIVALS = 1000
    RECHECK_EVERY = 100

    def setup(self) -> None:
        base = serialize.load_cargo_config(
            self.root / "configs" / "cargo_m100_uniform.json"
        )
        self.config = dataclasses.replace(base, m=50, W=10000.0, V=15.0)
        self.sampler = cargo.CargoArrivalSampler(self.config)
        self.table = sensitivity.epsilon_table(self.config.m, self.config.beta)
        super().setup()

    def make_input(self, i: int):
        problem = cargo.build_problem(self.config, rng.stream(self.seed, i, "agents"))
        cs, ds, As = self.sampler.sample_batch(
            self.ARRIVALS, rng.stream(self.seed, i, "arrivals")
        )
        newcomers = [
            lp_core.AgentProfile(n=1, c=cs[j : j + 1], d=ds[j : j + 1], A=As[:, j : j + 1])
            for j in range(self.ARRIVALS)
        ]
        return lp_core.assemble(problem), newcomers

    def run(self, inp):
        lp, newcomers = inp
        sol = lp_core.solve_primal(lp)
        closed = duality.closed_form_certificate(lp, sol)
        full = duality.solve_dual_full(lp)
        lam_rel, h_rel = duality.solve_dual_relaxation(lp)
        s_primal = sensitivity.count_active_primal(sol)
        s_dual = sensitivity.count_active_dual(lp, closed)
        interval = sensitivity.sensitivity_interval(sol, self.table)
        verdicts, seconds = [], []
        # changes_solution refuses flagged bases by design (DegenerateBase),
        # so a flagged instance skips only its arrival stream
        if sol.clean:
            for newcomer in newcomers:
                start = time.perf_counter()
                verdicts.append(arrivals.changes_solution(lp, sol, newcomer))
                seconds.append(time.perf_counter() - start)
        return sol, closed, full, lam_rel, h_rel, s_primal, s_dual, interval, verdicts, seconds

    def check(self, inp, out):
        lp, newcomers = inp
        sol, _, _, _, _, s_primal, s_dual, interval, verdicts, seconds = out
        digest = _sha(
            sol.objective, s_primal, s_dual, interval, sol.clean,
            [(v.changes, v.tie) for v in verdicts],
        )
        failure = self._failure(lp, newcomers, out)
        return failure, digest, {"clean": sol.clean, "check_s": seconds, "s_star": s_primal}

    def _failure(self, lp, newcomers, out) -> str | None:
        sol, closed, full, lam_rel, h_rel, s_primal, s_dual, interval, verdicts, _ = out
        lo, hi, s_star = interval
        gap = abs(duality.dual_objective(lp, full) - sol.objective) / (1.0 + abs(sol.objective))
        if not gap < 1e-7:
            return f"duality gap {gap:.3e}"
        if s_star != s_primal or not lo <= hi:
            return f"interval ({lo}, {hi}) for s*={s_star}, primal count {s_primal}"
        if not sol.clean:
            return None  # duals need not be unique at a flagged optimum
        spread = max(
            float(np.max(np.abs(closed.lam - full.lam))),
            float(np.max(np.abs(closed.lam - lam_rel))),
            float(np.max(np.abs(full.lam - lam_rel))),
        )
        if not spread < 1e-6:
            return f"multiplier spread {spread:.3e}"
        dh = float(np.max(np.abs(h_rel - duality.relaxation_values(lp, full.nu))))
        if not dh < 1e-7:
            return f"relaxation identity off by {dh:.3e}"
        if s_primal != s_dual:
            return f"primal count {s_primal} != dual count {s_dual}"
        for j in range(0, len(newcomers), self.RECHECK_EVERY):
            if verdicts[j].tie:
                continue
            plus = arrivals.solve_augmented(lp, newcomers[j])
            moved = bool(
                np.any(np.abs(plus.x[plus.agent_index_map[-1]]) > 1e-7)
            ) or abs(plus.objective - sol.objective) > 1e-8 * (1.0 + abs(sol.objective))
            if moved != verdicts[j].changes:
                return f"arrival {j}: certificate {verdicts[j].changes}, re-solve {moved}"
        return None

    def wraps(self):
        return [
            (lp_core, "solve_primal", "lp_core.solve_primal.base"),
            (duality, "closed_form_certificate", "duality.closed_form_certificate"),
            (duality, "solve_dual_full", "duality.solve_dual_full"),
            (duality, "solve_dual_relaxation", "duality.solve_dual_relaxation"),
            (duality, "solve_primal", "lp_core.solve_primal.dual"),
            (sensitivity, "count_active_primal", "sensitivity.count_active_primal"),
            (sensitivity, "count_active_dual", "sensitivity.count_active_dual"),
            (sensitivity, "sensitivity_interval", "sensitivity.sensitivity_interval"),
            (arrivals, "changes_solution", "arrivals.changes_solution"),
        ]

    def ratios(self, facts, stats):
        return {"certify.clean_ratio": sum(f["clean"] for f in facts) / len(facts)}

    def report(self, facts):
        us = np.asarray([s for f in facts for s in f["check_s"]]) * 1e6
        return {
            "arrival_check_us.p50": float(np.percentile(us, 50)),
            "arrival_check_us.p99": float(np.percentile(us, 99)),
            "arrival_checks": len(us),
            "s_star.min": min(f["s_star"] for f in facts),
            "s_star.max": max(f["s_star"] for f in facts),
        }


WORKLOADS = {w.name: w for w in (CampaignM100, EpsilonTables, CertifyM50)}
