#!/usr/bin/env python3
"""share-sense benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src/``.
One process, one worker, one client in a closed loop: op ``i + 1`` starts when
op ``i`` has finished and been checked. Ops run until ``--seconds`` have passed
and the workload's minimum op count is reached.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
runs every op twice in a row, untraced and then with spans recorded, and
prints the per-layer metrics; the spans go to ``.bench_out/trace/``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the output digest and the workload's own figures. See
perfbench/README.md for the workloads, the metrics and what each layer metric
is expected to move.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from tracing import LAYERS, SpanStats, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 9  # set-ups per untraced run: this process plus fresh ones


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_op(workload, tracer: Tracer, i: int, sink: dict) -> None:
    """Make op ``i``'s inputs, time the op, check its outputs, and add the
    time, digest, facts and any failure to ``sink``. Spans are recorded only
    inside the op, and only when the tracer's wrappers are installed."""
    tracer.op_id = i
    try:
        inp = workload.make_input(i)
        tracer.enabled = tracer.installed
        with tracer.span("op"):
            t0 = time.perf_counter()
            out = workload.run(inp)
            elapsed = time.perf_counter() - t0
        tracer.enabled = False
        sink["times"].append(elapsed)
        failure, digest, fact = workload.check(inp, out)
        sink["facts"].append(fact)
    except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
        tracer.enabled = False
        failure, digest = traceback.format_exc(), "raised"
    sink["digests"].append(digest)
    if failure:
        sink["failures"].append((i, failure))
        print(f"op {i} failed: {failure}", file=sys.stderr)


def measure(workload, tracer: Tracer, seconds: float, wraps=None,
            pause=None, pauses: int = 0) -> tuple[dict, dict]:
    """Run ops 0, 1, ... until ``seconds`` have passed and ``min_ops`` are
    done. With ``wraps``, each op runs twice in a row, untraced and then
    traced, so both sides of the tracing overhead see the same machine state.
    ``pause`` is called ``pauses`` times between ops, spread evenly over the
    ``seconds``; its own time does not count towards them. Returns the
    untraced and the traced sink."""
    plain, traced = ({"times": [], "digests": [], "facts": [], "failures": []} for _ in "ab")
    start = time.perf_counter()
    paused = 0.0
    i = done = 0
    while i < workload.min_ops or time.perf_counter() - start - paused < seconds:
        run_op(workload, tracer, i, plain)
        if wraps:
            tracer.install(wraps)
            try:
                run_op(workload, tracer, i, traced)
            finally:
                tracer.uninstall()
        i += 1
        if done < pauses and time.perf_counter() - start - paused >= seconds * (done + 1) / (pauses + 1):
            t0 = time.perf_counter()
            pause()
            paused += time.perf_counter() - t0
            done += 1
    for _ in range(pauses - done):
        pause()
    return plain, traced


def op_peak_mb(workload, run: dict) -> float:
    """Peak memory that op 0 allocates, traced with tracemalloc in an untimed
    repeat after the measurement: Python objects and numpy array data, the
    op's inputs excluded. Unlike the process's peak RSS it does not depend on
    how much of the shared libraries the host keeps in its page cache, so the
    same op gives the same figure on every run. The repeat is checked like
    any op and must give op 0's digest."""
    inp = workload.make_input(0)
    tracemalloc.start()
    try:
        out = workload.run(inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    failure, digest, _ = workload.check(inp, out)
    if not failure and digest != run["digests"][0]:
        failure = "repeat of op 0 produced other outputs"
    if failure:
        run["failures"].append((0, failure))
        print(f"op 0 repeat failed: {failure}", file=sys.stderr)
    return peak / 2**20


def digest_of(run: dict, ops: int) -> str:
    """Digest over the outputs of the first ``ops`` ops."""
    return hashlib.sha256("".join(run["digests"][:ops]).encode()).hexdigest()[:16]


def setup_in_fresh_process(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(run: dict, setups: list[float], peak_mb: float) -> dict:
    """Op time and set-up time are high percentiles, not medians: on a shared
    host a pure-Python op runs partly at full speed and partly at up to about
    twice that time, and the share of full-speed time drifts from minute to
    minute. A median follows that share; a high percentile sits on the mostly
    slowed ops and set-ups, which every run has."""
    return {
        "setup_s": _percentile(setups, 75),
        "op_ms.p90": _percentile([t * 1e3 for t in run["times"]], 90),
        "op_peak_mb": peak_mb,
    }


def per_layer(stats: SpanStats, ratios: dict, overhead: float) -> dict:
    metrics = {
        "arrivals.solve_augmented.calls": stats.calls_per_op("arrivals.solve_augmented"),
        "arrivals.solve_augmented.share": stats.share("arrivals.solve_augmented"),
        "lp_core.solve_primal.base.share": stats.share("lp_core.solve_primal.base"),
        "lp_core.solve_primal.audit.share": stats.share("lp_core.solve_primal.audit"),
        "cargo.build_problem.share": stats.share("cargo.build_problem"),
        "lp_core.assemble.share": stats.share("lp_core.assemble"),
        "duality.closed_form_certificate.share": stats.share("duality.closed_form_certificate"),
        "arrivals.certificate.self_share": stats.self_share("arrivals.empirical_violation_probability"),
        "serialize.write_outputs.share": stats.share("serialize.write_outputs"),
        "duality.solve_dual_full.share": stats.share("duality.solve_dual_full"),
        "duality.solve_dual_relaxation.share": stats.share("duality.solve_dual_relaxation"),
        "lp_core.solve_primal.dual.calls": stats.calls_per_op("lp_core.solve_primal.dual"),
        "lp_core.solve_primal.dual.share": stats.share("lp_core.solve_primal.dual"),
        "duality.transcribe.self_share": stats.self_share(
            "duality.solve_dual_full", "duality.solve_dual_relaxation"
        ),
        "arrivals.changes_solution.calls": stats.calls_per_op("arrivals.changes_solution"),
        "arrivals.changes_solution.share": stats.share("arrivals.changes_solution"),
        "sensitivity.eval_rows.calls": stats.calls_per_op("sensitivity.eval_rows"),
        "sensitivity.eval_rows.share": stats.share("sensitivity.eval_rows"),
        "sensitivity.golden_max.share": stats.share("sensitivity.golden_max"),
        "sensitivity.expand_brackets.share": stats.share("sensitivity.expand_brackets"),
        "sensitivity.bisect.share": stats.share("sensitivity.bisect"),
        "sensitivity.family_init.share": stats.share("sensitivity.family_init"),
        "sensitivity.explicit_upper_bound.share": stats.share("sensitivity.explicit_upper_bound"),
        "sensitivity.family_bytes": 0.0,
        "cargo.clean_ratio": 0.0,
        "certify.clean_ratio": 0.0,
        "arrivals.audit_ratio": 0.0,
        "arrivals.tie_ratio": 0.0,
        "sensitivity.worst_residual": 0.0,
        "trace.overhead_ratio": overhead,
        "trace.child_coverage": stats.child_coverage(),
        "trace.spans_per_op": len(stats.spans) / max(stats.ops, 1),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = stats.layer_self_share(layer)
    unknown = set(ratios) - set(metrics)
    if unknown:
        raise KeyError(f"workload ratios without a metric: {sorted(unknown)}")
    metrics.update(ratios)
    return metrics


def machine_info(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((SRC / "share_sense").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
    }


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, asked through its C API."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(lib for lib in libs if lib.startswith("/")):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "share_sense" / "__init__.py").is_file():
        print(f"no share_sense package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # one worker: run_campaign reads its pool size from SHARE_SENSE_THREADS,
    # and OpenBLAS (read when numpy loads) would otherwise start a thread per
    # core whose spinning competes with the measured thread on a small machine
    os.environ.pop("SHARE_SENSE_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))

    # set-up time counts from before the package (and numpy) is imported
    t0 = time.perf_counter()
    import workloads

    tracer = Tracer()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, tracer)
    workload.setup()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace == 0:
        # fresh set-ups are spread over the measurement, so that they sample
        # the host's speed over the whole run rather than one moment of it
        setups = [setup_s]
        run, _ = measure(workload, tracer, args.seconds,
                         pause=lambda: setups.append(setup_in_fresh_process(args)),
                         pauses=SETUP_SAMPLES - 1)
        peak_mb = op_peak_mb(workload, run)
        try:
            after = workload.after()
        except Exception:  # noqa: BLE001 - counted like a failed op
            after = {}
            run["failures"].append(("after", traceback.format_exc()))
            print(f"after the loop: {run['failures'][-1][1]}", file=sys.stderr)
        values = end_to_end(run, setups, peak_mb)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        extra = {"setup_s.samples": setups, "op_ms": [t * 1e3 for t in run["times"]]}
        extra_attempted = 1 + workload.after_ops  # the repeat of op 0, and after()
    else:
        run, traced = measure(workload, tracer, args.seconds, workload.wraps())
        after, extra_attempted = {}, 0
        for i, (a, b) in enumerate(zip(run["digests"], traced["digests"])):
            if a != b and all(j != i for j, _ in traced["failures"]):
                traced["failures"].append((i, "traced op produced other outputs"))
        run["failures"] += traced["failures"]
        stats = SpanStats(tracer.spans)
        overhead = sum(traced["times"]) / sum(run["times"])
        values = per_layer(stats, workload.ratios(traced["facts"], stats), overhead)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write(trace_dir / f"{stem}.spans.csv")
        extra = {"spans": stats.table()}
        (trace_dir / f"{stem}.summary.json").write_text(json.dumps(extra, indent=1) + "\n")
        for row in extra["spans"]:
            print("span {name:<42} calls/op {calls_per_op:9.2f}  ms/op {ms_per_op:10.3f}  "
                  "self ms/op {self_ms_per_op:10.3f}  call ms p50 {call_ms_p50:9.4f}  "
                  "p99 {call_ms_p99:9.4f}".format(**row))

    if set(values) != set(units):
        raise KeyError(f"metrics do not match BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    ops = len(run["digests"])
    attempted = ops * (1 + args.trace) + extra_attempted
    failed = len(run["failures"])
    digest = digest_of(run, workload.min_ops)
    report = {
        "workload": args.workload,
        "ops": ops,
        "ops_per_s": len(run["times"]) / sum(run["times"]),
        "op_ms.p50": statistics.median(run["times"]) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_ratio": failed / attempted,
        "digest": digest,
        **workload.report(run["facts"]),
        **after,
    }
    machine = machine_info(args.seed)
    print("machine " + json.dumps(machine))
    print("report " + json.dumps(report))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"machine": machine, "report": report, **extra, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
