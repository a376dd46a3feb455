"""In-memory spans recorded around calls into the share_sense modules.

Tracing wraps the module-level names the package calls through (for example
``cargo.solve_primal`` or ``arrivals.solve_augmented``) and the benchmark's own
calls, so nothing in the package changes. Each span is (name, start, end,
parent, op id); a span's self time is its duration minus the time its child
spans cover. Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import statistics
import time
from collections import defaultdict

# Span names are "<module>.<what>[.<call site>]"; the module prefix attributes
# self time to a layer. "op" is the root of one benchmark operation and
# belongs to the benchmark itself.
LAYERS = ("cargo", "lp_core", "duality", "arrivals", "sensitivity", "serialize")


class Tracer:
    """Span recorder. Disabled, ``span`` costs one attribute test."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self.op_id]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def span(self, name: str):
        """Context manager recording span ``name`` while tracing is enabled."""
        return self._span(name) if self.enabled else contextlib.nullcontext()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper recording span ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            rec = self._open(name)
            try:
                return original(*args, **kwargs)
            finally:
                self._close(rec)

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def install(self, wraps) -> None:
        """Install ``(owner, attr, span name)`` wrappers. They record only
        while ``enabled`` is set, which the benchmark does around each op."""
        for owner, attr, name in wraps:
            self.wrap(owner, attr, name)

    def uninstall(self) -> None:
        """Put every wrapped name back."""
        self.enabled = False
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "span", "parent", "name", "start_ns", "end_ns"])
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow([op, i, parent, name, int(start * 1e9), int(end * 1e9)])


class SpanStats:
    """Per-name durations and self times of a finished trace."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.durations = defaultdict(list)  # name -> seconds per span
        self.self_total = defaultdict(float)  # name -> summed self seconds
        self.op_time = {}  # op id -> seconds of its root span
        self.op_child_time = {}  # op id -> seconds covered by direct children
        for i, (name, start, end, parent, op) in enumerate(spans):
            self.durations[name].append(end - start)
            self.self_total[name] += end - start - child_time[i]
            if name == "op":
                self.op_time[op] = end - start
                self.op_child_time[op] = child_time[i]

    @property
    def ops(self) -> int:
        return len(self.op_time)

    @property
    def total_op_time(self) -> float:
        return sum(self.op_time.values())

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def calls_per_op(self, name: str) -> float:
        return self.calls(name) / max(self.ops, 1)

    def share(self, *names: str) -> float:
        """Inclusive time of the named spans as a fraction of op time."""
        total = self.total_op_time
        return sum(sum(self.durations.get(n, ())) for n in names) / total if total else 0.0

    def self_share(self, *names: str) -> float:
        total = self.total_op_time
        return sum(self.self_total.get(n, 0.0) for n in names) / total if total else 0.0

    def layer_self_share(self, layer: str) -> float:
        return self.self_share(*(n for n in self.self_total if n.split(".", 1)[0] == layer))

    def child_coverage(self) -> float:
        """Fraction of op wall time covered by the op's direct child spans."""
        total = self.total_op_time
        return sum(self.op_child_time.values()) / total if total else 0.0

    def table(self) -> list[dict]:
        """One row per span name: calls and milliseconds per op, and the
        median and 99th percentile of one call in milliseconds."""
        ops = max(self.ops, 1)
        rows = []
        for name, durs in sorted(self.durations.items()):
            ms = sorted(d * 1e3 for d in durs)
            rows.append({
                "name": name,
                "calls_per_op": len(ms) / ops,
                "ms_per_op": sum(ms) / ops,
                "self_ms_per_op": self.self_total[name] * 1e3 / ops,
                "call_ms_p50": statistics.median(ms),
                "call_ms_p99": ms[min(len(ms) - 1, int(0.99 * len(ms)))],
            })
        return rows
