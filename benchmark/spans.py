"""In-memory spans and counts for the traced run, and the statistics over them.

A span is (name, start, end, parent index, peak bytes or None); all
times are `time.perf_counter()` values, which on Linux read CLOCK_MONOTONIC
and are therefore comparable between the benchmark and its child processes.
The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
import resource
import statistics
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

# Percentiles tried for a tail figure, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
MIN_BEYOND = 10  # samples that must lie above a reported tail percentile


class Tracer:
    """Spans (name, start, end, parent, peak) and counts of one traced run.

    Each thread keeps its own stack of open spans. A span opened by a thread
    with none open, such as a pool worker's, gets as parent the innermost span
    open in the thread that made the tracer.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.marks: dict[str, float] = {}
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def is_open(self, name: str) -> bool:
        """Whether the calling thread is inside a span of this name."""
        return any(self.spans[idx][0] == name for idx in self._stack())

    @contextmanager
    def span(self, name: str, memory: str = ""):
        """Time the block and, if asked, the memory it adds at its peak.

        memory="tracemalloc" records the peak of allocations traced during the
        block; it slows code that allocates many small objects. memory="rss"
        records how far the block raised the process's peak RSS, at no cost,
        which is 0 when an earlier peak was higher.
        """
        stack = self._stack()
        owner = self._stacks.get(self._owner) or [None]
        parent = stack[-1] if stack else owner[-1]
        with self._lock:
            self.spans.append([name, 0.0, 0.0, parent, None])
            idx = len(self.spans) - 1
        stack.append(idx)
        if memory == "tracemalloc":
            tracemalloc.start()
        elif memory == "rss":
            rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            if memory == "tracemalloc":
                self.spans[idx][4] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            elif memory == "rss":
                rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                self.spans[idx][4] = (rss_after - rss_before) * 1024
            stack.pop()
            self.spans[idx][1:3] = [start, end]

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def dump(self, path) -> None:
        """Write spans, counts and marks; the `trace.flush` mark times the write."""
        self.marks["trace.flush"] = time.perf_counter()
        doc = {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "marks": self.marks,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def self_time_by_name(spans: list) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least MIN_BEYOND of n samples above it.

    Falls back to the median when there are too few samples for any tail.
    """
    best = TAIL_LADDER[0]
    for pct in TAIL_LADDER:
        if round(n * (100.0 - pct) / 100.0, 6) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing_summary(values: list[float]) -> dict:
    """Median, the tail percentile the sample count supports, and the count."""
    if not values:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "samples": 0}
    pct = tail_percentile(len(values))
    return {
        "p50": statistics.median(values),
        "tail": percentile(values, pct),
        "tail_pct": pct,
        "samples": len(values),
    }
