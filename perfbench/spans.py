"""Span recorder for the traced run.

Spans are recorded from the benchmark's own code around each call into a
polytax layer. Each span keeps its name, start, end, parent span and op
id; spans stay in memory until `dump` writes them out. With `memory=True`
each span also records its tracemalloc peak above the level at its start.
A disabled recorder hands out a shared no-op context, so untraced ops pay
one method call per layer call.
"""
from __future__ import annotations

import contextlib
import json
import statistics
import time
import tracemalloc
from collections import defaultdict

# Counts that are totals over the run; every other count is a per-op median.
TOTAL_COUNTS = frozenset({"cli.exit_unexpected", "ingest.raised", "model.diagnostics"})

_NOOP = contextlib.nullcontext()


class Recorder:
    def __init__(self, enabled: bool = False, memory: bool = False):
        self.enabled = enabled
        self.memory = memory
        self.op = None
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._running_peak: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else _NOOP

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name].append(value)

    @contextlib.contextmanager
    def _span(self, name: str):
        span = {"name": name, "op": self.op,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._running_peak:
                self._running_peak[-1] = max(self._running_peak[-1], peak)
            self._running_peak.append(0)
            base = current
            tracemalloc.reset_peak()
        span["start"] = time.perf_counter()
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if self.memory:
                peak = max(self._running_peak.pop(), tracemalloc.get_traced_memory()[1])
                span["peak_bytes"] = peak - base
                if self._running_peak:
                    self._running_peak[-1] = max(self._running_peak[-1], peak)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": self.counts}, f)


@contextlib.contextmanager
def memory_tracing(rec: Recorder):
    if not rec.memory:
        yield
        return
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def spans_inside(rec: Recorder, module, attr: str, name: str):
    """Wrap `module.attr` so calls made by polytax itself record a span.

    Used where one public function calls another on the same input (parse
    and merge call validate), so the outer span's self time excludes it.
    """
    if not rec.enabled:
        yield
        return
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with rec.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, original)


def layer_metrics(timing: Recorder, memory: Recorder | None = None) -> dict[str, float]:
    """`<span>.ms`, `<span>.self_ms` (medians), `<span>.peak_mb` (max), counts."""
    durations, selfs = defaultdict(list), defaultdict(list)
    for span, own in zip(timing.spans, timing.self_times()):
        durations[span["name"]].append(span["end"] - span["start"])
        selfs[span["name"]].append(own)
    out = {}
    for name, values in durations.items():
        out[f"{name}.ms"] = statistics.median(values) * 1e3
        out[f"{name}.self_ms"] = statistics.median(selfs[name]) * 1e3
    if memory is not None:
        for span in memory.spans:
            key = f"{span['name']}.peak_mb"
            out[key] = max(out.get(key, 0.0), span["peak_bytes"] / 2**20)
    for name, values in timing.counts.items():
        out[name] = sum(values) if name in TOTAL_COUNTS else statistics.median(values)
    return out
