"""Span tracing for the benchmark's traced run.

Hooks are installed from the benchmark's own files, never inside the
program: each hook names a public entry point by dotted path (for
example ``repro.fl.nn.backends.numpy_col2im``), and :class:`Tracer`
replaces the attribute with a wrapper that records one span per call —
name, start, end and the span that was open when it started — plus
optional counters computed from the call's arguments and result (GEMM
flop, im2col bytes, bids priced).  Counters are computed after the end
timestamp, so they never inflate a span.

A target that no longer resolves is recorded in :attr:`Tracer.missing`
instead of silently measuring zero, and :func:`layer_metrics` reports
any per-layer metric whose spans a workload should exercise but never
saw as *absent* (left out of the metrics) rather than as 0.

Spans stay in memory and are written out once, at the end of the run
(:meth:`Tracer.export` / :func:`write_trace`).
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Any, Callable, Iterable, Mapping

Counter = Callable[[tuple, dict, Any], Mapping[str, float]]


@dataclass(frozen=True)
class Hook:
    """One traced entry point: span name, dotted target, optional counter."""

    name: str
    target: str
    count: Counter | None = None


def resolve(target: str) -> tuple[Any, str]:
    """``(owner, attribute)`` for a dotted name, or raise ``LookupError``.

    The longest importable module prefix is imported and the remainder is
    walked with ``getattr``, so both ``pkg.mod.func`` and
    ``pkg.mod.Class.method`` resolve.  The owner is the object whose
    attribute the call site looks up at call time.
    """
    parts = target.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for attr in parts[split:-1]:
                owner = getattr(owner, attr)
            getattr(owner, parts[-1])
        except AttributeError:
            break
        return owner, parts[-1]
    raise LookupError(f"cannot resolve {target}")


class Tracer:
    """In-memory span recorder; ``install`` wraps hooks, ``uninstall`` undoes.

    A span is ``[name_id, start, end, parent]`` where ``parent`` is the
    enclosing span's record (per thread), turned into an index by
    :meth:`export`.  Appending a record is atomic under the interpreter
    lock, so spans from several threads of one process interleave safely.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._local = threading.local()
        self._installed: list[tuple[Any, str, Any, bool]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        """``fn`` wrapped to record one span (and counters) per call."""
        name_id = self._name_id(name)
        spans, counters, stack_of = self.spans, self.counters, self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            record = [name_id, 0.0, 0.0, stack[-1] if stack else None]
            spans.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0.0) + value
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, hooks: Iterable[Hook]) -> None:
        for hook in hooks:
            try:
                owner, attr = resolve(hook.target)
            except LookupError:
                self.missing.append(hook.name)
                continue
            own = attr in getattr(owner, "__dict__", {})
            original = owner.__dict__[attr] if own else getattr(owner, attr)
            setattr(owner, attr, self.wrap(hook.name, original, hook.count))
            self._installed.append((owner, attr, original, own))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    def export(self) -> dict:
        """Plain-JSON form: name table, span rows with parent indices."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        rows = [
            [name_id, start, end, -1 if parent is None else index[id(parent)]]
            for name_id, start, end, parent in self.spans
        ]
        return {
            "names": list(self.names),
            "spans": rows,
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }


def write_trace(path: Path, trace: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(trace))
    os.replace(tmp, path)


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(trace: dict) -> list[float]:
    """Per span: its duration minus its children's durations.

    A span's parent is the span open on the same thread when it started,
    and a child ends before its parent does, so children never overlap
    each other or outlive their parent.
    """
    spans = trace["spans"]
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def top_level_coverage(trace: dict) -> float:
    """Share of the trace's wall window covered by parentless spans."""
    spans = trace["spans"]
    if not spans:
        return 0.0
    window = max(s[2] for s in spans) - min(s[1] for s in spans)
    covered = _union_length([(s[1], s[2]) for s in spans if s[3] < 0])
    return covered / window if window > 0 else 0.0


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LayerMetric:
    """How one per-layer metric is read from a trace.

    ``kind`` is ``total`` (summed inclusive seconds), ``self`` (summed self
    seconds), ``calls`` (span count), ``median_ms`` (median span duration)
    or ``counter`` (a hook counter named like the metric).  ``external``
    metrics are measured by the workload itself, not from spans.
    """

    name: str
    unit: str
    kind: str
    spans: tuple[str, ...] = ()


def layer_metrics(
    traces: list[dict],
    table: Iterable[LayerMetric],
    expected: set[str],
    external: Mapping[str, float],
) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Aggregate traces (one per process) into ``{metric: (value, unit)}``.

    A metric is *absent* — returned in the second list and left out of the
    metrics — when one of its spans is expected on this workload but its
    hook is missing or recorded no call; spans a workload does not
    exercise legitimately measure zero.
    """
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    counters: dict[str, float] = {}
    missing: set[str] = set()
    for trace in traces:
        names = trace["names"]
        for (name_id, start, end, _), own in zip(trace["spans"], self_times(trace)):
            name = names[name_id]
            durations.setdefault(name, []).append(end - start)
            selfs[name] = selfs.get(name, 0.0) + own
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0.0) + value
        missing.update(trace["missing"])
    metrics: dict[str, tuple[float, str]] = {}
    absent: list[str] = []
    for metric in table:
        if metric.kind == "external":
            if metric.name in external:
                metrics[metric.name] = (float(external[metric.name]), metric.unit)
            else:
                absent.append(metric.name)
            continue
        if any(s in expected and (s in missing or s not in durations) for s in metric.spans):
            absent.append(metric.name)
            continue
        found = [d for s in metric.spans for d in durations.get(s, ())]
        if metric.kind == "total":
            value = sum(found)
        elif metric.kind == "self":
            value = sum(selfs.get(s, 0.0) for s in metric.spans)
        elif metric.kind == "calls":
            value = float(len(found))
        elif metric.kind == "median_ms":
            value = 1000.0 * median(found) if found else 0.0
        elif metric.kind == "counter":
            value = counters.get(metric.name, 0.0)
        else:  # pragma: no cover - table typo
            raise ValueError(f"unknown metric kind {metric.kind!r}")
        metrics[metric.name] = (value, metric.unit)
    return metrics, absent
