"""In-memory spans recorded around the benchmark's calls into neosim.

The benchmark wraps every call it makes into a neosim layer in
``tracer.call("<layer>.<function>", fn, ...)``. ``NullTracer`` runs the call
bare (end-to-end runs); ``Tracer`` records a span with its name, start, end,
parent and group (the op id). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from dataclasses import dataclass
from typing import Optional


@dataclass
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    group: str  # the op id, e.g. "op7", "setup2", "census.cache_zipf.3"

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class NullTracer:
    """Runs calls untraced; the end-to-end runs use this."""

    enabled = False

    def call(self, name, fn, /, *args, **kwargs):
        return fn(*args, **kwargs)

    def span(self, name, group=None):
        return contextlib.nullcontext()


class Tracer(NullTracer):
    """Records one span per call; spans nest by the call stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name, group=None):
        parent = self._open[-1] if self._open else None
        if group is None:
            group = self.spans[parent].group if parent is not None else ""
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, group)
        self.spans.append(span)
        self._open.append(span.span_id)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def call(self, name, fn, /, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)


def self_times_ns(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children are merged first, so overlaps count once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.duration_ns - covered)
    return out


def group_totals_ms(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> group -> summed milliseconds of that name's spans in the group."""
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        per_group = out.setdefault(span.name, {})
        per_group[span.group] = per_group.get(span.group, 0.0) + span.duration_ns / 1e6
    return out


def median_per_group(per_group: dict[str, float]) -> Optional[float]:
    """Median over groups (ops), or None when no op made the call."""
    return statistics.median(per_group.values()) if per_group else None


def spans_to_dicts(spans: list[Span]) -> list[dict]:
    self_ns = self_times_ns(spans)
    return [
        {
            "id": s.span_id,
            "name": s.name,
            "group": s.group,
            "parent": s.parent,
            "start_ns": s.start_ns,
            "end_ns": s.end_ns,
            "self_ns": self_ns[s.span_id],
        }
        for s in spans
    ]
