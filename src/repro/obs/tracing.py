"""Lightweight solve tracing: spans, node-event sampling, flame summaries.

A :class:`Tracer` records a tree of timed :class:`Span` objects covering the
solve pipeline — ``formulate`` / ``cache_lookup`` / ``solve`` / ``decode``,
and inside the solver the layers under perfbench's names
(``ilp.presolve_root.reduce``, ``ilp.presolve.propagate``,
``ilp.simplex.root_lp``, ``ilp.conflict.graph``, ``ilp.cuts.separate``,
``ilp.branch_and_bound.dive``, ``ilp.branch_and_bound``) — plus a *sampled* stream of
branch-and-bound node events (node index, depth, bound, incumbent) and every
incumbent-improvement event. Tracing is opt-in: instrumented code calls the
module-level :func:`span` / :func:`node_event` / :func:`event` helpers,
which are no-ops unless a tracer is active, so the untraced hot path pays
one ``None`` check.

Install a tracer with :func:`trace_solve`::

    with trace_solve() as trace:
        design(problem)
    print(trace.flame())              # text flame summary
    json.dump(trace.to_json(), fh)    # exportable span JSON

The JSON export is self-contained: span ids, parent links, start/end
offsets (seconds relative to the trace start), attributes, and events, plus
the per-phase aggregate used by the flame view. Per-phase *self* times
partition the traced wall time exactly, which is what lets the CLI assert
that phase totals account for the solve.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.obs.clock import now

#: Default node-event sampling stride: record every k-th B&B node.
DEFAULT_NODE_SAMPLE_EVERY = 16


@dataclass
class Span:
    """One timed section of the pipeline."""

    span_id: int
    name: str
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[dict[str, Any]] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else now()) - self.start

    def to_json(self, origin: float) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "parent": self.parent_id,
            "start": self.start - origin,
            "end": None if self.end is None else self.end - origin,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "events": list(self.events),
        }


class Tracer:
    """Collects spans and sampled node events for one traced region.

    Not thread-safe by design: a tracer belongs to the solve it instruments
    (parallel workers run in separate processes and carry their own).
    """

    def __init__(self, node_sample_every: int = DEFAULT_NODE_SAMPLE_EVERY):
        if node_sample_every <= 0:
            raise ValueError(f"node_sample_every must be positive, got {node_sample_every}")
        self.node_sample_every = node_sample_every
        self.origin = now()
        self.spans: list[Span] = []
        self.node_events: list[dict[str, Any]] = []
        self._stack: list[Span] = []
        self._nodes_seen = 0

    # ------------------------------------------------------------------ spans
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        entry = Span(
            span_id=len(self.spans),
            name=name,
            parent_id=self._stack[-1].span_id if self._stack else None,
            start=now(),
            attrs=attrs,
        )
        self.spans.append(entry)
        self._stack.append(entry)
        try:
            yield entry
        finally:
            entry.end = now()
            self._stack.pop()

    def event(self, name: str, **fields) -> None:
        """Attach a timestamped event to the innermost open span."""
        record = {"name": name, "t": now() - self.origin, **fields}
        if self._stack:
            self._stack[-1].events.append(record)
        else:  # stray event outside any span: keep it rather than lose it
            self.node_events.append(record)

    def node_event(self, depth: int, bound: float, incumbent: float | None) -> None:
        """Record one B&B node, sampled every ``node_sample_every`` nodes."""
        self._nodes_seen += 1
        if (self._nodes_seen - 1) % self.node_sample_every:
            return
        self.node_events.append(
            {
                "node": self._nodes_seen,
                "depth": depth,
                "bound": bound,
                "incumbent": incumbent,
                "t": now() - self.origin,
            }
        )

    # ---------------------------------------------------------------- exports
    def phase_totals(self) -> dict[str, float]:
        """Per-span-name *self* time (duration minus child durations).

        Self times partition each root span's wall time exactly, so
        ``sum(phase_totals().values())`` equals the total traced duration —
        the invariant behind the CLI's coverage check.
        """
        child_time: dict[int, float] = {}
        for span in self.spans:
            if span.parent_id is not None:
                child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
        totals: dict[str, float] = {}
        for span in self.spans:
            self_time = span.duration - child_time.get(span.span_id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + self_time
        return totals

    def traced_duration(self) -> float:
        """Total wall time covered by root spans (no double counting)."""
        return sum(s.duration for s in self.spans if s.parent_id is None)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": 1,
            "traced_duration": self.traced_duration(),
            "phase_totals": self.phase_totals(),
            "node_sample_every": self.node_sample_every,
            "spans": [span.to_json(self.origin) for span in self.spans],
            "node_events": list(self.node_events),
        }

    def flame(self, width: int = 40) -> str:
        """Text flame summary: one bar per phase, sorted by self time."""
        totals = self.phase_totals()
        traced = self.traced_duration()
        lines = [f"trace: {traced * 1000:.1f} ms over {len(self.spans)} spans"]
        if not totals:
            return lines[0]
        scale = max(totals.values()) or 1.0
        name_width = max(len(name) for name in totals)
        for name, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
            bar = "#" * max(1, round(width * seconds / scale)) if seconds > 0 else ""
            share = (seconds / traced * 100.0) if traced > 0 else 0.0
            lines.append(
                f"  {name:<{name_width}}  {seconds * 1000:9.2f} ms {share:5.1f}%  {bar}"
            )
        if self.node_events:
            lines.append(
                f"  ({len(self.node_events)} node events sampled 1/{self.node_sample_every})"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Tracer({len(self.spans)} spans, {len(self.node_events)} node events)"


# ------------------------------------------------------------- active tracer
_ACTIVE_TRACER: Tracer | None = None


def current_tracer() -> Tracer | None:
    """The tracer installed by :func:`trace_solve`, or None when not tracing."""
    return _ACTIVE_TRACER


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the active tracer; returns the previous one."""
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return previous


@contextmanager
def trace_solve(node_sample_every: int = DEFAULT_NODE_SAMPLE_EVERY) -> Iterator[Tracer]:
    """Trace everything the with-block solves; yields the :class:`Tracer`."""
    tracer = Tracer(node_sample_every=node_sample_every)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


class _NullSpan:
    """No-op stand-in yielded by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    @property
    def attrs(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span on the active tracer, or a no-op when not tracing."""
    tracer = _ACTIVE_TRACER
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **fields) -> None:
    """Record an event on the active tracer (no-op when not tracing)."""
    tracer = _ACTIVE_TRACER
    if tracer is not None:
        tracer.event(name, **fields)


def node_event(depth: int, bound: float, incumbent: float | None) -> None:
    """Feed one B&B node to the active tracer's sampler (no-op when off)."""
    tracer = _ACTIVE_TRACER
    if tracer is not None:
        tracer.node_event(depth, bound, incumbent)
