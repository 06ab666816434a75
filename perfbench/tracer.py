"""Span tracing from outside the program.

The traced pass wraps the public functions of each layer where the program
calls them (module attributes such as
``repro.ilp.branch_and_bound.propagate_bounds``, class methods such as
``RevisedSimplex.solve``) and records one span per call: name, start, end,
parent span and op. Nothing inside ``src/`` changes; the wrappers are
removed when the pass ends.

A layer's self time is its span's duration minus its child spans. Every op
has one root span, so the self times of an op's spans add up to the op's
wall time: the per-layer rows partition it, and the root's own self time is
the remainder (``core.designer`` for in-process designs, ``service.client``
for service requests).
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager

import repro.ilp.branch_and_bound as bnb
import repro.ilp.cuts as cuts
from repro.api import Assignment, BranchAndBoundSolver, DesignProblem, Model
from repro.core import designer
from repro.core.formulation import IlpFormulation
from repro.ilp.conflict import ConflictGraph
from repro.ilp.simplex import RevisedSimplex
from repro.obs import now
from repro.service.client import ServiceClient

#: Span JSON schema version.
SPAN_FORMAT = 1


def _lp_name(args, kwargs) -> str:
    """Root vs node LP: ``RevisedSimplex.solve`` without / with a basis."""
    basis = kwargs.get("basis", args[3] if len(args) > 3 else None)
    return "ilp.simplex.root_lp" if basis is None else "ilp.simplex.node_lp"


def _http_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method")
    return "service.client.submit" if method == "POST" else "service.client.poll"


#: (owner, attribute, span name or name function). Methods are wrapped on
#: their class, imported functions in the module namespace that calls them.
DESIGN_TARGETS = (
    (DesignProblem, "__init__", "core.problem.build"),
    (DesignProblem, "times", "core.problem.build"),
    (DesignProblem, "forced_pairs", "core.problem.build"),
    (DesignProblem, "forbidden_pairs", "core.problem.build"),
    (DesignProblem, "contradictions", "core.problem.build"),
    (designer, "build_assignment_ilp", "core.formulation.build"),
    # design()'s decode phase: decode, re-validate, bus times, wirelength.
    (IlpFormulation, "decode", "core.formulation.decode"),
    (DesignProblem, "validate", "core.formulation.decode"),
    (Assignment, "bus_times", "core.formulation.decode"),
    (designer, "tam_wirelength", "core.formulation.decode"),
    (Model, "to_matrix_form", "ilp.model.matrix_form"),
    (BranchAndBoundSolver, "__init__", "ilp.branch_and_bound"),
    (BranchAndBoundSolver, "solve", "ilp.branch_and_bound"),
    (bnb, "presolve_root", "ilp.presolve_root.reduce"),
    (bnb, "propagate_bounds", "ilp.presolve.propagate"),
    (bnb, "reduced_cost_tighten", "ilp.presolve.reduced_cost"),
    (bnb, "solve_matrix_lp", "ilp.lp.cold_lp"),
    (RevisedSimplex, "solve", _lp_name),
    (ConflictGraph, "from_matrix_form", "ilp.conflict.graph"),
    (cuts, "generate_cuts", "ilp.cuts.separate"),
)

SERVICE_TARGETS = (
    (ServiceClient, "_call", _http_name),
    # wait() minus its polls is the time the client slept between polls.
    (ServiceClient, "wait", "service.client.sleep"),
)


class SpanRecorder:
    """Keeps spans in memory, one list per thread, while patches are live."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[list] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # ------------------------------------------------------------ recording
    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.op = None
            with self._lock:
                self._threads.append(local.spans)
        return local

    @contextmanager
    def op(self, op_id: int, name: str):
        """The root span of one op; wrapped calls inside it become children."""
        state = self._state()
        state.op = op_id
        span = [name, now(), None, -1, op_id]
        state.stack.append(len(state.spans))
        state.spans.append(span)
        try:
            yield
        finally:
            span[2] = now()
            state.stack.pop()
            state.op = None

    def _wrap(self, fn, name):
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = state_of()
            if state.op is None:
                return fn(*args, **kwargs)
            label = name if isinstance(name, str) else name(args, kwargs)
            spans = state.spans
            index = len(spans)
            spans.append([label, now(), None, state.stack[-1], state.op])
            state.stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                state.stack.pop()
                spans[index][2] = now()

        return traced

    # ------------------------------------------------------------- patching
    def prepare(self, targets) -> None:
        """Build the wrappers for ``targets``; :meth:`activate` installs them."""
        for owner, attr, name in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(original, functools.cached_property):
                patched = functools.cached_property(self._wrap(original.func, name))
                patched.__set_name__(owner, attr)
            elif isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name))
            else:
                patched = self._wrap(original, name)
            self._patches.append((owner, attr, original, patched))

    def activate(self) -> None:
        for owner, attr, _, patched in self._patches:
            setattr(owner, attr, patched)

    def deactivate(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # --------------------------------------------------------------- output
    def spans(self) -> list[list]:
        """All spans, parents re-indexed into one flat list."""
        merged: list[list] = []
        for spans in self._threads:
            base = len(merged)
            for name, start, end, parent, op in spans:
                merged.append([name, start, end, parent + base if parent >= 0 else -1, op])
        return merged


def write_spans(path, spans: list[list], meta: dict) -> None:
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    payload = {
        "format": SPAN_FORMAT,
        **meta,
        "names": names,
        "fields": ["name", "start", "end", "parent", "op"],
        "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_spans(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != SPAN_FORMAT:
        raise ValueError(f"{path}: unknown span format {payload.get('format')!r}")
    names = payload["names"]
    return [[names[s[0]], s[1], s[2], s[3], s[4]] for s in payload["spans"]]


def self_times(spans: list[list]) -> tuple[dict, dict, list[str]]:
    """Per-layer self time and call count, plus partition violations.

    Returns ``(self_seconds_by_name, calls_by_name, problems)``. A problem is
    a child outside its parent's interval, overlapping siblings, or an op
    whose rows do not add up to its root span.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    totals: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    problems: list[str] = []
    op_rows: dict[int, float] = defaultdict(float)
    op_wall: dict[int, float] = {}
    eps = 1e-9
    for i, (name, start, end, parent, op) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} ({name}) never closed")
            continue
        kids = sorted(children.get(i, ()), key=lambda k: spans[k][1])
        covered = 0.0
        last_end = start
        for k in kids:
            k_start, k_end = spans[k][1], spans[k][2]
            if k_start < last_end - eps or k_end > end + eps:
                problems.append(f"span {k} ({spans[k][0]}) escapes or overlaps under {name}")
            covered += k_end - k_start
            last_end = k_end
        own = (end - start) - covered
        totals[name] += own
        calls[name] += 1
        op_rows[op] += own
        if parent < 0:
            op_wall[op] = end - start
    for op, wall in op_wall.items():
        if abs(op_rows[op] - wall) > 1e-6 + 1e-9 * wall:
            problems.append(f"op {op}: rows sum to {op_rows[op]:.9f}s, wall is {wall:.9f}s")
    return dict(totals), dict(calls), problems
