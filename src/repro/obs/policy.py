"""Solve policies: bounded effort and graceful degradation.

A :class:`SolvePolicy` is the single object that says how hard a solve may
try and what happens when the budget runs out:

- **budgets** — ``deadline`` (wall seconds) and ``node_budget`` (B&B nodes)
  cap the exact search; ``gap_tol`` loosens the optimality proof;
- **degradation ladder** — when the budget is exhausted, an incumbent (if
  any) is returned as ``Status.FEASIBLE``; with no incumbent the designer
  walks ``fallback`` — by default LPT greedy then simulated annealing —
  instead of raising, and records what happened in a
  :class:`FallbackReport`;
- **checkpointing** — ``checkpoint_dir`` persists the best incumbent per
  instance fingerprint, so an interrupted sweep resumes warm.

The policy *is* the effort surface: the legacy ``node_limit`` /
``time_limit`` kwargs that used to ride on ``Model.solve`` / ``design``
(and their PR-3 deprecation shims) are gone — both entry points reject
them with a pointer here. Policies are frozen and picklable, so they
travel to parallel workers, and expose a canonical :meth:`cache_token`
(the shared protocol of :mod:`repro.runtime.fingerprint`) so the solve
cache can key on the *effective* budget — a truncated solve must never be
replayed for an uncapped request.

Every settings class here (and :class:`~repro.core.request.SolveRequest`)
derives its token, its JSON form, its overrides and its integer checks
from its dataclass fields through :class:`DerivedFields`, so each field is
written once.
"""

from __future__ import annotations

import contextlib
import functools
import json
import numbers
import os
import tempfile
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, TypeVar

from repro.util.errors import ValidationError

#: Escalation rungs the designer knows how to run, in the order tried.
FALLBACK_RUNGS = ("lpt", "sa")

#: Default degradation ladder on budget exhaustion without an incumbent.
DEFAULT_FALLBACK = ("lpt", "sa")

_D = TypeVar("_D", bound="DerivedFields")


def field_default(spec: Field) -> Any:
    """The value a dataclass field takes when omitted (``MISSING`` if none)."""
    if spec.default_factory is not MISSING:
        return spec.default_factory()
    return spec.default


def _plain(value: Any) -> Any:
    """JSON-ready form of one field value: blocks as dicts, tuples as lists."""
    if isinstance(value, DerivedFields):
        return value.as_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


@functools.lru_cache(maxsize=None)
def _nested_blocks(cls: type["DerivedFields"]) -> dict[str, type["DerivedFields"]]:
    """Fields of ``cls`` typed as another :class:`DerivedFields` (or None)."""
    hints = typing.get_type_hints(cls)
    blocks: dict[str, type[DerivedFields]] = {}
    for spec in fields(cls):
        hint = hints[spec.name]
        for candidate in (hint, *typing.get_args(hint)):
            # get_origin skips aliases such as tuple[int, ...], which some
            # Python versions report as instances of ``type``.
            if (
                typing.get_origin(candidate) is None
                and isinstance(candidate, type)
                and issubclass(candidate, DerivedFields)
            ):
                blocks[spec.name] = candidate
    return blocks


def _is_integer(value: Any) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: The scalar types a settings field may be declared with: the check a
#: value must pass, and what an error calls one value and a list of them.
_SCALARS: dict[type, tuple[typing.Callable[[Any], bool], str, str]] = {
    int: (_is_integer, "an integer", "a list of integers"),
    float: (_is_number, "a number", "a list of numbers"),
    str: (lambda value: isinstance(value, str), "a string", "a list of strings"),
}


@functools.lru_cache(maxsize=None)
def _scalar_fields(cls: type["DerivedFields"]) -> tuple[tuple[str, type, bool], ...]:
    """Fields of ``cls`` typed as a scalar of :data:`_SCALARS` (or None),
    each with its type and a flag that is True for a tuple of them."""
    hints = typing.get_type_hints(cls)
    found = []
    for spec in fields(cls):
        hint = hints[spec.name]
        # ``X | None`` offers each member; ``tuple[X, ...]`` is one option.
        union = typing.get_origin(hint) in (typing.Union, types.UnionType)
        options = typing.get_args(hint) if union else (hint,)
        for kind in _SCALARS:
            if kind in options:
                found.append((spec.name, kind, False))
            elif any(
                typing.get_origin(option) is tuple and typing.get_args(option)[:1] == (kind,)
                for option in options
            ):
                found.append((spec.name, kind, True))
    return tuple(found)


class DerivedFields:
    """Base of the frozen settings dataclasses: one field list, derived once.

    :meth:`cache_token`, :meth:`as_dict`, :meth:`from_dict` and
    :meth:`with_overrides` all read :func:`dataclasses.fields`, so a new
    field reaches the cache key, the JSON wire form and overrides where it
    is declared, with no second list to update. Every field typed ``int``,
    ``float`` or ``str`` (or a tuple of them) must hold values of that type,
    and no bools in a number field; the check runs when the object is
    built, so a payload with ``2.5`` rounds fails there with a
    :class:`~repro.util.errors.ValidationError`, not deep inside a solve.
    Every other malformed payload raises that error too. A field that
    changes how a solve runs but never what it returns (the fallback
    ladder, worker fan-out, checkpoint I/O) opts out of the cache key next
    to its definition with ``metadata={"cache": False}``;
    :meth:`cache_view` resets exactly those fields, nested blocks included.
    A field stored in one shape and sent in another names its wire
    converter with ``metadata={"wire": dict}``. Flow rule D001 rejects a
    hand-written ``cache_token`` on any class that produces solver options,
    and an options producer that reads a field opted out of the key.
    """

    __dataclass_fields__: ClassVar[dict[str, Any]]

    def __post_init__(self) -> None:
        for name, kind, sequence in _scalar_fields(type(self)):
            value = getattr(self, name)
            if value is None:
                continue
            check, one, many = _SCALARS[kind]
            if sequence:
                ok = isinstance(value, (list, tuple)) and all(map(check, value))
            else:
                ok = check(value)
            if not ok:
                raise ValidationError(
                    f"{name} must be {many if sequence else one}, got {value!r}"
                )

    def cache_token(self) -> str:
        """Canonical text of every field that shapes the result."""
        from repro.runtime.fingerprint import cache_token_of

        body = ",".join(
            f"{spec.name}={cache_token_of(getattr(self, spec.name))}"
            for spec in fields(self)
            if spec.metadata.get("cache", True)
        )
        return f"{type(self).__name__}({body})"

    def cache_view(self: _D) -> _D:
        """A copy with every field outside the cache key at its default.

        What this copy implies (its ``backend_options``) is what a solve
        key may depend on.
        """
        changes: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if not spec.metadata.get("cache", True):
                changes[spec.name] = field_default(spec)
            elif isinstance(value, DerivedFields):
                changes[spec.name] = value.cache_view()
        return replace(self, **changes)

    def with_overrides(self: _D, **changes) -> _D:
        """A copy with the given fields replaced (re-validated)."""
        return replace(self, **changes)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view of every field (inverse of :meth:`from_dict`)."""
        return {
            spec.name: spec.metadata.get("wire", _plain)(getattr(self, spec.name))
            for spec in fields(self)
        }

    @classmethod
    def from_dict(cls: type[_D], payload: Mapping[str, Any]) -> _D:
        """Build from :meth:`as_dict` output (e.g. a request/service payload).

        Unknown keys are rejected so a typo'd field cannot silently fall
        back to its default (an uncapped solve, say). Nested blocks are
        built from their own mappings, and JSON lists become tuples.
        """
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"{cls.__name__} payload must be a JSON object, got {type(payload).__name__}"
            )
        declared = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(payload) - set(declared))
        if unknown:
            raise ValidationError(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        missing = [
            repr(name)
            for name, spec in declared.items()
            if name not in payload and field_default(spec) is MISSING
        ]
        if missing:
            raise ValidationError(f"{cls.__name__} payload requires {', '.join(missing)}")
        blocks = _nested_blocks(cls)
        data: dict[str, Any] = {}
        for name, value in payload.items():
            if name in blocks and isinstance(value, Mapping):
                value = blocks[name].from_dict(value)
            elif isinstance(value, list):
                value = tuple(value)
            data[name] = value
        return cls(**data)


@dataclass(frozen=True)
class SolverOptions(DerivedFields):
    """B&B solver settings, riding on :class:`SolvePolicy`.

    ``cut_rounds`` caps the rounds of root clique cuts and
    ``presolve_rounds`` the passes of root model presolve; 0 turns either
    off. ``None`` leaves the solver's own default (``CUT_ROUNDS`` and
    ``PRESOLVE_ROUNDS`` in :mod:`repro.ilp.branch_and_bound`). Both change
    what a solve returns, so both are in the cache token.
    """

    cut_rounds: int | None = None
    presolve_rounds: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("cut_rounds", "presolve_rounds"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"{name} cannot be negative, got {value}")

    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The solver kwargs this block implies for ``backend``."""
        options: dict[str, Any] = {}
        if backend != "bnb":
            return options
        if self.cut_rounds is not None:
            options["cut_rounds"] = self.cut_rounds
        if self.presolve_rounds is not None:
            options["presolve_rounds"] = self.presolve_rounds
        return options


@dataclass(frozen=True)
class SolvePolicy(DerivedFields):
    """Effort budget + degradation behavior for one (or many) solves.

    The effort budget and the solver block shape what a solve returns and
    form the cache token. The fallback ladder replaces a solve that found
    nothing but never alters what a completed solve would have produced,
    and the checkpoint directory only persists incumbents, so those fields
    stay out of it.
    """

    deadline: float | None = None
    node_budget: int | None = None
    gap_tol: float | None = None
    fallback: tuple[str, ...] = field(default=DEFAULT_FALLBACK, metadata={"cache": False})
    checkpoint_dir: str | None = field(default=None, metadata={"cache": False})
    solver: SolverOptions | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.solver is not None and not isinstance(self.solver, SolverOptions):
            raise ValidationError(
                f"solver must be a SolverOptions or None, got {type(self.solver).__name__}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValidationError(f"deadline must be positive, got {self.deadline}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValidationError(f"node_budget must be positive, got {self.node_budget}")
        if self.gap_tol is not None and self.gap_tol < 0:
            raise ValidationError(f"gap_tol cannot be negative, got {self.gap_tol}")
        ladder = tuple(self.fallback or ())
        object.__setattr__(self, "fallback", ladder)
        unknown = [rung for rung in ladder if rung not in FALLBACK_RUNGS]
        if unknown:
            raise ValidationError(
                f"unknown fallback rung(s) {unknown}; known: {list(FALLBACK_RUNGS)}"
            )

    # ------------------------------------------------------------ derivations
    @property
    def is_capped(self) -> bool:
        """True when the exact search may stop before proving optimality."""
        return self.deadline is not None or self.node_budget is not None

    @property
    def degrades(self) -> bool:
        """True when exhaustion without an incumbent falls back to heuristics."""
        return bool(self.fallback)

    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The solver kwargs this policy implies for ``backend``."""
        options: dict[str, Any] = {}
        if backend == "scipy":
            if self.deadline is not None:
                options["time_limit"] = self.deadline
        else:
            if self.node_budget is not None:
                options["node_limit"] = self.node_budget
            if self.deadline is not None:
                options["time_limit"] = self.deadline
            if self.gap_tol is not None:
                options["gap_tol"] = self.gap_tol
        if self.solver is not None:
            options.update(self.solver.backend_options(backend))
        return options

    def checkpoint_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The checkpoint I/O kwargs this policy implies for ``backend``.

        They persist incumbents but never change what a solve returns, so
        they come from fields outside the cache key and stay out of
        :meth:`backend_options`, the mapping a solve key is built from.
        """
        if backend == "scipy" or self.checkpoint_dir is None:
            return {}
        return {"checkpoint_dir": self.checkpoint_dir}


@dataclass
class FallbackReport:
    """What the anytime solve path actually did — returned in telemetry.

    ``source`` is the provenance of the returned design: ``"exact"`` (the
    solver proved optimality), ``"incumbent"`` (budget exhausted, best
    incumbent returned), ``"lpt"`` / ``"sa"`` (heuristic degradation).
    ``ladder`` lists every step attempted in order with its outcome.
    """

    source: str = "exact"
    reason: str | None = None
    ladder: list[dict[str, Any]] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return self.source != "exact"

    def record_step(self, step: str, outcome: str, **detail) -> None:
        self.ladder.append({"step": step, "outcome": outcome, **detail})

    def as_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "degraded": self.degraded,
            "reason": self.reason,
            "ladder": [dict(step) for step in self.ladder],
        }

    def render(self) -> str:
        """One-line provenance summary for reports."""
        if not self.degraded:
            return "exact solve"
        bits = [f"source={self.source}"]
        if self.reason:
            bits.append(f"reason={self.reason}")
        if self.ladder:
            bits.append(
                "ladder=" + "->".join(f"{s['step']}:{s['outcome']}" for s in self.ladder)
            )
        return ", ".join(bits)


class CheckpointStore:
    """Per-instance incumbent checkpoints keyed by matrix fingerprint.

    One JSON file per instance under ``directory``; writes are atomic
    (write-then-rename) so a killed sweep leaves a readable store. The
    payload is the dense column-indexed value vector plus the objective in
    the *model's* sense, mirroring the solve cache's record layout.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def _path_for(self, fingerprint: str) -> Path:
        return self.directory / f"incumbent-{fingerprint}.json"

    def load(self, fingerprint: str) -> dict[str, Any] | None:
        """Best known incumbent for the instance, or None."""
        try:
            payload = json.loads(self._path_for(fingerprint).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or "values" not in payload:
            return None
        return payload

    def save(self, fingerprint: str, values: list[float], objective: float) -> None:
        """Persist an incumbent, keeping only the best objective seen."""
        existing = self.load(fingerprint)
        if existing is not None and existing.get("objective", float("inf")) <= objective:
            return
        payload = {"values": [float(v) for v in values], "objective": float(objective)}
        write_json_atomic(self._path_for(fingerprint), payload)


def write_json_atomic(path: Path, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path``, creating its directory.

    Write-then-rename: a concurrent reader sees the old file or the new
    one, never a torn one, and a writer killed mid-write leaves ``path``
    as it was. An I/O error is swallowed (the stores are best-effort) and
    removes the temporary file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_name, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
