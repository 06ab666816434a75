"""Solve policies: bounded effort, retries, and graceful degradation.

A :class:`SolvePolicy` is the single object that says how hard a solve may
try and what happens when the budget runs out:

- **budgets** — ``deadline`` (wall seconds) and ``node_budget`` (B&B nodes)
  cap the exact search; ``gap_tol`` loosens the optimality proof;
- **resilience** — ``max_retries`` / ``retry_backoff`` re-run a backend
  that failed with a *transient* error
  (:class:`~repro.util.errors.TransientSolverError`), with exponential
  backoff between attempts;
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
derives its token, its JSON form and its overrides from its dataclass
fields through :class:`DerivedFields`, so each field is written once.
"""

from __future__ import annotations

import functools
import json
import os
import tempfile
import typing
from collections.abc import Mapping
from dataclasses import MISSING, Field, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, ClassVar, TypeVar

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


class DerivedFields:
    """Base of the frozen settings dataclasses: one field list, derived once.

    :meth:`cache_token`, :meth:`as_dict`, :meth:`from_dict` and
    :meth:`with_overrides` all read :func:`dataclasses.fields`, so a new
    field reaches the cache key, the JSON wire form and overrides where it
    is declared, with no second list to update. A field that changes how a
    solve runs but never what it returns (retries, worker fan-out,
    checkpoint I/O) opts out of the cache key next to its definition with
    ``metadata={"cache": False}``; :meth:`cache_view` resets exactly those
    fields, nested blocks included. A field stored in one shape and sent in
    another names its wire converter with ``metadata={"wire": dict}``.
    Flow rule D001 rejects a hand-written ``cache_token`` on any class that
    produces solver options, and an options producer that reads a field
    opted out of the key.
    """

    __dataclass_fields__: ClassVar[dict[str, Any]]

    #: Exception raised for a malformed :meth:`from_dict` payload.
    _error: ClassVar[type[Exception]] = ValueError

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
            raise cls._error(
                f"{cls.__name__} payload must be a JSON object, got {type(payload).__name__}"
            )
        declared = {spec.name: spec for spec in fields(cls)}
        unknown = sorted(set(payload) - set(declared))
        if unknown:
            raise cls._error(f"unknown {cls.__name__} field(s): {', '.join(unknown)}")
        missing = [
            repr(name)
            for name, spec in declared.items()
            if name not in payload and field_default(spec) is MISSING
        ]
        if missing:
            raise cls._error(f"{cls.__name__} payload requires {', '.join(missing)}")
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
class CutPolicy(DerivedFields):
    """How many rounds of clique cuts the B&B solver separates at the root.

    The solver derives a conflict graph from the pairwise-exclusion
    structure of the matrix and separates maximal-clique cuts
    (``sum x <= 1``) in up to ``rounds`` rounds at the root node; every
    node below then solves its LP with those cut rows. ``rounds=0`` turns
    separation off.

    Cut settings change what a solve returns (node counts, provenance,
    possibly which optimal vertex is reported), so ``rounds`` contributes
    to :meth:`cache_token` and therefore to the solve-cache fingerprint.
    """

    rounds: int = 3

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"rounds cannot be negative, got {self.rounds}")

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when separation may run."""
        return self.rounds > 0

    @classmethod
    def disabled(cls) -> "CutPolicy":
        """An explicit cuts-off policy (distinct from *unset*, which lets
        the designer apply its default)."""
        return cls(rounds=0)

    def backend_options(self) -> dict[str, Any]:
        """The solver kwargs this cut policy implies (bnb only)."""
        return {"cut_policy": self}


#: The cut policy ``design()`` applies when nothing chose one explicitly.
DEFAULT_CUT_POLICY = CutPolicy()


@dataclass(frozen=True)
class PresolvePolicy(DerivedFields):
    """How many passes the root presolve engine may make over a model.

    Before the branch-and-bound search starts, the root presolve engine
    (:mod:`repro.ilp.presolve_root`) reduces the model in up to ``rounds``
    passes of global bound tightening, dual fixing, coefficient
    tightening on integer columns, and empty/duplicate/redundant row
    cleanup. Every reduction preserves the set of optimal solutions of the
    *integer* program; a :class:`~repro.ilp.presolve_root.Postsolve` step
    maps reduced-space solutions back to the original variable space, so
    caches, checkpoints, and fingerprints stay presolve-independent.
    ``rounds=0`` searches the original model.

    Presolve settings change what a solve returns (which optimal vertex,
    node counts, stats), so ``rounds`` contributes to :meth:`cache_token`
    and therefore to the solve-cache fingerprint.
    """

    rounds: int = 4

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise ValueError(f"rounds cannot be negative, got {self.rounds}")

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when any reduction at all may run."""
        return self.rounds > 0

    @classmethod
    def disabled(cls) -> "PresolvePolicy":
        """An explicit presolve-off policy (distinct from *unset*, which
        lets the solver apply its default)."""
        return cls(rounds=0)

    def backend_options(self) -> dict[str, Any]:
        """The solver kwargs this presolve policy implies (bnb only)."""
        return {"root_presolve": self}


#: The root presolve policy the B&B solver applies when nothing chose one.
DEFAULT_PRESOLVE_POLICY = PresolvePolicy()


#: Entrant names the portfolio racer knows how to run. Heuristic rungs
#: come first (they are the cheap incumbents); ``"bnb"`` is the exact
#: search they cross-feed.
PORTFOLIO_ENTRANTS = ("lpt", "sa", "bnb")


@dataclass(frozen=True)
class PortfolioPolicy(DerivedFields):
    """How (and whether) the racing portfolio runs a design solve.

    The portfolio (:func:`repro.runtime.portfolio.run_portfolio`) races the
    entrants under one shared :class:`SolvePolicy` budget: the heuristic
    rungs (``"lpt"``, ``"sa"``) run first — concurrently on the persistent
    process pool when ``jobs > 1`` — and their best incumbent is cross-fed
    to the exact ``"bnb"`` entrant as its starting cutoff, with the wall
    time the heuristics spent subtracted from the shared deadline. The best
    solution wins, with per-entrant provenance recorded in a
    :class:`~repro.runtime.portfolio.PortfolioReport`.

    ``seed`` seeds the stochastic entrants and ``sa_iterations`` sets the
    annealing length, so both shape the combined result and contribute to
    :meth:`cache_token`. ``jobs`` only fans the heuristic race out across
    workers — every entrant always runs to completion, so fan-out changes
    wall time but never the answer, and ``jobs`` stays out of the token
    (the same rule :class:`~repro.core.request.SolveRequest` applies).
    """

    entrants: tuple[str, ...] = PORTFOLIO_ENTRANTS
    seed: int = 0
    sa_iterations: int = 5000
    jobs: int = field(default=1, metadata={"cache": False})

    def __post_init__(self) -> None:
        ladder = tuple(self.entrants or ())
        object.__setattr__(self, "entrants", ladder)
        unknown = [name for name in ladder if name not in PORTFOLIO_ENTRANTS]
        if unknown:
            raise ValueError(
                f"unknown portfolio entrant(s) {unknown}; known: {list(PORTFOLIO_ENTRANTS)}"
            )
        if len(set(ladder)) != len(ladder):
            raise ValueError(f"duplicate portfolio entrant(s) in {ladder}")
        if self.sa_iterations < 0:
            raise ValueError(
                f"sa_iterations cannot be negative, got {self.sa_iterations}"
            )

    # ------------------------------------------------------------ derivations
    @property
    def enabled(self) -> bool:
        """True when any entrant at all may run."""
        return bool(self.entrants)

    @property
    def exact(self) -> bool:
        """True when the exact B&B entrant is in the race."""
        return "bnb" in self.entrants

    @property
    def heuristics(self) -> tuple[str, ...]:
        """The heuristic entrants, in rung order."""
        return tuple(name for name in self.entrants if name != "bnb")

    @classmethod
    def disabled(cls) -> "PortfolioPolicy":
        """An explicit portfolio-off policy (distinct from *unset*)."""
        return cls(entrants=())


#: The portfolio the racer runs when asked for one without details.
DEFAULT_PORTFOLIO_POLICY = PortfolioPolicy()


@dataclass(frozen=True)
class SolverOptions(DerivedFields):
    """Structured B&B solver knobs, riding on :class:`SolvePolicy`.

    Collapses the formerly scattered flat solver kwargs into one frozen,
    picklable, fingerprintable block. ``None`` means "solver default" for
    every field. ``checkpoint_interval`` only debounces
    checkpoint writes, so it stays out of the cache key and travels
    through :meth:`SolvePolicy.checkpoint_options`, not
    :meth:`backend_options`.
    """

    cuts: CutPolicy | None = None
    root_presolve: PresolvePolicy | None = None
    checkpoint_interval: float | None = field(default=None, metadata={"cache": False})
    portfolio: PortfolioPolicy | None = None

    def __post_init__(self) -> None:
        if self.cuts is not None and not isinstance(self.cuts, CutPolicy):
            raise TypeError(
                f"cuts must be a CutPolicy or None, got {type(self.cuts).__name__}"
            )
        if self.root_presolve is not None and not isinstance(
            self.root_presolve, PresolvePolicy
        ):
            raise TypeError(
                "root_presolve must be a PresolvePolicy or None, "
                f"got {type(self.root_presolve).__name__}"
            )
        if self.portfolio is not None and not isinstance(
            self.portfolio, PortfolioPolicy
        ):
            raise TypeError(
                "portfolio must be a PortfolioPolicy or None, "
                f"got {type(self.portfolio).__name__}"
            )
        if self.checkpoint_interval is not None and self.checkpoint_interval <= 0:
            raise ValueError(
                f"checkpoint_interval must be positive, got {self.checkpoint_interval}"
            )

    def backend_options(self, backend: str = "bnb") -> dict[str, Any]:
        """The solver kwargs this block implies for ``backend``."""
        options: dict[str, Any] = {}
        if backend != "bnb":
            return options
        if self.cuts is not None:
            options.update(self.cuts.backend_options())
        if self.root_presolve is not None:
            options.update(self.root_presolve.backend_options())
        # `portfolio` is deliberately NOT a backend kwarg: the racer is a
        # designer-level dispatch (repro.runtime.portfolio), not a solver
        # knob — the B&B backend never sees it. It still shapes the result,
        # so it stays in the cache token.
        return options


@dataclass(frozen=True)
class SolvePolicy(DerivedFields):
    """Effort budget + resilience behavior for one (or many) solves.

    The effort budget and the solver block shape what a solve returns and
    form the cache token. Retries and the fallback ladder re-run or replace
    a solve but never alter what a completed solve would have produced, and
    the checkpoint directory only persists incumbents, so those fields stay
    out of it.
    """

    deadline: float | None = None
    node_budget: int | None = None
    gap_tol: float | None = None
    max_retries: int = field(default=0, metadata={"cache": False})
    retry_backoff: float = field(default=0.25, metadata={"cache": False})
    fallback: tuple[str, ...] = field(default=DEFAULT_FALLBACK, metadata={"cache": False})
    fallback_seed: int = field(default=0, metadata={"cache": False})
    checkpoint_dir: str | None = field(default=None, metadata={"cache": False})
    solver: SolverOptions | None = None

    def __post_init__(self) -> None:
        if self.solver is not None and not isinstance(self.solver, SolverOptions):
            raise TypeError(
                f"solver must be a SolverOptions or None, got {type(self.solver).__name__}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline}")
        if self.node_budget is not None and self.node_budget <= 0:
            raise ValueError(f"node_budget must be positive, got {self.node_budget}")
        if self.gap_tol is not None and self.gap_tol < 0:
            raise ValueError(f"gap_tol cannot be negative, got {self.gap_tol}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries cannot be negative, got {self.max_retries}")
        if self.retry_backoff < 0:
            raise ValueError(f"retry_backoff cannot be negative, got {self.retry_backoff}")
        ladder = tuple(self.fallback or ())
        object.__setattr__(self, "fallback", ladder)
        unknown = [rung for rung in ladder if rung not in FALLBACK_RUNGS]
        if unknown:
            raise ValueError(
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
        options: dict[str, Any] = {}
        if backend != "scipy" and self.checkpoint_dir is not None:
            options["checkpoint_dir"] = self.checkpoint_dir
        interval = None if self.solver is None else self.solver.checkpoint_interval
        if backend == "bnb" and interval is not None:
            options["checkpoint_interval"] = interval
        return options


@dataclass
class FallbackReport:
    """What the resilient solve path actually did — returned in telemetry.

    ``source`` is the provenance of the returned design: ``"exact"`` (the
    solver proved optimality), ``"incumbent"`` (budget exhausted, best
    incumbent returned), ``"lpt"`` / ``"sa"`` (heuristic degradation).
    ``ladder`` lists every step attempted in order with its outcome.
    """

    source: str = "exact"
    reason: str | None = None
    retries: int = 0
    transient_errors: list[str] = field(default_factory=list)
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
            "retries": self.retries,
            "transient_errors": list(self.transient_errors),
            "ladder": [dict(step) for step in self.ladder],
        }

    def render(self) -> str:
        """One-line provenance summary for reports."""
        if not self.degraded and not self.retries:
            return "exact solve"
        bits = [f"source={self.source}"]
        if self.reason:
            bits.append(f"reason={self.reason}")
        if self.retries:
            bits.append(f"retries={self.retries}")
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
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = {"values": [float(v) for v in values], "objective": float(objective)}
        fd, tmp_name = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, self._path_for(fingerprint))
        except OSError:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
