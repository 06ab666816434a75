"""The one request surface every entry point constructs solves through.

Three request shapes had accreted by PR 6: the library's ``design(problem,
policy=..., **solver_options)`` kwarg plumbing, the CLI's flag bundles, and
the experiment harnesses' :class:`~repro.experiments.base.ExperimentConfig`.
A :class:`SolveRequest` unifies them: one frozen, picklable, JSON-round-
trippable description of *what to solve and how hard to try*, with

- **validation** per job kind (``design`` / ``sweep`` / ``min_width`` /
  ``bus_count``) at construction time, so malformed requests fail before
  they reach a queue or a worker;
- **one fingerprint** — :meth:`cache_token` (the shared protocol of
  :mod:`repro.runtime.fingerprint`, also implemented by
  :class:`~repro.obs.SolvePolicy`) canonicalizes exactly the
  result-affecting fields, and :meth:`fingerprint` hashes it. The service
  dedupes concurrent identical submissions by this fingerprint; N clients
  asking for the same solve trigger exactly one run;
- **one execution path** — :meth:`run` dispatches to the exact design flow
  (:func:`~repro.core.designer.design`,
  :func:`~repro.core.designer.design_best_architecture`,
  :func:`~repro.core.dual.minimize_width`,
  :func:`~repro.core.dual.explore_bus_counts`), and :meth:`run_payload`
  returns the JSON shape the CLI ``--json`` output and the HTTP service
  both serve.

``jobs`` (worker fan-out) is deliberately *not* part of the cache token:
parallelism never changes what a solve returns, so requests differing only
in ``jobs`` dedupe onto one result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.core.designer import TamDesign, design, design_best_architecture
from repro.core.dual import explore_bus_counts, minimize_width
from repro.core.problem import DesignProblem
from repro.layout.placers import grid_place
from repro.obs import SolvePolicy
from repro.obs.policy import DerivedFields, field_default
from repro.runtime.fingerprint import token_digest
from repro.soc.builders import build_s1, build_s2, build_s3
from repro.soc.catalog import corpus_names, corpus_soc
from repro.soc.generator import generate_synthetic_soc
from repro.soc.itc02 import build_d695
from repro.soc.io import load_soc
from repro.soc.system import Soc
from repro.tam.architecture import TamArchitecture
from repro.util.errors import ValidationError

#: The job kinds the unified surface knows how to run.
REQUEST_KINDS = ("design", "sweep", "min_width", "bus_count")

#: Fields a request kind requires beyond ``soc`` (validated at construction).
_REQUIRED: dict[str, tuple[str, ...]] = {
    "design": ("widths",),
    "sweep": ("total_width", "num_buses"),
    "min_width": ("num_buses", "time_budget"),
    "bus_count": ("total_width", "max_buses"),
}

_TIMINGS = ("fixed", "serial", "flexible")


def resolve_soc(spec: str) -> Soc:
    """Turn an SOC spec string into a system (builtin / synthetic / file).

    Accepts the builtin names ``S1``/``S2``/``S3``/``D695``, any registered
    stress-corpus name (``p93791``, ``t512505``, ``scale200``, … — see
    :func:`repro.soc.catalog.corpus_names`), ``SYN<n>[:seed]`` for a seeded
    synthetic system, ``ITC<n>[:seed]`` for the heavy-tailed ITC'02-class
    generator mode, or a path to a ``.soc`` file. This is the one resolver
    the CLI, the service, and request payloads share — a spec string is the
    portable, fingerprintable name of a system.
    """
    builtin = {"S1": build_s1, "S2": build_s2, "S3": build_s3, "D695": build_d695}
    if spec.upper() in builtin:
        return builtin[spec.upper()]()
    if spec.lower() in corpus_names():
        return corpus_soc(spec)
    if spec.upper().startswith("SYN") or spec.upper().startswith("ITC"):
        mode = "catalog" if spec.upper().startswith("SYN") else "itc02"
        body = spec[3:]
        count, _, seed = body.partition(":")
        try:
            return generate_synthetic_soc(
                int(count), seed=int(seed) if seed else 0, mode=mode
            )
        except ValueError as exc:
            raise ValidationError(f"bad synthetic SOC spec {spec!r}: {exc}") from exc
    return load_soc(spec)


@dataclass(frozen=True)
class SolveRequest(DerivedFields):
    """One validated, fingerprintable description of a solve job.

    ``soc`` is a spec string (see :func:`resolve_soc`), not a live object:
    requests must be picklable, serializable, and content-addressable.
    ``options`` holds extra JSON-scalar solver kwargs (``gap_tol``, ...)
    as a sorted tuple of pairs so equal requests compare and hash equal
    regardless of construction order; the effort settings belong on
    ``policy`` (:class:`~repro.obs.SolvePolicy`), which serializes with the
    request and reaches the fingerprint through its cache token.

    The token, the wire form, overrides and the integer checks derive from
    the fields (:class:`~repro.obs.policy.DerivedFields`): ``widths``,
    ``total_width``, ``num_buses``, ``max_buses`` and ``jobs`` must be
    integers (not bools) when the request is built, ``jobs`` opts out of
    the token, and ``options`` travels as a JSON object.
    """

    kind: str
    soc: str
    widths: tuple[int, ...] | None = None
    total_width: int | None = None
    num_buses: int | None = None
    time_budget: float | None = None
    max_buses: int | None = None
    power_budget: float | None = None
    max_pair_distance: float | None = None
    timing: str = "serial"
    backend: str = "bnb"
    jobs: int = field(default=1, metadata={"cache": False})
    options: tuple[tuple[str, Any], ...] = field(
        default_factory=tuple, metadata={"wire": dict}
    )
    policy: SolvePolicy | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind not in REQUEST_KINDS:
            raise ValidationError(
                f"unknown request kind {self.kind!r}; expected one of {list(REQUEST_KINDS)}"
            )
        if not self.soc or not isinstance(self.soc, str):
            raise ValidationError(f"soc must be a non-empty spec string, got {self.soc!r}")
        if self.timing not in _TIMINGS:
            raise ValidationError(
                f"unknown timing model {self.timing!r}; expected one of {list(_TIMINGS)}"
            )
        if self.widths is not None:
            object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        options = self.options or ()
        pairs = options.items() if isinstance(options, Mapping) else options
        object.__setattr__(self, "options", tuple(sorted(tuple(pairs))))
        if self.policy is not None and not isinstance(self.policy, SolvePolicy):
            raise ValidationError(
                f"policy must be a SolvePolicy or None, got {type(self.policy).__name__}"
            )
        missing = [
            name for name in _REQUIRED[self.kind] if getattr(self, name) is None
        ]
        if missing:
            raise ValidationError(
                f"{self.kind} request is missing required field(s): {', '.join(missing)}"
            )
        for name in ("total_width", "num_buses", "max_buses", "jobs"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValidationError(f"time_budget must be positive, got {self.time_budget}")
        if self.widths is not None and (
            not self.widths or any(w <= 0 for w in self.widths)
        ):
            raise ValidationError(f"widths must be positive, got {self.widths}")

    # ------------------------------------------------------------ fingerprint
    def fingerprint(self) -> str:
        """Content hash identifying this request for dedupe and caching."""
        return token_digest("repro-request-v1", self.cache_token())

    # -------------------------------------------------------------- execution
    def request_options(self) -> dict[str, Any]:
        """The solve-shaping knobs :meth:`run` forwards to the design flow.

        Everything in this mapping is covered by :meth:`cache_token`, which
        derives from the fields — flow rule D001 rejects a hand-written one.
        """
        options: dict[str, Any] = dict(self.options)
        options["backend"] = self.backend
        if self.policy is not None:
            options["policy"] = self.policy
        return options

    def resolve(self) -> Soc:
        """The live :class:`~repro.soc.system.Soc` this request names."""
        return resolve_soc(self.soc)

    def problem(self) -> DesignProblem:
        """The single :class:`DesignProblem` of a ``design`` request."""
        if self.kind != "design":
            raise ValidationError(f"{self.kind} request does not define a single problem")
        soc = self.resolve()
        floorplan = grid_place(soc) if self.max_pair_distance is not None else None
        assert self.widths is not None
        return DesignProblem(
            soc=soc,
            arch=TamArchitecture(list(self.widths)),
            timing=self.timing,
            power_budget=self.power_budget,
            floorplan=floorplan,
            max_pair_distance=self.max_pair_distance,
        )

    def run(self):
        """Execute the request through the exact design flow.

        Returns the kind's native result object: :class:`TamDesign`,
        :class:`~repro.core.designer.ArchitectureSweepResult`,
        :class:`~repro.core.dual.WidthMinimization`, or a list of
        :class:`~repro.core.dual.BusCountPoint`.
        """
        options = self.request_options()
        backend = options.pop("backend")
        policy = options.pop("policy", None)
        if self.kind == "design":
            return design(self.problem(), backend=backend, policy=policy, **options)
        soc = self.resolve()
        floorplan = grid_place(soc) if self.max_pair_distance is not None else None
        if self.kind == "sweep":
            return design_best_architecture(
                soc,
                self.total_width,
                self.num_buses,
                timing=self.timing,
                power_budget=self.power_budget,
                floorplan=floorplan,
                max_pair_distance=self.max_pair_distance,
                backend=backend,
                policy=policy,
                **options,
            )
        if self.kind == "min_width":
            return minimize_width(
                soc,
                self.num_buses,
                self.time_budget,
                timing=self.timing,
                power_budget=self.power_budget,
                floorplan=floorplan,
                max_pair_distance=self.max_pair_distance,
                backend=backend,
                policy=policy,
                **options,
            )
        return explore_bus_counts(
            soc,
            self.total_width,
            self.max_buses,
            timing=self.timing,
            power_budget=self.power_budget,
            floorplan=floorplan,
            max_pair_distance=self.max_pair_distance,
            backend=backend,
            jobs=self.jobs,
            policy=policy,
            **options,
        )

    def run_payload(self) -> dict[str, Any]:
        """Execute and return the JSON-ready result the CLI and service emit."""
        return self.result_payload(self.run())

    def result_payload(self, result) -> dict[str, Any]:
        """JSON-ready view of ``result`` for this request's kind."""
        if self.kind == "design":
            return self._design_payload(result)
        if self.kind == "sweep":
            payload = {
                "kind": "sweep",
                "soc": result.soc_name,
                "total_width": result.total_width,
                "num_buses": result.num_buses,
                "evaluated": result.evaluated,
                "infeasible": result.infeasible,
                "pruned": result.pruned,
                "per_architecture": [
                    [list(arch.widths), makespan]
                    for arch, makespan in result.per_architecture
                ],
                "telemetry": result.telemetry.as_dict(),
                "best": self._design_payload(result.best) if result.best else None,
            }
            return payload
        if self.kind == "min_width":
            return {
                "kind": "min_width",
                "time_budget": result.time_budget,
                "num_buses": result.num_buses,
                "min_width": result.min_width,
                "evaluated_widths": [list(pair) for pair in result.evaluated_widths],
                "design": self._design_payload(result.design),
            }
        return {
            "kind": "bus_count",
            "points": [
                {
                    "num_buses": point.num_buses,
                    "makespan": point.makespan,
                    "widths": list(point.arch_widths) if point.arch_widths else None,
                }
                for point in result
            ],
        }

    def _design_payload(self, result: TamDesign) -> dict[str, Any]:
        soc = result.problem.soc
        return {
            "kind": "design",
            "soc": soc.name,
            "widths": list(result.arch.widths),
            "timing": self.timing,
            "constraints": result.problem.constraint_summary(),
            "status": result.status.value,
            "makespan": result.makespan,
            "bus_times": result.bus_times,
            "wirelength": result.wirelength,
            "backend": result.backend,
            "provenance": result.provenance,
            "assignment": {
                core.name: int(bus)
                for core, bus in zip(soc.cores, result.assignment.bus_of)
            },
            "stats": result.stats.as_dict(),
        }

    # ------------------------------------------------------------- transport
    def as_payload(self) -> dict[str, Any]:
        """JSON-ready wire form (see :meth:`from_payload`): the fields of
        :meth:`as_dict` that differ from their defaults."""
        full = self.as_dict()
        return {
            spec.name: full[spec.name]
            for spec in fields(self)
            if getattr(self, spec.name) != field_default(spec)
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "SolveRequest":
        """Parse the wire form, rejecting unknown keys loudly."""
        options = payload.get("options") if isinstance(payload, Mapping) else None
        if options is not None and not isinstance(options, Mapping):
            raise ValidationError("options must be a JSON object of solver kwargs")
        return cls.from_dict(payload)
