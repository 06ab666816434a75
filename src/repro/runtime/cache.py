"""Content-addressed memoization of ILP solves.

The sweeps behind the evaluation re-solve many identical instances: the
width staircase revisits (W, NB) cells, the dual width-minimization binary
search re-probes architectures, and every warm re-run of an experiment
repeats the whole grid. A :class:`SolutionCache` keys each solve by a
canonical content hash of the model's :class:`~repro.ilp.model.MatrixForm`
plus the backend and its options, so a cache hit is guaranteed to be the
*same mathematical instance* solved the same way — the memoized
:class:`~repro.ilp.solution.Solution` is returned bit-identical, flagged
with ``cache_hit=True``.

Why the key is sound (see DESIGN.md §7):

- the hash covers every array that defines the instance — objective ``c``
  and offset ``c0``, both constraint blocks with their right-hand sides,
  variable bounds, and the integrality mask — as exact float64 bytes, no
  tolerance or rounding;
- inequality and equality rows are sorted into a canonical order together
  with their right-hand sides before hashing, so two models that state the
  same constraints in a different order collide onto one key (row order
  never changes the feasible set);
- the backend, the ad-hoc solver options (``gap_tol``, warm starts …) and
  what the policy's cached fields imply are part of the key, canonicalized
  through the shared ``cache_token()`` protocol
  (:mod:`repro.runtime.fingerprint`): a different search configuration may
  legitimately return a different (equally optimal) vertex, so it must
  never alias. Policy fields marked ``metadata={"cache": False}`` (the
  checkpoint directory) never enter the key.

Storage is a two-level hierarchy: an in-memory LRU (per process) in front
of an optional on-disk JSON store under ``directory`` (conventionally
``.repro-cache/``) that persists across runs and is shared by parallel
worker processes.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Mapping

import numpy as np

from repro.ilp.solution import Solution, SolveStats, Status
from repro.obs.policy import write_json_atomic
from repro.runtime.fingerprint import cache_token_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (model imports us lazily)
    from repro.ilp.model import MatrixForm, Model

#: Conventional on-disk store location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Cache format version; bump when the record layout or key derivation
#: changes so stale stores are ignored rather than misread. v2: solver fast
#: path (presolve + pseudocost branching) — objectives are unchanged but
#: tie-broken assignments and the persisted work counters may differ, so
#: records written by the v1 solver are not replayed. v3: branch-and-cut —
#: new persisted cut counters (cut_rounds/clique_cuts/cover_cuts/
#: cuts_dropped) and cut-dependent tie-broken assignments. v4: root
# presolve + warm-started node LPs — new persisted presolve/warm counters
# and reduction-dependent tie-broken assignments. v5: node LPs carry their
# parent's factorization (different tie-broken assignments), and
# ``best_bound``/``gap`` mean the proven bound and the relative gap on every
# exit. v6: a solve key carries only the policy's cached fields (checkpoint
# settings no longer split it), and a record keeps every SolveStats field.
# v7: the clique_cuts/cover_cuts/cuts_dropped counters and the branching,
# node-presolve and warm-LP switches are gone from records and keys.
# v8: records lose the retries counter, and design() no longer hashes a
# cut_policy into every key (the cut default moved into the solver).
# v9: design() seeds bnb with the LPT assignment (B&B keeps it on a tie, so
# tie-broken assignments change), and the SolverOptions token loses a field.
# v10: SolverOptions and the root_presolve_rounds/root_coeffs_tightened
# counters are gone, root presolve is one propagation step (tie-broken
# assignments change), and a plain design() keys its LPT seed by name.
_FORMAT_VERSION = 10


def _hash_array(h: "hashlib._Hash", label: str, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float64))
    h.update(label.encode())
    h.update(repr(arr.shape).encode())
    h.update(arr.tobytes())


def _canonical_rows(a: np.ndarray, b: np.ndarray, num_vars: int) -> np.ndarray:
    """Stack ``[A | b]`` and sort rows lexicographically (canonical order)."""
    if len(b) == 0:
        return np.zeros((0, num_vars + 1))
    rows = np.hstack([
        np.asarray(a, dtype=np.float64),
        np.asarray(b, dtype=np.float64).reshape(-1, 1),
    ])
    # lexsort keys run last-to-first; reverse the columns so column 0 is the
    # primary sort key.
    order = np.lexsort(rows.T[::-1])
    return rows[order]


def matrix_fingerprint(form: "MatrixForm") -> str:
    """Canonical sha256 content hash of a matrix-form instance.

    Invariant under constraint row order; sensitive to every coefficient,
    bound, right-hand side, and the integrality mask at full float64
    precision.
    """
    h = hashlib.sha256()
    h.update(f"repro-matrix-v{_FORMAT_VERSION}".encode())
    _hash_array(h, "c", form.c)
    _hash_array(h, "c0", np.array([form.c0]))
    _hash_array(h, "ub", _canonical_rows(form.a_ub, form.b_ub, form.num_vars))
    _hash_array(h, "eq", _canonical_rows(form.a_eq, form.b_eq, form.num_vars))
    _hash_array(h, "lb", form.lb)
    _hash_array(h, "vub", form.ub)
    _hash_array(h, "int", form.integer_mask.astype(np.float64))
    return h.hexdigest()


def solve_fingerprint(
    form: "MatrixForm",
    backend: str = "bnb",
    options: Mapping[str, Any] | None = None,
    namespace: str | None = None,
) -> str:
    """Cache key for one solve: instance content + backend + options.

    Option values canonicalize through the shared ``cache_token()`` protocol
    (:func:`repro.runtime.fingerprint.cache_token_of`): an option exposing
    ``cache_token()`` — a :class:`~repro.obs.SolvePolicy`, a
    :class:`~repro.core.request.SolveRequest` — names its own
    result-affecting fields; everything else reduces to deterministic text.
    ``namespace`` partitions the key space per tenant: the same instance
    solved under two namespaces never shares a record.
    """
    parts = [matrix_fingerprint(form), f"backend={backend}"]
    if namespace is not None:
        parts.append(f"namespace={namespace}")
    for key in sorted(options or {}):
        parts.append(f"{key}={cache_token_of(options[key])}")
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@dataclass(frozen=True)
class CacheRecord:
    """The portable payload of one memoized solve.

    Values are stored by column index (not by :class:`Variable`), so a
    record can be rebound to any structurally identical model — including
    one rebuilt in a different process.
    """

    status: str
    objective: float | None
    values: tuple[float, ...]
    backend: str
    stats: dict[str, Any]

    @classmethod
    def from_solution(cls, solution: Solution, num_vars: int) -> "CacheRecord":
        values: tuple[float, ...] = ()
        if solution.values:
            dense = [0.0] * num_vars
            for var, val in solution.values.items():
                dense[var.index] = float(val)
            values = tuple(dense)
        stats = solution.stats.as_dict()
        return cls(
            status=solution.status.value,
            objective=solution.objective,
            values=values,
            backend=solution.backend,
            stats=stats,
        )

    def to_solution(self, model: "Model") -> Solution:
        status = Status(self.status)
        values = {}
        if self.values:
            if len(self.values) != model.num_vars:
                raise ValueError(
                    f"cached record has {len(self.values)} values but the model "
                    f"has {model.num_vars} variables"
                )
            values = {var: self.values[var.index] for var in model.variables}
        stats = SolveStats(**{**self.stats, "cache_hit": True})
        return Solution(
            status,
            objective=self.objective,
            values=values,
            stats=stats,
            backend=self.backend,
            cache_hit=True,
        )

    def to_json(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["version"] = _FORMAT_VERSION
        payload["values"] = list(self.values)
        return payload

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "CacheRecord":
        if payload.get("version") != _FORMAT_VERSION:
            raise ValueError(f"unsupported cache record version {payload.get('version')!r}")
        return cls(
            status=str(payload["status"]),
            objective=None if payload["objective"] is None else float(payload["objective"]),
            values=tuple(float(v) for v in payload["values"]),
            backend=str(payload["backend"]),
            stats=dict(payload["stats"]),
        )


class SolutionCache:
    """Two-level (memory LRU + optional disk) store of memoized solves.

    Parameters
    ----------
    maxsize:
        In-memory LRU capacity in records; the disk store is unbounded.
    directory:
        On-disk store root, or None for memory-only. Created lazily on the
        first write.
    namespace:
        Optional tenant namespace. Namespaced caches never alias: the
        namespace is folded into every fingerprint and the on-disk records
        live under ``directory/<namespace>/``, so one tenant's records can
        be purged (or quota'd) without touching another's. The service
        layer gives each tenant its own namespaced cache over one shared
        store root.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        directory: str | os.PathLike | None = None,
        namespace: str | None = None,
    ):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        if namespace is not None and (
            not namespace or not all(c.isalnum() or c in "._-" for c in namespace)
        ):
            raise ValueError(
                f"namespace must be non-empty [A-Za-z0-9._-] text, got {namespace!r}"
            )
        self.maxsize = maxsize
        self.directory = Path(directory) if directory is not None else None
        self.namespace = namespace
        self._memory: OrderedDict[str, CacheRecord] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    # ------------------------------------------------------------------ keys
    def fingerprint(
        self, form: "MatrixForm", backend: str = "bnb", options: Mapping[str, Any] | None = None
    ) -> str:
        return solve_fingerprint(
            form, backend=backend, options=options, namespace=self.namespace
        )

    # ----------------------------------------------------------------- store
    def _path_for(self, key: str) -> Path:
        assert self.directory is not None
        root = self.directory if self.namespace is None else self.directory / self.namespace
        return root / f"{key}.json"

    def _remember(self, key: str, record: CacheRecord) -> None:
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.maxsize:
            self._memory.popitem(last=False)

    def lookup(self, key: str) -> CacheRecord | None:
        """Fetch a record by key (memory first, then disk); counts hit/miss."""
        from repro.obs import get_metrics

        record = self._memory.get(key)
        if record is not None:
            self._memory.move_to_end(key)
            self.hits += 1
            get_metrics().counter("cache.hits").inc()
            return record
        if self.directory is not None:
            path = self._path_for(key)
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                record = CacheRecord.from_json(payload)
            except (OSError, ValueError, KeyError):
                record = None  # absent or corrupt on-disk entry -> miss
            if record is not None:
                self._remember(key, record)
                self.hits += 1
                get_metrics().counter("cache.hits").inc()
                return record
        self.misses += 1
        get_metrics().counter("cache.misses").inc()
        return None

    def store(self, key: str, record: CacheRecord) -> None:
        """Insert a record in memory and (when configured) on disk."""
        self._remember(key, record)
        self.stores += 1
        if self.directory is not None:
            # Write-then-rename so parallel workers never read a torn file.
            write_json_atomic(self._path_for(key), record.to_json())

    # ------------------------------------------------------------- solutions
    def get_solution(self, key: str, model: "Model") -> Solution | None:
        """Return the memoized solution rebound to ``model``, or None."""
        record = self.lookup(key)
        if record is None:
            return None
        try:
            return record.to_solution(model)
        except (TypeError, ValueError):
            # Structurally incompatible record (should be unreachable given
            # the content hash); treat as a miss rather than corrupt a run.
            self.hits -= 1
            self.misses += 1
            return None

    def put_solution(self, key: str, solution: Solution, num_vars: int) -> None:
        self.store(key, CacheRecord.from_solution(solution, num_vars))

    # --------------------------------------------------------------- utility
    def clear(self, disk: bool = False) -> None:
        """Drop the in-memory LRU; with ``disk=True`` also the on-disk store.

        A namespaced cache only ever clears its own ``directory/<namespace>/``
        records — tenant isolation holds for purges, not just lookups.
        """
        self._memory.clear()
        if disk and self.directory is not None:
            root = (
                self.directory if self.namespace is None else self.directory / self.namespace
            )
            if root.exists():
                for path in root.glob("*.json"):
                    try:
                        path.unlink()
                    except OSError:
                        pass

    def __len__(self) -> int:
        return len(self._memory)

    def stats_summary(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses, "stores": self.stores}

    def __repr__(self) -> str:
        where = f"disk={self.directory}" if self.directory else "memory-only"
        return (
            f"SolutionCache({len(self._memory)}/{self.maxsize} in memory, {where}, "
            f"hits={self.hits}, misses={self.misses})"
        )


# --------------------------------------------------------------- active cache
#: Active cache consulted by ``Model.solve``; None disables memoization
#: entirely (the seed behavior). A ContextVar rather than a module global so
#: concurrent service workers can each hold a different tenant's namespaced
#: cache: every thread (and asyncio task) sees only its own installation.
_ACTIVE_CACHE: ContextVar[SolutionCache | None] = ContextVar(
    "repro_active_solve_cache", default=None
)


def set_solve_cache(cache: SolutionCache | None) -> SolutionCache | None:
    """Install ``cache`` as the active solve cache; returns the previous.

    Scoped to the current thread/task context — a fresh thread starts with
    no active cache regardless of what its parent installed.
    """
    previous = _ACTIVE_CACHE.get()
    _ACTIVE_CACHE.set(cache)
    return previous


def get_solve_cache() -> SolutionCache | None:
    """The currently active solve cache, or None."""
    return _ACTIVE_CACHE.get()


@contextmanager
def use_cache(cache: SolutionCache | None) -> Iterator[SolutionCache | None]:
    """Scope ``cache`` as the active solve cache for a ``with`` block."""
    previous = set_solve_cache(cache)
    try:
        yield cache
    finally:
        set_solve_cache(previous)


def resolve_cache(cache: "SolutionCache | bool | None") -> SolutionCache | None:
    """Normalize a ``Model.solve(cache=...)`` argument to a cache or None.

    ``None`` defers to the active context cache, ``False`` disables caching
    for this solve, a :class:`SolutionCache` is used directly.
    """
    if cache is None:
        return get_solve_cache()
    if cache is False:
        return None
    if isinstance(cache, SolutionCache):
        return cache
    raise TypeError(f"cache must be a SolutionCache, False, or None; got {type(cache).__name__}")


def solve_cached(model: "Model", backend: str = "bnb", cache: SolutionCache | None = None, **options):
    """Solve ``model`` through a cache (the facade's blessed entry point).

    Uses ``cache`` when given, else the active context cache, else a lazily
    created process-wide in-memory cache — so repeated identical solves in
    one session are always memoized.
    """
    target = cache if cache is not None else get_solve_cache()
    if target is None:
        target = _default_cache()
    return model.solve(backend=backend, cache=target, **options)


_DEFAULT_CACHE: SolutionCache | None = None


def _default_cache() -> SolutionCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = SolutionCache()
    return _DEFAULT_CACHE
