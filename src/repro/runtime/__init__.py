"""Solve runtime: persistent solution caching, parallel fan-out, telemetry.

The experiment harnesses sweep (SOC, width, power-cap) grids that re-solve
many identical ILP instances; this subsystem makes those sweeps fast without
changing a single answer:

- :mod:`repro.runtime.cache` — content-addressed memoization of
  ``model.solve`` results. The key is a canonical hash of the matrix form
  (coefficients, bounds, integrality, objective) plus the backend and its
  options, so a hit is *provably* the same instance. In-memory LRU plus an
  optional on-disk store (default ``.repro-cache/``) that survives runs.
- :mod:`repro.runtime.parallel` — :func:`run_parallel` fans independent
  sweep points across a ``ProcessPoolExecutor`` while preserving result
  ordering; ``max_workers=1`` is a deterministic serial fallback that runs
  in-process.
- :mod:`repro.runtime.telemetry` — :class:`RunTelemetry` aggregates the
  per-solve :class:`~repro.ilp.solution.SolveStats` records (nodes, LP
  iterations, wall time, cache hits) for reports and ``--json`` output.
"""

from repro.runtime.cache import (
    DEFAULT_CACHE_DIR,
    SolutionCache,
    get_solve_cache,
    matrix_fingerprint,
    set_solve_cache,
    solve_cached,
    solve_fingerprint,
    use_cache,
)
from repro.runtime.fingerprint import cache_token_of, token_digest
from repro.runtime.parallel import run_parallel
from repro.runtime.telemetry import RunTelemetry

__all__ = [
    "DEFAULT_CACHE_DIR",
    "SolutionCache",
    "RunTelemetry",
    "cache_token_of",
    "get_solve_cache",
    "matrix_fingerprint",
    "run_parallel",
    "set_solve_cache",
    "solve_cached",
    "solve_fingerprint",
    "token_digest",
    "use_cache",
]
