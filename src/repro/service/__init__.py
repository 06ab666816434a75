"""Design-as-a-service: an async job queue + HTTP/JSON API over the solve
runtime.

Every entry point funnels into the same unified
:class:`~repro.core.request.SolveRequest` surface the library and the CLI
use, so a request fingerprints, caches, and dedupes identically no matter
which front-end produced it. Structured solver knobs (root cuts, root
presolve) ride the ``policy.solver`` block of the wire payload as plain
JSON — see
:meth:`repro.obs.SolverOptions.from_dict`. See DESIGN.md §11 for lanes,
dedupe, tenancy, and failure semantics.

- :class:`JobScheduler` — fair-share lanes, fingerprint dedupe, tenant
  cache namespaces, incumbent checkpoints (:mod:`repro.service.scheduler`);
- :class:`DesignServer` / :func:`serve` — the stdlib HTTP/1.1 front-end
  (:mod:`repro.service.http`);
- :class:`ServiceClient` — stdlib client with submit/poll/stream/cancel
  (:mod:`repro.service.client`).

The load generator behind the CI smoke runs as
``python -m repro.service.loadgen``; the package does not import it, so
``runpy`` does not find it already loaded and warn.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.http import DesignServer, serve
from repro.service.jobs import DEFAULT_LANES, JOB_STATUSES, LANES, Job
from repro.service.scheduler import JobScheduler

__all__ = [
    "DEFAULT_LANES",
    "DesignServer",
    "JOB_STATUSES",
    "Job",
    "JobScheduler",
    "LANES",
    "ServiceClient",
    "ServiceError",
    "serve",
]
