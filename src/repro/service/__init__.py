"""Design-as-a-service: an async job queue + HTTP/JSON API over the solve
runtime.

Every entry point funnels into the same unified
:class:`~repro.core.request.SolveRequest` surface the library and the CLI
use, so a request fingerprints, caches, and dedupes identically no matter
which front-end produced it. The solve settings ride the ``policy``
object of the wire payload (see :meth:`repro.obs.SolvePolicy.from_dict`).
A malformed setting (a non-integer where an integer belongs, an unknown
key such as the retired ``solver`` block) is rejected with a 400 at
submit. See DESIGN.md §11 for lanes,
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
