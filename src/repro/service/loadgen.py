"""Load generator: concurrent clients against a running design service.

Drives N client threads, each submitting a round-robin slice of a request
mix and polling to completion, and reports client-observed latency
percentiles, throughput, and the server's dedupe-join rate. Used as the
CI smoke (``python -m repro.service.loadgen --base-url ... --assert-dedupe``).
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from typing import Any

from repro.obs import now
from repro.service.client import ServiceClient

#: Default request mix: identical interactive designs (exercise dedupe +
#: cache) plus distinct small designs (exercise throughput).
DEFAULT_MIX: list[dict[str, Any]] = [
    {"kind": "design", "soc": "S1", "widths": [16, 16, 16]},
    {"kind": "design", "soc": "S1", "widths": [16, 16]},
    {"kind": "design", "soc": "S1", "widths": [32, 16]},
    {"kind": "design", "soc": "S1", "widths": [16, 16, 16]},
]


def _percentile(sorted_values: list[float], q: float) -> float | None:
    if not sorted_values:
        return None
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def run_load(
    base_url: str,
    payloads: list[dict[str, Any]] | None = None,
    clients: int = 4,
    requests_per_client: int = 4,
    tenant: str | None = None,
    timeout: float = 120.0,
) -> dict[str, Any]:
    """Run the load and return a JSON-ready stats payload.

    Latency is client-observed submit→result wall time (poll granularity
    included — this measures the service as a user sees it, not the bare
    solver). The dedupe join count is read from the server's metrics delta
    across the run.
    """
    payloads = payloads or DEFAULT_MIX
    client = ServiceClient(base_url, timeout=timeout)
    before = client.metrics()["dedupe"]
    latencies: list[float] = []
    errors: list[str] = []
    lock = threading.Lock()

    def _drive(worker: int) -> None:
        for i in range(requests_per_client):
            payload = payloads[(worker + i) % len(payloads)]
            begin = now()
            try:
                client.run(payload, tenant=tenant, timeout=timeout)
            except Exception as exc:  # noqa: BLE001 - recorded, not raised
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed = now() - begin
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=_drive, args=(w,), name=f"loadgen-{w}")
        for w in range(clients)
    ]
    wall_start = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = now() - wall_start
    after = client.metrics()["dedupe"]
    ordered = sorted(latencies)
    completed = len(latencies)
    submitted = after["submitted"] - before["submitted"]
    joins = after["joins"] - before["joins"]
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "completed": completed,
        "errors": errors,
        "wall_time": wall,
        "throughput": completed / wall if wall > 0 else 0.0,
        "latency": {
            "p50": _percentile(ordered, 0.50),
            "p99": _percentile(ordered, 0.99),
            "min": ordered[0] if ordered else None,
            "max": ordered[-1] if ordered else None,
        },
        "dedupe": {
            "submitted": submitted,
            "joins": joins,
            "join_rate": (joins / submitted) if submitted else 0.0,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-loadgen", description="load-generate a running design service"
    )
    parser.add_argument("--base-url", required=True, help="http://host:port of the service")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests-per-client", type=int, default=4)
    parser.add_argument("--tenant", default=None)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--assert-dedupe", action="store_true",
                        help="exit 1 unless at least one dedupe join happened")
    args = parser.parse_args(argv)
    stats = run_load(
        args.base_url,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        tenant=args.tenant,
        timeout=args.timeout,
    )
    print(json.dumps(stats, indent=2, sort_keys=True))
    if stats["errors"]:
        print(f"loadgen: {len(stats['errors'])} request(s) failed", file=sys.stderr)
        return 1
    if stats["completed"] == 0:
        print("loadgen: no request completed", file=sys.stderr)
        return 1
    if args.assert_dedupe and stats["dedupe"]["joins"] == 0:
        print("loadgen: expected at least one dedupe join", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
