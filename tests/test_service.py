"""The design service: scheduler semantics and the HTTP round-trip.

The load-bearing guarantees under test:

- **dedupe** — N concurrent identical submissions execute exactly one
  solve (counted at the backend) and all submitters read one result;
- **cancel** — cancelling a job, queued or running, never poisons the
  dedupe map or the tenant cache: a re-submission runs fresh and
  returns a correct, complete result;
- **fair share** — dispatch alternates between the interactive and batch
  lanes so neither starves the other;
- **HTTP** — submit → poll → result round-trips over real sockets,
  including from multiple client threads at once.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core import SolveRequest
from repro.ilp.model import _solve_bnb, register_backend, unregister_backend
from repro.obs import SolvePolicy
from repro.service import (
    DesignServer,
    JobScheduler,
    ServiceClient,
    ServiceError,
)


class GatedBackend:
    """Counting backend whose solves block until the test opens the gate."""

    def __init__(self):
        self.calls = 0
        self.gate = threading.Event()
        self.gate.set()

    def __call__(self, model, **options):
        self.calls += 1
        assert self.gate.wait(timeout=30), "test forgot to open the gate"
        return _solve_bnb(model, **options)


@pytest.fixture
def backend():
    gated = GatedBackend()
    register_backend("svc-test", gated)
    try:
        yield gated
    finally:
        unregister_backend("svc-test")


def make_request(widths=(16, 16), **overrides):
    base = {"kind": "design", "soc": "S1", "widths": widths, "backend": "svc-test"}
    base.update(overrides)
    return SolveRequest(**base)


async def wait_finished(job, timeout=30.0):
    for _ in range(int(timeout / 0.01)):
        if job.finished:
            return job
        await asyncio.sleep(0.01)
    raise AssertionError(f"job {job.id} did not finish: {job.status}")


def run_scheduler(coro_fn, **scheduler_kwargs):
    """Run ``coro_fn(scheduler)`` inside a fresh event loop + scheduler."""

    async def main():
        scheduler = JobScheduler(**scheduler_kwargs)
        await scheduler.start()
        try:
            return await coro_fn(scheduler)
        finally:
            await scheduler.close()

    return asyncio.run(main())


class TestSchedulerDedupe:
    def test_n_concurrent_identical_submissions_run_one_solve(self, backend):
        backend.gate.clear()  # hold the solve so everyone joins in flight

        async def scenario(scheduler):
            request = make_request()
            outcomes = await asyncio.gather(
                *[scheduler.submit(request) for _ in range(5)]
            )
            assert len({job.id for job, _ in outcomes}) == 1
            assert [deduped for _, deduped in outcomes].count(True) == 4
            backend.gate.set()
            job = await wait_finished(outcomes[0][0])
            assert job.status == "done"
            assert job.joined == 4
            return job

        job = run_scheduler(scenario)
        assert backend.calls == 1
        assert job.result["makespan"] > 0

    def test_distinct_tenants_do_not_dedupe_against_each_other(self, backend):
        async def scenario(scheduler):
            request = make_request()
            job_a, deduped_a = await scheduler.submit(request, tenant="acme")
            job_b, deduped_b = await scheduler.submit(request, tenant="globex")
            assert not deduped_a and not deduped_b
            assert job_a.id != job_b.id
            await wait_finished(job_a)
            await wait_finished(job_b)
            assert job_a.result["makespan"] == job_b.result["makespan"]
            assert job_a.result["assignment"] == job_b.result["assignment"]

        run_scheduler(scenario)

    def test_finished_job_does_not_absorb_new_submissions(self, backend):
        async def scenario(scheduler):
            request = make_request()
            job_a, _ = await scheduler.submit(request)
            await wait_finished(job_a)
            job_b, deduped = await scheduler.submit(request)
            assert job_b.id != job_a.id
            assert not deduped
            await wait_finished(job_b)
            assert job_b.result["makespan"] == job_a.result["makespan"]
            assert job_b.result["assignment"] == job_a.result["assignment"]

        run_scheduler(scenario)


class TestSchedulerCancel:
    def test_queued_cancel_leaves_dedupe_clean(self, backend):
        backend.gate.clear()

        async def scenario(scheduler):
            blocker, _ = await scheduler.submit(make_request(widths=(32, 16)))
            queued, _ = await scheduler.submit(make_request())
            cancelled = await scheduler.cancel(queued.id)
            assert cancelled.status == "cancelled"
            # A fresh submission must start a new job, not join the corpse.
            fresh, deduped = await scheduler.submit(make_request())
            assert not deduped
            assert fresh.id != queued.id
            backend.gate.set()
            await wait_finished(blocker)
            await wait_finished(fresh)
            assert fresh.status == "done"
            assert fresh.result["status"] == "optimal"

        run_scheduler(scenario, workers=1)

    def test_running_cancel_discards_result_but_not_correctness(self, backend):
        backend.gate.clear()

        async def scenario(scheduler):
            victim, _ = await scheduler.submit(make_request())
            for _ in range(500):
                if victim.status == "running":
                    break
                await asyncio.sleep(0.01)
            assert victim.status == "running"
            await scheduler.cancel(victim.id)
            assert victim.cancel_requested
            # Same fingerprint resubmitted while the victim still runs:
            # the dedupe entry is already gone, so this is a new job.
            fresh, deduped = await scheduler.submit(make_request())
            assert not deduped and fresh.id != victim.id
            backend.gate.set()
            await wait_finished(victim)
            await wait_finished(fresh)
            assert victim.status == "cancelled"
            assert victim.result is None
            assert fresh.status == "done"
            assert fresh.result["status"] == "optimal"
            assert fresh.result["makespan"] > 0

        run_scheduler(scenario, workers=2)


class TestFairShare:
    def test_dispatch_alternates_between_lanes(self):
        async def scenario():
            # Workers never started: jobs stay queued so the dispatch
            # order is observable one _next_job() call at a time.
            scheduler = JobScheduler(workers=1)
            interactive = [make_request(widths=(w, 16)) for w in (8, 12)]
            batch = [
                SolveRequest(kind="sweep", soc="S1", total_width=t, num_buses=2)
                for t in (24, 32)
            ]
            for request in batch:
                await scheduler.submit(request)
            for request in interactive:
                await scheduler.submit(request)
            order = [(await scheduler._next_job()).lane for _ in range(4)]
            return order

        order = asyncio.run(scenario())
        assert order == ["interactive", "batch", "interactive", "batch"]

    def test_default_lane_routing(self):
        async def scenario():
            scheduler = JobScheduler(workers=1)
            design_job, _ = await scheduler.submit(make_request())
            sweep_job, _ = await scheduler.submit(
                SolveRequest(kind="sweep", soc="S1", total_width=24, num_buses=2)
            )
            return design_job.lane, sweep_job.lane

        assert asyncio.run(scenario()) == ("interactive", "batch")


@pytest.fixture
def service(tmp_path):
    """A real DesignServer on an ephemeral port, run in its own thread."""
    box: dict = {}
    started = threading.Event()

    def run():
        async def main():
            server = DesignServer(
                "127.0.0.1",
                0,
                workers=2,
                cache_dir=str(tmp_path / "cache"),
                state_dir=str(tmp_path / "state"),
            )
            box["port"] = await server.start()
            box["loop"] = asyncio.get_running_loop()
            box["stop"] = asyncio.Event()
            started.set()
            await box["stop"].wait()
            await server.close()

        asyncio.run(main())

    thread = threading.Thread(target=run, name="service-under-test", daemon=True)
    thread.start()
    assert started.wait(timeout=10), "service failed to start"
    try:
        yield f"127.0.0.1:{box['port']}"
    finally:
        box["loop"].call_soon_threadsafe(box["stop"].set)
        thread.join(timeout=10)


class TestHttpRoundTrip:
    def test_health_and_metrics(self, service):
        client = ServiceClient(service)
        assert client.health() is True
        stats = client.metrics()
        assert "dedupe" in stats and "queues" in stats

    def test_submit_poll_result(self, service):
        client = ServiceClient(service)
        submitted = client.submit(make_request(backend="bnb"))
        assert submitted["deduped"] is False
        job_id = submitted["job"]["id"]
        result = client.wait(job_id, timeout=60)
        assert result["status"] == "optimal"
        assert result["makespan"] > 0
        assert client.status(job_id)["status"] == "done"

    def test_malformed_submissions_rejected_before_enqueue(self, service):
        client = ServiceClient(service)
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "design", "soc": "S1"})  # missing widths
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit(make_request(backend="bnb").as_payload(), lane="express")
        assert excinfo.value.status == 400

    def test_non_integer_setting_rejected_at_submit(self, service):
        # Built into a request, 2.5 rounds would only fail inside the job,
        # as a 500 at /result; it must be a 400 before anything is queued.
        client = ServiceClient(service)
        payload = make_request(backend="bnb").as_payload()
        payload["policy"] = {"node_budget": 2.5}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "node_budget must be an integer" in str(excinfo.value)

    def test_retired_solver_block_rejected_at_submit(self, service):
        # The policy has no solver block any more, and no shim reads one.
        client = ServiceClient(service)
        payload = make_request(backend="bnb").as_payload()
        payload["policy"] = {"solver": {"cut_rounds": 1}}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert "unknown SolvePolicy field(s): solver" in str(excinfo.value)

    @pytest.mark.parametrize("retired", [{"fallback": ["lpt", "sa"]}, {"gap_tol": 0.5}])
    def test_retired_policy_fields_rejected_at_submit(self, service, retired):
        # The policy is a budget: the ladder is gone and gap_tol is a
        # solver option, so either key in a policy is a 400 before queueing.
        client = ServiceClient(service)
        payload = make_request(backend="bnb").as_payload()
        payload["policy"] = {"deadline": 30, **retired}
        with pytest.raises(ServiceError) as excinfo:
            client.submit(payload)
        assert excinfo.value.status == 400
        assert f"unknown SolvePolicy field(s): {next(iter(retired))}" in str(excinfo.value)

    def test_unknown_job_is_404(self, service):
        client = ServiceClient(service)
        with pytest.raises(ServiceError) as excinfo:
            client.status("job-999999")
        assert excinfo.value.status == 404

    def test_two_threads_same_fingerprint_one_solve(self, service, backend):
        backend.gate.clear()
        client = ServiceClient(service)
        before = client.metrics()["dedupe"]
        request = make_request(widths=(24, 16))
        results: list = [None, None]

        def submit_and_wait(slot: int) -> None:
            submitted = client.submit(request)
            # Both submissions are in before any solve can finish.
            barrier.wait(timeout=10)
            if slot == 0:
                backend.gate.set()
            results[slot] = client.wait(submitted["job"]["id"], timeout=60)

        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(target=submit_and_wait, args=(slot,))
            for slot in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        after = client.metrics()["dedupe"]
        assert backend.calls == 1
        assert after["joins"] - before["joins"] == 1
        assert results[0] == results[1]
        assert results[0]["makespan"] > 0

    def test_policy_job_streams_incumbents(self, service):
        client = ServiceClient(service)
        request = make_request(backend="bnb", widths=(16, 8), policy=SolvePolicy())
        submitted = client.submit(request)
        job_id = submitted["job"]["id"]
        client.wait(job_id, timeout=60)
        stream = client.stream(job_id)
        assert stream["done"] is True
        assert stream["incumbents"], "expected at least one checkpointed incumbent"
        objectives = [entry["objective"] for entry in stream["incumbents"]]
        assert objectives == sorted(objectives)

    def test_cut_policy_request_round_trips(self, service):
        client = ServiceClient(service)
        request = make_request(backend="bnb", options={"cut_rounds": 2})
        # cut_rounds rides the request's solver options: a reconstructed
        # request fingerprints identically, and cuts-off is a different job.
        rebuilt = SolveRequest.from_payload(request.as_payload())
        assert rebuilt.fingerprint() == request.fingerprint()
        off = make_request(backend="bnb", options={"cut_rounds": 0})
        assert off.fingerprint() != request.fingerprint()
        submitted = client.submit(request)
        result = client.wait(submitted["job"]["id"], timeout=60)
        assert result["status"] == "optimal"
        assert result["makespan"] > 0

    def test_cancelled_job_result_is_410(self, service, backend):
        backend.gate.clear()
        client = ServiceClient(service)
        submitted = client.submit(make_request(widths=(8, 8)))
        job_id = submitted["job"]["id"]
        cancelled = client.cancel(job_id)
        backend.gate.set()
        assert cancelled["status"] in ("cancelled", "running")
        with pytest.raises((ServiceError, TimeoutError)):
            client.wait(job_id, timeout=15)
        assert client.status(job_id)["status"] == "cancelled"


class TestTenantCaches:
    def test_tenant_results_are_cache_isolated(self, service):
        client = ServiceClient(service)
        request = make_request(backend="bnb", widths=(16, 16, 16))
        first = client.run(request, tenant="acme", timeout=60)
        warm = client.run(
            request.with_overrides(jobs=2), tenant="acme", timeout=60
        )
        other = client.run(request, tenant="globex", timeout=60)
        assert first["makespan"] == warm["makespan"] == other["makespan"]
        stats = client.metrics()
        assert set(stats["caches"]) >= {"acme", "globex"}

    def test_repeated_policy_job_hits_the_tenant_cache(self, service):
        # Every policy job gets a private checkpoint directory; that must
        # not split the solve key, so the second identical job is a hit.
        client = ServiceClient(service)
        payload = {
            "kind": "design",
            "soc": "S1",
            "widths": [16, 8],
            "policy": {"deadline": 30},
        }
        first = client.run(payload, tenant="policy-repeat", timeout=60)
        second = client.run(payload, tenant="policy-repeat", timeout=60)
        assert first["stats"]["cache_hit"] is False
        assert second["stats"]["cache_hit"] is True
        assert second["makespan"] == first["makespan"]
        cache = client.metrics()["caches"]["policy-repeat"]
        assert (cache["hits"], cache["misses"]) == (1, 1)

    def test_join_rate_metric_reported(self, service):
        stats = ServiceClient(service).metrics()
        dedupe = stats["dedupe"]
        assert 0.0 <= dedupe["join_rate"] <= 1.0
        assert dedupe["submitted"] >= dedupe["joins"]


def test_loadgen_module_runs_without_runtime_warning():
    # ``python -m`` of a module its package already imported makes runpy
    # warn; the CI smoke runs the load generator with warnings as errors.
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.service.loadgen", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage" in done.stdout
