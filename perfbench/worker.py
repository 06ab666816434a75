"""One benchmark process: set up a workload, time it, check every answer.

``run.py`` starts this process once per set-up sample. It prints a phase
marker (``@import``, ``@instances``, ``@boot``, ``@ready``) on stdout as
set-up advances, so the launcher can time set-up from process start; with
``--setup-only`` it stops there. Otherwise it times the op list, repeats it
with spans recorded when ``--trace 1``, checks every answer against the
oracle, and prints ``RESULT <json>`` as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from oracle import INFEASIBLE, Oracle, answer_from_design, answer_from_payload
from repro.api import (
    DesignProblem,
    InfeasibleError,
    MetricsRegistry,
    SolveRequest,
    TamArchitecture,
    design,
    use_metrics,
)
from repro.obs import now
from repro.service.client import ServiceClient
from speed import kernel_sample, speed_factor, steal_seconds


def emit(marker: str) -> None:
    print(f"@{marker}", flush=True)


#: Program counters (repro's own MetricsRegistry) every B&B solve adds to.
SOLVER_COUNTERS = (
    "solve.nodes",
    "solve.lp_solves",
    "solve.lp_iterations",
    "solve.presolve_fixings",
    "solve.presolve_pruned",
    "solve.cuts",
    "solve.cut_rounds",
    "solve.root_cols_removed",
    "solve.root_rows_removed",
    "solve.warm_lp_solves",
    "solve.warm_lp_fallbacks",
)

#: Per-layer self-time rows: span name -> metric name.
LAYER_ROWS = {
    "core.problem.build": "core.problem.build_ms",
    "core.formulation.build": "core.formulation.build_ms",
    "ilp.model.matrix_form": "ilp.model.matrix_form_ms",
    "ilp.presolve_root.reduce": "ilp.presolve_root.reduce_ms",
    "ilp.conflict.graph": "ilp.conflict.graph_ms",
    "ilp.cuts.separate": "ilp.cuts.separate_ms",
    "ilp.simplex.root_lp": "ilp.simplex.root_lp_ms",
    "ilp.simplex.node_lp": "ilp.simplex.node_lp_ms",
    "ilp.lp.cold_lp": "ilp.lp.cold_lp_ms",
    "ilp.presolve.propagate": "ilp.presolve.propagate_ms",
    "ilp.presolve.reduced_cost": "ilp.presolve.reduced_cost_ms",
    "ilp.branch_and_bound": "ilp.branch_and_bound.self_ms",
    "core.formulation.decode": "core.formulation.decode_ms",
    "core.designer": "core.designer.self_ms",
    "service.client.submit": "service.client.submit_ms",
    "service.client.poll": "service.client.poll_ms",
    "service.client.sleep": "service.client.sleep_ms",
    "service.client": "service.client.self_ms",
}


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


@dataclass
class Pass:
    """One timed walk over the op list.

    ``latencies`` are raw wall-clock seconds per op (None for a failed op);
    ``scaled`` are the same latencies at the reference machine speed and
    ``scaled_wall`` the pass's op time at that speed (see speed.py); for the
    service that is the loop's wall time less the vCPU time the host stole.
    """

    wall: float
    latencies: list
    answers: list
    errors: dict
    counters: dict
    scaled: list
    scaled_wall: float
    extra: dict = field(default_factory=dict)


# ------------------------------------------------------------ design workloads
def solve_op(op, systems):
    problem = op.problem(systems)
    try:
        return answer_from_design(design(problem, cache=False))
    except InfeasibleError:
        return INFEASIBLE


#: Ops on either side of an op whose kernel samples set its speed factor.
SPEED_WINDOW = 25


def scale_by_speed(latencies: list, kernels: list, stolen: list) -> list:
    """Each op's latency at the reference speed (see speed.py). The ops
    within ``SPEED_WINDOW`` of it set its factor: the median of their kernel
    samples, and the share of their time the host stole from the one busy
    vCPU (a single-threaded pass leaves the other idle, and idle vCPUs
    accrue no steal)."""
    w = SPEED_WINDOW
    scaled = []
    for i, t in enumerate(latencies):
        if t is None:
            scaled.append(None)
            continue
        lo, hi = max(0, i - w), i + w + 1
        busy = sum(x for x in latencies[lo:hi] if x is not None)
        share = min(0.5, sum(stolen[lo:hi]) / busy)
        scaled.append(t * speed_factor(kernels[lo:hi]) * (1.0 - share))
    return scaled


class Side:
    """Latencies, answers and program counters of one walk over the ops."""

    def __init__(self, count: int) -> None:
        self.latencies: list = [None] * count
        self.kernels: list = [None] * count
        self.stolen: list = [0.0] * count
        self.answers: list = [None] * count
        self.errors: dict = {}
        self.registry = MetricsRegistry()

    def run(self, i: int, op, systems, recorder=None) -> None:
        self.kernels[i] = kernel_sample()
        stolen = steal_seconds()
        with use_metrics(self.registry):
            t0 = now()
            try:
                if recorder is None:
                    answer = solve_op(op, systems)
                else:
                    with recorder.op(i, "core.designer"):
                        answer = solve_op(op, systems)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                self.errors[i] = f"{type(exc).__name__}: {exc}"
                return
            self.latencies[i] = now() - t0
            self.stolen[i] = steal_seconds() - stolen
            self.answers[i] = answer

    def result(self, wall: float) -> Pass:
        counters = {name: self.registry.counter(name).value for name in SOLVER_COUNTERS}
        counters["solves"] = self.registry.histogram("solve.wall_time").count
        scaled = scale_by_speed(self.latencies, self.kernels, self.stolen)
        busy = sum(t for t in scaled if t is not None)
        raw = sum(t for t in self.latencies if t is not None)
        return Pass(
            wall, self.latencies, self.answers, self.errors, counters, scaled, busy,
            {"speed_factor": busy / raw if raw else 1.0},
        )


def design_pass(plan) -> Pass:
    side = Side(len(plan.ops))
    start = now()
    for i, op in enumerate(plan.ops):
        side.run(i, op, plan.systems)
    return side.result(now() - start)


def paired_design_pass(plan, recorder) -> tuple[Pass, Pass]:
    """Each op untraced, then traced: machine drift hits both sides alike."""
    plain, traced = Side(len(plan.ops)), Side(len(plan.ops))
    for i, op in enumerate(plan.ops):
        plain.run(i, op, plan.systems)
        recorder.activate()
        try:
            traced.run(i, op, plan.systems, recorder)
        finally:
            recorder.deactivate()

    def busy(side: Side) -> float:
        return sum(t for t in side.latencies if t is not None)

    return plain.result(busy(plain)), traced.result(busy(traced))


def warm_design(plan) -> None:
    """Fill lazy state: wrapper-time memo for every system, first LPs."""
    for system in plan.systems:
        for timing in ("serial", "fixed"):
            DesignProblem(soc=system.soc, arch=TamArchitecture([16, 8]), timing=timing).times
    for op in plan.warmup:
        solve_op(op, plan.systems)


# ----------------------------------------------------------- service workload
class Server:
    """A ``repro serve`` subprocess with private cache and state dirs."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._boot()

    def _boot(self) -> None:
        self.dir = Path(tempfile.mkdtemp(prefix="server-", dir=self.workdir))
        port_file = self.dir / "port"
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--port-file", str(port_file),
                "--cache", str(self.dir / "cache"),
                "--state-dir", str(self.dir / "state"),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self._await_health(port_file)
        except BaseException:
            self.close()
            raise

    def restart(self) -> None:
        """Stop this server and boot a fresh one with empty cache and state."""
        self.close()
        self._boot()

    def _await_health(self, port_file: Path) -> None:
        deadline = now() + 60.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited during boot; see {self.dir}/server.log")
            if now() > deadline:
                raise TimeoutError("repro serve did not come up within 60 s")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                self.url = f"127.0.0.1:{int(text)}"
                try:
                    if ServiceClient(self.url, timeout=5.0).health():
                        return
                except OSError:
                    pass
            time.sleep(0.005)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def submit_and_wait(client, payload: dict) -> tuple[dict, str]:
    job = client.submit(payload)["job"]
    return client.wait(job["id"], timeout=60.0, interval=workloads.SERVICE_POLL_S), job["id"]


def warm_service(plan, server: Server) -> None:
    """Solve the hot set (cache writes), then take each hit path once."""
    client = ServiceClient(server.url)
    for _ in range(2):
        for op in plan.warmup:
            submit_and_wait(client, op.payload(plan.systems))


def server_counters(before: dict, after: dict) -> dict:
    delta = {
        name: after["metrics"].get(name, 0) - before["metrics"].get(name, 0)
        for name in SOLVER_COUNTERS
    }
    solves_after = after["metrics"].get("solve.wall_time", {}).get("count", 0)
    solves_before = before["metrics"].get("solve.wall_time", {}).get("count", 0)
    delta["solves"] = solves_after - solves_before
    cache_before = before["caches"].get("", {})
    cache_after = after["caches"].get("", {})
    # Hits are left out: a hot request that joins an in-flight twin takes no
    # cache lookup, and joins depend on timing. Misses and stores are exact.
    for key in ("misses", "stores"):
        delta[f"cache.{key}"] = cache_after.get(key, 0) - cache_before.get(key, 0)
    return delta


def service_pass(plan, server: Server, recorder=None) -> Pass:
    client = ServiceClient(server.url, timeout=60.0)
    payloads = [op.payload(plan.systems) for op in plan.ops]
    n = len(payloads)
    latencies: list = [None] * n
    results: list = [None] * n
    jobs: list = [None] * n
    errors: dict = {}
    cursor = [0]
    lock = threading.Lock()

    def client_loop() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            t0 = now()
            try:
                if recorder is None:
                    result, job = submit_and_wait(client, payloads[i])
                else:
                    with recorder.op(i, "service.client"):
                        result, job = submit_and_wait(client, payloads[i])
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            latencies[i] = now() - t0
            results[i] = result
            jobs[i] = job

    before = client.metrics()
    threads = [threading.Thread(target=client_loop) for _ in range(workloads.SERVICE_CLIENTS)]
    stolen = steal_seconds()
    start = now()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = now() - start
    stolen = steal_seconds() - stolen
    after = client.metrics()
    counters = server_counters(before, after)
    hits = after["caches"].get("", {}).get("hits", 0) - before["caches"].get("", {}).get("hits", 0)
    extra = {
        "cache_hits": hits,
        "rss_mb": peak_rss_mb(server.proc.pid),
        "jobs_retained": after["jobs"]["total"],
        "submitted": after["dedupe"]["submitted"] - before["dedupe"]["submitted"],
        "joins": after["dedupe"]["joins"] - before["dedupe"]["joins"],
        "jobs": jobs,
    }
    # The loop keeps both vCPUs busy: discount the share the host stole.
    factor = max(0.5, 1.0 - stolen / ((os.cpu_count() or 1) * wall))
    extra["speed_factor"] = factor
    scaled = [None if t is None else t * factor for t in latencies]
    return Pass(wall, latencies, results, errors, counters, scaled, wall * factor, extra)


# --------------------------------------------------------------------- checks
def check_answers(plan, run: Pass, oracle: Oracle) -> dict:
    """Oracle every op; returns ``{op index: reason}`` for each failure."""
    failures = dict(run.errors)
    for i, answer in enumerate(run.answers):
        if i in failures:
            continue
        op = plan.ops[i]
        if plan.workload == "service":
            problem = SolveRequest.from_payload(op.payload(plan.systems)).problem()
            try:
                answer = answer_from_payload(answer, problem.soc)
            except (KeyError, TypeError, ValueError) as exc:
                failures[i] = f"malformed result payload: {exc}"
                continue
        else:
            problem = op.problem(plan.systems)
        problems = oracle.check(op, problem, answer)
        if problems:
            failures[i] = "; ".join(problems)
    return failures


def trace_checks(workload: str, calls: dict, timed: Pass, traced: Pass, ops: int) -> list[str]:
    """Span call counts against the program's own counters."""
    problems = []
    if timed.counters != traced.counters:
        problems.append(f"counters drifted between passes: {timed.counters} vs {traced.counters}")
    c = traced.counters
    if workload == "service":
        pairs = [
            ("service.client.submit", calls.get("service.client.submit", 0), traced.extra["submitted"]),
            ("service.client", calls.get("service.client", 0), ops),
        ]
    else:
        lps = calls.get("ilp.simplex.root_lp", 0) + calls.get("ilp.simplex.node_lp", 0)
        pairs = [
            ("warm engine", lps, c["solve.warm_lp_solves"] + c["solve.warm_lp_fallbacks"]),
            ("ilp.lp.cold_lp", calls.get("ilp.lp.cold_lp", 0), c["solve.warm_lp_fallbacks"]),
            ("ilp.presolve_root.reduce", calls.get("ilp.presolve_root.reduce", 0), c["solves"]),
            # __init__ and solve() of every BranchAndBoundSolver.
            ("ilp.branch_and_bound", calls.get("ilp.branch_and_bound", 0), 2 * c["solves"]),
            ("core.designer", calls.get("core.designer", 0), ops),
        ]
    for name, got, want in pairs:
        if got != want:
            problems.append(f"{name}: {got} traced calls, program counted {want}")
    return problems


# -------------------------------------------------------------------- metrics
def end_to_end(run: Pass, failures: dict, rss: float) -> dict:
    ok = [i for i, t in enumerate(run.scaled) if t is not None and i not in failures]
    if len(ok) < 2:
        raise RuntimeError(f"only {len(ok)} successful ops; nothing to report")
    samples = [run.scaled[i] for i in ok]
    return {
        "ops_per_s": (len(ok) / run.scaled_wall, "1/s"),
        "op_p50_ms": (1000 * statistics.median(samples), "ms"),
        "op_p90_ms": (1000 * percentile(samples, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def solver_layer_counts(counters: dict, ops: int) -> dict:
    c = counters
    per_op = {
        "ilp.branch_and_bound.nodes": "solve.nodes",
        "ilp.branch_and_bound.lp_solves": "solve.lp_solves",
        "ilp.branch_and_bound.lp_iterations": "solve.lp_iterations",
        "ilp.presolve.fixings": "solve.presolve_fixings",
        "ilp.presolve_root.cols_removed": "solve.root_cols_removed",
        "ilp.presolve_root.rows_removed": "solve.root_rows_removed",
        "ilp.cuts.added": "solve.cuts",
        "ilp.cuts.rounds": "solve.cut_rounds",
    }
    out = {name: (c[key] / ops, "count/op") for name, key in per_op.items()}
    popped = c["solve.nodes"] + c["solve.presolve_pruned"]
    out["ilp.presolve.prune_ratio"] = (c["solve.presolve_pruned"] / popped if popped else 0.0, "ratio")
    out["ilp.lp.fallbacks"] = (c["solve.warm_lp_fallbacks"], "count")
    lps = c["solve.lp_solves"]
    out["ilp.simplex.warm_share"] = (c["solve.warm_lp_solves"] / lps if lps else 0.0, "ratio")
    return out


def per_layer(workload: str, totals: dict, calls: dict, timed: Pass, traced: Pass, ops: int) -> dict:
    out = {metric: (1000 * totals.get(span, 0.0) / ops, "ms") for span, metric in LAYER_ROWS.items()}
    out.update(solver_layer_counts(traced.counters, ops))
    service = workload == "service"
    c = traced.counters
    hits, misses = traced.extra.get("cache_hits", 0), c.get("cache.misses", 0)
    polls = calls.get("service.client.poll", 0)
    out.update(
        {
            "service.client.polls_per_op": (polls / ops if service else 0.0, "count/op"),
            "service.scheduler.lane_wait_ms": (traced.extra.get("lane_wait_ms", 0.0), "ms"),
            "service.scheduler.run_hit_ms": (traced.extra.get("run_hit_ms", 0.0), "ms"),
            "service.scheduler.run_miss_ms": (traced.extra.get("run_miss_ms", 0.0), "ms"),
            "service.scheduler.dedupe_join_ratio": (
                traced.extra["joins"] / traced.extra["submitted"] if service else 0.0,
                "ratio",
            ),
            "service.scheduler.jobs_retained": (traced.extra.get("jobs_retained", 0), "count"),
            "runtime.cache.hits": (hits, "count"),
            "runtime.cache.misses": (misses, "count"),
            "runtime.cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "bench.trace_overhead_ratio": (traced.scaled_wall / timed.scaled_wall, "ratio"),
        }
    )
    return out


def job_records(server: Server, run: Pass) -> dict:
    """Server-side wait/run split from each distinct job's record."""
    client = ServiceClient(server.url)
    waits, hit_runs, miss_runs = [], [], []
    for job_id in sorted({j for j in run.extra["jobs"] if j is not None}):
        record = client.status(job_id)
        result = client.result(job_id)
        waits.append(record.get("wait_time", 0.0))
        runs = hit_runs if result["stats"]["cache_hit"] else miss_runs
        runs.append(record.get("run_time", 0.0))

    def mean_ms(values: list) -> float:
        return 1000 * statistics.fmean(values) if values else 0.0

    return {
        "lane_wait_ms": mean_ms(waits),
        "run_hit_ms": mean_ms(hit_runs),
        "run_miss_ms": mean_ms(miss_runs),
    }


def print_layer_table(totals: dict, calls: dict, op_wall: float, ops: int) -> None:
    print(f"per-layer self time over {ops} traced ops ({1000 * op_wall / ops:.3f} ms/op):")
    for name in sorted(totals, key=lambda k: -totals[k]):
        share = totals[name] / op_wall if op_wall else 0.0
        print(
            f"  {name:<28} {1000 * totals[name] / ops:9.4f} ms/op "
            f"{100 * share:6.2f}%  {calls[name]:>8} calls"
        )


# ----------------------------------------------------------------------- runs
def checked(plan, run: Pass, oracle: Oracle) -> dict:
    start = now()
    failures = check_answers(plan, run, oracle)
    print(f"oracle checked {len(plan.ops)} answers in {now() - start:.2f} s")
    for index, reason in sorted(failures.items())[:10]:
        print(f"FAILED op {index} {plan.ops[index]}: {reason}")
    return failures


def summary(args, plan, run: Pass) -> None:
    raw = [t for t in run.latencies if t is not None]
    print(
        f"{args.workload} seed={args.seed}: {len(plan.ops)} ops in {run.wall:.3f} s wall; "
        f"raw op_p50_ms={1000 * statistics.median(raw):.4f} "
        f"op_p90_ms={1000 * percentile(raw, 90):.4f} op_p99_ms={1000 * percentile(raw, 99):.4f}; "
        f"speed factor {run.extra['speed_factor']:.4f}"
    )
    print(f"counters {json.dumps(run.counters, sort_keys=True)}")


def result(plan, failures: dict, problems: list[str], metrics: dict, counters: dict) -> dict:
    for problem in problems[:10]:
        print(f"TRACE CHECK: {problem}")
    return {
        "correct": not failures and not problems,
        "attempted": len(plan.ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "counters": counters,
    }


def timed_run(args, plan, server: Server | None) -> dict:
    timed = service_pass(plan, server) if server else design_pass(plan)
    rss = timed.extra["rss_mb"] if server else peak_rss_mb()
    summary(args, plan, timed)
    failures = checked(plan, timed, Oracle())
    metrics = end_to_end(timed, failures, rss)
    return result(plan, failures, [], metrics, timed.counters)


def traced_run(args, plan, server: Server | None) -> dict:
    """The same ops again with spans recorded; per-layer metrics."""
    recorder = tracer.SpanRecorder()
    if server is None:
        recorder.prepare(tracer.DESIGN_TARGETS)
        timed, traced = paired_design_pass(plan, recorder)
    else:
        timed = service_pass(plan, server)
        # The first server's cache now holds every fresh request: trace on a
        # second one that starts from the same warm state.
        server.restart()
        warm_service(plan, server)
        recorder.prepare(tracer.SERVICE_TARGETS)
        recorder.activate()
        try:
            traced = service_pass(plan, server, recorder)
        finally:
            recorder.deactivate()
        traced.extra.update(job_records(server, traced))
    summary(args, plan, timed)
    ops = len(plan.ops)
    spans_path = Path(args.spans)
    tracer.write_spans(
        spans_path, recorder.spans(), {"workload": args.workload, "seed": args.seed, "ops": ops}
    )
    totals, calls, problems = tracer.self_times(tracer.load_spans(spans_path))
    problems += trace_checks(args.workload, calls, timed, traced, ops)
    print_layer_table(totals, calls, sum(t for t in traced.latencies if t is not None), ops)
    print(f"spans written to {spans_path}")
    oracle = Oracle()
    failures = checked(plan, timed, oracle)
    failures.update(checked(plan, traced, oracle))
    metrics = per_layer(args.workload, totals, calls, timed, traced, ops)
    return result(plan, failures, problems, metrics, timed.counters)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", required=True, help="where a trace run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    emit("import")
    plan = workloads.build_plan(args.workload, args.seed, args.seconds)
    emit("instances")
    server = None
    try:
        if args.workload == "service":
            server = Server(Path(args.workdir))
            emit("boot")
            warm_service(plan, server)
        else:
            warm_design(plan)
        emit("ready")
        if args.setup_only:
            return 0
        run = traced_run if args.trace else timed_run
        print("RESULT " + json.dumps(run(args, plan, server)), flush=True)
        return 0
    finally:
        if server is not None:
            server.close()


if __name__ == "__main__":
    sys.exit(main())
