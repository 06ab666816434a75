"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1``, run from the root of a checkout.

Sets the workload up ``SETUPS`` times in fresh worker processes (see
``worker.py``) and times each set-up from process start to the first timed
op; the last worker goes on to time the op list and check every answer.
Prints the human-readable tables, then one JSON object as the last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Everything the run writes stays under ``.perfbench/`` in the
checkout; the per-run scratch directory is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: As in workloads.py, which imports repro: the checkout is checked first.
WORKLOADS = ("sweep", "deep_tree", "service")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run must finish within 180 s; leave room to report and clean up.
RUN_BUDGET_S = 170.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def launch(cmd: list[str], env: dict, deadline: float, now) -> tuple[dict, dict | None]:
    """Run one worker; returns (phase marker times from spawn, RESULT)."""
    lines: queue.Queue = queue.Queue()
    start = now()
    # Own session, so a timed-out worker is killed with its server process.
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )

    def read() -> None:
        for line in proc.stdout:
            lines.put((now(), line))
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    marks: dict[str, float] = {}
    result = None
    try:
        while True:
            item = lines.get(timeout=max(0.1, deadline - now()))
            if item is None:
                break
            stamp, line = item
            if line.startswith("@"):
                marks[line[1:].strip()] = stamp - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
    except queue.Empty:
        raise TimeoutError(f"worker exceeded the {RUN_BUDGET_S:.0f} s run budget") from None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        reader.join(timeout=5)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return marks, result


def setup_metrics(samples: list[dict]) -> dict:
    """Median set-up time and its four phases over the set-up samples."""

    def median(fn) -> float:
        return statistics.median(fn(m) for m in samples)

    def booted(m: dict) -> float:
        return m.get("boot", m["instances"])

    return {
        "setup_s": median(lambda m: m["ready"]),
        "setup.import_s": median(lambda m: m["import"]),
        "setup.instances_s": median(lambda m: m["instances"] - m["import"]),
        "setup.server_boot_s": median(lambda m: booted(m) - m["instances"]),
        "setup.warmup_s": median(lambda m: m["ready"] - booted(m)),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import repro
    from repro.obs import now

    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        print(f"perfbench: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    deadline = now() + RUN_BUDGET_S

    out = root / ".perfbench"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=out))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(workdir)
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
        "--spans", str(out / f"spans-{args.workload}.json"),
    ]
    try:
        samples = []
        for k in range(SETUPS):
            last = k == SETUPS - 1
            marks, result = launch(cmd if last else cmd + ["--setup-only"], env, deadline, now)
            samples.append(marks)
    except (RuntimeError, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is None:
        print("perfbench: the measuring worker printed no result", file=sys.stderr)
        return 1

    setup = setup_metrics(samples)
    metrics = result["metrics"]
    wanted = ("setup_s",) if args.trace == 0 else tuple(k for k in setup if k != "setup_s")
    for name in wanted:
        metrics[name] = {"value": setup[name], "unit": "s"}
    print(
        "set-up (median of %d): %s"
        % (SETUPS, ", ".join(f"{k}={v:.4f}" for k, v in setup.items()))
    )
    print(f"exact counters: {json.dumps(result['counters'], sort_keys=True)}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate={failed / attempted:.6f} ({failed} of {attempted} ops failed)")
    for name, metric in sorted(metrics.items()):
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    final = {key: result[key] for key in ("correct", "attempted", "failed")}
    final["metrics"] = metrics
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
