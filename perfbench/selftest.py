"""Harness self-test: ``python3 perfbench/selftest.py`` from a checkout's root.

- a tiny run of every workload, timed and traced, must print every metric
  ``BENCHMARK.json`` names, with its unit, and report no failed op;
- the oracle must flag a wrong makespan and a feasible but non-optimal
  assignment;
- outside a checkout (no ``src/``) the benchmark must fail without a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SMOKE_SECONDS = "0.3"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_smoke(spec: dict) -> list[str]:
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                errors.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append(f"{label}: metrics {sorted(got.items())} != {sorted(want.items())}")
            print(f"smoke {label}: {result['attempted']} ops ok", flush=True)
    return errors


def check_oracle() -> list[str]:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from oracle import Oracle, answer_from_design
    from repro.api import Assignment, TamArchitecture, design

    systems = workloads.sweep_plan(0, 0.1).systems
    op = workloads.DesignOp(1, (24, 16, 8), "serial")
    problem = op.problem(systems)
    good = answer_from_design(design(problem, cache=False))
    oracle = Oracle()
    errors = []
    if oracle.check(op, problem, good):
        errors.append(f"oracle rejects a correct answer: {oracle.check(op, problem, good)}")
    wrong = replace(good, makespan=good.makespan + 1)
    if not oracle.check(op, problem, wrong):
        errors.append("oracle accepts a makespan one cycle off")
    # S2 with every core on one bus: valid and self-consistent, not optimal.
    lumped = (0,) * len(problem.soc)
    assignment = Assignment(problem.soc, TamArchitecture(list(op.widths)), lumped)
    bus_times = tuple(assignment.bus_times(problem.timing))
    slow = replace(good, bus_of=lumped, bus_times=bus_times, makespan=max(bus_times))
    if max(bus_times) <= good.makespan or not oracle.check(op, problem, slow):
        errors.append("oracle accepts a non-optimal assignment")
    print("oracle: flags a wrong makespan and a non-optimal assignment", flush=True)
    return errors


def check_outside_checkout() -> list[str]:
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", scratch / "BENCHMARK.json")
        shutil.copytree(HERE, scratch / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"outside a checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    print("outside a checkout: fails without a result", flush=True)
    return []


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors = check_oracle() + check_outside_checkout() + check_smoke(spec)
    for error in errors:
        print(f"SELFTEST FAILED: {error}")
    print("selftest ok" if not errors else f"selftest: {len(errors)} failure(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
