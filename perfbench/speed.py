"""Machine-speed calibration for the timing metrics.

On a shared 2-vCPU host, identical runs of the same ops take 20-35% more or
less wall time from one minute to the next. Two things move: the vCPU's own
speed (CPU time drifts as much as wall time, e.g. when a sibling thread is
busy), and the share of time the host steals from the VM. Either would hide
any regression smaller than itself, so the benchmark scales each op's
measured time to the reference speed:

- design ops: by ``REFERENCE_S / kernel time`` of a fixed kernel run before
  the ops around it, and by ``1 - stolen share`` of their time;
- service requests: by ``1 - stolen share`` of the pass over both vCPUs (a
  kernel in the load generator did not see the service's slowdowns).

The kernel uses only the standard library and NumPy, never ``repro``, so a
change to the program cannot move it. Its mix (an interpreted loop plus
small dense solves) mirrors where the solver spends its time. Raw
wall-clock figures are printed beside the scaled ones.
"""

from __future__ import annotations

import os
import statistics

import numpy as np

from repro.obs import now

#: Median warm kernel time on the reference host (a 2-vCPU x86 container,
#: Python 3.11, NumPy with OpenBLAS).
REFERENCE_S = 300e-6

_MATRIX = np.arange(400, dtype=float).reshape(20, 20) / 400 + np.eye(20)


def _kernel() -> None:
    """One fixed unit of interpreter and small-LAPACK work."""
    acc = 0
    for i in range(1000):
        acc += i * i % 7
    a = _MATRIX.copy()
    for _ in range(10):
        b = np.linalg.solve(a, a[:, 0])
        a[0, 0] += float(np.outer(b, b)[0, 0]) * 1e-9


def kernel_sample() -> float:
    """Seconds of one kernel run, timed after an untimed run that warms the
    caches, so a sample reads the same after an op as in a tight loop."""
    _kernel()
    start = now()
    _kernel()
    return now() - start


def steal_seconds() -> float:
    """Time the hypervisor ran other guests while this VM's vCPUs were
    runnable, summed over all vCPUs (the ``steal`` column of /proc/stat)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def speed_factor(samples: list) -> float:
    """Reference speed over measured speed: scales a time to the reference."""
    return REFERENCE_S / statistics.median(samples)
