"""Fixed reference work that measures how fast the machine runs right now.

On a shared virtual machine the same work can take up to 1.7x longer for
minutes at a time.  The benchmark times reference work next to the work it
measures and reports times scaled to a machine on which the reference
takes its REFERENCE time:

    scaled = raw * REFERENCE_MS / kernel_ms()           (in-process operations)
    scaled = raw * REFERENCE_START_MS / startup_ms()    (set-up, CLI processes)

where the reference time is the mean of the timings right before and right
after the measured work.  The kernel, timed in the worker, does the kind of
work egeo's hot paths do (multi-axis transpose and reshape of a state
vector, small complex SVDs, dict and tuple churn).  Set-up and a CLI
request are mostly interpreter start and imports, which the kernel does not
track, so they are scaled by fresh interpreters that import numpy and exit.
Neither calls egeo code, so no change to egeo can move them.  Raw times are
kept next to the scaled ones.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

# Both references are their times on the fast state of a 2-vCPU Xeon VM.
REFERENCE_MS = 3.3
REFERENCE_START_MS = 150.0
REPEATS = 3


def _kernel() -> float:
    vec = np.linspace(-1.0, 1.0, 512) + 1j * np.linspace(1.0, -0.5, 512)
    axes = np.arange(9)
    acc = 0.0
    for i in range(50):
        m = vec.reshape((2,) * 9).transpose(tuple(np.roll(axes, i % 9))).reshape(16, 32)
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
        table = {k: (k, i) for k in range(20)}
        acc += sum(v[0] for v in table.values())
    return acc


def kernel_ms() -> float:
    """Median of REPEATS (odd) timings of the kernel in this process, in ms."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        times.append(1e3 * (time.perf_counter() - t0))
    return sorted(times)[REPEATS // 2]


def startup_ms(env: dict | None = None) -> float:
    """Wall time of one fresh interpreter that imports numpy and exits, in ms.
    One, not a median: each measured group already lies between two."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)
    return 1e3 * (time.perf_counter() - t0)


def reference(workload: str) -> tuple:
    """(measure, its reference ms) for timing next to a workload's operations.
    A cli-oneshot operation is a fresh interpreter, which the kernel does not track."""
    return (startup_ms, REFERENCE_START_MS) if workload == "cli-oneshot" else (kernel_ms, REFERENCE_MS)
