"""Reference kernel that tracks the machine's speed during a run.

On a shared host the same pass over a job list takes anywhere from 4 s to
6.5 s, depending on what the neighbours do, and the speed swings within
seconds. The reference kernel is fixed code: a numpy part (vectorised sin
over 200k doubles) and an interpreter part (a 40k-step Python loop), in
about the mix the workloads have. Timed next to each job, it turns the job's
wall time into seconds at reference speed:

    job_s * NOMINAL_S / (duration of the kernel around the job)

NOMINAL_S is the kernel's typical duration on the 2-CPU machine the benchmark
was sized on, so the numbers stay close to wall seconds there.
"""

import math
import time

import numpy as np

NOMINAL_S = 0.017
_GRID = np.arange(200_000, dtype=float) * 1e-3


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(4):
        acc += float(np.sin(_GRID).sum())
    for i in range(40_000):
        acc += math.sin(i * 1e-3)
    return time.perf_counter() - t0
