"""How fast the CPU runs right now, from a fixed reference loop.

On a shared 2-vCPU VM the CPU time of the same code swings by a quarter
and more within minutes, in steps that last seconds.  Steal time is
small there, so the likely cause is other guests loading the same
physical core and caches, which CPU time cannot leave out.  The benchmark therefore runs
`reference()` next to what it times and reports

    time * NOMINAL_S / (reference time measured next to it),

the CPU time the work would take at the speed where the reference takes
NOMINAL_S.  The reference is the benchmark's own code and never calls
cubegreen, so a change to the program does not move it.
"""

from __future__ import annotations

from time import thread_time

import numpy as np

# near the reference's median on the VM of README.md; fixed, so that
# results compare across runs and commits
NOMINAL_S = 0.025
# the worker runs the reference before every group of this many jobs and
# after the last job
REF_GROUP = 8


def reference() -> float:
    """Thread CPU seconds of a fixed mix of interpreter and small-array
    numpy work, like most of the job mix.  It calls no BLAS routine,
    which would grow a worker's peak RSS by the BLAS buffers."""
    t0 = thread_time()
    acc = 0
    for i in range(120_000):
        acc += i * i % 7
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(4_000):
        a = np.minimum(a, a[::-1]) * 0.5 + 0.25
    return thread_time() - t0
