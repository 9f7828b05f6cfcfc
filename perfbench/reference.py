"""A fixed reference computation that measures how fast the machine is running.

On a shared host the CPU speed a process gets drifts by up to a factor of two
over seconds to minutes, and longer runs do not average it out. The
benchmark therefore times this reference, which uses none of qnpflow, right
before and after every timed piece of work and reports times at reference
speed:

    normalised_s = wall_s * REF_S / reference_s

where reference_s is the mean of the two adjacent reference times. The
reference is a loop of small numpy operations (a 6x6 solve and a 12x12
complex product), the kind of call all three qnpflow pipelines make; of the
kinds of code tried, its time tracked the dataset workload's most closely. On a
steady machine the normalised time is proportional to the wall time, so a
change to qnpflow moves both by the same share. The raw wall figures are
reported beside the normalised ones.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# About the reference's wall time on the 2-vCPU Intel Xeon 2.1 GHz VM the
# benchmark was tuned on; it only fixes the scale of the normalised seconds.
REF_S = 0.080
# The reference runs in chunks and takes the median chunk, so that a single
# preemption of the process does not read as a slow machine.
CHUNKS = 10


def _chunk() -> None:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
    b = np.ones(6)
    c = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    for _ in range(400):
        np.linalg.solve(a, b)
        c = c @ c
        c /= np.abs(c).max()


def reference_s() -> float:
    """Wall time of the reference computation: CHUNKS times its median chunk."""
    times = []
    for _ in range(CHUNKS):
        start = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - start)
    return CHUNKS * statistics.median(times)


def normalised(wall_s: float, ref_before: float, ref_after: float) -> float:
    """`wall_s` at reference speed, from the reference times on either side."""
    return wall_s * REF_S / (0.5 * (ref_before + ref_after))
