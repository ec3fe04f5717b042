"""The machine's momentary speed, from fixed pure-Python probe kernels.

The benchmark shares its host with other tenants.  Their load slows every
instruction stream on our vCPUs by up to about 2.3x, in phases that switch
within seconds and can last for minutes, and CPU time is slowed as much as
wall time.  Taking the fastest or the median repetition of a case does not
remove a phase that covers a whole run.

So the end-to-end times of the passes (set-up apart) are reported in
reference milliseconds: a case's measured wall time scaled by the probe
kernel's reference time over the time the kernel took next to it.  Each
workload names the kernel whose slowdown tracks its own (README.md gives
the measurements).  The kernels use only the standard library, never
krawpv, so a change to the program moves the measured times and not the
scale.  A kernel's reference time is its time on the machine described in
README.md when it is quiet, so reference milliseconds are that machine's
uncontended milliseconds.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

clock = time.perf_counter

PROBE_EVERY_S = 0.05  # at most one probe per this much time, taken at a case boundary
NEIGHBOURS = 2  # probes on each side of a case start that set its scale


def fraction_kernel() -> Fraction:
    """Small-Fraction arithmetic and dict stores, like exact evaluation of expression trees."""
    acc = Fraction(0)
    x = Fraction(3, 7)
    table = {}
    for i in range(1, 60):
        acc += x * i / (i + 1)
        acc -= Fraction(i, 13)
        table[i % 17] = float(acc) * 1.5
    return acc


def float_kernel() -> float:
    """Bytecode dispatch and float arithmetic, and nothing else."""
    s = 0.0
    for i in range(1, 3000):
        s += (i * 0.5) / (s + 1.0)
    return s


# name -> (kernel, seconds it takes on the reference machine when quiet)
KERNELS: Dict[str, Tuple[Callable[[], object], float]] = {
    "fraction": (fraction_kernel, 3.7e-4),
    "float": (float_kernel, 2.3e-4),
}


def probe(kernel: str) -> Tuple[float, float]:
    """Run a kernel once with the collector paused; (start time, seconds taken).

    A collection of the program's objects set off by the kernel's
    allocations would time the program's heap, not the machine.
    """
    fn = KERNELS[kernel][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        fn()
        return start, clock() - start
    finally:
        if enabled:
            gc.enable()


def scales(kernel: str, case_starts: Sequence[float],
           probes: Sequence[Tuple[float, float]]) -> List[float]:
    """The kernel's reference time over the median time of the probes around each case start."""
    if not probes:
        raise ValueError("no speed probes were taken in this pass")
    reference = KERNELS[kernel][1]
    times = [t for t, _ in probes]
    took = [d for _, d in probes]
    out = []
    for s in case_starts:
        i = bisect.bisect_left(times, s)
        near = took[max(0, i - NEIGHBOURS): i + NEIGHBOURS]
        out.append(reference / statistics.median(near))
    return out
