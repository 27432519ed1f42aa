"""Host speed, measured with a fixed kernel between repetitions.

The benchmark runs on a vCPU of a shared machine.  Other tenants change
how fast the same Python code runs by up to 2x, in stretches from
seconds to minutes, and CPU time moves with wall time (no steal shows).
A run can therefore land wholly in a slow or a fast stretch, and no
statistic over its own repetitions removes that.

:func:`sample` times :func:`kernel`, a fixed piece of interpreter and
numpy work of the same kinds the program does (a priority queue of
tuples, dict updates, seeded random numbers, numpy reductions).  It
does not touch ``repro``, so a change to the program cannot change it.
A run samples it before its first repetition, after every repetition,
and where a workload pauses between units it times itself.  The run's
*scale* is :data:`REFERENCE_KERNEL_S` over the mean of its samples, and
its wall seconds times that scale are *reference seconds*: the time the
run would have taken on a host that runs the kernel in exactly
:data:`REFERENCE_KERNEL_S`.  One sample is a snapshot that the host's
second-to-second jitter moves more than it moves a whole repetition; a
scale per repetition therefore spread more than none, while the mean
over a run follows the host's drift from run to run.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
from time import perf_counter

import numpy

#: Seconds :func:`kernel` takes at reference speed: its time in the
#: usual, slower state of one vCPU of the 2.1 GHz Xeon the benchmark was
#: written on (about 12.5 ms in the faster state).  A fixed constant:
#: changing it rescales every reference-time metric.
REFERENCE_KERNEL_S = 0.020

#: Kernel runs per sample; the sample is their median.
RUNS = 5

#: Least seconds between the samples a workload's pauses take.
PAUSE_GAP_S = 1.0


def kernel() -> float:
    """About 20 ms of work whose data (a 2000-entry heap, a 4099-key
    dict, 1.6 MB of floats) outgrows the core's private caches, as the
    program's does: a small kernel that fits in them followed the
    program's slow-downs less closely."""
    rng = random.Random(5)
    heap: "list[tuple]" = []
    totals: "dict[int, float]" = {}
    acc = 0.0
    for i in range(3000):
        heapq.heappush(heap, (rng.random(), i, {"key": i % 4099}))
        if len(heap) > 2000:
            when, j, item = heapq.heappop(heap)
            totals[item["key"]] = totals.get(item["key"], 0.0) + when
            acc += when * j
    values = numpy.arange(200_000, dtype=float)
    for i in range(3):
        values = numpy.cumsum(values) % 7.0 + i
    return acc + float(values.sum()) + sum(totals.values())


def sample() -> float:
    """Median seconds of :data:`RUNS` kernel runs.  A full collection
    first, and the collector off while timing, keep the garbage of the
    repetition before out of the sample."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(RUNS):
            started = perf_counter()
            kernel()
            times.append(perf_counter() - started)
    finally:
        gc.enable()
    return statistics.median(times)


class HostSpeed:
    """The kernel samples of one run."""

    def __init__(self) -> None:
        sample()  # warm-up: first-call costs stay out of the samples
        self.samples: "list[float]" = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(sample())
        self._last = perf_counter()

    def pause(self) -> None:
        """A workload paused between units it times itself: sample if
        :data:`PAUSE_GAP_S` have passed since the last sample."""
        if perf_counter() - self._last >= PAUSE_GAP_S:
            self.sample()

    def scale(self) -> float:
        """Reference seconds per wall second over the run."""
        return REFERENCE_KERNEL_S / statistics.fmean(self.samples)
