"""Statistics and machine-speed normalisation shared by the benchmark files.

CPU time on a shared virtual machine drifts by tens of percent within one
process, and by up to 2x between neighbouring seconds, so the benchmark never
reports a raw CPU reading as its throughput figure.  A fixed pure-Python
reference loop is timed in the same process just before and just after the
measured phase, and in short samples during it (a ``SIGPROF`` timer; the
samples' CPU time is excluded from the phase).  The phase's CPU time is
divided by the loop's mean per-iteration time and multiplied by the
reference machine's, :data:`NOMINAL_LOOP_S` per :data:`LOOP_ITERATIONS`: the
result is the phase cost in reference-machine seconds.
"""

from __future__ import annotations

import gc
import signal
import time
from typing import Sequence

#: CPU seconds :func:`reference_loop` takes on the reference machine, the
#: 2-vCPU Python 3.11.7 machine the README describes (40 back-to-back timings
#: there ranged from 0.041 to 0.090 s, median 0.056 s).  A constant, not a
#: measurement: normalised figures stay comparable only while it is unchanged.
NOMINAL_LOOP_S = 0.05

#: Iterations of the reference loop (sized so one call takes about
#: :data:`NOMINAL_LOOP_S` on the reference machine).
LOOP_ITERATIONS = 200_000

#: In-phase samples: a loop of SAMPLE_ITERATIONS every SAMPLE_INTERVAL_S of CPU time.
SAMPLE_INTERVAL_S = 0.1
SAMPLE_ITERATIONS = LOOP_ITERATIONS // 5


def _loop_step(table: dict, index: int) -> int:
    key = ("flow", index & 1023)
    entry = table.get(key)
    if entry is None:
        entry = table[key] = [0, f"{index:x}"]
    entry[0] += index
    return len(entry[1])


def reference_loop(iterations: int = LOOP_ITERATIONS) -> int:
    """A fixed pure-Python workload: dict lookups, tuple hashing, calls, formatting.

    It exercises the same interpreter paths the program spends its time in,
    so a machine that is slow for the program is slow for the loop too.
    """
    table: dict = {}
    total = 0
    for index in range(iterations):
        total += _loop_step(table, index)
    return total


def time_reference_loop(iterations: int = LOOP_ITERATIONS) -> float:
    """CPU seconds of one :func:`reference_loop` run.

    Timed with the thread CPU clock: while the sampler's ``ITIMER_PROF`` is
    armed the process CPU clock advances in scheduler ticks (4 ms here),
    too coarse for a 10 ms sample.  The cyclic garbage collector is paused while the loop runs: a full
    collection walks the whole heap, so with it on the loop would time the
    size of the program's state instead of the machine.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        reference_loop(iterations)
        return time.thread_time() - start
    finally:
        if was_enabled:
            gc.enable()


class LoopSampler:
    """Times a short reference loop every *interval* seconds of process CPU time.

    A ``SIGPROF`` interval timer interrupts the measured phase; the handler
    runs ``reference_loop(iterations)`` and records its CPU time, which the
    caller subtracts from the phase's CPU time.  The samples track the
    machine's speed *during* the phase, where a loop before and after can
    only bracket it.  The handler touches no program state.
    """

    def __init__(self, interval: float = SAMPLE_INTERVAL_S, iterations: int = SAMPLE_ITERATIONS) -> None:
        self.interval = interval
        self.iterations = iterations
        self.samples: list = []
        self._previous = None

    def _on_signal(self, signum, frame) -> None:
        self.samples.append(time_reference_loop(self.iterations))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @property
    def cpu_s(self) -> float:
        """CPU seconds the samples took (to subtract from the phase)."""
        return sum(self.samples)


def normalise(cpu_s: float, loop_cpu_s: float, loop_iterations: int, nominal_s: float = NOMINAL_LOOP_S) -> float:
    """CPU seconds rescaled to the reference machine's speed.

    *loop_cpu_s* is the CPU time of *loop_iterations* reference-loop
    iterations run around and during the phase; the machine's slowdown is
    their per-iteration time over the reference machine's, and the phase's
    CPU time is divided by it.  On a machine that runs the loop twice as
    slowly as the reference, the phase's CPU time is halved.
    """
    if loop_cpu_s <= 0 or loop_iterations <= 0:
        raise ValueError(f"reference loop timing must be positive, got {loop_cpu_s} s for {loop_iterations}")
    return cpu_s * nominal_s * loop_iterations / (loop_cpu_s * LOOP_ITERATIONS)


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0-100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)
