"""The current speed of a CPU, from a fixed pure-Python loop.

On the shared two-CPU virtual machine this benchmark was built on, the
same scenario in the same process takes anywhere from 1x to 1.5x its best
time, and each CPU slows down independently of the other for tens of
seconds at a time. The benchmark therefore starts each child on the CPU
that is faster at that moment, and reports times rescaled to a reference
speed: a time measured while the probe loop takes ``p`` seconds is
multiplied by ``PROBE_REF_S / p``. While scenarios run, a timer signal
runs the probe every ``SAMPLE_INTERVAL_S``, so ``p`` follows the speed
within long scenarios too. The probe is benchmark code, so a change to
forwardperf cannot move it.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from contextlib import contextmanager

# Probe time at the reference speed (the median on the machine above).
PROBE_REF_S = 0.0055
SAMPLE_INTERVAL_S = 0.5


def probe_s(repeats: int = 3) -> float:
    """Median seconds of a fixed loop on the CPU this process runs on."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i & 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fastest_cpu() -> tuple[int, float]:
    """The allowed CPU that runs the probe fastest now, and its probe time."""
    allowed = os.sched_getaffinity(0)
    speeds = {}
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            speeds[cpu] = probe_s(5)
    finally:
        os.sched_setaffinity(0, allowed)
    cpu = min(speeds, key=speeds.get)
    return cpu, speeds[cpu]


@contextmanager
def sampling(samples: list):
    """Append ``(start, probe seconds)`` every SAMPLE_INTERVAL_S while open.

    The probe runs in a SIGALRM handler, between two bytecodes of whatever
    the main thread is running; its own time is in the list, so callers can
    take it out of what they timed.
    """

    def sample(signum, frame):
        t0 = time.perf_counter()
        samples.append((t0, probe_s(1)))

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
