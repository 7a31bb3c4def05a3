"""Machine-speed calibration for the benchmark's timings.

The 2-vCPU virtual machine this benchmark was built on switches, every few
seconds to a few minutes and separately for each vCPU, between a fast state
and states in which all work runs up to about 1.9x slower (other tenants on
the host; no steal time is reported). Over three minutes the median wall
time of one fixed ``extend_once`` call varied from 52 to 90 ms between
20-second windows, while the same call divided by the time of the fixed
kernel below, timed next to it in the same process, varied by under 2%
(17.7 to 18.3).

So every timed sample is scaled by ``REFERENCE_S / k``, where ``k`` is the
mean of readings of this kernel taken on the vCPU doing the work: just
before and just after the sample in the process doing it, and, while a
child process runs, every 0.1 s on a thread moved to the vCPU the child
last ran on (a reading on the other vCPU would see a different state).
Reported times are therefore seconds at the reference speed, about the wall
time on an uncontended machine. The kernel is pure Python and this module
imports little, so running it in a child before the timed work imports next
to nothing the work would import. It must not change, or times stop being
comparable across commits.
"""

from __future__ import annotations

import os
import threading
import time

# Median of five kernel runs when the machine above is in its fast state
# (about the 5th percentile over a minute of back-to-back runs).
REFERENCE_S = 0.0012
SPEED_RUNS = 5


def kernel_s() -> float:
    """Wall time of one fixed unit of Python arithmetic. It allocates no
    object the garbage collector tracks, so a large heap left by the work
    cannot slow it down."""
    start = time.perf_counter()
    total = 0.0
    mixed = 0
    for i in range(8000):
        total += (i * 0.5) ** 2
        mixed ^= i * 7
    return time.perf_counter() - start


def speed_s() -> float:
    """Median of SPEED_RUNS kernel runs: one reading of how fast this vCPU
    runs right now, robust to a single interrupted run."""
    return sorted(kernel_s() for _ in range(SPEED_RUNS))[SPEED_RUNS // 2]


def scale(readings) -> float:
    """Factor that converts a time measured between ``speed_s`` readings
    into seconds at the reference speed."""
    return REFERENCE_S * len(readings) / sum(readings)


def _last_cpu(pid: int) -> int | None:
    """The vCPU a process last ran on (field 39 of /proc/PID/stat)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
        return int(fields[36])
    except (OSError, IndexError, ValueError):
        return None


class ChildProbe:
    """Speed readings on the vCPU a child runs on, taken by a thread every
    ``period`` seconds while the child runs. A reading can take that vCPU
    from the child for its 2-3 ms, which adds at most about 3% to the
    child's wall time; the scheduler often moves the child to the other
    vCPU instead."""

    def __init__(self, pid: int, period: float = 0.1, enabled: bool = True):
        self.pid = pid
        self.period = period
        self.readings: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        if enabled:
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            cpu = _last_cpu(self.pid)
            if cpu is None:
                continue
            try:
                os.sched_setaffinity(0, {cpu})
            except OSError:
                continue
            reading = min(kernel_s(), kernel_s())
            if not self._stop.is_set():
                self.readings.append(reading)

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
