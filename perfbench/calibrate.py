"""Machine-speed calibration that runs beside the benchmark.

On a shared host the CPU speed available to one process drifts by up
to 2x over tens of seconds, which swamps any change worth measuring.
A helper process pinned to the benchmark's CPU wakes every
``INTERVAL_S``, times a fixed pure-Python loop in CPU time, and keeps
the samples.  An operation's time is then scaled by ``REFERENCE_S``
over the median loop time sampled while it ran, raised to ``EXPONENT``,
which expresses it at one fixed machine speed.

The benchmark's operations slow down more than the loop does when the
host is busy.  Measured on a 2-vCPU VM over seven minutes in which the
loop took 2.6 ms to 6.7 ms: against 45 cold ``experiment fig5`` renders
(log-log correlation 0.95) the fitted slope was 1.21, against 45 cold
``predict`` passes (0.94) 1.25, and against warm renders and inject
campaigns 1.4.  Scaling with exponent 1.2 cut the standard deviation of
log time from 0.19 to 0.06 on cold renders and from 0.20 to 0.07 on cold
passes; with exponent 1.0 it left 0.07 and 0.08.  ``EXPONENT`` sits
between the cold and the warm fits.  Loops that chase
pointers through a 4M-entry list, walk dicts, allocate, or run a toy
interpreter tracked no better.

Protocol of the helper (``python3 calibrate.py``): each line on stdin
asks for every sample so far, answered as one JSON line of
``[perf_counter time, loop CPU seconds]`` pairs; EOF ends it.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, so both
processes share its clock.
"""

from __future__ import annotations

import json
import select
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.2
LOOPS = 50_000
#: The loop's median CPU time on the VM the benchmark was defined on,
#: when that host was quiet.
REFERENCE_S = 0.0032
#: Operation time grows as loop time to this power (see above).
EXPONENT = 1.3
#: Samples this close to an operation also count for it, so that short
#: operations, which no sample falls inside, get their neighbours'.
PAD_S = 0.5


def _loop_seconds() -> float:
    started = time.thread_time()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.thread_time() - started


def main() -> int:
    samples = []
    while True:
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready:
            if not sys.stdin.readline():
                return 0
            print(json.dumps(samples), flush=True)
        else:
            samples.append((time.perf_counter(), _loop_seconds()))


class Calibrator:
    """The benchmark's side: starts the helper, scales durations."""

    def __init__(self):
        self._proc: subprocess.Popen | None = None

    def start(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def samples(self) -> list[tuple[float, float]]:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    @staticmethod
    def scale(samples, started: float, ended: float) -> float:
        """Reference speed over the speed while [started, ended] ran."""
        if not samples:
            return 1.0
        near = [cpu for at, cpu in samples
                if started - PAD_S <= at <= ended + PAD_S]
        if not near:
            middle = (started + ended) / 2
            near = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return (REFERENCE_S / statistics.median(near)) ** EXPONENT

    def stop(self) -> None:
        if self._proc is None:
            return
        self._proc.stdin.close()
        self._proc.wait(timeout=30)
        self._proc.stdout.close()
        self._proc = None


if __name__ == "__main__":
    sys.exit(main())
