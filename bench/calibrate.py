"""Machine-speed calibration for the timed phase.

A shared host can run the same pure-Python code 30 % slower for minutes at
a time.  The benchmark therefore times a fixed kernel, which no change to
hnlab can touch, in short slices every EVERY_S of CPU time, during ops as
well as between them, and scales each measured time to a machine that runs
the kernel REFERENCE_RATE times a second.  The
kernel does the kind of work hnlab does: Python-level calls, small-integer
arithmetic and shifts of bitsets a few hundred bits wide.
"""

from __future__ import annotations

import signal
import time

import reference as ref

#: Kernel runs per second of the reference machine.  On a 2-vCPU KVM guest
#: on an Intel Xeon with CPython 3.11.7 the kernel ran 6000-7400 times a
#: second in half-second slices.
REFERENCE_RATE = 7000.0
#: Length of one calibration slice, and the CPU time between two slices.
SLICE_S = 0.005
EVERY_S = 0.1


def _step(x: int, i: int) -> int:
    return ((x << 1) ^ i) & 0xFFFF


def kernel() -> int:
    acc = 0
    for i in range(1000):
        acc = _step(acc, i)
    frob, genus = ref.frobenius_genus((13, 17, 29))
    return acc + frob + genus


class Calibrator:
    """Accumulates kernel runs and the time they took, slice by slice.

    ``spent`` is the total time of all slices, so an op timer can take out
    the slices that ran inside the op.
    """

    def __init__(self) -> None:
        self.runs = 0
        self.seconds = 0.0
        self.spent = 0.0
        self._in_slice = False

    def slice(self, seconds: float = SLICE_S) -> None:
        if self._in_slice:
            return
        self._in_slice = True
        start = now = time.perf_counter()
        runs = 0
        try:
            while now - start < seconds:
                kernel()
                runs += 1
                now = time.perf_counter()
        finally:
            # A budget alarm may end a slice that runs inside an op.
            now = time.perf_counter()
            self.runs += runs
            self.seconds += now - start
            self.spent += now - start
            self._in_slice = False

    def start_ticks(self) -> None:
        """Run a slice every EVERY_S of this process's CPU time, from a
        SIGVTALRM handler, so slices land inside long ops too."""
        signal.signal(signal.SIGVTALRM, lambda signum, frame: self.slice())
        signal.setitimer(signal.ITIMER_VIRTUAL, EVERY_S, EVERY_S)

    def stop_ticks(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def slowdown(self) -> float:
        """How much slower than the reference machine the slices ran since
        the last call (above 1 is slower), and start afresh."""
        factor = REFERENCE_RATE * self.seconds / self.runs
        self.runs, self.seconds = 0, 0.0
        return factor
