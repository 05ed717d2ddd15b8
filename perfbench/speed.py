"""Processor speed probe.

On a shared host the speed of a processor changes from second to second
with whatever runs beside it on the same physical core: identical repeats
of one workload have taken up to 1.6 times the CPU time of each other.
A probe thread times a fixed reference slice every ``period`` seconds, in
its own CPU time, while the program runs; the mean slice time over a
repeat says how fast the processor ran meanwhile.  The slice is a small
piece of the program's two kinds of work: exact rational polynomial
products and small numpy jet arithmetic.  ``at_reference_speed`` scales a
CPU time to a processor on which the slice takes ``REFERENCE_SLICE_S``.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.2
# about what the slice takes beside the running program on the 2-vCPU
# machine the benchmark was proved on
REFERENCE_SLICE_S = 0.005


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def reference_slice():
    """A few milliseconds of fixed work; returns its result so none is skipped."""
    p = [Fraction(k + 1, 2 * k + 3) for k in range(9)]
    q = p
    for _ in range(3):
        q = _poly_mul(q, p)[:12]
    g = np.linspace(0.1, 0.8, 8)
    h = np.eye(8)
    v = 1.0
    for _ in range(300):
        cross = np.outer(g, g)
        h = h * 0.5 + h * v + cross + cross.T
        g = g * 0.9 + g * v
        v *= 0.999
    return q, h


class SpeedProbe:
    """Context manager that samples reference-slice CPU times in a thread.

    ``samples`` holds one CPU time per slice; ``cpu_s`` is the probe
    thread's whole CPU time, to subtract from the process's.
    """

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while True:
            t0 = time.thread_time()
            reference_slice()
            self.samples.append(time.thread_time() - t0)
            if self._stop.wait(self.period):
                break
        self.cpu_s = time.thread_time()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def at_reference_speed(cpu_s, samples):
    """``cpu_s`` scaled by how much slower than the reference the slices ran."""
    return cpu_s * REFERENCE_SLICE_S * len(samples) / sum(samples)
