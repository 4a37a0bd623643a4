"""Machine-speed reference for the end-to-end timings.

The benchmark runs on small shared virtual machines whose speed swings by
1.2 to 2 times for seconds to minutes.  On a 2-vCPU VM (Intel Xeon, 2.1 GHz)
the same count_points call on the same curve, repeated for 150 s, spread by
0.4 to 0.5 of its median between the quartiles, so a run of tens of seconds
measures the machine's phase more than the program.

So timed operations are interleaved with calls of `kernel`, a fixed piece of
pure-Python work that never calls the library, and each measured time is
rescaled to the speed at which the kernel takes REF_S:

    time at reference speed = measured time * REF_S / (kernel time around it)

Sampled before every count_points call, the kernel's time followed the call's
with a correlation of 0.8 to 0.9, and the rescaled time spread by 0.07 to 0.15.
An operation that runs for seconds is sampled while it runs, from a timer
signal, and the kernel time is taken out of its measured time.  A change to
the library moves the rescaled time exactly as it moves the measured one,
since the kernel is the benchmark's own code and the same on both sides of a
comparison.  The kernel runs with the garbage collector off, so a library
that leaves a large heap cannot slow the kernel and so look faster.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from time import perf_counter

REF_S = 0.003  # the kernel's time at reference speed, about its median on the VM above
WINDOW = 4  # kernel samples used on each side of an operation
_P = 10**12 + 39


def kernel() -> int:
    """Fixed work in the style of the library's inner loops: an affine
    doubling chain modulo a 40-bit prime, with modular inverses, and
    schoolbook products of degree-6 polynomials over F_3.  Its data fit in
    the first-level caches, so its time depends on the machine and not on
    what the library left in the caches: right after a count_points call it
    ran as fast as on a second call (ratio 1.003), where a variant with
    lookups in a 2^16-entry table ran 1.1 to 1.5 times slower."""
    x, y = 5, 7
    for _ in range(800):
        lam = (3 * x * x + 1) * pow(2 * y, -1, _P) % _P
        x2 = (lam * lam - 2 * x) % _P
        y = (lam * (x - x2) - y) % _P or 1
        x = x2
    a = [1, 2, 0, 1, 2, 2, 1]
    b = [2, 1, 1, 0, 2, 1, 1]
    for _ in range(40):
        prod = [0] * 13
        for j, u in enumerate(a):
            if u:
                for k, v in enumerate(b):
                    prod[j + k] += u * v
        a = [c % 3 for c in prod[:7]]
        a[0] = (a[0] + 1) % 3
    return x + sum(a)


class SpeedLog:
    """Kernel samples over a run, and the rescaling of operation times."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._sampling = False
        kernel()  # warm-up, not recorded

    def sample(self) -> None:
        if self._sampling:  # a timer tick that arrived during a sample
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
            self._sampling = False
        self.starts.append(t0)
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    @contextmanager
    def ticking(self, interval_s: float):
        """Also sample every `interval_s` from a SIGALRM timer, so that an
        operation that runs for seconds is sampled while it runs.  The
        handler runs between the library's bytecodes, in this thread."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _around(self, t0: float, t1: float) -> tuple[int, int]:
        """Index of the first sample that ended after t0, and of the first
        that began from t1 on: the samples between ran inside [t0, t1]."""
        return bisect_right(self.ends, t0), bisect_left(self.starts, t1)

    def measured(self, t0: float, t1: float) -> float:
        """t1 - t0 less the kernel samples that ran inside it."""
        inside, after = self._around(t0, t1)
        return t1 - t0 - sum(self.durations[inside:after])

    def at_ref(self, t0: float, t1: float) -> float:
        """measured(t0, t1) at reference speed, from the median of the
        samples inside [t0, t1] and the WINDOW on each side of it."""
        inside, after = self._around(t0, t1)
        near = self.durations[max(0, inside - WINDOW):after + WINDOW]
        if not near:
            raise ValueError("no kernel sample around the operation")
        return self.measured(t0, t1) * REF_S / statistics.median(near)
