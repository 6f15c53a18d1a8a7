"""Host-speed sampling, to report timings that repeat on a shared machine.

On the shared 2-vCPU machine the benchmark was built on, the host switches
between speed regimes that last tens of seconds and differ by up to 30% in
wall time for the same work; process CPU time moves with wall time, so it
is no escape.  HostSpeed runs a fixed kernel of mpmath's low-level float
arithmetic (the same pure-Python big-integer work the package does) from a
SIGALRM handler every PERIOD_S of wall time, in the benchmark's own thread.
The samples taken inside a timed window give the host's speed during that
window, and `normalized` converts the window's wall time into seconds on a
host where the kernel takes NOMINAL_KERNEL_S:

    normalized = (wall - time spent in the kernel) * mean(NOMINAL_KERNEL_S / kernel_i)

The mean of the speed ratios weights each sample by the wall time it stands
for, so a window that straddles two regimes is converted piecewise.  The
kernel uses only libmp functions with an explicit precision: it reads and
changes no mpmath context state, so it cannot alter the package's results.
"""

from __future__ import annotations

import signal
import statistics
import time

from mpmath.libmp import from_man_exp, mpf_add, mpf_div, mpf_mul

PERIOD_S = 0.04
NOMINAL_KERNEL_S = 1.0e-3
_PREC = 256
_ROUNDS = 150
_X = from_man_exp((1 << 255) | 0x9E3779B97F4A7C15F39CC0605CEDC834, -255)
_Y = from_man_exp((1 << 255) | 0x2545F4914F6CDD1D, -254)


def kernel():
    a = _X
    for _ in range(_ROUNDS):
        a = mpf_div(mpf_add(mpf_mul(a, _X, _PREC, "n"), _Y, _PREC, "n"), _Y, _PREC, "n")
    return a


class HostSpeed:
    """Samples the kernel's duration on a wall-clock timer while started.

    `spent` is the total wall time spent in the kernel; `clock()` is
    perf_counter with that time taken out, so spans measured with it
    exclude the sampler's own interruptions.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at kernel start, kernel seconds)
        self.spent = 0.0

    def _sample(self, signum, frame):
        t = time.perf_counter()
        kernel()
        d = time.perf_counter() - t
        self.samples.append((t, d))
        self.spent += d

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def mark(self):
        """Opaque start mark of a timed window."""
        return (time.perf_counter(), self.spent, len(self.samples))

    def window(self, mark):
        """(wall seconds net of sampling, speed factor) since `mark`.

        The speed factor is mean(NOMINAL_KERNEL_S / kernel_i) over the
        samples taken in the window, or over the last samples before it
        when the window was too short to hold one.
        """
        t0, spent0, i0 = mark
        net = time.perf_counter() - t0 - (self.spent - spent0)
        durations = [d for _, d in self.samples[i0:]]
        if not durations:
            durations = [d for _, d in self.samples[-5:]]
        if not durations:
            durations = [_time_kernel()]
        factor = statistics.fmean(NOMINAL_KERNEL_S / d for d in durations)
        return net, factor

    def normalized(self, mark) -> float:
        net, factor = self.window(mark)
        return net * factor


def _time_kernel() -> float:
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
