"""How fast the host ran this process while it worked, sampled with a timer signal.

The benchmark's host shares its cores with other machines' work.  A pure
Python process there switches, several times a second, between a fast state
and one about 1.75x slower, and the share of time spent slow changes from
minute to minute; wall time alone then spreads by a quarter between runs of
the same code.  So while a child measures, a timer signal every
``INTERVAL_S`` runs a fixed probe and times it.  A probe that takes
``d`` seconds says the machine ran at ``PROBE_S / d`` of the reference speed
at that moment, and the mean of those ratios over the samples, which are
even in time, is the mean speed over the span.

``reference_s`` turns a span's wall time into seconds at the reference
speed: the time the probes took comes off, and the rest is multiplied by
the mean speed.  The probe uses nothing of chordforest, so a change to the
package moves that figure and a change of the host's speed mostly does not.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.002
# Probe time in the fast state on the 2.0 GHz Xeon vCPU the benchmark was
# written on, CPython 3.11.7.  It only fixes the scale of reported seconds.
PROBE_S = 16e-6


def _probe() -> int:
    """C(149, k) for k < 60 by exact division, three times: ~16 us of big-int work.

    Of the probes tried (a small-int loop, random reads of a large list, tuple
    keys into a dict, big-int products), this one's slowdown in the slow state
    came closest to that of the CLI commands: wall time scaled by it no
    longer tracked the host's state.
    """
    for _ in range(3):
        c = 1
        for i in range(1, 60):
            c = c * (150 - i) // i
    return c


class Speedometer:
    """Context manager: samples the probe's time every ``INTERVAL_S`` inside it.

    Only for the main thread; the handler runs between bytecodes, so samples
    that fall in a long C call are taken when it returns.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.probe_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Speedometer":
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self.probe_s = sum(self.samples)
        if not self.samples:  # a span shorter than the interval: sample just after it
            _probe()
            self._sample(None, None)

    def speed(self) -> float:
        """Mean speed over the span, as a share of the reference speed."""
        return sum(PROBE_S / d for d in self.samples) / len(self.samples)

    def reference_s(self, wall_s: float) -> float:
        """``wall_s``, measured inside this span, in seconds at the reference speed."""
        return (wall_s - self.probe_s) * self.speed()
