"""Wall times rescaled to a nominal host speed.

On a shared host the speed of this process drifts by a fifth or more over
tens of seconds (neighbours on the same cores), which no amount of work in
one run averages away.  So every ~0.1 s of measured items is followed by a
fixed reference that does not touch the library, and those items' wall
times are scaled by the reference's nominal time over its measured time.
A change to the library moves the item times and not the reference, so
scaled times compare commits; the host's drift moves both and cancels.
The default reference is a pure-Python kernel; CLI processes use a bare
interpreter start instead (see run.py), because process start-up drifts
differently from computation.  The raw wall times are kept alongside.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_MS = 4.0        # what the reference kernel takes on the nominal host
SEGMENT_S = 0.1     # measured time between two runs of the kernel


def reference_kernel():
    """Fixed work shaped like the library's: Fractions, big integers,
    tuples and a dict."""
    acc = Fraction(0)
    rows = []
    big = 3 ** 40
    for i in range(1, 700):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        rows.append(tuple((big * i + j) % 1000003 for j in range(4)))
    return acc, len({r: k for k, r in enumerate(rows)})


def speed_factor() -> float:
    """REF_MS over the kernel's wall time now: above 1 on a fast moment."""
    t0 = perf_counter()
    reference_kernel()
    return REF_MS / 1000.0 / (perf_counter() - t0)


class Clock:
    """Collects (key, raw seconds, scaled seconds) samples; ``factor``
    measures the reference and returns nominal over measured time."""

    def __init__(self, factor=speed_factor):
        self.factor = factor
        self.samples = []
        self._pending = []
        self._pending_s = 0.0

    def add(self, key, raw_s):
        self._pending.append((key, raw_s))
        self._pending_s += raw_s
        if self._pending_s >= SEGMENT_S:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        f = self.factor()
        self.samples.extend((k, r, r * f) for k, r in self._pending)
        self._pending.clear()
        self._pending_s = 0.0

    def time(self, fn, *args):
        """Run fn once, record it under key None, return its result."""
        t0 = perf_counter()
        out = fn(*args)
        self.add(None, perf_counter() - t0)
        self.flush()
        return out

    def scaled(self):
        return [s for _, _, s in self.samples]

    def raw(self):
        return [r for _, r, _ in self.samples]
