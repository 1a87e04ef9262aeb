"""The machine's speed during a timed run, for scaling its timings.

On a shared virtual machine the speed of a fixed pure-Python loop moves
by as much as half between stretches of a few seconds, and by a fifth
between two runs; CPU time moves with wall time, so the slowdowns are
in execution and no clock excludes them. A `Speedometer` therefore times
a fixed piece of work, the benchmark's own reference checker on fixed
formulas, between ops, at most once per `interval`. `at_reference`
multiplies each op's time by the reference time of that work over its
mean time around the op, which gives the op's time at the reference
speed: the drift cancels, and a change to the program still shows in
full, because the sampled work runs none of it. Samples run with the
garbage collector off, so a program that keeps a larger heap alive does
not slow them down and so does not cancel its own cost. Ops and probes
that start a fresh interpreter are scaled by `spawn_work` instead,
because start-up and import time drift apart from compute speed.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import subprocess
import sys
from time import perf_counter

import corpus
import reference

# Mean seconds of one sample on the reference machine, a 2-vCPU Intel
# Xeon virtual machine running Python 3.11. They only set the unit:
# scaled timings read as that machine's, at its typical speed.
REFERENCE_SAMPLE_S = 0.0035
REFERENCE_SPAWN_S = 0.2
_RNG = random.Random(20140624)
_WORK = tuple(corpus.prop_formula(_RNG) for _ in range(60))


def sample_work() -> None:
    for f in _WORK:
        reference.prop_valid(f)


def spawn_work() -> None:
    """A fresh interpreter that imports numpy: start-up and import work
    like a `tlg` call's, most of whose import time is numpy's, without
    running any of the library."""
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True, timeout=60, check=True)


class Speedometer:
    """Times `work` between ops, at most once per `interval`.

    The default work, compute samples of a few milliseconds taken about a
    tenth of the run, tracked the drift better than samples of 0.6 ms in
    trials on `dqbf` and `modal`.
    """

    # Each op is scaled by the samples taken this many seconds, or its
    # own length if longer, either side of it. Long ops hold no samples,
    # and the one or two next to them read the speed too noisily.
    window = 0.2

    def __init__(self, work=sample_work, reference_s: float = REFERENCE_SAMPLE_S, interval: float = 0.03):
        self.work, self.reference_s, self.interval = work, reference_s, interval
        self.samples: list[float] = []
        # The midpoint of each sample.
        self.taken: list[float] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            self.work()
            took = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.taken.append(start + took / 2)
        self.samples.append(took)

    def between_ops(self) -> None:
        """Sample if `interval` has passed since the last sample."""
        if not self.taken or perf_counter() - self.taken[-1] >= self.interval:
            self.sample()

    def scale(self) -> float:
        """Reference time of a sample over its mean time in the whole run."""
        return self.reference_s / statistics.fmean(self.samples)

    def at_reference(self, spans) -> list[float]:
        """Each (start, seconds) span's seconds at the reference speed, by
        the samples taken from `window` (or `seconds`, if longer) before
        it starts to as long after it ends; by the whole run's where
        there are none."""
        prefix = [0.0]
        for x in self.samples:
            prefix.append(prefix[-1] + x)
        whole = self.scale()
        out = []
        for start, seconds in spans:
            side = max(self.window, seconds)
            lo = bisect.bisect_left(self.taken, start - side)
            hi = bisect.bisect_right(self.taken, start + seconds + side)
            scale = self.reference_s * (hi - lo) / (prefix[hi] - prefix[lo]) if hi > lo else whole
            out.append(seconds * scale)
        return out
