"""Wall-clock timing scaled to a reference machine speed.

The benchmark runs on cores shared with other work, whose speed changes by
up to a factor of two in stretches that last from seconds to minutes.  A
fixed amount of pure-Python work timed in 48-second windows spread 0.20
(quartile spread over median) from window to window, so no statistic taken
inside one run can make a raw time steady from run to run.

The clock therefore measures the machine's speed next to every call it
times: after the call it runs a fixed reference loop (n-gram sets, dict
counting and a small matrix product, the kinds of work the program does)
for a tenth of the call's time, and scales the call's wall time by
``REFERENCE_SECONDS`` over the mean time of those loops and of as many
loops run before the call (the latest ones, which may come from the
blocks after several shorter calls).  A scaled time is the call's time
on a machine where one reference loop takes ``REFERENCE_SECONDS``.  Timed
alternately with the reference loop, the string kernel's work kept its
ratio to the loop within a spread of about 0.01 from window to window
(10- and 30-second windows) while its own time spread 0.15-0.17.

The reference loop runs with the garbage collector off, so its time does
not depend on how many objects the program keeps alive.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time
from typing import Callable, Iterable, TypeVar

import numpy as np

T = TypeVar("T")

# About the reference loop's median time on the machine this was tuned on
# (a 2-vCPU Xeon VM, where runs measured medians of 1.6 to 3.1 ms), so
# that scaled times read close to wall times there.
REFERENCE_SECONDS = 0.002
# Share of a call's time spent on the reference loop after it.
REFERENCE_SHARE = 0.1
# Shortest segment of a timed call that a layer call ends (see Clock).
LAP_SECONDS = 0.1

_TEXT = " ".join(f"w{i % 211}q{i % 7}" for i in range(1200))
_MATRIX = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48) / 48


def reference_loop() -> float:
    """A fixed mix of string, set, dict and numpy work; returns a checksum.

    Nine tenths of its time is pure Python on strings.  A version with half
    its time in short numpy calls (sorting and prefix sums, as in the
    boosted-tree split search) tracked neither workload better: over five
    seeds its scaled times spread as much on ``ensemble`` and more on
    ``svm-string-kernel``.
    """
    grams = frozenset(_TEXT[i : i + 4] for i in range(len(_TEXT) - 3))
    counts: dict[str, int] = {}
    for word in _TEXT.split():
        counts[word] = counts.get(word, 0) + 1
    x = _MATRIX
    for _ in range(16):
        x = np.tanh(_MATRIX @ x)
    return len(grams) + len(counts) + float(x[0, 0])


def _loop_times(budget: float) -> list[float]:
    """Times of reference loops run for ``budget`` seconds (at least two)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        start = time.perf_counter()
        while len(times) < 2 or time.perf_counter() - start < budget:
            t0 = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return times


class Clock:
    """Times calls; each timing is both raw and scaled to the reference speed.

    A long call (a training cycle takes seconds) can span several of the
    machine's fast and slow stretches, which the loops at its two ends do
    not see.  ``install_laps`` therefore makes the program's layer calls
    end the current *segment* of a timed call once it has run for
    ``LAP_SECONDS``: the segment is scaled on its own, with a reference
    block after it, and the call's times are the sums over its segments.
    The reference blocks are not part of either time.
    """

    def __init__(self) -> None:
        self.loop_times = _loop_times(0.2)
        self._start: float | None = None
        self._raw = 0.0
        self._scaled = 0.0

    def call(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Run ``fn()``; returns (its result, wall seconds, scaled seconds)."""
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()
        try:
            result = fn()
            self.lap(0.0)
        finally:
            self._start = None
        return result, self._raw, self._scaled

    def lap(self, min_seconds: float = LAP_SECONDS) -> None:
        """End the timed call's current segment if it has run ``min_seconds``."""
        if self._start is None:
            return
        raw = time.perf_counter() - self._start
        if raw < min_seconds:
            return
        after = _loop_times(REFERENCE_SHARE * raw)
        around = self.loop_times[-len(after) :] + after
        self.loop_times.extend(after)
        self._raw += raw
        self._scaled += raw * REFERENCE_SECONDS / statistics.fmean(around)
        self._start = time.perf_counter()


def install_laps(clock: Clock, names: Iterable[tuple[str, str]]) -> None:
    """Make each ``mgtdetect.<module>.<attr>`` call ``clock.lap()`` when it returns.

    The wrappers stay for the whole run and cost about a microsecond a
    call; they record nothing.
    """
    for module_name, attr in dict.fromkeys(names):
        module = importlib.import_module(f"mgtdetect.{module_name}")
        setattr(module, attr, _lapping(getattr(module, attr), clock))


def _lapping(fn: Callable, clock: Clock) -> Callable:
    @functools.wraps(fn)
    def lapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        clock.lap()
        return result

    return lapped
