"""Host-speed normalisation of measured times.

The benchmark runs on shared virtual machines whose speed drifts: other
tenants of the host slow a run by 10-140% for a few milliseconds to
minutes at a time, so the wall time of the same operation moves by
tenths between runs, far more than any bound worth gating on.

A :class:`Pacer` samples the host's speed while operations run: every
``interval`` seconds a timer signal interrupts the measured thread, which
runs a fixed pure-Python kernel and records how long it took.  An
interval's *reference time* is its wall time, less the kernel time spent
inside it, scaled by ``REFERENCE_S / kernel time`` over the samples taken
during it (or the samples either side of it, when it was too short to hold
one).  On an idle reference box the two agree; on a slowed host the
reference time stays near where the idle box would have put it, because
the kernel slows with the operations around it.  Not exactly: code of
different kinds slows by different shares, so a heavily contended run
still reads its short operations up to about a tenth faster.
"""

from __future__ import annotations

import bisect
import gc
import re
import signal
import time
from itertools import accumulate
from typing import Optional

__all__ = ["Pacer", "kernel", "REFERENCE_S", "INTERVAL_S"]

#: loop steps per sample
KERNEL_STEPS = 400
#: seconds the kernel takes on the idle reference box (2 vCPUs, CPython 3.11)
REFERENCE_S = 0.000345
#: seconds between samples
INTERVAL_S = 0.01

_WORDS = tuple(f"w{index:03d}" for index in range(97))
_TOKEN = re.compile(r"[a-z]+|\d+")


class _Item:
    __slots__ = ("name", "value", "tags")

    def __init__(self, index: int) -> None:
        self.name = f"item{(index * 7919) % 100003}x{index}"
        self.value = index
        self.tags = frozenset((index % 7, index % 11))


_ITEMS = tuple(_Item(index) for index in range(2048))


def _step(text: str, index: int) -> int:
    return len(text) + (index * 7) % 13


def kernel() -> int:
    """Fixed interpreter work in two halves.

    A tight loop of dict updates, string formatting and calls slows more
    than the program's short operations when the host is contended; the
    branchy half (tokenising, attribute access, exception handling,
    sorting small tuples, as a parser does) slows less.  Their sum tracks
    the program's operations, short and long, more closely than either.
    """
    words, table, total = _WORDS, dict.fromkeys(_WORDS, 0), 0
    for index in range(KERNEL_STEPS):
        word = words[index % 97]
        table[word] = (table[word] + index) & 0xFFFF
        text = f"{word}:{index}"
        if text.startswith("w0"):
            total += _step(text, index)
        else:
            total -= 1
    counts: dict[str, int] = {}
    rows = []
    for index in range(KERNEL_STEPS // 3):
        item = _ITEMS[(index * 37) % len(_ITEMS)]
        parts = _TOKEN.findall(item.name)
        key = "-".join(parts)
        if 3 in item.tags:
            counts[key] = counts.get(key, 0) + item.value
        else:
            try:
                counts[key] += 1
            except KeyError:
                counts[key] = len(parts)
        rows.append((item.value % 13, key))
    rows.sort()
    return total + len(rows) + len(counts)


class Pacer:
    """Samples the host's speed by timer signal while it is entered.

    Use it on the main thread, around the operations whose times it will
    normalise; leave it before starting subprocesses.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.starts: list[float] = []
        self.kernel_s: list[float] = []
        self._busy = False
        self._previous = None
        self._spent: Optional[list[float]] = None
        self._scales: Optional[list[float]] = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.kernel_s.append(time.perf_counter() - start)
            self.starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def __enter__(self) -> "Pacer":
        self._spent = self._scales = None
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.siginterrupt(signal.SIGALRM, False)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _prefix(self) -> tuple[list[float], list[float]]:
        if self._spent is None:
            self._spent = [0.0, *accumulate(self.kernel_s)]
            self._scales = [0.0, *accumulate(REFERENCE_S / s for s in self.kernel_s)]
        return self._spent, self._scales

    def measured(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` less the samples taken between."""
        spent, _ = self._prefix()
        first, last = self._inside(start, end)
        return end - start - (spent[last] - spent[first])

    def scale(self, start: float, end: float) -> float:
        """Mean ``REFERENCE_S / kernel time`` over the samples taken from
        ``start`` to ``end``, or over the two either side of it."""
        _, scales = self._prefix()
        first, last = self._inside(start, end)
        if last == first:
            first, last = max(0, first - 1), min(len(self.starts), last + 1)
        return (scales[last] - scales[first]) / (last - first)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval from ``start`` to ``end``."""
        return self.measured(start, end) * self.scale(start, end)

    def _inside(self, start: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
