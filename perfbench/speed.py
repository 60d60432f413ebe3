"""Reference slices that rescale timings to a fixed machine speed.

The sandboxes this benchmark runs in share their hosts, and a vCPU's
speed drifts by up to 1.7x within minutes while nothing in the sandbox
changes. A timing taken at one moment therefore says as much about the
host as about the program. To separate the two, a fixed unit of
interpreter work (``reference_slice``) is timed alongside the program,
and each timing is rescaled by the slices taken during it:

    reported = measured * REFERENCE_S / mean(slice durations)

``REFERENCE_S`` is the slice's duration on the 2-core sandbox where the
benchmark was defined, in its faster state, so reported times are
seconds at that machine's speed. The slice does the kinds of work the program does: hashing
frozen dataclasses, dict and set churn, sorting and small allocations.
It is the benchmark's own code, so no change to zzstrips alters it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

REFERENCE_S = 0.0022
SAMPLE_EVERY_S = 0.1


@dataclass(frozen=True, order=True)
class _Node:
    k: int
    j: int


_NODES = tuple(_Node(k, j) for k in range(12) for j in range(12))
_PROBES = _NODES[::11]


def _unit() -> float:
    start = perf_counter()
    total = 0
    for _ in range(3):
        index = {node: i for i, node in enumerate(_NODES)}
        seen = set()
        for node in _NODES:
            below = frozenset(m for m in _PROBES if m < node)
            seen.add((node, len(below)))
            total += index[node]
        total += len(sorted(seen, key=lambda pair: (pair[1], pair[0].j)))
    return perf_counter() - start


def reference_slice() -> float:
    """Seconds taken by one fixed unit of interpreter work: the median
    of three timings, so one interrupt inside a slice does not count."""
    return statistics.median(_unit() for _ in range(3))


def rescale(seconds: float, slices: list[float]) -> float:
    return seconds * REFERENCE_S * len(slices) / sum(slices)


class SpeedSampler:
    """Takes a reference slice every ``SAMPLE_EVERY_S`` of wall time,
    from a SIGALRM handler in the measured process itself, so the slices
    see the same vCPU at the same moments as the program.

    A Python signal handler runs between bytecodes of the main thread,
    so each slice falls wholly inside or wholly outside a timed window.
    ``measure(start, end)`` removes the slices inside the window from
    its time and rescales the rest by them; a window too short to hold a
    slice uses the nearest slice on each side. ``on_slice`` is told how
    long each slice took, so a span recorder can exclude it as well.
    """

    def __init__(self, on_slice=None):
        self.on_slice = on_slice
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slices: list[float] = []
        self._previous = None
        self._busy = False

    def take(self, *_) -> None:
        """Take one slice now; also the SIGALRM handler, which skips its
        turn when it lands inside a slice, so slices never nest."""
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        duration = reference_slice()
        end = perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.slices.append(duration)
        if self.on_slice is not None:
            self.on_slice(end - start)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self.take()
        self._previous = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.take()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(rescaled seconds, unscaled seconds) of the window, both
        without the time its slices took."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.ends, end)
        inside = range(lo, hi)
        raw = end - start - sum(self.ends[i] - self.starts[i] for i in inside)
        if inside:
            near = [self.slices[i] for i in inside]
        else:
            near = [self.slices[i] for i in (lo - 1, lo) if 0 <= i < len(self.slices)]
        return rescale(raw, near), raw
