"""Host time corrected for the speed of a shared machine.

On a shared virtual machine the same code can run up to twice as slowly
for seconds to minutes at a time, in CPU time as much as in wall time,
while other tenants load the physical cores.  A :class:`SpeedProbe`
measures that speed while the benchmark runs: a SIGALRM timer interrupts
the program ``PROBE_HZ`` times a second to time three fixed probes of the
kinds of work the program does: ``interp`` (small objects, attribute
access, float math, a tuple-keyed dict), ``calls`` (many numpy calls on
450-element boolean masks, as in chunk exchange) and ``gather``
(GF(256)-style lookups in a 64 kB table and an xor reduction, as in the
fountain codec).  None calls into ``vancast``, so a faster simulator
never makes the probes faster.

A heavier simulator could still make them slower, since they share the
process's caches, allocator and heap with it; the correction would then
credit the program with the slowdown it caused.  Garbage collection is
held off while the probes run, and ``probe_check.py`` measures what is
left, with 1.5 M extra live objects and a cache-thrashing gather plus
300 allocations in every step (a 2.2-2.5x slower run).  In two checks of
four pairs each, the probes' median durations in the heavy runs were
within 5 % of the plain runs' (higher in one check, lower in the other),
and the corrected heavy-over-plain ratio came out 1.5 % below and 7 %
above the wall-clock one, about as far as the wall-clock ratio itself
moved between the checks.  No dependence on the program showed beyond
that noise; a smaller one would go unseen.

:meth:`SpeedProbe.seconds` converts a wall-clock interval into reference
seconds: the program time in it (the probes' own time left out) times the
mean, over the probe ticks inside it, of a speed factor, the geometric
mean of reference over measured duration for the probes of the work's
kind (``KINDS``).  A reference second is the time the work would take on
an unloaded core of the calibration machine.  On repeated identical work
there, this brings the run-to-run spread of wall time from 15-25 % down
to 2-5 %; the probe pairs were chosen by regressing the wall time of
each workload's repeated runs on the probes' speeds.  What is left is
the part of a neighbour's load that slows the program more or less than
the probes, which grows with the load.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time

import numpy as np

PROBE_HZ = 50
# Probe durations on an unloaded core of the calibration machine (Intel
# Xeon under KVM, Python 3.11.7, numpy 2.4.6): the 5th percentile of
# 2000 timings spread over 12 s.
REFERENCE_S = {"interp": 111e-6, "calls": 91e-6, "gather": 170e-6}
# The probes whose speed stands for each kind of work.
KINDS = {"sim": ("interp", "calls"), "codec": ("interp", "gather")}


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _interp(n: int = 200) -> float:
    acc = 0.0
    cells = {}
    for i in range(n):
        p = _Point(i * 0.5, i * 1.5)
        cells[(i & 63, i & 7)] = p
        acc += math.hypot(p.x - p.y, p.y)
    return acc


_MASK_A = np.arange(450) % 3 == 0
_MASK_B = np.arange(450) % 5 == 0


def _calls() -> None:
    for _ in range(30):
        np.flatnonzero(_MASK_A & ~_MASK_B)


_TABLE = (np.arange(256)[:, None] * np.arange(256)[None, :] % 251).astype(np.uint8)
_ROWS = np.random.default_rng(3).integers(0, 256, (20, 1334), dtype=np.uint8)
_FACTORS = np.random.default_rng(4).integers(0, 256, 20, dtype=np.uint8)


def _gather() -> np.ndarray:
    return np.bitwise_xor.reduce(_TABLE[_FACTORS[:, None], _ROWS], axis=0)


PROBES = {"interp": _interp, "calls": _calls, "gather": _gather}


class SpeedProbe:
    """Samples machine speed from a SIGALRM handler while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: dict[str, list[float]] = {name: [] for name in PROBES}
        self.probe_s: list[float] = []  # total probe time of each tick

    def _on_alarm(self, signum, frame):
        # No garbage collection inside a probe: a collection there would
        # scan the program's heap, so a program with more live objects
        # would read as a slower machine.  The probes free all they make.
        collecting = gc.isenabled()
        gc.disable()
        start = t0 = time.perf_counter()
        for name, probe in PROBES.items():
            probe()
            t1 = time.perf_counter()
            self.durations[name].append(t1 - t0)
            t0 = t1
        self.starts.append(start)
        self.probe_s.append(t0 - start)
        if collecting:
            gc.enable()

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        period = 1.0 / PROBE_HZ
        signal.setitimer(signal.ITIMER_REAL, period, period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _factor(self, i: int, kind: str) -> float:
        names = KINDS[kind]
        product = math.prod(REFERENCE_S[n] / self.durations[n][i] for n in names)
        return product ** (1.0 / len(names))

    def factor(self, a: float, b: float, kind: str = "sim") -> float:
        """Mean speed factor over the wall interval [a, b]."""
        if not self.starts:
            return 1.0
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        if lo == hi:  # shorter than one probe period: use the nearest probe
            return self._factor(min(lo, len(self.starts) - 1), kind)
        return sum(self._factor(i, kind) for i in range(lo, hi)) / (hi - lo)

    def seconds(self, a: float, b: float, kind: str = "sim") -> float:
        """Reference seconds of program time in the wall interval [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        probe_s = sum(self.probe_s[lo:hi])
        return (b - a - probe_s) * self.factor(a, b, kind)
