"""Layer timing from outside the package: wrap public functions, keep spans.

A :class:`Tracer` replaces a function at every place the ``vancast``
modules refer to it (a module global, a package re-export, or a class
attribute for methods), so calls made inside the package go through the
wrapper too.  Each wrapper adds its wall time to per-name totals and to
the child total of the enclosing wrapped call; self time is total minus
children.  Per-call data stays aggregated in memory; only spans of names
marked ``span=True`` (the rare, coarse calls) are kept one by one, and
:meth:`Tracer.report` hands everything over at the end.

A wrapper costs about a microsecond a call, and most of that cost falls
outside the span it measures: calling through the wrapper, its stack
frame, the clock reads and the counting after the call all land in the
enclosing call's self time.  With millions of wrapped calls that cost
would swamp the self time of a caller such as ``engine.step``.
:meth:`Tracer.calibrate` therefore times wrapped no-ops first, and the
report takes each call's measured cost out of the time of the call that
paid it: ``self_s`` and ``total_s`` are corrected, ``wrapper_s`` is the
cost that was removed.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

_clock = time.perf_counter


@dataclass
class CallStats:
    calls: int = 0
    total_s: float = 0.0  # measured, wrapper cost inside the span included
    child_s: float = 0.0
    kids: int = 0  # timed calls made directly from this name's calls
    quiet_kids: int = 0  # counting-only calls made directly
    desc: int = 0  # timed calls anywhere below this name's calls
    quiet_desc: int = 0  # counting-only calls anywhere below


@dataclass
class WrapperCost:
    """Seconds one wrapped call adds, split by where a span sees them."""

    inside: float = 0.0  # within the call's own span
    outside: float = 0.0  # in the caller's self time
    untimed: float = 0.0  # a counting-only wrapper, all in the caller's self time


def _noop(a, b):
    pass


@dataclass
class Tracer:
    """Wraps functions for the lifetime of a ``with`` block."""

    stats: dict[str, CallStats] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    cost: WrapperCost = field(default_factory=WrapperCost)
    calibrated: tuple[float, float] | None = None  # clock interval of calibrate()
    _stack: list[list] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def add(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0.0) + value

    def calibrate(self, n: int = 20_000, trials: int = 7):
        """Measure :attr:`cost` with the same wrappers :meth:`wrap` installs.

        A wrapped loop makes ``n`` calls to a wrapped no-op (and, in a
        second loop, to a counting-only one); comparing with the bare loop
        gives the whole cost of a call, and the no-op's own span gives the
        part inside it.  Each figure is the median over ``trials``.
        """

        def loop(f):
            for _ in range(n):
                f(1, 2)

        def empty():
            for _ in range(n):
                pass

        inside, outside, untimed = [], [], []
        start = _clock()
        for _ in range(trials):
            probe = Tracer()
            inner = probe._wrapper(_noop, "inner")
            quiet = probe._wrapper(_noop, "quiet", on_return=lambda t, a, r: t.add("n", 1),
                                   timed=False)
            outer_a = probe._wrapper(loop, "outer_a")
            outer_b = probe._wrapper(loop, "outer_b")
            t0 = _clock()
            empty()
            t1 = _clock()
            loop(_noop)
            t2 = _clock()
            outer_a(inner)
            outer_b(quiet)
            bare, noop_s = t2 - t1, (t2 - t1) - (t1 - t0)
            a = probe.stats["outer_a"]
            whole = (a.total_s - bare) / n
            inside.append(max(0.0, (probe.stats["inner"].total_s - noop_s) / n))
            outside.append(whole - inside[-1])
            untimed.append((probe.stats["outer_b"].total_s - bare) / n)
        self.cost = WrapperCost(statistics.median(inside), statistics.median(outside),
                                statistics.median(untimed))
        self.calibrated = (start, _clock())

    def _wrapper(self, orig: Callable, name: str, on_return=None, span=False, timed=True):
        stats = self.stats.setdefault(name, CallStats())
        stack = self._stack
        spans = self.spans
        clock = _clock

        if not timed:

            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                stats.calls += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += 1
                    parent[4] += 1
                on_return(self, args, result)
                return result

            return wrapper

        def wrapper(*args, **kwargs):
            # child time, kids, quiet_kids, desc, quiet_desc, span index
            frame = [0.0, 0, 0, 0, 0, None]
            if span:
                parent = next((f[5] for f in reversed(stack) if f[5] is not None), None)
                frame[5] = len(spans)
                spans.append({"name": name, "parent": parent})
            stack.append(frame)
            t0 = clock()
            try:
                result = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stats.calls += 1
                stats.total_s += dt
                stats.child_s += frame[0]
                stats.kids += frame[1]
                stats.quiet_kids += frame[2]
                stats.desc += frame[3]
                stats.quiet_desc += frame[4]
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1] += 1
                    parent[3] += frame[3] + 1
                    parent[4] += frame[4]
                if span:
                    spans[frame[5]].update(start=t0, end=t1)
            if on_return is not None:
                on_return(self, args, result)
            return result

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_return: Callable[["Tracer", tuple, object], None] | None = None,
        span: bool = False,
        timed: bool = True,
    ):
        """Route every reference to ``owner.attr`` through a wrapper.

        ``on_return(tracer, args, result)`` records counts from a call;
        ``timed=False`` keeps only that hook (for calls too small to
        time without distorting their parent's self time).
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapper = self._wrapper(orig, name, on_return, span, timed)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (mod, key)
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").split(".")[0] == "vancast"
                for key, value in list(vars(mod).items())
                if value is orig
            ]
        for target, key in targets:
            self._patches.append((target, key, orig))
            setattr(target, key, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc):
        for target, key, orig in reversed(self._patches):
            setattr(target, key, orig)
        self._patches.clear()
        return False

    def report(self, cost_scale: float = 1.0) -> dict:
        """Aggregates with wrapper cost removed, and coarse spans.

        ``cost_scale`` multiplies :attr:`cost`, for a machine that ran at
        another speed while calibrating than while tracing.  ``inner_s``
        is the wrapper cost inside a name's spans; span times are raw and
        relative to the first span.
        """
        inside, outside, untimed = (cost_scale * x for x in
                                    (self.cost.inside, self.cost.outside, self.cost.untimed))
        calls = {}
        wrapper_s = 0.0
        for name, s in self.stats.items():
            own = s.calls * inside if s.total_s else 0.0
            inner = s.desc * (inside + outside) + s.quiet_desc * untimed + own
            calls[name] = {
                "calls": s.calls,
                "total_s": s.total_s - inner,
                "self_s": s.total_s - s.child_s - s.kids * outside - s.quiet_kids * untimed - own,
                "inner_s": inner,
            }
            wrapper_s += s.calls * (inside + outside if s.total_s else untimed)
        t0 = min((s["start"] for s in self.spans), default=0.0)
        return {
            "calls": calls,
            "counts": dict(self.counts),
            "wrapper_cost": {k: cost_scale * v for k, v in vars(self.cost).items()},
            "wrapper_s": wrapper_s,
            "spans": [
                {**s, "start": s["start"] - t0, "end": s["end"] - t0} for s in self.spans
            ],
        }
