"""Trip schedules and vehicle motion.

Each vehicle gets a one-day schedule: a Poisson-distributed number of
trips at uniformly random times from the node it starts the day at
(its home on day 0, drawn by the engine), chained so every trip starts
where the previous one ended.  Between trips the vehicle is parked and
(by default) invisible to the radio layer.  Motion along a route is
piecewise linear at a single constant speed.

Time runs in whole steps (ticks) of dt seconds.  Vehicles drive their
trips whatever chunks they carry, so a day's motion is fixed once its
trips are drawn.  :func:`assign_trips` draws a whole day at its first
tick but routes only the trips due by a given time; each later one is
kept as a :class:`DeferredTrip`, with where its route's draws lie in the
stream.  Its draws are those of a per-trip loop of numpy calls, but a
vehicle's destination picks and route factors come from one read of raw
PCG64 words.  :func:`lay_out_day` lays out a window of ticks, a
whole day or part of one, as a :class:`Timetable` of drives and stays;
it routes a deferred trip (:func:`deferred_router`) only when it lays
the trip out, to the route an eager draw gives.  It states the rules
for departures, drives carried over from the previous window, and trips
left pending at the timetable's end.  The timetable answers the
engine's two questions about motion: which radio rows of a span of
ticks may be in a contact with a live end, and which pairs of them to
check (:meth:`Timetable.radio_pairs`, the join), and where a span of at
most so many rows ends (:meth:`Timetable.span_end`), read off the sorted
first and end ticks of its drives and stays.

:func:`advance` and :func:`position_of`, which move and place one
:class:`VehicleState` for one step, are the per-tick reference that
:func:`departure_tick`, :func:`odometer`, :func:`leg_segments` and
:func:`place_segments` match float for float; the engine itself never
calls them.
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import NamedTuple

import numpy as np

from vancast.roadnet import (
    MAX_FACTOR,
    RoadGraph,
    Route,
    _factor_route,
    float_text,
    main_road_route,
    shortest_path,
)

DAY_LEN = 86_400.0
ROUTING_POLICIES = ("random", "shortest", "main_road")


class ScheduleError(ValueError):
    """Raised when no destination satisfies the trip constraints."""


class Phase(Enum):
    PARKED = "parked"
    EN_ROUTE = "en_route"


@dataclass(frozen=True)
class Trip:
    depart_time: float  # seconds on the simulation clock
    route: Route


class DeferredTrip(NamedTuple):
    """A drawn trip not routed yet.  Under the random policy ``block`` and
    ``offset`` say where the trip's edge factors lie in the stream: the
    generator's 128-bit PCG64 state before its vehicle's read of raw
    words, and the offset of the trip's first factor word in that read
    (:func:`assign_trips`).  Other policies draw nothing: their ``block``
    is None."""

    depart_time: float
    src: int
    dst: int
    policy: str
    block: int | None
    offset: int = 0


@dataclass(frozen=True)
class TripSchedule:
    """One vehicle's trips for one day, sorted by departure: the routed
    ``trips``, then the ``deferred`` ones, routed when they are laid out
    (:func:`lay_out_day`)."""

    vehicle_id: int
    trips: tuple[Trip, ...]
    deferred: tuple[DeferredTrip, ...] = ()

    def __post_init__(self):
        departs = [t.depart_time for t in self.trips] + [d.depart_time for d in self.deferred]
        if departs != sorted(departs):
            raise ValueError("trips must be sorted by departure time")
        at = None  # where the previous trip ended
        for trip in self.trips:
            if at is not None and trip.route.src != at:
                raise self._unchained(trip.depart_time)
            at = trip.route.dst
        for trip in self.deferred:
            if at is not None and trip.src != at:
                raise self._unchained(trip.depart_time)
            at = trip.dst

    def _unchained(self, depart_time: float) -> ValueError:
        return ValueError(f"vehicle {self.vehicle_id}: trip starting at {depart_time:.0f}s "
                          f"does not start where the previous trip ended")


@dataclass
class VehicleState:
    """Mutable per-vehicle simulation state."""

    vehicle_id: int
    phase: Phase
    node: int  # current node when parked, route origin otherwise
    route: Route | None = None
    distance: float = 0.0  # meters travelled along the current route
    seg: int = 0  # index of the current route segment
    next_trip: int = 0  # index into the schedule's trip tuple


_HALF = (1 << 32) - 1
# numpy's uniform draw from [1, MAX_FACTOR): 1 + (MAX_FACTOR - 1) * (w >> 11) * 2**-53
# for a 64-bit word w.  Scaling by a power of two is exact, so folding it into
# the scale rounds the same.
_FACTOR_SCALE = (MAX_FACTOR - 1.0) * 2.0**-53


def _factors(words: np.ndarray) -> np.ndarray:
    """The values ``rng.uniform(1.0, MAX_FACTOR, size=len(words))`` makes
    from these raw PCG64 words (numpy's ``next_double`` is a word's top 53
    bits times 2**-53)."""
    factors = (words >> 11) * _FACTOR_SCALE
    factors += 1.0
    return factors


def assign_trips(
    g: RoadGraph,
    start_nodes: Sequence[int],
    mean_trips: float,
    max_trip_dist: float,
    rng: np.random.Generator,
    day_start: float = 0.0,
    policy: str = "random",
    main_road_fraction: float = 0.0,
    until: float = math.inf,
    drop_after: float = math.inf,
) -> list[TripSchedule]:
    """Draw one day of trips for every vehicle, vehicle v starting at
    ``start_nodes[v]``; the fleet is one vehicle per start node.

    Trip counts are Poisson(mean_trips); departures are uniform over
    [0, DAY_LEN), sorted, and put on the simulation clock by adding
    day_start; each trip's destination is a uniform pick from the
    nodes within road distance max_trip_dist of its origin.
    With main_road_fraction > 0, that share of vehicles (a Bernoulli
    draw per vehicle) routes every trip over the main roads; the rest
    use ``policy``.

    Only trips with ``depart_time <= until`` are routed, into each
    schedule's ``trips``.  A later trip is still drawn: it picks its
    destination, which is the next trip's origin, and under the random
    policy draws the edge factors its route would.  So the generator
    makes the same draws, and each schedule's ``trips`` is the prefix of
    the one that ``until = inf`` gives.  A later trip due by
    ``drop_after`` is kept in ``deferred`` as a :class:`DeferredTrip`,
    which :func:`deferred_router` routes to the route ``until = inf``
    gives; one due after ``drop_after`` is dropped.

    The draws are those of a per-trip loop of numpy calls, draw for draw:
    per vehicle ``rng.poisson``, ``rng.uniform`` for the departures and,
    with main_road_fraction > 0, ``rng.random()``; then per trip
    ``rng.integers(len(candidates))`` for the destination (no draw for a
    single candidate) and, under the random policy,
    ``rng.uniform(1.0, MAX_FACTOR, size=g.n_edges)`` for the route
    (:func:`vancast.roadnet.random_route`).  The per-trip draws of a
    vehicle are made from one read of raw 64-bit words, in stream order.
    A pick is numpy's Lemire draw (Lemire, ACM TOMACS 2019) on a 32-bit
    half: the low half of a fresh word, whose high half is kept for the
    next pick, or that kept half; a factor is one fresh word.  The kept
    half is tracked here and written back to rng at the end.  The read is
    sized for every pick drawing once; a rejected draw tops it up, and
    words a single-candidate pick left unread are given back.

    Raises ValueError, before any draw, for a start node outside the
    graph, a generator that is not PCG64 (as ``np.random.default_rng``
    makes) or a NaN until or drop_after.
    """
    if not len(start_nodes):
        raise ValueError("need at least one vehicle, got no start_nodes")
    for vid, node in enumerate(start_nodes):
        if not 0 <= node < g.n_nodes:
            raise ValueError(f"vehicle {vid}: start node {node} outside graph with "
                             f"{g.n_nodes} nodes")
    if mean_trips < 0:
        raise ValueError(f"mean_trips must be >= 0, got {mean_trips}")
    if not (0.0 <= main_road_fraction <= 1.0):
        raise ValueError(
            f"main_road_fraction must lie in [0, 1], got {main_road_fraction}"
        )
    if policy not in ROUTING_POLICIES:
        raise ValueError(f"unknown routing policy {policy!r}")
    if math.isnan(until) or math.isnan(drop_after):
        raise ValueError(f"until and drop_after must not be NaN, got {until} and {drop_after}")
    bits = rng.bit_generator
    if not isinstance(bits, np.random.PCG64):
        raise ValueError(f"assign_trips draws from PCG64's raw words, got a "
                         f"{type(bits).__name__} generator")
    n_edges = g.n_edges
    state = bits.state
    has_half, half = state["has_uint32"], state["uinteger"]  # the kept 32-bit half
    schedules = []
    try:
        for vid, origin in enumerate(start_nodes):
            n_trips = int(rng.poisson(mean_trips))
            departs = (np.sort(rng.uniform(0.0, DAY_LEN, size=n_trips)) + day_start).tolist()
            on_main = main_road_fraction > 0 and rng.random() < main_road_fraction
            trip_policy = "main_road" if on_main else policy
            n_routed = bisect.bisect_right(departs, until)
            n_kept = max(n_routed, bisect.bisect_right(departs, drop_after))
            per_trip = n_edges if trip_policy == "random" else 0
            block = None  # the state before the read, if a deferred trip resumes from it
            if per_trip and n_kept > n_routed:
                block = bits.state["state"]["state"]
            n_words = n_trips * per_trip + max(0, n_trips - has_half + 1) // 2
            words, at = bits.random_raw(n_words), 0  # the read, and its next word
            trips, deferred = [], []
            try:
                for i, depart_time in enumerate(departs):
                    candidates = g.nodes_within(origin, max_trip_dist)
                    if not candidates:
                        raise ScheduleError(f"no destination within "
                                            f"{float_text(max_trip_dist)} m of node {origin}")
                    n = len(candidates)
                    if n > 1:  # rng.integers(n): a 32-bit Lemire draw
                        floor = (1 << 32) % n
                        while True:
                            if has_half:
                                has_half, draw = 0, half
                            else:
                                if at == len(words):
                                    words = np.concatenate((words, bits.random_raw(1)))
                                word = int(words[at])
                                at += 1
                                has_half, draw, half = 1, word & _HALF, word >> 32
                            draw *= n
                            if draw & _HALF >= floor:
                                break
                        dst = candidates[draw >> 32]
                    else:
                        dst = candidates[0]
                    if per_trip:
                        if at + per_trip > len(words):
                            words = np.concatenate(
                                (words, bits.random_raw(at + per_trip - len(words))))
                        if i < n_routed:
                            trips.append(Trip(depart_time, _factor_route(
                                g, origin, dst, _factors(words[at:at + per_trip]))))
                        elif i < n_kept:
                            deferred.append(DeferredTrip(depart_time, origin, dst, trip_policy,
                                                         block, at))
                        at += per_trip
                    elif i < n_routed:
                        trips.append(Trip(depart_time,
                                          _route_for_policy(g, origin, dst, trip_policy)))
                    elif i < n_kept:
                        deferred.append(DeferredTrip(depart_time, origin, dst, trip_policy, None))
                    origin = dst
            finally:
                if at < len(words):  # unread: single-candidate picks, or after a refusal
                    bits.advance(at - len(words))
            schedules.append(TripSchedule(vid, tuple(trips), tuple(deferred)))
    finally:
        state = bits.state
        state["has_uint32"], state["uinteger"] = has_half, half
        bits.state = state
    return schedules


def _route_for_policy(g: RoadGraph, src: int, dst: int, policy: str) -> Route:
    """The route of the shortest or main_road policy, which draw nothing."""
    return (main_road_route if policy == "main_road" else shortest_path)(g, src, dst)


def deferred_router(g: RoadGraph, rng: np.random.Generator) -> Callable[[DeferredTrip], Route]:
    """A function that routes the deferred trips ``rng`` drew.  It reads
    rng for its increment but never draws from it: a random-policy trip's
    factors are raw words of one scratch PCG64 set to the trip's block state
    and advanced by its word offset, turned into factors and routed as
    :func:`assign_trips` does, so the trip gets the route it would have got
    had it been routed when it was drawn."""
    bits = np.random.PCG64(0)
    state = bits.state
    state["state"]["inc"] = rng.bit_generator.state["state"]["inc"]

    def route(trip: DeferredTrip) -> Route:
        if trip.block is None:
            return _route_for_policy(g, trip.src, trip.dst, trip.policy)
        state["state"]["state"] = trip.block
        bits.state = state
        bits.advance(trip.offset)
        return _factor_route(g, trip.src, trip.dst, _factors(bits.random_raw(g.n_edges)))

    return route


def advance(
    state: VehicleState,
    schedule: TripSchedule,
    now: float,
    dt: float,
    speed: float,
) -> None:
    """Move one vehicle forward by dt seconds (mutates state).

    At most one phase transition happens per step: a parked vehicle
    whose next departure falls inside (now, now + dt] starts driving
    (late departures start immediately), and a driving vehicle that
    covers the remaining route distance parks at the destination.  A
    vehicle never departs and arrives within the same step.
    """
    if state.phase is Phase.PARKED:
        if state.next_trip >= len(schedule.trips):
            return
        trip = schedule.trips[state.next_trip]
        if trip.depart_time > now + dt:
            return
        state.phase = Phase.EN_ROUTE
        state.route = trip.route
        state.node = trip.route.src
        state.distance = 0.0
        state.seg = 0
        state.next_trip += 1
        return

    route = state.route
    assert route is not None
    state.distance += speed * dt
    if state.distance >= route.total_length:
        state.phase = Phase.PARKED
        state.node = route.dst
        state.route = None
        state.distance = 0.0
        state.seg = 0
        return
    while route.cum_length[state.seg + 1] < state.distance:
        state.seg += 1


def position_of(state: VehicleState, g: RoadGraph) -> tuple[float, float] | None:
    """Planar position of a driving vehicle; None while parked."""
    if state.phase is Phase.PARKED:
        return None
    route = state.route
    assert route is not None
    seg = state.seg
    a = route.nodes[seg]
    b = route.nodes[seg + 1]
    seg_len = route.cum_length[seg + 1] - route.cum_length[seg]
    t = (state.distance - route.cum_length[seg]) / seg_len
    ax, ay = g.node_x[a], g.node_y[a]
    bx, by = g.node_x[b], g.node_y[b]
    return ax + (bx - ax) * t, ay + (by - ay) * t


def departure_tick(depart_time: float, dt: float, earliest: int) -> int:
    """First tick k >= earliest whose step departs a trip due at depart_time.

    The step at tick k departs every trip with depart_time <= k * dt + dt,
    the bound :func:`advance` tests; the bound is computed the same way and
    grows with k, so the search is exact.
    """
    k = max(earliest, math.ceil(depart_time / dt) - 1)
    while k > earliest and depart_time <= (k - 1) * dt + dt:
        k -= 1
    while depart_time > k * dt + dt:
        k += 1
    return k


def due_by(end: int, dt: float) -> float:
    """The latest departure time that a timetable ending at tick end can
    lay out: the step at tick k departs trips due by ``k * dt + dt``, a
    bound that grows with k (:func:`departure_tick`), so a trip due later
    departs at end or later."""
    return (end - 1) * dt + dt


def odometer(step_len: float, n: int) -> np.ndarray:
    """Distance driven 0, 1, ..., n - 1 steps after a departure.

    Entry j is the j-fold sequential sum ``distance += step_len`` that
    :func:`advance` makes, so every trip, starting at 0, reads its
    distances from this one table.
    """
    steps = np.full(n, step_len)
    steps[0] = 0.0
    return np.cumsum(steps)  # a running sum: left to right, one add each


def leg_segments(
    routes: list[Route],
    departs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    odo: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The route segments many drives are on, each with the ticks it is on it.

    Leg i drives ``routes[i]`` from a departure at tick ``departs[i]`` over
    ticks ``lo[i]`` to ``hi[i] - 1``, all before its arrival, at distance
    ``odo[tick - departs[i]]`` (see :func:`odometer`).  A leg is on the
    first segment with ``cum_length[seg + 1] >= distance``, as in
    :func:`advance`: from the step at which it is past the segment's
    first node (``odo > cum_length``; a route's first node from step 0)
    to the step at which it is past the next.  Returns, in leg order and
    then tick order, one entry per segment the legs are on in those
    ticks: the leg, the segment's first and end tick, its two nodes and
    their ``cum_length``.
    """
    paths = [r.nodes for r in routes]
    sizes = np.fromiter(map(len, paths), np.int64, len(routes))
    nodes = np.fromiter(chain.from_iterable(paths), np.int64, int(sizes.sum()))
    cum = np.fromiter(chain.from_iterable([r.cum_length for r in routes]), float, len(nodes))
    leg = np.repeat(np.arange(len(routes)), sizes)
    passed = np.searchsorted(odo, cum, side="right")
    start = np.cumsum(sizes) - sizes
    passed[start] = 0
    passed += departs[leg]  # the tick from which a leg is past each node
    # Segment f runs from flat node f to f + 1.  From a route's last node,
    # none runs: a leg's rows end by its arrival, before it is past that node.
    leg = leg[:-1]
    first = np.maximum(passed[:-1], lo[leg])
    end = np.minimum(passed[1:], hi[leg])
    f = np.flatnonzero(end > first)
    return leg[f], first[f], end[f], nodes[f], nodes[f + 1], cum[f], cum[f + 1]


def place_segments(
    g: RoadGraph,
    departs: np.ndarray,
    odo: np.ndarray,
    first: np.ndarray,
    end: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    cum_a: np.ndarray,
    cum_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ticks and planar positions of drives on segments, one row per tick:
    a drive that departed at tick ``departs[i]`` is on the segment from
    node ``a[i]`` to ``b[i]`` over ticks ``first[i]`` to ``end[i] - 1``,
    where ``cum_a[i]`` and ``cum_b[i]`` are the nodes' ``cum_length`` on its
    route; the point is :func:`position_of`'s interpolation."""
    counts = end - first
    n = int(counts.sum())
    ticks = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(n)
    steps = ticks - np.repeat(departs, counts)
    t = odo[steps] - np.repeat(cum_a, counts)
    del steps
    t /= np.repeat(cum_b - cum_a, counts)
    xs, ys = np.asarray(g.node_x), np.asarray(g.node_y)
    ax, ay = xs[a], ys[a]
    x = np.repeat(xs[b] - ax, counts)
    x *= t
    x += np.repeat(ax, counts)
    y = t  # t's buffer: per-row arrays set a run's peak memory
    y *= np.repeat(ys[b] - ay, counts)
    y += np.repeat(ay, counts)
    return ticks, x, y


def _join(near: tuple[np.ndarray, np.ndarray], places: np.ndarray, first: np.ndarray,
          end: np.ndarray, live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of the non-empty intervals of ticks ``first[i]`` to
    ``end[i] - 1`` (from 0) at place ``places[i]`` that overlap in time on near
    places (``near``, :meth:`vancast.roadnet.RoadGraph.near_places`) and
    have a live end (``live``, a bool per interval), each unordered pair
    once: i is live, and j is not live or comes after i.

    The intervals are sorted by place and first tick.  A live interval
    searches, on each place near its own, the intervals that start before
    it ends but not so early that even the place's longest interval would
    end by its first tick; those that do end by then are dropped.  Live
    intervals are expanded against their candidates a block at a time,
    each block holding at most as many candidates as the intervals have
    ticks (or one search's), so the candidates in hand stay within the
    size of the rows they stand for.
    """
    start, near = near
    size = int((end - first).sum())
    width = int(end.max()) + 1  # a place's key range: no tick reaches it
    key = places * width + first
    order = np.argsort(key)
    key = key[order]
    longest = np.zeros(len(start) - 1, dtype=np.int64)
    np.maximum.at(longest, places, end - first)
    own = np.flatnonzero(live)
    counts = start[places[own] + 1] - start[places[own]]
    src = np.repeat(own, counts)  # one search per live interval and place near its own
    q = near[np.repeat(start[places[own]] - (np.cumsum(counts) - counts), counts)
             + np.arange(len(src))]
    lo = np.searchsorted(key, q * width + np.maximum(first[src] - longest[q] + 1, 0))
    counts = np.searchsorted(key, q * width + end[src]) - lo
    del q
    cum = np.cumsum(counts)
    found_i, found_j = [], []
    a = 0
    while a < len(src):
        b = max(a + 1, int(np.searchsorted(cum, (cum[a - 1] if a else 0) + size, side="right")))
        k = counts[a:b]
        i = np.repeat(src[a:b], k)
        j = order[np.repeat(lo[a:b] - (np.cumsum(k) - k), k) + np.arange(len(i))]
        keep = end[j] > first[i]
        keep &= ~live[j] | (i < j)
        found_i.append(i[keep])
        found_j.append(j[keep])
        a = b
    return np.concatenate(found_i), np.concatenate(found_j)


@dataclass(eq=False)
class Timetable:
    """A window's motion as tick numbers, from tick ``start`` to ``end - 1``.

    ``drives`` holds (vehicle, departure tick, arrival tick) rows, driving
    ``routes`` in the same order, and ``stays`` (vehicle, node, first
    tick, end tick) rows, kept only where parked vehicles are on the
    radio; ``odo`` is the distance driven each tick after a departure
    (:func:`odometer`).  ``rest`` is where each vehicle rests after its
    last drive: the next window's start.  ``pending[v]`` holds vehicle v's
    trips of the day not laid out yet, in order: a :class:`Trip` pushed
    past the end by a late arrival, then the rest, routed or deferred.
    Each drive and each stay yields one
    radio row a tick.  ``on_air`` holds their first ticks and their end
    ticks, clipped to the timetable and each sorted, then the prefix sums
    of each: worked out once where the timetable is built, 8 bytes an
    entry, so it grows with the drives and stays, not with the ticks.
    :meth:`rows_before` reads the rows yielded by any span of ticks off it.
    """

    rest: tuple[int, ...]
    drives: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))
    routes: list[Route] = field(default_factory=list)
    stays: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), dtype=np.int64))
    odo: np.ndarray = field(default_factory=lambda: np.zeros(0))
    start: int = 0
    end: int = 0
    pending: list[tuple[Trip | DeferredTrip, ...]] = field(default_factory=list, repr=False)
    on_air: tuple[array, ...] = field(init=False, repr=False)

    def __post_init__(self):
        ticks = np.concatenate((self.drives[:, 1:], self.stays[:, 2:])).T.astype(np.int64)
        ticks.clip(self.start, self.end, out=ticks).sort()
        sums = np.zeros((2, ticks.shape[1] + 1), dtype=np.int64)
        ticks.cumsum(axis=1, out=sums[:, 1:])
        self.on_air = tuple(array("q", row.tobytes()) for row in (*ticks, *sums))

    def rows_before(self, t: int) -> int:
        """The radio rows yielded by ticks start to t - 1, for t from start
        to end: a drive or stay on the air from tick f up to tick e adds
        t - f if f < t, less t - e if e < t."""
        first, last, first_sums, last_sums = self.on_air
        i, j = bisect.bisect_left(first, t), bisect.bisect_left(last, t)
        return t * i - first_sums[i] - (t * j - last_sums[j])

    def _within(self, t0: int, t1: int) -> None:
        if not self.start <= t0 <= t1 <= self.end:
            raise ValueError(f"ticks {t0} to {t1 - 1} lie outside the timetable, which runs "
                             f"from tick {self.start} to its end at tick {self.end}")

    def _place(self, g: RoadGraph, segments: list[np.ndarray], stays: list[np.ndarray]
               ) -> np.ndarray:
        """The radio rows of these segments and stays (see :meth:`radio_pairs`),
        segments first, each interval's ticks in order."""
        dep, drive_vids, *segments = segments
        ticks, x, y = place_segments(g, dep, self.odo, *segments)
        n_drive = len(ticks)
        stay_vids, nodes, first, end = stays
        counts = end - first
        rows = np.empty((n_drive + int(counts.sum()), 4))
        rows[:n_drive, 0], rows[:n_drive, 2], rows[:n_drive, 3] = ticks, x, y
        del ticks, x, y
        rows[:n_drive, 1] = np.repeat(drive_vids, segments[1] - segments[0])
        at = np.repeat(nodes, counts)
        rows[n_drive:, 0] = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(
            len(at))
        rows[n_drive:, 1] = np.repeat(stay_vids, counts)
        rows[n_drive:, 2] = np.asarray(g.node_x)[at]
        rows[n_drive:, 3] = np.asarray(g.node_y)[at]
        return rows

    def radio_pairs(self, g: RoadGraph, t0: int, t1: int, live: np.ndarray, comm_range: float,
                    every: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """The radio rows of ticks t0 to t1 - 1 that may be in a contact with a
        live end, and the pairs of rows to check, for
        :func:`vancast.engine.detect_contacts`: the engine's one contact search.

        Each drive yields one radio row a tick, from its departure tick up to
        the tick before its arrival, and each stay one a tick at its node.  If
        no vehicle live in the per-vehicle bool mask ``live`` has a row in
        the span, nothing is placed or joined.  Otherwise the span's drives
        are cut into the route segments they are on (:func:`leg_segments`),
        and each segment or stay is an interval of ticks at a place: the
        segment's edge (:meth:`vancast.roadnet.RoadGraph.edges_between`) or
        the stay's node.  Every interval of a live vehicle (every interval,
        with ``every``: a shared link's degrees count contacts between two
        full stores too) is joined with every interval of another vehicle
        that lies on a near place (:meth:`vancast.roadnet.RoadGraph.near_places`)
        and overlaps it in time, each unordered pair once (:func:`_join`).
        Two points within comm_range lie on near places, so the pairs hold
        every contact with a live end.  An interval in some pair is placed,
        by :func:`place_segments` at :func:`odometer` distances, over the
        ticks from its first overlap with a partner to its last; the others
        are not placed at all.

        Returns the rows, as (tick, vehicle, x, y), segments first, each
        interval's ticks in order, and an int array of shape (2, m): the two
        rows of each joined pair at each tick they have in common, each
        (tick, vehicle pair) once.  Raises ValueError unless ``start <= t0 <=
        t1 <= end`` (the timetable knows no other ticks), and a ValueError
        naming ``live`` unless it is a 1-D bool array indexed by every
        vehicle of the timetable's span.
        """
        self._within(t0, t1)
        live = np.asarray(live)
        if live.ndim != 1 or live.dtype != bool:
            raise ValueError(f"live must be a 1-D bool array, got {live.dtype} of shape "
                             f"{live.shape}")
        vids, dep, arrive = self.drives.T
        on = np.flatnonzero(np.maximum(dep, t0) < np.minimum(arrive, t1))
        stay_vids, nodes, first, end = self.stays.T
        first, end = np.maximum(first, t0), np.minimum(end, t1)
        parked = end > first
        vid = np.concatenate((vids[on], stay_vids[parked]))
        if len(vid) and not (0 <= vid.min() and vid.max() < len(live)):
            raise ValueError(f"live covers vehicles 0 to {len(live) - 1}, but the span "
                             f"holds vehicles {vid.min()} to {vid.max()}")
        if not live[vid].any():
            return np.zeros((0, 4)), np.zeros((2, 0), dtype=np.int64)
        dep = dep[on]
        leg, *segments = leg_segments([self.routes[i] for i in on.tolist()], dep,
                                      np.maximum(dep, t0), np.minimum(arrive[on], t1), self.odo)
        segments = [dep[leg], vids[on][leg], *segments]
        stays = [stay_vids[parked], nodes[parked], first[parked], end[parked]]
        n_seg = len(leg)
        first = np.concatenate((segments[2], stays[2])) - t0
        end = np.concatenate((segments[3], stays[3])) - t0
        is_live = (np.ones(len(first), dtype=bool) if every else
                   live[np.concatenate((segments[1], stays[0]))])
        i, j = _join(g.near_places(comm_range),
                     np.concatenate((g.edges_between(*segments[4:6]), g.n_edges + stays[1])),
                     first, end, is_live)
        lo, hi = np.maximum(first[i], first[j]), np.minimum(end[i], end[j])
        # Each interval is placed from its first tick in common with a partner to its last.
        ends = np.concatenate((i, j))
        first_used = np.full(len(first), t1 - t0)
        np.minimum.at(first_used, ends, np.concatenate((lo, lo)))
        end_used = np.zeros(len(first), dtype=np.int64)
        np.maximum.at(end_used, ends, np.concatenate((hi, hi)))
        del ends
        counts = np.maximum(end_used - first_used, 0)
        row_at = np.cumsum(counts) - counts - first_used  # an interval's row at tick t0 + t
        kept = counts > 0
        segments[2:4] = first_used[:n_seg] + t0, end_used[:n_seg] + t0
        stays[2:4] = first_used[n_seg:] + t0, end_used[n_seg:] + t0
        rows = self._place(g, [a[kept[:n_seg]] for a in segments],
                           [a[kept[n_seg:]] for a in stays])
        counts = hi - lo
        lo -= np.cumsum(counts) - counts  # so that row_at + lo + the pair-tick's index is its row
        step = np.arange(int(counts.sum()))
        pairs = np.empty((2, len(step)), dtype=np.int64)
        pairs[0] = np.repeat(row_at[i] + lo, counts)
        pairs[0] += step
        pairs[1] = np.repeat(row_at[j] + lo, counts)
        pairs[1] += step
        return rows, pairs

    def span_end(self, t0: int, budget: int) -> int:
        """The last tick t, up to ``end``, such that ticks t0 to t - 1 yield
        at most budget radio rows, or t0 + 1 if tick t0 alone yields more.
        Raises ValueError unless t0 is one of the ticks start to end - 1."""
        self._within(t0, t0 + 1)
        cap = self.rows_before(t0) + budget
        ticks = range(t0, self.end + 1)
        return max(t0 + 1, t0 + bisect.bisect_right(ticks, cap, key=self.rows_before) - 1)


def _odometer_to(step_len: float, length: float, most: float) -> np.ndarray:
    """The :func:`odometer` that reaches ``length``, or ``most`` entries."""
    odo = odometer(step_len, min(int(length / step_len) + 2, most))
    while odo[-1] < length and len(odo) < most:  # a running sum may fall short
        odo = odometer(step_len, min(2 * len(odo), most))
    return odo


def lay_out_day(
    prev: Timetable,
    schedules: list[TripSchedule] | None,
    start: int,
    end: int,
    dt: float,
    speed: float,
    parked: bool,
    horizon: int | None = None,
    route: Callable[[DeferredTrip], Route] | None = None,
) -> Timetable:
    """The timetable of ticks start to end - 1 that follows ``prev``: a
    whole day, or one window of it.

    Vehicle v starts the window at ``prev.rest[v]``, and lays out the
    trips of ``schedules[v]``, which must be drawn from there, or, with
    no schedules, the trips ``prev`` left pending.  Each vehicle's trips
    chain from its last arrival, prev_arrive (start - 1 for a vehicle
    parked at start): a trip departs at ``departure_tick(depart_time, dt,
    max(start, prev_arrive + 1))`` and arrives ``bisect_left(odo,
    total_length)`` ticks later.  A deferred trip is routed by ``route``
    when it is laid out, and only then.  A drive of ``prev`` that arrives
    at start or later is still on the road, so it is carried over and the
    vehicle's trips wait for its arrival.  A trip that would leave at or
    after end is not laid out, nor are the vehicle's later ones: they are
    left ``pending``, for the next window to lay out or a new day to drop.
    Stays are kept only if ``parked``.  ``prev`` is left as it was.

    ``horizon`` is the run's end tick, if known: no tick from it on is
    ever read, so the odometer stops there, and a drive whose arrival lies
    past it arrives, in the table, at its last tick or later.
    """
    carried = np.flatnonzero(prev.drives[:, 2] >= start)
    routes = [prev.routes[i] for i in carried.tolist()]
    drives = prev.drives[carried].ravel().tolist()
    arrived = dict(zip(drives[::3], drives[2::3]))  # vehicle -> carried arrival tick

    step_len = speed * dt
    # A drive reads its distances up to the tick before the horizon at
    # most, and none departs before start or a carried departure.
    most = math.inf if horizon is None else max(2, horizon - min([start, *drives[1::3]]))
    odo = _odometer_to(step_len, max([r.total_length for r in routes], default=0.0), most)
    odo_list = odo.tolist()

    queues = prev.pending if schedules is None else [s.trips + s.deferred for s in schedules]
    last_due = due_by(end, dt)
    rest = list(prev.rest)
    stays: list[int] = []
    pending = []
    for vid, queue in enumerate(queues):
        arrive = arrived.get(vid, start - 1)
        n = 0
        for trip in queue:
            if trip.depart_time > last_due:
                break
            dep = departure_tick(trip.depart_time, dt, max(start, arrive + 1))
            if dep >= end:
                break
            if parked:
                stays += (vid, rest[vid], max(start, arrive), dep)
            path = route(trip) if isinstance(trip, DeferredTrip) else trip.route
            if path.total_length > odo_list[-1] and len(odo_list) < most:
                odo = _odometer_to(step_len, path.total_length, most)
                odo_list = odo.tolist()
            arrive = dep + bisect.bisect_left(odo_list, path.total_length)
            drives += (vid, dep, arrive)
            routes.append(path)
            rest[vid] = path.dst
            n += 1
        pending.append(queue[n:])
        if parked:
            stays += (vid, rest[vid], max(start, arrive), end)
    stay_rows = np.array(stays, dtype=np.int64).reshape(-1, 4)
    return Timetable(tuple(rest), np.array(drives, dtype=np.int64).reshape(-1, 3), routes,
                     stay_rows[stay_rows[:, 3] > stay_rows[:, 2]], odo, start, end, pending)
