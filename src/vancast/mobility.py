"""Trip schedules and vehicle motion.

Each vehicle gets a one-day schedule: a Poisson-distributed number of
trips at uniformly random times from the node it starts the day at
(its home on day 0, drawn by the engine), chained so every trip starts
where the previous one ended.  Between trips the vehicle is parked and
(by default) invisible to the radio layer.  Motion along a route is
piecewise linear at a single constant speed.

The engine lays out each day's drives once, as a timetable of tick
numbers, with :func:`departure_tick` and :func:`odometer`, and places
vehicles on them with :func:`trace_legs`.  :func:`advance` and
:func:`position_of`, which move and place one :class:`VehicleState`
for one step, are the per-tick reference those functions match float
for float; the engine itself never calls them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from vancast.roadnet import (
    RoadGraph,
    Route,
    float_text,
    main_road_route,
    random_route,
    route_factors,
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


@dataclass(frozen=True)
class TripSchedule:
    """All trips of one vehicle for one day, sorted by departure."""

    vehicle_id: int
    trips: tuple[Trip, ...]

    def __post_init__(self):
        departs = [t.depart_time for t in self.trips]
        if departs != sorted(departs):
            raise ValueError("trips must be sorted by departure time")
        for prev, nxt in zip(self.trips, self.trips[1:]):
            if prev.route.dst != nxt.route.src:
                raise ValueError(
                    f"vehicle {self.vehicle_id}: trip starting at "
                    f"{nxt.depart_time:.0f}s does not start where the "
                    f"previous trip ended"
                )


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


def _pick_destination(
    g: RoadGraph, origin: int, max_trip_dist: float, rng: np.random.Generator
) -> int:
    """Uniform choice among nodes within (0, max_trip_dist] of origin."""
    candidates = g.nodes_within(origin, max_trip_dist)
    if not candidates:
        raise ScheduleError(
            f"no destination within {float_text(max_trip_dist)} m of node {origin}"
        )
    return candidates[int(rng.integers(len(candidates)))]


def _route_for_policy(
    g: RoadGraph, src: int, dst: int, policy: str, rng: np.random.Generator
) -> Route:
    if policy == "shortest":
        return shortest_path(g, src, dst)
    if policy == "random":
        return random_route(g, src, dst, rng)
    return main_road_route(g, src, dst)


def assign_trips(
    g: RoadGraph,
    start_nodes: list[int],
    mean_trips: float,
    max_trip_dist: float,
    rng: np.random.Generator,
    day_start: float = 0.0,
    policy: str = "random",
    main_road_fraction: float = 0.0,
    until: float = math.inf,
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

    Only trips with ``depart_time <= until`` are routed and scheduled.
    A later trip is still drawn: it picks its destination, which is the
    next trip's origin, and under the random policy draws the edge
    factors its route would (:func:`route_factors`).  So the generator
    makes the same draws, and each schedule is the prefix of the one
    that ``until = inf`` gives.
    """
    if not len(start_nodes):
        raise ValueError("need at least one vehicle, got no start_nodes")
    if mean_trips < 0:
        raise ValueError(f"mean_trips must be >= 0, got {mean_trips}")
    if not (0.0 <= main_road_fraction <= 1.0):
        raise ValueError(
            f"main_road_fraction must lie in [0, 1], got {main_road_fraction}"
        )
    if policy not in ROUTING_POLICIES:
        raise ValueError(f"unknown routing policy {policy!r}")
    schedules = []
    for vid, origin in enumerate(start_nodes):
        n_trips = int(rng.poisson(mean_trips))
        departs = np.sort(rng.uniform(0.0, DAY_LEN, size=n_trips))
        on_main = main_road_fraction > 0 and rng.random() < main_road_fraction
        trip_policy = "main_road" if on_main else policy
        trips = []
        for depart in departs:
            depart_time = float(depart) + day_start
            dst = _pick_destination(g, origin, max_trip_dist, rng)
            if depart_time <= until:
                trips.append(Trip(depart_time, _route_for_policy(g, origin, dst, trip_policy,
                                                                 rng)))
            elif trip_policy == "random":
                route_factors(g, origin, dst, rng)
            origin = dst
        schedules.append(TripSchedule(vid, tuple(trips)))
    return schedules


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


def odometer(step_len: float, n: int) -> np.ndarray:
    """Distance driven 0, 1, ..., n - 1 steps after a departure.

    Entry j is the j-fold sequential sum ``distance += step_len`` that
    :func:`advance` makes, so every trip, starting at 0, reads its
    distances from this one table.
    """
    steps = np.full(n, step_len)
    steps[0] = 0.0
    return np.cumsum(steps)  # a running sum: left to right, one add each


def trace_legs(
    g: RoadGraph,
    routes: list[Route],
    departs: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    odo: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ticks and planar positions of many drives, one row per tick.

    Leg i drives ``routes[i]`` from a departure at tick ``departs[i]``; its
    rows cover ticks ``lo[i]`` to ``hi[i] - 1``, all before its arrival, at
    distance ``odo[tick - departs[i]]`` (see :func:`odometer`).  The segment
    is the first with ``cum_length[seg + 1] >= distance``, as in
    :func:`advance`, and the point is :func:`position_of`'s interpolation.
    """
    counts = hi - lo
    leg = np.repeat(np.arange(len(routes)), counts)
    ticks = np.repeat(lo - (np.cumsum(counts) - counts), counts) + np.arange(len(leg))
    steps = ticks - departs[leg]

    sizes = np.fromiter((len(r.nodes) for r in routes), np.int64, len(routes))
    nodes = np.fromiter((v for r in routes for v in r.nodes), np.int64, int(sizes.sum()))
    cum = np.fromiter((c for r in routes for c in r.cum_length), float, len(nodes))
    start = np.cumsum(sizes) - sizes
    # Step count from which a leg is past each of its route's nodes
    # (odo > cum_length); a route's first node counts from step 0.
    passed = np.searchsorted(odo, cum, side="right")
    passed[start] = 0
    # One sorted integer key per (leg, node) and per (leg, row): the
    # number of keys at or below a row's key, less one, indexes the
    # row's segment start in the flat route arrays.
    width = len(odo) + 1
    keys = np.repeat(np.arange(len(routes)), sizes) * width + passed
    # Per-row arrays are reused or dropped early to keep peak memory low.
    leg *= width
    leg += steps
    base = np.searchsorted(keys, leg, side="right") - 1
    del leg

    t = (odo[steps] - cum[base]) / (cum[base + 1] - cum[base])
    del steps
    a, b = nodes[base], nodes[base + 1]
    del base
    xs = np.asarray(g.node_x)
    ys = np.asarray(g.node_y)
    ax, ay = xs[a], ys[a]
    return ticks, ax + (xs[b] - ax) * t, ay + (ys[b] - ay) * t
