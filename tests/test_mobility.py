"""Trip schedule and motion tests."""

import math

import numpy as np
import pytest
from reference import radio_rows

from vancast.mobility import (
    DAY_LEN,
    DeferredTrip,
    Phase,
    ScheduleError,
    Timetable,
    Trip,
    TripSchedule,
    VehicleState,
    advance,
    assign_trips,
    deferred_router,
    departure_tick,
    lay_out_day,
    leg_segments,
    odometer,
    place_segments,
    position_of,
)
from vancast.roadnet import (
    MAX_FACTOR,
    generate_manhattan_grid,
    main_road_route,
    random_route,
    shortest_path,
)


def make_grid(rows=5, cols=5, block=100.0, main_cols=None):
    return generate_manhattan_grid(rows, cols, block, main_cols)


def homes(g, n, rng):
    """n start nodes drawn uniformly from g's nodes."""
    return rng.integers(g.n_nodes, size=n).tolist()


def reference_assign_trips(g, start_nodes, mean_trips, max_trip_dist, rng, day_start=0.0,
                           policy="random", main_road_fraction=0.0, until=math.inf,
                           drop_after=math.inf):
    """assign_trips as a per-trip loop of numpy calls: one rng.integers
    per destination pick, one rng.uniform per random route's factors.
    Returns per vehicle its routed trips and, as Trips, its deferred ones
    with the routes they are due; rng ends where assign_trips leaves it."""
    schedules = []
    for origin in start_nodes:
        n_trips = int(rng.poisson(mean_trips))
        departs = np.sort(rng.uniform(0.0, DAY_LEN, size=n_trips))
        on_main = main_road_fraction > 0 and rng.random() < main_road_fraction
        trip_policy = "main_road" if on_main else policy
        trips, deferred = [], []
        for depart in departs:
            depart_time = float(depart) + day_start
            candidates = g.nodes_within(origin, max_trip_dist)
            if not candidates:
                raise ScheduleError(f"no destination within {max_trip_dist:g} m of node {origin}")
            dst = candidates[int(rng.integers(len(candidates)))]
            if depart_time <= until or depart_time <= drop_after:
                if trip_policy == "random":
                    route = random_route(g, origin, dst, rng)
                elif trip_policy == "main_road":
                    route = main_road_route(g, origin, dst)
                else:
                    route = shortest_path(g, origin, dst)
                (trips if depart_time <= until else deferred).append(Trip(depart_time, route))
            elif trip_policy == "random":
                rng.uniform(1.0, MAX_FACTOR, size=g.n_edges)
            origin = dst
        schedules.append((tuple(trips), tuple(deferred)))
    return schedules


def pcg64_emitting(word, before, inc, hi):
    """A PCG64 state whose (before + 1)-th raw word is ``word``.  PCG64
    steps, then emits the xor of its state's 64-bit halves rotated right by
    the state's top 6 bits; with hi, the high half, below 2**58 there is no
    rotation, so the state with low half ``hi ^ word`` emits word.  That
    state is then stepped back before + 1 times."""
    assert hi < 2**58
    bits = np.random.PCG64(0)
    state = bits.state
    state["state"] = {"state": hi << 64 | (hi ^ word), "inc": inc}
    bits.state = state
    bits.advance(-(before + 1))
    return bits.state


# --- schedule generation ------------------------------------------------------


def test_trip_count_matches_poisson_mean():
    g = make_grid(4, 4)
    rng = np.random.default_rng(1001)
    schedules = assign_trips(g, homes(g, 10_000, rng), 3.0, 5_000.0, rng)
    mean = sum(len(s.trips) for s in schedules) / len(schedules)
    assert 2.9 <= mean <= 3.1


def test_trips_sorted_and_chained():
    g = make_grid()
    rng = np.random.default_rng(7)
    for sched in assign_trips(g, homes(g, 200, rng), 4.0, 2_000.0, rng):
        departs = [t.depart_time for t in sched.trips]
        assert departs == sorted(departs)
        assert all(0.0 <= d < DAY_LEN for d in departs)
        for prev, nxt in zip(sched.trips, sched.trips[1:]):
            assert prev.route.dst == nxt.route.src
        for t in sched.trips:
            assert t.route.src != t.route.dst


def test_destinations_respect_distance_cap():
    g = make_grid(6, 6, 100.0)
    rng = np.random.default_rng(12)
    cap = 250.0
    for sched in assign_trips(g, homes(g, 300, rng), 3.0, cap, rng):
        for t in sched.trips:
            short = shortest_path(g, t.route.src, t.route.dst).total_length
            assert 0.0 < short <= cap


def test_start_nodes_are_respected():
    g = make_grid()
    rng = np.random.default_rng(5)
    starts = [int(rng.integers(g.n_nodes)) for _ in range(50)]
    schedules = assign_trips(g, starts, 5.0, 2_000.0, rng)
    assert [s.vehicle_id for s in schedules] == list(range(50))
    for vid, sched in enumerate(schedules):
        if sched.trips:
            assert sched.trips[0].route.src == starts[vid]


def test_shortest_policy_routes_are_shortest():
    g = make_grid()
    rng = np.random.default_rng(3)
    for sched in assign_trips(g, homes(g, 60, rng), 2.0, 1_500.0, rng, policy="shortest"):
        for t in sched.trips:
            assert t.route.nodes == shortest_path(g, t.route.src, t.route.dst).nodes


def test_main_road_fraction_one_forces_arterial_routing():
    g = make_grid(6, 6, 100.0, main_cols=[3])
    rng = np.random.default_rng(21)
    schedules = assign_trips(
        g, homes(g, 40, rng), 3.0, 2_000.0, rng, policy="random", main_road_fraction=1.0
    )
    for sched in schedules:
        for t in sched.trips:
            expect = main_road_route(g, t.route.src, t.route.dst)
            assert t.route.nodes == expect.nodes


def test_main_road_fraction_splits_population():
    g = make_grid(6, 6, 100.0, main_cols=[3])
    rng = np.random.default_rng(22)
    schedules = assign_trips(
        g, homes(g, 400, rng), 2.0, 2_000.0, rng, policy="shortest", main_road_fraction=0.5
    )
    on_main = 0
    counted = 0
    for sched in schedules:
        if not sched.trips:
            continue
        counted += 1
        t = sched.trips[0]
        if t.route.nodes == main_road_route(g, t.route.src, t.route.dst).nodes:
            on_main += 1
    assert 0.3 < on_main / counted < 0.7


def test_no_reachable_destination_is_an_error():
    g = make_grid(3, 3, 100.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ScheduleError) as err:
        assign_trips(g, homes(g, 10, rng), 3.0, 50.0, rng)  # cap below one block
    assert "node" in str(err.value)
    with pytest.raises(ScheduleError, match=r"within 99\.9999999 m of node"):
        assign_trips(g, homes(g, 10, rng), 3.0, 99.9999999, rng)  # :g would print 100, one block


def test_assign_trips_argument_validation():
    g = make_grid()
    rng = np.random.default_rng(0)
    starts = [0, 1, 2, 3, 4]
    with pytest.raises(ValueError, match="need at least one vehicle, got no start_nodes"):
        assign_trips(g, [], 3.0, 1000.0, rng)
    with pytest.raises(ValueError):
        assign_trips(g, starts, -1.0, 1000.0, rng)
    with pytest.raises(ValueError):
        assign_trips(g, starts, 3.0, 1000.0, rng, main_road_fraction=1.5)
    # refused before any draw, whether or not a trip is routed
    for until in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="unknown routing policy 'fastest'"):
            assign_trips(g, starts, 3.0, 1000.0, rng, policy="fastest", until=until)
    with pytest.raises(ValueError, match="vehicle 1: start node 99 outside graph with 25 nodes"):
        assign_trips(g, [3, 99], 5.0, 1000.0, rng)
    with pytest.raises(ValueError, match="vehicle 0: start node -1 outside"):
        assign_trips(g, [-1], 5.0, 1000.0, rng)
    for until, drop_after in ((math.nan, math.inf), (5.0, math.nan)):
        with pytest.raises(ValueError, match="must not be NaN"):
            assign_trips(g, starts, 5.0, 1000.0, rng, until=until, drop_after=drop_after)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state
    mt = np.random.Generator(np.random.MT19937(1))
    key = mt.bit_generator.state["state"]["key"].copy()
    with pytest.raises(ValueError, match="PCG64's raw words, got a MT19937 generator"):
        assign_trips(g, starts, 5.0, 1000.0, mt, until=1000.0)
    assert np.array_equal(mt.bit_generator.state["state"]["key"], key)


def test_a_deferred_trip_gets_the_route_an_eager_draw_gives():
    """Drawn with none routed (until = -inf), each trip is routed later
    from its saved block and offset to the route the eager draw gave it,
    node for node; the generator ends where the eager draw leaves it, and
    routing draws nothing from it."""
    g = make_grid(5, 5, 100.0, [2])
    starts = homes(g, 30, np.random.default_rng(6))
    eager_rng, lazy_rng = np.random.default_rng(5), np.random.default_rng(5)
    eager = assign_trips(g, starts, 6.0, 400.0, eager_rng, main_road_fraction=0.3)
    lazy = assign_trips(g, starts, 6.0, 400.0, lazy_rng, main_road_fraction=0.3,
                        until=-math.inf)
    drawn = eager_rng.bit_generator.state
    assert lazy_rng.bit_generator.state == drawn
    route = deferred_router(g, lazy_rng)
    policies, offsets = set(), set()
    for e, lz in zip(eager, lazy):
        assert lz.trips == () and len(lz.deferred) == len(e.trips)
        for trip, d in zip(e.trips, lz.deferred):
            got = route(d)
            assert (got.nodes, got.edge_ids, got.cum_length) == (
                trip.route.nodes, trip.route.edge_ids, trip.route.cum_length)
            assert (d.depart_time, d.src, d.dst) == (trip.depart_time, got.src, got.dst)
            policies.add(d.policy)
            if d.block is not None:
                offsets.add(d.offset)
    assert policies == {"random", "main_road"}
    # offset 0: the first pick took the half a draw before it kept, so the
    # read starts with the factors; later trips sit further into the block
    assert {0, 1} <= offsets and max(offsets) > g.n_edges
    assert lazy_rng.bit_generator.state == drawn


def test_a_deferred_trip_resumed_after_later_draws_routes_as_an_eager_draw_does():
    """A deferred trip's block and offset stay valid whatever the generator
    draws after them: later vehicles' trips, other calls, a buffered half."""
    g = make_grid(4, 4, 100.0)
    starts = [0, 5, 10, 15]
    eager = assign_trips(g, starts, 5.0, 300.0, np.random.default_rng(9))
    rng = np.random.default_rng(9)
    lazy = assign_trips(g, starts, 5.0, 300.0, rng, until=-math.inf)
    rng.integers(10, size=7)
    rng.uniform(size=50)
    assert rng.bit_generator.state["has_uint32"] == 1
    route = deferred_router(g, rng)
    for e, lz in zip(eager, lazy):
        assert [Trip(d.depart_time, route(d)) for d in reversed(lz.deferred)] == list(
            reversed(e.trips))


def test_a_rejected_pick_draws_again_as_numpy_does():
    """A 32-bit draw of 0 is rejected by Lemire's method for a candidate
    count that is not a power of two.  A crafted raw word with a low half
    of 0 puts that draw in a vehicle's first pick, and a buffered half of
    0 puts it where the pick needs a fresh word after it, past the read;
    both match the per-trip reference on the same words."""
    g = make_grid(4, 4, 100.0)
    origin = 5
    n = len(g.nodes_within(origin, 250.0))
    assert n & (n - 1) and (1 << 32) % n  # a draw of 0 is rejected
    inc = np.random.default_rng(3).bit_generator.state["state"]["inc"]
    word = 0x9E3779B9 << 32  # the pick's 32-bit draws: 0, then this high half
    for hi in range(1, 100):  # the first with one trip: two poisson draws, a departure
        crafted = pcg64_emitting(word, 3, inc, hi)
        probe = np.random.Generator(np.random.PCG64(0))
        probe.bit_generator.state = crafted
        if probe.poisson(1.0) == 1:
            break
    probe.uniform()
    assert probe.bit_generator.random_raw(1)[0] == word
    cases = [crafted, dict(crafted, has_uint32=1, uinteger=0)]  # then a kept half of 0
    for state in cases:
        for policy in ("random", "shortest"):
            for until in (math.inf, -math.inf):
                rngs = [np.random.Generator(np.random.PCG64(0)) for _ in range(2)]
                for r in rngs:
                    r.bit_generator.state = state
                got = assign_trips(g, [origin, 0], 1.0, 250.0, rngs[0], policy=policy,
                                   until=until)
                ref = reference_assign_trips(g, [origin, 0], 1.0, 250.0, rngs[1],
                                             policy=policy, until=until)
                route = deferred_router(g, rngs[0])
                assert [(s.trips, tuple(Trip(d.depart_time, route(d)) for d in s.deferred))
                        for s in got] == ref
                assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_drop_after_keeps_only_the_deferred_trips_due_by_it():
    g = make_grid()
    starts = homes(g, 10, np.random.default_rng(1))
    kept = assign_trips(g, starts, 8.0, 400.0, np.random.default_rng(2), until=30_000.0)
    cut = assign_trips(g, starts, 8.0, 400.0, np.random.default_rng(2), until=30_000.0,
                       drop_after=60_000.0)
    assert [s.trips for s in cut] == [s.trips for s in kept]
    assert [s.deferred for s in cut] == [
        tuple(d for d in s.deferred if d.depart_time <= 60_000.0) for s in kept]
    assert sum(len(s.deferred) for s in cut) < sum(len(s.deferred) for s in kept)


def test_schedule_validation():
    g = make_grid()
    r01 = shortest_path(g, 0, 1)
    r12 = shortest_path(g, 1, 2)
    r34 = shortest_path(g, 3, 4)
    TripSchedule(0, (Trip(10.0, r01), Trip(50.0, r12)))
    with pytest.raises(ValueError):
        TripSchedule(0, (Trip(50.0, r01), Trip(10.0, r12)))  # unsorted
    with pytest.raises(ValueError):
        TripSchedule(0, (Trip(10.0, r01), Trip(50.0, r34)))  # broken chain
    # deferred trips follow the routed ones, in order and chained
    TripSchedule(0, (Trip(10.0, r01),), (DeferredTrip(50.0, 1, 2, "shortest", None),))
    with pytest.raises(ValueError, match="sorted"):
        TripSchedule(0, (Trip(50.0, r01),), (DeferredTrip(10.0, 1, 2, "shortest", None),))
    with pytest.raises(ValueError, match="trip starting at 50s does not start"):
        TripSchedule(0, (Trip(10.0, r01),), (DeferredTrip(50.0, 3, 4, "shortest", None),))
    with pytest.raises(ValueError, match="trip starting at 60s does not start"):
        TripSchedule(0, (), (DeferredTrip(50.0, 0, 1, "shortest", None),
                             DeferredTrip(60.0, 3, 4, "shortest", None)))


# --- motion -------------------------------------------------------------------


def drive_until(state, sched, t_end, dt, speed, g, trace=None):
    now = 0.0
    while now < t_end:
        advance(state, sched, now, dt, speed)
        now += dt
        if trace is not None:
            trace.append((now, state.phase, position_of(state, g)))
    return state


def test_single_trip_timeline():
    g = make_grid(3, 3, 100.0)
    route = shortest_path(g, 0, 2)  # 200 m straight east
    sched = TripSchedule(0, (Trip(5.0, route),))
    state = VehicleState(0, Phase.PARKED, 0)
    speed, dt = 10.0, 1.0

    # before departure: parked, invisible
    for now in range(4):
        advance(state, sched, float(now), dt, speed)
        assert state.phase is Phase.PARKED
        assert position_of(state, g) is None

    # the step covering t=5 boards the vehicle at its origin
    advance(state, sched, 4.0, dt, speed)
    assert state.phase is Phase.EN_ROUTE
    assert position_of(state, g) == (0.0, 0.0)

    # 10 m per step; after 5 more steps it is halfway down the first block
    for now in range(5, 10):
        advance(state, sched, float(now), dt, speed)
    assert position_of(state, g) == pytest.approx((50.0, 0.0))

    # 200 m take 20 driving steps; then it parks at the destination
    for now in range(10, 25):
        advance(state, sched, float(now), dt, speed)
    assert state.phase is Phase.PARKED
    assert state.node == 2
    assert position_of(state, g) is None


def test_departure_and_arrival_never_share_a_step():
    g = make_grid(3, 3, 100.0)
    sched = TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 1)),))
    state = VehicleState(0, Phase.PARKED, 0)
    advance(state, sched, 0.0, 1.0, 1_000.0)  # fast enough to cross instantly
    assert state.phase is Phase.EN_ROUTE  # still on board this step
    advance(state, sched, 1.0, 1.0, 1_000.0)
    assert state.phase is Phase.PARKED
    assert state.node == 1


def test_late_departure_fires_immediately():
    g = make_grid(3, 3, 100.0)
    sched = TripSchedule(0, (Trip(3.0, shortest_path(g, 0, 1)),))
    state = VehicleState(0, Phase.PARKED, 0)
    advance(state, sched, 100.0, 1.0, 10.0)
    assert state.phase is Phase.EN_ROUTE


def test_two_trip_chain_timeline():
    g = make_grid(3, 3, 100.0)
    sched = TripSchedule(
        0,
        (
            Trip(0.0, shortest_path(g, 0, 1)),
            Trip(30.0, shortest_path(g, 1, 2)),
        ),
    )
    state = VehicleState(0, Phase.PARKED, 0)
    trace = []
    drive_until(state, sched, 60.0, 1.0, 10.0, g, trace)
    phases = [p for _, p, _ in trace]
    # drive, park, drive again, park again
    assert phases[0] is Phase.EN_ROUTE
    assert Phase.PARKED in phases[5:20]
    assert any(p is Phase.EN_ROUTE for p in phases[30:])
    assert state.phase is Phase.PARKED
    assert state.node == 2


def test_position_interpolates_between_nodes():
    g = make_grid(3, 3, 100.0)
    route = shortest_path(g, 0, 2)
    state = VehicleState(0, Phase.EN_ROUTE, 0, route=route, distance=150.0, seg=0)
    while route.cum_length[state.seg + 1] < state.distance:
        state.seg += 1
    assert position_of(state, g) == pytest.approx((150.0, 0.0))


def test_distance_never_exceeds_route_length():
    g = make_grid(4, 4, 100.0)
    rng = np.random.default_rng(1)
    schedules = assign_trips(g, homes(g, 30, rng), 3.0, 1_000.0, rng)
    for sched in schedules:
        home = sched.trips[0].route.src if sched.trips else 0
        state = VehicleState(sched.vehicle_id, Phase.PARKED, home)
        now = 0.0
        for _ in range(2_000):
            advance(state, sched, now, 7.0, 13.9)
            now += 7.0
            if state.phase is Phase.EN_ROUTE:
                assert state.distance <= state.route.total_length
        assert state.phase is Phase.PARKED


def test_vehicles_with_no_trips_stay_parked():
    g = make_grid()
    sched = TripSchedule(3, ())
    state = VehicleState(3, Phase.PARKED, 17)
    for now in range(100):
        advance(state, sched, float(now), 1.0, 10.0)
    assert state.phase is Phase.PARKED
    assert state.node == 17


def test_daily_share_of_time_on_the_road():
    """Fleet-level occupancy: with ~3 trips of a few km per day, vehicles
    spend on the order of 1 to 2 percent of the day driving.  The band
    accepted here is intentionally wide; the point is catching unit bugs
    (seconds vs hours, meters vs km) that shift it by orders of magnitude."""
    g = generate_manhattan_grid(10, 10, 1_000.0)
    rng = np.random.default_rng(2)
    n = 400
    schedules = assign_trips(g, homes(g, n, rng), 3.0, 10_000.0, rng)
    states = [
        VehicleState(s.vehicle_id, Phase.PARKED, s.trips[0].route.src if s.trips else 0)
        for s in schedules
    ]
    dt, speed = 60.0, 13.9
    samples = 0
    driving = 0
    now = 0.0
    while now < DAY_LEN:
        for state, sched in zip(states, schedules):
            advance(state, sched, now, dt, speed)
            driving += state.phase is Phase.EN_ROUTE
        samples += n
        now += dt
    occupancy = driving / samples
    assert 0.01 <= occupancy <= 0.08


# --- whole drives at once -------------------------------------------------------


@pytest.mark.parametrize("dt", [1.0, 0.1, 0.3, 7.0, 60.0])
def test_departure_tick_is_the_first_step_that_departs(dt):
    rng = np.random.default_rng(int(dt * 10))
    times = np.concatenate([rng.uniform(0, 200 * dt, 300),
                            dt * rng.integers(0, 200, 100)])  # on the grid, too
    for depart_time in times.tolist():
        earliest = int(rng.integers(0, 150))
        k = earliest
        while depart_time > k * dt + dt:
            k += 1
        assert departure_tick(depart_time, dt, earliest) == k


def test_odometer_is_the_running_sum_advance_makes():
    for step_len in (13.9, 0.1 * 13.9, 1.3, 7.0 * 0.3):
        table = odometer(step_len, 5_000)
        d = 0.0
        for j in range(5_000):
            assert table[j] == d
            d += step_len


def test_trace_legs_match_advance_and_position_of():
    from vancast.roadnet import random_route

    g = make_grid(6, 6, 130.0)
    rng = np.random.default_rng(77)
    for dt, speed in ((1.0, 13.9), (0.1, 13.9), (3.0, 2.5)):
        odo = odometer(speed * dt, 3_000)
        routes, departs, lo, hi, expect = [], [], [], [], []
        for _ in range(40):
            src, dst = (int(v) for v in rng.choice(g.n_nodes, size=2, replace=False))
            route = random_route(g, src, dst, rng)
            dep = int(rng.integers(0, 500))
            sched = TripSchedule(0, (Trip(dep * dt, route),))
            state = VehicleState(0, Phase.PARKED, src)
            tick, rows = dep, []
            while True:  # the tick before the departing step's bound ends
                advance(state, sched, tick * dt, dt, speed)
                if state.phase is Phase.PARKED:
                    break
                rows.append((tick, *position_of(state, g)))
                tick += 1
            a = int(rng.integers(dep, tick))  # a random window of the drive
            b = int(rng.integers(a, tick + 1))
            routes.append(route)
            departs.append(dep)
            lo.append(a)
            hi.append(b)
            expect += rows[a - dep:b - dep]
        departs = np.array(departs)
        leg, *segments = leg_segments(routes, departs, np.array(lo), np.array(hi), odo)
        ticks, xs, ys = place_segments(g, departs[leg], odo, *segments)
        assert list(zip(ticks.tolist(), xs.tolist(), ys.tolist())) == expect


def timetable_fields(day):
    """Every field of a timetable, copied out as plain values."""
    return (day.rest, day.drives.tolist(), list(day.routes), day.stays.tolist(),
            day.odo.tolist(), day.start, day.end, [a.tolist() for a in day.on_air])


def test_lay_out_day_carries_a_drive_over_and_leaves_prev_as_it_was():
    g = make_grid(1, 3, 50.0)  # nodes 0, 1, 2 on a line, 50 m apart
    # ticks 0-7: vehicle 0 drives 100 m at 10 m/s, arriving on tick 10
    prev = lay_out_day(Timetable((0, 1)),
                       [TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 2)),)),
                        TripSchedule(1, ())], 0, 8, 1.0, 10.0, True)
    assert prev.rest == (2, 1)
    assert prev.drives.tolist() == [[0, 0, 10]]
    assert prev.stays.tolist() == [[1, 1, 0, 8]]
    before = timetable_fields(prev)
    # ticks 8-19: vehicle 0's trip due at 9 s waits for its arrival, and
    # vehicle 1 leaves on tick 8
    schedules = [TripSchedule(0, (Trip(9.0, shortest_path(g, 2, 1)),)),
                 TripSchedule(1, (Trip(8.5, shortest_path(g, 1, 0)),))]
    day = lay_out_day(prev, schedules, 8, 20, 1.0, 10.0, True)
    assert timetable_fields(prev) == before
    assert timetable_fields(day) == timetable_fields(
        lay_out_day(prev, schedules, 8, 20, 1.0, 10.0, True))
    assert day.rest == (1, 0)
    assert day.routes == [prev.routes[0]] + [t.route for s in schedules for t in s.trips]
    assert day.drives.tolist() == [[0, 0, 10], [0, 11, 16], [1, 8, 13]]
    assert day.stays.tolist() == [[0, 2, 10, 11], [0, 1, 16, 20], [1, 0, 13, 20]]
    # each vehicle drives or stays on the radio every tick: two rows a tick
    rows = radio_rows(day, g, 8, 20)
    assert np.bincount(rows[:, 0].astype(np.int64) - 8).tolist() == [2] * 12
    assert day.span_end(8, 5) == 10 and day.span_end(9, 10**9) == 20


def test_timetable_refuses_ticks_outside_it():
    g = make_grid(1, 2, 30.0)
    # ticks 0-9: vehicle 0 drives 30 m at 10 m/s on the air at ticks 2-4
    day = Timetable((1,), np.array([[0, 2, 5]]), [shortest_path(g, 0, 1)],
                    odo=odometer(10.0, 4), start=0, end=10)
    assert day.span_end(0, 2) == 4 and day.span_end(9, 2) == 10
    assert radio_rows(day, g, 0, 10)[:, 0].tolist() == [2, 3, 4]
    for t0 in (-1, 10):
        with pytest.raises(ValueError, match="timetable"):
            day.span_end(t0, 2)
    with pytest.raises(ValueError, match="timetable"):
        Timetable((0,)).span_end(0, 5)
    live = np.ones(1, dtype=bool)
    with pytest.raises(ValueError, match="timetable"):
        day.radio_pairs(g, 8, 12, live, 30.0)
    # ticks 8-19 follow a day whose drive carries over: ticks 3-7 are not theirs
    later = lay_out_day(Timetable((0,)), [TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 1)),))],
                        0, 8, 1.0, 1.0, False)
    later = lay_out_day(later, [TripSchedule(0, ())], 8, 20, 1.0, 1.0, False)
    assert later.drives.tolist() == [[0, 0, 30]]
    with pytest.raises(ValueError, match="timetable"):
        later.radio_pairs(g, 3, 8, live, 30.0)
    assert later.radio_pairs(g, 8, 8, live, 30.0)[0].shape == (0, 4)


def test_a_horizon_caps_the_odometer_and_changes_no_row_before_it():
    """At 0.5 m/s, two windows up to a horizon at tick 150: vehicle 0's
    100 m drive, from tick 0, would arrive at tick 200, so the odometer
    stops at the horizon and the drive arrives, in the table, no sooner
    than it; every row before the horizon is the uncapped table's."""
    g = make_grid(1, 3, 50.0)
    schedules = [TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 2)),
                                  Trip(5.0, shortest_path(g, 2, 1)))),
                 TripSchedule(1, (Trip(30.0, shortest_path(g, 1, 0)),))]
    layouts = []
    for horizon in (None, 150):
        first = lay_out_day(Timetable((0, 1)), schedules, 0, 100, 1.0, 0.5, True, horizon)
        second = lay_out_day(first, None, 100, 150, 1.0, 0.5, True, horizon)
        layouts.append((first, second))
    (full, full_next), (capped, capped_next) = layouts
    assert len(full.odo) > 200 and len(capped.odo) == 150 and len(capped_next.odo) == 150
    assert full.drives.tolist() == [[0, 0, 200], [1, 29, 129]]
    assert capped.drives.tolist() == [[0, 0, 150], [1, 29, 129]]
    assert capped_next.drives.tolist() == capped.drives.tolist()  # both carried over
    # vehicle 0's trip due at 5 s waits for the arrival, past both windows
    assert capped_next.pending == full_next.pending == [schedules[0].trips[1:], ()]
    for a, b in ((full, capped), (full_next, capped_next)):
        assert np.array_equal(radio_rows(a, g, a.start, a.end), radio_rows(b, g, b.start, b.end))
        assert a.stays.tolist() == b.stays.tolist()


def two_days(parked):
    """Two days of 40 busy vehicles at 1 m/s on 10 s ticks, as timetables;
    day 1 carries over drives still on the road at midnight."""
    g = make_grid(5, 5, 100.0)
    rng = np.random.default_rng(11)
    per_day = int(DAY_LEN / 10.0)
    days = [Timetable(tuple(homes(g, 40, rng)))]
    for d in range(2):
        schedules = assign_trips(g, days[-1].rest, 40.0, 800.0, rng, day_start=d * DAY_LEN,
                                 policy="shortest")
        days.append(lay_out_day(days[-1], schedules, d * per_day, (d + 1) * per_day, 10.0, 1.0,
                                parked))
    assert (days[2].drives[:, 1] < per_day).any()  # carried over midnight
    return g, days[1:]


@pytest.mark.parametrize("parked", [False, True])
def test_rows_are_the_prefix_sum_of_radio_rows_a_tick(parked):
    g, days = two_days(parked)
    for day in days:
        ticks = radio_rows(day, g, day.start, day.end)[:, 0].astype(np.int64) - day.start
        rows = [day.rows_before(t) for t in range(day.start, day.end + 1)]
        assert rows[0] == 0
        assert np.diff(rows).tolist() == np.bincount(ticks, minlength=day.end - day.start
                                                     ).tolist()


def test_row_counts_grow_with_drives_and_stays_not_ticks():
    g = make_grid(1, 3, 50.0)
    schedules = [TripSchedule(0, (Trip(600.0, shortest_path(g, 0, 2)),
                                  Trip(3600.0, shortest_path(g, 2, 1)))), TripSchedule(1, ())]
    sizes = []
    for dt in (1.0, 0.01):
        per_day = round(DAY_LEN / dt)
        day = lay_out_day(Timetable((0, 1)), schedules, 0, per_day, dt, 10.0, True)
        n = len(day.drives) + len(day.stays)
        assert n == 6  # vehicle 0: 2 drives and 3 stays; vehicle 1: 1 stay
        sizes.append(sum(memoryview(a).nbytes for a in day.on_air))
        assert sizes[-1] == 8 * (4 * n + 2)  # sorted ticks and their prefix sums
        # each vehicle drives or stays on the radio every tick: two rows a tick
        assert day.rows_before(per_day) == 2 * per_day
        assert day.span_end(0, 10**6) == min(per_day, 500_000)
    assert sizes[0] == sizes[1]


def test_lay_out_day_keeps_stays_only_for_parked_radios():
    g, off_air = two_days(False)
    _, on_air = two_days(True)
    for off, on in zip(off_air, on_air):
        assert off.stays.shape == (0, 4) and len(on.stays)
        assert off.drives.tolist() == on.drives.tolist()
        assert off.routes == on.routes and off.rest == on.rest


def live_rows_and_contacts(g, day, t0, t1, comm_range, live):
    """The rows that radio_pairs places for ticks t0 to t1 - 1 and a live
    mask, checked to be radio_rows' own rows, of vehicles in some pair of
    two rows at one tick, and the contacts among its pairs, checked to be
    those with a live end among all rows.  live=None stands for the shared
    link's join, which finds every contact: every vehicle live and every
    interval joined."""
    from reference import all_contacts

    from vancast.engine import detect_contacts

    every = live is None
    if every:
        live = np.ones(len(day.rest), dtype=bool)
    placed = radio_rows(day, g, t0, t1)
    rows, pairs = day.radio_pairs(g, t0, t1, live, comm_range, every)
    at = {(t, v): (x, y) for t, v, x, y in placed.tolist()}
    assert all(at[t, v] == (x, y) for t, v, x, y in rows.tolist())
    assert np.array_equal(np.unique(rows[:, 1]), np.unique(rows[pairs, 1]))
    assert (rows[pairs[0], 0] == rows[pairs[1], 0]).all()
    contacts = detect_contacts(rows, comm_range, pairs)
    want = all_contacts(placed, comm_range)
    if not every:
        want = want[live[want[:, 1]] | live[want[:, 2]]]
    assert np.array_equal(contacts, want)
    return rows, contacts.tolist()


def ticks_of(rows, vid):
    return rows[rows[:, 1] == vid, 0].astype(np.int64).tolist()


def test_a_full_drive_is_placed_only_where_it_passes_a_live_vehicle():
    """Vehicle 1, full, drives nodes 0 to 4 of a line of 100 m blocks at
    10 m/s past vehicle 0, live and parked at node 2, with a 60 m radio:
    its rows are placed on the two blocks that meet node 2 (ticks 11-30),
    not on the two that lie 100 m off, and so are vehicle 0's, which has
    no other partner; it meets vehicle 0 from 140 m to 260 m (ticks
    14-26), mid-span."""
    g = make_grid(1, 5, 100.0)
    day = lay_out_day(Timetable((2, 0)), [TripSchedule(0, ()), TripSchedule(
        1, (Trip(0.0, shortest_path(g, 0, 4)),))], 0, 40, 1.0, 10.0, True)
    assert day.drives.tolist() == [[1, 0, 40]] and day.stays.tolist() == [[0, 2, 0, 40]]
    rows, contacts = live_rows_and_contacts(g, day, 0, 40, 60.0, np.array([True, False]))
    assert ticks_of(rows, 1) == ticks_of(rows, 0) == list(range(11, 31))
    assert contacts == [[t, 0, 1] for t in range(14, 27)]


def test_vehicles_meet_at_a_node_from_different_edges():
    """A star of 100 m roads at 50 m/s: vehicle 0 (live) drives 1-0-3 and
    vehicle 1 (full) drives 2-0-4, both at node 0 on tick 2, each at the
    end of its first edge, where vehicle 2 (full) is parked; with a 1 m
    radio they meet only there.  Vehicle 1's stay at node 4 after its
    arrival is near no live place, so it is not placed."""
    from vancast.roadnet import Edge, RoadGraph

    g = RoadGraph([0.0, 100.0, 0.0, -100.0, 0.0], [0.0, 0.0, 100.0, 0.0, -100.0],
                  [Edge(0, 1, 0, 100.0), Edge(1, 2, 0, 100.0), Edge(2, 0, 3, 100.0),
                   Edge(3, 0, 4, 100.0)])
    day = lay_out_day(Timetable((1, 2, 0)), [
        TripSchedule(0, (Trip(0.0, shortest_path(g, 1, 3)),)),
        TripSchedule(1, (Trip(0.0, shortest_path(g, 2, 4)),)),
        TripSchedule(2, ())], 0, 6, 1.0, 50.0, True)
    assert day.drives.tolist() == [[0, 0, 4], [1, 0, 4]]
    rows, contacts = live_rows_and_contacts(g, day, 0, 6, 1.0, np.array([True, False, False]))
    assert contacts == [[2, 0, 1], [2, 0, 2]]
    assert ticks_of(rows, 1) == [0, 1, 2, 3]


def test_roads_exactly_comm_range_apart_are_near():
    """Three parallel 100 m roads, the second exactly 50 m from the first
    and the third 50.5 m from the second, driven side by side at 10 m/s
    with a 50 m radio: vehicle 1 (full) stays 50 m from vehicle 0 (live)
    every tick, a contact, and vehicle 2 (full) is placed at no tick."""
    from vancast.roadnet import Edge, RoadGraph

    g = RoadGraph([0.0, 100.0] * 3, [0.0, 0.0, 50.0, 50.0, 100.5, 100.5],
                  [Edge(0, 0, 1, 100.0), Edge(1, 2, 3, 100.0), Edge(2, 4, 5, 100.0)])
    day = lay_out_day(Timetable((0, 2, 4)), [
        TripSchedule(v, (Trip(0.0, shortest_path(g, 2 * v, 2 * v + 1)),)) for v in range(3)],
        0, 12, 1.0, 10.0, False)
    rows, contacts = live_rows_and_contacts(g, day, 0, 12, 50.0,
                                            np.array([True, False, False]))
    assert ticks_of(rows, 1) == list(range(10)) and ticks_of(rows, 2) == []
    assert contacts == [[t, 0, 1] for t in range(10)]


def test_far_ends_of_collinear_edges_are_joined_but_not_in_contact():
    """Two live vehicles set off at once from the two ends of a line of
    two 200 m blocks, towards each other at 10 m/s, with a 100 m radio:
    their first blocks share node 1, so the join pairs them at every tick
    of ticks 0-5, but they are 400 m to 300 m apart, never in contact."""
    g = make_grid(1, 3, 200.0)
    day = lay_out_day(Timetable((0, 2)), [
        TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 2)),)),
        TripSchedule(1, (Trip(0.0, shortest_path(g, 2, 0)),))], 0, 6, 1.0, 10.0, False)
    rows, contacts = live_rows_and_contacts(g, day, 0, 6, 100.0, np.array([True, True]))
    assert len(rows) == 12 and contacts == []


def test_a_drive_meets_a_vehicle_parked_at_its_edges_node():
    """Vehicle 1, full, drives nodes 0 to 2 of a line of 200 m blocks at
    10 m/s past vehicle 0, live and parked at node 1, with a 100 m radio:
    both of its blocks meet node 1, so every tick of its drive is joined
    with vehicle 0's stay, and they are in contact from 100 m to 300 m
    (ticks 10-30).  Its stay at node 2, 200 m off, is joined with none."""
    g = make_grid(1, 3, 200.0)
    day = lay_out_day(Timetable((1, 0)), [TripSchedule(0, ()), TripSchedule(
        1, (Trip(0.0, shortest_path(g, 0, 2)),))], 0, 45, 1.0, 10.0, True)
    assert day.drives.tolist() == [[1, 0, 40]]
    rows, contacts = live_rows_and_contacts(g, day, 0, 45, 100.0, np.array([True, False]))
    assert ticks_of(rows, 1) == ticks_of(rows, 0) == list(range(40))
    assert contacts == [[t, 0, 1] for t in range(10, 31)]


@pytest.mark.parametrize("live", [None, np.array([True, True])])
def test_two_live_vehicles_are_joined_once(live):
    """Two live vehicles parked at one node: each tick holds one pair of
    rows and one contact, not one from each end."""
    g = make_grid(1, 2, 100.0)
    day = lay_out_day(Timetable((1, 1)), [TripSchedule(0, ()), TripSchedule(1, ())], 0, 5,
                      1.0, 10.0, True)
    rows, contacts = live_rows_and_contacts(g, day, 0, 5, 50.0, live)
    assert day.radio_pairs(g, 0, 5, np.ones(2, dtype=bool), 50.0, live is None)[1].shape == (2, 5)
    assert contacts == [[t, 0, 1] for t in range(5)]


@pytest.mark.parametrize("live", [None, np.array([True])])
def test_consecutive_segments_of_one_vehicle_are_never_joined(live):
    """One vehicle drives a line of four 100 m blocks at 10 m/s, with a
    100 m radio: its segments lie on near places, one after another, but
    no two of them share a tick, so nothing is joined or placed, under
    the shared link's join (live=None: every interval joined) too."""
    g = make_grid(1, 5, 100.0)
    day = lay_out_day(Timetable((0,)), [TripSchedule(0, (Trip(0.0, shortest_path(g, 0, 4)),))],
                      0, 45, 1.0, 10.0, True)
    rows, pairs = day.radio_pairs(g, 0, 45, np.array([True]), 100.0, live is None)
    assert rows.shape == (0, 4) and pairs.shape == (2, 0)
