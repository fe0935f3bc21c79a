"""Property tests: text formats read back exactly what was written, a
search stopped at its target walks the same routes as a full one, a
main-road route is its three legs joined, a departure cutoff routes a
prefix of the day's trips from the same draws and the rest later to the
same routes, as a per-trip loop of numpy draws does, the GF(256) matrix product
agrees with the multiplication table, the solve recovers the symbols from
every fed row or reports their exact rank, and the incremental decoder
agrees with a from-scratch rank and hands decode the chunks that rebuild
the file, the join of route segments and stays on near places finds
exactly the contacts with a live end that the cell search finds among
every radio row, placing only rows that have a partner, and exchange
sends, keeps and draws exactly what its frozen reference does."""

import math
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from vancast.config import ROUTING_POLICIES, ExperimentConfig, config_lines, parse_config
from vancast.engine import ChunkStore, detect_contacts, exchange
from test_engine import reference_exchange
from test_fountain import oracle_rank
from test_mobility import reference_assign_trips
from vancast.fountain import (GF_MUL, DecoderState, RankDeficientError, _solve, decode,
                              encode, gf_matmul, rank)
from vancast.mobility import (DAY_LEN, Timetable, Trip, TripSchedule, assign_trips,
                              deferred_router, lay_out_day)
from vancast.roadnet import (Edge, RoadGraph, Route, _walk_route, load_road_graph,
                             main_road_route, save_road_graph, shortest_path)

positive = st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(min_value=0.0, max_value=1.0)
count = st.integers(min_value=1, max_value=10**9)
# free text for a value: no comment mark, line break or edge whitespace
text = st.text(st.characters(exclude_characters="#", exclude_categories=("Cc", "Zl", "Zp")),
               max_size=20).map(str.strip)


@st.composite
def configs(draw):
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1 if rows > 1 else 2, 30))  # a 1x1 grid has no edges
    # 3 times the grid's total block length, the most a route may weigh,
    # must be finite too, with 4 n eps to spare for rounding
    blocks = rows * (cols - 1) + (rows - 1) * cols
    block_len = draw(positive.filter(
        lambda b: math.isfinite(3 * blocks * b * (1 + 4 * rows * cols * 2.0**-52))))
    n_chunks = draw(count)
    decode_threshold, file_size = draw(st.integers(1, n_chunks)), draw(count)
    # dt divides one day; spans are whole numbers of steps
    dt = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 2.7, 5.0, 60.0, 86_400.0]))
    # a link must carry a finite number of chunks a step
    wire_bits = 8 * (4 + math.ceil(file_size / decode_threshold))
    transfer_rate = draw(positive.filter(lambda r: math.isfinite(r / wire_bits * dt)))
    # "" and "none" read back as no graph file
    graph_file = draw(st.none() | text.filter(lambda s: s and s.lower() != "none"))
    return ExperimentConfig(
        rows=rows, cols=cols, block_len=block_len,
        main_cols=sorted(draw(st.sets(st.integers(0, cols - 1)))), graph_file=graph_file,
        n_vehicles=draw(count), seed_rate=draw(unit), n_chunks=n_chunks,
        decode_threshold=decode_threshold, file_size=file_size,
        transfer_rate=transfer_rate, comm_range=draw(positive),
        parked_exchange=draw(st.booleans()), share_bandwidth=draw(st.booleans()),
        # numpy's Poisson draw refuses a mean past about 9.22e18
        mean_trips=draw(st.floats(0.0, 9e18)), max_trip_dist=draw(positive),
        speed=draw(positive), routing_policy=draw(st.sampled_from(ROUTING_POLICIES)),
        main_road_fraction=draw(unit), dt=dt,
        sim_duration=draw(st.integers(0, 10**7)) * dt,
        sample_interval=draw(st.integers(1, 10**7)) * dt,
        master_seed=draw(st.integers(0, 2**63)), replicates=draw(count),
        out_dir=draw(text),
    )


@settings(max_examples=300, deadline=None)
@given(configs())
def test_config_lines_parse_back_to_the_same_config(cfg):
    cfg.validate()
    assert parse_config("\n".join(config_lines(cfg))) == cfg


@st.composite
def road_graphs(draw):
    n = draw(st.integers(2, 12))
    xs = draw(st.lists(finite, min_size=n, max_size=n))
    ys = draw(st.lists(finite, min_size=n, max_size=n))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda e: e[0] != e[1]), min_size=1, max_size=30))
    edges = [Edge(i, a, b, draw(positive), draw(st.booleans())) for i, (a, b) in enumerate(ends)]
    return RoadGraph(xs, ys, edges)


@settings(max_examples=300, deadline=None)
@given(road_graphs())
def test_saved_road_graph_loads_back_exactly(g):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.txt")
        save_road_graph(g, path)
        h = load_road_graph(path)
    assert (h.node_x, h.node_y, h.edges) == (g.node_x, g.node_y, g.edges)


@st.composite
def rounded_graphs(draw):
    """Connected graphs whose lengths are decimals with no exact binary
    form, so a path's rounded length depends on the order its edges are
    summed in and tied paths can differ by an ulp, plus one inflation
    factor per edge (often 1, keeping those near-ties)."""
    n = draw(st.integers(2, 14))
    ends = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}  # a spanning tree
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if a != b:
            ends.add((min(a, b), max(a, b)))
    lengths = st.sampled_from([0.1, 0.2, 0.3, 0.6, 0.7, 1.1])
    edges = [Edge(i, a, b, draw(lengths), draw(st.booleans()))
             for i, (a, b) in enumerate(sorted(ends))]
    factor = st.sampled_from([1.0, 1.5, 2.0]) | st.floats(1.0, 3.0)
    factors = draw(st.lists(factor, min_size=len(edges), max_size=len(edges)))
    return RoadGraph([float(v) for v in range(n)], [0.0] * n, edges), factors


@settings(max_examples=200, deadline=None)
@given(rounded_graphs())
def test_targeted_search_walks_the_same_routes_under_rounding(case):
    g, factors = case
    inflated = [length * f for length, f in zip(g.lengths, factors)]
    for weights in (g.lengths, inflated, g.main_weights):
        for dst in range(g.n_nodes):
            full = g.dijkstra(dst, weights)
            for src in range(g.n_nodes):
                if src == dst or not np.isfinite(full[src]):
                    continue
                stopped = g.dijkstra(dst, weights, target=src)
                assert stopped[src] == full[src]
                assert (_walk_route(g, src, [(dst, stopped, weights)])
                        == _walk_route(g, src, [(dst, full, weights)]))


def joined_main_road_route(g, src, dst):
    """A main-road route assembled leg by leg: entry and exit by min over
    (distance, id), the entry's component from a full main-only search,
    three single-leg walks joined with their lengths summed again."""
    main = list(g.main_nodes)
    dist_src = g.dijkstra(src)
    entry = min(main, key=lambda v: (dist_src[v], v))
    dist_main = g.dijkstra(entry, g.main_weights)
    dist_dst = g.dijkstra(dst)
    exit_ = min((v for v in main if np.isfinite(dist_main[v])), key=lambda v: (dist_dst[v], v))
    legs = [_walk_route(g, src, [(entry, g.dijkstra(entry), g.lengths)]),
            _walk_route(g, entry, [(exit_, g.dijkstra(exit_, g.main_weights), g.main_weights)]),
            _walk_route(g, exit_, [(dst, dist_dst, g.lengths)])]
    edge_ids = tuple(eid for leg in legs for eid in leg.edge_ids)
    cum = [0.0]
    for eid in edge_ids:
        cum.append(cum[-1] + g.lengths[eid])
    nodes = (src,) + tuple(v for leg in legs for v in leg.nodes[1:])
    return Route(nodes, edge_ids, tuple(cum))


@settings(max_examples=200, deadline=None)
@given(rounded_graphs())
def test_main_road_route_is_its_legs_joined(case):
    g, _ = case
    assume(g.main_nodes)
    for src in range(g.n_nodes):
        for dst in range(g.n_nodes):
            if src != dst:
                assert main_road_route(g, src, dst) == joined_main_road_route(g, src, dst)


@settings(max_examples=200, deadline=None)
@given(rounded_graphs(), st.sampled_from(ROUTING_POLICIES), st.sampled_from([0.0, 0.5]),
       st.integers(1, 5), st.sampled_from([0.0, 1.0, 4.0]), st.integers(0, 2**32),
       st.floats(0.0, 3 * DAY_LEN) | st.sampled_from([-math.inf, math.inf]),
       st.integers(0, 40), st.booleans())
def test_departure_cutoff_routes_a_prefix_from_the_same_draws(
        case, policy, fraction, n_vehicles, mean_trips, seed, cut, pick, buffered):
    """Every cut-off and drop time gives the trips, the deferred trips'
    routes and the final generator state of the per-trip reference loop,
    whatever the candidate counts (a single candidate draws nothing) and
    whether the generator starts with a buffered 32-bit half: so a cut-off
    routes a prefix of the day's trips and the rest, routed later, are the
    rest of the day, from the same draws."""
    g, _ = case
    assume(g.main_nodes)

    def fresh():
        rng = np.random.default_rng(seed)
        starts = rng.integers(g.n_nodes, size=n_vehicles).tolist()
        if rng.bit_generator.state["has_uint32"] != buffered:
            rng.integers(7)  # takes the buffered half or leaves one
        return rng, starts

    def draw(until, drop_after=math.inf):
        rng, starts = fresh()
        # every node has an edge of at most 1.1, so each origin has a destination
        schedules = assign_trips(g, starts, mean_trips, 2.5, rng, day_start=DAY_LEN,
                                 policy=policy, main_road_fraction=fraction, until=until,
                                 drop_after=drop_after)
        ref_rng, starts = fresh()
        ref = reference_assign_trips(g, starts, mean_trips, 2.5, ref_rng, day_start=DAY_LEN,
                                     policy=policy, main_road_fraction=fraction, until=until,
                                     drop_after=drop_after)
        route = deferred_router(g, rng)
        assert [(s.trips, tuple(Trip(d.depart_time, route(d)) for d in s.deferred))
                for s in schedules] == ref
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert [s.vehicle_id for s in schedules] == list(range(n_vehicles))
        return schedules, rng.bit_generator.state

    full, stream = draw(math.inf)
    departs = sorted(t.depart_time for s in full for t in s.trips)
    cutoffs = [cut, -math.inf]
    if departs:  # right at a departure, and one ulp either side of it
        at = departs[pick % len(departs)]
        cutoffs += [at, math.nextafter(at, -math.inf), math.nextafter(at, math.inf)]
    route = deferred_router(g, np.random.default_rng(seed))
    for until in cutoffs:
        schedules, after = draw(until)
        assert after == stream
        assert [s.trips for s in schedules] == [
            tuple(t for t in s.trips if t.depart_time <= until) for s in full]
        # the later trips, routed from their saved blocks and offsets, are the rest
        assert [s.trips + tuple(Trip(d.depart_time, route(d)) for d in s.deferred)
                for s in schedules] == [s.trips for s in full]
        # dropped past the drop time, they still make their draws
        for drop_after in (until, cutoffs[-1]):
            schedules, after = draw(until, drop_after)
            assert after == stream
            assert all(d.depart_time <= drop_after for s in schedules for d in s.deferred)


@st.composite
def gf_operands(draw):
    """(m×n, n×S) uint8 pairs: m up to 40 output rows, S often not a
    multiple of 8, n across several of the kernel's row blocks and at each
    side of their edges, empty dimensions, and whole zero rows and
    columns."""
    m = draw(st.integers(0, 4) | st.integers(5, 40))
    n = draw(st.integers(0, 9) | st.sampled_from([15, 16, 17, 31, 32, 33, 63, 64, 65, 129, 200]))
    size = draw(st.integers(0, 21) | st.sampled_from([57, 1333]))
    byte = st.integers(0, 255)
    a = draw(arrays(np.uint8, (m, n), elements=byte))
    x = draw(arrays(np.uint8, (n, size), elements=byte))
    if m and n and draw(st.booleans()):
        a[draw(st.integers(0, m - 1))] = 0
        a[:, draw(st.integers(0, n - 1))] = 0
    return a, x


@settings(max_examples=200, deadline=None)
@given(gf_operands())
def test_gf_matmul_matches_table_products(case):
    a, x = case
    expect = np.zeros((a.shape[0], x.shape[1]), dtype=np.uint8)
    for j in range(a.shape[1]):
        expect ^= GF_MUL[a[:, j, None], x[j]]
    got = gf_matmul(a, x)
    assert got.dtype == np.uint8 and got.shape == expect.shape
    assert np.array_equal(got, expect)


@st.composite
def decoder_feeds(draw):
    """k random symbols and a sequence of coefficient rows: random rows, unit
    rows, scaled unit rows, and GF(256) combinations of earlier rows."""
    k = draw(st.integers(1, 8))
    byte = st.integers(0, 255)
    symbols = draw(arrays(np.uint8, (k, 3), elements=byte))
    rows = []
    for _ in range(draw(st.integers(1, 2 * k + 2))):
        kind = draw(st.sampled_from(["random", "unit", "scaled", "combination"]))
        row = np.zeros(k, dtype=np.uint8)
        if kind == "random":
            row = draw(arrays(np.uint8, k, elements=byte))
        elif kind == "combination":
            for earlier in rows:
                row ^= GF_MUL[draw(byte), earlier]
        else:
            row[draw(st.integers(0, k - 1))] = 1 if kind == "unit" else draw(st.integers(2, 255))
        rows.append(row)
    return symbols, rows


@settings(max_examples=300, deadline=None)
@given(decoder_feeds())
def test_decoder_state_rank_flags_and_solve(case):
    symbols, rows = case
    k = len(symbols)
    state = DecoderState(k)
    raised = []
    for i, row in enumerate(rows):
        before = state.rank
        grew = state.absorb_row(row.copy())
        assert state.rank == oracle_rank([[int(v) for v in r] for r in rows[: i + 1]])
        assert grew == (state.rank > before)
        if grew:
            raised.append(row)
    if state.is_complete:
        # The rows that raised the rank solve for every symbol, scaled
        # unit rows included.
        coeffs = np.array(raised)
        got = np.zeros_like(symbols)
        _solve(got, np.zeros(k, dtype=bool), coeffs, gf_matmul(coeffs, symbols))
        assert np.array_equal(got, symbols)


@settings(max_examples=300, deadline=None)
@given(decoder_feeds(), st.data())
def test_solve_with_every_fed_row(case, data):
    # Combination rows can make the leading square singular, so the
    # elimination must fall back to every row and still count rank exactly.
    symbols, rows = case
    k = len(symbols)
    known = data.draw(arrays(bool, k))
    coeffs = np.array(rows)
    got = np.where(known[:, None], symbols, 0).astype(np.uint8)
    full = oracle_rank([[int(v) for v in r] for r in rows] + np.eye(k, dtype=int)[known].tolist())
    if full == k:
        _solve(got, known, coeffs, gf_matmul(coeffs, symbols))
        assert np.array_equal(got, symbols)
    else:
        with pytest.raises(RankDeficientError) as err:
            _solve(got, known, coeffs, gf_matmul(coeffs, symbols))
        assert err.value.rank == full


@st.composite
def chunk_feeds(draw):
    """A small random file, its code's k and n, and chunk ids in arrival
    order: systematic and coded ids mixed, repeats allowed."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(k, 3 * k + 2))
    data = draw(st.binary(min_size=1, max_size=4 * k))
    ids = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    return data, k, n, ids


@settings(max_examples=200, deadline=None)
@given(chunk_feeds())
def test_decoder_state_hands_decode_the_chunks_that_raised_the_rank(case):
    data, k, n, ids = case
    chunks = encode(data, k=k, n=n)
    state = DecoderState(k)
    raised = []
    for i, cid in enumerate(ids):
        if state.absorb(chunks[cid]):
            raised.append(chunks[cid])
        assert state.rank == rank(ids[: i + 1], k) == len(raised)
        if state.is_complete:
            assert decode(raised, k, len(data)) == data
            break
        with pytest.raises(RankDeficientError) as err:
            decode(raised, k, len(data))
        assert err.value.rank == state.rank


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12), st.sampled_from([0.5, 3.0, 40.0]), st.data())
def test_near_places_are_the_places_whose_boxes_lie_within_comm_range(n, r, data):
    """Against every pair: boxes within comm_range are near, and near boxes
    lie within comm_range plus the slack."""
    coord = st.floats(-20.0, 20.0) | st.integers(-5, 5).map(float)
    xs, ys = data.draw(st.lists(coord, min_size=n, max_size=n)), data.draw(
        st.lists(coord, min_size=n, max_size=n))
    ends = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] != e[1]), min_size=1, max_size=20))
    g = RoadGraph(xs, ys, [Edge(i, a, b, 1.0) for i, (a, b) in enumerate(ends)])
    start, near = g.near_places(r)
    boxes = [(a, b) for a, b in ends] + [(v, v) for v in range(n)]
    for p, (a, b) in enumerate(boxes):
        mine = near[start[p]:start[p + 1]].tolist()
        assert mine == sorted(set(mine)) and p in mine
        for q, (c, d) in enumerate(boxes):
            gx = max(min(xs[c], xs[d]) - max(xs[a], xs[b]), min(xs[a], xs[b]) - max(xs[c], xs[d]),
                     0.0)
            gy = max(min(ys[c], ys[d]) - max(ys[a], ys[b]), min(ys[a], ys[b]) - max(ys[c], ys[d]),
                     0.0)
            if math.hypot(gx, gy) <= r:
                assert q in mine
            elif q in mine:
                assert math.hypot(gx, gy) <= r + 1e-9 * (r + 20.0)


@st.composite
def live_timetables(draw):
    """A connected road graph of a few nodes, a timetable of drives and
    (sometimes) stays on it, a span of its ticks, a comm_range and a live
    mask: None, no vehicle, every vehicle or any.  Nodes sit on a lattice
    of comm_range steps, so roads lie exactly comm_range apart, or
    anywhere within a few comm_range; declared lengths differ from the
    nodes' distances; nodes are shared by several edges, and edges may
    run in parallel."""
    r = draw(st.sampled_from([1.0, 7.5, 100.0]))
    n = draw(st.integers(2, 9))
    if draw(st.booleans()):
        coord = st.integers(-3, 3).map(lambda k: k * r)
    else:
        coord = st.floats(-4 * r, 4 * r)
    xs = [draw(coord) for _ in range(n)]
    ys = [draw(coord) for _ in range(n)]
    ends = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # a spanning tree
    ends += [(a, b) for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                        st.integers(0, n - 1)), max_size=n))
             if a != b]
    g = RoadGraph(xs, ys, [Edge(i, a, b, draw(st.floats(0.05 * r, 6 * r)))
                           for i, (a, b) in enumerate(ends)])
    n_vehicles = draw(st.integers(1, 8))
    homes = [draw(st.integers(0, n - 1)) for _ in range(n_vehicles)]
    schedules = []
    for vid, at in enumerate(homes):
        trips = []
        for depart in sorted(draw(st.lists(st.integers(0, 40), max_size=3))):
            dst = draw(st.integers(0, n - 1))
            trips.append(Trip(float(depart), shortest_path(g, at, dst)))
            at = dst
        schedules.append(TripSchedule(vid, tuple(trips)))
    end = draw(st.integers(1, 80))
    speed = draw(st.sampled_from([0.3, 1.0, 2.5])) * r
    day = lay_out_day(Timetable(tuple(homes)), schedules, 0, end, 1.0, speed, draw(st.booleans()))
    t0 = draw(st.integers(0, end))
    t1 = draw(st.integers(t0, end))
    mask = draw(st.sampled_from(["none", "no vehicle", "every vehicle", "any"]))
    if mask == "none":
        live = None
    elif mask == "any":
        live = np.array(draw(st.lists(st.booleans(), min_size=n_vehicles, max_size=n_vehicles)),
                        dtype=bool)
    else:
        live = np.full(n_vehicles, mask == "every vehicle")
    return g, day, t0, t1, r, live


def live_end(contacts, live):
    """The contacts with a live end; every contact, for live=None."""
    return contacts if live is None else contacts[live[contacts[:, 1]] | live[contacts[:, 2]]]


@settings(max_examples=300, deadline=None)
@given(live_timetables())
def test_live_mask_keeps_exactly_the_contacts_with_a_live_end(case):
    """The join's contacts are the cell search's over every row of the
    span, less those of two vehicles that are not live."""
    g, day, t0, t1, r, live = case
    rows, pairs = day.radio_pairs(g, t0, t1, live, r)
    got = detect_contacts(rows, r, pairs)
    assert got.shape[1] == 3 and got.dtype == np.int64
    assert np.array_equal(got, live_end(detect_contacts(day.radio_rows(g, t0, t1), r), live))


@settings(max_examples=300, deadline=None)
@given(live_timetables())
def test_rows_placed_near_live_vehicles_hold_every_live_contact(case):
    """The join places radio_rows' own rows, only of vehicles in some pair,
    and pairs two vehicles at one tick, one of them live, each (tick,
    vehicle pair) once, which holds every contact with a live end."""
    g, day, t0, t1, r, live = case
    every = day.radio_rows(g, t0, t1)
    rows, pairs = day.radio_pairs(g, t0, t1, live, r)
    placed = {(t, v): (x, y) for t, v, x, y in every.tolist()}
    assert len({(t, v) for t, v, _, _ in rows.tolist()}) == len(rows)
    assert all(placed[t, v] == (x, y) for t, v, x, y in rows.tolist())
    tick, vid = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    assert np.array_equal(np.unique(vid), np.unique(vid[pairs]))
    assert (tick[pairs[0]] == tick[pairs[1]]).all()
    a, b = np.minimum(vid[pairs[0]], vid[pairs[1]]), np.maximum(vid[pairs[0]], vid[pairs[1]])
    assert (a < b).all()
    if live is not None:
        assert (live[a] | live[b]).all()
    joined = set(zip(tick[pairs[0]].tolist(), a.tolist(), b.tolist()))
    assert len(joined) == pairs.shape[1]
    assert {tuple(c) for c in live_end(detect_contacts(every, r), live).tolist()} <= joined


@st.composite
def exchange_cases(draw):
    """Two stores' masks over 1 to 500 chunks (random, full, empty, or b the
    same as a), each direction's budget (0, 1, 2, 3, its surplus, above it,
    around 74, the default link's chunks a tick, or anything up to
    n_chunks + 2) and a generator seed."""
    n = draw(st.integers(1, 500))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mask(kind):
        if kind == "random":
            return rng.random(n) < draw(st.sampled_from([0.01, 0.3, 0.5, 0.9, 0.99]))
        return np.full(n, kind == "full")

    kinds = st.sampled_from(["random", "random", "full", "empty"])
    mask_a = mask(draw(kinds))
    mask_b = mask_a.copy() if draw(st.booleans()) and draw(st.booleans()) else mask(draw(kinds))

    def budget(surplus):
        return draw(st.one_of(st.just(0), st.just(1), st.just(2), st.just(3), st.just(surplus),
                              st.integers(surplus + 1, surplus + 80), st.integers(70, 78),
                              st.integers(0, n + 2)))

    budgets = budget(int((mask_a & ~mask_b).sum())), budget(int((mask_b & ~mask_a).sum()))
    return mask_a, mask_b, budgets, draw(st.integers(0, 2**63))


@settings(max_examples=400, deadline=None)
@given(exchange_cases())
def test_exchange_matches_its_frozen_reference(case):
    mask_a, mask_b, budgets, seed = case
    ends = []
    for kernel in (exchange, reference_exchange):
        a, b = ChunkStore(len(mask_a)), ChunkStore(len(mask_b))
        for store, mask in ((a, mask_a), (b, mask_b)):
            store.mask[:] = mask
            store.count = int(mask.sum())
        rng = np.random.default_rng(seed)
        sent = kernel(a, b, *budgets, rng)
        assert a.count == a.mask.sum() and b.count == b.mask.sum()
        ends.append((sent, a, b, rng.bit_generator.state))
    (sent, a, b, state), (ref_sent, ref_a, ref_b, ref_state) = ends
    for got, want in zip(sent, ref_sent):
        assert got.dtype.kind == "i" and np.array_equal(got, want)
    assert np.array_equal(a.mask, ref_a.mask) and np.array_equal(b.mask, ref_b.mask)
    assert (a.count, b.count) == (ref_a.count, ref_b.count)
    assert state == ref_state
