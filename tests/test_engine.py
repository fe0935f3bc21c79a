"""Simulation engine tests: contacts, exchange, provisioning, full runs."""

import math

import numpy as np
import pytest
from reference import all_contacts, radio_rows, same_tick_pairs

from vancast.config import ExperimentConfig
from vancast.engine import (
    ChunkStore,
    Metrics,
    _pick,
    detect_contacts,
    exchange,
    init_sim,
    provision_seeds,
    run,
    time_to_fraction,
    write_metrics_csv,
)


def brute_force_pairs(positions, comm_range):
    vids = sorted(positions)
    out = []
    for i, u in enumerate(vids):
        for v in vids[i + 1 :]:
            ux, uy = positions[u]
            vx, vy = positions[v]
            if math.hypot(ux - vx, uy - vy) <= comm_range:
                out.append((u, v))
    return out


def rows_at(positions, tick=0):
    """Radio rows (tick, vehicle, x, y) of one tick's positions."""
    return np.array([(tick, v, x, y) for v, (x, y) in positions.items()]).reshape(-1, 4)


def pairs(contacts):
    return [(a, b) for _, a, b in contacts.tolist()]


# --- contact detection --------------------------------------------------------


def test_contacts_match_brute_force_on_random_instances():
    rng = np.random.default_rng(60)
    for case in range(100):
        n = int(rng.integers(2, 120))
        span = float(rng.uniform(50, 3_000))
        comm = float(rng.uniform(10, 400))
        positions = {
            int(vid): (float(x), float(y))
            for vid, (x, y) in enumerate(rng.uniform(-span, span, size=(n, 2)))
        }
        contacts = all_contacts(rows_at(positions), comm)
        assert pairs(contacts) == brute_force_pairs(positions, comm)


def test_contacts_of_many_ticks_match_brute_force_per_tick():
    rng = np.random.default_rng(61)
    for case in range(20):
        comm = float(rng.uniform(10, 400))
        per_tick = {}
        for tick in sorted(set(rng.integers(0, 50, size=8).tolist())):
            n = int(rng.integers(0, 60))
            vids = rng.choice(200, size=n, replace=False)
            per_tick[tick] = {int(v): (float(x), float(y)) for v, (x, y) in
                              zip(vids, rng.uniform(-1_000, 1_000, size=(n, 2)))}
        rows = np.concatenate([rows_at(p, t) for t, p in per_tick.items()])
        rng.shuffle(rows)
        expect = [(t, a, b) for t, p in per_tick.items()
                  for a, b in brute_force_pairs(p, comm)]
        assert all_contacts(rows, comm).tolist() == [list(c) for c in expect]


def assert_contacts_per_tick(per_tick, comm):
    """detect_contacts over every pair of rows at a tick, and the join over
    one stay per row at a node at its point, equal brute force tick by tick.
    The join's live mask is indexed by vehicle, so it sees the vehicles
    renumbered in id order, which keeps the contacts' order."""
    rows = np.concatenate([rows_at(p, t) for t, p in per_tick.items()])
    expect = [[t, a, b] for t, p in sorted(per_tick.items())
              for a, b in brute_force_pairs(p, comm)]
    assert all_contacts(rows, comm).tolist() == expect
    points = sorted({p for at in per_tick.values() for p in at.values()})
    node = {p: k for k, p in enumerate(points)}
    vids = sorted({v for at in per_tick.values() for v in at})
    number = {v: k for k, v in enumerate(vids)}
    stays = [(number[v], node[p], t, t + 1) for t, at in per_tick.items() for v, p in at.items()]
    assert [[t, vids[a], vids[b]] for t, a, b in
            joined(points, stays, None, comm).tolist()] == expect


def test_contacts_at_cell_edges_match_brute_force_per_tick():
    """Points on an exact comm_range lattice, where the range boundary and
    the near places' cells are decided exactly, around a crowded cell and
    along the top row and rightmost column of the occupied box."""
    comm = 10.0
    x0, y0 = -30.0, -20.0
    # Cell corners: a 6 x 6 lattice, neighbours exactly comm apart.
    corners = [(x0 + comm * i, y0 + comm * j) for i in range(6) for j in range(6)]
    # A crowded cell (2, 2) of the lattice, and a point in each of its
    # eight neighbours half a metre past the shared edge or corner.
    cx, cy = x0 + 2 * comm, y0 + 2 * comm
    inner = [(cx + u, cy + v) for u in (0.5, 5.0, 9.5) for v in (0.5, 5.0, 9.5)]
    ring = [(cx + u, cy + v) for u in (-0.5, 5.0, 10.5) for v in (-0.5, 5.0, 10.5)
            if (u, v) != (5.0, 5.0)]
    # The top row and rightmost column of the box, a tenth of a metre
    # inside each corner, so pairs also cross cells diagonally there.
    top = [(x0 + comm * i + 0.1, y0 + 5 * comm - 0.1) for i in range(1, 6)]
    right = [(x0 + 5 * comm - 0.1, y0 + comm * j + 0.1) for j in range(0, 5)]

    def ids(points, first):
        # Ids out of position order, so the output sort has work to do.
        return {(7 * (first + k)) % 211: p for k, p in enumerate(points)}

    per_tick = {
        4: ids(corners, 0),
        5: ids(inner + ring + corners[-6:] + corners[5::6], 0),
        6: ids(corners + inner + ring + top + right, 3),
    }
    assert_contacts_per_tick(per_tick, comm)
    # The same crowd on consecutive ticks: nothing leaks between ticks.
    assert_contacts_per_tick({t: per_tick[6] for t in (10, 11, 12)}, comm)
    # Boxes one cell high and one cell wide, where a cell stencil that wraps
    # a column finds places in range.
    for line in (corners[::6], corners[:6]):
        assert_contacts_per_tick({t: ids(line, 1) for t in (7, 8)}, comm)


@pytest.mark.parametrize("vids", [
    2**40 + 3 * np.arange(60),  # large ids in a narrow band
    2**40 * np.arange(1, 61),  # large ids spread wide
    # Spread so that 3 ticks times the squared id range just fits in int64.
    np.arange(60) * (math.isqrt((2**63 - 1) // 3) // 59),
], ids=["band", "spread", "int64-edge"])
def test_contacts_with_large_vehicle_ids_match_brute_force_per_tick(vids):
    rng = np.random.default_rng(63)
    per_tick = {tick: {int(v): (float(x), float(y)) for v, (x, y) in
                       zip(vids, rng.uniform(0, 600, size=(len(vids), 2)))}
                for tick in (20, 21, 22)}
    assert_contacts_per_tick(per_tick, 150.0)


def test_contacts_sorted_and_ordered_pairs():
    positions = {9: (0.0, 0.0), 2: (10.0, 0.0), 5: (5.0, 5.0)}
    contacts = pairs(all_contacts(rows_at(positions), 50.0))
    assert contacts == [(2, 5), (2, 9), (5, 9)]
    for a, b in contacts:
        assert a < b


def test_contact_boundary_is_inclusive():
    positions = {0: (0.0, 0.0), 1: (100.0, 0.0), 2: (200.1, 0.0)}
    contacts = all_contacts(rows_at(positions), 100.0)
    assert pairs(contacts) == [(0, 1)]


def test_contact_boundary_agrees_with_math_hypot():
    # Points at hypot distance within an ulp or two of the range, where a
    # vectorised hypot may round the other way.
    rng = np.random.default_rng(62)
    for _ in range(2_000):
        comm = float(rng.uniform(1.0, 300.0))
        angle = float(rng.uniform(0.0, 2 * math.pi))
        p = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
        q = (p[0] + comm * math.cos(angle), p[1] + comm * math.sin(angle))
        expect = math.hypot(p[0] - q[0], p[1] - q[1]) <= comm
        assert len(all_contacts(rows_at({0: p, 1: q}), comm)) == int(expect)


def test_contacts_insertion_order_invariance():
    rng = np.random.default_rng(8)
    pts = {int(i): (float(x), float(y)) for i, (x, y) in
           enumerate(rng.uniform(0, 500, size=(40, 2)))}
    shuffled_keys = list(pts)
    rng.shuffle(shuffled_keys)
    reordered = {k: pts[k] for k in shuffled_keys}
    assert np.array_equal(all_contacts(rows_at(pts), 120.0),
                          all_contacts(rows_at(reordered), 120.0))


def test_contacts_empty_and_validation():
    assert all_contacts(rows_at({}), 100.0).shape == (0, 3)
    with pytest.raises(ValueError):
        all_contacts(rows_at({0: (0.0, 0.0)}), 0.0)


@pytest.mark.parametrize("bad, why", [
    ([[-3], [-2]], r"must index rows 0 to 2, got -3 to -2"),  # would wrap to rows 0 and 1
    ([[0], [3]], r"must index rows 0 to 2, got 0 to 3"),
    ([[0], [0]], r"holds row 0 paired with itself"),  # would be vehicle 0 with itself
    ([[0, 1], [1, 2]], r"holds a pair of rows at different ticks"),
    ([0, 1], r"must be an int array of shape \(2, m\)"),
    ([[0], [1], [2]], r"must be an int array of shape \(2, m\)"),
    (np.array([[0.0], [1.0]]), r"must be an int array of shape \(2, m\)"),
    (np.array([[False], [True]]), r"must be an int array of shape \(2, m\)"),
])
def test_contacts_refuse_pairs_that_are_not_two_rows_at_a_tick(bad, why):
    # rows 0 and 1 are in contact at tick 0; row 2 is at tick 1
    rows = np.array([(0, 0, 0.0, 0.0), (0, 1, 10.0, 0.0), (1, 2, 0.0, 0.0)])
    assert detect_contacts(rows, 50.0, np.array([[0], [1]])).tolist() == [[0, 0, 1]]
    with pytest.raises(ValueError, match="pairs " + why):
        detect_contacts(rows, 50.0, np.asarray(bad))


def test_same_tick_pairs_is_every_pair_of_rows_at_a_tick():
    rng = np.random.default_rng(64)
    for n in [0, 1, 2, *rng.integers(3, 60, size=30).tolist()]:
        rows = np.column_stack((rng.integers(0, 6, size=n), rng.permutation(n),
                                rng.uniform(-500, 500, size=(n, 2))))
        expect = []
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i, 0] == rows[j, 0]:
                    expect.append((rows[i, 0], i, j))
        got = same_tick_pairs(rows)
        assert got.dtype == np.int64 and got.shape == (2, len(expect))
        assert [(rows[i, 0], i, j) for i, j in got.T.tolist()] == sorted(expect)


def joined(points, stays, live, comm_range, every=False):
    """The contacts the engine's join finds among parked vehicles (see
    :meth:`vancast.mobility.Timetable.radio_pairs`): stays of (vehicle,
    node, first tick, end tick) at nodes placed at points, live mask live,
    every interval joined with every.  live=None stands for the shared
    link's join: every vehicle live and every interval joined."""
    from vancast.mobility import Timetable
    from vancast.roadnet import Edge, RoadGraph

    g = RoadGraph([x for x, _ in points], [y for _, y in points], [Edge(0, 0, 1, 1.0)])
    stays = np.array(stays, dtype=np.int64).reshape(-1, 4)
    if live is None:
        live, every = np.ones(int(stays[:, 0].max()) + 1, dtype=bool), True
    day = Timetable(tuple(range(len(stays))), stays=stays, start=int(stays[:, 2].min()),
                    end=int(stays[:, 3].max()))
    rows, row_pairs = day.radio_pairs(g, day.start, day.end, live, comm_range, every)
    return detect_contacts(rows, comm_range, row_pairs)


def test_contacts_with_a_live_mask_keep_the_pairs_with_a_live_end():
    # a chain 40 m apart at 50 m range: 0-1, 1-2, 2-3 and 3-4 are in contact
    points = [(40.0 * v, 0.0) for v in range(5)]
    stays = [(v, v, 0, 1) for v in range(5)]
    live = np.array([False, False, False, True, False])
    assert pairs(joined(points, stays, live, 50.0)) == [(2, 3), (3, 4)]
    assert joined(points, stays, np.zeros(5, dtype=bool), 50.0).shape == (0, 3)
    every = all_contacts(rows_at(dict(enumerate(points))), 50.0)
    assert pairs(every) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert np.array_equal(joined(points, stays, np.ones(7, dtype=bool), 50.0), every)
    # every interval joined: every contact, while a vehicle on the air is live
    assert np.array_equal(joined(points, stays, live, 50.0, every=True), every)
    assert joined(points, stays, np.zeros(5, dtype=bool), 50.0, every=True).shape == (0, 3)


@pytest.mark.parametrize("far_y", [3090.0, 2890.0])
def test_contacts_with_a_live_mask_keep_a_diagonal_pair_on_a_tall_grid(far_y):
    # the far row makes the box 33 or 31 comm_range cells tall: a cell
    # stencil keyed by column must still reach the diagonal neighbor
    points = [(90.0, 90.0), (110.0, 110.0), (0.0, far_y)]
    assert pairs(all_contacts(rows_at(dict(enumerate(points))), 100.0)) == [(0, 1)]
    live = np.array([True, False, False])
    stays = [(v, v, 0, 1) for v in range(3)]
    assert pairs(joined(points, stays, live, 100.0)) == [(0, 1)]
    assert pairs(joined(points, stays, ~live, 100.0)) == [(0, 1)]


@pytest.mark.parametrize("live", [None, np.array([True, False]), np.array([False, True])])
def test_contacts_keep_two_rows_alone_in_diagonal_cells(live):
    # in diagonal comm_range cells (0, 0) and (1, 1), alone in their columns
    rows = rows_at({0: (90.0, 90.0), 1: (110.0, 110.0)}, tick=3)
    assert all_contacts(rows, 100.0).tolist() == [[3, 0, 1]]
    stays = [(0, 0, 3, 4), (1, 1, 3, 4)]
    assert joined([(90.0, 90.0), (110.0, 110.0)], stays, live, 100.0).tolist() == [[3, 0, 1]]


@pytest.mark.parametrize("live", [None, np.ones(4, dtype=bool)])
def test_contacts_of_rows_all_alone_are_empty(live):
    # no row has another within range at its tick: none is in contact, and
    # the join pairs none
    rows = np.array([(0, 0, 0.0, 0.0), (0, 1, 250.0, 250.0), (1, 2, 0.0, 250.0),
                     (2, 3, 0.0, 0.0)])
    stays = [(0, 0, 0, 1), (1, 1, 0, 1), (2, 2, 1, 2), (3, 0, 2, 3)]
    for contacts in (all_contacts(rows, 100.0),
                     joined([(0.0, 0.0), (250.0, 250.0), (0.0, 250.0)], stays, live, 100.0)):
        assert contacts.shape == (0, 3)
        assert contacts.dtype == np.int64


@pytest.mark.parametrize("bad", [np.ones(3, dtype=np.int64), np.ones(3),
                                 np.ones((3, 1), dtype=bool), np.bool_(True)])
def test_contacts_refuse_a_live_mask_that_is_not_1d_bool(bad):
    with pytest.raises(ValueError, match="live"):
        joined([(0.0, 0.0), (10.0, 0.0)], [(0, 0, 0, 1), (1, 1, 0, 1)], bad, 100.0)


def test_contacts_refuse_a_live_mask_short_of_a_vehicle_id():
    # numpy would raise an IndexError for vehicle 2
    with pytest.raises(ValueError, match="live"):
        joined([(0.0, 0.0), (10.0, 0.0)], [(0, 0, 0, 1), (2, 1, 0, 1)],
               np.ones(2, dtype=bool), 100.0)


def test_contacts_refuse_a_negative_vehicle_id_under_a_live_mask():
    # numpy would read vehicle -1 off the mask's last entry
    with pytest.raises(ValueError, match="live"):
        joined([(0.0, 0.0), (10.0, 0.0)], [(-1, 0, 0, 1), (0, 1, 0, 1)],
               np.array([False, True]), 100.0)


# --- chunk stores and exchange --------------------------------------------------


def holding(n_chunks, ids):
    """A store of n_chunks that holds the given chunk ids."""
    store = ChunkStore(n_chunks)
    store.mask[list(ids)] = True
    store.count = int(store.mask.sum())
    return store


# exchange() as it was before each direction cost one comparison, kept
# verbatim as an oracle: the property test in test_properties.py and the
# per-tick reference below compare exchange() with it, draw for draw.
def reference_exchange(
    store_a: ChunkStore,
    store_b: ChunkStore,
    budget_ab: int,
    budget_ba: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer up to budget chunks in each direction of one contact.

    Each side offers the chunk ids the other is missing; when the
    surplus exceeds the budget, the subset actually sent is a uniform
    draw without replacement.  Both directions are computed from the
    pre-exchange stores, so a chunk received this instant is not
    immediately re-offered back.  Returns the ids sent a -> b and b -> a,
    each as a sorted int array.
    """
    if budget_ab < 0 or budget_ba < 0:
        raise ValueError("budgets must be >= 0")
    if store_a.n_chunks != store_b.n_chunks:
        raise ValueError("stores disagree on the chunk universe")
    surplus_ab = np.flatnonzero(store_a.mask & ~store_b.mask)
    surplus_ba = np.flatnonzero(store_b.mask & ~store_a.mask)

    def pick(surplus: np.ndarray, budget: int) -> np.ndarray:
        if budget == 0 or surplus.size == 0:
            return surplus[:0]
        if surplus.size <= budget:
            return surplus
        return np.sort(rng.choice(surplus, size=budget, replace=False))

    sent_ab = pick(surplus_ab, budget_ab)
    sent_ba = pick(surplus_ba, budget_ba)
    if sent_ab.size:
        store_b.mask[sent_ab] = True
        store_b.count += int(sent_ab.size)
    if sent_ba.size:
        store_a.mask[sent_ba] = True
        store_a.count += int(sent_ba.size)
    return sent_ab, sent_ba


def test_chunk_store_basics():
    s = ChunkStore(10)
    assert s.count == 0
    assert s.ids() == []
    s = holding(10, [3, 7])
    assert s.count == 2 and s.ids() == [3, 7]
    s.add_all()
    assert s.count == 10
    assert s.ids() == list(range(10))
    with pytest.raises(ValueError):
        ChunkStore(0)


def test_exchange_moves_only_missing_chunks():
    rng = np.random.default_rng(1)
    a, b = holding(20, range(10)), holding(20, range(5, 15))
    sent_ab, sent_ba = exchange(a, b, 3, 2, rng)
    assert len(sent_ab) == 3 and set(sent_ab.tolist()) <= set(range(5))
    assert len(sent_ba) == 2 and set(sent_ba.tolist()) <= set(range(10, 15))
    assert sent_ab.tolist() == sorted(sent_ab.tolist())
    assert sent_ba.tolist() == sorted(sent_ba.tolist())
    assert b.count == 13 and a.count == 12
    assert b.mask[sent_ab].all() and a.mask[sent_ba].all()


def test_exchange_is_simultaneous_not_sequential():
    """Chunks received in this exchange must not be re-offered back."""
    rng = np.random.default_rng(2)
    a, b = holding(4, [0]), ChunkStore(4)
    sent_ab, sent_ba = exchange(a, b, 4, 4, rng)
    assert sent_ab.tolist() == [0]
    assert sent_ba.tolist() == []  # b had nothing of its own to give


def test_exchange_budget_larger_than_surplus_sends_all():
    rng = np.random.default_rng(3)
    a, b = holding(8, [1, 5, 7]), ChunkStore(8)
    sent_ab, sent_ba = exchange(a, b, 100, 100, rng)
    assert sent_ab.tolist() == [1, 5, 7]
    assert b.count == 3


def test_exchange_zero_budget_and_errors():
    rng = np.random.default_rng(4)
    a, b = ChunkStore(5), ChunkStore(5)
    a.add_all()
    assert [sent.tolist() for sent in exchange(a, b, 0, 0, rng)] == [[], []]
    with pytest.raises(ValueError):
        exchange(a, b, -1, 0, rng)
    with pytest.raises(ValueError):
        exchange(a, ChunkStore(6), 1, 1, rng)


# n: k + 1, the least surplus that draws; small surpluses; either side of
# choice's tail-shuffle cutoff (n > 10,000, and only for k > n // 50); and
# either side of 2**32, where bounded draws go from 32- to 64-bit words
# (n = 2**32 takes a raw 32-bit word).
@pytest.mark.parametrize("n", [None, 3, 50, 99, 100, 10_000, 10_001,
                               2**32 - 1, 2**32, 2**32 + 1, 2**40])
@pytest.mark.parametrize("k", [1, 2])
def test_pick_makes_the_draws_of_choice(k, n):
    n = n or k + 1
    for seed in range(200):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _pick(range(n), k, rng)  # a range slices like ids, at any n
        assert list(got) == np.sort(ref.choice(n, k, replace=False)).tolist()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_exchange_conservation_property():
    """Random store pairs: transfers only add, never drop or duplicate."""
    rng = np.random.default_rng(5)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        a, b = ChunkStore(n), ChunkStore(n)
        a.mask[:] = rng.random(n) < 0.5
        b.mask[:] = rng.random(n) < 0.5
        a.count = int(a.mask.sum())
        b.count = int(b.mask.sum())
        pre_a, pre_b = a.mask.copy(), b.mask.copy()
        surplus_ab = int((pre_a & ~pre_b).sum())
        surplus_ba = int((pre_b & ~pre_a).sum())
        qa, qb = int(rng.integers(0, n + 2)), int(rng.integers(0, n + 2))
        sent_ab, sent_ba = exchange(a, b, qa, qb, rng)
        assert len(sent_ab) == min(qa, surplus_ab)
        assert len(sent_ba) == min(qb, surplus_ba)
        assert len(set(sent_ab)) == len(sent_ab)
        assert np.array_equal(b.mask, pre_b | np.isin(np.arange(n), sent_ab))
        assert np.array_equal(a.mask, pre_a | np.isin(np.arange(n), sent_ba))
        assert a.count == int(a.mask.sum())
        assert b.count == int(b.mask.sum())


# --- seed provisioning -----------------------------------------------------------


def test_seed_counts_round_half_up():
    rng = np.random.default_rng(0)
    assert len(provision_seeds([ChunkStore(5) for _ in range(1000)], 0.01, rng)) == 10
    assert len(provision_seeds([ChunkStore(5) for _ in range(5000)], 0.0002, rng)) == 1
    assert len(provision_seeds([ChunkStore(5) for _ in range(100)], 0.005, rng)) == 1
    assert len(provision_seeds([ChunkStore(5) for _ in range(10)], 0.26, rng)) == 3


def test_tiny_positive_rate_still_seeds_one():
    rng = np.random.default_rng(0)
    stores = [ChunkStore(5) for _ in range(20)]
    seeds = provision_seeds(stores, 1e-6, rng)
    assert len(seeds) == 1


def test_zero_and_full_seed_rates():
    rng = np.random.default_rng(0)
    stores = [ChunkStore(5) for _ in range(30)]
    assert provision_seeds(stores, 0.0, rng) == []
    seeds = provision_seeds(stores, 1.0, rng)
    assert seeds == list(range(30))
    for s in stores:
        assert s.count == 5
        assert s.completed_at == 0.0


def test_seed_rate_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        provision_seeds([ChunkStore(5)], 1.5, rng)


def test_seeds_get_every_chunk():
    rng = np.random.default_rng(9)
    stores = [ChunkStore(7) for _ in range(40)]
    seeds = provision_seeds(stores, 0.1, rng)
    assert len(seeds) == 4
    for vid, store in enumerate(stores):
        if vid in seeds:
            assert store.count == 7 and store.completed_at == 0.0
        else:
            assert store.count == 0 and store.completed_at is None


# --- milestone extraction ---------------------------------------------------------


def test_time_to_fraction_interpolates():
    m = Metrics(samples=[(0.0, 0), (60.0, 0), (120.0, 30), (180.0, 90)])
    assert time_to_fraction(m, 0.3, 100) == pytest.approx(120.0)
    assert time_to_fraction(m, 0.5, 100) == pytest.approx(140.0)
    assert time_to_fraction(m, 0.9, 100) == pytest.approx(180.0)
    assert time_to_fraction(m, 0.95, 100) is None


def test_time_to_fraction_at_time_zero():
    m = Metrics(samples=[(0.0, 10), (60.0, 12)])
    assert time_to_fraction(m, 0.05, 100) == 0.0


def test_time_to_fraction_validation():
    m = Metrics(samples=[(0.0, 0)])
    with pytest.raises(ValueError):
        time_to_fraction(m, 0.0, 100)
    with pytest.raises(ValueError):
        time_to_fraction(m, 1.1, 100)


# --- wired-together runs ------------------------------------------------------------


def two_parked_vehicles_config(**overrides):
    base = dict(
        rows=1,
        cols=2,
        block_len=50.0,
        main_cols=[],
        n_vehicles=2,
        seed_rate=0.5,
        mean_trips=0.0,
        parked_exchange=True,
        dt=1.0,
        sim_duration=5.0,
        sample_interval=1.0,
        master_seed=123,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_link_budget_arithmetic_over_contact():
    """800 kb/s moves 74 whole 1338-byte chunks in the first second, and
    the fractional remainder carries over while the contact lasts."""
    cfg = two_parked_vehicles_config()
    assert cfg.symbol_size() == 1334
    assert cfg.wire_bytes() == 1338
    state = run(cfg)
    seed = state.seeds[0]
    other = 1 - seed
    # cumulative floor of 74.738 chunks/s: 74, 149, 224, 298, 373
    assert state.stores[other].count == 373
    assert state.stores[other].completed_at == pytest.approx(5.0)
    assert state.completed_count == 2
    counts = [c for _, c in state.metrics.samples]
    assert counts == [1, 1, 1, 1, 1, 2]


def test_link_budget_carries_over_between_two_empty_stores(monkeypatch):
    """Two empty stores meet at 1.5 chunks a tick: no exchange is called,
    but the half chunk left over carries to the next tick, where the pair
    holds different chunks and sends two each way."""
    import vancast.engine as engine
    from vancast.engine import step

    cfg = two_parked_vehicles_config(seed_rate=0.0, transfer_rate=1.5 * 8 * 1338)
    assert cfg.chunks_per_step() == 1.5
    state = init_sim(cfg)
    calls, real = [], engine.exchange
    monkeypatch.setattr(engine, "exchange", lambda *a: calls.append(a[2:4]) or real(*a))
    step(state)
    assert [s.count for s in state.stores] == [0, 0] and calls == []
    assert state.accum == {(0, 1): [0.5, 0.5]}
    for store, held in zip(state.stores, (range(0, 4), range(4, 8))):
        store.mask[list(held)] = True
        store.count = 4
    step(state)
    assert calls == [(2, 2)]
    assert [s.count for s in state.stores] == [6, 6]
    assert state.accum == {(0, 1): [0.0, 0.0]}


def test_parked_vehicles_silent_by_default():
    cfg = two_parked_vehicles_config(parked_exchange=False)
    state = run(cfg)
    seed = state.seeds[0]
    assert state.stores[1 - seed].count == 0
    assert state.completed_count == 1


def seed_between_two_listeners(share_bandwidth):
    """Hand-built state: a seeded vehicle parked between two listeners
    that cannot hear each other (comm range covers one 50 m hop only)."""
    from vancast.engine import Metrics, SimState, step
    from vancast.mobility import Timetable, TripSchedule, lay_out_day
    from vancast.roadnet import generate_manhattan_grid

    cfg = two_parked_vehicles_config(
        cols=3,
        n_vehicles=3,
        comm_range=60.0,
        share_bandwidth=share_bandwidth,
    )
    g = generate_manhattan_grid(cfg.rows, cfg.cols, cfg.block_len, [])
    stores = [ChunkStore(cfg.n_chunks) for _ in range(3)]
    stores[1].add_all()
    stores[1].completed_at = 0.0
    state = SimState(
        cfg=cfg,
        graph=g,
        rng=np.random.default_rng(0),
        day=lay_out_day(Timetable((0, 1, 2)), [TripSchedule(v, ()) for v in range(3)], 0,
                        cfg.steps(cfg.sim_duration, "sim_duration"), cfg.dt, cfg.speed,
                        cfg.parked_exchange),
        stores=stores,
        seeds=[1],
        metrics=Metrics(),
    )
    step(state)
    return state


def test_shared_bandwidth_splits_the_link():
    # the seed's 74.7 chunks/s are split across its two contacts
    state = seed_between_two_listeners(share_bandwidth=True)
    assert state.stores[0].count == 37
    assert state.stores[2].count == 37


def test_dedicated_bandwidth_serves_each_link_fully():
    state = seed_between_two_listeners(share_bandwidth=False)
    assert state.stores[0].count == 74
    assert state.stores[2].count == 74


@pytest.mark.parametrize("share_bandwidth", [False, True])
def test_only_shared_bandwidth_detects_contacts_without_a_live_mask(monkeypatch,
                                                                    share_bandwidth):
    """A shared link divides by each end's degree, which counts contacts
    between full stores too, so that join does not filter its intervals by
    the live mask (``every``); it still takes the mask, which skips a span
    with no live vehicle on the air."""
    from vancast.mobility import Timetable

    calls, real = [], Timetable.radio_pairs
    monkeypatch.setattr(Timetable, "radio_pairs", lambda day, g, t0, t1, live, comm_range, every:
                        calls.append((live.tolist(), every))
                        or real(day, g, t0, t1, live, comm_range, every))
    seed_between_two_listeners(share_bandwidth)
    assert calls == [([True, False, True], share_bandwidth)]  # vehicle 1, the seed, is full


def spy_on_steps(monkeypatch, record):
    """Patch engine.step to call record(state, n_ticks, rows) before each
    span runs, with the span's radio rows read off the timetable: all of
    them, whether or not step itself reads them."""
    import vancast.engine as engine

    real = engine.step

    def step(state, n_ticks=1):
        record(state, n_ticks, radio_rows(state.day, state.graph, state.tick,
                                          state.tick + n_ticks))
        return real(state, n_ticks)

    monkeypatch.setattr(engine, "step", step)


def hand_scheduled_state(monkeypatch, trips_by_vehicle, **overrides):
    """init_sim of a 60 s run on a 1x3 grid (nodes 50 m apart, 60 m radio
    range) with no drawn trips, then the given trips laid out as each
    vehicle's day.  Returns the state and a list that gets the radio
    positions of every tick that engine.step runs, one dict per tick."""
    from vancast.mobility import Timetable, TripSchedule, lay_out_day

    cfg = two_parked_vehicles_config(
        cols=3, comm_range=60.0, parked_exchange=False, speed=10.0, sim_duration=60.0,
        **overrides
    )
    state = init_sim(cfg)
    assert state.day.drives.size == 0 and state.day.end == 60
    state.day = lay_out_day(Timetable(tuple(trips[0].route.src for trips in trips_by_vehicle)),
                            [TripSchedule(v, tuple(t)) for v, t in enumerate(trips_by_vehicle)],
                            0, 60, cfg.dt, cfg.speed, cfg.parked_exchange)
    seen = []

    def record(state, n_ticks, rows):
        for tick in range(state.tick, state.tick + n_ticks):
            seen.append({int(v): (x, y) for t, v, x, y in rows.tolist() if t == tick})

    spy_on_steps(monkeypatch, record)
    return state, seen


def test_departing_vehicle_stands_at_origin_and_is_in_contact(monkeypatch):
    import vancast.engine as engine
    from vancast.mobility import Trip
    from vancast.roadnet import generate_manhattan_grid, shortest_path

    g = generate_manhattan_grid(1, 3, 50.0, [])
    state, seen = hand_scheduled_state(monkeypatch, [
        [Trip(0.5, shortest_path(g, 0, 2))],
        [Trip(0.2, shortest_path(g, 1, 2))],
    ])
    seed = state.seeds[0]
    engine.step(state)
    # both left inside (0, 1], on tick 0, and stand at their origins, 50 m apart
    assert seen == [{0: (0.0, 0.0), 1: (50.0, 0.0)}]
    assert state.day.drives.tolist() == [[0, 0, 10], [1, 0, 5]]  # 100 m and 50 m at 10 m/s
    assert state.stores[1 - seed].count == 74  # one second of the 800 kb/s link


def arrival_with_a_due_trip(monkeypatch):
    from vancast.mobility import Timetable, Trip, TripSchedule, lay_out_day
    from vancast.roadnet import generate_manhattan_grid, shortest_path

    g = generate_manhattan_grid(1, 3, 50.0, [])
    first, second = shortest_path(g, 0, 1), shortest_path(g, 1, 2)
    trips = [[Trip(0.0, first), Trip(3.0, second)], [Trip(90.0, shortest_path(g, 2, 1))]]
    state, seen = hand_scheduled_state(monkeypatch, trips)
    # The second trip has been due since 3 s, but waits for the arrival on
    # tick 5 (6 s) and leaves on tick 6; vehicle 1's trip at 90 s would
    # leave after the 60 s run and is dropped.
    assert state.day.drives.tolist() == [[0, 0, 5], [0, 6, 11]]
    assert state.day.routes == [first, second]
    assert state.day.stays.size == 0  # parked vehicles are off the radio
    assert state.day.rest == (2, 2)
    # Laid out for parked radios, the same schedules stay at node 1 on the
    # arrival tick, then at node 2; vehicle 1 stays at node 2 all run.
    schedules = [TripSchedule(v, tuple(t)) for v, t in enumerate(trips)]
    parked = lay_out_day(Timetable((0, 2)), schedules, 0, 60, 1.0, 10.0, True)
    assert parked.drives.tolist() == state.day.drives.tolist()
    assert parked.stays.tolist() == [[0, 1, 5, 6], [0, 2, 11, 60], [1, 2, 0, 60]]
    return state, seen


def test_arrival_with_a_due_trip_departs_on_the_next_step(monkeypatch):
    import vancast.engine as engine

    state, seen = arrival_with_a_due_trip(monkeypatch)
    for _ in range(6):  # depart on tick 0, then 50 m at 10 m/s
        engine.step(state)
    assert [sorted(p) for p in seen] == [[0]] * 5 + [[]]  # parked on its arrival tick
    engine.step(state)
    assert seen[-1] == {0: (50.0, 0.0)}  # off again, standing at node 1


def test_arrival_with_a_due_trip_departs_on_the_next_tick_of_a_span(monkeypatch):
    import vancast.engine as engine

    state, seen = arrival_with_a_due_trip(monkeypatch)
    engine.step(state, 7)  # the seven ticks above in one span
    # on the road for ticks 0-4, parked on its arrival tick, off again on tick 6
    assert [sorted(p) for p in seen] == [[0]] * 5 + [[], [0]]
    assert seen[-1] == {0: (50.0, 0.0)}


@pytest.mark.parametrize("share_bandwidth", [False, True])
def test_a_span_with_no_live_radio_reads_no_rows_and_exchanges_nothing(monkeypatch,
                                                                      share_bandwidth):
    """Vehicle 0 drives with every chunk, and vehicle 1, which has none,
    is parked off the radio: no store on the air can gain a chunk, so the
    span flattens no route, places no radio row and calls no exchange,
    under a shared link too, and the link budget carried from the tick
    before it is dropped, as after any span with no live contact.  Once
    vehicle 0 lacks a chunk, the next span flattens its route."""
    import vancast.engine as engine
    import vancast.mobility as mobility
    from vancast.mobility import Trip
    from vancast.roadnet import generate_manhattan_grid, shortest_path

    g = generate_manhattan_grid(1, 3, 50.0, [])
    state, _ = hand_scheduled_state(monkeypatch, [[Trip(0.0, shortest_path(g, 0, 2))],
                                                  [Trip(90.0, shortest_path(g, 1, 0))]],
                                    share_bandwidth=share_bandwidth)
    monkeypatch.undo()
    state.stores[0].add_all()
    state.stores[1].mask[:] = False
    state.stores[1].count, state.stores[1].completed_at = 0, None
    state.accum = {(0, 1): [0.5, 0.5]}
    calls = []
    for owner, name in ((mobility, "leg_segments"), (mobility, "place_segments"),
                        (engine, "exchange")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, name=name, real=real:
                            calls.append(name) or real(*a))
    engine.step(state, 7)
    assert calls == [] and state.tick == 7 and state.accum == {}
    state.stores[0].mask[0] = False
    state.stores[0].count -= 1
    engine.step(state, 3)
    # vehicle 0 alone on the air: its route is flattened, but no row is paired
    assert calls == ["leg_segments", "place_segments"] and state.tick == 10


def test_a_crowded_parked_span_peaks_within_five_times_its_rows_and_pairs():
    """300 vehicles parked on the 16 nodes of a 4x4 grid, about 19 a node
    and every pair at a node in contact: one 64-tick span joins about
    175,000 pairs of rows, and its traced peak memory stays within five
    times the bytes of the rows and pairs that the join hands on.

    detect_contacts holds at most seven int64 (56 bytes) per contact it
    finds at one time, 3.5 times a pair's two int64 indices: the (tick,
    a, b) row with either the two row indices and the two vehicle ids,
    or the sort's order and the sorted copy.  Every pair here is a
    contact, so the span holds about the rows plus 4.5 times the pairs;
    five times both leaves room for the rest (stores, the near-place
    table, the exchange's link budgets)."""
    import tracemalloc

    from vancast.engine import step

    state = init_sim(ExperimentConfig(rows=4, cols=4, main_cols=[], n_vehicles=300,
                                      mean_trips=0.0, parked_exchange=True, seed_rate=0.01,
                                      master_seed=3))
    cfg = state.cfg
    live = np.array([s.count for s in state.stores]) != cfg.n_chunks
    tracemalloc.start()
    try:
        step(state, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows, pairs = state.day.radio_pairs(state.graph, 0, 64, live, cfg.comm_range)
    assert len(detect_contacts(rows, cfg.comm_range, pairs)) == pairs.shape[1] > 170_000
    assert peak <= 5 * (rows.nbytes + pairs.nbytes)


def test_step_past_the_timetable_end_raises():
    from vancast.engine import step

    state = init_sim(two_parked_vehicles_config())  # a 5 s run
    with pytest.raises(ValueError, match="timetable"):
        step(state, 6)
    assert state.tick == 0
    step(state, 5)
    with pytest.raises(ValueError, match="timetable"):
        step(state)
    # a timetable holds one day; run() lays out the next at its first tick
    state = init_sim(two_parked_vehicles_config(dt=10.0, sim_duration=2 * 86_400.0,
                                                sample_interval=60.0))
    assert state.day.end == 8_640
    with pytest.raises(ValueError, match="timetable"):
        step(state, 8_641)


def test_run_refuses_cells_past_int64_before_any_exchange(monkeypatch):
    """Parked vehicles 50 m apart are 5e21 cells of 1e-20 m apart: the run
    stops at load, before the seeds or the day's trips are drawn and
    before a chunk moves."""
    import vancast.engine as engine

    calls = []
    for name in ("provision_seeds", "assign_trips", "exchange"):
        real = getattr(engine, name)
        monkeypatch.setattr(engine, name, lambda *a, name=name, real=real, **k:
                            calls.append(name) or real(*a, **k))
    with pytest.raises(ValueError, match="comm_range"):
        run(two_parked_vehicles_config(comm_range=1e-20))
    assert calls == []


def test_init_sim_bounds_cells_by_the_graph_and_a_day():
    # The default 1.8 km grid over a day of 1 s ticks: 0.25 mm cells are
    # about the last that index, and a shorter run allows smaller ones.
    from dataclasses import replace

    days = ExperimentConfig(n_vehicles=2, mean_trips=0.0, sim_duration=2 * 86_400.0)
    init_sim(replace(days, comm_range=3e-4))
    with pytest.raises(ValueError, match="comm_range = 0.0002 m cells over 86400 ticks"):
        init_sim(replace(days, comm_range=2e-4))
    init_sim(replace(days, comm_range=2e-4, sim_duration=3_600.0))


def days_drawn(monkeypatch):
    """The list each later day's draw in the engine appends its schedules to."""
    import vancast.engine as engine

    days, real = [], engine.assign_trips
    monkeypatch.setattr(engine, "assign_trips",
                        lambda *a, **k: days.append(real(*a, **k)) or days[-1])
    return days


class HandDrawnTrips:
    """A generator whose trip counts and departure times are set by hand,
    one list of day times per vehicle; every other draw is a seeded one's."""

    def __init__(self, departs):
        self.departs = [list(d) for d in departs]
        self._rng = np.random.default_rng(0)

    def poisson(self, lam):
        return len(self.departs[0])

    def uniform(self, low, high, size):
        return np.array(self.departs.pop(0))

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_a_trip_due_after_the_last_step_is_drawn_but_not_routed(monkeypatch):
    import vancast.engine as engine
    import vancast.mobility as mobility
    from vancast.mobility import departure_tick

    state = init_sim(two_parked_vehicles_config(cols=3, dt=0.1, sim_duration=60.0,
                                                routing_policy="shortest"))
    assert state.day.end == 600
    until = (state.day.end - 1) * 0.1 + 0.1
    late = math.nextafter(until, math.inf)
    assert departure_tick(until, 0.1, 0) == 599 and departure_tick(late, 0.1, 0) == 600
    routed, real = [], mobility.shortest_path
    monkeypatch.setattr(mobility, "shortest_path",
                        lambda g, src, dst: routed.append(src) or real(g, src, dst))
    days = days_drawn(monkeypatch)
    state.rng = HandDrawnTrips([[until], [late]])
    engine._next_window(state)
    (schedules,) = days
    assert routed == [schedules[0].trips[0].route.src]
    assert [len(s.trips) for s in schedules] == [1, 0]
    assert schedules[0].trips[0].depart_time == until
    drives = state.day.drives.tolist()
    assert len(drives) == 1 and drives[0][:2] == [0, 599]  # on the last tick, end - 1


@pytest.mark.parametrize("policy", ["random", "shortest"])
def test_a_skipped_trip_raises_schedule_error_where_a_routed_one_does(policy):
    from vancast.mobility import ScheduleError, assign_trips
    from vancast.roadnet import Edge, RoadGraph

    # node 3 has no edge, so vehicle 1, parked there, has nowhere to go
    g = RoadGraph([0.0, 100.0, 200.0, 5_000.0], [0.0] * 4,
                  [Edge(0, 0, 1, 100.0), Edge(1, 1, 2, 100.0)])
    states = []
    for until in (math.inf, 40_000.0, -math.inf):
        rng = np.random.default_rng(11)
        with pytest.raises(ScheduleError, match="no destination within 1000 m of node 3"):
            assign_trips(g, [0, 3, 1], 5.0, 1_000.0, rng, policy=policy, until=until)
        states.append(rng.bit_generator.state)
    assert states == [states[0]] * 3


def test_new_day_schedules_lie_inside_their_day(monkeypatch):
    from vancast.mobility import DAY_LEN

    def check(schedules, day):
        for sched in schedules:
            departs = [t.depart_time for t in sched.trips]
            assert departs == sorted(departs)
            for d in departs:
                assert day * DAY_LEN <= d < (day + 1) * DAY_LEN
        assert sum(len(s.trips) for s in schedules) > 0

    cfg = small_traffic_config(
        n_vehicles=20, mean_trips=3.0, dt=10.0, sim_duration=DAY_LEN + 600.0
    )
    days = days_drawn(monkeypatch)
    state = run(cfg)
    assert state.tick // cfg.steps(DAY_LEN, "one day") == 1
    assert len(days) == 2
    check(days[0], 0)
    check(days[1], 1)


def test_zero_duration_run_samples_once():
    cfg = two_parked_vehicles_config(sim_duration=0.0)
    state = run(cfg)
    assert state.clock == 0.0
    assert state.metrics.samples == [(0.0, 1)]


def spy_on_spans(monkeypatch):
    """A list that gets one [first tick, ticks, timetable end, rows a tick]
    entry per step() call; the rows are the span's radio rows."""
    spans = []

    def record(state, n_ticks, rows):
        rows_a_tick = np.bincount(rows[:, 0].astype(np.int64) - state.tick, minlength=n_ticks)
        spans.append([state.tick, n_ticks, state.day.end, rows_a_tick])

    spy_on_steps(monkeypatch, record)
    return spans


def check_span_rule(spans, n_steps, budget):
    """The spans tile the run, none crosses its timetable's end, and each
    ends at the last tick that keeps its rows within budget."""
    assert sum(n for _, n, _, _ in spans) == n_steps
    assert [t for t, _, _, _ in spans] == list(np.cumsum([0] + [n for _, n, _, _ in spans[:-1]]))
    assert all(t + n <= end for t, n, end, _ in spans)
    assert all(rows.sum() <= budget for _, n, _, rows in spans if n > 1)
    for (t, n, end, rows), (_, _, _, after) in zip(spans, spans[1:]):
        assert t + n == end or rows.sum() + after[0] > budget


def test_run_at_fractional_dt_takes_exactly_duration_over_dt_steps(monkeypatch):
    import vancast.engine as engine

    spans = spy_on_spans(monkeypatch)
    state = run(
        two_parked_vehicles_config(dt=0.1, sim_duration=3_600.0, sample_interval=60.0)
    )
    check_span_rule(spans, 36_000, engine.SPAN_ROWS)
    # two parked radios give 2 rows a tick, so every span but the last is full
    assert {n for _, n, _, _ in spans[:-1]} == {engine.SPAN_ROWS // 2}
    assert state.clock == 3_600.0
    times = [t for t, _ in state.metrics.samples]
    assert times == [60.0 * k for k in range(61)]


def test_day_rolls_over_exactly_at_one_day_of_fractional_steps(monkeypatch):
    import vancast.engine as engine
    from vancast.mobility import DAY_LEN

    windows = []
    real = engine._next_window

    def spy(state):
        windows.append(state.clock)
        real(state)

    monkeypatch.setattr(engine, "_next_window", spy)
    # no seed, so no store fills: the run does not settle on day 0
    cfg = two_parked_vehicles_config(dt=0.1, sim_duration=DAY_LEN + 600.0, seed_rate=0.0)
    state = run(cfg)
    assert state.tick // cfg.steps(DAY_LEN, "one day") == 1
    assert windows == [0.0, 86_400.0]  # two vehicles' trips: one window a day


def test_span_end_counts_rows_off_the_timetable():
    from vancast.mobility import Timetable

    # Ticks 100 to 119; rows a tick without parked_exchange: vehicle 0's
    # carried drive on 100-103, vehicle 2's drive on 106-108, and vehicle
    # 0's drive that arrives at the end on 112-119.  With parked_exchange
    # the stays are laid out too, each adding one row a tick, so each tick
    # then has 3.
    drives = [[0, 95, 104], [2, 106, 109], [0, 112, 120]]
    stays = [[1, 3, 100, 120], [2, 5, 100, 106], [0, 7, 104, 112], [2, 6, 109, 120]]
    widths = {False: [1] * 4 + [0] * 2 + [1] * 3 + [0] * 3 + [1] * 8, True: [3] * 20}
    for parked, width in widths.items():
        day = Timetable((0, 3, 6), np.array(drives, dtype=np.int64), [],
                        np.array(stays if parked else [], dtype=np.int64).reshape(-1, 4),
                        start=100, end=120)
        assert [day.rows_before(t) for t in range(100, 121)] == np.cumsum([0] + width).tolist()
        for t0 in range(100, 120):
            # 2**63 overflows int64: a budget past every row still ends the span at end
            for budget in (0, 1, 2, 4, 7, 10**12, 2**63):
                within = [t for t in range(t0 + 1, 121) if sum(width[t0 - 100:t - 100]) <= budget]
                assert day.span_end(t0, budget) == max([t0 + 1] + within)
    # with parked stays: one tick alone exceeds 2 rows, and 7 rows hold two ticks
    assert day.span_end(100, 2) == 101
    assert day.span_end(100, 7) == 102
    assert day.span_end(113, 10**12) == 120


def test_run_results_do_not_depend_on_the_span_split(monkeypatch, tmp_path):
    import vancast.engine as engine
    from vancast.mobility import DAY_LEN

    # a link slow enough that the run does not settle, so every span runs
    cfg = small_traffic_config(n_vehicles=30, mean_trips=60.0, speed=0.5, dt=20.0,
                               sim_duration=86_400.0 + 14_400.0, main_road_fraction=0.5,
                               parked_exchange=True, share_bandwidth=True, master_seed=0,
                               transfer_rate=100.0)
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    per_day = cfg.steps(DAY_LEN, "one day")
    on_road_at_midnight = []
    real_next_window = engine._next_window

    def next_window(state):
        if state.tick and state.tick % per_day == 0:
            on_road_at_midnight.append(int((state.day.drives[:, 2] > state.tick).sum()))
        real_next_window(state)

    monkeypatch.setattr(engine, "_next_window", next_window)
    results, calls = [], []
    for budget in (engine.SPAN_ROWS, 1, 10**12):
        with monkeypatch.context() as m:
            m.setattr(engine, "SPAN_ROWS", budget)
            spans = spy_on_spans(m)
            state = run(cfg)
        check_span_rule(spans, n_steps, budget)
        path = tmp_path / f"{budget}.csv"
        write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
        results.append((path.read_bytes(), state.completed_count,
                        [(s.mask.tolist(), s.completed_at) for s in state.stores]))
        calls.append(len(spans))
    # one span a tick (30 radios each), one a day, and the default between
    assert calls[1] == n_steps and calls[2] == 2 and 2 < calls[0] < n_steps
    assert results[1] == results[0] == results[2]
    assert results[0][1] > len(state.seeds)
    assert len(on_road_at_midnight) == 3 and min(on_road_at_midnight) > 0


def test_run_results_do_not_depend_on_the_window(monkeypatch, tmp_path):
    """Day 1 laid out in windows of about a tick, in about 8 h windows (the
    default) and in one: the same samples, stores, stamps and draws.
    Slow drives of a backlog of trips cross window ends, trips due in a
    window leave after it, and trips left pending at midnight are dropped."""
    import vancast.engine as engine
    from vancast.mobility import DAY_LEN, due_by

    cfg = small_traffic_config(n_vehicles=30, mean_trips=200.0, speed=0.5, dt=20.0,
                               sim_duration=DAY_LEN + 40_000.0, parked_exchange=True,
                               transfer_rate=40.0, master_seed=3)
    per_day = cfg.steps(DAY_LEN, "one day")
    results, windows = [], []
    for window_trips in (1, engine.WINDOW_TRIPS, 10**9):
        seen = {"windows": 0, "carried": 0, "pushed": 0, "dropped": 0, "stays": 0}
        real_next_window = engine._next_window

        def pending(day):
            return [queue for queue in day.pending if queue]

        def next_window(state):
            day = state.day
            if state.tick % per_day == 0:  # a new day: trips left pending are dropped
                seen["dropped"] += len(pending(day))
                return real_next_window(state)
            seen["windows"] += 1
            seen["carried"] += int((day.drives[:, 2] > state.tick).sum())
            seen["stays"] += len(day.stays)
            due = due_by(day.end, cfg.dt)
            seen["pushed"] += sum(queue[0].depart_time <= due for queue in pending(day))
            real_next_window(state)

        with monkeypatch.context() as m:
            m.setattr(engine, "WINDOW_TRIPS", window_trips)
            m.setattr(engine, "_next_window", next_window)
            state = run(cfg)
        assert state.tick == cfg.steps(cfg.sim_duration, "sim_duration")
        path = tmp_path / f"{window_trips}.csv"
        write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
        results.append((path.read_bytes(), outcome(state)))
        windows.append(seen)
    assert results[0] == results[1] == results[2]
    assert results[0][1][1] > len(state.seeds)  # a slow link, but chunks move
    assert windows[0]["windows"] > windows[1]["windows"] > windows[2]["windows"] == 0
    for seen in windows[:2]:
        assert seen["carried"] and seen["pushed"] and seen["dropped"] and seen["stays"]


def test_run_results_do_not_depend_on_the_exchange_block(monkeypatch, tmp_path):
    """The dense parked run of tests/test_pinned_digests.py, its contacts
    handed to the exchange loop 1, 7, 256 (the default) and a billion at
    a time: the same samples, stores, counts, stamps and draws, and the
    same link budgets carried over after every span.  In blocks of one,
    all 15,764 contacts of two full stores are dropped in bulk; in one
    block a span, all of them are passed over by the loop's own test."""
    import vancast.engine as engine

    cfg = ExperimentConfig(n_vehicles=200, seed_rate=0.05, mean_trips=27.0, speed=7.0,
                           routing_policy="shortest", main_road_fraction=0.5,
                           parked_exchange=True, sim_duration=1_800.0, master_seed=5)
    real_step = engine.step
    results = []
    for block in (1, 7, engine.EXCHANGE_BLOCK, 10**9):
        budgets = []

        def step(state, n_ticks=1):
            real_step(state, n_ticks)
            budgets.append((state.tick, sorted(state.accum.items())))

        with monkeypatch.context() as m:
            m.setattr(engine, "EXCHANGE_BLOCK", block)
            m.setattr(engine, "step", step)
            state = run(cfg)
        path = tmp_path / f"{block}.csv"
        write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
        results.append((path.read_bytes(), outcome(state), state.accum, budgets))
    assert results[0] == results[1] == results[2] == results[3]
    assert results[0][1][1] == cfg.n_vehicles  # every store fills
    assert sum(len(carried) for _, carried in results[0][3]) > 500  # 749 carried over


def test_a_settled_run_stops_with_the_results_of_the_full_run(monkeypatch, tmp_path):
    """Every store is full during day 1 of 3: the run stops at the end of
    the window it is in, drawing no day 2, with the samples, stores and
    stamps of the same run forced on to its end."""
    import vancast.engine as engine
    from vancast.engine import SimState
    from vancast.mobility import DAY_LEN

    cfg = small_traffic_config(n_vehicles=100, mean_trips=25.0, dt=10.0,
                               sim_duration=3 * DAY_LEN, master_seed=5)
    n_steps, per_day = cfg.steps(cfg.sim_duration, "sim_duration"), cfg.steps(DAY_LEN, "one day")
    results = []
    for forced in (False, True):
        with monkeypatch.context() as m:
            if forced:
                m.setattr(SimState, "settled", property(lambda state: False))
            days = days_drawn(m)
            state = run(cfg)
        path = tmp_path / f"{forced}.csv"
        write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
        results.append((path.read_bytes(), [(s.mask.tolist(), s.completed_at)
                                            for s in state.stores]))
        if forced:
            assert state.tick == n_steps and len(days) == 3
        else:
            # at the end of day 1's first window, which ends before the day does
            assert state.settled and state.tick == state.day.end
            assert state.day.start == per_day and state.tick < 2 * per_day
            assert len(days) == 2
    assert results[0] == results[1]


def test_a_crawl_lays_out_an_odometer_no_longer_than_the_run():
    """At 1e-7 m/s a 2 km route is 2e10 steps of odometer; the run reads
    only a day of them, so no more are laid out, and the drives arrive,
    in the timetable, after the run's end."""
    cfg = small_traffic_config(n_vehicles=5, speed=1e-7, sim_duration=86_400.0)
    state = run(cfg)
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    assert state.tick == n_steps and len(state.day.odo) <= n_steps
    assert len(state.day.drives) and (state.day.drives[:, 2] >= n_steps).all()


def test_metrics_csv_writes_times_exactly(tmp_path):
    path = tmp_path / "m.csv"
    m = Metrics(samples=[(0.0, 0), (100_000.5, 1), (100_001.0, 2), (1_000_015.0, 3)])
    write_metrics_csv(m, 4, str(path))
    rows = path.read_text().splitlines()[1:]
    assert [r.split(",")[0] for r in rows] == ["0", "100000.5", "100001", "1000015"]


def test_full_seed_rate_completes_instantly():
    cfg = two_parked_vehicles_config(seed_rate=1.0, sim_duration=2.0)
    state = run(cfg)
    assert state.completed_count == 2
    assert time_to_fraction(state.metrics, 0.8, 2) == 0.0


def small_traffic_config(**overrides):
    base = dict(
        rows=5,
        cols=5,
        block_len=150.0,
        main_cols=[2],
        n_vehicles=40,
        seed_rate=0.1,
        mean_trips=8.0,
        max_trip_dist=2_000.0,
        dt=1.0,
        sim_duration=3_600.0,
        sample_interval=60.0,
        master_seed=31,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_is_deterministic():
    cfg = small_traffic_config()
    s1 = run(cfg)
    s2 = run(cfg)
    assert s1.metrics.samples == s2.metrics.samples
    assert s1.seeds == s2.seeds
    for a, b in zip(s1.stores, s2.stores):
        assert np.array_equal(a.mask, b.mask)
        assert a.completed_at == b.completed_at


def test_run_csv_rerun_byte_identical(tmp_path):
    cfg = small_traffic_config()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(run(cfg).metrics, cfg.n_vehicles, str(p1))
    write_metrics_csv(run(cfg).metrics, cfg.n_vehicles, str(p2))
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    head = b1.decode().splitlines()[:2]
    assert head[0] == "time_s,completed_count,completed_fraction"
    assert head[1] == "0,4,0.100000"


def test_different_seeds_differ():
    s1 = run(small_traffic_config(master_seed=1))
    s2 = run(small_traffic_config(master_seed=2))
    held1 = [s.count for s in s1.stores]
    held2 = [s.count for s in s2.stores]
    assert held1 != held2


def test_run_invariants_hold_throughout():
    cfg = small_traffic_config()
    state = run(cfg)
    counts = [c for _, c in state.metrics.samples]
    assert counts[0] == len(state.seeds) == 4
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    assert counts[-1] == state.completed_count
    threshold = cfg.decode_threshold
    for store in state.stores:
        assert store.count == int(store.mask.sum())
        if store.completed_at is not None:
            assert store.count >= threshold
            assert 0.0 <= store.completed_at <= cfg.sim_duration
        else:
            assert store.count < threshold
    # chunks spread: someone beyond the seeds must have received data
    assert sum(s.count for s in state.stores) > len(state.seeds) * cfg.n_chunks


# a dt of 0.1, and the pinned off_grid_end run: its end is 30 s past the
# last 60 s sample, and a vehicle completes in those 30 s
@pytest.mark.parametrize("overrides", [
    dict(n_vehicles=20, mean_trips=150.0, parked_exchange=True, dt=0.1, sim_duration=600.0,
         sample_interval=30.0),
    dict(rows=6, cols=6, block_len=150.0, main_cols=[1, 4], n_vehicles=60, seed_rate=0.05,
         mean_trips=120.0, transfer_rate=200_000.0, sim_duration=7_230.0, master_seed=28),
], ids=["dt_tenth", "off_grid_end"])
def test_each_sample_counts_the_stores_stamped_by_its_time(overrides):
    cfg = small_traffic_config(**overrides)
    state = run(cfg)
    # every stamp and sample time is a whole number of steps
    ticks = [round(s.completed_at / cfg.dt) for s in state.stores if s.completed_at is not None]
    assert [t * cfg.dt for t in sorted(ticks)] == sorted(
        s.completed_at for s in state.stores if s.completed_at is not None)
    samples = [(round(t / cfg.dt), c) for t, c in state.metrics.samples]
    assert [k * cfg.dt for k, _ in samples] == [t for t, _ in state.metrics.samples]
    assert [c for _, c in samples] == [sum(t <= k for t in ticks) for k, _ in samples]
    # several completion steps, off the sample grid, one after the last sample but one
    assert len(set(ticks)) > 2 and any(k % samples[1][0] for k in ticks)
    assert max(ticks) > samples[-2][0]
    assert samples[-1][1] == state.completed_count


def test_multi_day_run_keeps_moving(monkeypatch):
    """Across the day boundary vehicles get fresh trips and keep mixing."""
    cfg = small_traffic_config(
        n_vehicles=20,
        seed_rate=0.05,
        sim_duration=2.0 * 86_400.0,
        dt=5.0,
        mean_trips=2.0,
        transfer_rate=8_000_000.0,
    )
    days = days_drawn(monkeypatch)
    state = run(cfg)
    assert state.tick // cfg.steps(86_400.0, "one day") == 2
    assert all(t.depart_time >= 86_400.0 for s in days[-1] for t in s.trips)
    day1 = [c for t, c in state.metrics.samples if t <= 86_400.0][-1]
    day2 = state.completed_count
    assert day2 >= day1
    assert state.clock == pytest.approx(2.0 * 86_400.0)


def test_graph_file_route(tmp_path):
    from vancast.roadnet import generate_manhattan_grid, save_road_graph

    path = tmp_path / "net.txt"
    save_road_graph(generate_manhattan_grid(4, 4, 120.0, [1]), str(path))
    cfg = small_traffic_config(graph_file=str(path), sim_duration=600.0)
    state = run(cfg)
    assert state.graph.n_nodes == 16
    assert state.clock == pytest.approx(600.0)


def test_init_sim_respects_validation():
    with pytest.raises(ValueError):
        init_sim(small_traffic_config(seed_rate=2.0))
    with pytest.raises(ValueError):
        init_sim(small_traffic_config(decode_threshold=500, n_chunks=450))
    with pytest.raises(ValueError):
        init_sim(small_traffic_config(dt=0.0))


def test_init_sim_refuses_a_home_with_no_destination(tmp_path, monkeypatch):
    from dataclasses import replace

    import vancast.engine as engine
    from vancast.mobility import ScheduleError
    from vancast.roadnet import Edge, RoadGraph, save_road_graph

    # node 3 lies 4.8 km off a 200 m road and has no edge
    path = tmp_path / "net.txt"
    save_road_graph(RoadGraph([0.0, 100.0, 200.0, 5_000.0], [0.0] * 4,
                              [Edge(0, 0, 1, 100.0, False), Edge(1, 1, 2, 100.0, False)]),
                    str(path))
    cfg = ExperimentConfig(graph_file=str(path), n_vehicles=4, seed_rate=0.25,
                           mean_trips=0.3, max_trip_dist=1_000.0, dt=60.0,
                           sim_duration=3 * 86_400.0, master_seed=5)
    drawn, real = [], engine.assign_trips
    monkeypatch.setattr(engine, "assign_trips", lambda *a, **k: drawn.append(1) or real(*a, **k))
    with pytest.raises(ScheduleError, match="no destination within 1000 m of node 3"):
        init_sim(cfg)
    assert drawn == []  # refused before day 0's draw
    with pytest.raises(ScheduleError, match=r"within 1000\.0000001 m of node 3"):
        init_sim(replace(cfg, max_trip_dist=1_000.0000001))  # :g would print 1000
    monkeypatch.undo()
    # with no trips to draw, or no time to drive them, the home is never left
    assert init_sim(replace(cfg, mean_trips=0.0)).tick == 0
    assert run(replace(cfg, sim_duration=0.0)).tick == 0


def test_init_sim_refuses_main_road_routing_without_main_roads(tmp_path, monkeypatch):
    from dataclasses import replace

    import vancast.engine as engine
    from vancast.roadnet import generate_manhattan_grid, save_road_graph

    cfg = ExperimentConfig(rows=4, cols=4, block_len=100.0, main_cols=[], n_vehicles=6,
                           mean_trips=2.0, max_trip_dist=1_000.0, dt=60.0,
                           sim_duration=3600.0, main_road_fraction=0.5)
    drawn, real = [], engine.assign_trips
    monkeypatch.setattr(engine, "assign_trips", lambda *a, **k: drawn.append(1) or real(*a, **k))
    with pytest.raises(ValueError, match=r"^main_road_fraction = 0\.5 needs main roads, "
                                         r"but main_cols gives none$"):
        init_sim(cfg)
    path = tmp_path / "plain.txt"
    save_road_graph(generate_manhattan_grid(4, 4, 100.0), str(path))
    with pytest.raises(ValueError, match=r"^routing_policy = main_road needs main roads, "
                                         f"but graph_file {path} gives none$"):
        init_sim(replace(cfg, graph_file=str(path), routing_policy="main_road",
                         main_road_fraction=0.0))
    assert drawn == []  # refused before day 0's draw
    monkeypatch.undo()
    # no main-road trips, or no trips at all, need no main roads
    assert init_sim(replace(cfg, main_road_fraction=0.0)).tick == 0
    assert init_sim(replace(cfg, mean_trips=0.0)).tick == 0


# --- the span pass against a per-tick reference --------------------------------


def queue_next_trip(ref, vid):
    """Queue a parked vehicle's next departure, if it has one left today."""
    import heapq

    trips = ref["schedules"][vid].trips
    nxt = ref["states"][vid].next_trip
    if nxt < len(trips):
        heapq.heappush(ref["heap"], (trips[nxt].depart_time, vid))


def resting_nodes(ref):
    """Where each reference vehicle rests: its node, or its route's end."""
    from vancast.mobility import Phase

    return [vs.route.dst if vs.phase is Phase.EN_ROUTE else vs.node for vs in ref["states"]]


def reference_new_day(ref, starts, schedules):
    """The reference's day start: the day's schedules were drawn from
    ``starts``, which must be where its vehicles rest; trip indices
    restart, and parked vehicles queue their first trip.  Drives on the
    road carry on."""
    from vancast.mobility import Phase

    assert starts == resting_nodes(ref)
    ref["schedules"], ref["heap"] = schedules, []
    for vs in ref["states"]:
        vs.next_trip = 0
        if vs.phase is Phase.PARKED:
            queue_next_trip(ref, vs.vehicle_id)


def reference_step(state, ref):
    """One tick the way single steps work: advance() and position_of() per
    vehicle, brute-force contacts, the frozen reference_exchange() per
    contact.  ``ref`` holds the reference's own vehicle states, departure
    heap and link bookkeeping; returns the tick's positions and contacts."""
    import heapq

    from vancast.mobility import Phase, advance, position_of

    cfg = state.cfg
    now = state.clock
    states, schedules = ref["states"], ref["schedules"]
    positions, arrived = {}, []
    for vid in sorted(ref["enroute"]):
        vs = states[vid]
        advance(vs, schedules[vid], now, cfg.dt, cfg.speed)
        if vs.phase is Phase.PARKED:
            arrived.append(vid)
        else:
            positions[vid] = position_of(vs, state.graph)
    while ref["heap"] and ref["heap"][0][0] <= now + cfg.dt:
        depart_time, vid = heapq.heappop(ref["heap"])
        vs = states[vid]
        ref["late"] += depart_time <= now
        advance(vs, schedules[vid], now, cfg.dt, cfg.speed)
        positions[vid] = position_of(vs, state.graph)
    ref["enroute"] = set(positions)
    for vid in arrived:
        queue_next_trip(ref, vid)
        trips, nxt = schedules[vid].trips, states[vid].next_trip
        ref["due_on_arrival"] += nxt < len(trips) and trips[nxt].depart_time <= now + cfg.dt
    if cfg.parked_exchange:
        for vs in states:
            if vs.phase is Phase.PARKED:
                positions[vs.vehicle_id] = (state.graph.node_x[vs.node],
                                            state.graph.node_y[vs.node])
    contacts = brute_force_pairs(positions, cfg.comm_range)

    gain = cfg.transfer_rate / (8.0 * cfg.wire_bytes()) * cfg.dt
    degree = {}
    for a, b in contacts:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    accum, touched = {}, set()
    for a, b in contacts:
        acc = ref["accum"].get((a, b), [0.0, 0.0])
        acc[0] += gain / degree[a] if cfg.share_bandwidth else gain
        acc[1] += gain / degree[b] if cfg.share_bandwidth else gain
        n_ab, n_ba = int(acc[0]), int(acc[1])
        acc[0] -= n_ab
        acc[1] -= n_ba
        accum[(a, b)] = acc
        if n_ab or n_ba:
            sent_ab, sent_ba = reference_exchange(state.stores[a], state.stores[b], n_ab,
                                                  n_ba, state.rng)
            if sent_ab.size:
                touched.add(b)
            if sent_ba.size:
                touched.add(a)
    ref["accum"] = accum
    state.tick += 1
    for vid in touched:
        store = state.stores[vid]
        if store.completed_at is None and store.count >= cfg.decode_threshold:
            store.completed_at = state.clock
    return positions, contacts


def outcome(state):
    return (
        [(s.mask.tolist(), s.count, s.completed_at) for s in state.stores],
        state.completed_count,
        state.tick,
        state.rng.bit_generator.state,
    )


def spy_on_contacts(monkeypatch, seen):
    """Append each engine.step span's radio rows and all their contacts,
    full stores or not, to seen, as (rows, contacts)."""
    spy_on_steps(monkeypatch, lambda state, n_ticks, rows: seen.append(
        (rows, all_contacts(rows, state.cfg.comm_range))))


def radio(seen):
    """The sorted rows and the contacts, in order, of the recorded calls."""
    return (sorted(tuple(r) for rows, _ in seen for r in rows.tolist()),
            [tuple(c) for _, contacts in seen for c in contacts.tolist()])


def drive_in_spans(monkeypatch, state, n_steps, span_len, seen):
    """Step state in spans of up to span_len ticks, laying out days as run()
    does; every span's rows and contacts are appended to seen."""
    import vancast.engine as engine

    spy_on_contacts(monkeypatch, seen)
    while state.tick < n_steps:
        if state.tick == state.day.end:
            engine._next_window(state)
        engine.step(state, min(span_len, state.day.end - state.tick))
    monkeypatch.undo()


ORACLE_CASES = {
    # late departures: trips outlast the gaps between departures
    "late": dict(n_vehicles=25, mean_trips=300.0, speed=3.0, sim_duration=2_400.0),
    "parked": dict(n_vehicles=15, mean_trips=300.0, speed=3.0, parked_exchange=True,
                   transfer_rate=20_000.0, sim_duration=1_800.0),
    "shared": dict(n_vehicles=30, mean_trips=200.0, share_bandwidth=True,
                   sim_duration=1_800.0),
    "dt_tenth": dict(n_vehicles=20, mean_trips=150.0, dt=0.1, sim_duration=600.0),
    # a day crossing with vehicles on the road at the boundary
    "day": dict(n_vehicles=30, mean_trips=60.0, speed=0.5, dt=20.0,
                sim_duration=86_400.0 + 14_400.0, main_road_fraction=0.5),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_span_pass_matches_per_tick_reference(monkeypatch, case):
    import copy

    import vancast.engine as engine
    from vancast.mobility import DAY_LEN, Phase, VehicleState

    drawn = []  # the start nodes handed to each day's draw, and its schedules
    real_assign = engine.assign_trips

    def assign(g, start_nodes, *args, **kwargs):
        drawn.append((list(start_nodes), real_assign(g, start_nodes, *args, **kwargs)))
        return drawn[-1][1]

    monkeypatch.setattr(engine, "assign_trips", assign)
    cfg = small_traffic_config(master_seed=sorted(ORACLE_CASES).index(case), **ORACLE_CASES[case])
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    per_day = cfg.steps(DAY_LEN, "one day")
    spans = init_sim(cfg)
    single = copy.deepcopy(spans)

    ref = {"states": [VehicleState(v, Phase.PARKED, home) for v, home in enumerate(drawn[0][0])],
           "enroute": set(), "accum": {}, "late": 0, "due_on_arrival": 0}
    reference_new_day(ref, *drawn[0])
    expect_rows, expect_contacts = [], []
    on_road_at_midnight = None
    while single.tick < n_steps:
        if single.tick == single.day.end:
            on_road_at_midnight = len(ref["enroute"])
            engine._next_window(single)
            reference_new_day(ref, *drawn[-1])
        tick = single.tick
        positions, contacts = reference_step(single, ref)
        expect_rows += [(tick, v, x, y) for v, (x, y) in positions.items()]
        expect_contacts += [(tick, a, b) for a, b in contacts]

    seen = []
    span_len = int(np.random.default_rng(len(case)).integers(50, 400))
    drive_in_spans(monkeypatch, spans, n_steps, span_len, seen)
    assert radio(seen) == (sorted(expect_rows), expect_contacts)
    assert outcome(spans) == outcome(single)
    assert list(spans.day.rest) == resting_nodes(ref)
    assert spans.accum == {k: v for k, v in ref["accum"].items()
                           if not (spans.stores[k[0]].count == spans.stores[k[1]].count
                                   == cfg.n_chunks)}
    assert expect_contacts and spans.completed_count > len(spans.seeds)
    assert ref["late"] > 0 and ref["due_on_arrival"] > 0
    if case == "day":
        assert spans.tick // per_day == 1 and on_road_at_midnight > 0
        assert len(drawn) == 3  # day 0, then day 1 for each run


@pytest.mark.parametrize("share_bandwidth", [False, True])
def test_one_span_equals_single_steps(monkeypatch, share_bandwidth):
    import copy

    import vancast.engine as engine

    cfg = small_traffic_config(n_vehicles=30, mean_trips=200.0,
                               share_bandwidth=share_bandwidth, sim_duration=7_200.0)
    a = init_sim(cfg)
    b = copy.deepcopy(a)
    seen = []
    spy_on_contacts(monkeypatch, seen)
    for n in (1, 2, 300, 1, 900, 37):
        assert engine.step(a, n) is None
        span = radio(seen)
        seen.clear()
        for _ in range(n):
            engine.step(b, 1)
        assert span == radio(seen)
        seen.clear()
        assert outcome(a) == outcome(b) and a.accum == b.accum
    # stepped without run(), the count is still that of the stamped stores
    assert a.completed_count == sum(s.completed_at is not None for s in a.stores)
    assert a.completed_count > len(a.seeds)


def test_span_skips_exchanges_between_two_full_stores(monkeypatch):
    import vancast.engine as engine

    calls = []
    real = engine.exchange

    def spy(sa, sb, n_ab, n_ba, rng):
        calls.append(sa.count == sb.count == sa.n_chunks)
        return real(sa, sb, n_ab, n_ba, rng)

    monkeypatch.setattr(engine, "exchange", spy)
    run(small_traffic_config(n_vehicles=30, mean_trips=100.0, seed_rate=0.5))
    assert calls and not any(calls)
