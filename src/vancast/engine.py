"""Discrete-time simulation core: contacts, chunk exchange, main loop.

Time runs in whole steps (ticks): the clock is ``tick * cfg.dt``, never
a running sum.  Motion never depends on chunks, so at each day's first
tick the engine draws the whole day's trips, and
:func:`vancast.mobility.lay_out_day` lays them out a window at a time as
a :class:`vancast.mobility.Timetable`, which then answers every question
about motion.  Day 0 is one window, laid out in :func:`init_sim`; a
later day's windows hold about ``WINDOW_TRIPS`` trips each.  A trip is
routed when its window is laid out: one due in a later window keeps
where its route's draws lie (its vehicle's generator state before the
vehicle's one read of raw words, and the word offset in that read) and
is routed from there, to the route it would have had, and one due after
the run is never routed.  So the random stream is the same, draw for
draw, however the days are split.  Once every store is full no later
tick can change a store, a stamp or a sample, so ``run`` stops at the
end of the window it is in and routes nothing after it.

``step(state, n)`` simulates n ticks in one pass: one
:meth:`vancast.mobility.Timetable.radio_pairs` call (the join, the
engine's one contact search) gives the span's radio rows that may be in
a contact with a live end, a vehicle whose store was not full at the
span's first tick, and the pairs of them to check; one
:func:`detect_contacts` call checks them; and the chunk exchange then
runs, in order, only at ticks that have contacts.  Stores fill
mid-span, so the exchange runs over a span's contacts in blocks: it
drops, at each block's start, those whose two stores are both full by
then, and skips a contact of the block whose two stores have both
filled since, with one test of two flags.  This gives the same results,
draw for draw, as moving, detecting and exchanging one tick at a time.
A vehicle's completion is recorded once, as its store's ``completed_at``
stamp.  ``run`` sizes each span by its radio rows, not by its ticks:
a span ends at the last tick that keeps it within ``SPAN_ROWS`` rows
(at least one tick, never past the timetable's end), counted exactly
off the timetable.  That pays a step's fixed cost once for many sparse
ticks while keeping a dense span's per-row arrays in cache.  When the
timetable is used up, ``run`` lays out the next window
(:func:`_next_window`, which also lays out day 0 for :func:`init_sim`),
unless the run has settled, and builds the completion samples once,
from the stamps.  All randomness flows through one generator, so a
(config, seed) pair reproduces a run bit for bit.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from vancast.config import ExperimentConfig
from vancast.mobility import (DAY_LEN, ScheduleError, Timetable, assign_trips, deferred_router,
                              due_by, lay_out_day)
from vancast.roadnet import (RoadGraph, check_road_sums, float_text, generate_manhattan_grid,
                             load_road_graph)

# Most radio rows run() hands to one step() call, as Timetable.span_end
# counts them (Timetable.rows_before); Timetable.radio_pairs places only
# some of them.  A call has a fixed cost (the numpy calls of radio_pairs
# and detect_contacts, a pass over every store), so sparse ticks share long
# spans; its per-row and per-pair arrays must stay in cache, so dense
# ticks get short ones.  A span still holds at least one tick, however
# many rows it has.
SPAN_ROWS = 16_000

# Trips that one layout window holds, in expectation, from day 1 on: a
# window lasts DAY_LEN * WINDOW_TRIPS / (n_vehicles * mean_trips) seconds,
# at least a tick, at most the rest of the day.  A run that settles stops
# at the end of its window, so the trips after it are never routed; a
# window has a fixed cost (a pass over every vehicle's schedule), so it
# holds many trips.
WINDOW_TRIPS = 2_048

# Contacts step() hands its exchange loop at a time: at each block's start
# it drops those whose two stores are both full by then, in bulk, and the
# loop skips a contact of the block whose two stores have both filled
# since.  A store fills once, so the skipped contacts are few beside the
# dropped ones, while a block's numpy calls are paid once per block.
EXCHANGE_BLOCK = 256


class ChunkStore:
    """The set of coded chunk ids one vehicle holds."""

    def __init__(self, n_chunks: int):
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        self.n_chunks = n_chunks
        self.mask = np.zeros(n_chunks, dtype=bool)
        self.count = 0
        self.completed_at: float | None = None

    def add_all(self):
        self.mask[:] = True
        self.count = self.n_chunks

    def ids(self) -> list[int]:
        return np.flatnonzero(self.mask).tolist()


def detect_contacts(rows: np.ndarray, comm_range: float, pairs: np.ndarray) -> np.ndarray:
    """The radio contacts among the given pairs of rows of (tick, vehicle,
    x, y), a float array of shape (n, 4) with at most one row per vehicle
    and tick.

    ``pairs`` is an int array of shape (2, m) whose columns are pairs of
    rows at a common tick, each (tick, vehicle pair) once, as
    :meth:`vancast.mobility.Timetable.radio_pairs` gives them; exactly
    those are checked.  Returns an int array of (tick, a, b) rows, one for
    each pair a < b within Euclidean distance comm_range (inclusive),
    sorted.  Membership is exactly ``math.hypot(dx, dy) <= comm_range``.
    Pairs are checked as many at a time as there are rows, so the check's
    temporaries stay within the rows' size.  Raises ValueError, naming
    ``pairs``, unless it is an int array of shape (2, m) of row indices
    that pairs no row with itself and no two rows at different ticks.
    """
    if comm_range <= 0:
        raise ValueError(f"comm_range must be positive, got {comm_range}")
    rows = np.asarray(rows, dtype=float).reshape(-1, 4)
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or len(pairs) != 2 or pairs.dtype.kind not in "iu":
        raise ValueError(f"pairs must be an int array of shape (2, m), got {pairs.dtype} of "
                         f"shape {pairs.shape}")
    if pairs.size and not (0 <= pairs.min() and pairs.max() < len(rows)):
        raise ValueError(f"pairs must index rows 0 to {len(rows) - 1}, got {pairs.min()} "
                         f"to {pairs.max()}")
    t, x, y = rows[:, 0], rows[:, 2], rows[:, 3]
    size = max(len(rows), 1)
    pair_i, pair_j = pairs
    found_i, found_j = [], []
    for at in range(0, len(pair_i), size):
        i, j = pair_i[at:at + size], pair_j[at:at + size]
        if (i == j).any():
            raise ValueError(f"pairs holds row {i[i == j][0]} paired with itself")
        if (t[i] != t[j]).any():
            raise ValueError("pairs holds a pair of rows at different ticks")
        d = x[i]
        d -= x[j]
        dy = y[i]
        dy -= y[j]
        np.hypot(d, dy, out=d)
        del dy
        near = d <= comm_range
        # np.hypot and math.hypot may differ in the last bit: decide the
        # pairs at the boundary with math.hypot.
        d -= comm_range
        np.abs(d, out=d)
        for k in np.flatnonzero(d <= 1e-9 * comm_range).tolist():
            near[k] = math.hypot(x[i[k]] - x[j[k]], y[i[k]] - y[j[k]]) <= comm_range
        del d
        found_i.append(i[near])
        found_j.append(j[near])
    if not sum(map(len, found_i)):
        return np.zeros((0, 3), dtype=np.int64)
    i, j = np.concatenate(found_i), np.concatenate(found_j)
    del found_i, found_j
    # A span's pairs can outnumber its rows many times over: per-pair
    # arrays are built in place and dropped as soon as they are used.
    tick, vid = rows[:, 0].astype(np.int64), rows[:, 1].astype(np.int64)
    found = np.empty((len(i), 3), dtype=np.int64)
    found[:, 0] = tick[i]
    a, b = vid[i], vid[j]
    del i, j
    np.minimum(a, b, out=found[:, 1])
    np.maximum(a, b, out=found[:, 2])
    del a, b
    # Sort by (t, a, b) on one int64 key of offsets when it provably fits
    # (t and a and b offsets within the rows' ranges); ids spread wider
    # than that are sorted column by column.
    t_min, v0 = int(tick.min()), int(vid.min())
    n_ticks, nv = int(tick.max()) - t_min + 1, int(vid.max()) - v0 + 1
    if n_ticks * nv * nv < 2**63:
        key = found[:, 0] - t_min
        key *= nv
        key += found[:, 1] - v0
        key *= nv
        key += found[:, 2] - v0
        order = np.argsort(key)
        del key
    else:
        order = np.lexsort((found[:, 2], found[:, 1], found[:, 0]))
    return found[order]


def exchange(
    store_a: ChunkStore,
    store_b: ChunkStore,
    budget_ab: int,
    budget_ba: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Transfer up to budget chunks in each direction of one contact.

    Each side offers the chunk ids the other is missing; when the surplus
    exceeds the budget, a uniform draw without replacement picks the ids
    sent, a -> b first.  Both directions see the pre-exchange stores (b
    gets only a's chunks), so nothing received is re-offered back.
    Returns the ids sent a -> b and b -> a, each a sorted int array.  A
    direction finds its surplus with one comparison and one ``nonzero``
    and, if the surplus exceeds its budget, draws: a 1- or 2-chunk pick
    takes 1 or 3 ``rng.integers`` draws, the same draws ``rng.choice``
    makes (:func:`_pick`), and a larger pick calls ``rng.choice``.  With
    no budget, an empty giver or a full receiver it makes no pass at all.
    """
    if budget_ab < 0 or budget_ba < 0:
        raise ValueError("budgets must be >= 0")
    if store_a.n_chunks != store_b.n_chunks:
        raise ValueError("stores disagree on the chunk universe")
    sent_ab = _send(store_a, store_b, budget_ab, rng)
    return sent_ab, _send(store_b, store_a, budget_ba, rng)


_NOTHING = np.zeros(0, dtype=np.intp)  # what a direction that makes no pass sends


def _send(giver: ChunkStore, receiver: ChunkStore, budget: int, rng: np.random.Generator):
    """One direction of :func:`exchange`, sent and added to receiver."""
    if not budget or not giver.count or receiver.count == receiver.n_chunks:
        return _NOTHING
    ids = (giver.mask > receiver.mask).nonzero()[0]  # giver & ~receiver
    if len(ids) > budget:
        if budget <= 2:
            ids = _pick(ids, budget, rng)
        else:
            ids = rng.choice(ids, size=budget, replace=False)
            ids.sort()
    if len(ids):
        receiver.mask[ids] = True
        receiver.count += len(ids)
    return ids


def _pick(ids, k: int, rng: np.random.Generator):
    """k = 1 or 2 of ids (k < len(ids)), sorted: the picks of ``rng.choice(ids,
    size=k, replace=False)``, made with the same draws, so rng ends in the
    same state (pinned by ``tests/test_engine.py::test_pick_makes_the_draws_of_choice``).

    ``choice`` runs Floyd's algorithm (Bentley and Floyd, CACM 1987) for so
    few picks: one bounded integer on [0, j] for each j from n - k to
    n - 1, where a value already picked gives way to j, then one draw to
    shuffle the picks, whose order the sort drops.  By hand that is 1 draw
    for one chunk and 3 for two, far cheaper than a ``choice`` call; from
    three chunks on, the 2k - 1 scalar draws and Floyd's set of picks cost
    more than ``choice`` does.
    """
    n = len(ids)
    if k == 1:
        i = rng.integers(n)
        return ids[i:i + 1]
    i, j = rng.integers(n - 1), rng.integers(n)
    rng.integers(2)  # choice's shuffle of the pair
    if j == i:
        j = n - 1
    lo, hi = (i, j) if i < j else (j, i)
    return ids[lo:hi + 1:hi - lo]  # ids[lo] and ids[hi], one view


def provision_seeds(
    stores: list[ChunkStore], seed_rate: float, rng: np.random.Generator
) -> list[int]:
    """Give a random seed_rate share of vehicles the full chunk set.

    The seed count rounds half-up, with a floor of one whenever the
    rate is positive, so tiny rates on small fleets still seed someone.
    Returns the sorted seed vehicle ids; their stores are filled and
    marked complete at t=0.
    """
    if not (0.0 <= seed_rate <= 1.0):
        raise ValueError(f"seed_rate must lie in [0, 1], got {seed_rate}")
    n = len(stores)
    n_seeds = int(n * seed_rate + 0.5)
    if seed_rate > 0 and n_seeds == 0:
        n_seeds = 1
    n_seeds = min(n_seeds, n)
    if n_seeds == 0:
        return []
    vids = sorted(int(v) for v in rng.choice(n, size=n_seeds, replace=False))
    for vid in vids:
        stores[vid].add_all()
        stores[vid].completed_at = 0.0
    return vids


@dataclass
class Metrics:
    """Completion counts sampled on a fixed time grid."""

    samples: list[tuple[float, int]] = field(default_factory=list)


def time_to_fraction(metrics: Metrics, frac: float, n_vehicles: int) -> float | None:
    """First time the completed fraction reaches frac, or None.

    Interpolates linearly between the two samples that straddle the
    threshold, since completion counts only move on sample boundaries.
    """
    if not (0.0 < frac <= 1.0):
        raise ValueError(f"frac must lie in (0, 1], got {frac}")
    target = frac * n_vehicles
    prev_t, prev_c = None, None
    for t, c in metrics.samples:
        if c >= target:
            if prev_t is None:
                return t
            return prev_t + (target - prev_c) / (c - prev_c) * (t - prev_t)
        prev_t, prev_c = t, c
    return None


def write_metrics_csv(metrics: Metrics, n_vehicles: int, path: str):
    """Write time_s,completed_count,completed_fraction rows."""
    with open(path, "w", newline="") as fh:
        fh.write("time_s,completed_count,completed_fraction\n")
        for t, c in metrics.samples:
            fh.write(f"{t:.15g},{c},{c / n_vehicles:.6f}\n")


@dataclass
class SimState:
    """Everything a running simulation owns; the day is ``tick // (DAY_LEN / dt)``,
    and ``metrics`` stays empty until :func:`run` samples the finished run.
    A store's ``completed_at`` is the one record of its vehicle's completion.
    ``day`` is the timetable of the window that ends at ``day.end``."""

    cfg: ExperimentConfig
    graph: RoadGraph
    rng: np.random.Generator
    day: Timetable  # the window's motion; its rest nodes start the next one
    stores: list[ChunkStore]
    seeds: list[int]
    metrics: Metrics
    tick: int = 0  # whole steps taken
    # Link budget carried by each pair in contact at the last tick.
    accum: dict[tuple[int, int], list[float]] = field(default_factory=dict)

    @property
    def clock(self) -> float:
        """Simulated seconds: tick * cfg.dt, computed afresh, never summed."""
        return self.tick * self.cfg.dt

    @property
    def completed_count(self) -> int:
        """Vehicles whose store is stamped complete, seeds included."""
        return sum(s.completed_at is not None for s in self.stores)

    @property
    def settled(self) -> bool:
        """Every store holds every chunk: no later tick can change a store,
        a stamp or a sample."""
        return all(s.count == self.cfg.n_chunks for s in self.stores)


def build_graph(cfg: ExperimentConfig) -> RoadGraph:
    if cfg.graph_file:
        g = load_road_graph(cfg.graph_file)
        check_road_sums(g, f"graph_file {cfg.graph_file}")
        return g
    return generate_manhattan_grid(cfg.rows, cfg.cols, cfg.block_len, cfg.main_cols)


def _window_end(cfg: ExperimentConfig, start: int) -> int:
    """The end tick of the layout window that starts at tick start: the
    day's end (or the run's, if sooner) on day 0, else after about
    ``WINDOW_TRIPS`` of the fleet's trips (see there)."""
    per_day = cfg.steps(DAY_LEN, "one day")
    day_end = min((start // per_day + 1) * per_day, cfg.steps(cfg.sim_duration, "sim_duration"))
    if start < per_day or not cfg.mean_trips:
        return day_end
    ticks = per_day * WINDOW_TRIPS / (cfg.n_vehicles * cfg.mean_trips)
    return day_end if ticks >= day_end - start else start + max(1, math.ceil(ticks))


def _next_window(state: SimState) -> None:
    """Lay out the window that starts at ``state.tick``, after ``state.day``.

    At a day's first tick the day's trips are drawn: every vehicle starts
    the day where the old timetable leaves it (``state.day.rest``), its
    parked node or the destination of a drive still on the road, which
    carries over into the new timetable, and trips the old timetable left
    pending are dropped.  Day 0 starts with every vehicle parked at home,
    and its window is the whole day (or the run, if shorter), so its
    routing is set-up work; a later window holds about ``WINDOW_TRIPS``
    trips (:func:`_window_end`).  Every trip of the day is drawn, but only
    those due by the window's end (:func:`vancast.mobility.due_by`) are
    routed; later ones due by the day's end are deferred, and the rest,
    which could only depart after the run, are dropped.  A later window
    of the day lays out the trips the last one left pending, deferred ones
    routed as they are laid out (:func:`vancast.mobility.deferred_router`),
    with no draw of ``state.rng``.  The draws stay the same however the
    day is split (see :func:`vancast.mobility.lay_out_day`, whose odometer
    stops at the run's end).
    """
    cfg, start = state.cfg, state.tick
    per_day = cfg.steps(DAY_LEN, "one day")
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    end = _window_end(cfg, start)
    schedules = None  # a later window lays out the pending trips
    if start % per_day == 0:
        schedules = assign_trips(
            state.graph,
            state.day.rest,
            cfg.mean_trips,
            cfg.max_trip_dist,
            state.rng,
            day_start=(start // per_day) * DAY_LEN,
            policy=cfg.routing_policy,
            main_road_fraction=cfg.main_road_fraction,
            until=due_by(end, cfg.dt),
            drop_after=due_by(min(start + per_day, n_steps), cfg.dt),
        )
    state.day = lay_out_day(state.day, schedules, start, end, cfg.dt, cfg.speed,
                            cfg.parked_exchange, n_steps, deferred_router(state.graph, state.rng))


def init_sim(cfg: ExperimentConfig) -> SimState:
    """Build the initial simulation state for a configuration, day 0 laid out:
    :func:`prepare_sim`'s state, then day 0's trips."""
    state = prepare_sim(cfg)
    _next_window(state)
    return state


def prepare_sim(cfg: ExperimentConfig) -> SimState:
    """The state :func:`init_sim` starts from: graph, seeds and homes drawn,
    day 0 not yet laid out.  It makes every refusal of a run's set-up, so a
    sweep calls it on each cell before its first run.

    Raises ScheduleError, before any trip is drawn, if a home has no
    destination within max_trip_dist.  No later origin can lack one: the
    graph is undirected, so the last trip's origin is within reach.
    Raises ValueError, also before any trip is drawn, if trips would route
    over main roads on a graph that has none, or, before any draw, naming
    comm_range, if the nodes' cells of comm_range could not be keyed
    exactly in int64 over a span of up to a day, two spare cells a side:
    a cell not finite or more than 2**52 - 2 from the origin, or ticks
    times cells of 2**62 or more.  This checks input from outside the
    program: a graph-file node 1e300 m out is refused here, before
    :meth:`vancast.roadnet.RoadGraph.near_places` computes with it.
    """
    cfg.validate()
    g = build_graph(cfg)
    with np.errstate(over="ignore"):  # an infinite cell fails the bound below
        cells = np.floor(np.array([g.node_x, g.node_y]) / cfg.comm_range)
    lo, hi = cells.min(axis=1), cells.max(axis=1)
    if not (np.abs([lo, hi]) <= 2**52 - 2).all():  # false for NaN too
        raise ValueError(f"radio positions must be finite and under 2**52 cells of "
                         f"comm_range = {cfg.comm_range} m from the origin")
    n_ticks = min(cfg.steps(DAY_LEN, "one day"), cfg.steps(cfg.sim_duration, "sim_duration"))
    nx, ny = (int(span) + 5 for span in hi - lo)  # the box's cells, two spare a side
    if n_ticks * nx * ny >= 2**62:
        raise ValueError(f"positions span too many comm_range = {cfg.comm_range} m cells over "
                         f"{n_ticks} ticks to index")
    rng = np.random.default_rng(cfg.master_seed)
    n = cfg.n_vehicles

    stores = [ChunkStore(cfg.n_chunks) for _ in range(n)]
    seeds = provision_seeds(stores, cfg.seed_rate, rng)

    homes = [int(v) for v in rng.integers(g.n_nodes, size=n)]
    if cfg.mean_trips > 0 and cfg.sim_duration > 0:
        if not g.main_nodes and (cfg.main_road_fraction > 0
                                 or cfg.routing_policy == "main_road"):
            key = ("routing_policy = main_road" if cfg.routing_policy == "main_road" else
                   f"main_road_fraction = {float_text(cfg.main_road_fraction)}")
            where = f"graph_file {cfg.graph_file}" if cfg.graph_file else "main_cols"
            raise ValueError(f"{key} needs main roads, but {where} gives none")
        for home in sorted(set(homes)):
            if not g.nodes_within(home, cfg.max_trip_dist):
                raise ScheduleError(f"no destination within {float_text(cfg.max_trip_dist)} m "
                                    f"of node {home} (max_trip_dist)")
    return SimState(cfg=cfg, graph=g, rng=rng, day=Timetable(tuple(homes)), stores=stores,
                    seeds=seeds, metrics=Metrics())


def step(state: SimState, n_ticks: int = 1) -> None:
    """Advance the simulation by n_ticks steps of cfg.dt seconds.

    Per tick, in order: every vehicle on the road moves, vehicles due by
    the end of the step depart, radio contacts form, chunks cross every
    contact within its link budget, and a receiver that reaches
    ``decode_threshold`` gets its store's ``completed_at`` stamp: the
    step's end.  A departing vehicle stands at its origin on its
    departure tick but already takes part in contacts; an arrival departs
    again on the next tick at the earliest.

    Motion never depends on chunks, so the span's rows and the pairs of
    them to check come from one call to the window's timetable
    (:meth:`vancast.mobility.Timetable.radio_pairs`), contacts from one
    :func:`detect_contacts` call, and :func:`exchange` then runs in (tick,
    a, b) order, with the same floats and draws as n_ticks single steps.
    A contact whose two stores both held every chunk at the span's first
    tick can move nothing and draws nothing, so the join is given the
    mask of stores not full then (``live``).  Under ``share_bandwidth``
    it joins every interval (``every``), since a link's share divides by
    the degree of each end, and that degree counts contacts between two
    full stores too; those contacts are then dropped.  A contact whose
    two stores are both full by the time it is reached is skipped, its
    link budget left as it was: dropped in bulk if they were full when
    its block of ``EXCHANGE_BLOCK`` contacts began, else passed over by
    the loop's first test.  Nor is :func:`exchange` called for two empty
    stores, though their link budget still accrues.  A pair's link budget
    carries over only to the next tick.  The timetable refuses a span
    past its end, ``state.day.end``, before the clock moves; ``run`` lays
    out the next window when a span reaches it.
    """
    if n_ticks < 1:
        raise ValueError(f"n_ticks must be >= 1, got {n_ticks}")
    cfg, stores = state.cfg, state.stores
    t0, t1 = state.tick, state.tick + n_ticks
    live = np.array([s.count for s in stores]) != cfg.n_chunks
    rows, pairs = state.day.radio_pairs(state.graph, t0, t1, live, cfg.comm_range,
                                        cfg.share_bandwidth)
    contacts = detect_contacts(rows, cfg.comm_range, pairs)
    del rows, pairs
    state.tick = t1

    gain = cfg.chunks_per_step()
    gains = None  # (a -> b, b -> a) for each contact, if not (gain, gain)
    if cfg.share_bandwidth:
        # Each contact's end a, then each one's end b, keyed by tick and vehicle.
        ends = ((contacts[:, 0] - t0) * cfg.n_vehicles + contacts[:, 1:].T).ravel()
        _, where, degree = np.unique(ends, return_inverse=True, return_counts=True)
        either = live[contacts[:, 1:]].any(axis=1)
        contacts = contacts[either]
        gains = (gain / degree[where].reshape(2, -1))[:, either].T

    n_chunks, threshold, dt, rng = cfg.n_chunks, cfg.decode_threshold, cfg.dt, state.rng
    now, new_accum = t0 - 1, state.accum  # the last tick and its pairs' budgets
    full = ~live  # updated as stores fill, and the same as a list
    full_list = full.tolist()
    for lo in range(0, len(contacts), EXCHANGE_BLOCK):
        block = contacts[lo:lo + EXCHANGE_BLOCK]
        open_ = ~(full[block[:, 1]] & full[block[:, 2]])
        block_gains = (itertools.repeat((gain, gain)) if gains is None else
                       gains[lo:lo + EXCHANGE_BLOCK][open_].tolist())
        for (t, va, vb), (g_a, g_b) in zip(block[open_].tolist(), block_gains):
            if full_list[va] and full_list[vb]:  # both filled since the block began
                continue
            if t != now:
                accum = new_accum if t == now + 1 else {}
                new_accum, now = {}, t
            sa, sb = stores[va], stores[vb]
            if acc := accum.get((va, vb)):
                acc[0] += g_a
                acc[1] += g_b
            else:
                acc = [g_a, g_b]  # 0.0 + g is g: gains are positive
            n_ab, n_ba = int(acc[0]), int(acc[1])
            acc[0], acc[1] = acc[0] - n_ab, acc[1] - n_ba
            new_accum[(va, vb)] = acc
            if (n_ab or n_ba) and (sa.count or sb.count):
                sent_ab, sent_ba = exchange(sa, sb, n_ab, n_ba, rng)
                # Only receivers: a hand-built state may hold an unstamped store at the
                # threshold.
                if len(sent_ab):
                    if sb.completed_at is None and sb.count >= threshold:
                        sb.completed_at = (t + 1) * dt
                    if sb.count == n_chunks:
                        full[vb] = full_list[vb] = True
                if len(sent_ba):
                    if sa.completed_at is None and sa.count >= threshold:
                        sa.completed_at = (t + 1) * dt
                    if sa.count == n_chunks:
                        full[va] = full_list[va] = True
    state.accum = new_accum if now == t1 - 1 else {}


def run(cfg: ExperimentConfig) -> SimState:
    """Run sim_duration / dt steps, or until the run settles, and return
    the final state.

    Steps are taken in spans sized by their radio rows: each ends at the
    last tick that keeps its rows within ``SPAN_ROWS``, counted exactly
    off the timetable (:meth:`vancast.mobility.Timetable.span_end`), but
    takes at least one tick and never runs past the timetable's end.
    The split does not change the results.  When a span reaches the end
    before the run's end, the run stops if it has settled
    (:attr:`SimState.settled`).  Otherwise the next window is laid out
    (:func:`_next_window`, which draws the next day's trips afresh at
    midnight): vehicles keep their location across windows and days, and
    drives on the road carry on into the new timetable.  Neither the
    window split nor the stop changes the results.  The RNG order is that
    of single steps: a day's trips at its first tick, then exchange draws
    in (tick, a, b) order; a deferred trip's route is drawn from a scratch
    copy.

    A run that settles returns early: ``tick`` is the end of the last
    window laid out (``day``, whose ``end`` it is), and ``rng`` has made
    the draws of the days begun and of every exchange up to that tick.
    Its stores, stamps and samples are those of the full run, which
    would make only more draws.  The completion count is sampled every
    sample_interval / dt steps from tick 0 and after the last step, all at
    once from the stores' stamps: a sample at tick t counts the stamps at
    or before ``t * dt``.  A stamp is ``k * dt`` for a whole k too, and
    rounding is monotone, so this compares the tick counts exactly.
    """
    state = init_sim(cfg)
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    per_sample = cfg.steps(cfg.sample_interval, "sample_interval")
    while state.tick < n_steps:
        if state.tick == state.day.end:
            if state.settled:
                break
            _next_window(state)
        step(state, state.day.span_end(state.tick, SPAN_ROWS) - state.tick)
    stamps = sorted(s.completed_at for s in state.stores if s.completed_at is not None)
    state.metrics.samples = [(t * cfg.dt, bisect.bisect_right(stamps, t * cfg.dt))
                             for t in [*range(0, n_steps, per_sample), n_steps]]
    return state
