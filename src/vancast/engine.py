"""Discrete-time simulation core: contacts, chunk exchange, main loop.

Time runs in whole steps: the clock is ``tick * cfg.dt``, never a
running sum.  Each ``step(state)`` advances vehicle motion, finds radio
contacts with a uniform spatial hash, moves coded chunks across every
contact within the link budget, and flags newly completed vehicles;
``run`` samples the completion count.  All randomness flows through one
generator, so a (config, seed) pair reproduces a run bit for bit.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from vancast.config import ExperimentConfig
from vancast.mobility import (
    DAY_LEN,
    Phase,
    TripSchedule,
    VehicleState,
    advance,
    assign_trips,
    position_of,
)
from vancast.roadnet import RoadGraph, generate_manhattan_grid, load_road_graph


class ChunkStore:
    """The set of coded chunk ids one vehicle holds."""

    def __init__(self, n_chunks: int):
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        self.n_chunks = n_chunks
        self.mask = np.zeros(n_chunks, dtype=bool)
        self.count = 0
        self.completed_at: float | None = None

    def add(self, chunk_id: int) -> bool:
        """Add one chunk id; returns True if it was new."""
        if self.mask[chunk_id]:
            return False
        self.mask[chunk_id] = True
        self.count += 1
        return True

    def add_all(self):
        self.mask[:] = True
        self.count = self.n_chunks

    def has(self, chunk_id: int) -> bool:
        return bool(self.mask[chunk_id])

    def ids(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.mask)]


def detect_contacts(
    positions: dict[int, tuple[float, float]], comm_range: float
) -> list[tuple[int, int]]:
    """All pairs (a, b), a < b, at Euclidean distance <= comm_range, sorted.

    Bins positions into a grid of comm_range-sized cells; candidate
    pairs then only come from the same or adjacent cells, so cost stays
    near-linear in vehicle count at typical densities.
    """
    if comm_range <= 0:
        raise ValueError(f"comm_range must be positive, got {comm_range}")
    cells: dict[tuple[int, int], list[int]] = {}
    for vid, (x, y) in positions.items():
        key = (math.floor(x / comm_range), math.floor(y / comm_range))
        cells.setdefault(key, []).append(vid)

    out: list[tuple[int, int]] = []

    def try_pair(u: int, v: int):
        ux, uy = positions[u]
        vx, vy = positions[v]
        if math.hypot(ux - vx, uy - vy) <= comm_range:
            out.append((u, v) if u < v else (v, u))

    # Visit each unordered cell pair once: same cell, plus a fixed
    # half of the eight neighbors.
    half = ((1, 0), (1, 1), (0, 1), (-1, 1))
    for (cx, cy), vids in cells.items():
        for i in range(len(vids)):
            for j in range(i + 1, len(vids)):
                try_pair(vids[i], vids[j])
        for dx, dy in half:
            other = cells.get((cx + dx, cy + dy))
            if other:
                for u in vids:
                    for v in other:
                        try_pair(u, v)
    out.sort()
    return out


def exchange(
    store_a: ChunkStore,
    store_b: ChunkStore,
    budget_ab: int,
    budget_ba: int,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transfer up to budget chunks in each direction of one contact.

    Each side offers the chunk ids the other is missing; when the
    surplus exceeds the budget, the subset actually sent is a uniform
    draw without replacement.  Both directions are computed from the
    pre-exchange stores, so a chunk received this instant is not
    immediately re-offered back.
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
    return tuple(int(i) for i in sent_ab), tuple(int(i) for i in sent_ba)


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
            if prev_t is None or prev_c >= target:
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
    """Everything a running simulation owns."""

    cfg: ExperimentConfig
    graph: RoadGraph
    rng: np.random.Generator
    states: list[VehicleState]
    schedules: list[TripSchedule]
    stores: list[ChunkStore]
    seeds: list[int]
    metrics: Metrics
    tick: int = 0  # whole steps taken
    completed_count: int = 0
    day: int = 0
    enroute: set[int] = field(default_factory=set)
    depart_heap: list[tuple[float, int]] = field(default_factory=list)
    accum: dict[tuple[int, int], list[float]] = field(default_factory=dict)

    @property
    def clock(self) -> float:
        """Simulated seconds: tick * cfg.dt, computed afresh, never summed."""
        return self.tick * self.cfg.dt


def build_graph(cfg: ExperimentConfig) -> RoadGraph:
    if cfg.graph_file:
        return load_road_graph(cfg.graph_file)
    return generate_manhattan_grid(cfg.rows, cfg.cols, cfg.block_len, cfg.main_cols)


def _queue_next_trip(state: SimState, vid: int):
    """Queue a parked vehicle's next departure, if it has one left today."""
    trips = state.schedules[vid].trips
    nxt = state.states[vid].next_trip
    if nxt < len(trips):
        heapq.heappush(state.depart_heap, (trips[nxt].depart_time, vid))


def _new_day(state: SimState):
    """Replace every schedule with a fresh day of trips.

    Vehicles start the new day wherever they rest: their parked node,
    or the destination of a route still being driven.  Trips of the old
    day that never departed are dropped.  Day 0 starts with every
    vehicle parked at home.
    """
    cfg = state.cfg
    starts = []
    for vs in state.states:
        if vs.phase is Phase.EN_ROUTE:
            assert vs.route is not None
            starts.append(vs.route.dst)
        else:
            starts.append(vs.node)
    state.schedules = assign_trips(
        state.graph,
        cfg.n_vehicles,
        cfg.mean_trips,
        cfg.max_trip_dist,
        state.rng,
        day_start=state.day * DAY_LEN,
        policy=cfg.routing_policy,
        main_road_fraction=cfg.main_road_fraction,
        start_nodes=starts,
    )
    state.depart_heap = []
    for vs in state.states:
        vs.next_trip = 0
        if vs.phase is Phase.PARKED:
            _queue_next_trip(state, vs.vehicle_id)


def init_sim(cfg: ExperimentConfig, graph: RoadGraph | None = None) -> SimState:
    """Build the initial simulation state for a configuration."""
    cfg.validate()
    g = graph if graph is not None else build_graph(cfg)
    rng = np.random.default_rng(cfg.master_seed)
    n = cfg.n_vehicles

    stores = [ChunkStore(cfg.n_chunks) for _ in range(n)]
    seeds = provision_seeds(stores, cfg.seed_rate, rng)

    homes = [int(v) for v in rng.integers(g.n_nodes, size=n)]
    state = SimState(
        cfg=cfg,
        graph=g,
        rng=rng,
        states=[VehicleState(vid, Phase.PARKED, homes[vid]) for vid in range(n)],
        schedules=[],
        stores=stores,
        seeds=seeds,
        metrics=Metrics([(0.0, len(seeds))]),
        completed_count=len(seeds),
    )
    _new_day(state)
    return state


def step(state: SimState):
    """Advance the simulation by one step of cfg.dt seconds (one tick).

    The order is: move every vehicle on the road, depart the vehicles
    due by the end of the step, re-queue the next trip of each arrival,
    find radio contacts, exchange chunks over them, and flag completions
    at the step's end.  A departing vehicle stands at its origin for this
    step but already takes part in contacts; a vehicle that arrives
    departs again on the next step at the earliest.
    """
    cfg = state.cfg
    now = state.clock
    horizon = now + cfg.dt  # the departure bound advance() tests

    positions: dict[int, tuple[float, float]] = {}
    arrived: list[int] = []
    for vid in state.enroute:
        vs = state.states[vid]
        advance(vs, state.schedules[vid], now, cfg.dt, cfg.speed)
        if vs.phase is Phase.PARKED:
            arrived.append(vid)
        else:
            positions[vid] = position_of(vs, state.graph)
    while state.depart_heap and state.depart_heap[0][0] <= horizon:
        _, vid = heapq.heappop(state.depart_heap)
        vs = state.states[vid]
        advance(vs, state.schedules[vid], now, cfg.dt, cfg.speed)
        positions[vid] = position_of(vs, state.graph)
    state.enroute = set(positions)
    for vid in arrived:
        _queue_next_trip(state, vid)

    if cfg.parked_exchange:
        for vs in state.states:
            if vs.phase is Phase.PARKED:
                positions[vs.vehicle_id] = state.graph.node_pos(vs.node)

    contacts = detect_contacts(positions, cfg.comm_range)

    gain = cfg.transfer_rate / (8.0 * cfg.wire_bytes()) * cfg.dt  # chunks a step
    degree: dict[int, int] = {}
    if cfg.share_bandwidth:
        for a, b in contacts:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1

    new_accum: dict[tuple[int, int], list[float]] = {}
    touched: set[int] = set()
    for a, b in contacts:
        acc = state.accum.get((a, b), [0.0, 0.0])
        if cfg.share_bandwidth:
            acc[0] += gain / degree[a]
            acc[1] += gain / degree[b]
        else:
            acc[0] += gain
            acc[1] += gain
        n_ab = int(acc[0])
        n_ba = int(acc[1])
        acc[0] -= n_ab
        acc[1] -= n_ba
        new_accum[(a, b)] = acc
        if n_ab or n_ba:
            sent_ab, sent_ba = exchange(
                state.stores[a], state.stores[b], n_ab, n_ba, state.rng
            )
            if sent_ab:
                touched.add(b)
            if sent_ba:
                touched.add(a)
    state.accum = new_accum

    state.tick += 1
    for vid in touched:
        store = state.stores[vid]
        if store.completed_at is None and store.count >= cfg.decode_threshold:
            store.completed_at = state.clock
            state.completed_count += 1


def run(cfg: ExperimentConfig, graph: RoadGraph | None = None) -> SimState:
    """Run sim_duration / dt steps and return the final state.

    Every DAY_LEN / dt steps the day boundary re-rolls every trip schedule
    (vehicles keep their location across days).  The completion count is
    sampled every sample_interval / dt steps and after the last step.
    """
    state = init_sim(cfg, graph)
    n_steps = cfg.steps(cfg.sim_duration, "sim_duration")
    per_sample = cfg.steps(cfg.sample_interval, "sample_interval")
    per_day = cfg.steps(DAY_LEN, "one day")
    for tick in range(n_steps):
        if tick and tick % per_day == 0:
            state.day += 1
            _new_day(state)
        step(state)
        if state.tick % per_sample == 0 or state.tick == n_steps:
            state.metrics.samples.append((state.clock, state.completed_count))
    return state
