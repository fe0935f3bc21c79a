"""The benchmark's workloads: inputs from a seed, one measured repetition, checks.

Every workload is a closed, single-process run: encode the file, build
and run one simulation (set-up is ``engine.init_sim``; the run phase is
``engine.run`` after its ``init_sim`` returns), write the metrics CSV,
then decode completed vehicles' collections against the encoded file.
Phases are timed by wrapping ``engine.init_sim`` and ``engine.run`` (see
``tracer.py``), never from code inside ``src/vancast``, and converted to
reference seconds by the running :class:`speed.SpeedProbe`.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from speed import SpeedProbe
from tracer import Tracer
from vancast import cli, engine, fountain, mobility, roadnet
from vancast.config import ExperimentConfig, SweepSpec, replicate_seed

# EXPERIMENT_SEED of tests/test_acceptance.py; with it every workload
# reproduces the acceptance suite's inputs.
ACCEPTANCE_SEED = 7
# Master seed and file seed of the acceptance payload test.
PAYLOAD_FLEET_SEED = 42
PAYLOAD_FILE_SEED = 77
# Kept out of every tuning run: later claims are re-checked on it.
HELD_OUT_SEED = 90_210
# Completed collections decoded per repetition on the simulation
# workloads (the lowest non-seed vehicle ids; decoding all would take
# minutes).
SIM_DECODE_SAMPLE = 512


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cfg: ExperimentConfig  # master_seed is filled in per run
    small: dict  # config overrides of the small-size mode
    sweep: bool  # drive through cli.run_sweep, as the seed-rate suite does
    decode_limit: int | None  # None decodes every completed collection
    # Repetitions in a run at the least.  A payload_decode repetition is
    # short, and its one decode phase alone spread up to 9 % between runs
    # on a loaded machine; two halve the chance of a burst of load.
    min_reps: int = 1

    def inputs(self, seed: int, small: bool) -> tuple[ExperimentConfig, bytes]:
        """Config and file bytes for one seed; same seed, same inputs."""
        cfg = replace(self.cfg, **(self.small if small else {}))
        file_seed = replicate_seed(seed, "file", self.name, 0)
        if self.name == "payload_decode":
            # The 50-vehicle fleet stays the acceptance test's for every
            # seed, so the decode work, which swings 3x between fleets, is
            # the same in every run; the seed picks the file bytes.
            master = PAYLOAD_FLEET_SEED
            if seed == ACCEPTANCE_SEED:
                file_seed = PAYLOAD_FILE_SEED
        elif self.sweep:
            master = seed  # run_sweep derives the cell's seed from it
        else:
            master = replicate_seed(seed, "n_vehicles", cfg.n_vehicles, 0)
        cfg.master_seed = master
        data = np.random.default_rng(file_seed).bytes(cfg.file_size)
        return cfg, data


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seed_rate_cell",
            "sparse traffic over 36 h: per-trip Dijkstra and the fixed per-step "
            "cost dominate; crosses a day boundary; driven through cli.run_sweep",
            ExperimentConfig(
                n_vehicles=1_000, seed_rate=0.01, mean_trips=12.0,
                sim_duration=36 * 3600.0, dt=1.0, replicates=1,
            ),
            {"n_vehicles": 100, "seed_rate": 0.1, "mean_trips": 24.0, "sim_duration": 3600.0},
            sweep=True,
            decode_limit=SIM_DECODE_SAMPLE,
        ),
        Workload(
            "arterial_rush",
            "dense traffic, 1500 vehicles over 4 h: exchange and contact "
            "detection dominate; routing via cached distance fields and main roads",
            ExperimentConfig(
                n_vehicles=1_500, seed_rate=0.05, mean_trips=27.0, speed=7.0,
                sim_duration=4 * 3600.0, dt=1.0, routing_policy="shortest",
                main_road_fraction=0.5,
            ),
            {"n_vehicles": 200, "sim_duration": 1800.0},
            sweep=False,
            decode_limit=SIM_DECODE_SAMPLE,
        ),
        Workload(
            "payload_decode",
            "50 vehicles at 16 kb/s over 48 h, then every completed collection "
            "decoded: the fountain codec dominates, the sim runs at its per-step floor",
            ExperimentConfig(
                n_vehicles=50, seed_rate=0.06, mean_trips=30.0, speed=7.0,
                transfer_rate=16_000.0, sim_duration=48 * 3600.0, dt=1.0,
            ),
            {"sim_duration": 7200.0, "transfer_rate": 800_000.0},
            sweep=False,
            decode_limit=None,
            min_reps=2,
        ),
    )
}


@dataclass
class Rep:
    """One measured repetition of a workload.

    Times are reference seconds (see ``speed.py``); ``wall`` holds the
    same three phases in plain wall-clock seconds.
    """

    setup_s: float  # fountain.encode + engine.init_sim
    run_s: float  # engine.run after its init_sim
    decode_s: float
    wall: dict
    sim_hours: float
    decodes: int
    decode_failures: int
    violations: list[str]
    counters: dict

    @property
    def ref_per_wall(self) -> float:
        """Reference seconds per wall second over the whole repetition."""
        return (self.setup_s + self.run_s + self.decode_s) / sum(self.wall.values())


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_state(state: engine.SimState) -> list[str]:
    """Final-state invariants of a simulation; returns the violations."""
    bad = []
    for vid, store in enumerate(state.stores):
        if store.count != int(store.mask.sum()):
            bad.append(f"vehicle {vid}: count {store.count} != mask sum")
        if store.completed_at is not None and store.count < state.cfg.decode_threshold:
            bad.append(f"vehicle {vid}: completed with {store.count} ids")
    done = sum(s.completed_at is not None for s in state.stores)
    if state.completed_count != done:
        bad.append(f"completed_count {state.completed_count} != {done} flagged stores")
    counts = [c for _, c in state.metrics.samples]
    if any(b < a for a, b in zip(counts, counts[1:])):
        bad.append("sampled completion count decreased")
    return bad


def _count_contacts(t: Tracer, args: tuple, contacts):
    t.add("engine.on_road", len(args[0]))
    t.add("engine.contacts", len(contacts))


def _count_exchange(t: Tracer, args: tuple, sent):
    t.add("engine.exchange.budget", args[2] + args[3])
    t.add("engine.chunks_moved", len(sent[0]) + len(sent[1]))


def _count_trips(t: Tracer, args: tuple, schedules):
    t.add("mobility.trips", sum(len(s.trips) for s in schedules))


def _count_absorb(t: Tracer, args: tuple, raised: bool):
    t.add("fountain.absorb.rows", 1)
    t.add("fountain.absorb.useful", bool(raised))


def instruments(states: list, traced: bool) -> Tracer:
    """Wrappers for one repetition; every state ``engine.run`` returns goes to ``states``.

    Untraced, only ``init_sim`` and ``run`` are timed, and trips and
    contacts are counted (for the deterministic counters) without
    timing.  Traced, the public functions of all five layers are timed,
    and the wrappers' own cost is measured first to be taken out again.
    """
    t = Tracer()
    if traced:
        t.calibrate()
    t.wrap(engine, "init_sim", "engine.init_sim", span=True)
    t.wrap(engine, "run", "engine.run", on_return=lambda _t, _a, st: states.append(st),
           span=True)
    t.wrap(mobility, "assign_trips", "mobility.assign_trips", on_return=_count_trips,
           span=True, timed=traced)
    t.wrap(engine, "detect_contacts", "engine.detect_contacts", on_return=_count_contacts,
           timed=traced)
    if not traced:
        return t
    t.wrap(cli, "run_sweep", "cli.run_sweep", span=True)
    t.wrap(cli, "write_sweep_summary", "cli.write", span=True)
    t.wrap(engine, "write_metrics_csv", "cli.write", span=True)
    t.wrap(engine, "step", "engine.step")
    t.wrap(engine, "exchange", "engine.exchange", on_return=_count_exchange)
    t.wrap(mobility, "advance", "mobility.advance")
    t.wrap(mobility, "position_of", "mobility.position_of")
    t.wrap(roadnet, "random_route", "roadnet.random_route")
    t.wrap(roadnet, "main_road_route", "roadnet.main_road_route")
    t.wrap(roadnet, "shortest_path", "roadnet.shortest_path")
    t.wrap(roadnet.RoadGraph, "dijkstra", "roadnet.dijkstra")
    t.wrap(fountain, "encode", "fountain.encode", span=True)
    t.wrap(fountain, "decode", "fountain.decode", span=True)
    t.wrap(fountain.DecoderState, "absorb_row", "fountain.absorb", on_return=_count_absorb,
           timed=False)
    return t


def run_once(w: Workload, cfg: ExperimentConfig, data: bytes, out_dir: str,
             speed: SpeedProbe, traced: bool = False) -> tuple[Rep, Tracer]:
    """Encode, simulate, write CSVs and decode, timing each phase."""
    states: list[engine.SimState] = []
    with instruments(states, traced) as tracer:
        rep = _measure(w, cfg, data, out_dir, speed, tracer, states)
    return rep, tracer


def _measure(w, cfg, data, out_dir, speed, tracer, states) -> Rep:
    enc0 = time.perf_counter()
    chunks = fountain.encode(data, k=cfg.decode_threshold, n=cfg.n_chunks,
                             symbol_size=cfg.symbol_size())
    enc1 = time.perf_counter()

    os.makedirs(out_dir, exist_ok=True)
    if w.sweep:
        spec = SweepSpec("seed_rate", (cfg.seed_rate,))
        runs = cli.run_sweep(cfg, spec, out_dir)
        csvs = [os.path.join(out_dir, runs[0].csv_name), os.path.join(out_dir, "summary.csv")]
    else:
        engine.run(cfg)
        csvs = [os.path.join(out_dir, "run.csv")]
    (state,) = states
    cfg = state.cfg
    if not w.sweep:
        engine.write_metrics_csv(state.metrics, cfg.n_vehicles, csvs[0])
    if tracer.stats["engine.init_sim"].calls != 1 or tracer.stats["engine.run"].calls != 1:
        raise RuntimeError("expected exactly one init_sim and one run per repetition")
    spans = {s["name"]: s for s in tracer.spans if s["name"] in ("engine.init_sim", "engine.run")}
    init, run = spans["engine.init_sim"], spans["engine.run"]

    completed = [v for v, s in enumerate(state.stores) if s.completed_at is not None]
    if w.decode_limit is None:
        sample = completed
    else:
        seeds = set(state.seeds)
        sample = [v for v in completed if v not in seeds][: w.decode_limit]
    failures = 0
    dec0 = time.perf_counter()
    for vid in sample:
        held = [chunks[cid] for cid in state.stores[vid].ids()]
        try:
            ok = fountain.decode(held, cfg.decode_threshold, len(data)) == data
        except fountain.RankDeficientError:
            ok = False
        failures += not ok
    dec1 = time.perf_counter()

    n = cfg.n_vehicles
    seeded = cfg.n_chunks * len(state.seeds)
    milestone = {f: engine.time_to_fraction(state.metrics, f, n) for f in (0.5, 0.9)}
    counters = {
        "cell_seed": cfg.master_seed,
        "csv_sha256": {os.path.basename(p): _sha256(p) for p in csvs},
        "completions": state.completed_count,
        "t50_s": milestone[0.5],
        "t90_s": milestone[0.9],
        "contacts": int(tracer.counts.get("engine.contacts", 0)),
        "chunks_moved": sum(s.count for s in state.stores) - seeded,
        "trips": int(tracer.counts.get("mobility.trips", 0)),
        "decoded": len(sample),
        "decode_failures": failures,
    }
    return Rep(
        setup_s=speed.seconds(enc0, enc1, "codec") + speed.seconds(init["start"], init["end"]),
        run_s=speed.seconds(init["end"], run["end"]),
        decode_s=speed.seconds(dec0, dec1, "codec"),
        wall={
            "setup_s": enc1 - enc0 + init["end"] - init["start"],
            "run_s": run["end"] - init["end"],
            "decode_s": dec1 - dec0,
        },
        sim_hours=cfg.sim_duration / 3600.0,
        decodes=len(sample),
        decode_failures=failures,
        violations=check_state(state),
        counters=counters,
    )


def setup_only(w: Workload, cfg: ExperimentConfig, data: bytes, speed: SpeedProbe) -> float:
    """Reference seconds of the set-up alone: encode plus init_sim of the run's cell."""
    if w.sweep:
        seed = replicate_seed(cfg.master_seed, "seed_rate", cfg.seed_rate, 0)
        cfg = replace(cfg, master_seed=seed)
    t0 = time.perf_counter()
    fountain.encode(data, k=cfg.decode_threshold, n=cfg.n_chunks,
                    symbol_size=cfg.symbol_size())
    t1 = time.perf_counter()
    engine.init_sim(cfg)
    return speed.seconds(t0, t1, "codec") + speed.seconds(t1, time.perf_counter())
