"""Acceptance battery: one test per release criterion.

Covers codec validity, contact-oracle equivalence, sweep determinism,
the four dissemination trends (seed rate, transfer rate, fleet size,
main-road routing), the invariant property suites, and an end-to-end
payload run.  Every simulation here derives its seed through
replicate_seed from one experiment constant, so all measured numbers
are exactly reproducible; each test prints them on a single line
(visible with ``pytest -rA``).

The trend scenarios run a 10x10 grid with 200 m blocks.  Activity
levels per scenario are calibrated so that desk-scale runs land in the
same dynamic regime the corresponding full-scale experiment probes;
the constants are frozen below and should not be tweaked casually.
"""

import filecmp
import math
import os

import numpy as np
import pytest

from vancast.cli import run_sweep
from vancast.config import ExperimentConfig, SweepSpec, replicate_seed
from vancast.engine import (
    ChunkStore,
    detect_contacts,
    exchange,
    run,
    time_to_fraction,
)
from vancast.fountain import (
    GF_INV,
    GF_MUL,
    CodedChunk,
    RankDeficientError,
    decode,
    encode,
    rank,
)
from vancast.mobility import Timetable, assign_trips
from vancast.roadnet import Edge, RoadGraph, generate_manhattan_grid

EXPERIMENT_SEED = 7

SEED_RATES = (0.10, 0.05, 0.03, 0.01, 0.0002)


def scenario(param: str, value, rep: int, **overrides) -> ExperimentConfig:
    seed = replicate_seed(EXPERIMENT_SEED, param, value, rep)
    return ExperimentConfig(master_seed=seed, dt=1.0, **overrides)


def fraction_at(metrics, t: float, n_vehicles: int) -> float:
    """Completed fraction at the last sample not later than t."""
    best = 0
    for st, sc in metrics.samples:
        if st > t:
            break
        best = sc
    return best / n_vehicles


def mean_milestone(states, frac: float, n_vehicles: int) -> float:
    hours = []
    for st in states:
        t = time_to_fraction(st.metrics, frac, n_vehicles)
        assert t is not None, f"run never reached {frac:.0%}"
        hours.append(t / 3600.0)
    return float(np.mean(hours))


# --- criterion 4/5 share one family of runs -----------------------------------


@pytest.fixture(scope="module")
def seed_rate_family():
    """Five replicates at each seed rate; 1000 vehicles, 36 h."""
    family = {}
    for rate in SEED_RATES:
        states = []
        for rep in range(5):
            cfg = scenario(
                "seed_rate",
                rate,
                rep,
                n_vehicles=1_000,
                seed_rate=rate,
                mean_trips=12.0,
                sim_duration=36 * 3600.0,
            )
            states.append(run(cfg))
        family[rate] = states
    return family


# --- 1. codec validity ---------------------------------------------------------


def test_codec_validity_on_random_file():
    rng = np.random.default_rng(2026)
    data = rng.bytes(400_000)
    chunks = encode(data, k=300, n=450)
    assert len(chunks) == 450

    assert decode(list(chunks), 300, len(data)) == data

    # Any 300-chunk subset that is full rank decodes; measure the rate
    # over 1000 uniform subsets (rank check only, which is what varies).
    successes = sum(rank(rng.choice(450, size=300, replace=False), 300) == 300
                    for _ in range(1_000))
    assert successes / 1_000 >= 0.99

    # Spot-check that full-rank subsets give back the exact bytes, not
    # merely full rank.
    for _ in range(5):
        pick = rng.choice(450, size=300, replace=False)
        subset = [chunks[int(c)] for c in pick]
        try:
            assert decode(subset, 300, len(data)) == data
        except RankDeficientError:
            pass  # counted above; ~0.4% of subsets

    # 299 chunks can never decode: 299 rows bound the rank below 300.
    # The decoder must report that honestly for any such subset.
    for _ in range(25):
        pick = rng.choice(450, size=299, replace=False)
        subset = [chunks[int(c)] for c in pick]
        with pytest.raises(RankDeficientError) as exc:
            decode(subset, 300, len(data))
        assert exc.value.rank < 300
    print(f"codec: full set exact, {successes}/1000 random 300-subsets decode, "
          f"all sampled 299-subsets rank-deficient: PASS")


# --- 2. contact detection matches brute force ----------------------------------


def test_contact_detection_equals_brute_force():
    rng = np.random.default_rng(1009)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(2, 501))
        span = float(rng.uniform(100.0, 2_500.0))
        pts = rng.uniform(0.0, span, size=(n, 2))
        # vehicle v parked at node v, at point v, for tick 0: the engine's join
        g = RoadGraph(pts[:, 0].tolist(), pts[:, 1].tolist(), [Edge(0, 0, 1, 1.0)])
        day = Timetable(tuple(range(n)), stays=np.array([(v, v, 0, 1) for v in range(n)]),
                        start=0, end=1)
        rows, pairs = day.radio_pairs(g, 0, 1, np.ones(n, dtype=bool), 100.0)
        expect = []
        for i in range(n):
            for j in range(i + 1, n):
                if math.hypot(pts[i, 0] - pts[j, 0], pts[i, 1] - pts[j, 1]) <= 100.0:
                    expect.append((i, j))
        assert [(a, b) for _, a, b in detect_contacts(rows, 100.0, pairs).tolist()] == expect
        checked += len(expect)
    print(f"contacts: 100 instances, {checked} pairs, join == brute force: PASS")


# --- 3. sweep determinism -------------------------------------------------------


def test_identical_sweeps_are_byte_identical(tmp_path):
    base = ExperimentConfig(
        n_vehicles=150,
        sim_duration=4 * 3600.0,
        dt=1.0,
        sample_interval=300.0,
        replicates=2,
        master_seed=11,
    )
    spec = SweepSpec("seed_rate", (0.05, 0.2))
    dir_a = str(tmp_path / "a")
    dir_b = str(tmp_path / "b")
    runs_a = run_sweep(base, spec, out_dir=dir_a)
    runs_b = run_sweep(base, spec, out_dir=dir_b)
    names = sorted(os.listdir(dir_a))
    assert names == sorted(os.listdir(dir_b))
    assert len(runs_a) == len(runs_b) == 4
    for name in names:
        same = filecmp.cmp(
            os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False
        )
        assert same, f"{name} differs between identical sweeps"
    print(f"determinism: {len(names)} CSVs byte-identical across re-execution: PASS")


# --- 4. seed-rate trend ---------------------------------------------------------


def test_seed_rate_trend(seed_rate_family):
    n = 1_000
    t30 = {r: mean_milestone(seed_rate_family[r], 0.3, n) for r in SEED_RATES}
    t80 = {r: mean_milestone(seed_rate_family[r], 0.8, n) for r in SEED_RATES}

    ordered = [t30[r] for r in SEED_RATES]  # rates listed high to low
    assert all(a < b for a, b in zip(ordered, ordered[1:])), (
        f"mean t30 not strictly decreasing in seed rate: {t30}"
    )

    band = [t80[r] for r in (0.10, 0.05, 0.03, 0.01)]
    spread = (max(band) - min(band)) / float(np.mean(band))
    assert spread <= 0.25, f"t80 spread over 1-10% is {spread:.1%}"

    assert t80[0.0002] > max(band), "single-seed case should be slowest"
    print(
        "seed rates: t30 "
        + " > ".join(f"{t30[r]:.2f}h@{r:g}" for r in reversed(SEED_RATES))
        + f"; t80 spread {spread:.1%}; single seed slowest: PASS"
    )


# --- 5. completion-curve shape --------------------------------------------------


def test_completion_curve_steep_then_flat(seed_rate_family):
    n = 1_000
    early_gains, late_gains = [], []
    for st in seed_rate_family[0.01]:
        m = st.metrics
        early_gains.append(fraction_at(m, 6 * 3600.0, n) - fraction_at(m, 0.0, n))
        late_gains.append(fraction_at(m, 18 * 3600.0, n) - fraction_at(m, 12 * 3600.0, n))
    early = float(np.mean(early_gains))
    late = float(np.mean(late_gains))
    assert early > late, f"hours 1-6 gained {early:.1%}, hours 13-18 gained {late:.1%}"
    print(f"curve shape: +{early:.1%} over hours 1-6 vs +{late:.1%} over 13-18: PASS")


# --- 6. transfer-rate insensitivity --------------------------------------------


def test_transfer_rate_insensitivity():
    # Trip legs here last tens of seconds, so the file is sized down to
    # keep (transfer time at the slow rate) comparable to one contact,
    # which is the regime the full-scale experiment operates in.
    finals = {}
    for rate_bps in (16_000.0, 800_000.0):
        fr = []
        for rep in range(3):
            cfg = scenario(
                "transfer_rate",
                rate_bps,
                rep,
                n_vehicles=1_000,
                seed_rate=0.05,
                mean_trips=12.0,
                transfer_rate=rate_bps,
                file_size=80_000,
                sim_duration=24 * 3600.0,
            )
            st = run(cfg)
            fr.append(st.completed_count / 1_000)
        finals[rate_bps] = float(np.mean(fr))
    gap = abs(finals[16_000.0] - finals[800_000.0])
    assert gap <= 0.10, f"final fractions {finals} differ by {gap:.1%}"
    print(
        f"transfer rate: 16 kb/s reaches {finals[16_000.0]:.1%}, "
        f"800 kb/s {finals[800_000.0]:.1%}, gap {gap:.1%}: PASS"
    )


# --- 7. fleet-size effect -------------------------------------------------------


def test_fleet_size_effect():
    # High trip frequency at low speed saturates per-trip encounters for
    # the denser fleets, so their t50 rides the trip-schedule floor
    # while the sparsest fleet stays contact-limited.
    t50 = {}
    for n in (300, 500, 1_000, 1_500):
        states = []
        for rep in range(3):
            cfg = scenario(
                "n_vehicles",
                n,
                rep,
                n_vehicles=n,
                seed_rate=0.05,
                mean_trips=27.0,
                speed=7.0,
                sim_duration=8 * 3600.0,
            )
            states.append(run(cfg))
        t50[n] = mean_milestone(states, 0.5, n)

    upper = [t50[n] for n in (500, 1_000, 1_500)]
    spread = (max(upper) - min(upper)) / min(upper)
    assert spread <= 0.30, f"upper-density t50 spread {spread:.1%}: {t50}"
    assert t50[300] > max(upper), f"sparsest fleet should be slowest: {t50}"
    print(
        "fleet size: t50 "
        + ", ".join(f"{n}->{t50[n]:.2f}h" for n in sorted(t50))
        + f"; upper spread {spread:.1%}; 300 slowest: PASS"
    )


# --- 8. main-road effect --------------------------------------------------------


def test_main_road_effect():
    t80 = {}
    for frac in (0.0, 0.5, 1.0):
        states = []
        for rep in range(5):
            cfg = scenario(
                "main_road_fraction",
                frac,
                rep,
                n_vehicles=800,
                seed_rate=0.05,
                mean_trips=8.0,
                main_road_fraction=frac,
                sim_duration=24 * 3600.0,
            )
            states.append(run(cfg))
        t80[frac] = mean_milestone(states, 0.8, 800)

    assert t80[0.0] > t80[0.5] > t80[1.0], f"t80 not decreasing in main share: {t80}"
    speedup = 1.0 - t80[1.0] / t80[0.0]
    assert speedup >= 0.15, f"all-main only {speedup:.1%} faster than all-random"
    print(
        f"main roads: t80 {t80[0.0]:.2f}h (none) > {t80[0.5]:.2f}h (half) > "
        f"{t80[1.0]:.2f}h (all), speedup {speedup:.1%}: PASS"
    )


# --- 9. invariant property suites ----------------------------------------------


def test_invariant_suites():
    rng = np.random.default_rng(4099)

    # Field axioms on 10^4 random triples (tables are exhaustively
    # checked against a bit-level oracle in the codec unit tests).
    a = rng.integers(0, 256, size=10_000).astype(np.uint8)
    b = rng.integers(0, 256, size=10_000).astype(np.uint8)
    c = rng.integers(0, 256, size=10_000).astype(np.uint8)
    assert np.array_equal(GF_MUL[a, b], GF_MUL[b, a])
    assert np.array_equal(GF_MUL[GF_MUL[a, b], c], GF_MUL[a, GF_MUL[b, c]])
    assert np.array_equal(GF_MUL[a, b ^ c], GF_MUL[a, b] ^ GF_MUL[a, c])
    nz = a[a != 0]
    assert np.all(GF_MUL[nz, GF_INV[nz]] == 1)

    # Chunk conservation and store monotonicity over 10^4 exchanges.
    for _ in range(10_000):
        n_chunks = int(rng.integers(1, 24))
        sa, sb = ChunkStore(n_chunks), ChunkStore(n_chunks)
        for s in (sa, sb):
            held = rng.random(n_chunks) < rng.random()
            s.mask[:] = held
            s.count = int(held.sum())
        union = sa.mask | sb.mask
        before_a, before_b = sa.mask.copy(), sb.mask.copy()
        sent_ab, sent_ba = exchange(
            sa, sb, int(rng.integers(0, 6)), int(rng.integers(0, 6)), rng
        )
        assert np.array_equal(sa.mask | sb.mask, union)  # nothing invented
        assert np.all(before_a <= sa.mask) and np.all(before_b <= sb.mask)
        assert sa.count == int(sa.mask.sum()) and sb.count == int(sb.mask.sum())
        assert all(before_a[i] for i in sent_ab) and all(before_b[i] for i in sent_ba)

    # Contact symmetry: membership depends only on distance, pairs come
    # out ordered; 10^4 random two-vehicle placements.
    one_pair = np.array([[0], [1]])
    for _ in range(10_000):
        comm = float(rng.uniform(1.0, 300.0))
        p = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
        q = (float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)))
        d = math.hypot(p[0] - q[0], p[1] - q[1])
        forward = detect_contacts(np.array([(0, 1, *p), (0, 2, *q)]), comm, one_pair).tolist()
        swapped = detect_contacts(np.array([(0, 2, *p), (0, 1, *q)]), comm, one_pair).tolist()
        assert (len(forward) == 1) == (d <= comm)
        assert len(forward) == len(swapped)
        if forward:
            assert forward == swapped == [[0, 1, 2]]

    # Trip-chain continuity across >10^4 generated trips.
    g = generate_manhattan_grid(10, 10, 200.0)
    trip_rng = np.random.default_rng(5)
    homes = trip_rng.integers(g.n_nodes, size=3_000).tolist()
    schedules = assign_trips(g, homes, 4.0, 10_000.0, trip_rng)
    n_trips = 0
    for sched in schedules:
        prev_dst = None
        prev_depart = -1.0
        for trip in sched.trips:
            assert trip.depart_time > prev_depart
            if prev_dst is not None:
                assert trip.route.src == prev_dst
            prev_dst = trip.route.dst
            prev_depart = trip.depart_time
            n_trips += 1
    assert n_trips >= 10_000
    print(
        f"invariants: 10k field triples, 10k exchanges, 10k contact "
        f"placements, {n_trips} chained trips: PASS"
    )


# --- 10. codec in the loop ------------------------------------------------------


def test_small_fleet_decodes_exact_bytes():
    # A slow link keeps completions partial (vehicles flag at 300-370 of
    # 450 ids gathered over many contacts), so the decode below runs on
    # genuine mid-epidemic collections rather than full sets.
    rng = np.random.default_rng(77)
    data = rng.bytes(400_000)
    cfg = ExperimentConfig(
        n_vehicles=50,
        seed_rate=0.06,
        mean_trips=30.0,
        speed=7.0,
        transfer_rate=16_000.0,
        sim_duration=48 * 3600.0,
        dt=1.0,
        master_seed=42,
    )
    chunks = encode(data, k=cfg.decode_threshold, n=cfg.n_chunks,
                    symbol_size=cfg.symbol_size())
    st = run(cfg)

    completed = [vid for vid in range(50) if st.stores[vid].completed_at is not None]
    assert len(completed) >= 20, f"only {len(completed)} vehicles completed"
    sizes = []
    for vid in completed:
        held: list[CodedChunk] = [chunks[cid] for cid in st.stores[vid].ids()]
        sizes.append(len(held))
        assert decode(held, cfg.decode_threshold, len(data)) == data
    print(
        f"payload run: {len(completed)}/50 vehicles complete, collections "
        f"{min(sizes)}-{max(sizes)} of 450, every decode byte-exact: PASS"
    )
