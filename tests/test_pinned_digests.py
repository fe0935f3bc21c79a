"""Byte-exact outputs: sha256 of run.csv for small pinned configurations.

The digests were recorded with the one-tick-at-a-time engine, before
steps were simulated in spans, except ``off_grid_end``'s, recorded
before ``run`` built its samples in one pass, the first final-state
digest, recorded before ``exchange`` skipped its empty directions, and
the arterial_rush digests, recorded with the segment join before the
exchange loop's re-filter of full stores was dropped; any
change to them is a change in the simulated results and must be
documented as one.
"""

import hashlib

import numpy as np
import pytest

from vancast.config import ExperimentConfig
from vancast.engine import run, write_metrics_csv

BASE = dict(rows=6, cols=6, block_len=150.0, main_cols=[1, 4], n_vehicles=60,
            seed_rate=0.05, mean_trips=120.0, max_trip_dist=2_000.0,
            transfer_rate=200_000.0, sim_duration=7_200.0, sample_interval=60.0)

CASES = {
    "random": (dict(master_seed=11),
               "1fd05fcb6d580f0f3e7cce344d3d5cbf5d91af2e9614878c6bf8b6aa15217e56"),
    "shortest": (dict(master_seed=12, routing_policy="shortest"),
                 "b1f6d9fe4c827d3d414948c24d93f4b8c821ad4f2508a5718a420cd0dbfd85fe"),
    "main_road": (dict(master_seed=13, main_road_fraction=0.5),
                  "09a161c716dbeba29673afded145c6de27216d5fb935ab4f3c02632a22b9df9c"),
    "parked_exchange": (
        dict(master_seed=14, parked_exchange=True, n_vehicles=30, transfer_rate=2_000.0),
        "9e98107a3e994cb6704d99d03e402560e5a755b62b3d3792b84a165159e2bdb3"),
    "share_bandwidth": (dict(master_seed=15, share_bandwidth=True),
                        "4b19a8833215c27ed279a9d1d81972ef19121d11a8721cb9491c552470e8da76"),
    # dt = 0.1 over 26 h: completions come after the day boundary
    "tenth_second_over_a_day": (
        dict(master_seed=16, rows=3, cols=3, block_len=100.0, main_cols=[1],
             n_vehicles=12, mean_trips=150.0, speed=2.0, transfer_rate=500.0, dt=0.1,
             sim_duration=86_400.0 + 7_200.0, sample_interval=600.0),
        "83f536b73d11676b521a801d5312837a976c3afe686b34ca7f993618ee5e6be0"),
    # 400 slow trips a day: most depart late, right after the last arrival
    "late_departures": (
        dict(master_seed=17, n_vehicles=30, mean_trips=400.0, speed=4.0,
             transfer_rate=1_000.0),
        "b0fe3220dc9e0acb545a0db71f62dc74f0c93f38662805a6f377bf82e59dfb55"),
    # the run ends 30 s past the last 60 s sample, and a vehicle completes
    # in those 30 s: the final sample is off the grid and counts it
    "off_grid_end": (dict(master_seed=28, sim_duration=7_230.0),
                     "09e6aa5d3ba23e3e7c469fd40f0ae07bf3e880a7391a7fd41ea231a619e1a404"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_csv_digest_is_pinned(tmp_path, case):
    overrides, digest = CASES[case]
    cfg = ExperimentConfig(**{**BASE, **overrides})
    path = tmp_path / "run.csv"
    write_metrics_csv(run(cfg).metrics, cfg.n_vehicles, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_final_state_digest_with_asymmetric_budgets_is_pinned(tmp_path):
    """A slow shared link: 796 exchanges, 198 with exactly one zero budget,
    70 of those drawing.  Only the 3 seeds complete, so run.csv pins
    little; the digest adds every final store's mask and stamp and the
    generator's state."""
    cfg = ExperimentConfig(**{**BASE, **dict(master_seed=15, share_bandwidth=True,
                                             transfer_rate=5_000.0)})
    state = run(cfg)
    path = tmp_path / "run.csv"
    write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
    h = hashlib.sha256(path.read_bytes())
    for store in state.stores:
        h.update(np.packbits(store.mask).tobytes())
        h.update(repr(store.completed_at).encode())
    h.update(repr(state.rng.bit_generator.state).encode())
    assert h.hexdigest() == "bef89f2f7827665a6bb80c587afad1037572ed3b04b57e031d1efbddf060745e"


def test_dense_parked_run_whose_stores_fill_mid_span_is_pinned(tmp_path):
    """200 vehicles of 27 trips a day at 7 m/s, half on main roads, parked
    ones on the radio, for half an hour: every store fills, most in the
    middle of a span, so a span's later contacts often join two full
    stores (15,764 of them), and parked vehicles fill too.  The digest
    adds every final store's mask and stamp and the generator's state."""
    cfg = ExperimentConfig(n_vehicles=200, seed_rate=0.05, mean_trips=27.0, speed=7.0,
                           routing_policy="shortest", main_road_fraction=0.5,
                           parked_exchange=True, sim_duration=1_800.0, master_seed=5)
    state = run(cfg)
    assert state.completed_count == 200
    path = tmp_path / "run.csv"
    write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
    h = hashlib.sha256(path.read_bytes())
    assert h.hexdigest() == "ff6fc47a5203f5814035811ac5087c27ea23c169922c0c7f5c3efa8a7829b21a"
    for store in state.stores:
        h.update(np.packbits(store.mask).tobytes())
        h.update(repr(store.completed_at).encode())
    h.update(repr(state.rng.bit_generator.state).encode())
    assert h.hexdigest() == "eb87e988569793d9ae1a574842f6300951062054da9b7528b754dcf7782b6234"


def test_arterial_rush_run_is_pinned(tmp_path):
    """The benchmark's arterial_rush workload in full, at its cell seed for
    seed 7: 1,500 vehicles of 27 trips a day at 7 m/s, half on main roads,
    for 4 h, the densest traffic of the three workloads.  The digest adds
    every final store's mask and stamp and the generator's state."""
    cfg = ExperimentConfig(n_vehicles=1_500, seed_rate=0.05, mean_trips=27.0, speed=7.0,
                           sim_duration=4 * 3600.0, routing_policy="shortest",
                           main_road_fraction=0.5, master_seed=8491706950866345203)
    state = run(cfg)
    assert state.completed_count == 1_479
    path = tmp_path / "run.csv"
    write_metrics_csv(state.metrics, cfg.n_vehicles, str(path))
    h = hashlib.sha256(path.read_bytes())
    assert h.hexdigest() == "e28eec61d7e9b6e933215df042ea89f392275df2f83059a9efa0f747fbbd0c2b"
    for store in state.stores:
        h.update(np.packbits(store.mask).tobytes())
        h.update(repr(store.completed_at).encode())
    h.update(repr(state.rng.bit_generator.state).encode())
    assert h.hexdigest() == "2fde769c482ab18c55e6051638d6ed0644593353f2e059f4eed7eacc1a3b7c60"


@pytest.mark.parametrize("overrides", [
    CASES["parked_exchange"][0],  # 2 kb/s: one chunk at a time
    CASES["share_bandwidth"][0],  # picks of 6 and 9 chunks among larger ones
    dict(master_seed=15, share_bandwidth=True, transfer_rate=5_000.0),  # the digest above
    dict(master_seed=15, share_bandwidth=True, transfer_rate=60_000.0),  # picks of 1 to 6
    dict(master_seed=15, share_bandwidth=True, transfer_rate=100_000.0),  # of 3 to 10
], ids=["parked_exchange", "share_bandwidth", "asymmetric", "shared_60k", "shared_100k"])
def test_the_span_reader_changes_no_draw(monkeypatch, overrides):
    """engine.Reader serves a span's small picks from bulk reads of the
    generator's words.  Swapped for a pass-through whose every pick is the
    generator's own ``choice``, a run ends with the same stores, stamps and
    generator state."""
    import vancast.engine as engine
    from reference import PassThrough, choice_pick

    cfg = ExperimentConfig(**{**BASE, **overrides})
    opened = []

    class Counted(engine.Reader):
        def _open(self):
            opened.append(self.at)
            super()._open()

    ends = []
    for reader in (Counted, PassThrough):
        monkeypatch.setattr(engine, "Reader", reader)
        if reader is PassThrough:
            monkeypatch.setattr(engine, "_pick", choice_pick)
        state = run(cfg)
        ends.append(([(s.mask.tolist(), s.completed_at) for s in state.stores],
                     state.rng.bit_generator.state))
    assert opened  # the reader served picks
    assert ends[0] == ends[1]
