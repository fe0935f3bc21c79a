"""Byte-exact outputs: sha256 of run.csv for small pinned configurations.

The digests were recorded with the one-tick-at-a-time engine, before
steps were simulated in spans, except ``off_grid_end``'s, recorded
before ``run`` built its samples in one pass, and the final-state
digest, recorded before ``exchange`` skipped its empty directions; any
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
