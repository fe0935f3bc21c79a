"""Check that the speed correction does not depend on the program measured.

    python3 benchmarks/probe_check.py

``speed.SpeedProbe`` times its probes inside the measured process, so a
program that fills the caches or the heap could slow the probes, read as
a slower machine, and be credited for it.  This script runs one
repetition of ``seed_rate_cell`` (acceptance seed) in fresh processes,
alternately as it is and with a heavy load added to every
``engine.step``: 1.5 M live objects, a gather of 4000 random elements of
a 64 MB array and 300 new dicts kept in a 100 k ring.  When the
correction is independent of the program, the heavy-over-plain ratio of
corrected run times equals that of wall-clock run times, and the probes
take as long in both.  It prints both ratios and the probes' median
durations; it takes about four minutes.
"""

from __future__ import annotations

import collections
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PAIRS = 4


def one(mode: str) -> dict:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    import numpy as np

    from speed import SpeedProbe
    from tracer import Tracer
    from vancast import engine
    from workloads import ACCEPTANCE_SEED, WORKLOADS, run_once

    with Tracer() as heavy:
        if mode == "heavy":
            live = [[i] for i in range(1_500_000)]  # noqa: F841 (kept alive)
            big = np.random.default_rng(1).random(8_000_000)
            ring = collections.deque(maxlen=100_000)
            rng = np.random.default_rng(2)

            def load(_tracer, _args, _result):
                big[rng.integers(0, big.size, 4000)].sum()
                ring.extend({"i": i} for i in range(300))

            heavy.wrap(engine, "step", "step", on_return=load, timed=False)
        w = WORKLOADS["seed_rate_cell"]
        cfg, data = w.inputs(ACCEPTANCE_SEED, False)
        out = os.path.join(ROOT, ".bench_out", f"probe_check-{mode}")
        with SpeedProbe() as speed:
            rep, _ = run_once(w, cfg, data, out, speed)
    return {
        "wall_s": rep.wall["run_s"],
        "corrected_s": rep.run_s,
        "probe_us": {k: statistics.median(v) * 1e6 for k, v in speed.durations.items()},
    }


def main() -> int:
    runs: dict[str, list[dict]] = {"plain": [], "heavy": []}
    for i in range(PAIRS):
        for mode in ("plain", "heavy") if i % 2 == 0 else ("heavy", "plain"):
            proc = subprocess.run([sys.executable, __file__, mode], capture_output=True,
                                  text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{mode} run failed:\n{proc.stderr[-2000:]}")
            runs[mode].append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(mode, runs[mode][-1], flush=True)

    def med(mode: str, key: str) -> float:
        return statistics.median(r[key] for r in runs[mode])

    for key in ("wall_s", "corrected_s"):
        print(f"heavy/plain {key}: {med('heavy', key) / med('plain', key):.3f}")
    for mode, rs in runs.items():
        print(f"{mode} probe medians (us): " + ", ".join(
            f"{k} {statistics.median(r['probe_us'][k] for r in rs):.0f}" for k in rs[0]["probe_us"]))
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 2:
        print(json.dumps(one(sys.argv[1])))
    else:
        sys.exit(main())
