"""Run the benchmark over many seeds and judge its steadiness.

    python3 benchmarks/spread.py --seeds 101-110 [--sets 2] [--trace-seed 101] \\
        [--out benchmarks/trajectory/BENCH_<n>_<label>.json]

Each (set, workload, seed) is one ``run.py`` process of the workloads and
run length in ``BENCHMARK.json``, run one after the other.  Per workload
and end-to-end metric it reports the median and quartiles
(``statistics.quantiles(n=4)``) of every set, the quartile spread as a
share of the median against a third of the metric's bound, and how far
each later set's median drifted from the first set's in the worse
direction.  Counters and CSV digests must be identical for one seed
across sets.  ``--trace-seed`` adds one traced run per workload for the
per-layer split.  The summary, with the machine facts of the first run,
is printed and optionally written to ``--out``: that file is one entry of
the benchmark trajectory.

Host times are corrected for the machine's speed (``speed.py``).  For the
metrics whose plain wall-clock times the records keep, a set whose
corrected median moved one way from the first set's while the wall-clock
median moved the other, by more than the bound apart, is flagged: the
correction then did more than rescale the measurement.  A flag is a
warning to look at the records, not a failure, because a change of the
machine's speed between sets moves the wall-clock median alone.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


# End-to-end metrics recomputed from the plain wall-clock phase times of a
# run's repetitions, as the corrected metric is from the corrected ones.
WALL = {
    "sim_hours_per_s": lambda rep: rep["sim_hours"] / rep["wall"]["run_s"],
    "decode_s": lambda rep: rep["wall"]["decode_s"],
}


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """Run one benchmark process; returns (final JSON line, record)."""
    record_path = os.path.join(ROOT, ".bench_out", f"spread-{workload}-{seed}-{trace}.json")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         "--record", record_path],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(record_path) as fh:
        return result, json.load(fh)


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 101-110 or 3,5,8")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    values = {w: [{m: [] for m in e2e} for _ in range(args.sets)] for w in workloads}
    wall = {w: [{m: [] for m in WALL} for _ in range(args.sets)] for w in workloads}
    counters: dict[tuple[str, int], dict] = {}
    machine = None
    nondeterministic = []
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                result, record = one_run(w, seed, seconds, 0)
                machine = machine or record["machine"]
                for m in e2e:
                    values[w][s][m].append(result["metrics"][m]["value"])
                for m, of_rep in WALL.items():
                    wall[w][s][m].append(statistics.median(map(of_rep, record["reps"])))
                first = counters.setdefault((w, seed), record["counters"])
                if record["counters"] != first:
                    nondeterministic.append(f"{w} seed {seed}")
                print(f"set {s} {w} seed {seed}: "
                      + ", ".join(f"{m}={result['metrics'][m]['value']:.4g}" for m in e2e)
                      + "; wall clock "
                      + ", ".join(f"{m}={wall[w][s][m][-1]:.4g}" for m in WALL), flush=True)

    summary: dict = {}
    steady = not nondeterministic
    flags = []
    for w in workloads:
        summary[w] = {}
        for m, spec in e2e.items():
            sets = [quartiles(values[w][s][m]) for s in range(args.sets)]
            sign = 1 if spec["better"] == "lower" else -1
            drift = [sign * (q["median"] - sets[0]["median"]) / sets[0]["median"]
                     for q in sets[1:]]
            ok_spread = all(q["spread"] < spec["bound"] / 3 for q in sets)
            ok_drift = all(d <= spec["bound"] for d in drift)
            steady &= ok_spread and ok_drift
            summary[w][m] = {"unit": spec["unit"], "bound": spec["bound"], "sets": sets,
                             "worse_drift": drift, "spread_ok": ok_spread,
                             "drift_ok": ok_drift}
            print(f"{w:15s} {m:16s} " + "  ".join(
                f"med {q['median']:.4g} spread {q['spread']:.3f}" for q in sets)
                + f"  bound/3 {spec['bound'] / 3:.3f}"
                + (f"  drift {', '.join(f'{d:+.3f}' for d in drift)}" if drift else ""))

        for m in WALL:
            sets = [quartiles(wall[w][s][m]) for s in range(args.sets)]
            summary[w][f"wall_clock_{m}"] = {"unit": e2e[m]["unit"], "sets": sets}
            print(f"{w:15s} {m + ' (wall)':16s} " + "  ".join(
                f"med {q['median']:.4g} spread {q['spread']:.3f}" for q in sets))
            corrected = summary[w][m]["sets"]
            for s in range(1, args.sets):
                moved = corrected[s]["median"] / corrected[0]["median"] - 1
                moved_wall = sets[s]["median"] / sets[0]["median"] - 1
                if moved * moved_wall < 0 and abs(moved - moved_wall) > e2e[m]["bound"]:
                    flags.append(f"{w} {m} set {s}: corrected {moved:+.3f}, "
                                 f"wall clock {moved_wall:+.3f}")

    per_layer = {}
    if args.trace_seed is not None:
        for w in workloads:
            result, record = one_run(w, args.trace_seed, seconds, 1)
            per_layer[w] = {"seed": args.trace_seed, "metrics": result["metrics"],
                            "counters": record["counters"]}

    out = {
        "machine": machine,
        "run_seconds": seconds,
        "seeds": seeds,
        "sets": args.sets,
        "steady": steady,
        "nondeterministic": nondeterministic,
        "probe_flags": flags,
        "end_to_end": summary,
        "counters": {f"{w} seed {seed}": c for (w, seed), c in counters.items()},
        "per_layer": per_layer,
    }
    for flag in flags:
        print(f"FLAG corrected and wall-clock medians moved apart: {flag}")
    print(f"steady: {steady}; nondeterministic counters: {nondeterministic or 'none'}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
