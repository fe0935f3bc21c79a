"""vancast benchmark: simulated hours per host second, set-up, memory, decode.

Run one workload in this fresh, single-threaded process::

    python3 benchmarks/run.py --workload seed_rate_cell [--seed 7] \\
        [--seconds 10] [--trace 0|1] [--size full|small]

Workloads are described in ``workloads.py`` and ``BENCHMARK.json``.  The
run repeats the whole workload (encode, simulate, write CSVs, decode) as
many times as fit in ``--seconds`` of host time, at least the workload's
``min_reps`` times, and adds stand-alone set-ups until it has
``SETUP_SAMPLES`` of them; every metric is the median over those.  Simulated time is the config's
``sim_duration``.  Host time is wall time (``perf_counter``) converted to
reference seconds by ``speed.SpeedProbe``, which times three fixed probes
50 times a second to take out the machine's changing speed; the record
keeps the plain wall times too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures the
same untraced repetitions, then one more with every layer wrapped, and
prints per-layer counts and self times (reference seconds) plus the
tracing overhead (traced over untraced host time, minus one).  Layer
times have the wrappers' own measured cost taken out (``tracer.py``).

The seed defaults to the acceptance suite's (``ACCEPTANCE_SEED``, which
also selects the payload test's 42 and 77); ``HELD_OUT_SEED`` is kept for
checking later claims.  ``--size small`` shrinks every workload to a
second or so, for the benchmark's own tests.

Each run checks its outputs (final-state invariants, byte-exact decodes,
identical counters across repetitions) and writes a record with machine
facts, counters and CSV digests to ``.bench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 if any check failed.
"""

from __future__ import annotations

import os

# Before numpy is imported: one thread for every BLAS/OpenMP pool.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3


def _import_package():
    """Import vancast from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [HERE, SRC]
    try:
        import vancast
    except ImportError as exc:
        sys.exit(f"error: cannot import vancast from {SRC}: {exc}")
    if os.path.dirname(os.path.dirname(os.path.abspath(vancast.__file__))) != SRC:
        sys.exit(f"error: vancast imported from {vancast.__file__}, not {SRC}")


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            commit = out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": commit,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(report: dict, rep, untraced: dict) -> dict:
    """Per-layer metrics of the traced repetition, as name -> (value, unit)."""
    calls, counts = report["calls"], report["counts"]
    # Layer times are wall seconds inside the traced repetition; the
    # repetition's own reference-over-wall ratio puts them in reference
    # seconds like the end-to-end times.
    scale = rep.ref_per_wall

    def stat(name: str, key: str) -> float:
        value = calls.get(name, {}).get(key, 0)
        return value if key == "calls" else value * scale

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for name in ("roadnet.random_route", "roadnet.main_road_route",
                 "roadnet.shortest_path", "roadnet.dijkstra"):
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
        m[f"{name}.s"] = (stat(name, "self_s"), "s")
    m["mobility.assign_trips.calls"] = (stat("mobility.assign_trips", "calls"), "count")
    m["mobility.assign_trips.self_s"] = (stat("mobility.assign_trips", "self_s"), "s")
    m["mobility.trips"] = (counts.get("mobility.trips", 0), "count")
    for name in ("mobility.advance", "mobility.position_of"):
        m[f"{name}.calls"] = (stat(name, "calls"), "count")
        m[f"{name}.s"] = (stat(name, "self_s"), "s")
    m["engine.init_sim.self_s"] = (stat("engine.init_sim", "self_s"), "s")
    m["engine.run.self_s"] = (stat("engine.run", "self_s"), "s")
    m["engine.step.calls"] = (stat("engine.step", "calls"), "count")
    m["engine.step.self_s"] = (stat("engine.step", "self_s"), "s")
    m["engine.detect_contacts.calls"] = (stat("engine.detect_contacts", "calls"), "count")
    m["engine.detect_contacts.s"] = (stat("engine.detect_contacts", "self_s"), "s")
    m["engine.on_road_mean"] = (
        ratio(counts.get("engine.on_road", 0), stat("engine.detect_contacts", "calls")),
        "vehicles",
    )
    m["engine.contacts"] = (counts.get("engine.contacts", 0), "count")
    m["engine.exchange.calls"] = (stat("engine.exchange", "calls"), "count")
    m["engine.exchange.s"] = (stat("engine.exchange", "self_s"), "s")
    moved = counts.get("engine.chunks_moved", 0)
    m["engine.chunks_moved"] = (moved, "count")
    m["engine.exchange.useful_frac"] = (
        ratio(moved, counts.get("engine.exchange.budget", 0)), "frac")
    m["engine.completions"] = (rep.counters["completions"], "count")
    m["fountain.encode.s"] = (stat("fountain.encode", "self_s"), "s")
    m["fountain.decode.calls"] = (stat("fountain.decode", "calls"), "count")
    m["fountain.decode.s"] = (stat("fountain.decode", "self_s"), "s")
    rows = counts.get("fountain.absorb.rows", 0)
    m["fountain.absorb.rows"] = (rows, "count")
    m["fountain.absorb.useful_frac"] = (
        ratio(counts.get("fountain.absorb.useful", 0), rows), "frac")
    m["fountain.decode_fail_frac"] = (
        ratio(rep.decode_failures, rep.decodes), "frac")
    m["cli.write_s"] = (stat("cli.write", "total_s"), "s")
    m["trace.setup_overhead_frac"] = (rep.setup_s / untraced["setup_s"] - 1, "frac")
    m["trace.run_overhead_frac"] = (rep.run_s / untraced["run_s"] - 1, "frac")
    m["trace.decode_overhead_frac"] = (
        ratio(rep.decode_s, untraced["decode_s"]) - 1, "frac")
    m["trace.wrapper_s"] = (report["wrapper_s"] * scale, "s")
    # The run phase with the wrapper cost taken out, against the untraced
    # run phase: near 0 when the corrected self times add up to the
    # untraced run.
    run_wrapper_s = stat("engine.run", "inner_s") - stat("engine.init_sim", "inner_s")
    m["trace.run_residual_frac"] = ((rep.run_s - run_wrapper_s) / untraced["run_s"] - 1, "frac")
    return m


def main(argv: list[str] | None = None) -> int:
    _import_package()
    from speed import SpeedProbe
    from workloads import ACCEPTANCE_SEED, WORKLOADS, run_once, setup_only

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=ACCEPTANCE_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--record", help="record path (default .bench_out/<run>.json)")
    args = ap.parse_args(argv)

    w = WORKLOADS[args.workload]
    cfg, data = w.inputs(args.seed, args.size == "small")
    out_root = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_root, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{w.name}-", dir=out_root) as work_dir, \
            SpeedProbe() as speed:
        reps = []
        start = time.perf_counter()
        while True:  # as many repetitions as fit in --seconds, at least min_reps
            path = os.path.join(work_dir, str(len(reps)))
            reps.append(run_once(w, cfg, data, path, speed)[0])
            elapsed = time.perf_counter() - start
            if len(reps) >= w.min_reps and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
                break
        setups = [r.setup_s for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(setup_only(w, cfg, data, speed))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = report = None
        if args.trace:
            traced, tracer = run_once(w, cfg, data, os.path.join(work_dir, "traced"),
                                      speed, traced=True)
            # The wrapper cost was measured at the machine's speed during
            # calibration; the layer times are scaled by that of the run.
            report = tracer.report(
                cost_scale=speed.factor(*tracer.calibrated) / traced.ref_per_wall)
        probes = len(speed.starts)

    untraced = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(r.run_s for r in reps),
        "decode_s": statistics.median(r.decode_s for r in reps),
    }
    problems = [v for r in reps for v in r.violations]
    if any(r.counters != reps[0].counters for r in reps):
        problems.append("counters differ between repetitions of one input")
    measured = reps + ([traced] if traced else [])
    if traced:
        problems += traced.violations
        if traced.counters != reps[0].counters:
            problems.append("tracing changed the outputs")
        if report["counts"].get("engine.chunks_moved", 0) != traced.counters["chunks_moved"]:
            problems.append("traced chunk count disagrees with the final stores")
    attempted = sum(1 + r.decodes for r in measured)
    failed = sum(bool(r.violations) + r.decode_failures for r in measured)
    correct = not problems and failed == 0

    if args.trace:
        metrics = layer_metrics(report, traced, untraced)
    else:
        metrics = {
            "sim_hours_per_s": (statistics.median(r.sim_hours / r.run_s for r in reps), "h/s"),
            "setup_s": (untraced["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
            "decode_s": (untraced["decode_s"], "s"),
        }

    counters = reps[0].counters
    record = {
        "workload": w.name,
        "why": w.why,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine_facts(),
        "counters": counters,
        "correct": correct,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "setups_s": setups,
        "speed_probes": probes,
        "reps": [{k: v for k, v in vars(r).items() if k != "counters"} for r in reps],
        "traced_rep": traced and {k: v for k, v in vars(traced).items() if k != "counters"},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "trace_report": report,
    }
    record_path = args.record or os.path.join(
        out_root, f"{w.name}-seed{args.seed}-trace{args.trace}-{args.size}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{w.name} seed {args.seed}: {len(reps)} repetition(s), "
          f"{len(setups)} set-ups, {attempted} attempted, {failed} failed")
    for key in ("cell_seed", "completions", "t50_s", "t90_s", "contacts", "chunks_moved",
                "trips", "decoded"):
        print(f"  counter {key} = {counters[key]}")
    for name, digest in counters["csv_sha256"].items():
        print(f"  sha256 {name} = {digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
