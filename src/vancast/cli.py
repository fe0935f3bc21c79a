"""Command line front end.

Subcommands:

* ``run``            one simulation, metrics to CSV, milestones to stdout
* ``sweep``          replicated runs over one parameter, plus a summary CSV
* ``codec-selftest`` encode/decode battery for the fountain code
* ``gen-graph``      write a grid road network in the text format

Everything here is also importable: :func:`run_sweep` is the same code
path the acceptance experiments use.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from vancast.config import (
    ExperimentConfig,
    SweepSpec,
    apply_overrides,
    config_lines,
    load_config,
    replicate_seed,
    value_key,
)
from vancast.engine import Metrics, prepare_sim, run, time_to_fraction, write_metrics_csv
from vancast.roadnet import float_text, generate_manhattan_grid, save_road_graph

log = logging.getLogger(__name__)

MILESTONES = (0.3, 0.5, 0.8, 0.9, 0.99)


def milestone_hours(metrics: Metrics, n_vehicles: int) -> dict[float, float | None]:
    """Hours to each completion milestone (None where never reached)."""
    out = {}
    for frac in MILESTONES:
        t = time_to_fraction(metrics, frac, n_vehicles)
        out[frac] = None if t is None else t / 3600.0
    return out


@dataclass(frozen=True)
class SweepRun:
    """Result of one replicate at one swept value."""

    param: str
    value: object
    rep: int
    seed: int
    n_vehicles: int
    metrics: Metrics
    csv_name: str


def run_sweep(
    cfg: ExperimentConfig, spec: SweepSpec, out_dir: str | None = None
) -> list[SweepRun]:
    """Run replicates for every swept value and write all CSVs.

    Each replicate gets its own seed derived from (master_seed, param,
    value, replicate), so cells are statistically independent yet the
    whole sweep is reproducible from one number.  Every cell goes through
    :func:`vancast.engine.prepare_sim`, with its own seed, before the first
    run: a value that a run's set-up would refuse (say, a ``comm_range``
    whose radio cells cannot be indexed, main-road trips on a graph with
    none, or a ``max_trip_dist`` that leaves a home no destination) fails
    the sweep before it writes anything.  Returns the per-run records in
    execution order.
    """
    out = out_dir if out_dir is not None else cfg.out_dir
    cells = []
    for value in spec.values:
        for rep in range(cfg.replicates):
            seed = replicate_seed(cfg.master_seed, spec.param, value, rep)
            cell = replace(cfg, **{spec.param: value}, master_seed=seed)
            prepare_sim(cell)
            cells.append((value, rep, seed, cell))
    os.makedirs(out, exist_ok=True)
    runs: list[SweepRun] = []
    for value, rep, seed, cell in cells:
        log.info("sweep %s=%s rep %d (seed %d)", spec.param, value_key(value), rep, seed)
        state = run(cell)
        name = f"{spec.param}={value_key(value)}_rep{rep}.csv"
        write_metrics_csv(state.metrics, cell.n_vehicles, os.path.join(out, name))
        runs.append(SweepRun(spec.param, value, rep, seed, cell.n_vehicles, state.metrics, name))
    write_sweep_summary(cfg, spec, runs, os.path.join(out, "summary.csv"))
    return runs


def write_sweep_summary(
    cfg: ExperimentConfig, spec: SweepSpec, runs: list[SweepRun], path: str
):
    """Aggregate milestone times per swept value into one CSV.

    The header echoes the base configuration as comments; each data row
    gives mean/min/max hours per milestone over the replicates that
    reached it, with the reached count alongside.
    """
    with open(path, "w", newline="") as fh:
        fh.write("# sweep summary\n")
        fh.write(f"# swept parameter: {spec.param}\n")
        for line in config_lines(cfg):
            fh.write(f"# {line}\n")
        cols = ["param", "value", "replicates"]
        for frac in MILESTONES:
            pct = int(round(frac * 100))
            cols += [
                f"t{pct}_reached",
                f"t{pct}_mean_h",
                f"t{pct}_min_h",
                f"t{pct}_max_h",
            ]
        fh.write(",".join(cols) + "\n")
        for value in spec.values:
            cell = [r for r in runs if r.value == value]
            row = [spec.param, value_key(value), str(len(cell))]
            reached = [milestone_hours(r.metrics, r.n_vehicles) for r in cell]
            for frac in MILESTONES:
                hours = [h[frac] for h in reached if h[frac] is not None]
                row.append(f"{len(hours)}/{len(cell)}")
                if hours:
                    row += [
                        f"{sum(hours) / len(hours):.6g}",
                        f"{min(hours):.6g}",
                        f"{max(hours):.6g}",
                    ]
                else:
                    row += ["", "", ""]
            fh.write(",".join(row) + "\n")


def _codec_selftest(trials: int, seed: int) -> int:
    """Random-subset decode battery; returns a process exit code."""
    from vancast.fountain import RankDeficientError, decode, encode, rank

    if trials < 1:
        raise ValueError(f"--trials must be >= 1, got {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    k, n = 300, 450
    data = rng.integers(0, 256, size=100_000, dtype=np.uint8).tobytes()
    chunks = encode(data, k=k, n=n)

    if decode(chunks[:k], k, len(data)) != data:
        print("FAIL: systematic chunks alone did not reproduce the file")
        return 1

    failures = sum(
        rank(rng.choice(n, size=k, replace=False), k) < k for _ in range(trials)
    )
    rate = 1.0 - failures / trials
    print(f"decoded {trials - failures}/{trials} random {k}-subsets ({rate:.4f})")

    sample = [chunks[int(c)] for c in rng.choice(n, size=k, replace=False)]
    try:
        out = decode(sample, k, len(data))
        byte_ok = out == data
    except RankDeficientError:
        byte_ok = False
    print(f"payload round trip: {'ok' if byte_ok else 'rank-deficient sample'}")

    if rate >= 0.99:
        print("PASS")
        return 0
    print("FAIL: success rate below 0.99")
    return 1


def _cmd_run(args) -> int:
    cfg = _load_cfg(args)
    prepare_sim(cfg)  # the set-up's refusals come before --out is made
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)  # and an unusable --out fails before the run
    state = run(cfg)
    csv_path = os.path.join(out, "run.csv")
    write_metrics_csv(state.metrics, cfg.n_vehicles, csv_path)
    n = cfg.n_vehicles
    done = state.completed_count
    end = cfg.steps(cfg.sim_duration, "sim_duration") * cfg.dt  # a settled run stops sooner
    print(
        f"completed {done}/{n} vehicles ({100.0 * done / n:.1f}%) "
        f"in {float_text(end)} s"
    )
    for frac, hours in milestone_hours(state.metrics, n).items():
        pct = int(round(frac * 100))
        print(f"t{pct} = {'n/a' if hours is None else f'{hours:.2f} h'}")
    print(f"metrics written to {csv_path}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_cfg(args)
    spec = SweepSpec.from_strings(args.param, args.values.split(","))
    if args.replicates is not None:
        cfg.replicates = args.replicates
        cfg.validate()
    out = args.out or cfg.out_dir
    runs = run_sweep(cfg, spec, out)
    print(f"{len(runs)} runs written to {out} (summary.csv aggregates)")
    return 0


def _cmd_gen_graph(args) -> int:
    try:
        main_cols = [int(c) for c in args.main_cols.split(",")] if args.main_cols else []
    except ValueError:
        raise ValueError(f"--main-cols {args.main_cols!r} is not a list of ints") from None
    g = generate_manhattan_grid(args.rows, args.cols, args.block_len, main_cols)
    save_road_graph(g, args.out)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges to {args.out}")
    return 0


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "set", None):
        cfg = apply_overrides(cfg, args.set)
    if args.seed is not None:
        cfg.master_seed = args.seed
    cfg.validate()
    return cfg


def _add_quiet(p: argparse.ArgumentParser):
    # accepted both before and after the subcommand; SUPPRESS keeps the
    # subparser from overwriting a --quiet given up front
    p.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS,
        help="warnings only",
    )


def _common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="key = value config file")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="master seed override")
    p.add_argument("--out", help="output directory (default from config)")
    _add_quiet(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vancast",
        description="vehicle-to-vehicle content distribution simulator",
    )
    parser.add_argument("--quiet", action="store_true", help="warnings only")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _common_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="replicated parameter sweep")
    _common_flags(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated values to try"
    )
    p_sweep.add_argument("--replicates", type=int, help="runs per value")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_codec = sub.add_parser("codec-selftest", help="fountain code battery")
    p_codec.add_argument("--trials", type=int, default=200)
    p_codec.add_argument("--seed", type=int, default=7)
    _add_quiet(p_codec)
    p_codec.set_defaults(func=lambda a: _codec_selftest(a.trials, a.seed))

    p_gen = sub.add_parser("gen-graph", help="write a grid road network file")
    p_gen.add_argument("--rows", type=int, default=10)
    p_gen.add_argument("--cols", type=int, default=10)
    p_gen.add_argument("--block-len", type=float, default=200.0)
    p_gen.add_argument("--main-cols", default="2,5,8")
    p_gen.add_argument("--out", required=True)
    _add_quiet(p_gen)
    p_gen.set_defaults(func=_cmd_gen_graph)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
