"""Experiment configuration: defaults, file parsing, sweep specs.

Config files are flat ``key = value`` text with ``#`` comments.  Every
key has a default, so an empty file is a valid experiment.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from vancast.mobility import DAY_LEN, ROUTING_POLICIES
from vancast.roadnet import check_grid, float_text


@dataclass
class ExperimentConfig:
    """All knobs of one simulation run."""

    # Road network: a generated grid unless graph_file is given.
    rows: int = 10
    cols: int = 10
    block_len: float = 200.0
    main_cols: list[int] = field(default_factory=lambda: [2, 5, 8])
    graph_file: str | None = None

    # Fleet and content.
    n_vehicles: int = 1000
    seed_rate: float = 0.01
    n_chunks: int = 450
    decode_threshold: int = 300
    file_size: int = 400_000

    # Radio link.
    transfer_rate: float = 800_000.0  # bits per second, per direction
    comm_range: float = 100.0  # meters
    parked_exchange: bool = False
    share_bandwidth: bool = False

    # Mobility.
    mean_trips: float = 3.0
    max_trip_dist: float = 10_000.0
    speed: float = 13.9  # meters per second
    routing_policy: str = "random"
    main_road_fraction: float = 0.0

    # Time base.
    dt: float = 1.0
    sim_duration: float = 259_200.0  # three days
    sample_interval: float = 60.0

    # Bookkeeping.
    master_seed: int = 42
    replicates: int = 5
    out_dir: str = "results"

    def symbol_size(self) -> int:
        """Payload bytes per chunk: the file split decode_threshold ways."""
        return math.ceil(self.file_size / self.decode_threshold)

    def wire_bytes(self) -> int:
        """On-air bytes per chunk: 4-byte id plus the payload."""
        return 4 + self.symbol_size()

    def chunks_per_step(self) -> float:
        """Chunks one direction of a dedicated link carries in a dt step."""
        return self.transfer_rate / (8 * self.wire_bytes()) * self.dt

    def steps(self, seconds: float, key: str) -> int:
        """``seconds`` in whole dt steps; ValueError naming ``key`` if not whole
        (to a relative 1e-12, since a dt like 0.1 has no exact binary form)."""
        n = round(seconds / self.dt, 0)  # a float, so a tiny dt's inf fails the match
        if not math.isclose(n * self.dt, seconds, rel_tol=1e-12):
            raise ValueError(f"{key} = {float_text(seconds)} s is not a multiple of dt")
        return int(n)

    def validate(self):
        def positive(name: str, allow_zero: bool = False):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            if allow_zero and v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
            if not allow_zero and v <= 0:
                raise ValueError(f"{name} must be positive, got {v}")

        for name in ("rows", "cols", "n_vehicles", "n_chunks", "decode_threshold",
                     "file_size", "block_len", "transfer_rate", "comm_range",
                     "max_trip_dist", "speed", "dt", "sample_interval",
                     "replicates"):
            positive(name)
        if not math.isfinite(self.chunks_per_step()):
            raise ValueError(f"transfer_rate = {float_text(self.transfer_rate)} b/s over "
                             f"dt = {float_text(self.dt)} s is not a finite number of "
                             f"chunks a step")
        positive("mean_trips", allow_zero=True)
        try:  # a throwaway generator: numpy checks the mean before it draws
            np.random.default_rng(0).poisson(self.mean_trips, size=0)
        except ValueError:
            raise ValueError(f"mean_trips = {float_text(self.mean_trips)} is too large for "
                             f"numpy's Poisson draw of a vehicle's trips a day") from None
        positive("sim_duration", allow_zero=True)
        if self.decode_threshold > self.n_chunks:
            raise ValueError(
                f"decode_threshold {self.decode_threshold} exceeds "
                f"n_chunks {self.n_chunks}"
            )
        for name in ("seed_rate", "main_road_fraction"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        if self.routing_policy not in ROUTING_POLICIES:
            raise ValueError(
                f"routing_policy must be one of {ROUTING_POLICIES}, "
                f"got {self.routing_policy!r}"
            )
        if self.graph_file is None:
            check_grid(self.rows, self.cols, self.block_len)
            for c in self.main_cols:
                if not (0 <= c < self.cols):
                    raise ValueError(f"main column {c} outside 0..{self.cols - 1}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        self.steps(DAY_LEN, "one day")
        self.steps(self.sim_duration, "sim_duration")
        self.steps(self.sample_interval, "sample_interval")


def _parse_bool(raw: str) -> bool:
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_int_list(raw: str) -> list[int]:
    raw = raw.strip()
    if not raw or raw.lower() == "none":
        return []
    return [int(part) for part in raw.split(",")]


_PARSERS = {"int": (int, "an int"), "float": (float, "a float"),
            "bool": (_parse_bool, "a boolean"), "list[int]": (_parse_int_list, "a list of ints")}


def coerce_value(name: str, raw: str):
    """Convert a raw config string to the type of field ``name``.

    A value that does not convert raises a ValueError naming the key, the
    value and the type expected, e.g. ``n_vehicles = 'many' is not an int``.
    """
    spec = {f.name: f for f in fields(ExperimentConfig)}.get(name)
    if spec is None:
        raise ValueError(f"unknown config key {name!r}")
    raw = raw.strip()
    if name == "graph_file":
        return None if (not raw or raw.lower() == "none") else raw
    if spec.type not in _PARSERS:
        return raw
    parse, kind = _PARSERS[spec.type]
    try:
        return parse(raw)
    except ValueError:
        raise ValueError(f"{name} = {raw!r} is not {kind}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines on top of the defaults.

    Raises ValueError with the line number for unknown keys, repeated
    keys, and malformed lines or values.
    """
    cfg = ExperimentConfig()
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        if key in seen:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        try:
            value = coerce_value(key, raw)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def apply_overrides(cfg: ExperimentConfig, pairs: list[str]) -> ExperimentConfig:
    """Apply command-line ``key=value`` overrides to a config copy."""
    out = replace(cfg)
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        setattr(out, key.strip(), coerce_value(key.strip(), raw))
    out.validate()
    return out


def config_lines(cfg: ExperimentConfig) -> list[str]:
    """Render a config as key = value lines in declaration order."""
    out = []
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if f.name == "main_cols":
            v = ",".join(str(c) for c in v) if v else "none"
        elif v is None:
            v = "none"
        elif isinstance(v, bool):
            v = "true" if v else "false"
        elif isinstance(v, float):
            v = float_text(v)
        out.append(f"{f.name} = {v}")
    return out


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and the values to try."""

    param: str
    values: tuple

    def __post_init__(self):
        names = {f.name for f in fields(ExperimentConfig)}
        if self.param not in names:
            raise ValueError(f"cannot sweep unknown parameter {self.param!r}")
        # Keys that set how the whole sweep runs, not what one cell simulates.
        why = {"master_seed": "each replicate's seed is derived from it; set it with --seed",
               "replicates": "it sets the runs per value; set it with --replicates",
               "out_dir": "every cell writes into one directory; set it with --out"}
        if self.param in why:
            raise ValueError(f"cannot sweep {self.param}: {why[self.param]}")
        if not self.values:
            raise ValueError("sweep needs at least one value")
        keys = [value_key(v) for v in self.values]
        for key in keys:
            if keys.count(key) > 1:
                raise ValueError(f"sweep value {key} is given more than once")

    @classmethod
    def from_strings(cls, param: str, raw_values: list[str]) -> "SweepSpec":
        return cls(param, tuple(coerce_value(param, v) for v in raw_values))


def value_key(value) -> str:
    """Canonical short string for a swept value (used in file names)."""
    if isinstance(value, float):
        return float_text(value)
    return str(value)


def replicate_seed(master_seed: int, param: str, value, rep: int) -> int:
    """Independent, reproducible seed for one replicate of a sweep cell."""
    tag = f"{master_seed}|{param}|{value_key(value)}|{rep}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "little")
