"""Configuration parsing, sweep bookkeeping, and CLI entry points."""

import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

from vancast.cli import main, milestone_hours, run_sweep
from vancast.config import (
    ExperimentConfig,
    SweepSpec,
    apply_overrides,
    coerce_value,
    config_lines,
    parse_config,
    replicate_seed,
    value_key,
)
from vancast.engine import Metrics


TINY = [
    "rows=1",
    "cols=2",
    "block_len=50",
    "main_cols=none",
    "n_vehicles=2",
    "seed_rate=0.5",
    "mean_trips=0",
    "parked_exchange=true",
    "dt=1",
    "sim_duration=5",
    "sample_interval=1",
]


def tiny_args():
    out = []
    for pair in TINY:
        out += ["--set", pair]
    return out


# --- defaults and validation -----------------------------------------------


def test_default_parameter_set():
    cfg = ExperimentConfig()
    assert (cfg.rows, cfg.cols, cfg.block_len) == (10, 10, 200.0)
    assert cfg.main_cols == [2, 5, 8]
    assert cfg.n_vehicles == 1000
    assert cfg.seed_rate == 0.01
    assert cfg.n_chunks == 450
    assert cfg.decode_threshold == 300
    assert cfg.file_size == 400_000
    assert cfg.transfer_rate == 800_000.0
    assert cfg.comm_range == 100.0
    assert cfg.mean_trips == 3.0
    assert cfg.max_trip_dist == 10_000.0
    assert cfg.speed == 13.9
    assert cfg.dt == 1.0
    assert cfg.sim_duration == 259_200.0
    assert cfg.sample_interval == 60.0
    assert cfg.routing_policy == "random"
    assert cfg.parked_exchange is False
    cfg.validate()


def test_chunk_geometry_from_defaults():
    cfg = ExperimentConfig()
    assert cfg.symbol_size() == 1334  # ceil(400000 / 300)
    assert cfg.wire_bytes() == 1338


def test_chunks_per_step_is_the_link_rate_over_the_wire_chunk():
    assert ExperimentConfig().chunks_per_step() == 800_000.0 / (8 * 1338) * 1.0
    assert ExperimentConfig(transfer_rate=1.5 * 8 * 1338, dt=2.0).chunks_per_step() == 3.0


def test_validate_refuses_a_link_of_infinite_chunks_a_step():
    # each factor is finite, but 1e308 b/s over 21600 s steps is not
    cfg = ExperimentConfig(transfer_rate=1e308, dt=21_600.0, sim_duration=86_400.0,
                           sample_interval=21_600.0)
    with pytest.raises(ValueError, match="transfer_rate = 1e\\+308 b/s over dt = 21600 s"):
        cfg.validate()
    cfg.transfer_rate = 1e300
    cfg.validate()


@pytest.mark.parametrize(
    "field,value",
    [
        ("rows", 0),
        ("n_vehicles", -5),
        ("seed_rate", 1.01),
        ("main_road_fraction", -0.1),
        ("decode_threshold", 500),
        ("dt", 0.0),
        ("sim_duration", -1.0),
        ("speed", 0.0),
        ("routing_policy", "scenic"),
        ("main_cols", [12]),
    ],
)
def test_validate_rejects_bad_values(field, value):
    cfg = ExperimentConfig()
    setattr(cfg, field, value)
    with pytest.raises(ValueError):
        cfg.validate()


def test_validate_refuses_a_1x1_grid_by_name():
    cfg = ExperimentConfig(rows=1, cols=1, main_cols=[])
    with pytest.raises(ValueError, match="^rows = cols = 1 is a 1x1 grid, which has no edges"):
        cfg.validate()
    cfg.cols = 2
    cfg.validate()


def test_validate_refuses_a_mean_trips_numpy_cannot_draw():
    # numpy refuses a Poisson mean above about 9.22e18 before drawing
    cfg = ExperimentConfig(mean_trips=1e19)
    with pytest.raises(ValueError, match="^mean_trips = 1e\\+19 is too large"):
        cfg.validate()
    cfg.mean_trips = 1e18
    cfg.validate()


FLOAT_FIELDS = [f.name for f in fields(ExperimentConfig) if f.type == "float"]


@pytest.mark.parametrize("field", FLOAT_FIELDS)
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_config_rejects_non_finite_floats(field, raw):
    """Every float key, so a float key added later must be checked too."""
    with pytest.raises(ValueError, match=f"^{field} must (be finite|lie in)"):
        parse_config(f"{field} = {raw}")


def test_spans_must_be_whole_numbers_of_steps():
    with pytest.raises(ValueError, match="one day = 86400 s is not a multiple of dt"):
        parse_config("dt = 7")
    with pytest.raises(ValueError, match="sim_duration = 3600.5 s is not a multiple"):
        parse_config("dt = 1\nsim_duration = 3600.5")
    # :g would print 1.00002e+06, a value that is a multiple
    with pytest.raises(ValueError, match=r"sim_duration = 1000015\.5 s is not a multiple"):
        ExperimentConfig(sim_duration=1000015.5).validate()
    with pytest.raises(ValueError, match="sample_interval"):
        parse_config("dt = 2\nsample_interval = 45")
    with pytest.raises(ValueError, match="one day"):  # 86400 / dt overflows to inf
        parse_config("dt = 1e-320")
    cfg = parse_config("dt = 0.1\nsim_duration = 3600")
    assert cfg.steps(cfg.sim_duration, "sim_duration") == 36_000
    assert cfg.steps(86_400.0, "one day") == 864_000


def test_zero_duration_is_allowed():
    cfg = ExperimentConfig(sim_duration=0.0)
    cfg.validate()


# --- config text parsing ------------------------------------------------------


def test_parse_config_full_file():
    text = """
    # experiment: quick look
    n_vehicles = 500
    seed_rate = 0.05          # a twentieth
    main_cols = 1,3
    graph_file = none
    parked_exchange = yes
    routing_policy = shortest
    """
    cfg = parse_config(text)
    assert cfg.n_vehicles == 500
    assert cfg.seed_rate == 0.05
    assert cfg.main_cols == [1, 3]
    assert cfg.graph_file is None
    assert cfg.parked_exchange is True
    assert cfg.routing_policy == "shortest"
    # untouched keys keep their defaults
    assert cfg.n_chunks == 450


def test_parse_config_error_reporting():
    with pytest.raises(ValueError, match="line 1"):
        parse_config("warp_speed = 9")
    with pytest.raises(ValueError, match="line 2"):
        parse_config("rows = 5\nthis is not a pair\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_config("rows = 5\ncols = 5\nrows = 6\n")
    with pytest.raises(ValueError, match=r"^line 1: n_vehicles = 'many' is not an int$"):
        parse_config("n_vehicles = many")
    with pytest.raises(ValueError, match=r"^line 2: seed_rate = 'abc' is not a float$"):
        parse_config("rows = 5\nseed_rate = abc # note")
    with pytest.raises(ValueError, match=r"^line 1: parked_exchange = 'maybe' is not a boolean$"):
        parse_config("parked_exchange = maybe")
    with pytest.raises(ValueError, match=r"^line 1: main_cols = '2,x' is not a list of ints$"):
        parse_config("main_cols = 2,x")


def test_parse_config_validates_result():
    with pytest.raises(ValueError, match="seed_rate"):
        parse_config("seed_rate = 7")


def test_parse_config_refuses_a_negative_master_seed():
    with pytest.raises(ValueError, match="^master_seed must be >= 0, got -3$"):
        parse_config("master_seed = -3")
    assert parse_config("master_seed = 0").master_seed == 0


def test_config_lines_roundtrip():
    cfg = ExperimentConfig(
        n_vehicles=77,
        seed_rate=0.002,
        main_cols=[4],
        parked_exchange=True,
        graph_file=None,
        speed=21.5,
    )
    back = parse_config("\n".join(config_lines(cfg)))
    assert back == cfg


def test_config_lines_roundtrip_floats_that_g_would_round():
    cfg = ExperimentConfig(sim_duration=1_000_015.0, seed_rate=0.1234561, speed=13.9)
    lines = config_lines(cfg)
    assert "sim_duration = 1000015.0" in lines and "speed = 13.9" in lines
    assert parse_config("\n".join(lines)) == cfg


def test_apply_overrides():
    cfg = ExperimentConfig()
    out = apply_overrides(cfg, ["n_vehicles=50", "seed_rate=0.1"])
    assert out.n_vehicles == 50
    assert out.seed_rate == 0.1
    assert cfg.n_vehicles == 1000  # original untouched
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["n_vehicles"])
    with pytest.raises(ValueError):
        apply_overrides(cfg, ["nope=1"])
    with pytest.raises(ValueError, match=r"^n_vehicles = 'many' is not an int$"):
        apply_overrides(cfg, ["n_vehicles=many"])


def test_coerce_value_types():
    assert coerce_value("n_vehicles", "250") == 250
    assert coerce_value("seed_rate", "0.3") == 0.3
    assert coerce_value("share_bandwidth", "off") is False
    assert coerce_value("main_cols", "") == []
    assert coerce_value("graph_file", "roads.txt") == "roads.txt"
    with pytest.raises(ValueError):
        coerce_value("bogus", "1")
    for key, raw, kind in (("n_vehicles", " 2.5", "an int"), ("dt", "fast", "a float"),
                           ("share_bandwidth", "2", "a boolean"),
                           ("main_cols", "1;2", "a list of ints")):
        with pytest.raises(ValueError, match=rf"^{key} = '{raw.strip()}' is not {kind}$"):
            coerce_value(key, raw)


# --- sweep bookkeeping ----------------------------------------------------------


def test_sweep_spec_typing_and_validation():
    spec = SweepSpec.from_strings("seed_rate", ["0.1", "0.05"])
    assert spec.values == (0.1, 0.05)
    spec = SweepSpec.from_strings("n_vehicles", ["500", "1000"])
    assert spec.values == (500, 1000)
    with pytest.raises(ValueError):
        SweepSpec("bogus", (1,))
    with pytest.raises(ValueError):
        SweepSpec("seed_rate", ())
    # two spellings of one value would run, and write, the same cells twice
    with pytest.raises(ValueError, match="sweep value 0.05 is given more than once"):
        SweepSpec.from_strings("seed_rate", ["0.05", "0.1", "0.050"])


def test_value_key_formats():
    assert value_key(0.5) == "0.5"
    assert value_key(2.0) == "2"
    assert value_key(800_000.0) == "800000"
    assert value_key(1500) == "1500"
    # values that six significant digits would merge keep every digit
    assert value_key(0.1234561) == "0.1234561"
    assert value_key(0.1234562) == "0.1234562"
    assert replicate_seed(7, "seed_rate", 0.1234561, 0) != replicate_seed(
        7, "seed_rate", 0.1234562, 0
    )


def test_replicate_seed_properties():
    s = replicate_seed(42, "seed_rate", 0.05, 0)
    assert s == replicate_seed(42, "seed_rate", 0.05, 0)
    distinct = {
        replicate_seed(42, "seed_rate", 0.05, rep) for rep in range(10)
    }
    assert len(distinct) == 10
    assert replicate_seed(42, "seed_rate", 0.05, 0) != replicate_seed(
        42, "n_vehicles", 0.05, 0
    )
    assert replicate_seed(1, "seed_rate", 0.05, 0) != replicate_seed(
        2, "seed_rate", 0.05, 0
    )


def tiny_cfg(**overrides):
    cfg = parse_config("\n".join(TINY))
    for key, val in overrides.items():
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def test_run_sweep_outputs(tmp_path):
    cfg = tiny_cfg(replicates=2, master_seed=9)
    spec = SweepSpec.from_strings("seed_rate", ["0.5", "1"])
    runs = run_sweep(cfg, spec, str(tmp_path))
    assert len(runs) == 4
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "seed_rate=0.5_rep0.csv",
        "seed_rate=0.5_rep1.csv",
        "seed_rate=1_rep0.csv",
        "seed_rate=1_rep1.csv",
        "summary.csv",
    ]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    comments = [ln for ln in summary if ln.startswith("#")]
    assert any("seed_rate" in ln for ln in comments)
    header = [ln for ln in summary if ln.startswith("param,")][0]
    assert "t80_mean_h" in header
    data_rows = [ln for ln in summary if not ln.startswith(("#", "param,"))]
    assert len(data_rows) == 2
    assert data_rows[1].startswith("seed_rate,1,2,")


def test_run_sweep_rerun_is_byte_identical(tmp_path):
    cfg = tiny_cfg(replicates=2)
    spec = SweepSpec.from_strings("transfer_rate", ["200000", "800000"])
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run_sweep(cfg, spec, str(d1))
    run_sweep(cfg, spec, str(d2))
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_sweep_validates_every_cell_before_the_first_run(tmp_path):
    # dt = 0.7 s divides neither the 5 s run nor the 1 s sample interval
    spec = SweepSpec.from_strings("dt", ["1", "0.7"])
    with pytest.raises(ValueError, match="multiple of dt"):
        run_sweep(tiny_cfg(replicates=2), spec, str(tmp_path / "sw"))
    assert not (tmp_path / "sw").exists()


def test_milestone_hours_shape():
    m = Metrics(samples=[(0.0, 0), (3600.0, 50), (7200.0, 100)])
    hours = milestone_hours(m, 100)
    assert hours[0.3] == pytest.approx(0.6)
    assert hours[0.99] == pytest.approx(1.98)
    assert set(hours) == {0.3, 0.5, 0.8, 0.9, 0.99}


# --- command line ----------------------------------------------------------------


def test_cli_run_writes_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "res"
    code = main(["run", *tiny_args(), "--out", str(out), "--quiet"])
    assert code == 0
    text = capsys.readouterr().out
    assert "completed 2/2" in text
    assert "t80 = " in text
    csv = (out / "run.csv").read_text().splitlines()
    assert csv[0] == "time_s,completed_count,completed_fraction"
    assert csv[1] == "0,1,0.500000"
    assert csv[-1] == "5,2,1.000000"


def test_cli_run_reads_config_file(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("\n".join(TINY) + "\n")
    code = main(
        ["run", "--config", str(cfg_file), "--out", str(tmp_path / "r"), "--quiet"]
    )
    assert code == 0
    assert "completed 2/2" in capsys.readouterr().out


def test_cli_seed_flag_changes_run(tmp_path):
    base = tiny_args()
    out1, out2, out3 = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["run", *base, "--out", str(out1), "--seed", "5", "--quiet"]) == 0
    assert main(["run", *base, "--out", str(out2), "--seed", "5", "--quiet"]) == 0
    assert main(["run", *base, "--out", str(out3), "--seed", "6", "--quiet"]) == 0
    a = (out1 / "run.csv").read_bytes()
    assert a == (out2 / "run.csv").read_bytes()
    # different seed may pick the other vehicle as the seed; the run
    # itself still exists and parses
    assert (out3 / "run.csv").read_text().startswith("time_s,")


def test_cli_run_exits_2_on_cells_too_small_to_index(tmp_path, capsys):
    code = main(["run", *tiny_args(), "--set", "comm_range=1e-20", "--out",
                 str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "comm_range" in capsys.readouterr().err
    # 1e-320 m cells overflow the float division: refused at load, with no warning
    args = ["run", "--set", "n_vehicles=2", "--set", "parked_exchange=true", "--set",
            "comm_range=1e-320", "--set", "sim_duration=600", "--set", "seed_rate=0.5",
            "--out", str(tmp_path / "o"), "--quiet"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(args) == 2
    assert "comm_range" in capsys.readouterr().err


def test_cli_run_refuses_a_block_len_whose_grid_overflows(tmp_path, capsys):
    # 1e308 is finite, but a third column of nodes would sit at 2e308 = inf
    code = main(["run", *tiny_args(), "--set", "cols=3", "--set", "block_len=1e308",
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "block_len" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_refuses_a_block_len_whose_grid_overflows_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *tiny_args(), "--set", "cols=3", "--param", "block_len",
                 "--values", "100,1e308", "--replicates", "1", "--out", str(out), "--quiet"])
    assert code == 2
    assert "block_len" in capsys.readouterr().err
    assert not out.exists()  # not even the CSV of block_len = 100


# 1e308 b/s is finite, but over a 21600 s step it carries inf chunks.
HUGE_LINK = ["--set", "transfer_rate=1e308", "--set", "dt=21600", "--set", "sim_duration=86400",
             "--set", "sample_interval=21600", "--set", "n_vehicles=50", "--set",
             "mean_trips=10", "--set", "seed_rate=0.2"]


def test_cli_run_refuses_a_link_of_infinite_chunks_a_step(tmp_path, capsys):
    code = main(["run", *HUGE_LINK, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "transfer_rate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_refuses_a_link_of_infinite_chunks_a_step_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *HUGE_LINK[2:], "--param", "transfer_rate", "--values", "1000,1e308",
                 "--replicates", "1", "--out", str(out), "--quiet"])
    assert code == 2
    assert "transfer_rate" in capsys.readouterr().err
    assert not out.exists()  # not even the CSV of transfer_rate = 1000


# A 10x10 grid of 1.5e307 m blocks has a finite far side (1.35e308), but
# its 180 blocks sum past the largest float, so a route search could reach
# inf on a connected grid.
HUGE_GRID = ["--set", "rows=10", "--set", "cols=10", "--set", "block_len=1.5e307"]


def test_cli_gen_graph_refuses_a_block_len_whose_road_sums_overflow(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["gen-graph", "--block-len", "1.5e307", "--out", str(out), "--quiet"]) == 2
    assert "block_len" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_refuses_a_block_len_whose_road_sums_overflow(tmp_path, capsys):
    code = main(["run", *tiny_args(), *HUGE_GRID, "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "block_len" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cli_sweep_refuses_a_block_len_whose_road_sums_overflow_before_any_run(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", *tiny_args(), "--set", "rows=10", "--set", "cols=10", "--param",
                 "block_len", "--values", "100,1.5e307", "--replicates", "1", "--out", str(out),
                 "--quiet"])
    assert code == 2
    assert "block_len" in capsys.readouterr().err
    assert not out.exists()  # not even the CSV of block_len = 100


# Each was refused only when the run used it: the 1x1 grid by the grid
# builder, with a message naming no key, the mean by numpy's Poisson draw.
UNRUNNABLE = [("rows", "1", ["cols=1", "main_cols=none"]), ("mean_trips", "1e19", [])]


@pytest.mark.parametrize("key,bad,pairs", UNRUNNABLE)
def test_cli_run_refuses_a_value_it_cannot_run_by_name(tmp_path, capsys, key, bad, pairs):
    sets = [f"{key}={bad}", *pairs, "n_vehicles=5", "sim_duration=60"]
    code = main(["run", *(arg for pair in sets for arg in ("--set", pair)),
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("key,bad,pairs", UNRUNNABLE)
def test_cli_sweep_refuses_a_value_it_cannot_run_before_any_run(tmp_path, capsys, key, bad, pairs):
    out = tmp_path / "sweep"
    sets = [*pairs, "n_vehicles=5", "sim_duration=60"]
    code = main(["sweep", "--param", key, "--values", f"2,{bad}", "--replicates", "1",
                 *(arg for pair in sets for arg in ("--set", pair)), "--out", str(out), "--quiet"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # not even the CSV of the first value, 2


# Each passes validate and is refused by the run's set-up: radio cells too
# small to index, main-road trips without main roads, a home with no
# destination in reach.  The first value of each sweep runs.
SET_UP_REFUSALS = [
    ("comm_range", "100,1e-20", ["parked_exchange=true", "n_vehicles=60", "mean_trips=10",
                                 "sim_duration=7200", "seed_rate=0.2"]),
    ("main_road_fraction", "0,0.5", ["main_cols=none", "n_vehicles=5", "sim_duration=60"]),
    ("max_trip_dist", "10000,1", ["n_vehicles=5", "sim_duration=60"]),
]


@pytest.mark.parametrize("key,values,pairs", SET_UP_REFUSALS)
def test_cli_sweep_refuses_a_value_its_set_up_refuses_before_any_run(tmp_path, capsys, key,
                                                                     values, pairs):
    out = tmp_path / "sweep"
    code = main(["sweep", "--param", key, "--values", values, "--replicates", "1",
                 *(arg for pair in pairs for arg in ("--set", pair)), "--out", str(out), "--quiet"])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # not even the CSV of the first value


def test_cli_run_refuses_a_graph_file_whose_road_sums_overflow(tmp_path, capsys):
    # one road of 1e308 m between nodes 100 m apart: a trip that weighs it
    # more than 1.8 times over would find no path
    path = tmp_path / "long.txt"
    path.write_text("nodes 2 edges 1\nnode 0 0 0\nnode 1 100 0\nedge 0 0 1 1e308 0\n")
    code = main(["run", "--set", f"graph_file={path}", "--set", "max_trip_dist=1e308",
                 "--set", "n_vehicles=2", "--set", "sim_duration=600",
                 "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "graph_file" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "seed_rate",
                                                 "--values", "0.5"]])
def test_cli_refuses_a_negative_seed_before_running(tmp_path, capsys, command):
    out = tmp_path / "o"
    code = main([*command, *tiny_args(), "--seed", "-3", "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: master_seed must be >= 0, got -3")
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(
        [
            "sweep",
            *tiny_args(),
            "--param",
            "seed_rate",
            "--values",
            "0.5,1",
            "--replicates",
            "1",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "seed_rate=0.5_rep0.csv").exists()
    assert "2 runs" in capsys.readouterr().out


def test_cli_sweep_over_master_seed_is_an_error(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", *tiny_args(), "--param", "master_seed", "--values", "1,2",
                 "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot sweep master_seed") and "--seed" in err
    assert not out.exists()


@pytest.mark.parametrize("param, values, flag", [("replicates", "1,3", "--replicates"),
                                                 ("out_dir", "a,b", "--out")])
def test_cli_sweep_over_a_per_sweep_setting_is_an_error(tmp_path, capsys, param, values,
                                                         flag):
    out = tmp_path / "sw"
    code = main(["sweep", *tiny_args(), "--param", param, "--values", values,
                 "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot sweep {param}") and flag in err
    assert not out.exists()


def test_cli_sweep_refuses_a_repeated_value(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main(["sweep", *tiny_args(), "--param", "seed_rate", "--values", "0.05,0.050",
                 "--replicates", "2", "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: sweep value 0.05 is given more than once")
    assert not out.exists()


def test_cli_run_refuses_main_road_routing_without_main_roads(tmp_path, capsys):
    out = tmp_path / "r"
    code = main(["run", *tiny_args(), "--set", "mean_trips=3", "--set",
                 "main_road_fraction=0.5", "--out", str(out), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == ("error: main_road_fraction = 0.5 needs main roads, "
                                       "but main_cols gives none\n")
    assert not out.exists()


def test_cli_run_prints_the_exact_clock(tmp_path, capsys):
    args = [*tiny_args(), "--set", "dt=60", "--set", "sample_interval=3600",
            "--set", "sim_duration=12345660"]
    assert main(["run", *args, "--out", str(tmp_path / "r"), "--quiet"]) == 0
    # :g would print 1.23457e+07
    assert "completed 2/2 vehicles (100.0%) in 12345660.0 s" in capsys.readouterr().out


def test_cli_codec_selftest(capsys):
    code = main(["codec-selftest", "--trials", "3", "--seed", "1"])
    assert code == 0
    text = capsys.readouterr().out
    assert "PASS" in text
    assert "3/3" in text


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_cli_codec_selftest_refuses_no_trials(trials, capsys):
    assert main(["codec-selftest", "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert "--trials must be >= 1" in captured.err
    assert "PASS" not in captured.out


def test_cli_codec_selftest_refuses_a_negative_seed_by_name(monkeypatch, capsys):
    import vancast.fountain as fountain

    monkeypatch.setattr(fountain, "encode", lambda *a, **k: pytest.fail("encoded"))
    assert main(["codec-selftest", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "--seed must be >= 0, got -1" in captured.err
    assert captured.out == ""


def test_cli_gen_graph_roundtrips(tmp_path):
    from vancast.roadnet import load_road_graph

    path = tmp_path / "net.txt"
    code = main(
        [
            "gen-graph",
            "--rows",
            "4",
            "--cols",
            "5",
            "--block-len",
            "120",
            "--main-cols",
            "2",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    g = load_road_graph(str(path))
    assert g.n_nodes == 20
    assert sum(1 for e in g.edges if e.main) == 3


def test_cli_error_paths(tmp_path, capsys):
    # bad config value: clean message, exit 2
    code = main(["run", "--set", "seed_rate=5", "--quiet"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    # a value of the wrong type names its key, before anything runs
    assert main(["run", "--set", "n_vehicles=many", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: n_vehicles = 'many' is not an int\n"
    assert main(["sweep", "--param", "seed_rate", "--values", "0.1,abc", "--quiet",
                 "--out", str(tmp_path / "sweep")]) == 2
    assert capsys.readouterr().err == "error: seed_rate = 'abc' is not a float\n"
    assert not (tmp_path / "sweep").exists()
    code = main(["run", "--config", str(tmp_path / "missing.cfg"), "--quiet"])
    assert code == 2
    # gen-graph names the flag whose value it cannot use
    for flag, value, named in (("--block-len", "nan", "block_len"),
                               ("--main-cols", "2,x", "--main-cols")):
        assert main(["gen-graph", flag, value, "--out", str(tmp_path / "g.txt"), "--quiet"]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "g.txt").exists()
    with pytest.raises(SystemExit):
        main(["no-such-command"])
