"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``.

The small-size runs take a few seconds each; the acceptance-number test
runs two workloads at full size (about half a minute).
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def bench(cwd: str, record: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*BENCH["command"], "--record", record, *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_mode_emits_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = bench(ROOT, str(tmp_path / "rec.json"), "--workload", workload, "--seed", "3",
                 "--seconds", "0", "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    expected = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_repeats_counters_and_digests(tmp_path):
    records = []
    for i in range(2):
        path = tmp_path / f"rec{i}.json"
        proc = bench(ROOT, str(path), "--workload", "arterial_rush", "--seed", "5",
                     "--seconds", "0", "--size", "small")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        records.append(json.loads(path.read_text()))
    assert records[0]["counters"] == records[1]["counters"]
    assert records[0]["counters"]["contacts"] > 0 and records[0]["counters"]["trips"] > 0
    other = tmp_path / "other.json"
    assert bench(ROOT, str(other), "--workload", "arterial_rush", "--seed", "6",
                 "--seconds", "0", "--size", "small").returncode == 0
    assert json.loads(other.read_text())["counters"] != records[0]["counters"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(str(tmp_path), str(tmp_path / "rec.json"),
                 "--workload", WORKLOADS[0], "--size", "small")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_default_seed_reproduces_acceptance_numbers(tmp_path):
    cell = tmp_path / "cell.json"
    assert bench(ROOT, str(cell), "--workload", "seed_rate_cell",
                 "--seconds", "0").returncode == 0
    assert json.loads(cell.read_text())["counters"]["t50_s"] == pytest.approx(16_510.0)

    payload = tmp_path / "payload.json"
    assert bench(ROOT, str(payload), "--workload", "payload_decode",
                 "--seconds", "0").returncode == 0
    counters = json.loads(payload.read_text())["counters"]
    assert counters["completions"] == counters["decoded"] == 37
    assert counters["decode_failures"] == 0


class _Layer:
    def leaf(self, a, b):
        pass

    def loop(self, n):
        for _ in range(n):
            self.leaf(1, 2)


def test_tracer_takes_its_own_cost_out():
    from tracer import Tracer

    n = 200_000
    layer = _Layer()
    t0 = time.perf_counter()
    layer.loop(n)
    bare_s = time.perf_counter() - t0
    with Tracer() as tracer:
        tracer.calibrate()
        tracer.wrap(_Layer, "leaf", "leaf")
        tracer.wrap(_Layer, "loop", "loop")
        layer.loop(n)
    report = tracer.report()
    raw_s = tracer.stats["loop"].total_s
    # Without the correction the wrappers would be most of the loop's time.
    assert raw_s - bare_s > 3 * bare_s
    assert report["wrapper_s"] == pytest.approx(raw_s - bare_s, rel=0.5)
    assert report["calls"]["loop"]["total_s"] == pytest.approx(bare_s, abs=0.5 * (raw_s - bare_s))
