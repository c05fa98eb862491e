"""Tests of the benchmark harness itself (outside tier-1's ``testpaths``).

    python3 -m pytest benchmarks/e2e -q

They run the benchmark at smoke size, so they take about half a minute.
"""

from __future__ import annotations

import glob
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Workload:
    """Watchdog stand-in: shares a graph, forks a child, blocks forever."""

    name = "hang"

    def __init__(self, seed, rec) -> None:
        self.tally = None

    def setup(self) -> None:
        from repro.graph.generators import erdos_renyi
        from repro.graph.store import share_graph

        self.segment = share_graph(erdos_renyi(50, 4.0, seed=1))
        if os.fork() == 0:
            time.sleep(3600)
            os._exit(0)
        time.sleep(3600)


def test_declaration_is_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names += [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in metrics:
        assert re.match(r"^[A-Za-z0-9_/%.-]{1,16}$", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in SPEC["end_to_end"]
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text()), proc.stdout, time.monotonic() - t0, out


def test_smoke_schema(smoke):
    doc, stdout, _, _ = smoke
    for key in ("git_sha", "utc", "nproc", "python", "numpy", "seed",
                "calib_ms"):
        assert key in doc["meta"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        result = doc["workloads"][workload]
        assert result["failed_share"] == 0, workload
        assert result["correct"] and result["attempted"] >= 1
        assert doc["meta"]["calib_ms"][workload]
        for metric in SPEC["end_to_end"]:
            entry = result["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"]
            assert entry["value"] != 0
            assert f"{metric['name']} " in stdout
    traced = doc["traced"]
    assert traced["failed"] == 0
    for metric in SPEC["per_layer"]:
        assert metric["name"] in traced["per_layer"], metric["name"]
        assert f"{metric['name']} " in stdout
    assert traced["spans"] > 0
    assert doc["workloads"]["sim-event"]["sim_stats_digest"]


def test_ladder_self_times_sum_to_their_rungs(smoke):
    layer = smoke[0]["traced"]["per_layer"]
    ladder_ms = smoke[0]["traced"]["ladder_ms"]
    for cls in ("light", "heavy"):
        def stem(name):
            return layer[f"{name}.{cls}"]

        service = sum(map(stem, (
            "engine.kernel_mcu", "core.api_self_mcu",
            "service.pipeline_self_mcu", "service.ipc_self_mcu",
        )))
        cluster = sum(map(stem, (
            "engine.kernel_mcu", "core.api_self_mcu",
            "service.pipeline_self_mcu", "cluster.coordinator_self_mcu",
            "cluster.wire_self_mcu", "cluster.fanout_self_mcu",
        )))
        per_ms = stem("engine.kernel_mcu") / ladder_ms[cls]["L0"]
        assert service == pytest.approx(ladder_ms[cls]["L3"] * per_ms)
        assert cluster == pytest.approx(ladder_ms[cls]["L6"] * per_ms)


def test_contract_line_lists_every_metric(smoke):
    doc = smoke[0]
    result = doc["workloads"]["svc-light"]
    line = json.loads(run.contract_line(result, 0, SPEC))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    line = json.loads(run.contract_line(doc["traced"], 1, SPEC))
    assert set(line["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_compare_file_against_itself(smoke):
    doc, _, _, path = smoke
    lines, regressed = compare.compare(doc, doc, SPEC)
    assert not regressed
    assert not any(line.endswith("worse") for line in lines)
    assert any("sim.stats_digest" in line and "equal" in line for line in lines)
    assert compare.main([str(path), str(path)]) == 0


def test_compare_flags_failures_and_moved_cycles(smoke):
    doc = smoke[0]
    worse = json.loads(json.dumps(doc))
    worse["workloads"]["svc-light"]["failed_share"] = 0.01
    assert compare.compare(doc, worse, SPEC)[1]
    moved = json.loads(json.dumps(doc))
    moved["workloads"]["sim-event"]["metrics"]["sim_cycles_total"][
        "value"
    ] *= 0.999
    assert compare.compare(doc, moved, SPEC)[1]


def test_watchdog_ends_a_hung_workload():
    t0 = time.monotonic()
    result = run.run_isolated(
        "hang", 0, 0.1, 0, module="test_harness", wall_limit=6.0
    )
    assert time.monotonic() - t0 < 20
    assert result["hung"] and not result["correct"]
    assert result["failed_share"] == 1.0
    assert result["failed"] == result["attempted"] >= 1
    assert run.group_pids(result["pid"]) == []
    assert result["leaked_shm_removed"]
    assert glob.glob(f"/dev/shm/xset-{result['pid']:x}-*") == []


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "svc-light",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
