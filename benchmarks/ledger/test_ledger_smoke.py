"""Smoke test of the perf ledger (``python -m pytest benchmarks/ledger -q``).

Outside tier-1's ``testpaths`` on purpose: it runs every workload
``--quick`` in both passes (about a minute). It pins the contract
between ``BENCHMARK.json`` and ``run.py`` — names, units, limits, one
result line — and that the counts the virtual clock makes repeat
exactly.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "ledger" / "run.py"
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]
IN_PROCESS = [w for w in WORKLOADS if w != "service_durable"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PASSES = {0: "end_to_end", 1: "per_layer"}


def invoke(directory: Path, workload: str, trace: int, seed: int):
    return subprocess.run(
        [sys.executable, str(directory / "benchmarks" / "ledger" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "2",
         "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=300, cwd=directory,
    )


@lru_cache(maxsize=None)
def result(workload: str, trace: int, run: int = 0) -> dict:
    """One quick run's result object (``run`` tells repeats apart)."""
    done = invoke(ROOT, workload, trace, seed=11)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_declaration_is_within_the_contract_limits():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert DECLARATION["paths"] == ["benchmarks/ledger"]
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(DECLARATION["end_to_end"]) <= 16
    assert 1 <= len(DECLARATION["per_layer"]) <= 128
    assert 1 <= DECLARATION["run_seconds"] <= 60
    names = WORKLOADS + [
        m["name"]
        for key in PASSES.values() for m in DECLARATION[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for workload in DECLARATION["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for key in PASSES.values():
        for metric in DECLARATION[key]:
            assert UNIT.match(metric["unit"]), metric
            assert metric["better"] in ("higher", "lower")
    for metric in DECLARATION["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARATION["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = [m for m in DECLARATION["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("trace", sorted(PASSES))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    got = result(workload, trace)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] is True
    assert got["failed"] == 0 and got["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARATION[PASSES[trace]]}
    assert {n: m["unit"] for n, m in got["metrics"].items()} == declared
    for name, metric in got["metrics"].items():
        assert isinstance(metric["value"], float), name
    if trace == 0:
        # End-to-end metrics are bounded as a share of the parent's
        # median, so none may read 0.
        assert all(m["value"] > 0 for m in got["metrics"].values())


@pytest.mark.parametrize("workload", IN_PROCESS)
def test_virtual_clock_counts_repeat_exactly(workload):
    first = result(workload, 1, run=0)["metrics"]
    second = result(workload, 1, run=1)["metrics"]
    exact = [
        name for name in first
        if name.endswith(".calls_per_update")
        or name in ("engine.virtual_us_per_update",
                    "engine.outputs_per_update",
                    "engine.clock.charges_per_update",
                    "core.reoptimizer.runs")
    ]
    assert len(exact) >= 14
    for name in exact:
        assert first[name]["value"] == second[name]["value"], name


AFFINITIES = """
import json, os, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from ledger import service
service.pin(service.CLIENT_CPU)
server = service.Server(sys.argv[1], sys.argv[3])
try:
    print(json.dumps([sorted(os.sched_getaffinity(0)),
                      sorted(os.sched_getaffinity(server.pid))]))
finally:
    server.kill()
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2, reason="one CPU: nothing to split"
)
def test_service_child_runs_on_another_cpu_than_its_clients(tmp_path):
    # As run_service does it: the clients pin themselves first, and the
    # child forked from the pinned thread must still reach the other CPU.
    done = subprocess.run(
        [sys.executable, "-c", AFFINITIES, str(ROOT / "src"),
         str(ROOT / "benchmarks"), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    clients, server = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(clients) == 1 and len(server) == 1
    assert clients != server


def test_fails_without_a_result_where_the_repo_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "ledger",
        tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = invoke(tmp_path, "star6_cached", 0, seed=11)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
