"""Tests of the benchmark itself: ``python3 -m pytest hostbench``.

The end-to-end tests run the real runner in-process on scaled-down
variants of the two workloads (same code paths, seconds instead of
minutes).
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class SmallTsp(workloads.Tsp256):
    NODES = 16
    CITIES = 8
    PREFIX_DEPTH = 3


class SmallWorker(workloads.WorkerOverflowAnalyze):
    NODES = 16
    SIZE = 4
    ITERATIONS = 2


SMALL = {"tsp256": SmallTsp, "worker-overflow-analyze": SmallWorker}


@pytest.fixture
def small(monkeypatch):
    """Run the small variants under the real names, with no pins (their
    outputs differ from the full-size ones)."""
    monkeypatch.setattr(workloads, "WORKLOADS", dict(SMALL))
    monkeypatch.setattr(workloads, "PINNED", {})


def run_bench(capsys, workload: str, trace: int, seed: int = 7):
    code = run.main(["--workload", workload, "--seed", str(seed),
                     "--seconds", "0.1", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def declared(section: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_lists_every_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(
        workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(SMALL))
@pytest.mark.parametrize("trace", [0, 1])
def test_metric_set_matches_benchmark_json(small, capsys, workload, trace):
    result = run_bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == declared(section)
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_layers_add_up_to_the_traced_pass(small, capsys, workload):
    metrics = run_bench(capsys, workload, 1)["metrics"]
    value = {name: m["value"] for name, m in metrics.items()}
    total = sum(value[f"{layer}.self_s"]
                for layer in layers.LAYERS + (layers.OTHER,))
    assert total == pytest.approx(value["trace.pass_s"], rel=1e-9)
    assert value["other.share"] < 0.2
    assert value["tracing.overhead_ratio"] > 1


def test_corrupted_pin_is_a_failed_operation(small, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "PINNED", {"tsp256": "0" * 64})
    result = run_bench(capsys, "tsp256", 0)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_without_a_pin_passes_are_checked_against_the_first():
    ledger = run.Ledger(None)
    ok = workloads.PassOutput("a" * 64, [])
    assert ledger.verdict(ok) is None
    assert ledger.verdict(ok) is None
    assert ledger.verdict(workloads.PassOutput("b" * 64, [])) is not None
    assert ledger.verdict(
        workloads.PassOutput("a" * 64, [], "wrong tour")) == "wrong tour"
    assert (ledger.attempted, ledger.failed) == (4, 2)


@pytest.mark.parametrize("layer", layers.LAYERS)
def test_every_boundary_resolves_on_the_current_classes(layer):
    assert layers.resolve(layer)


def boundary_functions():
    return {(layer, name): vars(owner)[name]
            for layer in layers.LAYERS
            for owner, name, _fn in layers.resolve(layer)}


def test_install_wraps_and_uninstall_restores_every_boundary():
    before = boundary_functions()
    tracer = layers.Tracer()
    tracer.install()
    try:
        during = boundary_functions()
    finally:
        tracer.uninstall()
    wrapped = {key for key in before if during[key] is not before[key]}
    # Workload boundaries are wrapped on each subclass, not the base.
    assert wrapped == {key for key in before if key[0] != "workload"}
    assert boundary_functions() == before


def test_a_missing_boundary_fails_loudly(monkeypatch):
    boundaries = dict(layers.BOUNDARIES)
    boundaries["cache"] = (("repro.cache.cache", "DirectMappedCache",
                            ("lookup", "no_such_method")),)
    monkeypatch.setattr(layers, "BOUNDARIES", boundaries)
    from repro.cache.cache import DirectMappedCache

    lookup = vars(DirectMappedCache)["lookup"]
    with pytest.raises(layers.BoundaryMissing, match="no_such_method"):
        layers.Tracer().install()
    assert vars(DirectMappedCache)["lookup"] is lookup


def test_without_the_program_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "tsp256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
