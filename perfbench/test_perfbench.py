"""Tiny-mode smoke test of the benchmark: output schema, metric names, determinism.

Asserts no timings. Run from the repository root::

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=300)


def record_and_result(workload: str, trace: int, seed: int = 3):
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return record, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_the_declared_metrics(workload, trace):
    record, result = record_and_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    env = record["environment"]
    assert env["blas_threads_pinned"] <= env["nproc"]
    assert {"python", "numpy", "blas", "blas_threads"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_its_wall_time(workload):
    _, result = record_and_result(workload, 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    self_total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert all(v >= 0.0 for k, v in m.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["failed_ratio"] == 0.0
    if workload == "dock-large":
        assert m["autodiff.backward.calls"] == 0
        assert m["transport.solve_uniform_transport.calls"] == 0
        assert m["training.evaluate.calls"] >= 1
    else:
        assert m["autodiff.backward.calls"] >= 1
        assert m["autodiff.tape_nodes"] > 0
        assert m["transport.cost_cells"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_the_same_fingerprint(workload):
    first, _ = record_and_result(workload, 0, seed=5)
    second, _ = record_and_result(workload, 0, seed=5)
    other, _ = record_and_result(workload, 0, seed=6)
    assert first["fingerprint"] == second["fingerprint"]
    assert first["fingerprint"] != other["fingerprint"]


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_uninstall_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import rigiddock
    import tracing

    sites = [tracing.binding(rigiddock, module, attr) for _, module, attr, _ in tracing.SITES]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer(rigiddock)
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not original
                   for (owner, attr), original in zip(sites, originals))
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(sites, originals))
