"""The benchmark's own tests, at tiny scale.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import inputs  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("search-ll", "search-lp", "serve-mixed", "redeploy-watch")
#: Tiny runs: every class still runs at least once.
SECONDS = 0.5


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return out


def _pass(workload: str, seed: int, tracer=None):
    if workload == "serve-mixed":
        schedule = (inputs.serve_schedule(seed, SECONDS),
                    inputs.serve_schedule(seed, SECONDS, warmup=True))
        return workloads.serve_pass(workload, seed, SECONDS, tracer=tracer,
                                    schedule=schedule)
    if workload == "redeploy-watch":
        return workloads.watch_pass(workload, seed, SECONDS, tracer=tracer)
    return workloads.search_pass(workload, seed, SECONDS, tracer=tracer)


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _) in metrics.END_TO_END.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.per_layer_catalogue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_prints_every_end_to_end_metric(workload):
    out = _run(workload, 1, 0)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    for name, (unit, _) in metrics.END_TO_END.items():
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert value["value"] > 0, name


def _digest(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    if workload == "serve-mixed":
        for step in inputs.serve_schedule(seed, SECONDS):
            for request in step:
                digest.update(request.label.encode() + request.body)
    elif workload == "redeploy-watch":
        for session in inputs.watch_sessions(seed, SECONDS):
            digest.update(session.problem.fingerprint().encode())
            for code, costs in session.folds:
                digest.update(code.encode() + costs.as_array().tobytes())
    else:
        for op in inputs.solve_mix(workload, seed, SECONDS):
            digest.update(json.dumps(op.request.to_dict(),
                                     sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    assert _digest(workload, 3) == _digest(workload, 3)
    assert _digest(workload, 3) != _digest(workload, 4)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_and_plan_gain_repeat_for_a_seed(workload):
    first, second = _pass(workload, 5), _pass(workload, 5)
    assert first.failed == 0 and second.failed == 0
    assert first.counts == second.counts
    assert first.gains == second.gains


def test_traced_runs_cover_every_layer_with_linked_spans():
    seen = set()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    for workload in WORKLOADS:
        run = _pass(workload, 2, tracer=tracer)
        spans = run.spans if run.spans is not None else tracer.spans
        rows = tracing.self_times(spans)
        ids = {row["id"] for row in rows}
        for row in rows:
            assert row["parent"] == 0 or row["parent"] in ids
            assert 0.0 <= row["self"] <= row["wall"] + 1e-9
            assert row["wait"] >= 0.0
        seen |= {row["name"] for row in rows}
    wanted = {name for names, _ in metrics.TIMES.values() for name in names}
    assert wanted <= seen, sorted(wanted - seen)


def test_trace_run_reports_every_per_layer_metric():
    out = _run("redeploy-watch", 1, 1)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    assert [(name, value["unit"]) for name, value in
            result["metrics"].items()] == [
        (name, unit) for name, unit, _ in metrics.per_layer_catalogue()]


def test_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "search-ll",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""
