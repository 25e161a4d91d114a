"""Tests of the benchmark itself.  Run from the repository root with
``python3 -m pytest perfbench/tests``.  Workload sizes are shrunk so the
suite takes well under a minute."""

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

run.import_hypalign()

from hypalign import trainer  # noqa: E402

SMALL = {
    "hyper-noisy": dataclasses.replace(workloads.WORKLOADS["hyper-noisy"],
                                       steps=6),
    "det-noisy": dataclasses.replace(workloads.WORKLOADS["det-noisy"],
                                     steps=6),
    "cli-artifacts": dataclasses.replace(workloads.WORKLOADS["cli-artifacts"],
                                         scenes=25, state_steps=2),
}


def _run(name, trace, tmp_path, seed=3):
    report, out, setup_s = run.run_workload(
        name, seed, 0, trace, spec=SMALL[name], start=time.perf_counter(),
        spans_path=tmp_path / f"spans-{name}.jsonl.gz")
    result = run.finish(name, report, out, [setup_s], trace)
    return report, out, result


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(
        run.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(
        LAYER_METRICS)
    assert doc["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("name", list(SMALL))
def test_smoke_run_is_correct_and_reports_every_metric(name, tmp_path):
    report, out, result = _run(name, False, tmp_path)
    assert result["correct"] is True, out.errors
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(n for n, _ in run.E2E_METRICS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out.checks["repeat_digest"] == [out.repeats - 1, 0]
    assert report["metrics"]["error_rate"]["value"] == 0.0


@pytest.mark.parametrize("name", list(SMALL))
def test_traced_and_untraced_runs_write_identical_outputs(name, tmp_path):
    _, plain, _ = _run(name, False, tmp_path)
    report, traced, result = _run(name, True, tmp_path)
    assert plain.digest is not None and plain.digest == traced.digest
    assert result["correct"] is True
    assert sorted(result["metrics"]) == sorted(n for n, _ in LAYER_METRICS)
    # ROADMAP baseline rows are reported, not required
    assert all(row["ok"] for row in report["cross_check"]
               if not row.get("baseline")), report["cross_check"]


def test_every_tape_node_is_attributed_to_exactly_one_span(tmp_path):
    report, _, _ = _run("hyper-noisy", True, tmp_path)
    rows = {row["check"]: row for row in report["cross_check"]}
    row = rows["self nodes of a step's spans sum to its tape"]
    assert row["ok"], row
    assert row["observed"] == f"{row['steps']} of {row['steps']} steps"
    assert report["layer"]["trainer.step.self_nodes"]["value"] > 0


def test_nominal_times_cancel_a_slower_host():
    op_ms, op_ref = [10.0, 12.0, 11.0, 30.0], [0, 1, 2, 3]
    ref_ms = [0.5, 0.5, 0.5, 0.5]
    fast = speed.nominal_ms(op_ms, op_ref, ref_ms)
    slow = speed.nominal_ms([2 * ms for ms in op_ms], op_ref,
                            [2 * ms for ms in ref_ms])
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(
        [ms * speed.NOMINAL_REF_MS / 0.5 for ms in op_ms])
    # 0.1 s between calls, scaled by the run's median reference time
    busy = speed.nominal_busy_s(sum(op_ms) / 1e3 + 0.1, op_ms, op_ref,
                                ref_ms)
    assert busy == pytest.approx(sum(fast) / 1e3
                                 + 0.1 * speed.NOMINAL_REF_MS / 0.5)


def test_tracer_restores_every_binding(tmp_path):
    original = trainer.step
    _run("det-noisy", True, tmp_path)
    assert trainer.step is original
    import hypalign
    assert hypalign.step is original


def test_contract_line_from_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-noisy",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    for name, unit in run.E2E_METRICS:
        assert result["metrics"][name]["unit"] == unit


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "det-noisy",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
