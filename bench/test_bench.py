"""Smoke tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Every workload runs one block with zero failures, traced and untraced; the
self-time arithmetic is checked on a synthetic span tree; and the metric
names in BENCHMARK.json match what the benchmark prints.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

run.load_program()
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_block_of_each_workload_passes(name):
    block = next(workloads.WORKLOADS[name](5))
    results = run.measure_ops([block])
    assert [r.error for r in results] == [None] * len(block)
    assert all(r.seconds > 0 and r.raw_seconds > 0 for r in results)


def test_blocks_are_deterministic_in_the_seed():
    first = next(workloads.qe_families_blocks(11))
    again = next(workloads.qe_families_blocks(11))
    assert [op.kind for op in first] == [op.kind for op in again]
    assert [str(op.run()) for op in first[:3]] == [str(op.run()) for op in again[:3]]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_replay_reports_layers_and_restores_the_program(name):
    qe_module = importlib.import_module("densepairs.qe")
    original = qe_module.dnf_clauses
    block = next(workloads.WORKLOADS[name](5))
    rec, traced = run.traced_replay([block], [workloads])
    assert qe_module.dnf_clauses is original
    assert workloads.eval_formula is importlib.import_module("densepairs.evaluate").eval_formula
    assert all(r.error is None for r in traced)
    untraced = run.measure_ops([block])
    values = run.layer_metrics(rec, traced, untraced, {})
    assert values["trace.layer_self_s"] <= values["trace.op_s"]
    assert values["bench.op.self_s"] >= 0
    assert sum(values[f"{s}.calls"] for s in spans.LAYER_SPANS) > 0


def test_self_time_subtracts_the_covered_part_of_children():
    # root [0, 10] has children [1, 3] and [2, 6] (overlapping: covered 1..6)
    # and [12, 14] (outside the root, ignored); [1, 3] has child [1.5, 2].
    starts = [0.0, 1.0, 2.0, 12.0, 1.5]
    ends = [10.0, 3.0, 6.0, 14.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    assert spans.self_times(starts, ends, parents) == pytest.approx([5.0, 1.5, 4.0, 2.0, 0.5])


def test_self_times_of_a_tree_sum_to_the_root_duration():
    starts = [0.0, 0.5, 0.6, 2.0, 2.5]
    ends = [4.0, 1.5, 1.0, 3.5, 3.0]
    parents = [-1, 0, 1, 0, 3]
    assert sum(spans.self_times(starts, ends, parents)) == pytest.approx(4.0)


def test_recursive_calls_get_one_span():
    rec = spans.SpanRecorder()

    def depth(n):
        return 0 if n == 0 else 1 + traced(n - 1)

    traced = rec.wrap("demo.depth", depth)
    assert rec.run_op(0, lambda: traced(5)) == 5
    totals = spans.layer_totals(rec)
    assert totals["demo.depth"]["calls"] == 1
    assert totals[spans.ROOT]["calls"] == 1


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics(
        workloads.QE_LADDER
    )
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_percentiles_report_samples_beyond_p90():
    pct = run.percentiles([float(i) for i in range(1, 101)])
    assert pct["samples"] == 100
    assert pct["beyond_p90"] == 10


def test_a_raising_or_disagreeing_op_is_a_failure_and_the_run_goes_on():
    ops = [
        workloads.Op("raises", lambda: 1 / 0, bool),
        workloads.Op("disagrees", lambda: False, bool),
        workloads.Op("agrees", lambda: True, bool),
    ]
    results = run.measure_ops([ops])
    assert results[0].error.startswith("ZeroDivisionError")
    assert results[1].error == "disagrees with the reference"
    assert results[2].error is None


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    (tmp_path / "bench").mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        shutil.copy(BENCH / name, tmp_path / "bench" / name)
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crosscheck", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "no densepairs package" in done.stderr
    assert done.stdout == ""
