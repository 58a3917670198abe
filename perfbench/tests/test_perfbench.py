"""Tests of the DMV benchmark at a tiny scale.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import report  # noqa: E402
import workloads  # noqa: E402
from common import REFERENCE_BACKEND, digest  # noqa: E402

SCALE = "0.01"
SECONDS = "1"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [
    m["name"] for m in SPEC["per_layer"]
    if m["name"].startswith("core.")
    or (m["name"].startswith("storage.") and m["name"].endswith("_per_query"))
]
_RUNS: dict[tuple, tuple[int, list[str], dict]] = {}


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    """Run the benchmark once (cached per arguments in the repo root)."""
    key = (workload, seed, trace)
    if cwd == ROOT and key in _RUNS:
        return _RUNS[key]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace),
         "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 else {}
    outcome = (done.returncode, lines, result)
    if cwd == ROOT:
        _RUNS[key] = outcome
    return outcome


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace):
    code, lines, result = bench(workload, 1, trace)
    assert code == 0, "\n".join(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} = ")
            and line.endswith(f" {metric['unit']}")
            for line in lines
        ), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_at_a_fixed_seed(workload):
    first = bench(workload, 1, 0)[2]["metrics"]
    _RUNS.pop((workload, 1, 0))
    second = bench(workload, 1, 0)[2]["metrics"]
    assert first["work_units_per_query"] == second["work_units_per_query"]
    if workload == "serve-4t":
        return
    first = bench(workload, 1, 1)[2]["metrics"]
    _RUNS.pop((workload, 1, 1))
    second = bench(workload, 1, 1)[2]["metrics"]
    for name in COUNTS:
        assert first[name] == second[name], name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_another_seed_keeps_the_metric_names(workload):
    for trace in (0, 1):
        one = bench(workload, 1, trace)[2]["metrics"]
        two = bench(workload, 2, trace)[2]["metrics"]
        assert list(one) == list(two)


def test_spec_catalogues_every_metric_and_workload():
    spec = json.loads((BENCH / "spec.json").read_text())
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert list(spec["metrics"]) == names
    assert list(spec["workloads"]) == WORKLOADS
    for name in (m["name"] for m in SPEC["per_layer"]):
        for target in spec["metrics"][name]["moves"]:
            assert target["workload"] in WORKLOADS
            assert target["metric"] in names


def test_seed_changes_statements_inserts_and_request_order():
    assert workloads.six_table_statements(1) != workloads.six_table_statements(2)
    cars = [(i, i, "Make", "Model", 2000) for i in range(20)]
    accidents = [(i, i % 20, "Driver", 2001, 100, 1, 1) for i in range(40)]
    one = workloads.InsertBatches(1, cars, accidents).next_batch()
    two = workloads.InsertBatches(2, cars, accidents).next_batch()
    assert one != two
    assert workloads.ServeStream(1, 396).statements(40) != (
        workloads.ServeStream(2, 396).statements(40)
    )


def test_insert_batches_copy_cars_with_their_accidents():
    cars = [(i, 100 + i, "Make", "Model", 2000) for i in range(20)]
    accidents = [(i, i % 20, "Driver", 2001, i, 1, 2) for i in range(40)]
    batches = workloads.InsertBatches(3, cars, accidents)
    new_cars, new_accidents = batches.next_batch()
    assert len(new_cars) == workloads.CARS_PER_BATCH
    assert {car[0] for car in new_cars}.isdisjoint(range(20))
    assert {a[1] for a in new_accidents} <= {car[0] for car in new_cars}
    assert len(new_accidents) == 2 * workloads.CARS_PER_BATCH
    more_cars, _ = batches.next_batch()
    assert min(car[0] for car in more_cars) > max(car[0] for car in new_cars)


def test_ingest_reference_equals_a_full_replay():
    import reference
    from repro import AdaptiveConfig, ReorderMode
    from repro.dmv import load_dmv

    request = {"workload": "ingest-6t", "seed": 4, "scale": 0.01, "ops": 60}
    split = reference.reference_digests(request)
    db, _ = load_dmv(scale=0.01, extended=True, backend=REFERENCE_BACKEND)
    config = AdaptiveConfig(mode=ReorderMode.NONE, batched=True)
    statements = workloads.library_statements("ingest-6t", 4)
    batches = workloads.InsertBatches.from_database(4, db, config)
    replay = {}
    for op in range(request["ops"]):
        kind, arg = workloads.library_op("ingest-6t", op, len(statements))
        if kind == "insert":
            cars, accidents = batches.next_batch()
            db.insert("Car", cars)
            db.insert("Accidents", accidents)
        else:
            replay[str(op)] = digest(db.execute(statements[arg], config).rows)
    assert split == replay
    assert any(split[k][0] for k in split)


def test_digest_is_a_multiset_digest():
    rows = [("a", 1), ("b", 2), ("a", 1)]
    assert digest(rows) == digest([list(r) for r in reversed(rows)])
    assert digest(rows) != digest(rows[:2])


def test_trace_reader_checks_the_static_layer_sum():
    code, lines, _ = bench("static-6t", 1, 1)
    assert code == 0
    path = ROOT / "perfbench_out" / "static-6t-seed1.trace.jsonl"
    meta, spans = report.load_trace(path)
    assert meta["library"] is True
    assert report.layer_sum_check(spans, meta)["ok"]
    times = report.self_times_ms(spans)
    assert set(report.LIBRARY_LAYERS) <= set(times)
    assert report.print_trace(path) == 0


def test_compare_refuses_another_scale(tmp_path, capsys):
    record = {
        "workload": "static-6t", "scale": 0.1,
        "host": {"nproc": 2, "machine": "x86_64", "python": "3.11.7",
                 "numpy": "2.4.6"},
        "metrics": {"latency_ms_p50": {"value": 2.0, "unit": "ms"}},
    }
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(record))
    b.write_text(json.dumps({**record, "scale": 0.05}))
    assert report.compare(a, b) == 2
    b.write_text(json.dumps({**record, "host": {**record["host"], "nproc": 4}}))
    assert report.compare(a, b) == 2
    b.write_text(json.dumps(record))
    assert report.compare(a, b) == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = bench("static-6t", 1, 0, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
