"""Differential tests: the columnar backend is observably the row store.

The storage backend is an implementation detail below the executor's
semantics: for every reorder mode, batch setting, and worker count, the
columnar backend must produce

* identical result rows **in identical order**,
* an identical final :class:`~repro.storage.counters.WorkMeter` (the
  deterministic work-unit accounting the paper's comparisons rest on),
* identical :class:`~repro.core.events.AdaptationEvent` sequences (same
  decisions at the same driving-row positions),

as the row backend running the same queries. This pins the tentpole
contract that columnar execution — typed columns, compiled predicates,
kernel-vectorized probes, and the whole-query cascade — is a pure speed
change, never a semantic one.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import AdaptiveConfig, ReorderMode
from repro.dmv import load_dmv, six_table_workload

SCALE = 0.02

#: Small joins exercise the two- and three-leg shapes (incl. a table-scan
#: driving leg); the six-table templates exercise deep adaptive pipelines.
SMALL_QUERIES = [
    "SELECT o.name, c.make FROM Car c, Owner o "
    "WHERE c.ownerid = o.id AND c.year >= 2005",
    "SELECT o.name, d.salary FROM Demographics d, Owner o, Car c "
    "WHERE d.ownerid = o.id AND c.ownerid = o.id AND d.salary > 50000 "
    "AND c.make = 'Mazda'",
]

CONFIGS = [
    ("scalar", {}),
    ("batched", {"batched": True}),
    ("batched-64", {"batched": True, "batch_size": 64}),
    ("chunk", {"batched": True, "monitor_granularity": "chunk"}),
    ("workers-2", {"batched": True, "workers": 2}),
    ("workers-2-chunk", {
        "batched": True,
        "monitor_granularity": "chunk",
        "workers": 2,
    }),
    ("workers-4-chunk", {
        "batched": True,
        "monitor_granularity": "chunk",
        "workers": 4,
    }),
]


@pytest.fixture(scope="module")
def row_db():
    db, _ = load_dmv(scale=SCALE, extended=True, backend="row")
    yield db
    db.close()


@pytest.fixture(scope="module")
def columnar_db():
    db, _ = load_dmv(scale=SCALE, extended=True, backend="columnar")
    yield db
    db.close()


@pytest.fixture(scope="module")
def workload():
    return SMALL_QUERIES + [q.sql for q in six_table_workload(count=3)]


@pytest.mark.parametrize(
    "mode",
    [ReorderMode.NONE, ReorderMode.INNER_ONLY, ReorderMode.BOTH],
    ids=lambda m: m.name.lower(),
)
@pytest.mark.parametrize("name,overrides", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_columnar_bit_identical_to_row(
    row_db, columnar_db, workload, mode, name, overrides
):
    config = AdaptiveConfig(mode=mode, **overrides)
    for sql in workload:
        row = row_db.execute(sql, config)
        col = columnar_db.execute(sql, config)
        tag = f"{mode.name} {name}: {sql[:60]}"
        assert col.rows == row.rows, tag
        assert dataclasses.asdict(col.stats.work) == dataclasses.asdict(
            row.stats.work
        ), tag
        assert col.stats.events == row.stats.events, tag


def test_columnar_adapts_on_the_workload(columnar_db, workload):
    """Guard against vacuous event equality: mode BOTH must actually adapt
    somewhere on this workload, so the event comparison above compares
    non-empty sequences."""
    config = AdaptiveConfig(mode=ReorderMode.BOTH, batched=True)
    total = 0
    for sql in workload:
        total += len(columnar_db.execute(sql, config).stats.events)
    assert total > 0


def test_adaptive_vector_engine_engages(columnar_db, workload):
    """Guard against a vacuous chunk-config comparison: the columnar chunk
    configuration must actually run the vectorized adaptive cascade (or
    hand off mid-query after a driving switch), never silently fall back
    to the generic loop from the start. Without numpy the cascade must
    instead gate out *cleanly* — generic chunked loop, reason recorded."""
    from repro.storage.columnar import _np as have_numpy

    for mode in (ReorderMode.INNER_ONLY, ReorderMode.BOTH):
        config = AdaptiveConfig(
            mode=mode, batched=True, monitor_granularity="chunk"
        )
        engines = {
            columnar_db.execute(sql, config).stats.engine for sql in workload
        }
        if have_numpy is not None:
            assert engines <= {
                "vector-adaptive",
                "vector-adaptive+fast",
            }, engines
            assert "vector-adaptive" in engines
        else:
            assert engines == {"fast"}, engines


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_vector_engines_engage(columnar_db, workload, workers):
    """Parallel columnar chunk runs report the real per-worker engines:
    with numpy every partition (and any serial continuation) runs a
    vectorized cascade — mode NONE the static cascade, monitored modes
    the adaptive cascade; without numpy the whole query falls back
    cleanly to the generic loops with the gate reason recorded."""
    from repro.storage.columnar import _np as have_numpy

    for mode, vector_engines in (
        (ReorderMode.NONE, {"vector"}),
        (ReorderMode.BOTH, {"vector-adaptive", "vector-adaptive+fast"}),
    ):
        config = AdaptiveConfig(
            mode=mode,
            batched=True,
            monitor_granularity="chunk",
            workers=workers,
        )
        for sql in workload:
            stats = columnar_db.execute(sql, config).stats
            assert stats.engine == "parallel", (mode.name, sql[:60])
            assert stats.workers == workers
            assert stats.worker_engines, (mode.name, sql[:60])
            engines = set(stats.worker_engines)
            if have_numpy is not None:
                assert engines <= vector_engines, (mode.name, engines)
                assert stats.vector_gate is None, stats.vector_gate
            else:
                assert not any(
                    engine.startswith("vector") for engine in engines
                ), engines
                assert (
                    stats.vector_gate
                    == "numpy unavailable (stdlib fallback)"
                )


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("batched", [False, True], ids=["scalar", "batched"])
@pytest.mark.parametrize("workers", [2, 4])
def test_static_partitions_charge_serial_work(
    row_db, columnar_db, backend, batched, workers
):
    """Mode NONE partitioned runs charge exactly the serial run's work.

    A partition-bounded driving cursor ends its index walk before the next
    partition's first entry, so index-entry touches across partitions sum
    to the serial walk on every engine. The one documented divergence is
    one index descend per extra partition: each bounded cursor seeks into
    the (here single) driving key range it resumes.
    """
    db = row_db if backend == "row" else columnar_db
    for sql in SMALL_QUERIES:
        serial = db.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
        parallel = db.execute(
            sql,
            AdaptiveConfig(
                mode=ReorderMode.NONE, batched=batched, workers=workers
            ),
        )
        tag = f"{backend} batched={batched} workers={workers}: {sql[:60]}"
        assert parallel.stats.engine == "parallel", tag
        assert parallel.rows == serial.rows, tag
        extra_partitions = len(parallel.stats.worker_engines) - 1
        assert extra_partitions > 0, tag
        expected = dataclasses.replace(
            serial.stats.work,
            index_descends=serial.stats.work.index_descends + extra_partitions,
        )
        assert dataclasses.asdict(parallel.stats.work) == dataclasses.asdict(
            expected
        ), tag


def test_parallel_warmup_kernel_gauge(columnar_db, workload):
    """The pre-fork warm-up leaves the kernel plan materialized on the
    catalog, observable through the storage_stats gauge workers COW-share."""
    from repro.storage.columnar import _np as have_numpy

    if have_numpy is None:
        pytest.skip("kernel plan needs numpy")
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH,
        batched=True,
        monitor_granularity="chunk",
        workers=2,
    )
    columnar_db.execute(workload[-1], config)
    stats = columnar_db.storage_stats()
    assert stats["kernel_plan_bytes"] > 0
    assert stats["kernel_plan_bytes"] == sum(
        entry["kernel_bytes"] for entry in stats["per_table"]
    )


def test_stdlib_fallback_gate_reason(columnar_db, workload):
    """The stdlib (no-numpy) fallback names its gate instead of failing:
    a chunk-config columnar query that cannot run the vectorized cascade
    reports why on ``ExecutionStats.vector_gate``."""
    from repro.storage.columnar import _np as have_numpy

    if have_numpy is not None:
        pytest.skip("vector cascade available; fallback reason not exercised")
    config = AdaptiveConfig(
        mode=ReorderMode.BOTH, batched=True, monitor_granularity="chunk"
    )
    result = columnar_db.execute(workload[0], config)
    assert result.stats.vector_gate == "numpy unavailable (stdlib fallback)"


def _flight_record_dict(db, sql, config):
    """One query's flight record, normalized for cross-backend comparison.

    ``query_id``/``ts``/``wall_ms`` are run-local (counter, clock);
    ``engine`` (and its companions ``worker_engines``/``vector_gate``,
    which name the engine that ran and why a cascade did not) is the one
    *expected* cross-backend difference — the whole point of the
    differential is that a different engine produces the same record;
    the per-leg wall figures inside ``legs`` stay because the audit
    snapshots carry only deterministic counters.
    """
    from repro.obs.recorder import FlightRecorder

    recorder = FlightRecorder(capacity=4)
    bundle = recorder.arm(config)
    result = db.execute(sql, config, obs=bundle)
    record = recorder.finish_query(bundle, result, sql=sql, config=config)
    data = record.to_dict()
    for key in ("query_id", "ts", "wall_ms", "engine", "worker_engines",
                "vector_gate"):
        data.pop(key, None)
    return data


@pytest.mark.parametrize(
    "mode",
    [ReorderMode.INNER_ONLY, ReorderMode.BOTH],
    ids=lambda m: m.name.lower(),
)
def test_flight_records_identical_across_engines(
    row_db, columnar_db, workload, mode
):
    """Chunk-config flight records are engine-invariant: decision audit,
    per-leg window snapshots, events, and work totals all match between
    the row backend's generic chunked loop and the columnar backend's
    vectorized adaptive cascade."""
    config = AdaptiveConfig(
        mode=mode, batched=True, monitor_granularity="chunk"
    )
    for sql in workload:
        row = _flight_record_dict(row_db, sql, config)
        col = _flight_record_dict(columnar_db, sql, config)
        assert col == row, f"{mode.name}: {sql[:60]}"
