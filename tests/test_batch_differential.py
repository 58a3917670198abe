"""Differential property tests: the batched path is observably identical.

The batched executor (the chunked turbo and fast loops, the columnar
cascades, and the scalar loop it runs under execution limits or hot
observability) must be a pure performance change. Sweeping batch sizes x
every ReorderMode against the scalar executor, these tests pin down the
contract:

* identical result multiset;
* identical adaptation event sequence and order history;
* identical WorkMeter totals.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro import (
    AdaptiveConfig,
    CancellationToken,
    ExecutionLimits,
    ReorderMode,
)
from repro.core.controller import AdaptationController
from repro.dmv import four_table_workload, load_dmv, six_table_workload
from repro.executor.batch import BatchedPipelineExecutor

from tests.conftest import build_three_table_db

BATCH_SIZES = (1, 7, 256)

#: WorkMeter fields that must match scalar exactly.
EXACT_METER_FIELDS = (
    "index_descends",
    "index_entries",
    "row_fetches",
    "predicate_evals",
    "rows_emitted",
    "monitor_updates",
    "reorder_checks",
)


@pytest.fixture(scope="module")
def dmv():
    db, _ = load_dmv(scale=0.02, extended=True)
    return db


@pytest.fixture(scope="module")
def columnar_dmv():
    db, _ = load_dmv(scale=0.02, extended=True, backend="columnar")
    yield db
    db.close()


@pytest.fixture(scope="module")
def workload():
    return six_table_workload(count=2) + four_table_workload(
        queries_per_template=1
    )


@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.name.lower())
def test_batched_matches_scalar(dmv, workload, mode):
    for query in workload:
        scalar = dmv.execute(query.sql, AdaptiveConfig(mode=mode))
        scalar_rows = sorted(scalar.rows)
        scalar_meter = asdict(scalar.stats.work)
        for batch_size in BATCH_SIZES:
            config = AdaptiveConfig(
                mode=mode, batched=True, batch_size=batch_size
            )
            batched = dmv.execute(query.sql, config)
            tag = f"{query.qid} bs={batch_size}"
            assert sorted(batched.rows) == scalar_rows, tag
            assert (
                batched.stats.events == scalar.stats.events
            ), f"adaptation events diverged: {tag}"
            assert (
                batched.stats.order_history == scalar.stats.order_history
            ), f"order history diverged: {tag}"
            meter = asdict(batched.stats.work)
            for field in EXACT_METER_FIELDS:
                assert meter[field] == scalar_meter[field], (
                    f"meter.{field} diverged: {tag}"
                )


def test_driving_switch_preserves_results():
    """Sec 4.2: a driving switch mid-run recompiles every probe and
    installs a positional predicate on the formerly driving leg; the
    batched engines must still return exactly the scalar rows, with no
    duplicates and none lost across the switch."""
    sql = (
        "SELECT o.name FROM Owner o, Car c, Demo d "
        "WHERE c.ownerid = o.id AND o.id = d.ownerid "
        "AND c.make = 'Rare' AND o.country = 'DE' AND d.salary < 70000"
    )
    db = build_three_table_db(owners=2000, seed=42)
    scalar = db.execute(sql, AdaptiveConfig(mode=ReorderMode.NONE))
    for granularity in ("exact", "chunk"):
        config = AdaptiveConfig(
            mode=ReorderMode.BOTH,
            batched=True,
            batch_size=7,
            monitor_granularity=granularity,
        )
        controller = AdaptationController(config)
        executor = BatchedPipelineExecutor(
            db.plan(sql), db.catalog, config, controller
        )
        controller.attach(executor)
        rows = executor.run_to_completion()
        # Only meaningful if a switch fired and froze the old driving leg.
        assert executor.driving_switches >= 1, granularity
        assert any(
            leg.positional is not None for leg in executor.legs.values()
        ), granularity
        assert sorted(rows) == sorted(scalar.rows), granularity


@pytest.mark.parametrize("backend", ["row", "columnar"])
@pytest.mark.parametrize("granularity", ["exact", "chunk"])
@pytest.mark.parametrize("mode", list(ReorderMode), ids=lambda m: m.name.lower())
def test_limited_and_observed_runs_are_the_scalar_oracle(
    dmv, columnar_dmv, workload, backend, granularity, mode
):
    """A batched configuration under execution limits or hot observability
    runs the scalar loop: the same rows in the same order, the same events
    and the same WorkMeter as an unbatched, unlimited, unobserved run, with
    the engine reported as ``scalar`` and the reason on ``vector_gate``.
    The limits are generous, so none of them trips."""
    db = dmv if backend == "row" else columnar_dmv
    config = AdaptiveConfig(
        mode=mode, batched=True, monitor_granularity=granularity
    )
    for query in workload:
        oracle = db.execute(
            query.sql,
            AdaptiveConfig(mode=mode, monitor_granularity=granularity),
        )
        limits = ExecutionLimits(
            max_rows=len(oracle.rows) + 1,
            max_work_units=2 * oracle.stats.total_work + 1,
            timeout_seconds=600.0,
            cancellation=CancellationToken(),
        )
        for reason, kwargs in (
            ("execution limits armed", {"limits": limits}),
            ("hot observability armed", {"obs": True}),
        ):
            result = db.execute(query.sql, config, **kwargs)
            tag = f"{query.qid} {backend} {granularity}: {reason}"
            assert result.stats.engine == "scalar", tag
            assert result.stats.vector_gate == reason, tag
            assert result.rows == oracle.rows, tag
            assert result.stats.events == oracle.stats.events, tag
            assert (
                result.stats.order_history == oracle.stats.order_history
            ), tag
            assert asdict(result.stats.work) == asdict(oracle.stats.work), tag
