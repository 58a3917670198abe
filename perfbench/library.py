"""Measured process of the closed-loop library workloads.

Usage (``run.py`` starts it; the last stdout line is a JSON document)::

    PYTHONPATH=src python3 perfbench/library.py \
        --workload adaptive-6t --seed 1 --seconds 10 --trace 0

One caller, no think time: each op starts when the previous one returned.
Set-up (load + analyze + one warm-up pass over the statements) runs
:data:`common.SETUPS` times; the last database is measured. The timed loop
runs for ``--seconds`` and always completes at least one full pass over the
statements, over which the deterministic work counts are taken.

With ``--trace 1`` every query runs twice more, untraced and traced, with
the order alternating per statement and pass, so that the two timings of
the same executions give the tracing overhead. Right after a write the
query first runs once traced, so that the lazy rebuilds land in the spans.
The spans kept are those of the executions the untraced run times: the
post-write execution right after a write, the traced re-run otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    BACKEND,
    DATA_SEED,
    SETUPS,
    Tracer,
    digest,
    peak_rss_mb,
)
from workloads import (  # noqa: E402
    InsertBatches,
    library_op,
    library_pass_ops,
    library_statements,
)

from repro import AdaptiveConfig, Database, ReorderMode, StatisticsLevel  # noqa: E402
from repro.dmv import DmvGenerator  # noqa: E402


def workload_config(workload: str) -> AdaptiveConfig:
    """static-6t: mode NONE; the others: what the server runs at shed none."""
    if workload == "static-6t":
        return AdaptiveConfig(mode=ReorderMode.NONE, batched=True)
    return AdaptiveConfig(
        mode=ReorderMode.BOTH, batched=True, monitor_granularity="chunk"
    )


def set_up(scale: float, statements: list[str], config: AdaptiveConfig):
    """Load + analyze (as ``load_dmv``) + one unmeasured warm-up pass."""
    started = time.perf_counter()
    db = Database(backend=BACKEND)
    DmvGenerator(scale=scale, seed=DATA_SEED).populate(db, extended=True)
    loaded = time.perf_counter()
    db.analyze(level=StatisticsLevel.CARDINALITY)
    analyzed = time.perf_counter()
    for sql in statements:
        db.execute(sql, config)
    warmed = time.perf_counter()
    return db, {
        "setup_s": warmed - started,
        "load_s": loaded - started,
        "analyze_s": analyzed - loaded,
        "warm_s": warmed - analyzed,
    }


def query_record(result, latency_s: float) -> dict:
    stats = result.stats
    work = stats.work
    return {
        "ms": latency_s * 1000.0,
        "digest": digest(result.rows),
        "engine": stats.engine,
        "rows": len(result.rows),
        "work": stats.total_work,
        "adaptation_work": stats.adaptation_work,
        "checks": stats.inner_checks + stats.driving_checks,
        "reorders": stats.inner_reorders,
        "switches": stats.driving_switches,
        "descends": work.index_descends,
        "entries": work.index_entries,
        "fetches": work.row_fetches,
        "evals": work.predicate_evals,
        "run_ms": stats.wall_seconds * 1000.0,
    }


def traced_query(db, sql: str, config, tracer: Tracer, rid: int):
    """parse → plan → execute through the public API, one span each."""
    request = tracer.begin("request", rid)
    span = tracer.begin("parse", rid, request)
    spec = db.parse(sql)
    tracer.end(span)
    span = tracer.begin("plan", rid, request)
    plan = db.plan(spec)
    tracer.end(span)
    execute = tracer.begin("execute", rid, request)
    result = db.execute(plan, config)
    tracer.end(execute)
    tracer.end(request)
    # The executor reports its own run time; the rest of execute is
    # executor construction/compile, post-processing and result assembly.
    wall = result.stats.wall_seconds
    tracer.add("executor.run", rid, execute["end"] - wall, execute["end"],
               execute)
    return result, request["end"] - request["start"]


def run(args) -> dict:
    statements = library_statements(args.workload, args.seed)
    config = workload_config(args.workload)
    setups = []
    db = None
    for _ in range(SETUPS):
        db = None
        gc.collect()
        db, timings = set_up(args.scale, statements, config)
        setups.append(timings)
    batches = (
        InsertBatches.from_database(args.seed, db, config)
        if args.workload == "ingest-6t"
        else None
    )
    tracer = Tracer() if args.trace else None
    pass_ops = library_pass_ops(args.workload, len(statements))
    records: list[dict] = []
    after_write = False
    index = 0
    deadline = time.perf_counter() + args.seconds
    while index < pass_ops or time.perf_counter() < deadline:
        kind, arg = library_op(args.workload, index, len(statements))
        if kind == "insert":
            cars, accidents = batches.next_batch()
            span = tracer.begin("insert", index) if tracer else None
            started = time.perf_counter()
            db.insert("Car", cars)
            db.insert("Accidents", accidents)
            elapsed = time.perf_counter() - started
            if span is not None:
                tracer.end(span)
            records.append(
                {"op": index, "kind": "insert", "ms": elapsed * 1000.0}
            )
            after_write = True
        else:
            record = {"op": index, "kind": "query", "stmt": arg,
                      "digests": []}
            sql = statements[arg]
            pair_tracer = tracer
            if tracer is not None and after_write:
                first, first_s = traced_query(db, sql, config, tracer, index)
                record["post_write_ms"] = first_s * 1000.0
                record["digests"].append(digest(first.rows))
                # Only the post-write execution's spans are kept.
                pair_tracer = Tracer()
            traced_first = (
                pair_tracer is not None and (arg + index // pass_ops) % 2 == 1
            )
            if traced_first:
                traced, traced_s = traced_query(
                    db, sql, config, pair_tracer, index
                )
            started = time.perf_counter()
            result = db.execute(sql, config)
            elapsed = time.perf_counter() - started
            record.update(query_record(result, elapsed))
            if pair_tracer is not None and not traced_first:
                traced, traced_s = traced_query(
                    db, sql, config, pair_tracer, index
                )
            if pair_tracer is not None:
                record["traced_ms"] = traced_s * 1000.0
                record["digests"].append(digest(traced.rows))
            records.append(record)
            after_write = False
        index += 1
    storage = db.storage_stats()
    output = {
        "setups": setups,
        "records": records,
        "pass_ops": pass_ops,
        "storage_bytes": storage["total_bytes"],
        "kernel_plan_bytes": storage["kernel_plan_bytes"],
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        output["spans"] = tracer.spans
    return output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
