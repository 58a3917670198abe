"""Reference results: the row backend's mode-NONE rows, as digests.

Runs in its own process after the measured one, so neither its time nor
its memory is in any measurement. Reads a JSON request on stdin and prints
a JSON answer on stdout::

    {"workload": "static-6t", "seed": 1, "scale": 0.1}
        -> {"digests": {"<statement index>": [count, sum], ...}}
    {"workload": "ingest-6t", "seed": 1, "scale": 0.1, "ops": 420}
        -> {"digests": {"<op index>": [count, sum], ...}}   (query ops)
    {"workload": "serve-4t", "scale": 0.1, "statements": [3, 17, ...]}
        -> {"digests": {"<grid index>": [count, sum], ...}}

``ingest-6t`` replays the measured op stream, so each query is checked
against the data it saw. Replaying every query on the row backend would
take twice the measured run, so the reference splits each result instead.
An insert batch copies cars under fresh ids together with their accidents,
and a copied accident points at a copied car. A six-table join row
therefore holds either an original car and accident or a copied car and
accident, never one of each, and the result multiset on the grown data is

    result(loaded data) + result(dimension tables + copied rows only)

The first term is computed once per statement; the second on a small
database that holds Owner, Demographics, Location, Time and the inserted
rows. Both are row-backend mode-NONE results, and digests add.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DATA_SEED,
    REFERENCE_BACKEND,
    add_digests,
    digest,
)
from workloads import (  # noqa: E402
    InsertBatches,
    four_table_grid,
    library_op,
    library_statements,
)

from repro import (  # noqa: E402
    AdaptiveConfig,
    Database,
    ReorderMode,
    StatisticsLevel,
)
from repro.dmv import create_dmv_schema, load_dmv  # noqa: E402
from repro.dmv.schema import BASE_TABLES, EXTENDED_TABLES  # noqa: E402

REFERENCE_CONFIG = AdaptiveConfig(mode=ReorderMode.NONE, batched=True)


def reference_digests(request: dict) -> dict:
    workload = request["workload"]
    db, _ = load_dmv(
        scale=request["scale"],
        seed=DATA_SEED,
        extended=True,
        backend=REFERENCE_BACKEND,
    )
    config = REFERENCE_CONFIG
    digests: dict[str, list[int]] = {}
    if workload == "serve-4t":
        grid = four_table_grid()
        for index in sorted(set(request["statements"])):
            digests[str(index)] = digest(db.execute(grid[index], config).rows)
        return digests
    statements = library_statements(workload, request["seed"])
    if workload != "ingest-6t":
        for index, sql in enumerate(statements):
            digests[str(index)] = digest(db.execute(sql, config).rows)
        return digests
    base = [digest(db.execute(sql, config).rows) for sql in statements]
    batches = InsertBatches.from_database(request["seed"], db, config)
    copies = copies_database(db, config)
    for op in range(request["ops"]):
        kind, arg = library_op(workload, op, len(statements))
        if kind == "insert":
            cars, accidents = batches.next_batch()
            copies.insert("Car", cars)
            copies.insert("Accidents", accidents)
            copies.analyze(level=StatisticsLevel.CARDINALITY)
        else:
            extra = digest(copies.execute(statements[arg], config).rows)
            digests[str(op)] = add_digests(base[arg], extra)
    return digests


def copies_database(db, config) -> Database:
    """An empty-fact copy of *db*: its dimension tables, no Car/Accidents."""
    copies = Database(backend=REFERENCE_BACKEND)
    create_dmv_schema(copies, extended=True)
    for table, columns in BASE_TABLES + EXTENDED_TABLES:
        if table in ("Car", "Accidents"):
            continue
        names = ", ".join(f"x.{column}" for column, _ in columns)
        copies.insert(
            table, db.execute(f"SELECT {names} FROM {table} x", config).rows
        )
    copies.analyze(level=StatisticsLevel.CARDINALITY)
    return copies


def main() -> int:
    request = json.load(sys.stdin)
    print(json.dumps({"digests": reference_digests(request)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
