"""Server throughput/latency benchmark: concurrent clients, real engine.

Starts an in-process :class:`~repro.server.QueryServer` over a DMV
database and drives it with N asyncio clients firing the four-table
workload, then reports

* throughput (queries/second) and end-to-end latency percentiles
  (p50/p95/p99, measured per request at the client),
* the server-path overhead versus executing the same statements serially
  through :meth:`Database.execute` with the configuration and limits the
  server's admission control applies to each of them (protocol +
  scheduling + threading cost; the engine itself is GIL-bound, so this
  factor should sit near 1.0, not near 1/concurrency). Serial and server
  phases alternate for ``REPS`` repetitions and each side keeps its
  fastest, so a slow stretch of the host does not land on one side only,
* the shared plan-cache hit rate across the run.

Every response is verified: all requests must succeed and return the
serial engine's rows for that statement — a throughput number that
changes answers must fail loudly, not get recorded.

Full runs store the report under the ``"server"`` key of
``BENCH_speedup.json`` (other sections preserved, atomic write); ``--quick``
runs write a file only when ``--output`` is given. The serving layer's perf
trajectory rides the same stored-baseline regression report as the
executor benchmarks: a qps drop below ``REGRESSION_TOLERANCE`` of the
stored baseline prints loudly on stderr; ``--check`` additionally gates
correctness and the overhead factor.

Usage::

    PYTHONPATH=src python benchmarks/bench_server.py            # full run
    PYTHONPATH=src python benchmarks/bench_server.py --quick --check  # CI
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

from repro.bench.runner import write_json_atomic
from repro.core.config import AdaptiveConfig
from repro.dmv import four_table_workload, load_dmv
from repro.server import AdmissionController, QueryServer, ServerConfig
from repro.server.admission import SHED_NONE
from repro.server.protocol import QueryRequest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_speedup.json"

#: Stored-baseline qps may drift down by this factor before the
#: regression report fires (wall-clock noise allowance).
REGRESSION_TOLERANCE = 0.90

#: --check fails when the server path exceeds serial wall time by more
#: than this factor (protocol/scheduling overhead budget).
OVERHEAD_TOLERANCE = 2.0

#: Alternating serial/server repetitions behind the overhead factor.
REPS = 3


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


async def drive(
    server: QueryServer,
    workload: list[tuple[str, list]],
    clients: int,
    requests_per_client: int,
) -> tuple[list[float], list[str]]:
    """Fire the workload from *clients* connections; verify every answer."""
    latencies: list[float] = []
    failures: list[str] = []

    async def one_client(index: int) -> None:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        try:
            for n in range(requests_per_client):
                sql, baseline = workload[(index + n) % len(workload)]
                started = time.perf_counter()
                writer.write(
                    (json.dumps({"op": "query", "id": n, "sql": sql}) + "\n")
                    .encode()
                )
                await writer.drain()
                line = await asyncio.wait_for(reader.readline(), timeout=60.0)
                latencies.append((time.perf_counter() - started) * 1e3)
                response = json.loads(line)
                if response.get("status") != "ok":
                    failures.append(
                        f"client {index} req {n}: {response.get('code')}"
                    )
                elif sorted(map(tuple, response["rows"])) != baseline:
                    failures.append(
                        f"client {index} req {n}: rows diverge on {sql[:50]}"
                    )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    await asyncio.gather(*(one_client(i) for i in range(clients)))
    return latencies, failures


def serial_phase(
    db,
    admission: AdmissionController,
    workload: list[tuple[str, list]],
    total_requests: int,
) -> float:
    """Wall seconds to execute the request mix back to back in-process.

    Each statement runs under the configuration and limits the server
    applies to it at the mildest shed level, so the overhead factor
    compares the same engine work with and without the serving path.
    """
    started = time.perf_counter()
    for n in range(total_requests):
        sql = workload[n % len(workload)][0]
        request = QueryRequest(sql=sql)
        applied = admission.apply_shed(request, SHED_NONE)
        limits, _ = admission.build_limits(request, applied)
        db.execute(sql, applied, limits=limits)
    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument(
        "--requests-per-client", type=int, default=40, metavar="N"
    )
    parser.add_argument("--max-concurrency", type=int, default=4)
    parser.add_argument(
        "--queries-per-template", type=int, default=3, metavar="N"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small scale and request count (CI smoke)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 on any failed/diverging response or overhead "
        f"> {OVERHEAD_TOLERANCE:.1f}x serial",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="JSON file to fold the server section into (default: "
        "BENCH_speedup.json for full runs; --quick runs write only when "
        "this is given)",
    )
    args = parser.parse_args(argv)
    output = args.output
    if output is None and not args.quick:
        output = str(BASELINE_PATH)
    if args.quick:
        args.scale = min(args.scale, 0.01)
        args.requests_per_client = min(args.requests_per_client, 15)

    print(f"loading DMV at scale {args.scale} ...", file=sys.stderr)
    db, _ = load_dmv(scale=args.scale)
    statements = [
        q.sql
        for q in four_table_workload(
            queries_per_template=args.queries_per_template
        )
    ]

    # Reference rows for verification, from the plain serial engine.
    workload: list[tuple[str, list]] = []
    for sql in statements:
        result = db.execute(sql, AdaptiveConfig())
        workload.append((sql, sorted(result.rows)))
    total_requests = args.clients * args.requests_per_client

    config = ServerConfig(
        port=0,
        max_concurrency=args.max_concurrency,
        max_queue_depth=max(64, 4 * args.clients),
        max_queue_per_session=args.requests_per_client + 1,
    )
    admission = AdmissionController(config)

    async def run():
        server = QueryServer(db, config)
        await server.start()
        try:
            started = time.perf_counter()
            latencies, failures = await drive(
                server, workload, args.clients, args.requests_per_client
            )
            wall = time.perf_counter() - started
            stats = server.stats_payload()
            return latencies, failures, wall, stats
        finally:
            await server.shutdown(grace=2.0)

    # Interleaved min-of-reps: serial and server phases alternate order
    # per rep; each side keeps its fastest rep (the server's latencies and
    # stats come from its fastest rep, failures from every rep).
    serial_wall = float("inf")
    wall = float("inf")
    failures: list[str] = []
    for rep in range(REPS):
        phases = ("serial", "server") if rep % 2 == 0 else ("server", "serial")
        for phase in phases:
            if phase == "serial":
                serial_wall = min(
                    serial_wall,
                    serial_phase(db, admission, workload, total_requests),
                )
                continue
            rep_latencies, rep_failures, rep_wall, rep_stats = asyncio.run(
                run()
            )
            failures.extend(rep_failures)
            if rep_wall < wall:
                latencies, wall, stats = rep_latencies, rep_wall, rep_stats
    db.close()

    cache = stats["plan_cache"]
    lookups = cache["hits"] + cache["misses"] + cache["single_flight_waits"]
    section = {
        "scale": args.scale,
        "clients": args.clients,
        "max_concurrency": args.max_concurrency,
        "requests": total_requests,
        "reps": REPS,
        "wall_seconds": wall,
        "qps": total_requests / wall,
        "latency_ms": {
            "p50": percentile(latencies, 0.50),
            "p95": percentile(latencies, 0.95),
            "p99": percentile(latencies, 0.99),
        },
        "serial_wall_seconds": serial_wall,
        "server_overhead_vs_serial": wall / max(serial_wall, 1e-9),
        "plan_cache_hit_rate": (
            (cache["hits"] + cache["single_flight_waits"]) / lookups
            if lookups
            else None
        ),
        "failures": len(failures),
    }

    print(f"requests:  {total_requests} from {args.clients} clients")
    print(f"wall:      {wall:.2f}s server vs {serial_wall:.2f}s serial "
          f"({section['server_overhead_vs_serial']:.2f}x)")
    print(f"qps:       {section['qps']:.1f}")
    print(f"latency:   p50 {section['latency_ms']['p50']:.1f} ms  "
          f"p95 {section['latency_ms']['p95']:.1f} ms  "
          f"p99 {section['latency_ms']['p99']:.1f} ms")
    if section["plan_cache_hit_rate"] is not None:
        print(f"cache:     {section['plan_cache_hit_rate']:.1%} hit rate")

    # Fold into the shared benchmark file, preserving other sections.
    path = pathlib.Path(output or BASELINE_PATH)
    payload: dict = {}
    if path.exists():
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            payload = {}
    old = payload.get("server", {})
    regressions: list[str] = []
    old_qps = old.get("qps")
    # Only comparable runs gate each other: same shape, full (non-quick)
    # runs recorded at the same scale and client count.
    comparable = (
        old.get("scale") == section["scale"]
        and old.get("clients") == section["clients"]
        and old.get("requests") == section["requests"]
    )
    if comparable and old_qps and section["qps"] < old_qps * REGRESSION_TOLERANCE:
        regressions.append(
            f"REGRESSION: server qps {section['qps']:.1f} < stored "
            f"baseline {old_qps:.1f} * {REGRESSION_TOLERANCE}"
        )
    if output is not None:
        payload["server"] = section
        write_json_atomic(path, payload)
        print(f"wrote server section to {path}", file=sys.stderr)
    for line in regressions:
        print(line, file=sys.stderr)

    if failures:
        for failure in failures[:10]:
            print(f"FAILURE: {failure}", file=sys.stderr)
        return 1
    if args.check and section["server_overhead_vs_serial"] > OVERHEAD_TOLERANCE:
        print(
            f"CHECK FAILED: server overhead "
            f"{section['server_overhead_vs_serial']:.2f}x > "
            f"{OVERHEAD_TOLERANCE:.1f}x serial",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
