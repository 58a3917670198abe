"""Open-loop client of the served workload ``serve-4t``.

``repro serve --backend columnar --max-concurrency 2`` runs in its own
process; this client drives it over :data:`CONNECTIONS` connections with
requests sent as independent users: evenly spaced arrivals at fixed
offered rates, regardless of how many answers are outstanding. Each request is
timed from when it was due, so a stall also charges the requests queued
behind it, and the generator's own lateness is recorded.

An untraced run spends its seconds at :data:`NOMINAL_QPS`. A traced run
spends part of them at the nominal rate, untraced and traced, and then
climbs a ladder of higher rates (:data:`LADDER_QPS`) up to the first step
that misses the SLO, for ``max_qps_within_slo``. Between phases the client
waits until every answer has arrived.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import sys
import time

from common import SETUPS, Tracer, digest, log, peak_rss_mb, quantile
from workloads import ServeStream, four_table_grid

MAX_CONCURRENCY = 2
CONNECTIONS = 2
#: Offered rates. A 2-core host answers about 10 requests/s; the nominal rate
#: keeps queueing low so that latency reflects service: at 4/s about two
#: of every five requests arrived while another was in flight, and p50
#: moved by up to 40% between runs.
#: The ladder reaches past that capacity, to twice it, so that
#: max_qps_within_slo reads where the server stops meeting the SLO.
NOMINAL_QPS = 3.0
LADDER_QPS = (6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0)
#: Shares of a traced run's seconds: at the nominal rate (half untraced,
#: half traced), and per ladder step.
NOMINAL_SHARE = 0.7
LADDER_STEP_SHARE = 0.1
#: p95 limit for ``max_qps_within_slo``, met at NOMINAL_QPS on a 2-core host.
SLO_P95_MS = 1000.0
#: A step whose outstanding requests exceed this when its send window
#: closes has a growing backlog.
BACKLOG_LIMIT = 2 * MAX_CONCURRENCY
#: Set-up warm-up: the first statement of each of the five templates, so
#: column sidecars and compiled predicates exist before timing.
WARM_STATEMENTS = (0, 90, 180, 234, 342)
READY_TIMEOUT_S = 120.0
DRAIN_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_LISTENING = re.compile(r"listening on [^:\s]+:(\d+)")


class ServerProcess:
    """One ``repro serve`` child process."""

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.proc: asyncio.subprocess.Process | None = None
        self.port: int | None = None
        self._stderr_task: asyncio.Task | None = None

    async def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", env.get("PYTHONPATH")])
        )
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, "-m", "repro", "serve",
            "--scale", str(self.scale), "--extended",
            "--backend", "columnar",
            "--max-concurrency", str(MAX_CONCURRENCY),
            "--port", "0",
            stdin=asyncio.subprocess.DEVNULL,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
            env=env,
        )
        self.port = await asyncio.wait_for(self._await_ready(), READY_TIMEOUT_S)
        self._stderr_task = asyncio.create_task(self._drain_stderr())

    async def _await_ready(self) -> int:
        seen = []
        while True:
            line = await self.proc.stderr.readline()
            if not line:
                raise RuntimeError(
                    "server exited before listening:\n" + "".join(seen)
                )
            text = line.decode(errors="replace")
            seen.append(text)
            match = _LISTENING.search(text)
            if match:
                return int(match.group(1))

    async def _drain_stderr(self) -> None:
        while await self.proc.stderr.readline():
            pass

    async def stop(self) -> None:
        if self.proc is None or self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT_S)
        except asyncio.TimeoutError:
            self.proc.kill()
            await self.proc.wait()
        if self._stderr_task is not None:
            await self._stderr_task


class Client:
    """Pipelined NDJSON connections; answers are matched by request id."""

    def __init__(self) -> None:
        self._conns: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self._readers: list[asyncio.Task] = []
        self._pending: dict[int, tuple[dict, asyncio.Future]] = {}
        self._next_id = 0

    async def connect(self, port: int, count: int) -> None:
        for _ in range(count):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=1 << 26
            )
            self._conns.append((reader, writer))
            self._readers.append(asyncio.create_task(self._read(reader)))

    def send(self, conn: int, message: dict, record: dict) -> asyncio.Future:
        request_id = self._next_id
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = (record, future)
        record["sent"] = time.perf_counter()
        self._conns[conn][1].write(
            (json.dumps({**message, "id": request_id}) + "\n").encode()
        )
        return future

    async def call(self, message: dict) -> dict:
        record: dict = {}
        await self.send(0, message, record)
        return record["response"]

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            done = time.perf_counter()
            response = json.loads(line)
            record, future = self._pending.pop(response["id"])
            record["done"] = done
            rows = response.pop("rows", None)
            if rows is not None:
                record["digest"] = digest(rows)
            record["response"] = response
            future.set_result(None)

    async def close(self) -> None:
        for _, writer in self._conns:
            writer.close()
        for _, writer in self._conns:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
        for task in self._readers:
            await task


async def set_up(scale: float, grid: list[str]):
    """Spawn a server, wait until it listens, warm it; time each step."""
    started = time.perf_counter()
    server = ServerProcess(scale)
    client = Client()
    try:
        await server.start()
        listening = time.perf_counter()
        await client.connect(server.port, CONNECTIONS)
        for index in WARM_STATEMENTS:
            response = await client.call({"op": "query", "sql": grid[index]})
            if response.get("status") != "ok":
                raise RuntimeError(f"warm-up query failed: {response}")
    except BaseException:
        await client.close()
        await server.stop()
        raise
    warmed = time.perf_counter()
    return server, client, {
        "setup_s": warmed - started,
        "load_s": listening - started,
        "warm_s": warmed - listening,
    }


async def run_phase(client, stream, grid, name, rate, duration,
                    tracer: Tracer | None) -> dict:
    """Send one request cycle at *rate* for *duration*; wait for all."""
    offsets = stream.arrivals(rate, duration)
    statements = stream.statements(len(offsets))
    records = []
    futures = []
    start = time.perf_counter() + 0.05
    for number, (offset, statement) in enumerate(zip(offsets, statements)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        record = {"phase": name, "stmt": statement, "due": due}
        records.append(record)
        futures.append(client.send(
            number % CONNECTIONS,
            {"op": "query", "sql": grid[statement]},
            record,
        ))
    delay = start + duration - time.perf_counter()
    if delay > 0:
        await asyncio.sleep(delay)
    backlog = sum(1 for future in futures if not future.done())
    await asyncio.wait_for(asyncio.gather(*futures), DRAIN_TIMEOUT_S)
    if tracer is not None:
        for number, record in enumerate(records):
            trace_request(tracer, f"{name}-{number}", record)
    return {
        "name": name,
        "rate": rate,
        "start": start,
        "duration": duration,
        "backlog": backlog,
        "traced": tracer is not None,
        "records": records,
    }


def trace_request(tracer: Tracer, rid, record: dict) -> None:
    """Client ``request`` span with the server-reported children."""
    request = tracer.add("request", rid, record["sent"], record["done"])
    stats = record["response"].get("stats")
    if not stats:
        return
    queued_end = min(record["sent"] + stats["queued_ms"] / 1000.0,
                     record["done"])
    tracer.add("queued", rid, record["sent"], queued_end, request)
    engine_end = min(queued_end + stats["wall_ms"] / 1000.0, record["done"])
    tracer.add("engine", rid, queued_end, engine_end, request)


def phase_plan(seconds: float, trace: bool) -> list[tuple]:
    """``(name, rate, duration, traced)`` for each phase of a run; the
    ladder steps are run only up to the first that misses the SLO."""
    if not trace:
        return [("nominal", NOMINAL_QPS, seconds, False)]
    nominal = seconds * NOMINAL_SHARE / 2
    step = seconds * LADDER_STEP_SHARE
    return [
        ("nominal-untraced", NOMINAL_QPS, nominal, False),
        ("nominal", NOMINAL_QPS, nominal, True),
    ] + [(f"ladder-{rate:g}", rate, step, True) for rate in LADDER_QPS]


def meets_slo(phase: dict) -> bool:
    """Whether a step met the SLO: p95 from when due under
    :data:`SLO_P95_MS`, a backlog within :data:`BACKLOG_LIMIT` when its
    sending ended and every request answered."""
    records = phase["records"]
    latencies = [(r["done"] - r["due"]) * 1000.0 for r in records]
    return (
        bool(latencies)
        and quantile(latencies, 0.95) <= SLO_P95_MS
        and phase["backlog"] <= BACKLOG_LIMIT
        and all(r["response"].get("status") == "ok" for r in records)
    )


def max_qps_within_slo(steps: list[dict]) -> float:
    """The highest offered rate at which this and every lower step met the
    SLO with none of its requests failed (``failed``, wrong rows included)."""
    best = 0.0
    for step in sorted(steps, key=lambda p: p["rate"]):
        if not meets_slo(step) or any(r["failed"] for r in step["records"]):
            break
        best = step["rate"]
    return best


async def run_serve(seed: int, seconds: float, trace: bool, scale: float) -> dict:
    grid = four_table_grid()
    stream = ServeStream(seed, len(grid))
    setups = []
    server = client = None
    try:
        for number in range(SETUPS):
            server, client, timings = await set_up(scale, grid)
            setups.append(timings)
            if number < SETUPS - 1:
                await client.close()
                await server.stop()
                server = client = None
        log(f"serve-4t: server ready on port {server.port}")
        tracer = Tracer() if trace else None
        phases = []
        for name, rate, duration, traced in phase_plan(seconds, trace):
            phase = await run_phase(
                client, stream, grid, name, rate, duration,
                tracer if traced else None,
            )
            phases.append(phase)
            if name.startswith("ladder") and not meets_slo(phase):
                break
        stats = (await client.call({"op": "stats"}))["stats"]
        rss = peak_rss_mb(server.proc.pid)
    finally:
        if client is not None:
            await client.close()
        if server is not None:
            await server.stop()
    return {
        "setups": setups,
        "phases": phases,
        "peak_rss_mb": rss,
        "storage_bytes": stats["storage"]["total_bytes"],
        "kernel_plan_bytes": stats["storage"]["kernel_plan_bytes"],
        "plan_cache": stats["plan_cache"],
        "spans": tracer.spans if tracer is not None else None,
    }


def run(seed: int, seconds: float, trace: bool, scale: float) -> dict:
    return asyncio.run(run_serve(seed, seconds, trace, scale))
