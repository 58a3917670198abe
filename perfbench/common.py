"""Constants and helpers shared by the DMV benchmark's processes.

Every process of a run (``run.py``, which coordinates the run and hosts
the served client, the measured library process and the row-backend
reference process) imports this module. It imports nothing from ``repro``
so that ``run.py`` can fail cleanly when the program's sources are absent.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

#: DMV data: scale 0.1 of the paper's 100K owners (10k owners, 28k
#: accidents), the Sec 5.5 extension tables, the generator's default seed.
SCALE = 0.1
DATA_SEED = 20070426
BACKEND = "columnar"
REFERENCE_BACKEND = "row"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

LIBRARY_WORKLOADS = ("static-6t", "adaptive-6t", "ingest-6t")
SERVE_WORKLOAD = "serve-4t"
WORKLOADS = LIBRARY_WORKLOADS + (SERVE_WORKLOAD,)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = Path("perfbench_out")

_DIGEST_MASK = (1 << 64) - 1


def digest(rows) -> list[int]:
    """Order-independent multiset digest of result rows: ``[count, sum]``.

    Rows arrive as tuples (library) or JSON lists (server); both are hashed
    as tuples with BLAKE2b, which unlike ``hash`` is not salted per
    process, so equal multisets give equal digests in every process.
    """
    total = 0
    for row in rows:
        data = repr(tuple(row)).encode()
        key = hashlib.blake2b(data, digest_size=8).digest()
        total += int.from_bytes(key, "little")
    return [len(rows), total & _DIGEST_MASK]


def add_digests(a: list[int], b: list[int]) -> list[int]:
    """Digest of the multiset union of two digested multisets."""
    return [a[0] + b[0], (a[1] + b[1]) & _DIGEST_MASK]


def quantile(values, q: float) -> float:
    """Linear-interpolated *q* quantile of *values*; NaN when empty."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def host_facts() -> dict:
    """Host and interpreter facts stored with every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def host_class(facts: dict) -> tuple:
    """The facts two results must share before they may be compared."""
    numpy_version = facts["numpy"]
    if numpy_version != "absent":
        numpy_version = ".".join(numpy_version.split(".")[:2])
    python = ".".join(facts["python"].split(".")[:2])
    return (facts["nproc"], facts["machine"], python, numpy_version)


def peak_rss_mb(pid: int | str = "self") -> float:
    """High-water resident set size of a process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


class Tracer:
    """In-memory spans; :func:`write_trace` writes them when the run ends.

    A span is ``{"name", "start", "end", "parent", "rid", "id"}`` with
    times in seconds of ``time.perf_counter``. Spans of one request share
    ``rid``; ``parent`` is the ``id`` of the span that caused it.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []

    def begin(self, name: str, rid, parent: dict | None = None) -> dict:
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent["id"] if parent is not None else None,
            "rid": rid,
            "id": len(self.spans),
        }
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()

    def add(self, name: str, rid, start: float, end: float,
            parent: dict | None = None) -> dict:
        """Record a span whose interval was measured elsewhere."""
        span = self.begin(name, rid, parent)
        span["start"] = start
        span["end"] = end
        return span



def write_trace(path: Path, meta: dict, spans: list[dict]) -> None:
    """Write a trace as JSONL: a ``meta`` line, then one line per span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        out.write(json.dumps({"type": "meta", **meta}) + "\n")
        for span in spans:
            out.write(json.dumps({"type": "span", **span}) + "\n")


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
