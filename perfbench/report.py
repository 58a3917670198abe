"""Read the benchmark's traces and compare its stored results.

Usage::

    python3 perfbench/report.py trace perfbench_out/static-6t-seed1.trace.jsonl
    python3 perfbench/report.py compare A.json B.json

``trace`` prints each span name's self time (its duration minus the part
its child spans cover) and the tracing overhead: on a library trace the
traced against the untraced timings of the same executions, on a served
trace the traced against the untraced half of the nominal phase, which
send the same statement mix. On a library trace it also
checks that the ``parse`` + ``plan`` + ``execute`` + ``executor.run`` self
times add up to the traced request latency within that overhead.

``compare`` prints the metrics of two stored results side by side, and
refuses when their scale or host class differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import host_class, mean  # noqa: E402

LIBRARY_LAYERS = ("parse", "plan", "execute", "executor.run")


def load_trace(path: Path) -> tuple[dict, list[dict]]:
    meta: dict = {}
    spans: list[dict] = []
    with open(path) as lines:
        for line in lines:
            entry = json.loads(line)
            if entry.pop("type") == "meta":
                meta = entry
            else:
                spans.append(entry)
    return meta, spans


def self_times_ms(spans: list[dict]) -> dict[str, list[float]]:
    """Self time of every span, in ms, grouped by span name."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    times: dict[str, list[float]] = defaultdict(list)
    for span in spans:
        own = span["end"] - span["start"] - covered[span["id"]]
        times[span["name"]].append(own * 1000.0)
    return times


def request_latency_ms(spans: list[dict]) -> list[float]:
    return [
        (span["end"] - span["start"]) * 1000.0
        for span in spans
        if span["name"] == "request"
    ]


def trace_overhead_frac(meta: dict) -> float:
    """Traced against untraced mean latency of the same requests, minus 1."""
    untraced = meta.get("untraced_mean_ms") or 0.0
    traced = meta.get("traced_mean_ms") or 0.0
    return traced / untraced - 1.0 if untraced else 0.0


def layer_sum_check(spans: list[dict], meta: dict) -> dict:
    """Do the library layers' self times add up to the request latency?

    The request span's own self time is what the layers do not cover: the
    span bookkeeping between them. It must stay within the measured
    tracing overhead (with a floor of 1% of the latency for timer noise).
    """
    times = self_times_ms(spans)
    requests = request_latency_ms(spans)
    latency = mean(requests)
    layers = sum(sum(times.get(name, ())) for name in LIBRARY_LAYERS)
    layers /= max(len(requests), 1)
    allowed = max(
        abs(meta.get("traced_mean_ms", 0.0) - meta.get("untraced_mean_ms", 0.0)),
        0.01 * latency,
    )
    gap = latency - layers
    return {
        "request_ms": latency,
        "layers_ms": layers,
        "gap_ms": gap,
        "allowed_ms": allowed,
        "ok": abs(gap) <= allowed,
    }


def print_trace(path: Path) -> int:
    meta, spans = load_trace(path)
    times = self_times_ms(spans)
    requests = max(len(request_latency_ms(spans)), 1)
    print(f"trace {path}: workload {meta.get('workload')}, "
          f"seed {meta.get('seed')}, {len(spans)} spans")
    print(f"{'span':<16}{'count':>8}{'self ms/request':>18}{'self ms mean':>14}")
    for name in sorted(times):
        values = times[name]
        print(f"{name:<16}{len(values):>8}{sum(values) / requests:>18.4f}"
              f"{mean(values):>14.4f}")
    print(f"bench.trace_overhead_frac {trace_overhead_frac(meta):.4f}")
    if meta.get("library"):
        check = layer_sum_check(spans, meta)
        verdict = "ok" if check["ok"] else "FAILED"
        print(f"layer sum check {verdict}: request {check['request_ms']:.4f} ms,"
              f" layers {check['layers_ms']:.4f} ms, gap {check['gap_ms']:.4f}"
              f" ms (allowed {check['allowed_ms']:.4f} ms)")
        return 0 if check["ok"] else 1
    return 0


def compare(path_a: Path, path_b: Path) -> int:
    a = json.loads(path_a.read_text())
    b = json.loads(path_b.read_text())
    for key in ("workload", "scale"):
        if a[key] != b[key]:
            print(f"not comparable: {key} {a[key]!r} vs {b[key]!r}")
            return 2
    if host_class(a["host"]) != host_class(b["host"]):
        print(f"not comparable: host class {host_class(a['host'])} vs "
              f"{host_class(b['host'])}")
        return 2
    print(f"{'metric':<32}{'A':>14}{'B':>14}{'B/A':>8}  unit")
    for name, entry in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / entry["value"] if entry["value"] else float("nan")
        print(f"{name:<32}{entry['value']:>14.4f}{other['value']:>14.4f}"
              f"{ratio:>8.3f}  {entry['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    trace = commands.add_parser("trace", help="per-layer self times of a trace")
    trace.add_argument("path", type=Path)
    comparison = commands.add_parser("compare", help="compare two results")
    comparison.add_argument("a", type=Path)
    comparison.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "trace":
        return print_trace(args.path)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
