"""Closed-loop load generator for the simulation service.

Drives N concurrent clients against a running gateway; each client
issues its requests back-to-back (closed loop), so offered load scales
with service latency like a real caller.  Reports throughput, latency
percentiles (nearest-rank over all successful requests), and error
counts; exits nonzero if any request hit a 5xx or a connection error,
which is what the CI smoke job asserts.

Modes:

* ``sweep`` (default): every request is ``POST /v1/sweep`` for the
  same figure -- overlapping sweeps exercise single-flight dedupe and
  the shared cache; the NDJSON stream is consumed and per-spec events
  are tallied.
* ``run``: clients round-robin ``POST /v1/run`` over the figure's
  individual specs.

Usage::

    python -m repro.service.loadgen --port 8321 --clients 16 \
        --requests 4 --figure fig9 --scale 0.01 --procs 4 --json out.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.service.httpio import (
    close_writer, read_content, read_head, request_bytes,
)
from repro.service.metrics import percentile

_MAX_LINE = 1 << 20

#: Prometheus text samples worth breaking out per shard in the report
_SHARD_SAMPLE_NAMES = ("repro_specs_total", "repro_cache_lookups_total")

_SAMPLE_RE = re.compile(
    r'^(\w+)(?:\{(.*)\})?\s+([0-9.eE+-]+|\+Inf|NaN)$')
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


@dataclass
class ClientStats:
    """Tallies of one client's closed loop."""

    ok: int = 0
    by_status: Dict[int, int] = field(default_factory=dict)
    conn_errors: int = 0
    latencies_s: List[float] = field(default_factory=list)
    spec_events: int = 0
    cached_events: int = 0


class HttpClient:
    """A keep-alive HTTP/1.1 client for one (host, port)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=_MAX_LINE)

    async def close(self) -> None:
        await close_writer(self._writer)
        self._reader = self._writer = None

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """One request; returns (status, headers, full body bytes)."""
        if self._writer is None:
            await self._connect()
        self._writer.write(request_bytes(method, path, self.host,
                                         self.port, body))
        await self._writer.drain()
        status, headers = await read_head(self._reader)
        # length-framed, or close-delimited (the NDJSON sweep stream)
        resp_body = await read_content(self._reader, headers)
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, resp_body


def build_payloads(args) -> Tuple[str, List[bytes]]:
    """(path, request bodies) for the chosen mode."""
    if args.mode == "sweep":
        body = {"figure": args.figure, "scale": args.scale,
                "procs": args.procs}
        if args.sizes:
            body["sizes"] = args.sizes
        return "/v1/sweep", [json.dumps(body).encode("utf-8")]
    # run mode: one body per figure spec, round-robined
    from repro.config import ExperimentScale, PAPER_MACHINE_SIZES
    from repro.experiments.figures import figure_points

    points = figure_points(
        args.figure, scale=ExperimentScale.scaled(args.scale),
        sizes=tuple(args.sizes) if args.sizes else PAPER_MACHINE_SIZES,
        P=args.procs)
    bodies = []
    for pt in points:
        spec = pt.spec.to_jsonable()
        spec["label"] = pt.label
        bodies.append(json.dumps(spec).encode("utf-8"))
    return "/v1/run", bodies


async def _client_loop(index: int, args, path: str,
                       payloads: List[bytes],
                       stats: ClientStats) -> None:
    client = HttpClient(args.host, args.port)
    try:
        for n in range(args.requests):
            body = payloads[(index + n) % len(payloads)]
            t0 = time.monotonic()
            try:
                status, _headers, resp = await client.request(
                    "POST", path, body)
            except (ConnectionError, OSError,
                    asyncio.IncompleteReadError):
                stats.conn_errors += 1
                await client.close()
                continue
            stats.latencies_s.append(time.monotonic() - t0)
            stats.by_status[status] = stats.by_status.get(status, 0) + 1
            if status == 200:
                stats.ok += 1
                if args.mode == "sweep":
                    for line in resp.splitlines():
                        try:
                            event = json.loads(line)
                        except ValueError:
                            continue
                        if event.get("event") == "spec":
                            stats.spec_events += 1
                            if event.get("cached"):
                                stats.cached_events += 1
            elif status == 429:
                retry = _headers.get("retry-after")
                try:
                    await asyncio.sleep(min(5.0, float(retry or 1)))
                except ValueError:
                    await asyncio.sleep(1.0)
    finally:
        await client.close()


def summarize(all_stats: List[ClientStats], elapsed_s: float,
              args) -> Dict[str, object]:
    latencies = [s for st in all_stats for s in st.latencies_s]
    by_status: Dict[str, int] = {}
    for st in all_stats:
        for code, n in st.by_status.items():
            by_status[str(code)] = by_status.get(str(code), 0) + n
    completed = sum(len(st.latencies_s) for st in all_stats)
    report: Dict[str, object] = {
        "mode": args.mode,
        "figure": args.figure,
        "clients": args.clients,
        "requests_per_client": args.requests,
        "completed": completed,
        "ok": sum(st.ok for st in all_stats),
        "by_status": by_status,
        "conn_errors": sum(st.conn_errors for st in all_stats),
        "status_5xx": sum(n for code, n in by_status.items()
                          if code.startswith("5")),
        "elapsed_s": round(elapsed_s, 3),
        "throughput_rps": round(completed / elapsed_s, 3)
        if elapsed_s > 0 else 0.0,
        "spec_events": sum(st.spec_events for st in all_stats),
        "cached_events": sum(st.cached_events for st in all_stats),
    }
    if latencies:
        report["latency_s"] = {
            "p50": round(percentile(latencies, 50), 6),
            "p90": round(percentile(latencies, 90), 6),
            "p95": round(percentile(latencies, 95), 6),
            "p99": round(percentile(latencies, 99), 6),
            "max": round(max(latencies), 6),
        }
    return report


def parse_shard_counters(text: str) -> Dict[str, Dict[str, float]]:
    """Per-shard hit/miss/executed tallies from a /metrics exposition.

    Samples without a ``shard_id`` label (a single, non-sharded
    gateway) land under ``"local"``.
    """
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        name, label_text, value = match.groups()
        if name not in _SHARD_SAMPLE_NAMES:
            continue
        labels = dict(_LABEL_RE.findall(label_text or ""))
        shard = labels.get("shard_id", "local")
        entry = out.setdefault(shard, {})
        if name == "repro_specs_total":
            field_name = labels.get("status", "unknown")
        else:
            field_name = "cache_" + labels.get("result", "unknown")
        entry[field_name] = entry.get(field_name, 0.0) + float(value)
    return out


async def fetch_shard_counters(args) -> Optional[Dict[str, Dict[str, float]]]:
    """Best-effort GET /metrics after the run; None on any failure."""
    client = HttpClient(args.host, args.port)
    try:
        status, _headers, body = await client.request("GET", "/metrics")
    except (ConnectionError, OSError, asyncio.IncompleteReadError):
        return None
    finally:
        await client.close()
    if status != 200:
        return None
    return parse_shard_counters(body.decode("utf-8", "replace")) or None


async def run_loadgen(args) -> Dict[str, object]:
    path, payloads = build_payloads(args)
    all_stats = [ClientStats() for _ in range(args.clients)]
    t0 = time.monotonic()
    await asyncio.gather(*(
        _client_loop(i, args, path, payloads, all_stats[i])
        for i in range(args.clients)))
    report = summarize(all_stats, time.monotonic() - t0, args)
    per_shard = await fetch_shard_counters(args)
    if per_shard is not None:
        report["per_shard"] = per_shard
    return report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-loadgen",
        description="Closed-loop load generator for the simulation "
                    "service (see docs/service.md).")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--clients", type=int, default=16, metavar="N",
                   help="concurrent closed-loop clients (default 16)")
    p.add_argument("--requests", type=int, default=4, metavar="N",
                   help="requests per client (default 4)")
    p.add_argument("--mode", choices=("sweep", "run"), default="sweep")
    p.add_argument("--figure", default="fig9",
                   help="figure driving the workload (default fig9)")
    p.add_argument("--scale", type=float, default=0.01,
                   help="iteration-count scale (default 0.01)")
    p.add_argument("--procs", type=int, default=4,
                   help="machine size for traffic figures (default 4)")
    p.add_argument("--sizes", type=lambda t: [int(s) for s in
                                              t.split(",")],
                   default=None, metavar="A,B,...",
                   help="machine sizes for latency figures")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the report as JSON")
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   metavar="MS",
                   help="exit nonzero if observed p99 latency exceeds "
                        "this many milliseconds (the CI SLO gate)")
    p.add_argument("--quiet", action="store_true")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.clients < 1 or args.requests < 1:
        print("--clients and --requests must be >= 1", file=sys.stderr)
        return 2
    report = asyncio.run(run_loadgen(args))

    slo_violated = False
    if args.slo_p99_ms is not None and "latency_s" in report:
        observed_ms = report["latency_s"]["p99"] * 1000.0
        slo_violated = observed_ms > args.slo_p99_ms
        report["slo"] = {"p99_ms": args.slo_p99_ms,
                         "observed_p99_ms": round(observed_ms, 3),
                         "ok": not slo_violated}

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    if not args.quiet:
        lat = report.get("latency_s", {})
        print(f"loadgen: {report['completed']} requests "
              f"({report['ok']} ok) in {report['elapsed_s']}s "
              f"= {report['throughput_rps']} req/s")
        if lat:
            print(f"  latency p50={lat['p50']}s p90={lat['p90']}s "
                  f"p95={lat['p95']}s p99={lat['p99']}s "
                  f"max={lat['max']}s")
        print(f"  statuses={report['by_status']} "
              f"conn_errors={report['conn_errors']} "
              f"spec_events={report['spec_events']} "
              f"(cached {report['cached_events']})")
        for shard, counts in sorted(
                report.get("per_shard", {}).items()):
            executed = int(counts.get("executed", 0))
            hits = int(counts.get("cache_hit", 0))
            misses = int(counts.get("cache_miss", 0))
            print(f"  shard {shard}: executed={executed} "
                  f"cache_hit={hits} cache_miss={misses}")
        if "slo" in report:
            slo = report["slo"]
            verdict = "ok" if slo["ok"] else "VIOLATED"
            print(f"  slo p99<={slo['p99_ms']}ms: observed "
                  f"{slo['observed_p99_ms']}ms ({verdict})")
    failed = report["status_5xx"] or report["conn_errors"]
    return 1 if failed or slo_violated else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
