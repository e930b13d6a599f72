"""The asyncio simulation-serving gateway.

A long-running HTTP server that turns the one-shot figure harness into
a multi-tenant simulation service:

* ``POST /v1/run``    -- one spec; responds with the full run record
* ``POST /v1/sweep``  -- a figure or raw spec list; streams NDJSON
  per-spec completion events, then a summary (and the rendered figure
  table when every point succeeded)
* ``GET /v1/result/<key>`` -- fetch a cached record by spec hash
* ``GET /healthz``    -- liveness + queue/drain state
* ``GET /metrics``    -- Prometheus text exposition

All simulation work flows through one :class:`SimScheduler` (shared
cache, single-flight, bounded admission), so overlapping requests from
many clients cost one simulation per unique spec.  SIGTERM/SIGINT
drain gracefully: the listener closes, in-flight requests finish, the
worker pool shuts down, and the process exits 0.  The serving edge
(listener, connection loop, routing, drain, signals) is the shared
:class:`~repro.service.server.HttpServer`; this module holds the
endpoints and the ``serve`` CLI.

Run it via ``python -m repro.experiments serve`` or
``python -m repro.service``.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time
from typing import List, Optional, Tuple

from repro.campaign import ResultCache
from repro.service import api
from repro.service.config import DEFAULT_PORT, ServiceConfig
from repro.service.httpio import (
    METRICS_TYPE, HttpError, Request, json_response, ndjson_line,
    read_request, response, stream_head,
)
from repro.service.metrics import MetricsRegistry
from repro.service.scheduler import (
    DeadlineExceeded, Draining, QueueFull, SimScheduler,
)
from repro.service.server import HttpServer, draining_error, result_key


class Gateway(HttpServer):
    """One service instance: listener + scheduler + metrics."""

    log_name = "repro.service"

    def __init__(self, config: ServiceConfig,
                 scheduler: Optional[SimScheduler] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(config)
        self.registry = registry if registry is not None \
            else (scheduler.registry if scheduler is not None
                  else MetricsRegistry(
                      const_labels={"shard_id": config.shard_id}
                      if config.shard_id else None))
        self.cache = (ResultCache(config.cache_dir)
                      if config.cache_dir else None)
        self._own_scheduler = scheduler is None
        if scheduler is None:
            scheduler = SimScheduler(
                jobs=config.jobs, cache=self.cache,
                max_queue=config.max_queue, registry=self.registry,
                spec_timeout_s=config.spec_timeout_s,
                cache_max_bytes=config.cache_max_bytes)
        else:
            self.cache = scheduler.cache
        self.scheduler = scheduler

        self.m_requests = self.registry.counter(
            "repro_requests_total", "HTTP requests by route and status",
            ("route", "code"))
        self.m_latency = self.registry.histogram(
            "repro_request_latency_seconds",
            "Wall-clock seconds per HTTP request", ("route",))
        self.m_draining = self.registry.gauge(
            "repro_draining", "1 while the gateway is draining")
        self.m_misrouted = self.registry.counter(
            "repro_misrouted_requests_total",
            "Requests for keys this shard does not own under the "
            "configured ring (stale upstream ring view); served anyway")
        self.m_forwarded = self.registry.counter(
            "repro_forwarded_requests_total",
            "Requests carrying X-Repro-Forwarded-By (proxied by a "
            "cluster router)")

        #: ring over the configured peer set, used only to *count*
        #: misrouted keys -- ownership is advisory, never a 404
        self._ring = None
        if config.shard_id and config.shard_peers:
            from repro.cluster.ring import HashRing
            self._ring = HashRing(config.shard_peers,
                                  vnodes=config.ring_vnodes)

    # -- the backend: a scheduler in front of a worker pool -------------

    def _before_listen(self) -> None:
        if self._own_scheduler:
            # fork the workers before any socket exists (see
            # SimScheduler.warm); injected schedulers warm themselves
            self.scheduler.warm()

    def _after_listen(self) -> None:
        self._log(f"listening on http://{self.config.host}:{self.port}")

    async def _drain_backend(self, grace_s: float) -> bool:
        return await self.scheduler.drain(grace_s=grace_s)

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Request]:
        return await read_request(reader, self.config.max_body_bytes)

    async def _dispatch(self, req: Request,
                        writer: asyncio.StreamWriter) -> bool:
        if "x-repro-forwarded-by" in req.headers:
            self.m_forwarded.inc()
        return await self._serve(req, writer)

    def _admit(self, specs) -> list:
        """Admit specs all at once, or answer 429 (queue full) or 503
        (draining)."""
        try:
            return self.scheduler.admit_many(specs)
        except QueueFull as exc:
            raise HttpError(
                429, str(exc),
                {"Retry-After": str(exc.retry_after_s)}) from None
        except Draining:
            raise draining_error() from None

    def _check_ownership(self, key: str) -> None:
        """Count (never reject) keys another shard owns: a misrouted
        request means some upstream holds a stale ring view."""
        if (self._ring is not None
                and self._ring.owner(key) != self.config.shard_id):
            self.m_misrouted.inc()

    # -- endpoints ------------------------------------------------------

    async def _h_health(self, req, writer, keep) -> Tuple[int, bool]:
        sched = self.scheduler
        code = 503 if self._draining else 200
        body = {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "pending": sched.pending,
            "running": sched.running,
            "queue_depth": max(0, sched.pending - sched.running),
            "jobs": sched.jobs,
            "max_queue": sched.max_queue,
            "cache": self.cache.root if self.cache is not None else None,
        }
        if self.config.shard_id is not None:
            body["shard_id"] = self.config.shard_id
        writer.write(json_response(code, body, keep_alive=keep))
        return code, keep

    async def _h_ready(self, req, writer, keep) -> Tuple[int, bool]:
        """Readiness, distinct from liveness: unready before start()
        finishes and from the moment a drain begins, so a router (or
        rolling deploy) stops sending work before SIGTERM completes."""
        ready = self._ready and not self._draining
        code = 200 if ready else 503
        body = {"status": "ready" if ready else
                ("draining" if self._draining else "starting")}
        if self.config.shard_id is not None:
            body["shard_id"] = self.config.shard_id
        writer.write(json_response(
            code, body, keep_alive=keep,
            headers=None if ready else {"Retry-After": "1"}))
        return code, keep

    async def _h_metrics(self, req, writer, keep) -> Tuple[int, bool]:
        body = self.registry.render().encode("utf-8")
        writer.write(response(200, body, content_type=METRICS_TYPE,
                              keep_alive=keep))
        return 200, keep

    async def _h_run(self, req, writer, keep) -> Tuple[int, bool]:
        point, deadline_s = api.run_from_request(
            req.json(), self.config.deadline_s)
        self._check_ownership(point.spec.key)
        handle = self._admit([point.spec])[0]
        try:
            record = await self.scheduler.result(handle, deadline_s)
        except DeadlineExceeded as exc:
            raise HttpError(504, str(exc)) from None
        code = 200 if record.ok else 422
        body = {"label": point.label, "key": point.spec.key,
                "cached": record.cached,
                "record": record.to_jsonable()}
        writer.write(json_response(code, body, keep_alive=keep))
        return code, keep

    async def _h_result(self, req, writer, keep) -> Tuple[int, bool]:
        key = result_key(req.path)
        self._check_ownership(key)
        record = self.scheduler.lookup(key)
        if record is not None:
            writer.write(json_response(
                200, {"key": key, "record": record.to_jsonable()},
                keep_alive=keep))
            return 200, keep
        if self.scheduler.inflight_key(key) is not None:
            writer.write(json_response(
                202, {"key": key, "inflight": True,
                      "error": "still simulating; retry shortly"},
                headers={"Retry-After": "1"}, keep_alive=keep))
            return 202, keep
        raise HttpError(404, f"no cached result for {key}")

    async def _h_sweep(self, req, writer, keep) -> Tuple[int, bool]:
        data = req.json()
        fid, points, deadline_s = api.sweep_from_request(
            data, self.config.deadline_s)
        # the cluster router asks for full records so it can rebuild
        # figure tables from per-shard streams
        full_records = bool(data.get("full_records", False)) \
            if isinstance(data, dict) else False
        for pt in points:
            self._check_ownership(pt.spec.key)
        handles = self._admit([pt.spec for pt in points])

        # headers committed: stream close-delimited NDJSON from here on
        writer.write(stream_head())
        t0 = time.monotonic()
        writer.write(ndjson_line({
            "event": "start", "figure": fid, "count": len(points)}))
        await writer.drain()

        async def finish(index: int):
            try:
                rec = await self.scheduler.result(
                    handles[index], deadline_s)
            except DeadlineExceeded:
                return index, None
            return index, rec

        executed = cached = failed = timed_out = 0
        records: List[Optional[object]] = [None] * len(points)
        for fut in asyncio.as_completed(
                [finish(i) for i in range(len(points))]):
            index, record = await fut
            point = points[index]
            if record is None:
                timed_out += 1
                writer.write(ndjson_line({
                    "event": "deadline", "index": index,
                    "label": point.label, "x": point.x,
                    "key": point.spec.key}))
                await writer.drain()
                continue
            records[index] = record
            if record.cached:
                cached += 1
            else:
                executed += 1
            if not record.ok:
                failed += 1
            event = {
                "event": "spec", "index": index, "label": point.label,
                "x": point.x, "key": point.spec.key, "ok": record.ok,
                "cached": record.cached, "error_type": record.error_type,
                "metrics": dict(record.metrics)}
            if full_records:
                event["record"] = record.to_jsonable()
            writer.write(ndjson_line(event))
            await writer.drain()

        if fid is not None and failed == 0 and timed_out == 0:
            from repro.experiments.figures import figure_table

            table = figure_table(fid, points, records)
            writer.write(ndjson_line({
                "event": "table", "figure": fid,
                "text": table.render()}))
        writer.write(ndjson_line({
            "event": "done", "ok": failed == 0 and timed_out == 0,
            "count": len(points), "executed": executed,
            "cached": cached, "failed": failed,
            "deadline_exceeded": timed_out,
            "elapsed_s": round(time.monotonic() - t0, 6)}))
        return 200, False


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve simulations over HTTP: shared cache, "
                    "single-flight dedupe, bounded admission, live "
                    "Prometheus metrics (see docs/service.md).")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help=f"TCP port (default {DEFAULT_PORT}; 0 picks a "
                        "free port and prints it)")
    p.add_argument("--jobs", type=int, default=2, metavar="N",
                   help="simulation worker processes (default 2)")
    p.add_argument("--cache-dir", default=".repro-cache", metavar="DIR",
                   help="content-addressed result cache "
                        "(default .repro-cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without a result cache")
    p.add_argument("--max-queue", type=int, default=64, metavar="N",
                   help="max admitted-but-unfinished specs before "
                        "requests get 429 (default 64)")
    p.add_argument("--deadline", type=float, default=300.0,
                   metavar="SECONDS",
                   help="default per-request deadline (default 300; "
                        "0 disables)")
    p.add_argument("--spec-timeout", type=float, default=0.0,
                   metavar="SECONDS",
                   help="per-simulation wall-clock timeout inside a "
                        "worker (default off)")
    p.add_argument("--cache-max-mb", type=float, default=None,
                   metavar="MB",
                   help="prune the result cache (LRU) above this size")
    p.add_argument("--drain-grace", type=float, default=30.0,
                   metavar="SECONDS",
                   help="max seconds to finish in-flight work on "
                        "SIGTERM (default 30)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress log lines on stderr")
    cluster = p.add_argument_group(
        "cluster", "shard-aware serving under a repro.cluster router "
                   "(see docs/cluster.md)")
    cluster.add_argument("--shard-id", default=None, metavar="ID",
                         help="this replica's shard id (labels every "
                              "metric sample)")
    cluster.add_argument("--shard-peers", default="", metavar="IDS",
                         help="comma-separated ids of all shards in "
                              "the ring, including this one")
    cluster.add_argument("--ring-vnodes", type=int, default=64,
                         metavar="N",
                         help="virtual points per shard on the "
                              "ownership ring (default 64)")
    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = ServiceConfig(
            host=args.host, port=args.port, jobs=args.jobs,
            cache_dir=None if args.no_cache else args.cache_dir,
            max_queue=args.max_queue,
            deadline_s=args.deadline if args.deadline > 0 else None,
            spec_timeout_s=(args.spec_timeout
                            if args.spec_timeout > 0 else None),
            cache_max_mb=args.cache_max_mb,
            drain_grace_s=args.drain_grace, quiet=args.quiet,
            shard_id=args.shard_id,
            shard_peers=tuple(s.strip()
                              for s in args.shard_peers.split(",")
                              if s.strip()),
            ring_vnodes=args.ring_vnodes)
    except ValueError as exc:
        print(f"bad service configuration: {exc}", file=sys.stderr)
        return 2

    gateway = Gateway(config)

    def boot() -> dict:
        line = {"service": "repro", "host": config.host,
                "port": gateway.port}
        if config.shard_id is not None:
            line["shard_id"] = config.shard_id
        return line

    gateway.run_cli(boot)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
