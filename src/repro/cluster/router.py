"""The cluster router: one tiny asyncio load-balancer over N shards.

The router is the cluster's only client-facing process.  It owns a
consistent-hash :class:`~repro.cluster.ring.HashRing` of the *live*
shard set and speaks the same HTTP surface as a single gateway, so
every existing client (``loadgen``, curl scripts, the CI smoke jobs)
points at the router port unchanged:

* ``POST /v1/run``     -- validated at the edge, then proxied to the
  key's owner shard with bounded retry + backoff; on connection
  failure the shard is marked down, the ring rehashes, and the request
  fails over to the key's successor -- in-flight client requests
  survive a replica being killed.
* ``POST /v1/sweep``   -- the sweep planner splits the body into
  per-shard batches by key ownership (duplicate keys collapse:
  cross-shard single-flight), streams the per-shard NDJSON responses
  concurrently, and merges them back in deterministic global spec
  order, bit-identical in content to a single-gateway sweep.
* ``GET /v1/result/<key>`` -- owner first, then every other live shard
  (misrouted-key fallback), preferring 200 over 202 over 404.
* ``GET /healthz`` / ``GET /readyz`` -- router liveness; ready iff at
  least one shard is live.
* ``GET /metrics``     -- the router's own series plus every live
  shard's ``/metrics`` merged into one exposition (shard series are
  distinguishable by their ``shard_id`` label).

A background prober hits each shard's ``/readyz``; consecutive
failures mark the shard down (ring rehash), a success marks it back
up.  The serving edge (listener, connection loop, routing, drain) is
the shared :class:`~repro.service.server.HttpServer`.  See
``docs/cluster.md``.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign import RunRecord
from repro.cluster.client import HttpPool, open_stream
from repro.cluster.planner import OrderedMerge, plan_sweep
from repro.cluster.ring import DEFAULT_VNODES, EmptyRingError, HashRing
from repro.service import api
from repro.service.httpio import (
    JSON_TYPE, METRICS_TYPE, HttpError, Request, close_writer,
    json_response, ndjson_line, read_content, read_request, response,
    stream_head,
)
from repro.service.metrics import MetricsRegistry
from repro.service.server import HttpServer, result_key

#: request header stamped on every proxied call; shards count it in
#: ``repro_forwarded_requests_total``
FORWARDED_HEADER = "X-Repro-Forwarded-By"

#: shard statuses worth failing over for (a drained/broken shard);
#: 429/4xx pass through to the client untouched
_RETRYABLE_STATUSES = frozenset({500, 502, 503})

_CONN_ERRORS = (ConnectionError, OSError, asyncio.TimeoutError,
                asyncio.IncompleteReadError)


@dataclass(frozen=True)
class ShardEndpoint:
    """Where one gateway replica listens."""

    id: str
    host: str
    port: int


@dataclass(frozen=True)
class RouterConfig:
    """Everything the router needs to run."""

    shards: Tuple[ShardEndpoint, ...]
    host: str = "127.0.0.1"
    port: int = 0
    vnodes: int = DEFAULT_VNODES
    probe_interval_s: float = 0.5
    probe_timeout_s: float = 2.0
    fail_threshold: int = 2
    retries: int = 4
    backoff_s: float = 0.05
    connect_timeout_s: float = 5.0
    sweep_replans: int = 3
    max_body_bytes: int = 8 << 20
    drain_grace_s: float = 30.0
    quiet: bool = False

    def __post_init__(self) -> None:
        if not self.shards:
            raise ValueError("router needs at least one shard")
        ids = [s.id for s in self.shards]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate shard ids: {ids}")
        if self.retries < 1:
            raise ValueError("retries must be >= 1")
        if self.fail_threshold < 1:
            raise ValueError("fail_threshold must be >= 1")


@dataclass
class ShardState:
    """Live view of one shard: health + its connection pool."""

    endpoint: ShardEndpoint
    pool: HttpPool
    up: bool = True
    fails: int = 0


class Router(HttpServer):
    """The load-balancer process (see module docstring)."""

    log_name = "repro.cluster"

    def __init__(self, config: RouterConfig,
                 registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(config)
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self._states: Dict[str, ShardState] = {
            ep.id: ShardState(ep, HttpPool(
                ep.host, ep.port,
                connect_timeout_s=config.connect_timeout_s))
            for ep in config.shards}
        #: ring of live shards only; mutated on mark-down / recovery
        self._live_ring = HashRing((ep.id for ep in config.shards),
                                   vnodes=config.vnodes)

        reg = self.registry
        self.m_requests = reg.counter(
            "repro_router_requests_total",
            "Client HTTP requests by route and status", ("route", "code"))
        self.m_latency = reg.histogram(
            "repro_router_request_latency_seconds",
            "Wall-clock seconds per client request", ("route",))
        self.m_proxied = reg.counter(
            "repro_router_proxied_total",
            "Requests proxied to a shard", ("shard_id", "route"))
        self.m_retries = reg.counter(
            "repro_router_retries_total",
            "Proxy attempts retried, by reason", ("reason",))
        self.m_dedup = reg.counter(
            "repro_router_sweep_dedup_total",
            "Duplicate sweep keys collapsed by the planner "
            "(cross-shard single-flight)")
        self.m_probe_failures = reg.counter(
            "repro_router_probe_failures_total",
            "Failed shard health probes", ("shard_id",))
        self.m_markdowns = reg.counter(
            "repro_router_shard_markdowns_total",
            "Times a shard was marked down", ("shard_id",))
        self.m_shard_up = reg.gauge(
            "repro_router_shard_up",
            "1 while the shard is in the live ring", ("shard_id",))
        self.m_draining = reg.gauge(
            "repro_router_draining", "1 while the router is draining")
        for ep in config.shards:
            self.m_shard_up.set(1, shard_id=ep.id)

        self._probe_task: Optional[asyncio.Task] = None

    # -- the backend: a prober and a connection pool per shard ----------

    def _after_listen(self) -> None:
        self._probe_task = asyncio.get_running_loop().create_task(
            self._probe_loop())
        self._log(f"routing {len(self._states)} shard(s) on "
                  f"http://{self.config.host}:{self.port}")

    async def _drain_backend(self, grace_s: float) -> bool:
        if self._probe_task is not None:
            self._probe_task.cancel()
        for state in self._states.values():
            await state.pool.close()
        return True

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Optional[Request]:
        return await read_request(reader, self.config.max_body_bytes)

    async def _dispatch(self, req: Request,
                        writer: asyncio.StreamWriter) -> bool:
        return await self._serve(req, writer)

    def live_shards(self) -> List[str]:
        return sorted(sid for sid, st in self._states.items() if st.up)

    # -- shard health ---------------------------------------------------

    def _mark_down(self, state: ShardState, reason: str) -> None:
        if not state.up:
            return
        state.up = False
        self._live_ring.remove(state.endpoint.id)
        self.m_shard_up.set(0, shard_id=state.endpoint.id)
        self.m_markdowns.inc(shard_id=state.endpoint.id)
        self._log(f"shard {state.endpoint.id} marked down ({reason}); "
                  f"{len(self._live_ring)} shard(s) in the ring")

    def _mark_up(self, state: ShardState) -> None:
        if state.up:
            return
        state.up = True
        state.fails = 0
        self._live_ring.add(state.endpoint.id)
        self.m_shard_up.set(1, shard_id=state.endpoint.id)
        self._log(f"shard {state.endpoint.id} recovered; "
                  f"{len(self._live_ring)} shard(s) in the ring")

    def _note_conn_failure(self, state: ShardState) -> None:
        """A request-path connection failure is decisive: mark down
        immediately so in-flight requests fail over, and let the
        prober bring the shard back when it answers again."""
        state.fails += 1
        self._mark_down(state, "request connection failure")

    async def _probe_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.probe_interval_s)
                await asyncio.gather(*(self._probe(state)
                                       for state in
                                       self._states.values()))
        except asyncio.CancelledError:
            pass

    async def _probe(self, state: ShardState) -> None:
        try:
            status, _headers, _body = await state.pool.request(
                "GET", "/readyz", timeout_s=self.config.probe_timeout_s)
        except _CONN_ERRORS:
            status = None
        if status == 200:
            state.fails = 0
            self._mark_up(state)
            return
        state.fails += 1
        self.m_probe_failures.inc(shard_id=state.endpoint.id)
        if state.up and state.fails >= self.config.fail_threshold:
            self._mark_down(state, "probe failure"
                            if status is None else f"probe {status}")

    # -- proxying -------------------------------------------------------

    def _preference(self, key: str) -> List[ShardState]:
        """Live shards in failover order for ``key``."""
        try:
            return [self._states[sid]
                    for sid in self._live_ring.preference(key)]
        except EmptyRingError:
            return []

    async def _call_with_failover(self, method: str, path: str,
                                  body: Optional[bytes], key: str,
                                  route: str
                                  ) -> Tuple[int, Dict[str, str], bytes]:
        """Proxy one request to the key's owner, failing over along
        the ring with bounded retry + exponential backoff."""
        delay = self.config.backoff_s
        last_error: Optional[str] = None
        for attempt in range(self.config.retries):
            if attempt:
                await asyncio.sleep(delay)
                delay *= 2
            order = self._preference(key)
            if not order:
                last_error = "no live shards"
                continue
            state = order[attempt % len(order)]
            try:
                status, headers, data = await state.pool.request(
                    method, path, body,
                    headers={FORWARDED_HEADER: "repro-router"})
            except _CONN_ERRORS as exc:
                self._note_conn_failure(state)
                self.m_retries.inc(reason="conn")
                last_error = f"{state.endpoint.id}: {exc!r}"
                continue
            if (status in _RETRYABLE_STATUSES
                    and attempt + 1 < self.config.retries):
                self.m_retries.inc(reason=str(status))
                last_error = f"{state.endpoint.id}: HTTP {status}"
                continue
            self.m_proxied.inc(shard_id=state.endpoint.id, route=route)
            return status, headers, data
        raise HttpError(502, f"no shard could serve the request "
                             f"({last_error})", {"Retry-After": "1"})

    @staticmethod
    def _relay(writer, keep: bool, status: int, headers: Dict[str, str],
               data: bytes) -> Tuple[int, bool]:
        """Answer with a shard's response; Retry-After passes through."""
        extra = ({"Retry-After": headers["retry-after"]}
                 if "retry-after" in headers else None)
        writer.write(response(
            status, data,
            content_type=headers.get("content-type", JSON_TYPE),
            headers=extra, keep_alive=keep))
        return status, keep

    # -- endpoints ------------------------------------------------------

    async def _h_health(self, req, writer, keep) -> Tuple[int, bool]:
        code = 503 if self._draining else 200
        body = {
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "ring_shards": len(self._live_ring),
            "shards": {
                sid: {"host": st.endpoint.host, "port": st.endpoint.port,
                      "up": st.up}
                for sid, st in sorted(self._states.items())},
        }
        writer.write(json_response(code, body, keep_alive=keep))
        return code, keep

    async def _h_ready(self, req, writer, keep) -> Tuple[int, bool]:
        live = self.live_shards()
        ready = bool(live) and not self._draining
        code = 200 if ready else 503
        body = {"status": "ready" if ready else
                ("draining" if self._draining else "no live shards"),
                "live_shards": live}
        writer.write(json_response(
            code, body, keep_alive=keep,
            headers=None if ready else {"Retry-After": "1"}))
        return code, keep

    async def _h_metrics(self, req, writer, keep) -> Tuple[int, bool]:
        texts = [self.registry.render()]

        async def fetch(state: ShardState) -> Optional[str]:
            try:
                status, _headers, data = await state.pool.request(
                    "GET", "/metrics",
                    timeout_s=self.config.probe_timeout_s * 2)
            except _CONN_ERRORS:
                return None
            if status != 200:
                return None
            return data.decode("utf-8", "replace")

        fetched = await asyncio.gather(
            *(fetch(st) for _sid, st in sorted(self._states.items())
              if st.up))
        texts.extend(t for t in fetched if t)
        body = merge_metrics_texts(texts).encode("utf-8")
        writer.write(response(200, body, content_type=METRICS_TYPE,
                              keep_alive=keep))
        return 200, keep

    async def _h_run(self, req, writer, keep) -> Tuple[int, bool]:
        # validate at the edge: bad requests get a 400 with the usual
        # did-you-mean without touching any shard
        point, _deadline = api.run_from_request(req.json(), None)
        status, headers, data = await self._call_with_failover(
            "POST", "/v1/run", req.body, point.spec.key, route="run")
        return self._relay(writer, keep, status, headers, data)

    async def _h_result(self, req, writer, keep) -> Tuple[int, bool]:
        key = result_key(req.path)
        # owner first, then every other live shard: a key cached on the
        # "wrong" shard (stale ring at write time) is still found
        inflight: Optional[Tuple[int, Dict[str, str], bytes]] = None
        for state in self._preference(key):
            try:
                status, headers, data = await state.pool.request(
                    "GET", req.path,
                    headers={FORWARDED_HEADER: "repro-router"})
            except _CONN_ERRORS:
                self._note_conn_failure(state)
                continue
            if status == 200:
                self.m_proxied.inc(shard_id=state.endpoint.id,
                                   route="result")
                return self._relay(writer, keep, status, headers, data)
            if status == 202 and inflight is None:
                inflight = (status, headers, data)
        if inflight is not None:
            return self._relay(writer, keep, *inflight)
        raise HttpError(404, f"no cached result for {key} on any shard")

    # -- the sweep planner ----------------------------------------------

    async def _h_sweep(self, req, writer, keep) -> Tuple[int, bool]:
        data = req.json()
        fid, points, deadline_s = api.sweep_from_request(data, None)
        want_records = bool(data.get("full_records", False))
        try:
            plan = plan_sweep(points, self._live_ring)
        except EmptyRingError:
            raise HttpError(503, "no live shards",
                            {"Retry-After": "5"}) from None
        if plan.duplicates:
            self.m_dedup.inc(plan.duplicates)

        # headers committed: close-delimited NDJSON from here on
        writer.write(stream_head())
        t0 = time.monotonic()
        writer.write(ndjson_line({
            "event": "start", "figure": fid, "count": len(points)}))
        writer.write(ndjson_line({
            "event": "plan", "unique": plan.unique,
            "duplicates": plan.duplicates,
            "shards": {sid: len(ix)
                       for sid, ix in sorted(plan.batches.items())}}))
        await writer.drain()

        # primary index -> shard event; every global index of a key is
        # emitted from its primary's event (duplicates share records,
        # exactly like the single gateway's shared in-flight task)
        results: Dict[int, dict] = {}
        globals_of: Dict[int, List[int]] = {}
        for i, p in enumerate(plan.primary):
            globals_of.setdefault(p, []).append(i)

        tallies = {"executed": 0, "cached": 0, "failed": 0,
                   "deadline": 0, "unresolved": 0}

        def emit(global_i: int, event: dict) -> None:
            point = points[global_i]
            etype = event.get("event")
            if etype == "spec":
                out = {"event": "spec", "index": global_i,
                       "label": point.label, "x": point.x,
                       "key": point.spec.key, "ok": event.get("ok"),
                       "cached": event.get("cached"),
                       "error_type": event.get("error_type"),
                       "metrics": event.get("metrics", {})}
                if want_records and "record" in event:
                    out["record"] = event["record"]
                if event.get("cached"):
                    tallies["cached"] += 1
                else:
                    tallies["executed"] += 1
                if not event.get("ok"):
                    tallies["failed"] += 1
            elif etype == "deadline":
                out = {"event": "deadline", "index": global_i,
                       "label": point.label, "x": point.x,
                       "key": point.spec.key}
                tallies["deadline"] += 1
            else:
                out = {"event": "error", "index": global_i,
                       "label": point.label, "x": point.x,
                       "key": point.spec.key,
                       "error": event.get("error", "unavailable")}
                tallies["unresolved"] += 1
            writer.write(ndjson_line(out))

        merge = OrderedMerge(len(points), emit)

        async def resolve(primary_i: int, event: dict) -> None:
            results[primary_i] = event
            flushed = 0
            for gi in globals_of[primary_i]:
                flushed += merge.put(gi, event)
            if flushed:
                await writer.drain()

        # run batches, replanning unresolved keys over the (possibly
        # shrunken) live ring after shard failures
        pending: List[int] = sorted(
            i for batch in plan.batches.values() for i in batch)
        for round_no in range(self.config.sweep_replans + 1):
            if not pending:
                break
            if round_no:
                self.m_retries.inc(reason="sweep-replan",
                                   amount=len(pending))
                await asyncio.sleep(self.config.backoff_s * round_no)
            assignment: Dict[str, List[int]] = {}
            try:
                for i in pending:
                    owner = self._live_ring.owner(points[i].spec.key)
                    assignment.setdefault(owner, []).append(i)
            except EmptyRingError:
                break
            unresolved = await asyncio.gather(
                *(self._consume_sweep_batch(sid, indices, points,
                                            deadline_s, resolve)
                  for sid, indices in sorted(assignment.items())))
            pending = sorted(i for batch in unresolved for i in batch)

        for primary_i in pending:
            await resolve(primary_i, {"event": "error",
                                      "error": "no shard available"})

        ok = (tallies["failed"] == 0 and tallies["deadline"] == 0
              and tallies["unresolved"] == 0)
        if fid is not None and ok:
            from repro.experiments.figures import figure_table

            records = [RunRecord.from_jsonable(
                results[plan.primary[i]]["record"])
                for i in range(len(points))]
            table = figure_table(fid, points, records)
            writer.write(ndjson_line({
                "event": "table", "figure": fid,
                "text": table.render()}))
        writer.write(ndjson_line({
            "event": "done", "ok": ok, "count": len(points),
            "executed": tallies["executed"], "cached": tallies["cached"],
            "failed": tallies["failed"],
            "deadline_exceeded": tallies["deadline"],
            "unresolved": tallies["unresolved"],
            "elapsed_s": round(time.monotonic() - t0, 6)}))
        return 200, False

    async def _consume_sweep_batch(self, shard_id: str,
                                   indices: List[int], points,
                                   deadline_s: Optional[float],
                                   resolve) -> List[int]:
        """Stream one per-shard batch; returns unresolved primary
        indices (connection failure / non-200) for replanning."""
        state = self._states[shard_id]
        specs = []
        for i in indices:
            body = points[i].spec.to_jsonable()
            body["label"] = points[i].label
            specs.append(body)
        payload: Dict[str, object] = {"specs": specs,
                                      "full_records": True}
        if deadline_s is not None:
            payload["deadline_s"] = deadline_s
        raw = json.dumps(payload).encode("utf-8")

        try:
            status, headers, reader, swriter = await open_stream(
                state.endpoint.host, state.endpoint.port,
                "POST", "/v1/sweep", raw,
                headers={FORWARDED_HEADER: "repro-router"},
                connect_timeout_s=self.config.connect_timeout_s)
        except _CONN_ERRORS:
            self._note_conn_failure(state)
            self.m_retries.inc(reason="conn")
            return list(indices)

        remaining: Dict[int, int] = dict(enumerate(indices))
        try:
            if status != 200:
                # 429 queue-full / 503 draining: the whole batch goes
                # back to the planner for the next round
                try:
                    await asyncio.wait_for(
                        read_content(reader, headers),
                        self.config.probe_timeout_s)
                except _CONN_ERRORS:
                    pass
                self.m_retries.inc(reason=f"sweep-{status}")
                return list(indices)
            self.m_proxied.inc(shard_id=shard_id, route="sweep")
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    event = json.loads(line)
                except ValueError:
                    continue
                if event.get("event") in ("spec", "deadline"):
                    primary = remaining.pop(event.get("index"), None)
                    if primary is not None:
                        await resolve(primary, event)
        except _CONN_ERRORS:
            self._note_conn_failure(state)
        finally:
            await close_writer(swriter)
        return sorted(remaining.values())


# ----------------------------------------------------------------------
# /metrics aggregation
# ----------------------------------------------------------------------

def merge_metrics_texts(texts: List[str]) -> str:
    """Merge Prometheus expositions into one (HELP/TYPE stated once).

    Series from different shards stay distinguishable because shard
    registries stamp a ``shard_id`` label on every sample.
    """
    order: List[str] = []
    merged: Dict[str, Dict[str, object]] = {}

    def entry(name: str) -> Dict[str, object]:
        if name not in merged:
            merged[name] = {"help": None, "type": None, "samples": []}
            order.append(name)
        return merged[name]

    for text in texts:
        current: Optional[str] = None
        for line in text.splitlines():
            if not line:
                continue
            if line.startswith("# HELP "):
                name = line.split(None, 3)[2]
                ent = entry(name)
                if ent["help"] is None:
                    ent["help"] = line
                current = name
            elif line.startswith("# TYPE "):
                name = line.split(None, 3)[2]
                ent = entry(name)
                if ent["type"] is None:
                    ent["type"] = line
                current = name
            elif line.startswith("#"):
                continue
            elif current is not None:
                merged[current]["samples"].append(line)
    lines: List[str] = []
    for name in order:
        ent = merged[name]
        if ent["help"]:
            lines.append(ent["help"])
        if ent["type"]:
            lines.append(ent["type"])
        lines.extend(ent["samples"])
    return "\n".join(lines) + "\n"
