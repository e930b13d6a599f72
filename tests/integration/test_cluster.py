"""Integration tests for repro.cluster: the ISSUE acceptance bar.

Everything runs in one event loop: K shard-aware gateways on free
ports plus one router in front, so shard death can be simulated by
closing a gateway's listener and the cross-shard counters can be
asserted white-box.  Covers:

* a 3-shard sweep whose merged stream is bit-identical (full
  ``RunRecord`` equality, deterministic spec order) to a direct
  ``CampaignRunner`` run of the same points;
* cross-shard single-flight: a duplicate-key sweep spanning shards
  executes each unique spec exactly once cluster-wide, with the
  router's dedup counter asserted;
* misrouted keys answered (not 404'd) and counted by the wrong shard;
* ``/v1/result`` fallback finding a key cached on a non-owner shard;
* shard death mid-traffic: requests fail over (bounded retry + ring
  rehash) with zero client-visible errors, sweeps replan onto the
  survivors, and recovery re-adds the shard.
"""

import asyncio
import gc
import json

import pytest

from repro.campaign import CampaignRunner, RunRecord
from repro.cluster import Router, RouterConfig, ShardEndpoint
from repro.cluster.ring import HashRing
from repro.config import ExperimentScale
from repro.experiments.figures import figure_points
from repro.service import Gateway, ServiceConfig
from repro.service.httpio import json_response, read_request
from repro.service.loadgen import HttpClient

SCALE = 0.002       # tiny but nonzero simulations (~10ms each)
SHARDS = 3


def spec_body(spec, label=None) -> dict:
    body = spec.to_jsonable()
    if label is not None:
        body["label"] = label
    return body


def cluster(test_coro, tmp_path=None, shards=SHARDS, jobs=1,
            probe_interval_s=0.1, timeout=240):
    """Boot ``shards`` gateways + a router; run ``test_coro(ctx)``.

    ``ctx`` exposes ``router``, ``gateways`` (shard id -> Gateway) and
    a keep-alive ``client`` pointed at the router.
    """
    class Ctx:
        pass

    async def go():
        ids = tuple(f"shard-{i}" for i in range(shards))
        gateways = {}
        for sid in ids:
            cache_dir = (str(tmp_path / sid)
                         if tmp_path is not None else None)
            gateways[sid] = Gateway(ServiceConfig(
                port=0, jobs=jobs, quiet=True, cache_dir=cache_dir,
                shard_id=sid, shard_peers=ids))
        for gw in gateways.values():
            # fork every worker pool before ANY listener exists: a
            # worker forked after a sibling gateway is up would inherit
            # that sibling's listening fd and keep its port half-alive
            # after the sibling stops (separate processes in the real
            # supervisor, so only this in-process harness must care)
            gw.scheduler.warm()
        for gw in gateways.values():
            await gw.start()
        router = Router(RouterConfig(
            shards=tuple(ShardEndpoint(sid, "127.0.0.1", gw.port)
                         for sid, gw in gateways.items()),
            port=0, probe_interval_s=probe_interval_s,
            probe_timeout_s=1.0, backoff_s=0.02, quiet=True))
        await router.start()

        ctx = Ctx()
        ctx.router = router
        ctx.gateways = gateways
        ctx.client = HttpClient("127.0.0.1", router.port)
        try:
            await asyncio.wait_for(test_coro(ctx), timeout)
        finally:
            await ctx.client.close()
            await asyncio.wait_for(router.stop(), 30)
            for gw in gateways.values():
                await asyncio.wait_for(gw.stop(), 30)
    asyncio.run(go())


def sweep_events(body: bytes):
    return [json.loads(line) for line in body.splitlines()]


def executed_cluster_wide(gateways) -> float:
    return sum(
        gw.registry.get("repro_specs_total").value(status="executed")
        for gw in gateways.values())


class TestBitIdentity:
    def test_three_shard_sweep_equals_direct_campaign(self, tmp_path):
        """The acceptance criterion: the merged cluster stream yields
        records equal (full RunRecord equality, which covers metrics
        and the complete simulation result) to a direct CampaignRunner
        run, in deterministic spec order."""
        points = figure_points(
            "fig9", scale=ExperimentScale.scaled(SCALE), P=2)
        direct = CampaignRunner(jobs=1).run(
            [pt.spec for pt in points]).records

        async def check(ctx):
            status, _, body = await ctx.client.request(
                "POST", "/v1/sweep",
                json.dumps({"figure": "fig9", "scale": SCALE,
                            "procs": 2,
                            "full_records": True}).encode())
            assert status == 200
            events = sweep_events(body)
            assert events[0]["event"] == "start"
            assert events[1]["event"] == "plan"
            assert len(events[1]["shards"]) > 1, \
                "sweep must actually span shards"
            specs = [e for e in events if e["event"] == "spec"]
            assert [e["index"] for e in specs] == \
                list(range(len(points))), "global spec order"
            for event, point, expected in zip(specs, points, direct):
                assert event["key"] == point.spec.key
                assert event["label"] == point.label
                served = RunRecord.from_jsonable(event["record"])
                assert served == expected
                assert served.sim == expected.sim
            table = [e for e in events if e["event"] == "table"]
            assert len(table) == 1 and table[0]["figure"] == "fig9"
            done = events[-1]
            assert done["event"] == "done" and done["ok"]
            assert done["unresolved"] == 0

        cluster(check, tmp_path=tmp_path)

    def test_merged_stream_is_deterministic(self, tmp_path):
        """Two identical sweeps produce identical event sequences
        (modulo the cached flag and elapsed time)."""
        req = json.dumps({"figure": "fig9", "scale": SCALE,
                          "procs": 2}).encode()

        async def check(ctx):
            runs = []
            for _ in range(2):
                status, _, body = await ctx.client.request(
                    "POST", "/v1/sweep", req)
                assert status == 200
                specs = [e for e in sweep_events(body)
                         if e["event"] == "spec"]
                runs.append([(e["index"], e["key"], e["label"],
                              tuple(sorted(e["metrics"].items())))
                             for e in specs])
            assert runs[0] == runs[1]

        cluster(check, tmp_path=tmp_path)


class TestCrossShardSingleFlight:
    def test_duplicate_key_sweep_executes_each_spec_once(self,
                                                         tmp_path):
        """A sweep repeating every spec 3x across the shard split
        executes each unique spec exactly once cluster-wide; the
        router's dedup counter records the collapsed duplicates."""
        points = figure_points(
            "fig9", scale=ExperimentScale.scaled(SCALE), P=2)
        specs = [spec_body(pt.spec, pt.label) for pt in points] * 3

        async def check(ctx):
            status, _, body = await ctx.client.request(
                "POST", "/v1/sweep",
                json.dumps({"specs": specs}).encode())
            assert status == 200
            events = sweep_events(body)
            plan = events[1]
            assert plan["unique"] == len(points)
            assert plan["duplicates"] == 2 * len(points)
            spec_events = [e for e in events if e["event"] == "spec"]
            assert len(spec_events) == len(specs)
            # duplicates carry their primary's result
            by_key = {}
            for e in spec_events:
                by_key.setdefault(e["key"], []).append(e["metrics"])
            for key, metrics in by_key.items():
                assert len(metrics) == 3
                assert metrics[0] == metrics[1] == metrics[2]
            # the cluster-wide execution count is the unique count
            assert executed_cluster_wide(ctx.gateways) == len(points)
            dedup = ctx.router.registry.get(
                "repro_router_sweep_dedup_total")
            assert dedup.total() == 2 * len(points)

        cluster(check, tmp_path=tmp_path)

    def test_warm_rerun_executes_nothing(self, tmp_path):
        req = json.dumps({"figure": "fig9", "scale": SCALE,
                          "procs": 2}).encode()

        async def check(ctx):
            for expect_cached in (0, 9):
                status, _, body = await ctx.client.request(
                    "POST", "/v1/sweep", req)
                assert status == 200
                done = sweep_events(body)[-1]
                assert done["cached"] == expect_cached
            assert executed_cluster_wide(ctx.gateways) == 9

        cluster(check, tmp_path=tmp_path)


class TestMisroutedKeys:
    def test_wrong_shard_answers_and_counts(self, tmp_path):
        """A replica receiving a key it does not own (stale ring view
        upstream) serves it and bumps the misrouted counter."""
        points = figure_points(
            "fig9", scale=ExperimentScale.scaled(SCALE), P=2)

        async def check(ctx):
            ids = tuple(ctx.gateways)
            ring = HashRing(ids)
            point = points[0]
            wrong = next(sid for sid in ids
                         if sid != ring.owner(point.spec.key))
            gw = ctx.gateways[wrong]
            direct = HttpClient("127.0.0.1", gw.port)
            try:
                status, _, body = await direct.request(
                    "POST", "/v1/run",
                    json.dumps(spec_body(point.spec)).encode())
            finally:
                await direct.close()
            assert status == 200, "misrouted key must be served"
            assert json.loads(body)["key"] == point.spec.key
            counter = gw.registry.get("repro_misrouted_requests_total")
            assert counter.total() == 1

        cluster(check, tmp_path=tmp_path)

    def test_result_found_on_non_owner_shard(self, tmp_path):
        """/v1/result falls back across shards: a record cached on the
        'wrong' replica is still found through the router."""
        points = figure_points(
            "fig9", scale=ExperimentScale.scaled(SCALE), P=2)

        async def check(ctx):
            ids = tuple(ctx.gateways)
            ring = HashRing(ids)
            point = points[0]
            wrong = next(sid for sid in ids
                         if sid != ring.owner(point.spec.key))
            gw = ctx.gateways[wrong]
            direct = HttpClient("127.0.0.1", gw.port)
            try:
                status, _, _ = await direct.request(
                    "POST", "/v1/run",
                    json.dumps(spec_body(point.spec)).encode())
                assert status == 200
            finally:
                await direct.close()
            status, _, body = await ctx.client.request(
                "GET", f"/v1/result/{point.spec.key}")
            assert status == 200
            assert json.loads(body)["key"] == point.spec.key

        cluster(check, tmp_path=tmp_path)


class TestFailover:
    def test_run_survives_shard_death(self, tmp_path):
        """Kill the owner of a key (close its listener + scheduler)
        and the router serves the key from a surviving shard via
        mark-down + ring rehash, with no client-visible error."""
        points = figure_points(
            "fig9", scale=ExperimentScale.scaled(SCALE), P=2)

        async def check(ctx):
            victim_id = ctx.router._live_ring.owner(
                points[0].spec.key)
            await ctx.gateways[victim_id].stop()
            for point in points:
                status, _, body = await ctx.client.request(
                    "POST", "/v1/run",
                    json.dumps(spec_body(point.spec)).encode())
                assert status == 200, point.label
            assert victim_id not in ctx.router.live_shards()
            markdowns = ctx.router.registry.get(
                "repro_router_shard_markdowns_total")
            assert markdowns.value(shard_id=victim_id) >= 1

        # long probe interval: mark-down must come from the request
        # path (connection-refused), not the prober
        cluster(check, tmp_path=tmp_path, probe_interval_s=30.0)

    def test_sweep_replans_onto_survivors(self, tmp_path):
        """A sweep planned while the router still believes a dead
        shard is live resolves every spec: the dead shard's batch
        fails, gets replanned onto the surviving shards, and the
        merged stream stays complete and ordered."""
        async def check(ctx):
            victim_id = next(iter(ctx.gateways))
            await ctx.gateways[victim_id].stop()
            status, _, body = await ctx.client.request(
                "POST", "/v1/sweep",
                json.dumps({"figure": "fig9", "scale": SCALE,
                            "procs": 2}).encode())
            assert status == 200
            events = sweep_events(body)
            specs = [e for e in events if e["event"] == "spec"]
            assert [e["index"] for e in specs] == list(range(9))
            done = events[-1]
            assert done["ok"] and done["unresolved"] == 0

        cluster(check, tmp_path=tmp_path, probe_interval_s=30.0)

    def test_prober_marks_down_and_recovers(self, tmp_path):
        async def check(ctx):
            victim_id = next(iter(ctx.gateways))
            victim = ctx.gateways[victim_id]
            # simulate a hung-then-killed replica: close the listener
            # without a full drain so it can come back afterwards
            victim._server.close()
            await victim._server.wait_closed()
            for _ in range(100):
                # pooled keep-alive connections outlive the listener;
                # drop them so probes must dial (and get refused)
                await ctx.router._states[victim_id].pool.close()
                if victim_id not in ctx.router.live_shards():
                    break
                await asyncio.sleep(0.1)
            assert victim_id not in ctx.router.live_shards()

            status, _, body = await ctx.client.request(
                "GET", "/readyz")
            assert status == 200, "quorum of shards still live"
            assert victim_id not in json.loads(body)["live_shards"]

            victim._server = await asyncio.start_server(
                victim._on_connection, "127.0.0.1", victim.port)
            for _ in range(100):
                if victim_id in ctx.router.live_shards():
                    break
                await asyncio.sleep(0.1)
            assert victim_id in ctx.router.live_shards()

        cluster(check, tmp_path=tmp_path, probe_interval_s=0.05)


class TestRouterEndpoints:
    def test_health_ready_metrics_and_errors(self, tmp_path):
        async def check(ctx):
            status, _, body = await ctx.client.request(
                "GET", "/healthz")
            assert status == 200
            doc = json.loads(body)
            assert doc["ring_shards"] == SHARDS
            assert all(s["up"] for s in doc["shards"].values())

            status, _, body = await ctx.client.request("GET", "/readyz")
            assert status == 200

            # aggregated metrics: router series + per-shard series
            status, _, body = await ctx.client.request(
                "GET", "/metrics")
            assert status == 200
            text = body.decode()
            assert "repro_router_requests_total" in text
            for sid in ctx.gateways:
                assert f'shard_id="{sid}"' in text
            # HELP/TYPE appear once per metric despite K shard copies
            assert text.count(
                "# HELP repro_requests_total") == 1

            for method, path, payload, expected in [
                ("POST", "/v1/run", b"{nope", 400),
                ("POST", "/v1/run",
                 json.dumps({"workload": "lok"}).encode(), 400),
                ("GET", "/v1/result/zzz", None, 400),
                ("GET", "/v1/result/" + "0" * 64, None, 404),
                ("GET", "/nope", None, 404),
                ("DELETE", "/healthz", None, 405),
            ]:
                status, _, resp = await ctx.client.request(
                    method, path, payload)
                assert status == expected, (path, status)
                assert "error" in json.loads(resp)

        cluster(check, tmp_path=tmp_path)

    def test_draining_router_rejects_new_work(self, tmp_path):
        async def check(ctx):
            ctx.router._draining = True   # white-box: flag only
            status, headers, _ = await ctx.client.request(
                "POST", "/v1/run", json.dumps(
                    {"workload": "lock", "config": {}}).encode())
            assert status == 503
            assert "retry-after" in headers
            status, _, _ = await ctx.client.request("GET", "/readyz")
            assert status == 503
            ctx.router._draining = False

        cluster(check, tmp_path=tmp_path)


class TestHalfClosedClient:
    def test_proxied_run_survives_gc_while_shard_is_busy(self):
        """A client that half-closes after its request (as the wire
        golden test does) takes the router's transport out of the
        selector, so while the router awaits the shard nothing in
        asyncio holds its connection task strongly: a garbage
        collection in that window must not destroy the response."""
        async def go():
            arrived, release = asyncio.Event(), asyncio.Event()

            async def shard(reader, writer):
                # a stub shard: ready to probes, holds POST /v1/run
                while (req := await read_request(reader)) is not None:
                    if req.method == "POST":
                        arrived.set()
                        await release.wait()
                    writer.write(json_response(200, {"ok": True}))
                    await writer.drain()
                writer.close()

            stub = await asyncio.start_server(shard, "127.0.0.1", 0)
            router = Router(RouterConfig(
                shards=(ShardEndpoint(
                    "shard-0", "127.0.0.1",
                    stub.sockets[0].getsockname()[1]),),
                port=0, quiet=True))
            await router.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", router.port)
                body = json.dumps({"workload": "lock",
                                   "config": {}}).encode()
                writer.write(b"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: %d\r\n\r\n%s"
                             % (len(body), body))
                writer.write_eof()
                await asyncio.wait_for(arrived.wait(), 10)
                await asyncio.sleep(0.05)    # the router reads the EOF
                gc.collect()
                release.set()
                reply = await asyncio.wait_for(reader.read(-1), 10)
                writer.close()
            finally:
                await router.stop()
                stub.close()
            return reply

        reply = asyncio.run(go())
        assert reply.startswith(b"HTTP/1.1 200 OK\r\n")
        assert reply.endswith(b'\r\n\r\n{"ok": true}\n')
