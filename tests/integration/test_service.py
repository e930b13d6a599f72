"""Integration tests for the simulation-serving gateway.

Covers the acceptance criteria of the service subsystem: served
results bit-identical to direct campaign runs, single-flight dedupe
under 16 concurrent clients, queue overflow -> 429 + Retry-After,
request deadlines -> 504 with the simulation surviving, and graceful
SIGTERM drain of a real server process.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignRunner, ResultCache, RunRecord, RunSpec, execute_spec,
)
from repro.config import ExperimentScale, MachineConfig, Protocol
from repro.experiments.figures import figure_points
from repro.service import Gateway, ServiceConfig, SimScheduler
from repro.service.loadgen import HttpClient

SCALE = 0.002       # tiny but nonzero simulations (~10ms each)


def tiny_spec(total_acquires: int = 8) -> RunSpec:
    cfg = MachineConfig(num_procs=2, protocol=Protocol.PU)
    return RunSpec.make("lock", cfg, kind="tk",
                        total_acquires=total_acquires)


def run_body(spec: RunSpec) -> bytes:
    return json.dumps(spec.to_jsonable()).encode()


def serve(test_coro, config=None, scheduler=None, timeout=120):
    """Boot a gateway on a free port, run ``test_coro(gw, client)``."""
    async def go():
        cfg = config or ServiceConfig(port=0, jobs=2, quiet=True,
                                      cache_dir=None)
        gw = Gateway(cfg, scheduler=scheduler)
        await gw.start()
        client = HttpClient("127.0.0.1", gw.port)
        try:
            await asyncio.wait_for(test_coro(gw, client), timeout)
        finally:
            await client.close()
            await asyncio.wait_for(gw.stop(), 30)
    asyncio.run(go())


class TestGoldenBitIdentity:
    def test_run_record_identical_to_campaign(self, tmp_path):
        """The acceptance criterion: a record served over HTTP equals
        the record a direct CampaignRunner produces for the same spec
        (RunRecord equality covers metrics and the full simulation
        result; elapsed_s/cached are excluded by design)."""
        spec = tiny_spec()
        direct = CampaignRunner(jobs=1).run([spec]).records[0]

        async def check(gw, client):
            status, _, body = await client.request(
                "POST", "/v1/run", run_body(spec))
            assert status == 200
            doc = json.loads(body)
            assert doc["key"] == spec.key
            served = RunRecord.from_jsonable(doc["record"])
            assert served == direct
            assert served.sim == direct.sim

        serve(check, config=ServiceConfig(
            port=0, jobs=2, quiet=True,
            cache_dir=str(tmp_path / "cache")))

    def test_sweep_metrics_identical_to_campaign(self, tmp_path):
        points = figure_points("fig9",
                               scale=ExperimentScale.scaled(SCALE), P=2)
        direct = CampaignRunner(jobs=1).run([pt.spec for pt in points])
        by_key = {rec.key: rec for rec in direct.records}

        async def check(gw, client):
            status, _, body = await client.request(
                "POST", "/v1/sweep",
                json.dumps({"figure": "fig9", "scale": SCALE,
                            "procs": 2}).encode())
            assert status == 200
            events = [json.loads(line) for line in body.splitlines()]
            specs = [e for e in events if e["event"] == "spec"]
            assert len(specs) == len(points)
            for event in specs:
                assert event["ok"]
                assert event["metrics"] == \
                    dict(by_key[event["key"]].metrics)
            assert events[-1]["event"] == "done"
            assert events[-1]["ok"]

        serve(check, config=ServiceConfig(
            port=0, jobs=2, quiet=True,
            cache_dir=str(tmp_path / "cache")))


class TestConcurrentClients:
    def test_16_clients_single_flight(self, tmp_path):
        """16 overlapping sweeps of the same figure: every client gets
        all 9 specs, but each unique spec simulates exactly once."""
        body = json.dumps({"figure": "fig9", "scale": SCALE,
                           "procs": 2}).encode()

        async def check(gw, client):
            async def one_client():
                c = HttpClient("127.0.0.1", gw.port)
                try:
                    status, _, resp = await c.request(
                        "POST", "/v1/sweep", body)
                    events = [json.loads(l) for l in resp.splitlines()]
                    return status, events
                finally:
                    await c.close()

            results = await asyncio.gather(
                *(one_client() for _ in range(16)))
            for status, events in results:
                assert status == 200
                done = events[-1]
                assert done["event"] == "done" and done["ok"]
                assert done["executed"] + done["cached"] == 9
            executed = gw.registry.get("repro_specs_total").value(
                status="executed")
            assert executed == 9
            dedup = gw.registry.get(
                "repro_singleflight_dedup_total").value()
            assert dedup > 0

        serve(check, config=ServiceConfig(
            port=0, jobs=2, quiet=True,
            cache_dir=str(tmp_path / "cache")))


class BlockingScheduler(SimScheduler):
    """Holds every simulation until released (no process pool)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.release = asyncio.Event()

    async def _execute(self, spec):
        await self.release.wait()
        return RunRecord(key=spec.key, workload=spec.workload,
                         ok=True, metrics={"x": 1.0})


class TestBackpressure:
    def test_queue_overflow_is_429_with_retry_after(self, tmp_path):
        async def check(gw, client):
            first = asyncio.create_task(client.request(
                "POST", "/v1/run", run_body(tiny_spec(8))))
            await asyncio.sleep(0.05)       # let it occupy the queue
            c2 = HttpClient("127.0.0.1", gw.port)
            try:
                status, headers, body = await c2.request(
                    "POST", "/v1/run", run_body(tiny_spec(16)))
                assert status == 429
                assert int(headers["retry-after"]) >= 1
                assert "queue full" in json.loads(body)["error"]
            finally:
                await c2.close()
            gw.scheduler.release.set()
            status, _, _ = await first
            assert status == 200

        serve(check, config=ServiceConfig(port=0, jobs=1, max_queue=1,
                                          quiet=True, cache_dir=None),
              scheduler=BlockingScheduler(
                  jobs=1, max_queue=1,
                  cache=ResultCache(tmp_path / "cache")))

    def test_deadline_504_and_late_result_poll(self, tmp_path):
        spec = tiny_spec()

        async def check(gw, client):
            body = json.dumps(dict(json.loads(run_body(spec)),
                                   deadline_s=0.05)).encode()
            status, _, resp = await client.request(
                "POST", "/v1/run", body)
            assert status == 504
            # the simulation is still in flight: 202 + Retry-After
            status, headers, _ = await client.request(
                "GET", f"/v1/result/{spec.key}")
            assert status == 202
            assert headers["retry-after"] == "1"
            gw.scheduler.release.set()
            for _ in range(100):
                status, _, resp = await client.request(
                    "GET", f"/v1/result/{spec.key}")
                if status == 200:
                    break
                await asyncio.sleep(0.02)
            assert status == 200
            assert json.loads(resp)["record"]["ok"]

        serve(check, config=ServiceConfig(port=0, jobs=1, quiet=True,
                                          cache_dir=None),
              scheduler=BlockingScheduler(
                  jobs=1, cache=ResultCache(tmp_path / "cache")))

    def test_draining_guard_rejects_new_work(self):
        async def check(gw, client):
            gw._draining = True     # white-box: flag only, server open
            status, headers, _ = await client.request(
                "POST", "/v1/run", run_body(tiny_spec()))
            assert status == 503
            assert "retry-after" in headers
            status, _, body = await client.request("GET", "/healthz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"
            gw._draining = False

        serve(check, scheduler=BlockingScheduler(jobs=1))


class TestResultLookups:
    def test_result_lookups_are_counted(self, tmp_path):
        """``GET /v1/result`` is a result-cache lookup: a served record
        counts a hit, a 404 a miss."""
        cache = ResultCache(tmp_path / "cache")
        spec = tiny_spec()
        cache.put(execute_spec(spec))

        async def check(gw, client):
            lookups = gw.registry.get("repro_cache_lookups_total")
            status, _, _ = await client.request(
                "GET", f"/v1/result/{spec.key}")
            assert status == 200
            status, _, _ = await client.request(
                "GET", "/v1/result/" + "0" * 64)
            assert status == 404
            assert lookups.value(result="hit") == 1
            assert lookups.value(result="miss") == 1

        serve(check, scheduler=BlockingScheduler(jobs=1, cache=cache))


class TestValidationOverHttp:
    def test_error_statuses(self):
        async def check(gw, client):
            cases = [
                ("POST", "/v1/run", b"{nope", 400),
                ("POST", "/v1/run",
                 json.dumps({"workload": "lok"}).encode(), 400),
                ("POST", "/v1/sweep",
                 json.dumps({"figure": "fig99"}).encode(), 400),
                ("GET", "/v1/result/zzz", None, 400),
                ("GET", "/v1/result/" + "0" * 64, None, 404),
                ("GET", "/nope", None, 404),
                ("DELETE", "/healthz", None, 405),
            ]
            for method, path, body, expected in cases:
                status, _, resp = await client.request(
                    method, path, body)
                assert status == expected, (path, status)
                assert "error" in json.loads(resp)

        serve(check, scheduler=BlockingScheduler(jobs=1))

    def test_metrics_endpoint_renders(self):
        async def check(gw, client):
            status, headers, body = await client.request(
                "GET", "/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode()
            assert "# TYPE repro_requests_total counter" in text
            assert "repro_queue_depth" in text

        serve(check, scheduler=BlockingScheduler(jobs=1))

    def test_failed_simulation_is_422(self):
        bad = RunSpec.make("lock",
                           MachineConfig(num_procs=2,
                                         protocol=Protocol.PU),
                           kind="no-such-lock")

        async def check(gw, client):
            status, _, body = await client.request(
                "POST", "/v1/run", run_body(bad))
            assert status == 422
            doc = json.loads(body)
            assert not doc["record"]["ok"]
            assert doc["record"]["error_type"] == "ValueError"

        serve(check)


class TestServerProcess:
    """End-to-end against a real ``serve`` subprocess."""

    @staticmethod
    def _env():
        import repro

        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_root + os.pathsep + \
            env.get("PYTHONPATH", "")
        return env

    def boot(self, tmp_path, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments", "serve",
             "--port", "0", "--jobs", "2", "--cache-dir",
             str(tmp_path / "cache"), "--quiet", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=self._env(), text=True)
        boot = json.loads(proc.stdout.readline())
        return proc, boot["port"]

    def test_sigterm_drains_inflight_sweep(self, tmp_path):
        proc, port = self.boot(tmp_path)
        try:
            body = json.dumps({"figure": "fig9", "scale": SCALE,
                               "procs": 2}).encode()
            with socket.create_connection(("127.0.0.1", port),
                                          timeout=60) as sock:
                sock.settimeout(60)
                sock.sendall(
                    (f"POST /v1/sweep HTTP/1.1\r\nHost: t\r\n"
                     f"Content-Length: {len(body)}\r\n\r\n"
                     ).encode() + body)
                time.sleep(0.05)        # sweep admitted, now SIGTERM
                proc.send_signal(signal.SIGTERM)
                chunks = []
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            raw = b"".join(chunks)
            head, _, payload = raw.partition(b"\r\n\r\n")
            assert b"200 OK" in head.splitlines()[0]
            events = [json.loads(l) for l in payload.splitlines()]
            done = events[-1]
            assert done["event"] == "done" and done["ok"]
            assert done["executed"] + done["cached"] == 9
        finally:
            try:
                rc = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                pytest.fail("server did not exit after SIGTERM")
        assert rc == 0

    def test_healthz_and_second_boot_reuses_cache(self, tmp_path):
        import urllib.request

        proc, port = self.boot(tmp_path)
        try:
            with urllib.request.urlopen(
                    f"http://127.0.0.1:{port}/healthz",
                    timeout=30) as resp:
                doc = json.loads(resp.read())
            assert doc["status"] == "ok"
            assert doc["jobs"] == 2
        finally:
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0


class TestReadiness:
    """/readyz is distinct from /healthz: it flips to 503 the moment a
    drain begins (and before start() completes), so a cluster router
    stops routing to a shard before its SIGTERM finishes."""

    def test_ready_while_serving(self):
        async def check(gw, client):
            status, _, body = await client.request("GET", "/readyz")
            assert status == 200
            assert json.loads(body)["status"] == "ready"

        serve(check, scheduler=BlockingScheduler(jobs=1))

    def test_unready_during_drain_while_healthz_still_answers(self):
        async def check(gw, client):
            gw._draining = True     # white-box: flag only, server open
            gw._ready = False
            status, headers, body = await client.request(
                "GET", "/readyz")
            assert status == 503
            assert json.loads(body)["status"] == "draining"
            assert "retry-after" in headers
            gw._draining = False
            gw._ready = True

        serve(check, scheduler=BlockingScheduler(jobs=1))

    def test_unready_before_start(self):
        gw = Gateway(ServiceConfig(port=0, jobs=1, quiet=True,
                                   cache_dir=None),
                     scheduler=BlockingScheduler(jobs=1))
        assert gw._ready is False

    def test_shard_identity_in_health_and_boot(self):
        ids = ("shard-0", "shard-1")
        config = ServiceConfig(port=0, jobs=1, quiet=True,
                               cache_dir=None, shard_id="shard-0",
                               shard_peers=ids)

        async def check(gw, client):
            status, _, body = await client.request("GET", "/healthz")
            assert json.loads(body)["shard_id"] == "shard-0"
            status, _, body = await client.request("GET", "/readyz")
            assert json.loads(body)["shard_id"] == "shard-0"
            status, _, body = await client.request("GET", "/metrics")
            assert 'shard_id="shard-0"' in body.decode()

        serve(check, config=config)
