"""The ``serve`` workload's load client: an open loop at fixed rates.

For each rate step a fresh server process starts (fresh result caches,
filled identically during its set-up), one generator sends a seeded
request stream on a fixed schedule, and every response is checked
against the record the server's set-up computed for that key.  Each
latency is measured from when its request was due, so a stall delays
the requests behind it too.  The client uses at most ``nproc``
connections and runs in this process, outside the measured program.

Every request has the shape the repo's own load generator
(``repro.service.loadgen``, as CI runs it) gives it; see
``serve_server.py`` for the specs.  Per request, one of:

* ``POST /v1/run`` of a cached spec of the figure (loadgen's ``run``
  mode), popularity skewed (Zipf);
* ``GET /v1/result/<key>`` of a cached spec;
* ``POST /v1/sweep`` of the whole figure (loadgen's ``sweep`` mode), so
  every sweep overlaps every other one and the cached ``run`` specs;
* a spec no cache has seen: it executes, is written to the cache, and
  a duplicate sent right behind it joins the in-flight simulation.

No request log of the service's users exists, so the shares of these
kinds and the popularity skew below are unverified assumptions, not
measured traffic.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import common
from common import READY_TAG, RESULT_TAG, WORK_DIR

#: offered rates (requests/s) of the two fixed steps, set from the
#: seed commit well below the knee of this mix on a 2-core machine
RATE_LOW = 40.0
RATE_HIGH = 80.0
#: requests in the high-rate step: its p99 needs >= 1000 samples (10
#: beyond it); the low-rate step reports the highest percentile its
#: sample count supports
MIN_REQUESTS = 1000
#: requests per step of a traced run (its metrics are means)
TRACED_REQUESTS = 400
#: latency percentiles printed when a step's sample count supports them
PERCENTILES = (50, 90, 95, 99)

#: the mix: unverified assumptions (see the module docstring)
SHARE_COLD = 0.03
SHARE_RESULT = 0.15
SHARE_SWEEP = 0.08
ZIPF_S = 1.1
#: a cold spec's duplicate is due this long after it, well inside the
#: 10-25 ms its simulation takes
DUPLICATE_DELAY_S = 0.002

#: the generator fell behind if its own lateness exceeds these (an
#: idle asyncio loop on a 2-core VM already wakes up to ~6 ms late at
#: p99 and ~25 ms at worst, so these mark a stall, not timer jitter)
GENERATOR_P99_LIMIT_S = 0.050
GENERATOR_MAX_LIMIT_S = 0.250

SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "serve_server.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
DRAIN_TIMEOUT_S = 20.0


@dataclass
class Request:
    due: float
    kind: str                    # "run" | "result" | "sweep"
    keys: Tuple[str, ...]


@dataclass
class Outcome:
    kind: str
    latency: float
    ok: bool


def make_schedule(rng: random.Random, pool: List[str], cold: List[str],
                  sweep: List[str], rate: float, n: int) -> List[Request]:
    """``n`` requests due every ``1/rate`` s, plus one duplicate per
    cold request.  Each kind's share of the ``n`` is exact (rounded),
    so every seed offers the same work; the seed picks the order and
    the popular specs.  Popularity follows the catalog order, so every
    seed has the same hot specs."""
    weights = [1.0 / (i + 1) ** ZIPF_S for i in range(len(pool))]
    fresh = list(cold)
    rng.shuffle(fresh)
    kinds = (["cold"] * min(round(n * SHARE_COLD), len(fresh))
             + ["result"] * round(n * SHARE_RESULT)
             + ["sweep"] * round(n * SHARE_SWEEP))
    kinds += ["run"] * (n - len(kinds))
    rng.shuffle(kinds)

    def popular() -> Tuple[str, ...]:
        return (rng.choices(pool, weights)[0],)

    out = []
    for i, kind in enumerate(kinds):
        due = i / rate
        if kind == "cold":
            key = fresh.pop()
            out.append(Request(due, "run", (key,)))
            out.append(Request(due + DUPLICATE_DELAY_S, "run", (key,)))
        elif kind == "sweep":
            out.append(Request(due, "sweep", tuple(sweep)))
        else:
            out.append(Request(due, kind, popular()))
    out.sort(key=lambda r: r.due)
    return out


# ----------------------------------------------------------------------
# a minimal HTTP/1.1 client
# ----------------------------------------------------------------------

async def _read_response(reader: asyncio.StreamReader
                         ) -> Tuple[int, Dict[str, str], bytes]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    if "content-length" in headers:
        body = await reader.readexactly(int(headers["content-length"]))
    else:
        body = await reader.read()           # close-delimited stream
    return status, headers, body


def _request_bytes(method: str, path: str, body: Optional[bytes]) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + (body or b"")


class Client:
    """At most ``limit`` open connections, counting idle keep-alive
    ones; a request waits for a free one."""

    def __init__(self, port: int, limit: int) -> None:
        self.port = port
        self.limit = limit
        self.slots = asyncio.Semaphore(limit)
        self.idle: list = []
        self.open = 0

    async def _close(self, writer) -> None:
        self.open -= 1
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass

    async def call(self, method: str, path: str,
                   body: Optional[bytes] = None, stream: bool = False):
        async with self.slots:
            if self.idle and not stream:
                reader, writer = self.idle.pop()
            else:
                # every other open connection is idle or belongs to a
                # slot holder, so at the limit an idle one can go; the
                # count is re-tested after each await and reserved
                # before the next one
                while self.open >= self.limit:
                    await self._close(self.idle.pop()[1])
                self.open += 1
                try:
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", self.port, limit=32 << 20)
                except BaseException:
                    self.open -= 1
                    raise
            try:
                writer.write(_request_bytes(method, path, body))
                await writer.drain()
                status, headers, data = await _read_response(reader)
            except BaseException:
                self.open -= 1
                writer.close()
                raise
            if stream or headers.get("connection") == "close":
                await self._close(writer)
            else:
                self.idle.append((reader, writer))
            return status, data

    async def close(self) -> None:
        while self.idle:
            await self._close(self.idle.pop()[1])


def check_response(req: Request, status: int, data: bytes,
                   catalog: dict) -> bool:
    """A response is right when it is a 200 whose records equal the
    set-up's; a sweep stream must also carry the figure's table and
    end in ``done`` with ``ok``."""
    from serve_server import canonical_record

    expected = catalog["expected"]
    if status != 200:
        return False
    if req.kind in ("run", "result"):
        body = json.loads(data)
        return (body.get("key") == req.keys[0] and
                canonical_record(body["record"]) == expected[req.keys[0]])
    events = [json.loads(line) for line in data.splitlines() if line]
    specs = [e for e in events if e.get("event") == "spec"]
    tables = [e.get("text") for e in events if e.get("event") == "table"]
    if not events or events[-1].get("event") != "done" \
            or events[-1].get("ok") is not True:
        return False
    if tables != [catalog["sweep"]["table"]]:
        return False
    if sorted(e["index"] for e in specs) != list(range(len(req.keys))):
        return False
    return all(e["ok"] and e["key"] == req.keys[e["index"]]
               and canonical_record(e["record"]) == expected[e["key"]]
               for e in specs)


async def open_loop(port: int, schedule: List[Request],
                    bodies: Dict[str, dict], sweep_body: dict,
                    limit: int):
    """Send ``schedule``; returns (responses, generator lateness).

    A response is ``(request, latency, status, body)``; bodies are
    checked after the loop ends, so checking costs the generator no
    time.  A connection error leaves status 0."""
    loop = asyncio.get_running_loop()
    client = Client(port, limit)
    responses: list = []
    lateness: List[float] = []

    async def issue(req: Request, due: float) -> None:
        status, data = 0, b""
        try:
            if req.kind == "run":
                status, data = await client.call(
                    "POST", "/v1/run",
                    json.dumps(bodies[req.keys[0]]).encode())
            elif req.kind == "result":
                status, data = await client.call(
                    "GET", f"/v1/result/{req.keys[0]}")
            else:
                status, data = await client.call(
                    "POST", "/v1/sweep", json.dumps(sweep_body).encode(),
                    stream=True)
        except (ConnectionError, OSError, ValueError,
                asyncio.IncompleteReadError):
            pass
        responses.append((req, loop.time() - due, status, data))

    tasks = []
    start = loop.time() + 0.05
    for req in schedule:
        due = start + req.due
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lateness.append(max(0.0, loop.time() - due))
        tasks.append(loop.create_task(issue(req, due)))
    # a request still open this long after the last one was due has
    # hung; it is cancelled and counts as failed (status 0)
    _done, hung = await asyncio.wait(tasks, timeout=DRAIN_TIMEOUT_S)
    for task in hung:
        task.cancel()
    for req, task in zip(schedule, tasks):
        if task in hung:
            responses.append((req, DRAIN_TIMEOUT_S, 0, b""))
    await client.close()
    return responses, lateness


def outcomes_of(responses, catalog: dict) -> List[Outcome]:
    out = []
    for req, latency, status, data in responses:
        try:
            ok = check_response(req, status, data, catalog)
        except (ValueError, KeyError, TypeError):
            ok = False
        out.append(Outcome(req.kind, latency, ok))
    return out


# ----------------------------------------------------------------------
# one rate step: server up, load, server down
# ----------------------------------------------------------------------

@dataclass
class Step:
    label: str
    rate: float
    setup_s: float
    outcomes: List[Outcome] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    server: dict = field(default_factory=dict)


def _read_tagged(proc, tag: str) -> dict:
    """The next line of the server's stdout with ``tag``; end of output
    (the server exited, or the watchdog stopped it) is an error."""
    for line in proc.stdout:
        found = common.parse_tagged(line.rstrip("\n"), tag)
        if found is not None:
            return found
    raise RuntimeError(f"server exited before {tag}")


def start_server(root: str, step_dir: str, trace: bool):
    """The server in a session of its own, so :func:`stop_server` can
    take its workers down with it."""
    return subprocess.Popen(
        [sys.executable, SERVER, "--dir", step_dir,
         "--trace", str(int(trace))],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=common.child_env(root), cwd=root, start_new_session=True)


def stop_server(proc) -> None:
    """Kill a server that did not exit by itself, and its workers."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def run_step(root: str, step_dir: str, label: str, rate: float,
             requests: int, rng: random.Random, trace: bool) -> Step:
    shutil.rmtree(step_dir, ignore_errors=True)
    proc = start_server(root, step_dir, trace)
    budget = (START_TIMEOUT_S + requests / rate + DRAIN_TIMEOUT_S
              + STOP_TIMEOUT_S)
    try:
        with common.watchdog(budget, lambda: stop_server(proc)):
            ready = _read_tagged(proc, READY_TAG)
            step = Step(label, rate, ready["cpu_s"] / ready["speed"])
            with open(ready["catalog"], encoding="utf-8") as fh:
                catalog = json.load(fh)
            bodies = {e["key"]: e["body"]
                      for e in catalog["pool"] + catalog["cold"]}
            schedule = make_schedule(
                rng, [e["key"] for e in catalog["pool"]],
                [e["key"] for e in catalog["cold"]],
                catalog["sweep"]["keys"], rate, requests)
            responses, step.lateness = asyncio.run(open_loop(
                ready["port"], schedule, bodies, catalog["sweep"]["body"],
                os.cpu_count() or 1))
            proc.stdin.write("stop\n")
            proc.stdin.flush()
            step.server = _read_tagged(proc, RESULT_TAG)
            proc.wait()
    finally:
        stop_server(proc)
    step.outcomes = outcomes_of(responses, catalog)
    return step


def setup_only(root: str, step_dir: str) -> float:
    """One more server set-up (for the set-up time median); returns
    the host CPU seconds the server used up to its ready line, at the
    reference's nominal speed."""
    shutil.rmtree(step_dir, ignore_errors=True)
    proc = start_server(root, step_dir, False)
    try:
        with common.watchdog(START_TIMEOUT_S + STOP_TIMEOUT_S,
                             lambda: stop_server(proc)):
            ready = _read_tagged(proc, READY_TAG)
            proc.stdin.write("stop\n")
            proc.stdin.flush()
            _read_tagged(proc, RESULT_TAG)
            proc.wait()
    finally:
        stop_server(proc)
    return ready["cpu_s"] / ready["speed"]


def latency_summary(step: Step) -> dict:
    """Latency (ms) of every request at each of ``PERCENTILES`` that
    the step's sample count supports (at least 10 samples beyond it)
    and at the highest percentile it supports, labelled rounded down;
    failed requests count at the time they took to fail (failures are
    counted separately)."""
    lat = [o.latency for o in step.outcomes]
    top = common.supported_percentile(len(lat))
    ms = {f"p{p:g}": common.percentile(lat, p) * 1e3
          for p in PERCENTILES if p <= top}
    ms[f"p{math.floor(top * 100) / 100:g}"] = \
        common.percentile(lat, top) * 1e3
    return {"n": len(lat), "max_supported_pct": top, "ms": ms}


def generator_summary(steps: List[Step]) -> dict:
    late = [x for s in steps for x in s.lateness]
    p99 = common.percentile(late, 99.0)
    worst = max(late)
    return {"lateness_p99_ms": p99 * 1e3, "lateness_max_ms": worst * 1e3,
            "valid": (p99 <= GENERATOR_P99_LIMIT_S
                      and worst <= GENERATOR_MAX_LIMIT_S)}


def run(root: str, seed: int, seconds: float, trace: bool) -> dict:
    """Both rate steps, each on a fresh server, half the window each
    (the high-rate step gets at least the requests its p99 needs).  A
    server set-up without load adds a third set-up time.

    A traced run sends the low-rate stream twice, untraced then traced
    (same seed, same schedule), for the tracing overhead, then the
    high-rate stream traced."""
    base = os.path.join(root, WORK_DIR, "serve")
    if trace:
        plan = [("low", RATE_LOW, TRACED_REQUESTS, False),
                ("low.traced", RATE_LOW, TRACED_REQUESTS, True),
                ("high.traced", RATE_HIGH, TRACED_REQUESTS, True)]
    else:
        half = seconds / 2
        plan = [("low", RATE_LOW, int(RATE_LOW * half), False),
                ("high", RATE_HIGH,
                 max(MIN_REQUESTS, int(RATE_HIGH * half)), False)]
    steps = []
    for i, (label, rate, n, traced) in enumerate(plan):
        # the same seed gives the same schedule at the same rate
        rng = random.Random(f"{seed}/{rate}")
        steps.append(run_step(root, os.path.join(base, f"step{i}"), label,
                              rate, n, rng, traced))
    setups = [s.setup_s for s in steps]
    if not trace:
        setups.append(setup_only(root, os.path.join(base, "setup")))
    return {"steps": steps, "setups": setups}
