"""Fuzz the serving edge: malformed input gets a 4xx, never a 5xx.

One in-process gateway (with a stub scheduler, so no simulation runs)
and a router in front of it serve from an event loop on a background
thread.  Hypothesis sends each of them, on a fresh connection, one
request built only from client-side errors:

* malformed request lines, methods and paths;
* oversized, malformed and too many headers;
* Content-Length values that are negative, non-numeric, larger than
  the body, or over ``max_body_bytes``;
* truncated requests and bodies;
* JSON bodies built from the ``api`` field names with a wrong-typed,
  out-of-range or non-finite value.

Every reply must start with a valid status line whose status is in
400-499; a truncated request may instead be closed without a reply.
The event loop's exception handler must record nothing (a connection
task that dies with an exception is logged there, and its client gets
no reply at all).
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
import threading
from urllib.parse import unquote, urlsplit

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.campaign import RunRecord
from repro.campaign.workloads import known_workloads
from repro.cluster import Router, RouterConfig, ShardEndpoint
from repro.config import MachineConfig
from repro.experiments.figures import FIGURE_DEFS
from repro.service import Gateway, ServiceConfig, SimScheduler, api

MAX_BODY = 1 << 16

_STATUS = re.compile(rb"HTTP/1\.1 (\d{3}) [A-Za-z ]+\r\n")

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class StubScheduler(SimScheduler):
    """Answers every spec at once: a request that is accidentally
    valid gets a 200, which fails the test instead of hanging it."""

    async def _execute(self, spec):
        return RunRecord(key=spec.key, workload=spec.workload, ok=True,
                         metrics={"x": 1.0})


class Edge:
    """A gateway and a router over it, on a loop in another thread."""

    def __init__(self) -> None:
        self.errors = []
        self.loop = asyncio.new_event_loop()
        self.loop.set_exception_handler(
            lambda loop, context: self.errors.append(context))
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.ports = self._call(self._start())

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(30)

    async def _start(self):
        self.gateway = Gateway(
            ServiceConfig(port=0, jobs=1, quiet=True, cache_dir=None,
                          max_body_bytes=MAX_BODY),
            scheduler=StubScheduler(jobs=1))
        await self.gateway.start()
        self.router = Router(RouterConfig(
            shards=(ShardEndpoint("shard-0", "127.0.0.1",
                                  self.gateway.port),),
            port=0, quiet=True, max_body_bytes=MAX_BODY))
        await self.router.start()
        return {"gateway": self.gateway.port, "router": self.router.port}

    def close(self) -> None:
        async def stop():
            await self.router.stop()
            await self.gateway.stop()
        self._call(stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        assert not self.thread.is_alive()
        self.loop.close()

    def check(self, server: str, raw: bytes, may_close: bool = False):
        """Send ``raw`` and half-close; the reply must be one 4xx."""
        self.errors.clear()
        with socket.create_connection(("127.0.0.1", self.ports[server]),
                                      timeout=10) as sock:
            try:
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass    # answered and closed before reading it all
            chunks = []
            while True:
                try:
                    chunk = sock.recv(1 << 16)
                except ConnectionResetError:
                    break
                if not chunk:
                    break
                chunks.append(chunk)
        reply = b"".join(chunks)
        # a task that died is reported after its connection closed
        self._call(asyncio.sleep(0.005))
        assert not self.errors, self.errors
        if not reply:
            assert may_close, "connection closed without a reply"
            return
        match = _STATUS.match(reply)
        assert match, reply[:200]
        assert 400 <= int(match.group(1)) <= 499, reply[:400]


@pytest.fixture(scope="module")
def edge():
    edge = Edge()
    yield edge
    edge.close()


SERVERS = st.sampled_from(["gateway", "router"])


def head(method: str, target: str, headers=(), length=None) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", "Host: fuzz"]
    lines += [f"{name}: {value}" for name, value in headers]
    if length is not None:
        lines += ["Content-Type: application/json",
                  f"Content-Length: {length}"]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def post(path: str, body: bytes) -> bytes:
    return head("POST", path, length=len(body)) + body


# -- request lines, methods, paths ------------------------------------

_LINE_TEXT = st.text(
    st.characters(min_codepoint=32, max_codepoint=255), min_size=1,
    max_size=80).filter(lambda s: s.strip())


def _answers_ok(method: str, target: str) -> bool:
    """Whether the request would succeed (no body, not draining)."""
    try:
        path = unquote(urlsplit(target).path)
    except ValueError:
        return False
    return (method.upper() == "GET"
            and path in ("/healthz", "/readyz", "/metrics"))


def _is_ok_request_line(text: str) -> bool:
    parts = text.split()
    return (len(parts) == 3 and parts[2] in ("HTTP/1.0", "HTTP/1.1")
            and _answers_ok(parts[0], parts[1]))


BAD_REQUEST_LINES = st.one_of(
    _LINE_TEXT.filter(lambda s: not _is_ok_request_line(s)).map(
        lambda s: s.encode("latin-1")),
    st.sampled_from([17_000, 70_000, 200_000]).map(
        lambda n: b"GET /" + b"a" * n + b" HTTP/1.1"),
    st.sampled_from([b"GET //[ HTTP/1.1", b"GET http://[::1 HTTP/1.1",
                     b"GET / HTTP/2.0", b"GET / HTTP/1.1 extra",
                     b"GET /healthz", b"\x00\x01\x02"]),
)

METHODS = st.one_of(
    st.sampled_from(["GET", "POST", "PUT", "DELETE", "HEAD", "OPTIONS",
                     "PATCH", "get", "post"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=8))

PATHS = st.one_of(
    st.sampled_from(["/healthz", "/readyz", "/metrics", "/v1/run",
                     "/v1/sweep", "/v1/result/", "/v1/result/zzz",
                     "/v1/result/" + "0" * 64, "/v1/result/" + "g" * 64,
                     "/", "/nope", "/v1/run/x", "/%2Fhealthz",
                     "/healthz?x=%zz", "*", "//[", "http://[::1/"]),
    st.text(st.characters(min_codepoint=33, max_codepoint=255),
            min_size=1, max_size=40))


@FUZZ
@given(server=SERVERS, line=BAD_REQUEST_LINES)
@example(server="gateway", line=b"GET /" + b"a" * 70_000 + b" HTTP/1.1")
@example(server="router", line=b"GET /" + b"a" * 70_000 + b" HTTP/1.1")
def test_malformed_request_lines(edge, server, line):
    edge.check(server, line + b"\r\nHost: fuzz\r\n\r\n")


@FUZZ
@given(server=SERVERS, method=METHODS, target=PATHS)
def test_wrong_methods_and_paths(edge, server, method, target):
    if _answers_ok(method, target):
        method = "DELETE"
    edge.check(server, head(method, target))


# -- headers -----------------------------------------------------------

BAD_HEADERS = st.one_of(
    st.sampled_from([17_000, 70_000, 200_000]).map(
        lambda n: [("X-Big", "b" * n)]),
    st.integers(101, 150).map(
        lambda n: [(f"X-H{i}", "v") for i in range(n)]),
    _LINE_TEXT.filter(lambda s: ":" not in s).map(
        lambda s: [(s, None)]),
)


@FUZZ
@given(server=SERVERS, method=METHODS, target=PATHS, bad=BAD_HEADERS)
@example(server="gateway", method="GET", target="/healthz",
         bad=[("X-Big", "b" * 70_000)])
@example(server="router", method="GET", target="/healthz",
         bad=[("X-Big", "b" * 70_000)])
def test_bad_headers(edge, server, method, target, bad):
    lines = [f"{method} {target} HTTP/1.1", "Host: fuzz"]
    lines += [name if value is None else f"{name}: {value}"
              for name, value in bad]
    edge.check(server, ("\r\n".join(lines) + "\r\n\r\n")
               .encode("latin-1"))


# -- Content-Length and truncation ---------------------------------------

def _not_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


BAD_LENGTHS = st.one_of(
    st.integers(max_value=-1).map(str),
    st.text("0123456789-+_ .eExabc", max_size=8).filter(_not_int),
    st.integers(MAX_BODY + 1, 1 << 40).map(str),
)


@FUZZ
@given(server=SERVERS, path=st.sampled_from(["/v1/run", "/v1/sweep"]),
       length=BAD_LENGTHS, body=st.binary(max_size=64))
def test_bad_content_length(edge, server, path, length, body):
    edge.check(server, head("POST", path, length=length) + body)


@FUZZ
@given(server=SERVERS, path=st.sampled_from(["/v1/run", "/v1/sweep"]),
       body=st.binary(min_size=1, max_size=256), data=st.data())
def test_truncated_requests(edge, server, path, body, data):
    """Any strict prefix of a POST with a body: a 4xx, or a clean
    close when the body is what was cut short."""
    raw = post(path, body)
    cut = data.draw(st.integers(0, len(raw) - 1))
    edge.check(server, raw[:cut], may_close=True)


# -- JSON bodies -------------------------------------------------------

_INTS = st.integers(-10**6, 10**6)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_TEXT = st.text(max_size=12)
_LISTS = st.lists(st.integers(), max_size=3)
_DICTS = st.dictionaries(st.text(max_size=4), st.integers(), max_size=2)
_NOT_STR = st.one_of(_INTS, _FLOATS, st.booleans(), _LISTS, _DICTS)
_NOT_BOOL = st.one_of(_INTS, _TEXT, _LISTS, _DICTS, st.none())
_NOT_INT = st.one_of(_TEXT, _LISTS, _DICTS, st.none())
_BAD_DEADLINE = st.one_of(
    _TEXT, _LISTS, _DICTS, st.booleans(), st.integers(max_value=0),
    st.floats(max_value=0, allow_nan=False))

#: each api field with values that are wrong for it
RUN_WRONG = {
    "workload": st.one_of(
        _NOT_STR, st.none(),
        _TEXT.filter(lambda s: s not in known_workloads())),
    "config": st.one_of(_INTS, _FLOATS, st.booleans(), _LISTS, _TEXT),
    "params": st.one_of(_INTS, _FLOATS, st.booleans(), _LISTS, _TEXT,
                        st.none()),
    "code_version": _NOT_STR,
    "spec_hash": _NOT_STR,
    "label": _NOT_STR,
    "deadline_s": _BAD_DEADLINE,
}
#: checked integer fields of MachineConfig
CONFIG_WRONG = {
    name: st.one_of(_NOT_INT, st.integers(max_value=0))
    for name in ("num_procs", "cache_size_bytes", "block_size_bytes",
                 "word_size_bytes", "cache_associativity",
                 "write_buffer_entries", "update_threshold")}
CONFIG_WRONG["protocol"] = st.one_of(
    _NOT_STR, st.sampled_from(["dragon", "", "w i", "moesi"]))
CONFIG_WRONG["hybrid_default"] = st.one_of(
    _NOT_STR, st.sampled_from(["hybrid", "dragon"]))
#: machines over the service's size limits (RUN_BODY's machine has 2
#: nodes and 64-byte blocks)
_TOO_MANY_PROCS = st.integers(api.MAX_PROCS + 1, 10**7)
CONFIG_WRONG["num_procs"] = st.one_of(CONFIG_WRONG["num_procs"],
                                      _TOO_MANY_PROCS)
CONFIG_WRONG["cache_size_bytes"] = st.one_of(
    CONFIG_WRONG["cache_size_bytes"],
    st.integers(api.MAX_CACHE_LINES // 2 + 1, 1 << 34).map(
        lambda lines: 64 * lines))
#: fig8 sizes whose points (9 per size) exceed the sweep limit
_FIG8_COMBOS = FIGURE_DEFS["fig8"].point_count(1)
_TOO_MANY_SIZES = st.integers(api.MAX_SWEEP_SPECS // _FIG8_COMBOS + 1,
                              2000).map(lambda n: [2] * n)
SWEEP_WRONG = {
    "figure": st.one_of(_NOT_STR, st.none(),
                        st.sampled_from(["", "fig99", "FIG9", "fig"])),
    "scale": st.one_of(
        _TEXT.filter(lambda s: s != "paper"), _LISTS, _DICTS,
        st.booleans(), st.none(), st.integers(max_value=0),
        st.floats(max_value=0, allow_nan=False),
        st.floats(min_value=1e305, allow_infinity=False)),
    "sizes": st.one_of(
        _INTS, _TEXT, _DICTS, st.booleans(), st.none(), st.just([]),
        st.lists(st.one_of(st.integers(max_value=0), _TEXT,
                           st.booleans(), _FLOATS, st.none()),
                 min_size=1, max_size=3),
        st.builds(lambda ok, big: ok + [big],
                  st.lists(st.integers(1, 32), max_size=2),
                  _TOO_MANY_PROCS),
        _TOO_MANY_SIZES),
    "procs": st.one_of(_TEXT, _LISTS, _DICTS, st.booleans(), st.none(),
                       _FLOATS, st.integers(max_value=0),
                       _TOO_MANY_PROCS),
    "sanitize": _NOT_BOOL,
    "full_records": _NOT_BOOL,
    "deadline_s": _BAD_DEADLINE,
}

RUN_BODY = {"workload": "lock",
            "config": {"num_procs": 2, "protocol": "pu"},
            "params": {"kind": "tk", "total_acquires": 8}}
SWEEP_BODY = {"figure": "fig9", "scale": 0.01, "procs": 2}

_NONFINITE = "@@non-finite@@"
NONFINITE_LITERALS = st.sampled_from(
    ["NaN", "Infinity", "-Infinity", "1e999", "-1e999"])


@st.composite
def wrong_run_bodies(draw) -> dict:
    """A run body with one wrong field."""
    body = json.loads(json.dumps(RUN_BODY))
    where = draw(st.sampled_from(["run", "config", "unknown"]))
    if where == "run":
        field = draw(st.sampled_from(sorted(RUN_WRONG)))
        body[field] = draw(RUN_WRONG[field])
    elif where == "config":
        field = draw(st.sampled_from(sorted(CONFIG_WRONG)))
        body["config"][field] = draw(CONFIG_WRONG[field])
    else:
        valid = set(api.RUN_KEYS) | set(MachineConfig.__dataclass_fields__)
        name = draw(_TEXT.filter(lambda s: s not in valid))
        draw(st.sampled_from([body, body["config"]]))[name] = 1
    return body


@st.composite
def wrong_sweep_bodies(draw) -> dict:
    field = draw(st.sampled_from(sorted(SWEEP_WRONG) + ["specs"]))
    if field == "specs":
        return {"specs": draw(st.one_of(
            _INTS, _TEXT, _DICTS, st.booleans(), st.none(), st.just([]),
            st.lists(wrong_run_bodies(), min_size=1,
                     max_size=2)))}
    body = dict(SWEEP_BODY, **{field: draw(SWEEP_WRONG[field])})
    if field == "sizes":
        body["figure"] = "fig8"     # a latency figure: sizes are its x
    return body


@st.composite
def non_finite_bodies(draw):
    """A valid body with one number, anywhere, made non-finite."""
    path = draw(st.sampled_from(["/v1/run", "/v1/sweep"]))
    body = json.loads(json.dumps(RUN_BODY if path == "/v1/run"
                                 else SWEEP_BODY))
    config_fields = sorted(MachineConfig.__dataclass_fields__)
    where = draw(st.sampled_from(
        ["top", "config", "params"] if path == "/v1/run" else ["top"]))
    if where == "top":
        keys = api.RUN_KEYS if path == "/v1/run" else api.SWEEP_KEYS
        body[draw(st.sampled_from(sorted(keys)))] = _NONFINITE
    elif where == "config":
        body["config"][draw(st.sampled_from(config_fields))] = _NONFINITE
    else:
        body["params"][draw(st.sampled_from(
            ["total_acquires", "hold_cycles", "kind"]))] = _NONFINITE
    text = json.dumps(body).replace(f'"{_NONFINITE}"',
                                    draw(NONFINITE_LITERALS))
    return path, text.encode()


@FUZZ
@given(server=SERVERS, body=wrong_run_bodies())
@example(server="gateway", body=dict(RUN_BODY, config={
    "block_size_bytes": 0}))
@example(server="router", body=dict(RUN_BODY, config={
    "word_size_bytes": 0}))
@example(server="gateway", body=dict(RUN_BODY, config={
    "num_procs": 1_000_000, "cache_size_bytes": 2**40}))
@example(server="router", body=dict(RUN_BODY, config={
    "num_procs": 1, "cache_size_bytes": 2**40}))
def test_wrong_run_fields(edge, server, body):
    edge.check(server, post("/v1/run", json.dumps(body).encode()))


@FUZZ
@given(server=SERVERS, body=wrong_sweep_bodies())
@example(server="gateway", body=dict(SWEEP_BODY, scale=1e308))
@example(server="router", body=dict(SWEEP_BODY, scale=1e308))
@example(server="gateway", body=dict(SWEEP_BODY, procs=10**6))
@example(server="router", body=dict(SWEEP_BODY, figure="fig8",
                                    sizes=[2, 10**6]))
@example(server="gateway", body=dict(SWEEP_BODY, figure="fig8",
                                     sizes=[2] * 20_000))
@example(server="router", body=dict(SWEEP_BODY, figure="fig8",
                                    sizes=[2] * 456))
def test_wrong_sweep_fields(edge, server, body):
    edge.check(server, post("/v1/sweep", json.dumps(body).encode()))


@FUZZ
@given(server=SERVERS, case=non_finite_bodies())
@example(server="gateway",
         case=("/v1/sweep", b'{"figure": "fig9", "scale": Infinity}'))
@example(server="router",
         case=("/v1/sweep", b'{"figure": "fig9", "scale": Infinity}'))
def test_non_finite_numbers(edge, server, case):
    path, body = case
    edge.check(server, post(path, body))


@FUZZ
@given(server=SERVERS, path=st.sampled_from(["/v1/run", "/v1/sweep"]),
       body=st.binary(max_size=200))
def test_bodies_that_are_not_requests(edge, server, path, body):
    edge.check(server, post(path, body))
