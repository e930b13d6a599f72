"""The served wire format, pinned byte for byte.

``tests/data/service/wire-golden.json`` records what one gateway and a
router over two shard gateways answer to a fixed set of requests: the
status line, the headers and the body of each route's success case,
the 400s (bad JSON, bad result key, unknown workload and figure with
their "did you mean"), 404, 405 with ``Allow``, 413, 503 while
draining, ``/v1/result`` 404 and 200, and a two-spec raw sweep.

What varies from run to run is masked: ``uptime_s``, ``elapsed_s``,
the cache path and shard ports.  A body a mask touched keeps its
``Content-Length`` header as ``*``; the test checks that header
against the unmasked body instead.  Sweep ``spec`` events are sorted
by index (a gateway emits them in completion order).  ``/metrics``
keeps only its content type and its set of metric families.

Regenerate (only when a wire change is intended and explained)::

    PYTHONPATH=src python tests/integration/test_service_wire_golden.py \\
        > tests/data/service/wire-golden.json
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

from repro.campaign import RunSpec
from repro.cluster import Router, RouterConfig, ShardEndpoint
from repro.config import MachineConfig, Protocol
from repro.service import Gateway, ServiceConfig

GOLDEN = (Path(__file__).resolve().parents[1] / "data" / "service"
          / "wire-golden.json")

# a fixed salt: the default one digests the package sources, so any
# source change would change every key
SPEC_A, SPEC_B = (RunSpec.make("lock", MachineConfig(num_procs=2,
                                                     protocol=protocol),
                               code_version_salt="wire-golden",
                               kind="tk", total_acquires=8)
                  for protocol in (Protocol.PU, Protocol.WI))


def _body(obj) -> bytes:
    return json.dumps(obj).encode()


def _request(method: str, path: str, body: bytes = None) -> bytes:
    head = [f"{method} {path} HTTP/1.1", "Host: golden"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + (body or b"")


#: (case name, raw request), sent in this order on fresh connections
CASES = [
    ("healthz", _request("GET", "/healthz")),
    ("readyz", _request("GET", "/readyz")),
    ("run", _request("POST", "/v1/run", _body(SPEC_A.to_jsonable()))),
    ("result_200", _request("GET", f"/v1/result/{SPEC_A.key}")),
    ("result_404", _request("GET", "/v1/result/" + "0" * 64)),
    ("result_bad_key_400", _request("GET", "/v1/result/zzz")),
    ("sweep_two_specs", _request("POST", "/v1/sweep", _body(
        {"specs": [dict(SPEC_B.to_jsonable(), label="B"),
                   dict(SPEC_A.to_jsonable(), label="A")]}))),
    ("run_bad_json_400", _request("POST", "/v1/run", b"{nope")),
    ("run_unknown_workload_400", _request("POST", "/v1/run", _body(
        {"workload": "lok"}))),
    ("sweep_unknown_figure_400", _request("POST", "/v1/sweep", _body(
        {"figure": "fig99"}))),
    ("no_route_404", _request("GET", "/nope")),
    ("delete_healthz_405", _request("DELETE", "/healthz")),
    ("get_run_405", _request("GET", "/v1/run")),
    ("body_too_large_413",
     b"POST /v1/run HTTP/1.1\r\nHost: golden\r\n"
     b"Content-Length: 9000000\r\n\r\n"),
    ("metrics", _request("GET", "/metrics")),
]

#: sent with the server's ``_draining`` flag set (server still open)
DRAINING_CASES = [
    ("draining_run_503", _request("POST", "/v1/run",
                                  _body(SPEC_A.to_jsonable()))),
    ("draining_healthz_503", _request("GET", "/healthz")),
    ("draining_readyz_503", _request("GET", "/readyz")),
]

_MASKS = (
    (re.compile(r'"(uptime_s|elapsed_s|port)": [-+0-9.eE]+'),
     r'"\1": "*"'),
    (re.compile(r'"cache": "[^"]*"'), '"cache": "*"'),
)


async def _exchange(port: int, raw: bytes):
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", port, limit=1 << 24)
    try:
        writer.write(raw)
        writer.write_eof()      # the server closes after one response
        await writer.drain()
        status = (await reader.readline()).decode("latin-1").rstrip()
        headers = []
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            headers.append(line.decode("latin-1").rstrip())
        length = [h for h in headers
                  if h.lower().startswith("content-length:")]
        if length:
            # a masked body masks its length too: check it here
            body = await reader.readexactly(int(length[0].split(":")[1]))
            assert await reader.read(-1) == b"", "bytes past the body"
        else:
            body = await reader.read(-1)
    finally:
        writer.close()
    return status, headers, body


def _normalize(case: str, status: str, headers, body: bytes) -> dict:
    text = body.decode("utf-8")
    if case.startswith("metrics"):
        families = sorted({line.split()[2] for line in text.splitlines()
                           if line.startswith("# TYPE ")})
        return {"status": status,
                "headers": [h for h in headers
                            if h.lower().startswith("content-type:")],
                "families": families}
    masked = text
    for pattern, repl in _MASKS:
        masked = pattern.sub(repl, masked)
    lines = masked.splitlines(keepends=True)
    events = [json.loads(line) for line in lines] \
        if "application/x-ndjson" in " ".join(headers) else []
    spec_at = [i for i, e in enumerate(events) if e["event"] == "spec"]
    ordered = sorted((lines[i] for i in spec_at),
                     key=lambda line: json.loads(line)["index"])
    for i, line in zip(spec_at, ordered):
        lines[i] = line
    if masked != text:
        headers = ["Content-Length: *"
                   if h.lower().startswith("content-length:") else h
                   for h in headers]
    return {"status": status, "headers": headers, "body": "".join(lines)}


async def _capture(server) -> dict:
    out = {}
    for case, raw in CASES:
        out[case] = _normalize(case, *await _exchange(server.port, raw))
    server._draining = True
    try:
        for case, raw in DRAINING_CASES:
            out[case] = _normalize(case, *await _exchange(server.port,
                                                          raw))
    finally:
        server._draining = False
    return out


async def _record(root: Path) -> dict:
    gateway = Gateway(ServiceConfig(port=0, jobs=1, quiet=True,
                                    cache_dir=str(root / "gateway")))
    ids = ("shard-0", "shard-1")
    shards = {sid: Gateway(ServiceConfig(
        port=0, jobs=1, quiet=True, cache_dir=str(root / sid),
        shard_id=sid, shard_peers=ids)) for sid in ids}
    # every worker pool forks before any listener exists (see the
    # in-process cluster harness in test_cluster.py)
    for gw in (gateway, *shards.values()):
        gw.scheduler.warm()
    for gw in (gateway, *shards.values()):
        await gw.start()
    router = Router(RouterConfig(
        shards=tuple(ShardEndpoint(sid, "127.0.0.1", gw.port)
                     for sid, gw in shards.items()),
        port=0, quiet=True))
    await router.start()
    try:
        return {"gateway": await _capture(gateway),
                "router": await _capture(router)}
    finally:
        await router.stop()
        for gw in (gateway, *shards.values()):
            await gw.stop()


def record() -> dict:
    with tempfile.TemporaryDirectory() as root:
        return asyncio.run(_record(Path(root)))


@pytest.fixture(scope="module")
def wire() -> dict:
    return record()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


CASE_IDS = [f"{server}/{case}" for server in ("gateway", "router")
            for case, _ in CASES + DRAINING_CASES]


def test_golden_covers_every_case():
    golden = _golden()
    assert [f"{server}/{case}" for server in golden
            for case in golden[server]] == CASE_IDS


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_wire_matches_golden(wire, case_id):
    server, case = case_id.split("/")
    assert wire[server][case] == _golden()[server][case]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=False)
    sys.stdout.write("\n")
