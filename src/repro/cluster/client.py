"""Asyncio HTTP/1.1 client plumbing for router -> shard calls.

The router talks to shards over the same minimal HTTP the gateway
speaks (:mod:`repro.service.httpio`): Content-Length framed JSON for
``/v1/run`` / ``/v1/result`` / probes, and close-delimited NDJSON
streams for ``/v1/sweep``.  Two entry points:

* :class:`HttpPool` -- keep-alive connection pool for one shard
  endpoint; a request grabs an idle connection (retrying once on a
  stale one the shard closed), and returns it to the pool when the
  response allows keep-alive.
* :func:`open_stream` -- a fresh connection for one streaming sweep;
  the caller reads NDJSON lines off the returned reader until EOF.

Connection errors surface as ``ConnectionError``/``OSError`` (plus
``asyncio.TimeoutError`` under a timeout) so the router's failover
path can catch one exception family.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Tuple

from repro.service.httpio import (
    close_writer, read_content, read_head, request_bytes,
)

#: stream buffer limit: one NDJSON line can carry a full RunRecord
#: (network matrices included), so allow tens of MB
STREAM_LIMIT = 32 << 20


async def open_connection(host: str, port: int,
                          connect_timeout_s: float = 5.0):
    return await asyncio.wait_for(
        asyncio.open_connection(host, port, limit=STREAM_LIMIT),
        connect_timeout_s)


async def open_stream(host: str, port: int, method: str, path: str,
                      body: Optional[bytes] = None,
                      headers: Optional[Dict[str, str]] = None,
                      connect_timeout_s: float = 5.0,
                      head_timeout_s: float = 30.0):
    """One streaming request on a fresh connection.

    Returns ``(status, headers, reader, writer)``; the caller consumes
    the close-delimited body from ``reader`` and closes ``writer``.
    """
    reader, writer = await open_connection(host, port, connect_timeout_s)
    try:
        writer.write(request_bytes(method, path, host, port, body,
                                   headers))
        await writer.drain()
        status, resp_headers = await asyncio.wait_for(
            read_head(reader), head_timeout_s)
    except BaseException:
        writer.close()
        raise
    return status, resp_headers, reader, writer


class HttpPool:
    """Keep-alive connections to one (host, port), reused in LIFO order."""

    def __init__(self, host: str, port: int,
                 connect_timeout_s: float = 5.0,
                 max_idle: int = 32) -> None:
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.max_idle = max_idle
        self._idle: list = []

    async def request(self, method: str, path: str,
                      body: Optional[bytes] = None,
                      headers: Optional[Dict[str, str]] = None,
                      timeout_s: Optional[float] = None
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """One request; returns (status, headers, body bytes).

        An idle pooled connection may have been closed by the peer
        since its last use; that first failure is retried once on a
        fresh connection before errors propagate.
        """
        attempts = 2 if self._idle else 1
        for attempt in range(attempts):
            # the retry (attempt 1) always dials fresh, even if more
            # possibly-stale idle connections remain pooled
            reused = bool(self._idle) and attempt == 0
            if reused:
                reader, writer = self._idle.pop()
            else:
                reader, writer = await open_connection(
                    self.host, self.port, self.connect_timeout_s)
            try:
                writer.write(request_bytes(method, path, self.host,
                                           self.port, body, headers))
                await writer.drain()
                status, resp_headers = await asyncio.wait_for(
                    read_head(reader), timeout_s)
                data = await asyncio.wait_for(
                    read_content(reader, resp_headers), timeout_s)
            except (ConnectionError, OSError, asyncio.TimeoutError,
                    asyncio.IncompleteReadError):
                await close_writer(writer)
                if reused and attempt + 1 < attempts:
                    continue          # stale pooled connection: retry
                raise
            if (resp_headers.get("connection", "").lower() == "close"
                    or "content-length" not in resp_headers):
                await close_writer(writer)
            elif len(self._idle) < self.max_idle:
                self._idle.append((reader, writer))
            else:
                await close_writer(writer)
            return status, resp_headers, data
        raise ConnectionError("unreachable")     # pragma: no cover

    async def close(self) -> None:
        while self._idle:
            _reader, writer = self._idle.pop()
            await close_writer(writer)
