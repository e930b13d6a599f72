"""The HTTP server the gateway and the cluster router share.

:class:`HttpServer` is the serving edge, written once: the listener's
lifecycle, the keep-alive connection loop, the route table
(:data:`ROUTES`) with its method and draining guards, the mapping of
errors onto statuses, the drain sequence, the stderr log and the CLI
signal loop.  A subclass brings its config (``host``, ``port``,
``max_body_bytes``, ``drain_grace_s``, ``quiet``), its metrics
(``m_requests``, ``m_latency``, ``m_draining``), one ``_h_*`` handler
per route, and these hooks:

* ``_read_request(reader)`` parses through the subclass module's own
  ``read_request``, and ``_dispatch(req, writer)`` calls
  :meth:`HttpServer._serve`; the benchmark's traced mode
  (``perfbench/probes.py``) wraps both where they are defined;
* ``_before_listen()`` and ``_after_listen()``: what starting means
  for the backend;
* ``_drain_backend(grace_s)``: what draining means once the listener
  is closed and in-flight requests are done.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
import time
import traceback
from typing import Callable, Dict, Optional, Set, Tuple

from repro.service.httpio import (
    HttpError, Request, close_writer, json_response,
)

#: path -> (route label, method, handler, refused while draining)
ROUTES: Dict[str, Tuple[str, str, str, bool]] = {
    "/healthz": ("healthz", "GET", "_h_health", False),
    "/readyz": ("readyz", "GET", "_h_ready", False),
    "/metrics": ("metrics", "GET", "_h_metrics", False),
    "/v1/run": ("run", "POST", "_h_run", True),
    "/v1/sweep": ("sweep", "POST", "_h_sweep", True),
}

#: ``GET /v1/result/<key>`` is matched by prefix
RESULT_PREFIX = "/v1/result/"
_RESULT_ROUTE = ("result", "GET", "_h_result", False)

#: an unmatched path: one route label bounds metric cardinality
_NOT_FOUND = ("other", None, None, False)

_HEX = frozenset("0123456789abcdef")


def draining_error() -> HttpError:
    """The answer to new work while draining."""
    return HttpError(503, "draining; not accepting new work",
                     {"Retry-After": "30"})


def result_key(path: str) -> str:
    """The spec hash in a ``/v1/result/<key>`` path, or a 400."""
    key = path.rsplit("/", 1)[-1].lower()
    if len(key) != 64 or not _HEX.issuperset(key):
        raise HttpError(400, "result key must be a 64-char spec hash "
                        "(see the 'key' field of run/sweep responses)")
    return key


class HttpServer:
    """Listener, connections, routing and drain (see module docs)."""

    #: tag of every stderr log line
    log_name = "repro"

    def __init__(self, config) -> None:
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopped: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        #: the connection tasks still running (see _on_connection)
        self._connections: Set[asyncio.Task] = set()
        self._ready = False
        self._draining = False
        self._active_requests = 0
        self._started = time.monotonic()
        self.port: Optional[int] = None

    # -- hooks (see the module docstring) -------------------------------

    def _before_listen(self) -> None:
        pass

    def _after_listen(self) -> None:
        pass

    async def _drain_backend(self, grace_s: float) -> bool:
        """Returns whether the backend finished within ``grace_s``."""
        return True

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._stopped = asyncio.Event()
        self._started = time.monotonic()
        self._before_listen()
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._ready = True
        self._after_listen()

    def begin_drain(self) -> None:
        """Idempotent; safe to call from a signal handler callback."""
        if self._draining:
            return
        self._draining = True
        self._ready = False
        self.m_draining.set(1)
        self._log("drain requested; finishing in-flight work")
        self._drain_task = asyncio.get_event_loop().create_task(
            self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._active_requests > 0 and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        clean = await self._drain_backend(
            max(0.0, deadline - time.monotonic()))
        self._log("drain complete" if clean
                  else "drain grace expired with work still running")
        if self._stopped is not None:
            self._stopped.set()

    async def wait_stopped(self) -> None:
        assert self._stopped is not None, "start() first"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Drain and wait (used by tests; signals use begin_drain)."""
        self.begin_drain()
        await self.wait_stopped()

    def run_cli(self, boot: Callable[[], dict]) -> None:
        """Serve until SIGTERM or SIGINT has drained the server.

        Once listening, prints ``boot()`` as one JSON line on stdout:
        scripts parse the port from it.
        """
        async def run() -> None:
            await self.start()
            print(json.dumps(boot()), flush=True)
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, self.begin_drain)
                except (NotImplementedError, RuntimeError):
                    pass
            await self.wait_stopped()

        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            pass

    def _log(self, message: str) -> None:
        if not self.config.quiet:
            print(f"[{self.log_name}] {message}", file=sys.stderr,
                  flush=True)

    # -- connections and requests ---------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        # asyncio reaches this task only through the transport, which
        # leaves the selector once the client half-closes; a handler
        # then awaiting a shard's socket (whose StreamReader asyncio
        # holds weakly) is unreachable, and the garbage collector
        # would destroy it mid-response
        task = asyncio.current_task()
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)
        try:
            while True:
                try:
                    req = await self._read_request(reader)
                except HttpError as exc:
                    writer.write(json_response(
                        exc.status, {"error": exc.message},
                        headers=exc.headers, keep_alive=False))
                    await writer.drain()
                    break
                if req is None:
                    break
                keep = await self._dispatch(req, writer)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                # explicit shutdown: forked pool workers may hold a
                # dup of this fd, and FIN is only sent when the last
                # dup closes -- close() alone would leave EOF-framed
                # responses hanging
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.shutdown(socket.SHUT_RDWR)
            except (OSError, ValueError):
                pass
            await close_writer(writer)

    async def _serve(self, req: Request,
                     writer: asyncio.StreamWriter) -> bool:
        """Route and answer one request; returns keep-alive."""
        if req.path.startswith(RESULT_PREFIX):
            route, method, handler, guard = _RESULT_ROUTE
        else:
            route, method, handler, guard = ROUTES.get(req.path,
                                                       _NOT_FOUND)
        keep = req.keep_alive and not self._draining
        t0 = time.monotonic()
        self._active_requests += 1
        code = 499    # stays if the handler is cancelled mid-flight
        try:
            if handler is None:
                raise HttpError(404, f"no route for {req.path!r}")
            if req.method != method:
                raise HttpError(405, f"use {method}", {"Allow": method})
            if guard and self._draining:
                raise draining_error()
            code, keep = await getattr(self, handler)(req, writer, keep)
        except HttpError as exc:
            code = exc.status
            writer.write(json_response(
                code, {"error": exc.message}, headers=exc.headers,
                keep_alive=keep))
        except (ConnectionError, asyncio.IncompleteReadError):
            code, keep = 499, False      # client went away mid-response
        except Exception:
            code, keep = 500, False
            self._log("internal error:\n" + traceback.format_exc())
            try:
                writer.write(json_response(
                    500, {"error": "internal server error"},
                    keep_alive=False))
            except ConnectionError:
                pass
        finally:
            self._active_requests -= 1
            self.m_requests.inc(route=route, code=str(code))
            self.m_latency.observe(time.monotonic() - t0, route=route)
        return keep
