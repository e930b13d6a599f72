"""Minimal HTTP/1.1 framing over asyncio streams, stdlib only.

Just enough of the protocol for the gateway, the cluster router and
the load generator.  Server side: request parsing (request line,
headers, Content-Length bodies), fixed responses with Content-Length +
keep-alive, and close-delimited streaming responses for NDJSON sweeps.
Client side: request serialization and response parsing, used by the
router's shard calls and by the load generator.  Chunked transfer
coding is deliberately not implemented -- sweep streams mark
themselves ``Connection: close`` and the body ends at EOF, which every
HTTP/1.1 client understands.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qsl, unquote, urlsplit

REASONS = {
    200: "OK", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    408: "Request Timeout", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_LINE = 16384
_MAX_HEADERS = 100

JSON_TYPE = "application/json"
NDJSON_TYPE = "application/x-ndjson"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"number {text} is out of range")
    return value


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


#: standard JSON only: Python's decoder also accepts NaN, Infinity and
#: -Infinity, and turns an out-of-range literal like 1e999 into inf
_DECODER = json.JSONDecoder(parse_float=_finite,
                            parse_constant=_no_constant)


class HttpError(Exception):
    """An error that maps directly onto an HTTP error response."""

    def __init__(self, status: int, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = dict(headers or {})


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    target: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]          # keys lower-cased
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    @property
    def keep_alive(self) -> bool:
        conn = self.headers.get("connection", "").lower()
        if self.http_version == "HTTP/1.0":
            return conn == "keep-alive"
        return conn != "close"

    def json(self):
        """The body parsed as JSON, or a 400 :class:`HttpError`."""
        if not self.body:
            raise HttpError(400, "expected a JSON request body")
        try:
            return _DECODER.decode(self.body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise HttpError(400, f"malformed JSON body: {exc}") from None


async def read_request(reader: asyncio.StreamReader,
                       max_body: int = 8 << 20) -> Optional[Request]:
    """Parse one request from the stream; None on clean EOF."""
    try:
        line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:      # a line over the stream limit (64 KiB)
        raise HttpError(400, "request line too long") from None
    if not line.strip():
        return None
    if len(line) > _MAX_LINE:
        raise HttpError(400, "request line too long")
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported HTTP version {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        try:
            raw = await reader.readline()
        except ValueError:
            raise HttpError(400, "header line too long") from None
        if raw in (b"\r\n", b"\n", b""):
            break
        if len(raw) > _MAX_LINE:
            raise HttpError(400, "header line too long")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(400, "too many headers")

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError:
            raise HttpError(400, "bad Content-Length") from None
        if length < 0:
            raise HttpError(400, "bad Content-Length")
        if length > max_body:
            raise HttpError(413, f"body exceeds {max_body} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            return None
    elif headers.get("transfer-encoding"):
        raise HttpError(400, "chunked request bodies are not supported")

    try:
        split = urlsplit(target)
    except ValueError:          # e.g. "//[": an unclosed IPv6 host
        raise HttpError(400, "malformed request target") from None
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method=method.upper(), target=target,
                   path=unquote(split.path), query=query,
                   headers=headers, body=body, http_version=version)


def response(status: int, body: bytes = b"", *,
             content_type: str = JSON_TYPE,
             headers: Optional[Dict[str, str]] = None,
             keep_alive: bool = True) -> bytes:
    """A complete Content-Length-framed response."""
    head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def json_response(status: int, obj, *,
                  headers: Optional[Dict[str, str]] = None,
                  keep_alive: bool = True) -> bytes:
    body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
    return response(status, body, content_type=JSON_TYPE,
                    headers=headers, keep_alive=keep_alive)


def stream_head(status: int = 200,
                content_type: str = NDJSON_TYPE,
                headers: Optional[Dict[str, str]] = None) -> bytes:
    """Headers of a close-delimited streaming response (no length)."""
    head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            "Connection: close"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")


def ndjson_line(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# client side
# ----------------------------------------------------------------------

def request_bytes(method: str, path: str, host: str, port: int,
                  body: Optional[bytes] = None,
                  headers: Optional[Dict[str, str]] = None) -> bytes:
    """Serialize one HTTP/1.1 request."""
    head = [f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Accept: */*"]
    for name, value in (headers or {}).items():
        head.append(f"{name}: {value}")
    if body is not None:
        head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") \
        + (body or b"")


async def read_head(reader: asyncio.StreamReader
                    ) -> Tuple[int, Dict[str, str]]:
    """Parse a status line + headers; raises ConnectionError on EOF."""
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("peer closed the connection")
    parts = status_line.decode("latin-1").split(None, 2)
    if len(parts) < 2 or not parts[1].isdigit():
        raise ConnectionError(f"bad status line {status_line!r}")
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return int(parts[1]), headers


async def read_content(reader: asyncio.StreamReader,
                       headers: Dict[str, str]) -> bytes:
    """The response body: length-framed, or read-to-EOF."""
    if "content-length" in headers:
        return await reader.readexactly(int(headers["content-length"]))
    return await reader.read(-1)


async def close_writer(writer: Optional[asyncio.StreamWriter]) -> None:
    if writer is None:
        return
    try:
        writer.close()
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
