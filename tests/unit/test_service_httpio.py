"""Unit tests for the service's HTTP/1.1 framing layer."""

import asyncio
import json

import pytest

from repro.service.httpio import (
    HttpError, json_response, ndjson_line, read_request, response,
    stream_head,
)


def parse(raw: bytes, max_body: int = 8 << 20):
    """Feed ``raw`` to read_request on a fresh StreamReader."""
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)
    return asyncio.run(go())


def req_bytes(method="POST", target="/v1/run", body=b"", headers=()):
    head = [f"{method} {target} HTTP/1.1", "Host: t"]
    head += [f"{k}: {v}" for k, v in headers]
    if body:
        head.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class TestReadRequest:
    def test_basic_request(self):
        req = parse(req_bytes(body=b'{"a": 1}'))
        assert req.method == "POST"
        assert req.path == "/v1/run"
        assert req.body == b'{"a": 1}'
        assert req.json() == {"a": 1}

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_query_string_and_percent_decoding(self):
        req = parse(req_bytes(method="GET", target="/a%20b?x=1&y="))
        assert req.path == "/a b"
        assert req.query == {"x": "1", "y": ""}

    def test_header_keys_lowercased(self):
        req = parse(req_bytes(method="GET", target="/",
                              headers=[("X-Thing", "v")]))
        assert req.headers["x-thing"] == "v"

    def test_keep_alive_defaults(self):
        assert parse(req_bytes(method="GET", target="/")).keep_alive
        req = parse(req_bytes(method="GET", target="/",
                              headers=[("Connection", "close")]))
        assert not req.keep_alive

    def test_http10_defaults_to_close(self):
        req = parse(b"GET / HTTP/1.0\r\n\r\n")
        assert not req.keep_alive

    def test_malformed_request_line(self):
        with pytest.raises(HttpError) as err:
            parse(b"GETSPACE\r\n\r\n")
        assert err.value.status == 400

    def test_unsupported_version(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET / HTTP/2.0\r\n\r\n")
        assert err.value.status == 400

    def test_body_over_limit_is_413(self):
        with pytest.raises(HttpError) as err:
            parse(req_bytes(body=b"x" * 100), max_body=10)
        assert err.value.status == 413

    def test_bad_content_length(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_chunked_rejected(self):
        raw = (b"POST / HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n")
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_request_line_over_stream_limit_is_400(self):
        # 70 KB is past StreamReader's 64 KiB limit, where readline
        # raises ValueError instead of returning the line
        target = "/" + "a" * 70_000
        with pytest.raises(HttpError) as err:
            parse(f"GET {target} HTTP/1.1\r\n\r\n".encode())
        assert (err.value.status, err.value.message) == \
            (400, "request line too long")

    def test_header_line_over_stream_limit_is_400(self):
        raw = req_bytes(method="GET", target="/",
                        headers=[("X-Big", "b" * 70_000)])
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert (err.value.status, err.value.message) == \
            (400, "header line too long")

    def test_lines_under_stream_limit_keep_their_400(self):
        with pytest.raises(HttpError) as err:
            parse(req_bytes(method="GET", target="/" + "a" * 20_000))
        assert err.value.message == "request line too long"
        with pytest.raises(HttpError) as err:
            parse(req_bytes(method="GET", target="/",
                            headers=[("X-Big", "b" * 20_000)]))
        assert err.value.message == "header line too long"

    def test_unparseable_target_is_400(self):
        with pytest.raises(HttpError) as err:
            parse(b"GET //[ HTTP/1.1\r\n\r\n")
        assert (err.value.status, err.value.message) == \
            (400, "malformed request target")

    def test_truncated_body_is_clean_eof(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        assert parse(raw) is None

    def test_json_errors_are_400(self):
        req = parse(req_bytes(body=b"{nope"))
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400
        empty = parse(req_bytes(method="GET", target="/"))
        with pytest.raises(HttpError):
            empty.json()

    @pytest.mark.parametrize("body", [
        b'{"x": NaN}', b'{"x": Infinity}', b'[-Infinity]', b'{"x": 1e999}',
    ])
    def test_json_rejects_non_finite_numbers(self, body):
        req = parse(req_bytes(body=body))
        with pytest.raises(HttpError) as err:
            req.json()
        assert err.value.status == 400


class TestResponses:
    def test_response_framing(self):
        raw = response(200, b"hi", keep_alive=True)
        text = raw.decode()
        assert text.startswith("HTTP/1.1 200 OK\r\n")
        assert "Content-Length: 2" in text
        assert "Connection: keep-alive" in text
        assert text.endswith("\r\n\r\nhi")

    def test_json_response_round_trips(self):
        raw = json_response(422, {"error": "x"}, keep_alive=False)
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"422 Unprocessable Entity" in head
        assert b"Connection: close" in head
        assert json.loads(body) == {"error": "x"}

    def test_extra_headers(self):
        raw = json_response(429, {}, headers={"Retry-After": "7"})
        assert b"Retry-After: 7\r\n" in raw

    def test_stream_head_is_close_delimited(self):
        head = stream_head().decode()
        assert "Connection: close" in head
        assert "Content-Length" not in head
        assert "application/x-ndjson" in head

    def test_ndjson_line(self):
        line = ndjson_line({"b": 2, "a": 1})
        assert line == b'{"a": 1, "b": 2}\n'
