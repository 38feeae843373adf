"""The farm's HTTP header readers against the stdlib's.

The server's ``FarmRequestHandler.parse_request`` and the client's
responses read a header block with ``repro.service.headers.read_headers``
instead of ``http.client.parse_headers``.  Each is run here beside the
stdlib code it replaces, on the same bytes, and must leave the same
state, write the same response and raise the same exception: on generated
header blocks (mixed-case names, padding, duplicates, folded lines, empty
values and lines the stdlib stops at) and on blocks over the stdlib's
limits.
"""

import http.client
import io
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import given, settings, strategies as st

from repro.service.api import FarmRequestHandler
from repro.service.client import _Response

#: Field names whose values the server or the client acts on, or reads,
#: with values that make a difference to them.
MEANINGFUL = {
    "Connection": ("close", "keep-alive", "Keep-Alive", "CLOSE", "upgrade"),
    "Expect": ("100-continue", "100-Continue", "nothing"),
    "Transfer-Encoding": ("chunked", "Chunked", "gzip, chunked", "identity"),
    "Content-Length": ("12", "0", "-1", " 7 ", "x", ""),
    "Keep-Alive": ("timeout=5", ""),
    "Retry-After": ("3", "soon"),
    "Idempotency-Key": ("k1", ""),
}
NAMES = (*MEANINGFUL, "Host", "X-Empty")


class _Lean(FarmRequestHandler):
    """The farm's handler with a fixed clock, built without a socket."""

    def date_time_string(self, timestamp=None):
        return "Thu, 01 Jan 1970 00:00:00 GMT"


class _Stock(_Lean):
    parse_request = BaseHTTPRequestHandler.parse_request


def _parse(handler_class, request: bytes):
    """What ``parse_request`` leaves behind for ``request``."""
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(request)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.raw_requestline = handler.rfile.readline(65537)
    parsed = handler.parse_request()
    headers = getattr(handler, "headers", None)
    return {
        "parsed": parsed,
        "close": handler.close_connection,
        "command": handler.command,
        "path": getattr(handler, "path", None),
        "version": handler.request_version,
        "response": handler.wfile.getvalue(),
        "body_at": handler.rfile.tell(),
        "fields": None if headers is None else _fields(headers),
    }


class _Socket:
    def __init__(self, data: bytes) -> None:
        self.data = data

    def makefile(self, mode):
        return io.BytesIO(self.data)


def _begin(response_class, data: bytes, method: str = "GET"):
    """What ``begin`` leaves behind for the response ``data``, or what it
    raises."""
    response = response_class(_Socket(data), method=method)
    try:
        response.begin()
    except http.client.HTTPException as exc:
        return type(exc), exc.args
    return {
        "status": response.status,
        "reason": response.reason,
        "version": response.version,
        "chunked": response.chunked,
        "length": response.length,
        "will_close": response.will_close,
        "body_at": response.fp.tell(),
        "fields": _fields(response.headers),
        "getheader": [response.getheader(name) for name in NAMES],
        "items": response.getheaders(),
    }


def _fields(headers):
    names = {name for name, _ in headers.items()} | set(NAMES)
    return {variant: headers.get(variant)
            for name in names for variant in (name, name.lower(), name.upper())}


_KNOWN = st.sampled_from(sorted(MEANINGFUL)).flatmap(lambda name: st.tuples(
    st.sampled_from((name, name.lower(), name.upper(), name.swapcase())),
    st.sampled_from(MEANINGFUL[name])))
_OTHER = st.tuples(st.text(alphabet="abXY-_.!~09", max_size=5),
                   st.text(alphabet="ab 19:\t,;=-\xe9", max_size=10))
_PAD = st.text(alphabet=" \t", max_size=2)
_FIELD = st.builds(lambda field, pad, tail: f"{field[0]}:{pad}{field[1]}{tail}",
                   st.one_of(_KNOWN, _KNOWN, _OTHER), _PAD, _PAD)
_FOLD = st.builds(lambda lead, field: lead + field[1],
                  st.sampled_from((" ", "\t", "  ")), st.one_of(_KNOWN, _OTHER))
#: Lines the stdlib skips or stops at: an envelope line, a field without a
#: name, no colon, a blank inside a name, and a bare carriage return.
_ODD = st.sampled_from(("From someone", ": nameless", "no colon", "Bad Name: v",
                        "Content-Length : 3", "X-A: 1\rX-B: 2"))
_LINE = st.one_of(_FIELD, _FIELD, _FIELD, _FOLD, _ODD)
_BLOCK = st.lists(st.tuples(_LINE, st.sampled_from(("\r\n", "\n"))), max_size=10).map(
    lambda lines: "".join(line + end for line, end in lines).encode("iso-8859-1"))
#: What follows the fields: the blank line and a body, or the end of the
#: stream, with or without the blank line.
_END = st.sampled_from((b"\r\n", b"\n", b"", b"\r\nBODY", b"\nBODY", b"BODY"))

REQUEST_LINES = (
    b"GET /healthz HTTP/1.1", b"POST /jobs HTTP/1.1", b"GET /jobs HTTP/1.0",
    b"GET //stats HTTP/1.1", b"GET /", b"POST /jobs", b"GET / HTTP/2.0",
    b"GET / HTTP/1.x", b"GET / FTP/1.1", b"A B C D",
)
STATUS_LINES = (
    b"HTTP/1.1 200 OK", b"HTTP/1.0 200 OK", b"HTTP/1.1 204 No Content",
    b"HTTP/1.1 304 Not Modified", b"HTTP/1.1 503 Service Unavailable",
    b"HTTP/1.1 100 Continue\r\nX-Interim: 1\r\n\r\nHTTP/1.1 201 Created",
    b"HTTP/2.0 200 OK",
)


def test_each_meaningful_field_alone_is_read_as_the_stdlib_reads_it():
    for name, values in MEANINGFUL.items():
        for variant in (name, name.lower(), name.upper()):
            for value in values:
                block = f"{variant}: {value}\r\n\r\nBODY".encode("iso-8859-1")
                for line in REQUEST_LINES:
                    request = line + b"\r\n" + block
                    assert _parse(_Lean, request) == _parse(_Stock, request), request
                for line in STATUS_LINES:
                    for method in ("GET", "HEAD"):
                        response = line + b"\r\n" + block
                        assert (_begin(_Response, response, method)
                                == _begin(http.client.HTTPResponse, response, method)), response


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(REQUEST_LINES), _BLOCK, _END)
def test_the_server_parses_requests_as_the_stdlib_does(request_line, block, end):
    request = request_line + b"\r\n" + block + end
    assert _parse(_Lean, request) == _parse(_Stock, request)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(STATUS_LINES), _BLOCK, _END, st.sampled_from(("GET", "HEAD")))
def test_the_client_reads_responses_as_the_stdlib_does(status_line, block, end, method):
    response = status_line + b"\r\n" + block + end
    assert _begin(_Response, response, method) == _begin(http.client.HTTPResponse,
                                                          response, method)


def _block(lines: int, width: int = 10) -> bytes:
    """``lines`` header lines, the first ``width`` bytes long, then the blank."""
    first = b"X-Wide: " + b"w" * (width - 10) + b"\r\n"
    return first + b"".join(b"X-%d: v\r\n" % index for index in range(1, lines)) + b"\r\n"


@pytest.mark.parametrize("block, accepted", [
    (_block(99), True),
    (_block(100), False),
    (_block(1, width=65536), True),
    (_block(1, width=65537), False),
], ids=["99-lines", "100-lines", "65536-byte-line", "65537-byte-line"])
def test_the_stdlib_limits_hold_on_both_sides(block, accepted):
    request = b"POST /jobs HTTP/1.1\r\n" + block + b"{}"
    server = _parse(_Lean, request)
    assert server == _parse(_Stock, request)
    assert server["parsed"] is accepted
    if not accepted:
        assert server["response"].startswith(b"HTTP/1.1 431 ")

    response = b"HTTP/1.1 200 OK\r\n" + block + b"{}"
    client = _begin(_Response, response)
    assert client == _begin(http.client.HTTPResponse, response)
    if not accepted:
        assert client[0] in (http.client.LineTooLong, http.client.HTTPException)
