"""HTTP/JSON API over a :class:`~repro.service.farm.SimulationFarm`.

Pure stdlib (``http.server``), no new dependencies.  Endpoints:

* ``POST /jobs`` — submit a job.  Body is JSON: a campaign as either
  ``{"spec": {...}, "priority": 0, "timeout_s": null}`` or a bare spec dict
  (anything with an ``"implementations"`` key), where the spec payload is
  exactly :meth:`repro.campaign.spec.CampaignSpec.describe` — or a fuzz job
  as ``{"fuzz": {"seed_start": 0, "sessions": 8, "budget": 40, ...}}``
  (the payload of :meth:`repro.service.jobs.FuzzJobSpec.describe`).
  Returns 201 with the job snapshot.  An ``Idempotency-Key`` request header
  makes the submission safe to retry: a repeated key returns the original
  job (200, snapshot carries ``"duplicate": true``) instead of enqueuing a
  second one — the key is journaled on durable farms, so the dedupe
  survives server restarts.  When the farm is saturated (bounded queue
  depth reached) the response is 503 with a ``Retry-After`` header.
* ``GET /jobs`` — snapshots of the resident jobs: the active ones plus the
  farm's window of recently finished full records.
* ``GET /jobs/<id>`` — one job's snapshot.  A compact (long-finished) job
  answers with its final snapshot; an id the farm has forgotten answers
  404 "expired".
* ``GET /jobs/<id>/events[?from=N]`` — NDJSON stream of the job's event log
  (submission, state changes, per-cell completions); the response stays
  open, emitting one JSON object per line, until the job reaches a terminal
  state.  To an HTTP/1.1 request the stream is chunked and ends with the
  zero-length chunk, so the connection stays open for the next request; to
  an HTTP/1.0 request it is the bare lines, ended by closing the
  connection.  A compact job's log is gone: 410 with ``"evicted": true``.
* ``GET /jobs/<id>/result`` — the aggregated result as JSON.  Campaign
  jobs serve the :class:`~repro.campaign.result.CampaignResult` payload,
  bit-identical in its ``cells`` to ``splice campaign run`` on the same
  spec (a compact job re-reads its cells from the result cache, 410 if an
  entry is gone); fuzz jobs serve the deterministic fuzz aggregate
  (sessions in seed order, coverage union, deduplicated counterexamples).
  409 while the job is still queued/running, 410 for cancelled/timed-out
  jobs, which never have a complete result.
* ``DELETE /jobs/<id>`` — cancel (queued: drops instantly; running: stops
  at the next shard boundary).
* ``GET /stats`` — queue depth, per-worker stats, utilization, cache hit
  rate.
* ``GET /healthz`` — liveness probe.

The server is a :class:`ThreadingHTTPServer` speaking HTTP/1.1: each
connection gets its own handler thread, which serves every request the
client sends over it (a :class:`~repro.service.client.ServiceClient` keeps
one connection open per calling thread, so that is one handler thread per
connected client thread).  Handlers read the farm under the farm's lock, so
many clients can stream different jobs' events concurrently; they copy what
they need under the lock and serialize and send after releasing it, so a
slow reader never stalls the dispatcher or another handler.  Accepted
sockets have Nagle's algorithm off and a JSON response leaves in one send,
so a request on a kept-alive connection never waits for the client's
delayed ACK.  :meth:`FarmHTTPServer.server_close` also shuts the
connections it keeps open, so a stopped server answers nothing more.

A request's header block is read by
:func:`~repro.service.headers.read_headers`, not by the stdlib's email
parser, which costs several times as much.  The request is still parsed as the stdlib parses it: the same limits (a
header line of at most 65,536 bytes, fewer than 100 header lines, else
431), the same 400 and 505 answers to a bad request line, the first
occurrence of a repeated field, and the same ``Connection`` and ``Expect:
100-continue`` handling.
"""

from __future__ import annotations

import json
import re
import socket
import threading
from http import HTTPStatus
from http.client import HTTPException, LineTooLong
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.farm import FarmSaturated, SimulationFarm
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    TIMEOUT,
    ResultUnavailable,
    RetiredJob,
)
from repro.service.headers import read_headers

_JOB_PATH = re.compile(r"^/jobs/([A-Za-z0-9_.-]+)(/events|/result)?$")


class FarmRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the farm.  Subclassed per server instance so
    the ``farm`` reference is a class attribute (the stdlib instantiates a
    fresh handler per request)."""

    farm: SimulationFarm = None  # injected by build_handler()
    quiet: bool = True
    server_version = "splice-farm/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # TCP_NODELAY on every accepted socket

    # -- plumbing ----------------------------------------------------------------

    def parse_request(self) -> bool:
        """The stdlib's request parsing, with the header block read by
        :func:`~repro.service.headers.read_headers`.  It answers as the
        stdlib does: 400 for a malformed request line or version, 505 for
        HTTP/2 and later, 431 for an over-long header line or too many
        header lines; and it honours ``Connection`` and ``Expect:
        100-continue`` the same way."""
        self.command = None
        self.request_version = version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            try:
                if not version.startswith("HTTP/"):
                    raise ValueError
                base_version_number = version.split("/", 1)[1]
                version_number = base_version_number.split(".")
                if len(version_number) != 2 or any(
                        not part.isdigit() or len(part) > 10 for part in version_number):
                    raise ValueError
                version_number = int(version_number[0]), int(version_number[1])
            except (ValueError, IndexError):
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad request version (%r)" % version)
                return False
            if version_number >= (1, 1) and self.protocol_version >= "HTTP/1.1":
                self.close_connection = False
            if version_number >= (2, 0):
                self.send_error(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                                "Invalid HTTP version (%s)" % base_version_number)
                return False
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST,
                            "Bad request syntax (%r)" % requestline)
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(HTTPStatus.BAD_REQUEST,
                                "Bad HTTP/0.9 request type (%r)" % command)
                return False
        self.command, self.path = command, path
        # A path starting '//' would read as a scheme-relative URL (another
        # host) to a client that follows it: an open redirect.
        if self.path.startswith("//"):
            self.path = "/" + self.path.lstrip("/")
        try:
            self.headers = read_headers(self.rfile)
        except LineTooLong as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Line too long", str(err))
            return False
        except HTTPException as err:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                            "Too many headers", str(err))
            return False
        conntype = self.headers.get("Connection", "").lower()
        if conntype == "close":
            self.close_connection = True
        elif conntype == "keep-alive" and self.protocol_version >= "HTTP/1.1":
            self.close_connection = False
        if (self.headers.get("Expect", "").lower() == "100-continue"
                and self.protocol_version >= "HTTP/1.1"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def log_message(self, format, *args):  # noqa: A002 — stdlib signature
        if not self.quiet:
            super().log_message(format, *args)

    def _send_json(self, code: int, payload: dict,
                   headers: Optional[dict] = None) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # end_headers() with the body in the same send: one segment per
        # response instead of a header segment and a body segment.
        if self.request_version != "HTTP/0.9":
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message})

    def _read_body(self) -> Optional[dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            return None
        if length <= 0:
            return None
        try:
            return json.loads(self.rfile.read(length))
        except (ValueError, UnicodeDecodeError):
            return None

    def _route_job(self, path: str) -> Optional[Tuple[str, Optional[str]]]:
        match = _JOB_PATH.match(path)
        if match is None:
            return None
        return match.group(1), (match.group(2) or "").lstrip("/") or None

    def _job_or_404(self, job_id: str):
        """The job's full or compact record, or None after answering 404."""
        job = self.farm.get(job_id)
        if job is None:
            if self.farm.expired(job_id):
                self._error(404, f"job {job_id} expired: the farm no longer "
                                 "keeps a record of it")
            else:
                self._error(404, f"no such job: {job_id}")
        return job

    # -- methods -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 — stdlib naming
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._send_json(200, {"ok": True, "running": self.farm.running})
            return
        if parsed.path == "/stats":
            self._send_json(200, self.farm.stats())
            return
        if parsed.path == "/jobs":
            with self.farm.lock:
                jobs = [job.snapshot() for job in self.farm.jobs()]
            self._send_json(200, {"jobs": jobs})
            return
        routed = self._route_job(parsed.path)
        if routed is None:
            self._error(404, f"no such endpoint: {parsed.path}")
            return
        job_id, sub = routed
        job = self._job_or_404(job_id)
        if job is None:
            return
        if sub is None:
            with self.farm.lock:
                snapshot = job.snapshot()
            self._send_json(200, snapshot)
            return
        if sub == "result":
            with self.farm.lock:
                state = job.state
            if state in (CANCELLED, TIMEOUT):
                self._error(410, f"job {job_id} is {state}; no complete result exists")
                return
            if state not in (DONE, FAILED):
                self._error(409, f"job {job_id} is still {state}")
                return
            # A done or failed job's outcomes never change again, so the
            # aggregation (a cache read for a compact job) needs no lock.
            try:
                payload = job.result_payload()
            except ResultUnavailable as exc:
                self._error(410, str(exc))
                return
            self._send_json(200, payload)
            return
        if sub == "events":
            if isinstance(job, RetiredJob):
                self._send_json(410, {
                    "error": f"job {job_id} finished long ago and its event "
                             f"log is gone; GET /jobs/{job_id} has its final state",
                    "state": job.state,
                    "evicted": True,
                })
                return
            query = parse_qs(parsed.query)
            try:
                start = int(query.get("from", ["0"])[0])
            except ValueError:
                start = 0
            self._stream_events(job, start)
            return
        self._error(404, f"no such endpoint: {parsed.path}")

    def do_POST(self) -> None:  # noqa: N802
        if urlparse(self.path).path != "/jobs":
            self._error(404, f"no such endpoint: {self.path}")
            return
        body = self._read_body()
        if body is None:
            self._error(400, "expected a JSON body")
            return
        fuzz_payload = body.get("fuzz")
        spec_payload = body.get("spec", body)
        if fuzz_payload is None and (
            not isinstance(spec_payload, dict)
            or "implementations" not in spec_payload
        ):
            self._error(400, "body must carry a campaign spec (a 'spec' object "
                             "or a bare spec with 'implementations') or a "
                             "'fuzz' object with seed_start/sessions/budget")
            return
        try:
            priority = int(body.get("priority", 0))
            timeout_raw = body.get("timeout_s")
            timeout_s = None if timeout_raw is None else float(timeout_raw)
        except (TypeError, ValueError):
            self._error(400, "priority must be an int, timeout_s a number or null")
            return
        idempotency_key = self.headers.get("Idempotency-Key") or None
        # Resolved under the farm lock inside submit(); this pre-check only
        # decides whether the response should flag the job as a duplicate.
        duplicate = (
            idempotency_key is not None
            and self.farm.job_for_key(idempotency_key) is not None
        )
        try:
            if fuzz_payload is not None:
                if not isinstance(fuzz_payload, dict):
                    self._error(400, "'fuzz' must be an object")
                    return
                job = self.farm.submit_fuzz(
                    fuzz_payload, priority=priority, timeout_s=timeout_s,
                    idempotency_key=idempotency_key,
                )
            else:
                job = self.farm.submit(
                    spec_payload, priority=priority, timeout_s=timeout_s,
                    idempotency_key=idempotency_key,
                )
        except (KeyError, TypeError, ValueError) as exc:
            self._error(400, f"invalid job spec: {exc}")
            return
        except FarmSaturated as exc:
            self._send_json(
                503, {"error": str(exc), "retry_after_s": exc.retry_after_s},
                headers={"Retry-After": str(max(1, int(exc.retry_after_s)))},
            )
            return
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        with self.farm.lock:
            snapshot = job.snapshot()
        snapshot["events_url"] = f"/jobs/{job.id}/events"
        snapshot["result_url"] = f"/jobs/{job.id}/result"
        if duplicate:
            snapshot["duplicate"] = True
        self._send_json(200 if duplicate else 201, snapshot)

    def do_DELETE(self) -> None:  # noqa: N802
        routed = self._route_job(urlparse(self.path).path)
        if routed is None or routed[1] is not None:
            self._error(404, f"no such endpoint: {self.path}")
            return
        job_id = routed[0]
        job = self._job_or_404(job_id)
        if job is None:
            return
        cancelled = self.farm.cancel(job_id)
        with self.farm.lock:
            snapshot = job.snapshot()
        snapshot["cancelled"] = cancelled
        self._send_json(200, snapshot)

    # -- streaming ---------------------------------------------------------------

    def _stream_events(self, job, start: int) -> None:
        """NDJSON: one event object per line until the job is terminal.

        To an HTTP/1.1 request each line is one chunk and the zero-length
        chunk ends the stream, which leaves the connection open for the
        client's next request.  HTTP/1.0 has no chunked coding (RFC 9112),
        so there the lines go bare and closing the connection ends them.
        Each line is sent as the event lands, so a client following a
        running job sees per-cell progress live.
        """
        chunked = self.request_version >= "HTTP/1.1"
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Cache-Control", "no-store")
        if chunked:
            self.send_header("Transfer-Encoding", "chunked")
        else:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        try:
            for event in job.iter_events(start):
                line = (json.dumps(event, sort_keys=True) + "\n").encode()
                self.wfile.write(b"%x\r\n%s\r\n" % (len(line), line) if chunked else line)
            if chunked:
                self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True  # client went away mid-stream


class FarmHTTPServer(ThreadingHTTPServer):
    """Threaded server tuned for bursty client pools: the stdlib default
    listen backlog of 5 drops connections (RST) the moment more than a
    handful of clients submit at once.

    It remembers its open connections so that :meth:`server_close` can shut
    them: a kept-alive connection's handler thread otherwise goes on
    answering from the stopped server's farm."""

    daemon_threads = True
    request_queue_size = 128

    def __init__(self, *args, **kwargs) -> None:
        self._connections = set()
        self._connections_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket, then shut every open connection, which
        ends its handler thread at its next read or write."""
        super().server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its handler


def build_handler(farm: SimulationFarm, *, quiet: bool = True):
    """A handler class bound to ``farm`` (one per server)."""
    return type(
        "BoundFarmRequestHandler", (FarmRequestHandler,),
        {"farm": farm, "quiet": quiet},
    )


def serve_farm(
    farm: SimulationFarm,
    host: str = "127.0.0.1",
    port: int = 8032,
    *,
    quiet: bool = True,
) -> ThreadingHTTPServer:
    """Create (but do not start) an HTTP server bound to ``farm``.

    ``port=0`` picks an ephemeral port; read it back from
    ``server.server_address``.  Call ``serve_forever()`` (possibly on a
    thread) to serve, ``shutdown()`` to stop.
    """
    return FarmHTTPServer((host, port), build_handler(farm, quiet=quiet))


def serve_farm_in_thread(
    farm: SimulationFarm, host: str = "127.0.0.1", port: int = 0, *, quiet: bool = True
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Convenience for tests/examples: server + started daemon thread."""
    server = serve_farm(farm, host, port, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="splice-farm-http", daemon=True
    )
    thread.start()
    return server, thread
