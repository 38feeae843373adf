"""Stdlib HTTP client for the farm API (used by ``splice submit``).

A thin wrapper over :mod:`http.client` with a line-buffered NDJSON reader
for the streaming events endpoint.  Each calling thread keeps one HTTP/1.1
connection open and sends all its requests over it, event streams included
(the server ends a stream with the zero-length chunk), so a job's submit,
stream and status calls cost one TCP connection, not three.  Kept
dependency-free so examples and CI scripts can drive a farm with nothing
but the standard library.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import uuid
from http.client import HTTPConnection, HTTPException
from typing import Iterator, Mapping, Optional, Union
from urllib.parse import urlparse

from repro.campaign.spec import CampaignSpec


class ServiceError(RuntimeError):
    """A non-2xx response from the farm API.

    ``retry_after`` carries the parsed ``Retry-After`` header (seconds) on
    backpressure 503s, ``None`` otherwise — so submitters can back off for
    exactly as long as the server asked.
    """

    def __init__(self, status: int, payload,
                 retry_after: Optional[float] = None) -> None:
        message = payload.get("error") if isinstance(payload, dict) else str(payload)
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload
        self.retry_after = retry_after


def _dropped(sock: socket.socket) -> bool:
    """Whether an idle kept-alive socket reads as ready: the server closed
    or reset it, or sent bytes that no request asked for."""
    timeout = sock.gettimeout()
    sock.settimeout(0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        return True
    finally:
        sock.settimeout(timeout)
    return True


class ServiceClient:
    """Client for one farm server, e.g. ``ServiceClient("http://127.0.0.1:8032")``.

    One client may be shared by many threads: each thread keeps its own
    kept-alive connection.  A connection is dropped, and the thread's next
    call reconnects, when a request on it raises, when the server says it
    will close it, when the caller leaves :meth:`events` before the stream
    ends, and when it has gone idle and reads as closed (a server restart)
    before a request is sent on it.
    """

    #: Retry budget for idempotent requests: extra attempts after the first,
    #: and the first backoff (doubled per retry, capped at 1 s).  GETs are
    #: always idempotent; POSTs are retried only when they carry an
    #: ``Idempotency-Key`` (the server dedupes a resend to the original
    #: job); DELETEs and keyless POSTs are never retried — a blind resend
    #: could double-submit or double-cancel.
    GET_RETRIES = 3
    RETRY_BACKOFF_S = 0.05
    #: Consecutive reconnect failures :meth:`events` tolerates before giving
    #: up on the stream (the counter resets on every received event).
    STREAM_RESUMES = 5

    def __init__(self, base_url: str, *, timeout: float = 60.0) -> None:
        parsed = urlparse(base_url if "//" in base_url else f"http://{base_url}")
        if parsed.scheme not in ("", "http"):
            raise ValueError(f"only http:// farm URLs are supported, got {base_url!r}")
        self.host = parsed.hostname or "127.0.0.1"
        self.port = parsed.port or 8032
        self.timeout = timeout
        self._local = threading.local()

    # -- plumbing ----------------------------------------------------------------

    def _checkout(self) -> HTTPConnection:
        """Take the calling thread's kept-alive connection for one request.

        While a request holds it, another call on the same thread (say, a
        status call while an :meth:`events` stream is suspended) gets a new
        connection.  An idle kept-alive socket that reads as ready has been
        closed by the server, so it is closed here, before anything is sent
        on it: a DELETE or keyless POST is never retried, and must not be
        lost to a dead socket.  ``HTTPConnection`` reconnects on its next
        request.
        """
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is None:
            return HTTPConnection(self.host, self.port, timeout=self.timeout)
        if connection.sock is not None and _dropped(connection.sock):
            connection.close()
        return connection

    def _release(self, connection: HTTPConnection, reusable: bool) -> None:
        """Keep ``connection`` for the thread's next request if its last
        response was read to the end; close it otherwise."""
        if reusable and getattr(self._local, "connection", None) is None:
            self._local.connection = connection
        else:
            connection.close()

    def _request_once(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> dict:
        send_headers = dict(headers or {})
        encoded = None
        if body is not None:
            encoded = json.dumps(body).encode()
            send_headers["Content-Type"] = "application/json"
        connection = self._checkout()
        read = False
        try:
            connection.request(method, path, body=encoded, headers=send_headers)
            response = connection.getresponse()
            raw = response.read()
            read = True
        finally:
            self._release(connection, read)
        payload = json.loads(raw or b"{}")
        if response.status >= 400:
            retry_after_raw = response.getheader("Retry-After")
            try:
                retry_after = (None if retry_after_raw is None
                               else float(retry_after_raw))
            except ValueError:
                retry_after = None
            raise ServiceError(response.status, payload,
                               retry_after=retry_after)
        return payload

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Mapping[str, str]] = None,
        *,
        retries: Optional[int] = None,
    ) -> dict:
        """One API call with bounded exponential-backoff retries.

        Connection-level failures (refused, reset, timeout, truncated
        response) are transparently retried up to ``retries`` times —
        defaulting to :attr:`GET_RETRIES` for GETs and 0 for everything
        else.  :meth:`submit` passes an explicit budget for POSTs that
        carry an ``Idempotency-Key``, which makes the resend safe: the
        server answers a duplicate key with the original job.  HTTP error
        *responses* (:class:`ServiceError`) are never retried: the server
        answered, and the answer stands.
        """
        attempts = (self.GET_RETRIES if method == "GET" else 0) \
            if retries is None else retries
        delay = self.RETRY_BACKOFF_S
        while True:
            try:
                return self._request_once(method, path, body, headers)
            except (ConnectionError, HTTPException, OSError):
                if attempts <= 0:
                    raise
                attempts -= 1
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    # -- API ---------------------------------------------------------------------

    def _post_job(self, body: dict, idempotency_key: Optional[str]) -> dict:
        """POST /jobs with a client-generated idempotency key.

        The key makes the POST safe to retry on connection failures — a
        resend of the same key returns the original job instead of
        enqueuing a duplicate — so submissions get the same retry budget
        as reads.  Pass ``idempotency_key`` explicitly to dedupe across
        client instances (e.g. a cron that re-runs after its host crashed).
        """
        key = idempotency_key or uuid.uuid4().hex
        return self._request(
            "POST", "/jobs", body,
            headers={"Idempotency-Key": key},
            retries=self.GET_RETRIES,
        )

    def submit(
        self,
        spec: Union[CampaignSpec, Mapping],
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        """POST the spec; returns the job snapshot (``["id"]`` is the handle)."""
        payload = spec.describe() if isinstance(spec, CampaignSpec) else dict(spec)
        return self._post_job({
            "spec": payload, "priority": priority, "timeout_s": timeout_s,
        }, idempotency_key)

    def submit_fuzz(
        self,
        *,
        seed_start: int = 0,
        sessions: int = 1,
        budget: int = 50,
        profile: str = "quick",
        with_faults: bool = False,
        case_timeout_s: float = 10.0,
        name: str = "fuzz",
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> dict:
        """Submit a sharded fuzz job (one deterministic session per seed)."""
        return self._post_job({
            "fuzz": {
                "seed_start": seed_start,
                "sessions": sessions,
                "budget": budget,
                "profile": profile,
                "with_faults": with_faults,
                "case_timeout_s": case_timeout_s,
                "name": name,
            },
            "priority": priority,
            "timeout_s": timeout_s,
        }, idempotency_key)

    def status(self, job_id: str) -> dict:
        return self._request("GET", f"/jobs/{job_id}")

    def jobs(self) -> list:
        return self._request("GET", "/jobs")["jobs"]

    def result(self, job_id: str) -> dict:
        """The finished job's CampaignResult payload (spec / cells / meta)."""
        return self._request("GET", f"/jobs/{job_id}/result")

    def cancel(self, job_id: str) -> dict:
        return self._request("DELETE", f"/jobs/{job_id}")

    def stats(self) -> dict:
        return self._request("GET", "/stats")

    def healthz(self) -> dict:
        return self._request("GET", "/healthz")

    def events(self, job_id: str, *, start: int = 0) -> Iterator[dict]:
        """Stream the job's events as dicts until it reaches a terminal state.

        Each yielded dict is one NDJSON line flushed by the server as the
        event happened.  A dropped connection is resumed transparently from
        the last seen event index (the server's ``?from=N``), so the
        consumer sees every event exactly once even across server restarts
        or mid-stream resets; :attr:`STREAM_RESUMES` consecutive reconnect
        failures abort the stream with the underlying error.  A job that
        finished so long ago that the server kept only its compact record
        (410, ``"evicted": true``) ends the stream at once; :meth:`status`
        still has its final state.
        """
        index = start
        failures = 0
        while True:
            connection = self._checkout()
            read = False  # the response was read to its end
            try:
                connection.request("GET", f"/jobs/{job_id}/events?from={index}")
                response = connection.getresponse()
                if response.status >= 400:
                    payload = json.loads(response.read() or b"{}")
                    read = True
                    if response.status == 410 and payload.get("evicted"):
                        return  # long finished; the server dropped its log
                    raise ServiceError(response.status, payload)
                for line in response:
                    line = line.strip()
                    if line:
                        failures = 0
                        index += 1
                        yield json.loads(line)
                read = True
                return  # clean end of stream: the job reached a terminal state
            except (ConnectionError, HTTPException, OSError):
                failures += 1
                if failures > self.STREAM_RESUMES:
                    raise
                time.sleep(min(self.RETRY_BACKOFF_S * (2 ** (failures - 1)), 1.0))
            finally:
                # A caller that leaves mid-stream (a break, or a TimeoutError
                # in wait()) lands here with the stream unread: closed.
                self._release(connection, read)

    def wait(self, job_id: str, *, timeout: Optional[float] = None) -> dict:
        """Follow the event stream until the job is terminal; returns the
        final status snapshot.  Falls back to polling if the stream drops."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                for event in self.events(job_id):
                    if deadline is not None and time.monotonic() > deadline:
                        raise TimeoutError(f"job {job_id} still running after {timeout}s")
                # Stream ended: the job is terminal.
                return self.status(job_id)
            except (ConnectionError, OSError):
                status = self.status(job_id)
                if status["state"] in ("done", "failed", "cancelled", "timeout"):
                    return status
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(f"job {job_id} still running after {timeout}s")
                time.sleep(0.05)

    def submit_and_wait(
        self,
        spec: Union[CampaignSpec, Mapping],
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        timeout: Optional[float] = None,
    ) -> dict:
        """Submit, wait for a terminal state, and return the final status."""
        job = self.submit(spec, priority=priority, timeout_s=timeout_s)
        return self.wait(job["id"], timeout=timeout)
