"""Durable write-ahead journal for the simulation farm.

Everything the farm needs to survive a SIGKILL of the *server* process is
one append-only NDJSON file under ``--state-dir``: one JSON line per job
state transition.  The journal always fsyncs; the farm writes records
under its lock and commits them with one group fsync after releasing it,
before it acknowledges the transition.  The journal is written *before*
the transition is acted on (write-ahead), so after a hard kill the farm
can replay the file and reconstruct every job that had been accepted but
had not reached a terminal state.

Record types (each a JSON object with a ``"type"`` key):

``journal``
    Header written at compaction: schema version plus the highest job
    sequence number ever issued, so restarts never reuse a job id a client
    might still be polling — even after terminal jobs' records are dropped.
``submitted``
    One per accepted job: id, kind (``campaign`` / ``fuzz``), the full spec
    payload (enough to re-expand the identical cell grid or seed range),
    priority, timeout and the client idempotency key if one was sent.
``shard_dispatched``
    Observability: which shard went to which worker on which attempt.
``shard_done``
    Campaign shards record the content digests of their cells — the
    outcomes themselves live in the shared :class:`ResultCache`, so
    recovery answers these cells from the cache and never re-executes
    them.  Fuzz shards record the complete deterministic session payload
    (the journal is the only durable copy of a fuzz result).
``cancelled`` / ``finished``
    Terminal transitions.  A job with one of these is not recovered.

Recovery tolerates a torn final line (the crash may land mid-``write``):
unparseable lines are counted and skipped, never fatal.  On restart the
farm compacts the journal — rewrites it atomically with only the records
still needed (header, live jobs' submissions, completed fuzz sessions) —
so the file does not grow across crash/restart cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

JOURNAL_VERSION = 1

#: Filename of the journal inside a farm state directory.
JOURNAL_FILENAME = "journal.jsonl"


def append_jsonl(path: Union[str, Path], record: dict) -> None:
    """Append one JSON line to ``path``, creating parent directories.

    The standalone helper (as opposed to :class:`JobJournal`) is for
    low-frequency appends that do not keep a file handle open — e.g. the
    fuzz-coverage record the farm appends, per finished fuzz job, to the
    file its caller names as ``history_path``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line)
        fh.flush()


class JobJournal:
    """Append-only NDJSON journal, safe for concurrent appenders.

    Always durable: :meth:`sync` fsyncs every record written before it, and
    :meth:`compact` and :meth:`close` fsync too.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self._fh = open(self.path, "a", encoding="utf-8")
        self.records_written = 0
        self._written = 0
        self._synced = 0

    def write(self, type_: str, **fields) -> dict:
        """Append one record to the OS (buffered, flushed, *not* fsync'd).

        Pair with :meth:`sync` once the caller is past its critical
        section — the farm writes records while holding its job lock but
        fsyncs after releasing it, so concurrent submitters never queue
        behind disk latency.
        """
        record = {"type": type_, "wall": round(time.time(), 3)}
        record.update(fields)
        line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            self._fh.write(line)
            self._fh.flush()
            self._written += 1
            self.records_written += 1
        return record

    def sync(self) -> None:
        """Make every record written so far durable (group commit).

        One ``fsync`` covers all records flushed before it, so when many
        threads call :meth:`sync` concurrently most of them find their
        record already covered by a neighbour's fsync and return without
        touching the disk.
        """
        target = self._written
        with self._sync_lock:
            if self._synced >= target:
                return
            with self._lock:
                if self._fh.closed:
                    return
                covered = self._written
                fd = self._fh.fileno()
            os.fsync(fd)
            if self._synced < covered:
                self._synced = covered

    def append(self, type_: str, **fields) -> dict:
        """Write one record durably; returns the record as written."""
        record = self.write(type_, **fields)
        self.sync()
        return record

    def compact(self, records: List[dict]) -> None:
        """Atomically replace the journal's contents with ``records``.

        Written to a unique temp file, fsync'd, then ``os.replace``d over
        the journal — a crash mid-compaction leaves either the old journal
        or the new one, never a mix.
        """
        with self._sync_lock, self._lock:
            self._fh.close()
            tmp = self.path.with_name(
                f".{self.path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
            )
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True,
                                        separators=(",", ":")) + "\n")
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            self._synced = self._written

    def close(self) -> None:
        with self._sync_lock, self._lock:
            if not self._fh.closed:
                self._fh.flush()
                os.fsync(self._fh.fileno())
                self._fh.close()
            self._synced = self._written


@dataclass
class JournaledJob:
    """One job reconstructed from the journal."""

    job_id: str
    kind: str
    priority: int
    timeout_s: Optional[float]
    #: The spec payload: ``CampaignSpec.describe()`` or ``FuzzJobSpec.describe()``.
    payload: dict
    idempotency_key: Optional[str]
    submitted_record: dict
    #: Raw ``shard_done`` records, in completion order.
    shards_done: List[dict] = field(default_factory=list)
    #: Fuzz only: completed deterministic session payloads, keyed by seed.
    sessions: Dict[int, dict] = field(default_factory=dict)
    #: Terminal state (``done``/``failed``/``timeout``/``cancelled``) or None.
    terminal: Optional[str] = None

    @property
    def live(self) -> bool:
        return self.terminal is None


@dataclass
class JournalReplay:
    """Everything :func:`replay_journal` reconstructed."""

    #: Jobs in submission order (dict preserves insertion order).
    jobs: Dict[str, JournaledJob]
    #: Highest job sequence number observed (header or parsed from ids).
    seq: int
    #: Total records parsed.
    records: int
    #: Unparseable lines skipped (a torn tail line after a crash is normal).
    skipped: int

    def live_jobs(self) -> List[JournaledJob]:
        return [job for job in self.jobs.values() if job.live]

    def compaction_records(self) -> List[dict]:
        """The minimal record set a compacted journal must keep."""
        records: List[dict] = [
            {"type": "journal", "version": JOURNAL_VERSION, "seq": self.seq}
        ]
        for job in self.live_jobs():
            records.append(job.submitted_record)
            # Completed fuzz sessions are only durable here; campaign
            # shard_done digests are redundant with the ResultCache and
            # dropped (their shard ids are reassigned on re-admission).
            for record in job.shards_done:
                if "session" in record:
                    records.append(record)
        return records


def _job_seq_of(job_id: str) -> int:
    digits = "".join(ch for ch in job_id if ch.isdigit())
    try:
        return int(digits)
    except ValueError:
        return 0


def replay_journal(path: Union[str, Path]) -> JournalReplay:
    """Parse the journal into per-job state.  Missing file → empty replay."""
    jobs: Dict[str, JournaledJob] = {}
    seq = 0
    records = 0
    skipped = 0
    path = Path(path)
    if not path.exists():
        return JournalReplay(jobs=jobs, seq=0, records=0, skipped=0)
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                kind = record["type"]
            except (ValueError, KeyError, TypeError):
                skipped += 1
                continue
            records += 1
            if kind == "journal":
                seq = max(seq, int(record.get("seq", 0)))
                continue
            job_id = record.get("job")
            if not isinstance(job_id, str):
                skipped += 1
                continue
            if kind == "submitted":
                seq = max(seq, _job_seq_of(job_id))
                job_kind = str(record.get("kind", "campaign"))
                payload = record.get("fuzz" if job_kind == "fuzz" else "spec")
                if not isinstance(payload, dict):
                    skipped += 1
                    continue
                timeout_raw = record.get("timeout_s")
                jobs[job_id] = JournaledJob(
                    job_id=job_id,
                    kind=job_kind,
                    priority=int(record.get("priority", 0)),
                    timeout_s=None if timeout_raw is None else float(timeout_raw),
                    payload=payload,
                    idempotency_key=record.get("idempotency_key"),
                    submitted_record=record,
                )
                continue
            job = jobs.get(job_id)
            if job is None:
                skipped += 1
                continue
            if kind == "shard_done":
                job.shards_done.append(record)
                session = record.get("session")
                if isinstance(session, dict) and "seed" in record:
                    job.sessions[int(record["seed"])] = session
            elif kind == "cancelled":
                job.terminal = "cancelled"
            elif kind == "finished":
                job.terminal = str(record.get("state", "done"))
            # shard_dispatched and unknown types carry no recovery state.
    return JournalReplay(jobs=jobs, seq=seq, records=records, skipped=skipped)
