"""The simulation farm: warm workers + priority queue + shared result cache.

:class:`SimulationFarm` is the long-lived core the HTTP API and the CLI
front ends drive.  One farm owns:

* a pool of persistent worker processes (:mod:`repro.service.worker`) that
  keep built runners and compiled programs resident across jobs,
* a :class:`~repro.service.jobs.JobQueue` ordering jobs by priority with
  FIFO fairness within a priority,
* a shared content-addressed :class:`~repro.campaign.cache.ResultCache` in
  front of the queue — cells whose digest is already cached are answered at
  submit time without touching a worker, so a repeat submission of an
  identical spec is a pure cache read (hit rate 1.0, no queueing),
* optionally, a **state directory** holding a durable
  :class:`~repro.service.journal.JobJournal` (plus the persistent cache and
  the fuzz corpus): every job transition is journaled write-ahead, so a
  SIGKILL of the server loses nothing — on restart the farm replays the
  journal, re-enqueues every non-terminal job at its original priority, and
  resumes each from its completed work (campaign cells answered from the
  cache, fuzz sessions restored from the journal), bit-identical to an
  uninterrupted run, and
* a single dispatcher thread that pumps worker results, persists fresh
  outcomes into the cache, enforces per-job timeouts, watches for
  heartbeat-silent (stuck) workers, respawns dead workers (retrying their
  in-flight shard once, then failing those cells with structured error
  records), and feeds idle workers the next shard.

Two job kinds share all of that machinery: campaign grids (shards of
cells) and fuzz jobs (shards of deterministic ``(seed, budget)`` sessions,
findings streamed as they land and auto-appended to the server-side
corpus).  Backpressure is a bounded count of active jobs — saturated
submissions raise :class:`FarmSaturated`, which the HTTP layer maps to
``503`` + ``Retry-After``.

Everything observable — job state, per-cell progress, worker stats — is
mutated under one condition lock and published through job event logs, so
any number of watchers (HTTP streamers, ``Job.wait``) follow along without
polling the workers.

A long-lived farm stays bounded.  Per-request work touches only the index
of active jobs, never every job served.  A finished job keeps its full
record while it is among the newest :data:`FULL_WINDOW_JOBS`; after that
it shrinks to a compact :class:`~repro.service.jobs.RetiredJob` that still
answers status, result and idempotent resubmission, and compact records
beyond the newest :data:`COMPACT_WINDOW_JOBS` are forgotten.
"""

from __future__ import annotations

import multiprocessing
import re
import shutil
import tempfile
import threading
import time
from collections import deque
from multiprocessing import connection
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.campaign.cache import ResultCache, cell_digest
from repro.campaign.executor import CellError, resolve_workers
from repro.campaign.spec import CampaignSpec
from repro.service.jobs import (
    CAMPAIGN,
    CANCELLED,
    DONE,
    FAILED,
    FUZZ,
    QUEUED,
    RUNNING,
    TIMEOUT,
    FuzzJobSpec,
    Job,
    JobQueue,
    RetiredJob,
    Shard,
)
from repro.service.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournaledJob,
    append_jsonl,
    replay_journal,
)
from repro.service.worker import spawn_worker

#: Default number of cells per dispatched shard.  Small enough that
#: cancellation latency (one shard boundary) stays low and several workers
#: share one medium grid; large enough that the per-shard queue round trip
#: amortises.
DEFAULT_SHARD_SIZE = 4

#: Default stuck-worker watchdog threshold.  Distinct from the per-job
#: timeout: this bounds *silence* (no message from a busy worker), not total
#: job runtime.  Generous by default — cells and fuzz cases report at least
#: every second or two in practice, so minutes of silence means wedged.
DEFAULT_STUCK_TIMEOUT_S = 300.0

#: Retry-After seconds suggested to clients bounced by backpressure.
DEFAULT_RETRY_AFTER_S = 1.0

#: Finished jobs that keep their full record (cells, outcomes, event log).
#: Clients open a job's event stream right after its submit response, so
#: this only has to cover the jobs that finish in between — far more than
#: any realistic number of concurrent clients.
FULL_WINDOW_JOBS = 256

#: Compact records kept beyond the full window.  Status, result and
#: idempotency keys stay valid for this many later jobs; after that the id
#: answers 404 "expired" and its key is forgotten, as after a restart.
COMPACT_WINDOW_JOBS = 65_536

_JOB_ID = re.compile(r"^j(\d+)$")


class FarmSaturated(RuntimeError):
    """Submission rejected by backpressure (active-job bound reached).

    Carries ``retry_after_s`` so the HTTP layer can answer ``503`` with a
    concrete ``Retry-After`` header instead of a bare error.
    """

    def __init__(self, message: str, retry_after_s: float = DEFAULT_RETRY_AFTER_S):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class SimulationFarm:
    """A long-lived pool of warm simulation workers behind a job queue."""

    def __init__(
        self,
        workers: int = 0,
        *,
        cache: Union[ResultCache, Path, str, None] = None,
        preload: Sequence = (),
        shard_size: int = DEFAULT_SHARD_SIZE,
        poll_interval_s: float = 0.02,
        name: str = "splice-farm",
        state_dir: Union[Path, str, None] = None,
        queue_limit: Optional[int] = None,
        stuck_timeout_s: Optional[float] = DEFAULT_STUCK_TIMEOUT_S,
        corpus_dir: Union[Path, str, None] = None,
        history_path: Union[Path, str, None] = None,
        journal_fsync: bool = True,
    ) -> None:
        self.name = name
        self.worker_count = resolve_workers(workers)
        self.shard_size = max(1, shard_size)
        self.preload = tuple(preload)
        self._poll_interval_s = poll_interval_s
        self.queue_limit = queue_limit
        self.stuck_timeout_s = stuck_timeout_s

        # Durability: with a state dir, the journal (and, unless overridden,
        # the result cache and fuzz corpus) live inside it, so a restart on
        # the same directory sees everything a previous incarnation did.
        self.state_dir: Optional[Path] = None
        self._journal: Optional[JobJournal] = None
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._journal = JobJournal(
                self.state_dir / JOURNAL_FILENAME, fsync=journal_fsync
            )
            if cache is None:
                cache = self.state_dir / "cache"
            if corpus_dir is None:
                corpus_dir = self.state_dir / "corpus"
        self.corpus_dir = None if corpus_dir is None else Path(corpus_dir)
        self.history_path = None if history_path is None else Path(history_path)

        # Without an explicit cache directory the farm still runs one — an
        # ephemeral per-instance directory — because the cache is what makes
        # serving cheap: repeat submissions short-circuit, and the compiled
        # program cache under it is what keeps workers warm across respawns.
        self._ephemeral_cache_dir: Optional[str] = None
        if cache is None:
            self._ephemeral_cache_dir = tempfile.mkdtemp(prefix="splice-farm-cache-")
            cache = ResultCache(self._ephemeral_cache_dir)
        elif isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache

        self._cond = threading.Condition()
        #: Full records: active jobs, finished jobs with a late shard still
        #: in flight, and the full window.
        self._jobs: Dict[str, Job] = {}
        #: The active index: jobs not yet terminal.
        self._active: Dict[str, Job] = {}
        #: Ids of the finished full records, oldest first.
        self._window: deque = deque()
        #: Compact records, and their ids oldest first.
        self._retired: Dict[str, RetiredJob] = {}
        self._retired_order: deque = deque()
        #: Lifetime job counts: finished jobs by state, all jobs by kind.
        self._finished_counts = {DONE: 0, FAILED: 0, CANCELLED: 0, TIMEOUT: 0}
        self._kind_counts = {CAMPAIGN: 0, FUZZ: 0}
        self._queue = JobQueue()
        self._workers: List[WorkerHandle] = []
        self._idempotency: Dict[str, str] = {}
        self._job_seq = 0
        self._running = False
        self._draining = False
        self._started_at: Optional[float] = None
        self._ctx = multiprocessing.get_context()
        # Any thread wakes the dispatcher by writing to this pipe; workers
        # each report on a pipe of their own (see repro.service.worker).
        self._wake_reader = self._wake_writer = None
        self._wake_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self.counters = {
            "cells_total": 0,
            "cells_cached": 0,
            "cells_executed": 0,
            "cells_failed": 0,
            "cells_discarded": 0,
            "sessions_total": 0,
            "sessions_executed": 0,
            "sessions_recovered": 0,
            "sessions_failed": 0,
            "findings": 0,
            "workers_respawned": 0,
            "workers_stuck_killed": 0,
            "shards_dispatched": 0,
            "shards_retried": 0,
            "jobs_recovered": 0,
            "jobs_rejected": 0,
        }

    @property
    def lock(self) -> threading.Condition:
        """The farm-wide condition lock; hold it to read job state coherently."""
        return self._cond

    @property
    def running(self) -> bool:
        return self._running

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SimulationFarm":
        if self._running:
            return self
        self._wake_reader, self._wake_writer = self._ctx.Pipe(duplex=False)
        self._workers = [
            spawn_worker(self._ctx, worker_id, self.cache.program_cache_dir, self.preload)
            for worker_id in range(self.worker_count)
        ]
        self._running = True
        self._started_at = time.perf_counter()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name=f"{self.name}-dispatcher", daemon=True
        )
        self._dispatcher.start()
        if self._journal is not None:
            self._recover()
        return self

    def stop(self) -> None:
        if not self._running:
            return
        with self._cond:
            self._running = False
            # Unblock every waiter/streamer: whatever was still pending is
            # cancelled, terminally, before the machinery goes away.  These
            # forced cancellations are deliberately NOT journaled: on a
            # durable farm, "stopped while jobs were pending" is exactly the
            # state a restart on the same --state-dir must resume from.
            for job in list(self._active.values()):
                self._finish(job, CANCELLED, journal=False, reason="farm stopped")
        self._wake()
        self._dispatcher.join(timeout=10)
        for handle in self._workers:
            try:
                handle.task_queue.put(None)
            except (ValueError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2)
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
            handle.results.close()
        self._wake_reader.close()
        self._wake_writer.close()
        if self._journal is not None:
            self._journal.close()
        self.cache.close()
        if self._ephemeral_cache_dir is not None:
            shutil.rmtree(self._ephemeral_cache_dir, ignore_errors=True)

    def __enter__(self) -> "SimulationFarm":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission / control ----------------------------------------------------

    def submit(
        self,
        spec: Union[CampaignSpec, Mapping],
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue a campaign spec; returns the live :class:`Job`.

        Cells already present in the shared result cache are satisfied here,
        synchronously — a fully-cached submission completes without ever
        touching the queue or a worker.  A repeated ``idempotency_key``
        returns the original job instead of enqueuing a duplicate — its
        :class:`RetiredJob` if it finished long ago (the key is journaled,
        so the dedupe survives a server restart for every job that does).
        """
        self._check_accepting()
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(dict(spec))

        # Cache lookups happen outside the lock: digesting a cell hashes its
        # generated inputs, which is pure CPU and must not serialise
        # concurrent submissions more than the GIL already does.
        cached = {}
        for cell in spec.cells():
            outcome = self.cache.get(cell)
            if outcome is not None:
                cached[cell.key] = outcome

        with self._cond:
            existing = self._idempotent(idempotency_key)
            if existing is not None:
                return existing
            self._check_saturation()
            self._job_seq += 1
            job = Job(
                f"j{self._job_seq:06d}", spec,
                priority=priority, timeout_s=timeout_s, cond=self._cond,
            )
            self._register_key(job, idempotency_key)
            self._journal_append(
                "submitted", job=job.id, kind=CAMPAIGN, priority=priority,
                timeout_s=timeout_s, spec=spec.describe(),
                idempotency_key=idempotency_key,
            )
            self._admit_campaign(job, cached)
        self._journal_sync()
        self._wake()
        return job

    def submit_fuzz(
        self,
        spec: Union[FuzzJobSpec, Mapping],
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Queue a fuzz job: one deterministic session per seed in the range.

        Each session becomes its own shard, so a job's seed range spreads
        across every idle warm worker; findings stream into the job's event
        log (and the server-side corpus) as workers shrink them.
        """
        self._check_accepting()
        if not isinstance(spec, FuzzJobSpec):
            spec = FuzzJobSpec.from_dict(dict(spec))
        with self._cond:
            existing = self._idempotent(idempotency_key)
            if existing is not None:
                return existing
            self._check_saturation()
            self._job_seq += 1
            job = Job(
                f"j{self._job_seq:06d}", spec, kind=FUZZ,
                priority=priority, timeout_s=timeout_s, cond=self._cond,
            )
            self._register_key(job, idempotency_key)
            self._journal_append(
                "submitted", job=job.id, kind=FUZZ, priority=priority,
                timeout_s=timeout_s, fuzz=spec.describe(),
                idempotency_key=idempotency_key,
            )
            self._admit_fuzz(job, restored={})
        self._journal_sync()
        self._wake()
        return job

    def _check_accepting(self) -> None:
        if not self._running:
            raise RuntimeError("farm is not running (call start() first)")
        if self._draining:
            raise RuntimeError("farm is draining and not accepting new jobs")

    def _idempotent(self, key: Optional[str]) -> Union[Job, RetiredJob, None]:
        """Lock held: the already-submitted job for ``key``, if any."""
        if key is None:
            return None
        job_id = self._idempotency.get(key)
        return None if job_id is None else self.get(job_id)

    def _register_key(self, job: Job, key: Optional[str]) -> None:
        if key is not None:
            job.idempotency_key = key
            self._idempotency[key] = job.id

    def _check_saturation(self) -> None:
        """Lock held: enforce the bounded active-job depth."""
        if self.queue_limit is None:
            return
        active = len(self._active)
        if active >= self.queue_limit:
            self.counters["jobs_rejected"] += 1
            raise FarmSaturated(
                f"farm saturated: {active} active jobs (limit {self.queue_limit})"
            )

    def _journal_append(self, type_: str, **fields) -> None:
        # Buffered write only — the farm lock is held at every call site,
        # and an fsync under it would serialise the whole farm behind disk
        # latency.  Callers invoke _journal_sync() (group commit) after
        # releasing the lock, before the transition is acknowledged.
        if self._journal is not None:
            self._journal.write(type_, **fields)

    def _journal_sync(self) -> None:
        if self._journal is not None:
            self._journal.sync()

    def _journal_terminal(self, job: Job) -> None:
        """Record a terminal transition durably (and the fuzz trajectory)."""
        if job.state == CANCELLED:
            self._journal_append("cancelled", job=job.id)
            return
        self._journal_append("finished", job=job.id, state=job.state)
        if job.kind == FUZZ and job.state == DONE and self.history_path is not None:
            try:
                payload = job.fuzz_result()
                append_jsonl(self.history_path, {
                    "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                    "bench": "fuzz_farm",
                    "mode": "service",
                    "headline": {
                        "job": job.id,
                        "seed_start": job.spec.seed_start,
                        "sessions": job.spec.sessions,
                        "budget": job.spec.budget,
                        "profile": job.spec.profile,
                        "with_faults": job.spec.with_faults,
                        "executed": payload["executed"],
                        "findings": len(payload["counterexamples"]),
                        "coverage_cells": len(payload["coverage"]),
                        "coverage": payload["coverage"],
                    },
                })
            except Exception:
                # The trajectory file is observability, never worth failing
                # a finished job over (e.g. read-only checkout).
                pass

    def _register(self, job: Job) -> None:
        """Lock held: add a new job to the resident records and the active index."""
        self._jobs[job.id] = job
        self._active[job.id] = job
        self._kind_counts[job.kind] += 1

    def _finish(self, job: Job, state: str, *, journal: bool = True,
                **payload) -> None:
        """Lock held: the one way a job becomes terminal.

        Leaves the active index, journals the transition (unless
        ``journal`` is False: a stop or drain cut must be resumed by a
        restart), and retires the job unless a late shard is still in
        flight — :meth:`_release_shard` retires it when that returns.
        """
        job.pending_shards.clear()
        job.enter_state(state, **payload)
        del self._active[job.id]
        self._finished_counts[state] += 1
        if journal:
            self._journal_terminal(job)
        if not job.in_flight:
            self._retire(job)

    def _release_shard(self, job: Job, shard_id: int) -> None:
        """Lock held: drop a job's in-flight shard, retiring a finished job
        once its last late shard is back."""
        if (job.in_flight.pop(shard_id, None) is not None
                and job.is_terminal and not job.in_flight):
            self._retire(job)

    def _retire(self, job: Job) -> None:
        """Lock held: a finished job joins the full window.  The oldest full
        record beyond it shrinks to a compact one, and the oldest compact
        record beyond its window is forgotten with its idempotency key."""
        self._window.append(job.id)
        while len(self._window) > FULL_WINDOW_JOBS:
            old = self._jobs.pop(self._window.popleft())
            self._retired[old.id] = RetiredJob(old, self.cache)
            self._retired_order.append(old.id)
        while len(self._retired_order) > COMPACT_WINDOW_JOBS:
            gone = self._retired.pop(self._retired_order.popleft())
            if gone.idempotency_key is not None:
                self._idempotency.pop(gone.idempotency_key, None)

    def _admit_campaign(self, job: Job, cached: dict) -> None:
        """Lock held: register, answer cached cells, shard the rest."""
        self._register(job)
        job.cached = cached
        pending = [cell for cell in sorted(job.cells, key=lambda c: c.key)
                   if cell.key not in cached]
        self.counters["cells_total"] += len(job.cells)
        self.counters["cells_cached"] += len(cached)
        extra = {"recovered": True} if job.recovered else {}
        job.emit(
            "submitted",
            name=job.spec.name,
            kind=CAMPAIGN,
            priority=job.priority,
            timeout_s=job.timeout_s,
            cells_total=len(job.cells),
            cells_cached=len(cached),
            **extra,
        )
        if cached:
            job.emit("cached", cells=len(cached))
        if not pending:
            self._finish(job, DONE, cells_cached=len(cached))
            return
        for shard_id, start in enumerate(range(0, len(pending), self.shard_size)):
            job.pending_shards.append(
                Shard(job.id, shard_id, pending[start:start + self.shard_size])
            )
        self._queue.push(job)

    def _admit_fuzz(self, job: Job, restored: Dict[int, dict]) -> None:
        """Lock held: register a fuzz job; one shard per not-yet-run seed."""
        self._register(job)
        seeds = set(job.cells)
        for seed, payload in restored.items():
            if seed in seeds:
                job.fresh[seed] = payload
        self.counters["sessions_total"] += len(job.cells)
        self.counters["sessions_recovered"] += len(job.fresh)
        extra = {"recovered": True} if job.recovered else {}
        job.emit(
            "submitted",
            name=job.spec.name,
            kind=FUZZ,
            priority=job.priority,
            timeout_s=job.timeout_s,
            seed_start=job.spec.seed_start,
            sessions=job.spec.sessions,
            budget=job.spec.budget,
            profile=job.spec.profile,
            with_faults=job.spec.with_faults,
            sessions_done=len(job.fresh),
            **extra,
        )
        pending = [seed for seed in job.cells if seed not in job.fresh]
        if not pending:
            self._finish(job, DONE, sessions=len(job.fresh))
            return
        for shard_id, seed in enumerate(pending):
            job.pending_shards.append(Shard(job.id, shard_id, [seed]))
        self._queue.push(job)

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: re-enqueue every non-terminal job.

        Campaign jobs resume through the shared result cache — every cell a
        previous incarnation completed was persisted there before its
        ``shard_done`` record, so re-admission answers those cells at
        submit time and only the remainder is re-sharded.  Fuzz jobs resume
        from the journaled session payloads (the deterministic record of
        each completed seed).  Job ids, priorities and idempotency keys are
        preserved; the journal is compacted so repeated crash/restart
        cycles do not grow it.
        """
        replay = replay_journal(self._journal.path)
        self._job_seq = max(self._job_seq, replay.seq)
        live = replay.live_jobs()
        self._journal.compact(replay.compaction_records())
        for record in live:
            try:
                self._readmit(record)
                self.counters["jobs_recovered"] += 1
            except Exception:
                # A job whose spec no longer parses (code changed across
                # the restart) must not prevent the farm from serving; its
                # cells were never promised beyond the journal.
                continue
        if live:
            self._wake()

    def _readmit(self, record: JournaledJob) -> None:
        if record.kind == FUZZ:
            spec = FuzzJobSpec.from_dict(dict(record.payload))
            with self._cond:
                job = Job(record.job_id, spec, kind=FUZZ,
                          priority=record.priority, timeout_s=record.timeout_s,
                          cond=self._cond)
                job.recovered = True
                self._register_key(job, record.idempotency_key)
                self._admit_fuzz(job, restored=record.sessions)
            return
        spec = CampaignSpec.from_dict(dict(record.payload))
        cached = {}
        for cell in spec.cells():
            outcome = self.cache.get(cell)
            if outcome is not None:
                cached[cell.key] = outcome
        with self._cond:
            job = Job(record.job_id, spec,
                      priority=record.priority, timeout_s=record.timeout_s,
                      cond=self._cond)
            job.recovered = True
            self._register_key(job, record.idempotency_key)
            self._admit_campaign(job, cached)

    # -- control -----------------------------------------------------------------

    def get(self, job_id: str) -> Union[Job, RetiredJob, None]:
        """The job's full record, its compact record, or None if the farm
        never issued the id or has forgotten it."""
        with self._cond:
            job = self._jobs.get(job_id)
            return job if job is not None else self._retired.get(job_id)

    def expired(self, job_id: str) -> bool:
        """True for an id this farm (or an earlier run on its state dir)
        issued but no longer remembers."""
        match = _JOB_ID.match(job_id)
        return match is not None and 0 < int(match.group(1)) <= self._job_seq

    def job_for_key(self, idempotency_key: str) -> Union[Job, RetiredJob, None]:
        """The job a previous submission with this key created, if any."""
        with self._cond:
            return self._idempotent(idempotency_key)

    def jobs(self) -> List[Job]:
        """Resident jobs: the active ones plus the full window."""
        return list(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs drop instantly; a running job stops at
        the next shard boundary (its in-flight shard results are discarded).
        Returns False if the job is unknown or already terminal."""
        with self._cond:
            job = self._active.get(job_id)
            if job is None:
                return False
            self._finish(job, CANCELLED, shards_in_flight=len(job.in_flight))
        self._journal_sync()
        return True

    def drain(self, timeout_s: Optional[float] = None) -> dict:
        """Graceful shutdown, phase one: stop accepting, let work finish.

        New submissions are rejected immediately (the HTTP layer maps the
        ``RuntimeError`` to a 503), but every already-accepted job keeps
        dispatching and running to completion.  Blocks until all jobs are
        terminal or ``timeout_s`` elapses; jobs still unfinished at the
        deadline are cancelled with a terminal ``drain timeout`` event so no
        watcher is left hanging.  Call :meth:`stop` afterwards to tear the
        workers down.
        """
        deadline = None if timeout_s is None else time.perf_counter() + timeout_s
        with self._cond:
            self._draining = True
            while self._active and self._running:
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    break
                # Job state changes notify the shared condition, so this
                # wakes at every cell/shard/terminal event; the cap only
                # bounds staleness if a notification is missed.
                self._cond.wait(timeout=0.1 if remaining is None else min(0.1, remaining))
            leftovers = list(self._active.values())
            for job in leftovers:
                self._finish(job, CANCELLED, journal=False,
                             reason="drain timeout", cells_done=job.cells_done)
            return {
                "drained": not leftovers,
                "cancelled": [job.id for job in leftovers],
            }

    def kill_worker(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Chaos hook: SIGKILL one worker process (a busy one if any).

        Returns the killed worker id, or ``None`` if no live worker matched.
        The dispatcher's normal crash policy takes over from there: the dead
        worker is respawned, its in-flight shard is retried once, and a
        second death yields structured ``worker_crash`` cell errors — the
        exact path real OOM kills and segfaults exercise, made injectable
        for the chaos bench and the service smoke tests.
        """
        with self._cond:
            candidates = [w for w in self._workers if w.process.is_alive()]
            if worker_id is not None:
                candidates = [w for w in candidates if w.worker_id == worker_id]
            if not candidates:
                return None
            busy = [w for w in candidates if w.busy is not None]
            target = (busy or candidates)[0]
            target.process.kill()
            return target.worker_id

    # -- dispatcher --------------------------------------------------------------

    def _wake(self) -> None:
        """Cut the dispatcher's wait short (safe from any thread)."""
        with self._wake_lock:
            self._wake_writer.send(("wake",))

    def _dispatch_loop(self) -> None:
        while True:
            # Only this thread replaces workers, so the list needs no lock.
            readers = [w.results for w in self._workers if not w.results.closed]
            try:
                ready = connection.wait(readers + [self._wake_reader],
                                        timeout=self._poll_interval_s)
            except OSError:
                return
            with self._cond:
                if not self._running:
                    return
                for reader in ready:
                    self._drain(reader)
                self._check_timeouts()
                self._check_stuck()
                self._check_workers()
                self._dispatch_ready()
            self._journal_sync()

    def _drain(self, reader) -> None:
        """Handle every message already waiting on ``reader``."""
        try:
            while reader.poll():
                self._handle(reader.recv())
        except (EOFError, OSError):
            # The worker has exited, possibly mid-message; _check_workers
            # respawns it once the process is reaped.
            reader.close()

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "wake":
            return
        # Every worker→parent message carries the worker id at index 1;
        # any message is proof of life for the stuck-worker watchdog.
        worker_id = message[1]
        if 0 <= worker_id < len(self._workers):
            self._workers[worker_id].last_message_at = time.perf_counter()
        if kind == "heartbeat":
            return
        if kind == "ready":
            _, worker_id, stats = message
            handle = self._workers[worker_id]
            handle.ready = True
            handle.stats = stats
            return
        if kind == "cell":
            _, worker_id, job_id, shard_id, key, outcome = message
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                self.counters["cells_discarded"] += 1
                return
            # Keyed by the job's own cell: the message's key is an unpickled
            # copy, and the full record would keep it alive.
            cell = job.in_flight[shard_id].cell(key)
            job.fresh[cell.key] = outcome
            self.counters["cells_executed"] += 1
            self.cache.put(cell, outcome)
            extra = {} if cell.faults is None else {"faults": cell.faults}
            job.emit(
                "cell",
                label=cell.label,
                scenario=cell.scenario.number,
                seed=cell.seed,
                repeat=cell.repeat,
                kernel=cell.kernel,
                **extra,
                result=outcome[0],
                cycles=outcome[1],
                transactions=outcome[2],
                worker=worker_id,
                done=job.cells_done,
                total=len(job.cells),
            )
            return
        if kind == "cell_error":
            _, worker_id, job_id, shard_id, key, error = message
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                self.counters["cells_discarded"] += 1
                return
            cell = job.in_flight[shard_id].cell(key)
            job.errors[cell.key] = error
            self.counters["cells_failed"] += 1
            extra = {} if cell.faults is None else {"faults": cell.faults}
            job.emit(
                "cell_error",
                label=cell.label,
                scenario=cell.scenario.number,
                seed=cell.seed,
                repeat=cell.repeat,
                **extra,
                error=error.describe(),
                worker=worker_id,
                done=job.cells_done,
                total=len(job.cells),
            )
            return
        if kind == "finding":
            _, worker_id, job_id, shard_id, record = message
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                return
            self.counters["findings"] += 1
            verdict = record.get("verdict", {}) if isinstance(record, dict) else {}
            job.emit(
                "finding",
                kind=record.get("kind"),
                token=record.get("token"),
                kernel=verdict.get("kernel"),
                detail=verdict.get("detail"),
                worker=worker_id,
                shard=shard_id,
            )
            self._save_finding(record)
            return
        if kind == "fuzz_error":
            _, worker_id, job_id, shard_id, seed, text = message
            self._finish_worker_shard(worker_id, job_id, shard_id)
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                return
            job.errors[seed] = CellError(kind="fuzz_error", message=text)
            self.counters["sessions_failed"] += 1
            job.emit("session_error", seed=seed, error=text, worker=worker_id,
                     done=job.cells_done, total=len(job.cells))
            self._maybe_finalize(job)
            return
        if kind == "fuzz_done":
            _, worker_id, job_id, shard_id, payload, duration_s, stats = message
            self._workers[worker_id].stats = stats
            self._finish_worker_shard(worker_id, job_id, shard_id)
            job = self._jobs.get(job_id)
            if job is None or job.is_terminal:
                return
            seed = payload["seed"]
            job.fresh[seed] = payload
            self.counters["sessions_executed"] += 1
            self._journal_append("shard_done", job=job_id, shard=shard_id,
                                 seed=seed, session=payload)
            job.emit(
                "session",
                seed=seed,
                executed=payload["executed"],
                rounds=payload["rounds"],
                findings=len(payload["counterexamples"]),
                coverage=len(payload["coverage"]),
                duration_s=duration_s,
                worker=worker_id,
                done=job.cells_done,
                total=len(job.cells),
            )
            self._maybe_finalize(job)
            return
        if kind == "shard_done":
            _, worker_id, job_id, shard_id, stats = message
            self._workers[worker_id].stats = stats
            job = self._jobs.get(job_id)
            if (self._journal is not None and job is not None
                    and job.kind == CAMPAIGN):
                shard = job.in_flight.get(shard_id)
                if shard is not None:
                    # Digests only: the outcomes were already persisted to
                    # the shared ResultCache per cell, so recovery answers
                    # this shard from the cache; the record documents which
                    # cells are durably done (and is cheap — cell_digest is
                    # memoised from the submit-time cache lookup).
                    self._journal_append(
                        "shard_done", job=job_id, shard=shard_id,
                        cells=[cell_digest(c) for c in shard.cells],
                    )
            self._finish_worker_shard(worker_id, job_id, shard_id)
            if job is not None and not job.is_terminal:
                self._maybe_finalize(job)

    def _finish_worker_shard(self, worker_id: int, job_id: str, shard_id: int) -> None:
        """Lock held: clear the worker's busy slot and the job's in-flight."""
        handle = self._workers[worker_id]
        shard = handle.busy
        handle.busy = None
        if shard is not None and shard.dispatched_at is not None:
            handle.busy_s += time.perf_counter() - shard.dispatched_at
        job = self._jobs.get(job_id)
        if job is not None:
            self._release_shard(job, shard_id)

    def _save_finding(self, record) -> None:
        """Append one streamed counterexample to the server-side corpus."""
        if self.corpus_dir is None or not isinstance(record, dict):
            return
        try:
            from repro.fuzz.corpus import Counterexample, save_case

            save_case(Counterexample.from_dict(record), self.corpus_dir)
        except Exception:
            # Corpus growth is best-effort; a malformed record or full disk
            # must not take the dispatcher down.
            pass

    def _maybe_finalize(self, job: Job) -> None:
        """Lock held: finish the job once every cell is accounted for."""
        if job.pending_shards or job.in_flight:
            return
        if job.cells_done < len(job.cells):
            return
        if job.errors:
            self._finish(job, FAILED, cells_failed=len(job.errors))
        else:
            self._finish(job, DONE, cells_executed=len(job.fresh),
                         cells_cached=len(job.cached))

    def _check_timeouts(self) -> None:
        now = time.perf_counter()
        expired = [job for job in self._active.values()
                   if job.deadline is not None and now >= job.deadline]
        for job in expired:
            self._finish(job, TIMEOUT, timeout_s=job.timeout_s,
                         cells_done=job.cells_done)

    def _check_stuck(self) -> None:
        """SIGKILL busy workers that have gone heartbeat-silent.

        Distinct from the per-job timeout: a stuck worker (wedged simulation,
        deadlocked native call) stops *messaging* while its job's clock may
        have plenty left.  The kill feeds the normal dead-worker path below
        — respawn, one retry — but the death is attributed, so a shard whose
        retry also goes silent fails with ``worker_stuck`` errors rather
        than ``worker_crash``.
        """
        if self.stuck_timeout_s is None:
            return
        now = time.perf_counter()
        for handle in self._workers:
            shard = handle.busy
            # A killed worker can still read as alive until it is reaped.
            if shard is None or handle.stuck_kill or not handle.process.is_alive():
                continue
            marks = [t for t in (shard.dispatched_at, handle.last_message_at)
                     if t is not None]
            if not marks or now - max(marks) <= self.stuck_timeout_s:
                continue
            handle.stuck_kill = True
            self.counters["workers_stuck_killed"] += 1
            job = self._jobs.get(shard.job_id)
            if job is not None and not job.is_terminal:
                job.emit("worker_stuck", worker=handle.worker_id,
                         shard=shard.shard_id,
                         silent_s=round(now - max(marks), 3))
            handle.process.kill()

    def _check_workers(self) -> None:
        for index, handle in enumerate(self._workers):
            if handle.process.is_alive():
                continue
            shard = handle.busy
            stuck = handle.stuck_kill
            self.counters["workers_respawned"] += 1
            handle.task_queue.close()
            handle.task_queue.cancel_join_thread()
            if not handle.results.closed:
                # Keep whatever the worker reported before it died.
                self._drain(handle.results)
                handle.results.close()
            replacement = spawn_worker(
                self._ctx, handle.worker_id, self.cache.program_cache_dir, self.preload,
            )
            replacement.respawns = handle.respawns + 1
            replacement.busy_s = handle.busy_s
            replacement.dispatched = handle.dispatched
            self._workers[index] = replacement
            if shard is None:
                continue
            job = self._jobs.get(shard.job_id)
            if job is None:
                continue
            self._release_shard(job, shard.shard_id)
            if job.is_terminal:
                continue
            if shard.attempts <= 1:
                # One retry on the fresh worker — same policy as the batch
                # ShardedExecutor.  Partial results the dead worker already
                # reported are kept; re-running those cells overwrites them
                # with identical values (cells are deterministic).
                self.counters["shards_retried"] += 1
                job.pending_shards.insert(0, shard)
                self._queue.push(job)
                job.emit("shard_retry", shard=shard.shard_id,
                         worker=handle.worker_id, stuck=stuck)
            else:
                cause = "worker_stuck" if stuck else "worker_crash"
                detail = ("went heartbeat-silent running" if stuck
                          else "died running")
                error = CellError(
                    kind=cause,
                    message=(
                        f"worker {handle.worker_id} {detail} shard "
                        f"{shard.shard_id} and the retry "
                        f"{'went silent' if stuck else 'died'} too"
                    ),
                )
                failed = 0
                for cell in shard.cells:
                    key = getattr(cell, "key", cell)
                    if key not in job.fresh and key not in job.errors:
                        job.errors[key] = error
                        failed += 1
                if job.kind == FUZZ:
                    self.counters["sessions_failed"] += failed
                else:
                    self.counters["cells_failed"] += failed
                job.emit("shard_failed", shard=shard.shard_id,
                         worker=handle.worker_id, cells_failed=failed,
                         cause=cause)
                self._maybe_finalize(job)

    def _dispatch_ready(self) -> None:
        while True:
            handle = next(
                (w for w in self._workers if w.busy is None and w.process.is_alive()),
                None,
            )
            if handle is None:
                return
            job = self._queue.pop()
            if job is None:
                return
            shard = job.pending_shards.pop(0)
            if job.pending_shards:
                self._queue.push(job)
            if job.state == QUEUED:
                job.enter_state(RUNNING)
            shard.attempts += 1
            shard.worker_id = handle.worker_id
            shard.dispatched_at = time.perf_counter()
            job.in_flight[shard.shard_id] = shard
            handle.busy = shard
            handle.dispatched += 1
            self.counters["shards_dispatched"] += 1
            self._journal_append("shard_dispatched", job=job.id,
                                 shard=shard.shard_id,
                                 worker=handle.worker_id,
                                 attempt=shard.attempts)
            if job.kind == FUZZ:
                spec = job.spec
                handle.task_queue.put(("fuzz", job.id, shard.shard_id, {
                    "seed": shard.cells[0],
                    "budget": spec.budget,
                    "profile": spec.profile,
                    "with_faults": spec.with_faults,
                    "timeout_s": spec.case_timeout_s,
                }))
            else:
                handle.task_queue.put(("shard", job.id, shard.shard_id, shard.cells))

    # -- observation -------------------------------------------------------------

    def stats(self) -> dict:
        """Queue depth, per-worker stats, utilization, cache hit rate."""
        # Counted before taking the farm lock, which every submit and the
        # dispatcher need: the count reads the whole store.
        cache_entries = len(self.cache)
        with self._cond:
            worker_records = [w.snapshot() for w in self._workers]
            busy = sum(1 for w in self._workers if w.busy is not None)
            states = dict({QUEUED: 0, RUNNING: 0}, **self._finished_counts)
            for job in self._active.values():
                states[job.state] += 1
            active = len(self._active)
            uptime = (time.perf_counter() - self._started_at
                      if self._started_at is not None else 0.0)
            total = self.counters["cells_total"]
            cached = self.counters["cells_cached"]
            busy_area = sum(w.busy_s for w in self._workers)
            return {
                "name": self.name,
                "running": self._running,
                "draining": self._draining,
                "uptime_s": round(uptime, 6),
                "worker_count": len(self._workers),
                "workers_busy": busy,
                "utilization": (busy / len(self._workers)) if self._workers else 0.0,
                "utilization_lifetime": (
                    busy_area / (uptime * len(self._workers))
                    if uptime > 0 and self._workers else 0.0
                ),
                "workers": worker_records,
                "queue_depth": states[QUEUED],
                "active_jobs": active,
                "queue_limit": self.queue_limit,
                "saturated": (self.queue_limit is not None
                              and active >= self.queue_limit),
                "jobs": dict(states, submitted=self._job_seq),
                "job_kinds": dict(self._kind_counts),
                "jobs_resident": len(self._jobs),
                "jobs_compact": len(self._retired),
                "cells": dict(self.counters),
                "cache_hit_rate": (cached / total) if total else None,
                "cache_entries": cache_entries,
                "shard_size": self.shard_size,
                "stuck_timeout_s": self.stuck_timeout_s,
                "durable": self._journal is not None,
                "state_dir": (None if self.state_dir is None
                              else str(self.state_dir)),
                "journal_records": (0 if self._journal is None
                                    else self._journal.records_written),
            }
