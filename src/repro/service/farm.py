"""The simulation farm: warm workers + priority queue + shared result cache.

:class:`SimulationFarm` is the long-lived service the HTTP API and the CLI
front ends drive.  Every scheduling decision — queue order, shard sizes,
dispatch, the crash, retry, timeout and stuck-worker policies,
idempotency, backpressure and retention — is made by its
:class:`~repro.service.scheduler.Scheduler`, which does no I/O.  The farm
is the shell that feeds it events and carries out its effects.  It owns:

* persistent worker processes (:mod:`repro.service.worker`) that keep
  built runners and compiled programs resident across jobs, and their pipes;
* a shared content-addressed :class:`~repro.campaign.cache.ResultCache` in
  front of the queue — cells whose digest is already cached are answered at
  submit time, so a repeat submission of an identical spec is a pure cache
  read (hit rate 1.0, no queueing, no worker);
* optionally, a **state directory** holding a durable
  :class:`~repro.service.journal.JobJournal` (plus the persistent cache and
  the fuzz corpus): every job transition is journaled write-ahead, so a
  SIGKILL of the server loses nothing — on restart the farm replays the
  journal and re-admits every non-terminal job, which resumes from its
  completed work (campaign cells from the cache, fuzz sessions from the
  journal), bit-identical to an uninterrupted run;
* the one condition lock under which the scheduler runs and its effects
  are applied; journal records written under it are fsync'd as a group
  once it is released;
* a dispatcher thread that hands the scheduler every worker message (and
  carries out its effects before reading the next), each worker's exit
  after that worker's last messages, and a tick at least every
  :data:`POLL_INTERVAL_S`.  If the thread raises, every active job fails
  with the error.

Campaign grids (shards of cells) and fuzz jobs (one deterministic
``(seed, budget)`` session per shard, findings streamed as they land and
appended to the server-side corpus) share all of it.  Saturated
submissions raise :class:`FarmSaturated`, which the HTTP layer maps to
``503`` + ``Retry-After``.  A finished job keeps its full record while it
is among the newest :data:`FULL_WINDOW_JOBS`, then shrinks to a compact
:class:`~repro.service.jobs.RetiredJob`; compact records beyond the newest
:data:`COMPACT_WINDOW_JOBS` are forgotten.
"""

from __future__ import annotations

import multiprocessing
import re
import shutil
import tempfile
import threading
import time
from multiprocessing import connection
from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import resolve_workers
from repro.campaign.spec import CampaignSpec
from repro.service.jobs import (
    CAMPAIGN,
    CANCELLED,
    FUZZ,
    QUEUED,
    RUNNING,
    FuzzJobSpec,
    Job,
    RetiredJob,
)
from repro.service.journal import JOURNAL_FILENAME, JobJournal, append_jsonl, replay_journal
from repro.service.scheduler import FarmSaturated, Scheduler
from repro.service.worker import WorkerHandle, spawn_worker

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

#: Finished jobs that keep their full record (cells, outcomes, event log).
#: Clients open a job's event stream right after its submit response, so
#: this only has to cover the jobs that finish in between — far more than
#: any realistic number of concurrent clients.
FULL_WINDOW_JOBS = 256

#: Compact records kept beyond the full window.  Status, result and
#: idempotency keys stay valid for this many later jobs; after that the id
#: answers 404 "expired" and its key is forgotten, as after a restart.
COMPACT_WINDOW_JOBS = 65_536

#: Longest the dispatcher waits for a worker message or a wake-up before it
#: ticks the scheduler anyway: the resolution of timeouts and the watchdog.
POLL_INTERVAL_S = 0.02

_JOB_ID = re.compile(r"^j(\d+)$")


class SimulationFarm:
    """A long-lived pool of warm simulation workers behind a job queue.

    Both retention windows are read when the farm is built.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        cache: Union[ResultCache, Path, str, None] = None,
        preload: Sequence = (),
        shard_size: int = DEFAULT_SHARD_SIZE,
        name: str = "splice-farm",
        state_dir: Union[Path, str, None] = None,
        queue_limit: Optional[int] = None,
        stuck_timeout_s: Optional[float] = DEFAULT_STUCK_TIMEOUT_S,
        corpus_dir: Union[Path, str, None] = None,
        history_path: Union[Path, str, None] = None,
    ) -> None:
        self.name = name
        self.worker_count = resolve_workers(workers)
        self.shard_size = max(1, shard_size)
        self.preload = tuple(preload)
        self.queue_limit = queue_limit

        # Durability: with a state dir, the journal (and, unless overridden,
        # the result cache and fuzz corpus) live inside it, so a restart on
        # the same directory sees everything a previous incarnation did.
        self.state_dir: Optional[Path] = None
        self._journal: Optional[JobJournal] = None
        if state_dir is not None:
            self.state_dir = Path(state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
            self._journal = JobJournal(self.state_dir / JOURNAL_FILENAME)
            if cache is None:
                cache = self.state_dir / "cache"
            if corpus_dir is None:
                corpus_dir = self.state_dir / "corpus"
        self.corpus_dir = None if corpus_dir is None else Path(corpus_dir)
        self.history_path = None if history_path is None else Path(history_path)

        # Without an explicit cache directory the farm still runs one — an
        # ephemeral per-instance directory — because the cache is what makes
        # serving cheap: repeat submissions short-circuit.
        self._ephemeral_cache_dir: Optional[str] = None
        if cache is None:
            self._ephemeral_cache_dir = tempfile.mkdtemp(prefix="splice-farm-cache-")
            cache = ResultCache(self._ephemeral_cache_dir)
        elif isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache

        self._cond = threading.Condition()
        self._core = Scheduler(
            self.worker_count, clock=time.perf_counter, shard_size=self.shard_size,
            stuck_timeout_s=stuck_timeout_s, full_window=FULL_WINDOW_JOBS,
            compact_window=COMPACT_WINDOW_JOBS, queue_limit=queue_limit,
            durable=self._journal is not None, cache=cache, cond=self._cond,
        )
        #: The scheduler's worker slots (entries are replaced, never the list)
        #: and counters.
        self._workers = self._core.workers
        self.counters = self._core.counters
        #: The worker processes and their pipes, by worker id.
        self._procs: List[WorkerHandle] = []
        self._running = False
        self._started_at: Optional[float] = None
        self._ctx = multiprocessing.get_context()
        # Any thread wakes the dispatcher by writing to this pipe; workers
        # each report on a pipe of their own (see repro.service.worker).
        self._wake_reader = self._wake_writer = None
        self._wake_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None

    @property
    def lock(self) -> threading.Condition:
        """The farm-wide condition lock; hold it to read job state coherently."""
        return self._cond

    @property
    def running(self) -> bool:
        return self._running

    @property
    def stuck_timeout_s(self) -> Optional[float]:
        """Seconds of silence after which a busy worker is killed (None: never)."""
        return self._core.stuck_timeout_s

    @stuck_timeout_s.setter
    def stuck_timeout_s(self, value: Optional[float]) -> None:
        self._core.stuck_timeout_s = value

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "SimulationFarm":
        if self._running:
            return self
        self._wake_reader, self._wake_writer = self._ctx.Pipe(duplex=False)
        self._procs = [self._spawn(worker_id) for worker_id in range(self.worker_count)]
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
            # Unblock every waiter and streamer: whatever was still pending
            # ends cancelled before the machinery goes away.
            self._core.abort(CANCELLED, "farm stopped")
            self._apply()
        self._wake()
        self._dispatcher.join(timeout=10)
        for handle in self._procs:
            try:
                handle.task_queue.put(None)
            except (ValueError, OSError):
                pass
        for handle in self._procs:
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
        return self._submit(CAMPAIGN, spec, priority=priority, timeout_s=timeout_s,
                            idempotency_key=idempotency_key)

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
        return self._submit(FUZZ, spec, priority=priority, timeout_s=timeout_s,
                            idempotency_key=idempotency_key)

    def _submit(self, kind: str, spec, cached: Optional[dict] = None, **admission) -> Job:
        """Admit a job through the scheduler (see :meth:`Scheduler.submit`).

        A campaign's cached cells are looked up first unless the caller did:
        ``run_campaign`` passes its own lookup, and ``persist=False`` when
        it has no cache, so nothing then goes to this farm's store.
        """
        if kind == CAMPAIGN and cached is None:
            # Outside the lock: digesting a cell hashes its generated inputs,
            # which is pure CPU and must not serialise concurrent submissions
            # more than the GIL already does.
            cached = self.cache.lookup(spec.cells())
        with self._cond:
            job = self._core.submit(kind, spec, cached=cached, **admission)
            self._apply()
        self._journal_sync()
        self._wake()
        return job

    def _check_accepting(self) -> None:
        if not self._running:
            raise RuntimeError("farm is not running (call start() first)")
        self._core.check_accepting()

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        """Replay the journal: re-admit every non-terminal job.

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
        self._core.seq = max(self._core.seq, replay.seq)
        self._journal.compact(replay.compaction_records())
        for record in replay.live_jobs():
            kind = FUZZ if record.kind == FUZZ else CAMPAIGN
            try:
                spec = (FuzzJobSpec if kind == FUZZ else CampaignSpec).from_dict(
                    dict(record.payload))
                self._submit(kind, spec, priority=record.priority,
                             timeout_s=record.timeout_s,
                             idempotency_key=record.idempotency_key,
                             job_id=record.job_id, restored=record.sessions)
            except Exception:
                # A job whose spec no longer parses (code changed across
                # the restart) must not prevent the farm from serving; its
                # cells were never promised beyond the journal.
                continue

    # -- control -----------------------------------------------------------------

    def get(self, job_id: str) -> Union[Job, RetiredJob, None]:
        """The job's full record, its compact record, or None if the farm
        never issued the id or has forgotten it."""
        with self._cond:
            return self._core.get(job_id)

    def expired(self, job_id: str) -> bool:
        """True for an id this farm (or an earlier run on its state dir)
        issued but no longer remembers."""
        match = _JOB_ID.match(job_id)
        return match is not None and 0 < int(match.group(1)) <= self._core.seq

    def job_for_key(self, idempotency_key: str) -> Union[Job, RetiredJob, None]:
        """The job a previous submission with this key created, if any."""
        with self._cond:
            return self._core.job_for_key(idempotency_key)

    def jobs(self) -> List[Job]:
        """Resident jobs: the active ones plus the full window."""
        return list(self._core.jobs.values())

    def cancel(self, job_id: str) -> bool:
        """Cancel a job.  Queued jobs drop instantly; a running job stops at
        the next shard boundary (its in-flight shard results are discarded).
        Returns False if the job is unknown or already terminal."""
        with self._cond:
            cancelled = self._core.cancel(job_id)
            self._apply()
        self._journal_sync()
        return cancelled

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
            self._core.draining = True
            while self._core.active and self._running:
                remaining = (None if deadline is None
                             else deadline - time.perf_counter())
                if remaining is not None and remaining <= 0:
                    break
                # Job state changes notify the shared condition, so this
                # wakes at every cell/shard/terminal event; the cap only
                # bounds staleness if a notification is missed.
                self._cond.wait(timeout=0.1 if remaining is None else min(0.1, remaining))
            leftovers = self._core.abort(CANCELLED, "drain timeout", cells_done=True)
            self._apply()
            return {
                "drained": not leftovers,
                "cancelled": [job.id for job in leftovers],
            }

    def kill_worker(self, worker_id: Optional[int] = None) -> Optional[int]:
        """Chaos hook: SIGKILL one worker process (a busy one if any).

        Returns the killed worker id, or ``None`` if no live worker matched.
        The scheduler's normal crash policy takes over from there: the dead
        worker is respawned, each unfinished cell of its in-flight shard is
        retried once, and a second death yields a structured
        ``worker_crash`` error for that cell — the
        exact path real OOM kills and segfaults exercise, made injectable
        for the chaos bench and the service smoke tests.
        """
        with self._cond:
            candidates = [h for h in self._procs if h.process.is_alive()
                          and worker_id in (None, h.worker_id)]
            if not candidates:
                return None
            busy = [h for h in candidates if self._workers[h.worker_id].busy is not None]
            target = (busy or candidates)[0]
            target.process.kill()
            return target.worker_id

    # -- dispatcher --------------------------------------------------------------

    def _wake(self) -> None:
        """Cut the dispatcher's wait short (safe from any thread)."""
        with self._wake_lock:
            self._wake_writer.send(("wake",))

    def _dispatch_loop(self) -> None:
        """The dispatcher thread.  If it raises (a cache put on a full disk,
        a failed fork), every active job fails with the error, unjournaled
        so a restart resumes it, and the farm accepts no new job."""
        try:
            while True:
                # Only this thread replaces workers, so the list needs no lock.
                readers = [h.results for h in self._procs if not h.results.closed]
                try:
                    ready = connection.wait(readers + [self._wake_reader],
                                            timeout=POLL_INTERVAL_S)
                except OSError:
                    return
                with self._cond:
                    if not self._running:
                        return
                    for reader in ready:
                        self._drain(reader)
                    for handle in self._procs:
                        if not handle.process.is_alive():
                            # Whatever the worker reported before it died
                            # counts before its death does.
                            self._drain(handle.results)
                            self._core.worker_exited(handle.worker_id)
                    self._core.tick()
                    self._apply()
                self._journal_sync()
        except Exception as exc:
            with self._cond:
                self._core.fail(f"{type(exc).__name__}: {exc}")
                self._apply()
            raise

    def _drain(self, reader) -> None:
        """Hand the scheduler every worker message already waiting on
        ``reader``, carrying out each one's effects before the next is read:
        a cell whose cache write fails must fail its job before a later
        ``shard_done`` can finish it."""
        while True:
            try:
                if not reader.poll():
                    return
                message = reader.recv()
            except (EOFError, OSError):
                # The worker has exited, possibly mid-message; the dispatcher
                # reports the exit once the process is reaped.
                reader.close()
                return
            if message[0] != "wake":
                self._core.message(message)
                self._apply()

    def _apply(self) -> None:
        """Lock held: carry out the scheduler's effects, in order.  Journal
        records are only written here; :meth:`_journal_sync` commits them,
        as a group, once the lock is released."""
        for kind, target, data in self._core.take():
            if kind == "emit":
                self._cond.notify_all()
            elif kind == "cache_put":
                self.cache.put(target, data)
            elif kind == "journal":
                self._journal.write(target, **data)
            elif kind == "dispatch":
                self._procs[target].task_queue.put(data)
            elif kind == "kill":
                self._procs[target].process.kill()
            elif kind == "spawn":
                dead = self._procs[target]
                dead.task_queue.close()
                dead.task_queue.cancel_join_thread()
                dead.results.close()
                self._procs[target] = self._spawn(target)
            elif kind == "save_finding":
                self._save_finding(target)
            elif kind == "history":
                self._append_history(target)

    def _spawn(self, worker_id: int) -> WorkerHandle:
        return spawn_worker(self._ctx, worker_id, self.preload)

    def _journal_sync(self) -> None:
        if self._journal is not None:
            self._journal.sync()

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

    def _append_history(self, job: Job) -> None:
        """Append a finished fuzz job's coverage to the trajectory file."""
        if self.history_path is None:
            return
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

    # -- observation -------------------------------------------------------------

    def stats(self) -> dict:
        """Queue depth, per-worker stats, utilization, cache hit rate."""
        # Counted before taking the farm lock, which every submit and the
        # dispatcher need: the count reads the whole store.
        cache_entries = len(self.cache)
        with self._cond:
            core = self._core
            workers = len(self._procs)
            busy = sum(1 for w in self._workers if w.busy is not None)
            states = dict({QUEUED: 0, RUNNING: 0}, **core.finished_counts)
            for job in core.active.values():
                states[job.state] += 1
            active = len(core.active)
            uptime = (time.perf_counter() - self._started_at
                      if self._started_at is not None else 0.0)
            total = self.counters["cells_total"]
            cached = self.counters["cells_cached"]
            busy_area = sum(w.busy_s for w in self._workers)
            return {
                "name": self.name,
                "running": self._running,
                "draining": core.draining,
                "uptime_s": round(uptime, 6),
                "worker_count": workers,
                "workers_busy": busy,
                "utilization": (busy / workers) if workers else 0.0,
                "utilization_lifetime": (
                    busy_area / (uptime * workers) if uptime > 0 and workers else 0.0
                ),
                "workers": [w.snapshot(h.process.is_alive())
                            for w, h in zip(self._workers, self._procs)],
                "queue_depth": states[QUEUED],
                "active_jobs": active,
                "queue_limit": self.queue_limit,
                "saturated": (self.queue_limit is not None
                              and active >= self.queue_limit),
                "jobs": dict(states, submitted=core.seq),
                "job_kinds": dict(core.kind_counts),
                "jobs_resident": len(core.jobs),
                "jobs_compact": len(core.retired),
                "cells": dict(self.counters),
                "cache_hit_rate": (cached / total) if total else None,
                "cache_entries": cache_entries,
                "shard_size": self.shard_size,
                "stuck_timeout_s": core.stuck_timeout_s,
                "durable": self._journal is not None,
                "state_dir": (None if self.state_dir is None
                              else str(self.state_dir)),
                "journal_records": (0 if self._journal is None
                                    else self._journal.records_written),
            }
