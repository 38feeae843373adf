"""The farm's scheduling policy, with no I/O.

:class:`Scheduler` decides what :class:`~repro.service.farm.SimulationFarm`
does; the farm carries it out.  The scheduler owns the job queue, the jobs
and their shards in flight, each worker slot's state, shard sizing, the
retry-once crash policy, stuck-worker and timeout detection, idempotency,
saturation and retention.  It consumes events — a submit or cancel, one
worker message (the protocol of :mod:`repro.service.worker`), a worker's
exit, a tick — and answers with :class:`Effect` records, in the order they
must be carried out.  Job state changes here; everything outside the
process (worker processes and pipes, the result cache, the journal, the
corpus and history files, waking the event streams) is an effect.

It reads no clock of its own: ``clock`` is injected and also stamps every
job's times and every event's ``t``.  It starts no process or thread and
opens no file or socket, so a test drives it with a fake clock and fake
worker messages in milliseconds (``tests/test_scheduler.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Union

from repro.campaign.cache import cell_digest
from repro.campaign.executor import CellError
from repro.service.jobs import (
    CAMPAIGN,
    CANCELLED,
    DONE,
    FAILED,
    FUZZ,
    QUEUED,
    RUNNING,
    TIMEOUT,
    Job,
    JobQueue,
    RetiredJob,
    Shard,
)

#: Retry-After seconds suggested to clients bounced by backpressure.
DEFAULT_RETRY_AFTER_S = 1.0

#: Keys of a worker's own stats report that its status record repeats.
_WORKER_STATS = ("pid", "builds", "preloaded", "cells", "shards",
                 "cell_errors", "sessions", "fuzz_errors", "resident")


class FarmSaturated(RuntimeError):
    """Submission rejected by backpressure (active-job bound reached).

    Carries ``retry_after_s`` so the HTTP layer can answer ``503`` with a
    concrete ``Retry-After`` header instead of a bare error.
    """

    def __init__(self, message: str, retry_after_s: float = DEFAULT_RETRY_AFTER_S):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class Effect(NamedTuple):
    """One thing the scheduler decided and the farm must do, by ``kind``:

    * ``dispatch``: send task ``data`` to worker ``target``;
    * ``spawn``: start a fresh process for worker ``target``, whose
      process is gone;
    * ``kill``: SIGKILL worker ``target``'s process;
    * ``cache_put``: store outcome ``data`` of cell ``target`` in the
      result cache;
    * ``journal``: write a journal record of type ``target`` with fields
      ``data``;
    * ``emit``: event ``target`` joined its job's log; wake the watchers;
    * ``save_finding``: add counterexample ``target`` to the corpus;
    * ``history``: append fuzz job ``target``'s coverage to the history file.
    """

    kind: str
    target: object
    data: object = None


@dataclass
class WorkerState:
    """The scheduler's view of one worker slot, across respawns."""

    worker_id: int
    #: Shard currently dispatched to this worker, or None when idle.
    busy: Optional[Shard] = None
    ready: bool = False
    #: Last stats dict the worker reported (ready/shard_done/fuzz_done).
    stats: dict = field(default_factory=dict)
    #: Cumulative seconds this slot has had a shard in flight.
    busy_s: float = 0.0
    dispatched: int = 0
    respawns: int = 0
    #: Clock reading at the last message from this worker; the stuck-worker
    #: watchdog compares it against the dispatch instant.
    last_message_at: Optional[float] = None
    #: Set by the watchdog when it kills the worker, so its death reads as
    #: heartbeat silence (``worker_stuck``), not a crash (``worker_crash``).
    stuck_kill: bool = False

    def snapshot(self, alive: bool) -> dict:
        record = {
            "worker": self.worker_id,
            "alive": alive,
            "ready": self.ready,
            "busy": self.busy is not None,
            "dispatched_shards": self.dispatched,
            "busy_s": round(self.busy_s, 6),
            "respawns": self.respawns,
        }
        record.update((key, self.stats[key]) for key in _WORKER_STATS if key in self.stats)
        return record


def _key(unit):
    """A work unit's identity: a campaign cell's key, or a fuzz job's seed."""
    return getattr(unit, "key", unit)


class Scheduler:
    """The farm's policy: a state machine from events to :class:`Effect` records.

    ``durable`` asks for journal records; ``cache`` is only handed to the
    compact records retention makes, which rebuild results from it; every
    job's watchers wait on ``cond``.  Not thread-safe: the farm calls it
    with its lock held.
    """

    def __init__(
        self,
        workers: int,
        *,
        clock: Callable[[], float],
        shard_size: int,
        stuck_timeout_s: Optional[float],
        full_window: int,
        compact_window: int,
        queue_limit: Optional[int] = None,
        durable: bool = False,
        cache=None,
        cond=None,
    ) -> None:
        self.clock = clock
        self.shard_size = shard_size
        self.stuck_timeout_s = stuck_timeout_s
        self.full_window = full_window
        self.compact_window = compact_window
        self.queue_limit = queue_limit
        self.durable = durable
        self.cache = cache
        self.cond = cond
        self.workers = [WorkerState(worker_id) for worker_id in range(workers)]
        self.queue = JobQueue()
        #: Full records: active jobs, finished jobs with a late shard still
        #: in flight, and the full window.
        self.jobs: Dict[str, Job] = {}
        #: The active index: jobs not yet terminal.
        self.active: Dict[str, Job] = {}
        #: Ids of the finished full records, oldest first.
        self.window: deque = deque()
        #: Compact records, and their ids oldest first.
        self.retired: Dict[str, RetiredJob] = {}
        self.retired_order: deque = deque()
        #: Lifetime job counts: finished jobs by state, all jobs by kind.
        self.finished_counts = {DONE: 0, FAILED: 0, CANCELLED: 0, TIMEOUT: 0}
        self.kind_counts = {CAMPAIGN: 0, FUZZ: 0}
        self.idempotency: Dict[str, str] = {}
        #: The last job sequence number issued.
        self.seq = 0
        self.draining = False
        #: Set when the dispatcher failed; no job is admitted after that.
        self.error: Optional[str] = None
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
        self._out: List[Effect] = []

    def take(self) -> List[Effect]:
        """The effects decided since the last call, in order."""
        effects, self._out = self._out, []
        return effects

    # -- lookups -------------------------------------------------------------------

    def get(self, job_id: str) -> Union[Job, RetiredJob, None]:
        """The job's full record, its compact record, or None."""
        job = self.jobs.get(job_id)
        return job if job is not None else self.retired.get(job_id)

    def job_for_key(self, key: Optional[str]) -> Union[Job, RetiredJob, None]:
        """The job a submission with idempotency key ``key`` created, if any."""
        job_id = None if key is None else self.idempotency.get(key)
        return None if job_id is None else self.get(job_id)

    def check_accepting(self) -> None:
        """Raise ``RuntimeError`` unless new jobs are admitted."""
        if self.error is not None:
            raise RuntimeError(f"farm dispatcher failed: {self.error}")
        if self.draining:
            raise RuntimeError("farm is draining and not accepting new jobs")

    # -- events --------------------------------------------------------------------

    def submit(
        self,
        kind: str,
        spec,
        *,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        idempotency_key: Optional[str] = None,
        cached: Optional[dict] = None,
        persist: bool = True,
        job_id: Optional[str] = None,
        restored: Optional[Dict[int, dict]] = None,
    ) -> Union[Job, RetiredJob]:
        """Admit a campaign or fuzz job: the one admission path of both kinds.

        A campaign's cells found in ``cached`` (outcomes by cell key) are
        answered at once and the rest are sharded; ``persist`` false keeps
        its fresh outcomes out of the result cache.  A fuzz job gets one
        shard per seed.  A reused ``idempotency_key`` returns the job it
        created.  ``job_id`` readmits a job the journal recorded, with
        ``restored`` its completed fuzz sessions by seed; a readmitted job
        is neither deduplicated, bounded nor journaled again.
        """
        recovered = job_id is not None
        if not recovered:
            self.check_accepting()
            existing = self.job_for_key(idempotency_key)
            if existing is not None:
                return existing
            if self.queue_limit is not None and len(self.active) >= self.queue_limit:
                self.counters["jobs_rejected"] += 1
                raise FarmSaturated(f"farm saturated: {len(self.active)} active jobs "
                                    f"(limit {self.queue_limit})")
            self.seq += 1
            job_id = f"j{self.seq:06d}"
        job = Job(job_id, spec, kind=kind, priority=priority, timeout_s=timeout_s,
                  cond=self.cond, clock=self.clock)
        job.recovered, job.persist = recovered, persist
        if idempotency_key is not None:
            job.idempotency_key = idempotency_key
            self.idempotency[idempotency_key] = job.id
        if recovered:
            self.counters["jobs_recovered"] += 1
        else:
            self._journal("submitted", job=job.id, kind=kind, priority=priority,
                          timeout_s=timeout_s, idempotency_key=idempotency_key,
                          **{"fuzz" if kind == FUZZ else "spec": spec.describe()})
        self.jobs[job.id] = self.active[job.id] = job
        self.kind_counts[kind] += 1
        if kind == FUZZ:
            seeds = set(job.cells)
            job.fresh = {seed: session for seed, session in (restored or {}).items()
                         if seed in seeds}
            done, size = job.fresh, 1
            self.counters["sessions_total"] += len(job.cells)
            self.counters["sessions_recovered"] += len(job.fresh)
            detail = dict(seed_start=spec.seed_start, sessions=spec.sessions,
                          budget=spec.budget, profile=spec.profile,
                          with_faults=spec.with_faults, sessions_done=len(job.fresh))
            outcome = {"sessions": len(job.fresh)}
        else:
            job.cached = {} if cached is None else cached
            done, size = job.cached, self.shard_size
            self.counters["cells_total"] += len(job.cells)
            self.counters["cells_cached"] += len(job.cached)
            detail = dict(cells_total=len(job.cells), cells_cached=len(job.cached))
            outcome = {"cells_cached": len(job.cached)}
        if recovered:
            detail["recovered"] = True
        self._emit(job.emit("submitted", name=spec.name, kind=kind, priority=priority,
                            timeout_s=timeout_s, **detail))
        if job.cached:
            self._emit(job.emit("cached", cells=len(job.cached)))
        pending = sorted((unit for unit in job.cells if _key(unit) not in done), key=_key)
        if not pending:
            self._finish(job, DONE, **outcome)
            return job
        job.pending_shards = [Shard(job.id, next(job.shard_ids), pending[start:start + size])
                              for start in range(0, len(pending), size)]
        self.queue.push(job)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel an active job; False if it is unknown or already terminal.

        A queued job never runs; a running job's in-flight shards run to
        their boundary in the worker and their late results are discarded.
        """
        job = self.active.get(job_id)
        if job is None:
            return False
        self._finish(job, CANCELLED, shards_in_flight=len(job.in_flight))
        return True

    def abort(self, state: str, reason: str, *, cells_done: bool = False) -> List[Job]:
        """End every active job ``state`` with ``reason`` and return them.

        Unjournaled on purpose: on a durable farm, a job cut short by a stop,
        a drain deadline or a dispatcher failure is exactly what a restart on
        the same state directory must resume.  ``cells_done`` adds each job's
        progress to its final event.
        """
        jobs = list(self.active.values())
        for job in jobs:
            progress = {"cells_done": job.cells_done} if cells_done else {}
            self._finish(job, state, journal=False, reason=reason, **progress)
        return jobs

    def fail(self, error: str) -> None:
        """The dispatcher raised ``error``: fail every active job, admit no more."""
        self.error = error
        self.abort(FAILED, f"farm dispatcher failed: {error}")

    def message(self, message: tuple) -> None:
        """Handle one message from a worker."""
        kind, worker_id = message[0], message[1]
        worker = self.workers[worker_id]
        # Any message is proof of life for the stuck-worker watchdog.
        worker.last_message_at = self.clock()
        if kind == "heartbeat":
            return
        if kind == "ready":
            worker.ready, worker.stats = True, message[2]
            return
        job_id, shard_id = message[2], message[3]
        job = self.jobs.get(job_id)
        live = job is not None and not job.is_terminal
        if kind == "cell" or kind == "cell_error":
            if not live:
                self.counters["cells_discarded"] += 1
                return
            # Keyed by the job's own cell: the message's key is an unpickled
            # copy, and the full record would keep it alive.
            cell, outcome = job.in_flight[shard_id].cell(message[4]), message[5]
            faults = {} if cell.faults is None else {"faults": cell.faults}
            if kind == "cell":
                job.fresh[cell.key] = outcome
                self.counters["cells_executed"] += 1
                if job.persist:
                    self._out.append(Effect("cache_put", cell, outcome))
                detail = dict(kernel=cell.kernel, **faults, result=outcome[0],
                              cycles=outcome[1], transactions=outcome[2])
            else:
                job.errors[cell.key] = outcome
                self.counters["cells_failed"] += 1
                detail = dict(faults, error=outcome.describe())
            self._emit(job.emit(kind, label=cell.label, scenario=cell.scenario.number,
                                seed=cell.seed, repeat=cell.repeat, **detail,
                                worker=worker_id, done=job.cells_done, total=len(job.cells)))
            return
        if kind == "finding":
            if live:
                record = message[4]
                self.counters["findings"] += 1
                verdict = record.get("verdict", {}) if isinstance(record, dict) else {}
                self._emit(job.emit("finding", kind=record.get("kind"),
                                    token=record.get("token"), kernel=verdict.get("kernel"),
                                    detail=verdict.get("detail"), worker=worker_id,
                                    shard=shard_id))
                self._out.append(Effect("save_finding", record))
            return
        # shard_done, fuzz_done or fuzz_error: the shard is back and the
        # worker idle, whatever became of the job.
        if kind != "fuzz_error":
            worker.stats = message[-1]
        if worker.busy is not None:
            worker.busy_s += self.clock() - worker.busy.dispatched_at
        worker.busy = None
        shard = None if job is None else self._release_shard(job, shard_id)
        if kind == "shard_done" and shard is not None and self.durable:
            # Digests only: the outcomes are already in the result cache, so
            # recovery answers this shard from there; the record says which
            # cells are durably done (cell_digest is memoised from the
            # submit-time cache lookup).
            self._journal("shard_done", job=job_id, shard=shard_id,
                          cells=[cell_digest(cell) for cell in shard.cells])
        if not live:
            return
        if kind == "fuzz_done":
            payload, duration_s = message[4], message[5]
            seed = payload["seed"]
            job.fresh[seed] = payload
            self.counters["sessions_executed"] += 1
            self._journal("shard_done", job=job_id, shard=shard_id, seed=seed, session=payload)
            self._emit(job.emit("session", seed=seed, executed=payload["executed"],
                                rounds=payload["rounds"],
                                findings=len(payload["counterexamples"]),
                                coverage=len(payload["coverage"]), duration_s=duration_s,
                                worker=worker_id, done=job.cells_done, total=len(job.cells)))
        elif kind == "fuzz_error":
            seed, text = message[4], message[5]
            job.errors[seed] = CellError(kind="fuzz_error", message=text)
            self.counters["sessions_failed"] += 1
            self._emit(job.emit("session_error", seed=seed, error=text, worker=worker_id,
                                done=job.cells_done, total=len(job.cells)))
        self._maybe_finalize(job)

    def worker_exited(self, worker_id: int) -> None:
        """Worker ``worker_id``'s process is gone and every message it sent
        has been handled: respawn it, then retry or fail what it left undone.

        Read here, after those messages, the worker's shard holds only what
        the worker never reported, so a worker that finished its shard and
        then died leaves nothing to retry.
        """
        old = self.workers[worker_id]
        self.workers[worker_id] = WorkerState(worker_id, busy_s=old.busy_s,
                                              dispatched=old.dispatched,
                                              respawns=old.respawns + 1)
        self.counters["workers_respawned"] += 1
        self._out.append(Effect("spawn", worker_id))
        shard = old.busy
        job = None if shard is None else self.jobs.get(shard.job_id)
        if job is None:
            return
        self._release_shard(job, shard.shard_id)
        if job.is_terminal:
            return
        unfinished = [unit for unit in shard.cells
                      if _key(unit) not in job.fresh and _key(unit) not in job.errors]
        if unfinished and shard.attempts <= 1:
            # One retry on a fresh worker: the crash policy of every
            # multi-process run, served or batch.  Each unfinished cell is
            # retried as a shard of its own, so a second death fails only the
            # cell that caused it, wherever the first attempt placed it.
            job.pending_shards[:0] = [
                shard if len(shard.cells) == 1
                else Shard(job.id, next(job.shard_ids), [unit], attempts=1)
                for unit in unfinished
            ]
            self.counters["shards_retried"] += 1
            self.queue.push(job)
            self._emit(job.emit("shard_retry", shard=shard.shard_id, worker=worker_id,
                                stuck=old.stuck_kill))
        elif unfinished:
            cause = "worker_stuck" if old.stuck_kill else "worker_crash"
            # The row names neither the worker nor the shard, which depend on
            # placement: a row depends only on its cell.  The shard_failed
            # event keeps both.
            detail = "went heartbeat-silent" if old.stuck_kill else "died"
            error = CellError(kind=cause, message=(f"the worker process {detail} before "
                                                   "it finished, and again on the retry"))
            for unit in unfinished:
                job.errors[_key(unit)] = error
            failed = "sessions_failed" if job.kind == FUZZ else "cells_failed"
            self.counters[failed] += len(unfinished)
            self._emit(job.emit("shard_failed", shard=shard.shard_id, worker=worker_id,
                                cells_failed=len(unfinished), cause=cause))
        self._maybe_finalize(job)

    def tick(self) -> None:
        """Time out overdue jobs, kill heartbeat-silent workers, feed idle ones.

        The stuck-worker watchdog bounds *silence* (no message from a busy
        worker), not job runtime: a wedged simulation stops messaging while
        its job's clock may have plenty left.  Its kill feeds the ordinary
        dead-worker path, attributed, so a cell whose retry also goes silent
        fails ``worker_stuck`` rather than ``worker_crash``.
        """
        now = self.clock()
        for job in [job for job in self.active.values()
                    if job.deadline is not None and now >= job.deadline]:
            self._finish(job, TIMEOUT, timeout_s=job.timeout_s, cells_done=job.cells_done)
        if self.stuck_timeout_s is not None:
            for worker in self.workers:
                shard = worker.busy
                if shard is None or worker.stuck_kill:
                    continue
                silent_s = now - max(shard.dispatched_at, worker.last_message_at or 0.0)
                if silent_s <= self.stuck_timeout_s:
                    continue
                worker.stuck_kill = True
                self.counters["workers_stuck_killed"] += 1
                job = self.jobs.get(shard.job_id)
                if job is not None and not job.is_terminal:
                    self._emit(job.emit("worker_stuck", worker=worker.worker_id,
                                        shard=shard.shard_id, silent_s=round(silent_s, 3)))
                self._out.append(Effect("kill", worker.worker_id))
        for worker in self.workers:
            if worker.busy is None and not self._dispatch(worker, now):
                return

    # -- internals -----------------------------------------------------------------

    def _dispatch(self, worker: WorkerState, now: float) -> bool:
        """Send idle ``worker`` the next shard; False when none is queued."""
        job = self.queue.pop()
        if job is None:
            return False
        shard = job.pending_shards.pop(0)
        if job.pending_shards:
            self.queue.push(job)
        if job.state == QUEUED:
            self._emit(job.enter_state(RUNNING))
        shard.attempts += 1
        shard.worker_id = worker.worker_id
        shard.dispatched_at = now
        job.in_flight[shard.shard_id] = worker.busy = shard
        worker.dispatched += 1
        self.counters["shards_dispatched"] += 1
        self._journal("shard_dispatched", job=job.id, shard=shard.shard_id,
                      worker=worker.worker_id, attempt=shard.attempts)
        if job.kind == FUZZ:
            task = ("fuzz", job.id, shard.shard_id, {
                "seed": shard.cells[0],
                "budget": job.spec.budget,
                "profile": job.spec.profile,
                "with_faults": job.spec.with_faults,
                "timeout_s": job.spec.case_timeout_s,
            })
        else:
            task = ("shard", job.id, shard.shard_id, shard.cells)
        self._out.append(Effect("dispatch", worker.worker_id, task))
        return True

    def _emit(self, record: dict) -> None:
        self._out.append(Effect("emit", record))

    def _journal(self, type_: str, **fields) -> None:
        if self.durable:
            self._out.append(Effect("journal", type_, fields))

    def _maybe_finalize(self, job: Job) -> None:
        """Finish the job once every cell is accounted for."""
        if job.pending_shards or job.in_flight or job.cells_done < len(job.cells):
            return
        if job.errors:
            self._finish(job, FAILED, cells_failed=len(job.errors))
        else:
            self._finish(job, DONE, cells_executed=len(job.fresh), cells_cached=len(job.cached))

    def _finish(self, job: Job, state: str, *, journal: bool = True, **payload) -> None:
        """The one way a job becomes terminal.

        Leaves the active index, journals the transition unless ``journal``
        is false, and retires the job unless a late shard is still in
        flight; :meth:`_release_shard` retires it when that returns.
        """
        job.pending_shards.clear()
        self._emit(job.enter_state(state, **payload))
        del self.active[job.id]
        self.finished_counts[state] += 1
        if journal:
            if state == CANCELLED:
                self._journal("cancelled", job=job.id)
            else:
                self._journal("finished", job=job.id, state=state)
            if job.kind == FUZZ and state == DONE:
                self._out.append(Effect("history", job))
        if not job.in_flight:
            self._retire(job)

    def _release_shard(self, job: Job, shard_id: int) -> Optional[Shard]:
        """Drop a job's in-flight shard, retiring a finished job once its
        last late shard is back; returns the shard."""
        shard = job.in_flight.pop(shard_id, None)
        if shard is not None and job.is_terminal and not job.in_flight:
            self._retire(job)
        return shard

    def _retire(self, job: Job) -> None:
        """A finished job joins the full window.  The oldest full record
        beyond it shrinks to a compact one, and the oldest compact record
        beyond its window is forgotten with its idempotency key."""
        self.window.append(job.id)
        while len(self.window) > self.full_window:
            old = self.jobs.pop(self.window.popleft())
            self.retired[old.id] = RetiredJob(old, self.cache)
            self.retired_order.append(old.id)
        while len(self.retired_order) > self.compact_window:
            gone = self.retired.pop(self.retired_order.popleft())
            if gone.idempotency_key is not None:
                self.idempotency.pop(gone.idempotency_key, None)
