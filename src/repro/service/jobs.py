"""Jobs and the priority job queue.

A :class:`Job` is one submitted :class:`~repro.campaign.spec.CampaignSpec`
on its way through the farm: cache lookup at submit, then (for the cells the
cache missed) a sequence of :class:`Shard` dispatches to warm workers, then
aggregation into a :class:`~repro.campaign.result.CampaignResult` that is
bit-identical to what ``splice campaign run`` produces for the same spec.

Jobs are passive data plus an event log.  The farm's
:class:`~repro.service.scheduler.Scheduler` mutates them under the farm's
single condition lock (submission threads, HTTP handler threads and the
dispatcher all share it); every observable change appends an event, and the
farm then notifies the condition — that one mechanism drives ``wait()``, the
streaming ``/jobs/<id>/events`` endpoint and the CLI progress display.

A finished job does not keep all of that forever: once it drops out of the
farm's window of recent full records it shrinks to a :class:`RetiredJob`,
which still answers status, result and idempotent resubmission.

:class:`JobQueue` orders runnable jobs by priority (higher number runs
sooner) and FIFO within a priority (by submission sequence number).  It is
*not* itself thread-safe: it is only touched under the farm lock.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellError, CellOutcome
from repro.campaign.result import CampaignResult, cell_result
from repro.campaign.spec import CampaignCell, CampaignSpec

#: Job lifecycle states.  ``queued → running → done`` is the happy path;
#: ``failed`` means every cell is accounted for but some carry error records
#: (worker died twice); ``cancelled`` and ``timeout`` are terminal the moment
#: they are entered — in-flight shards keep running to their boundary in the
#: worker, and their late results are discarded.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
TIMEOUT = "timeout"

TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED, TIMEOUT})

#: Job kinds the farm schedules.  Both flow through the same queue, shard
#: machinery, event log and crash policy; they differ in what a shard *is*
#: (a batch of campaign cells vs one deterministic fuzz session) and in how
#: results aggregate.
CAMPAIGN = "campaign"
FUZZ = "fuzz"


@dataclass(frozen=True)
class FuzzJobSpec:
    """A continuous-fuzzing workload: a contiguous seed range, one
    deterministic ``(seed, budget)`` session per seed.

    Each session is exactly what ``splice fuzz run --seed S --budget B``
    executes (see :func:`repro.fuzz.session.run_session`), so a fuzz job's
    aggregate — executed counts, coverage cells, shrunk counterexamples —
    is a pure function of this spec and reproduces bit-identically across
    runs, restarts and worker placements.
    """

    seed_start: int
    sessions: int
    budget: int
    profile: str = "quick"
    with_faults: bool = False
    case_timeout_s: float = 10.0
    name: str = "fuzz"

    def __post_init__(self) -> None:
        if self.sessions < 1:
            raise ValueError(f"fuzz job needs >= 1 session, got {self.sessions}")
        if self.budget < 1:
            raise ValueError(f"fuzz budget must be >= 1, got {self.budget}")
        if self.case_timeout_s <= 0:
            raise ValueError(
                f"case_timeout_s must be positive, got {self.case_timeout_s}"
            )

    def seeds(self) -> List[int]:
        return list(range(self.seed_start, self.seed_start + self.sessions))

    def describe(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seed_start": self.seed_start,
            "sessions": self.sessions,
            "budget": self.budget,
            "profile": self.profile,
            "with_faults": self.with_faults,
            "case_timeout_s": self.case_timeout_s,
        }

    def fingerprint(self) -> str:
        text = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FuzzJobSpec":
        return cls(
            seed_start=int(data["seed_start"]),
            sessions=int(data["sessions"]),
            budget=int(data["budget"]),
            profile=str(data.get("profile", "quick")),
            with_faults=bool(data.get("with_faults", False)),
            case_timeout_s=float(data.get("case_timeout_s", 10.0)),
            name=str(data.get("name", "fuzz")),
        )


@dataclass
class Shard:
    """A contiguous batch of one job's cells, dispatched to one worker.

    The shard is the farm's unit of scheduling *and* of cancellation: a
    worker runs a shard to completion, so cancelling a running job takes
    effect at the next shard boundary.  ``attempts`` counts dispatches: when
    a shard's worker dies, each cell it did not finish is retried exactly
    once, as a shard of its own, on a fresh worker.
    """

    job_id: str
    shard_id: int
    cells: List[CampaignCell]
    attempts: int = 0
    worker_id: Optional[int] = None
    #: Scheduler clock reading at the last dispatch.
    dispatched_at: Optional[float] = None

    def cell(self, key: tuple) -> CampaignCell:
        """The campaign cell of this shard whose ``key`` is ``key``."""
        return next(cell for cell in self.cells if cell.key == key)


class Job:
    """One submitted campaign spec and everything that happens to it."""

    def __init__(
        self,
        job_id: str,
        spec: Union[CampaignSpec, FuzzJobSpec],
        *,
        kind: str = CAMPAIGN,
        priority: int = 0,
        timeout_s: Optional[float] = None,
        cond: Optional[threading.Condition] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if kind not in (CAMPAIGN, FUZZ):
            raise ValueError(f"unknown job kind {kind!r}")
        self.id = job_id
        self.spec = spec
        self.kind = kind
        self.priority = priority
        self.timeout_s = timeout_s
        self.cond = cond or threading.Condition()
        #: Stamps ``submitted``/``started``/``finished`` and every event's ``t``.
        self.clock = clock
        #: True when this Job object was rebuilt from the journal after a
        #: server restart rather than submitted by a client this lifetime.
        self.recovered = False
        self.idempotency_key: Optional[str] = None
        self.spec_fingerprint = spec.fingerprint()

        self.state = QUEUED
        self.submitted_wall = time.time()
        self.submitted = clock()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None

        #: The job's work units in canonical (deterministic) order; result
        #: aggregation walks this list so the served payload row order is
        #: identical to the batch runner's.  Campaign jobs: the grid's
        #: :class:`CampaignCell` expansion, keyed by ``cell.key``.  Fuzz
        #: jobs: the seed range, keyed by the seed itself.
        self.cells: List = spec.seeds() if kind == FUZZ else spec.cells()
        self.cached: Dict[tuple, CellOutcome] = {}
        self.fresh: Dict = {}
        self.errors: Dict = {}
        self.persist = True  # fresh outcomes go to the farm's result cache

        #: A list, not a deque: a job has a few shards or none, and an empty
        #: deque costs 760 bytes in every job the farm keeps.
        self.pending_shards: List[Shard] = []
        self.in_flight: Dict[int, Shard] = {}
        self.shard_ids = itertools.count()  # the ids of this job's shards, in order
        self.events: List[dict] = []
        #: FIFO position within this job's priority class; assigned by the
        #: :class:`JobQueue` at first push and stable across re-pushes.
        self.queue_seq: Optional[int] = None

    # -- derived ----------------------------------------------------------------

    @property
    def deadline(self) -> Optional[float]:
        """Clock reading after which the job times out (from submit)."""
        if self.timeout_s is None:
            return None
        return self.submitted + self.timeout_s

    @property
    def cells_done(self) -> int:
        return len(self.cached) + len(self.fresh) + len(self.errors)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def elapsed_s(self) -> float:
        end = self.finished if self.finished is not None else self.clock()
        return end - self.submitted

    @property
    def simulated_cycles(self) -> int:
        """Cycles this job simulated itself (executed cells, not cached or
        failed ones)."""
        return sum(outcome[1] for key, outcome in self.fresh.items()
                   if key not in self.errors)

    # -- events (callers hold self.cond) ----------------------------------------

    def emit(self, event: str, **payload) -> dict:
        """Append an event to the log and return it.  Lock held; the caller
        wakes the waiters and streamers."""
        record = {"event": event, "job": self.id, "t": round(self.elapsed_s, 6)}
        record.update(payload)
        self.events.append(record)
        return record

    def enter_state(self, state: str, **payload) -> dict:
        """Transition and emit the matching state event.  Lock held."""
        self.state = state
        if state == RUNNING and self.started is None:
            self.started = self.clock()
        if state in TERMINAL_STATES:
            self.finished = self.clock()
        return self.emit("state", state=state, **payload)

    # -- observation -------------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-friendly status record.  Lock held."""
        return {
            "id": self.id,
            "name": self.spec.name,
            "kind": self.kind,
            "recovered": self.recovered,
            "state": self.state,
            "priority": self.priority,
            "timeout_s": self.timeout_s,
            "submitted_wall": self.submitted_wall,
            "elapsed_s": round(self.elapsed_s, 6),
            "cells_total": len(self.cells),
            "cells_cached": len(self.cached),
            "cells_executed": len(self.fresh),
            "cells_failed": len(self.errors),
            "cells_done": self.cells_done,
            "shards_pending": len(self.pending_shards),
            "shards_in_flight": len(self.in_flight),
            "events": len(self.events),
            "spec_fingerprint": self.spec_fingerprint,
        }

    def wait(self, timeout: Optional[float] = None) -> str:
        """Block until the job reaches a terminal state; returns the state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self.cond:
            while not self.is_terminal:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self.cond.wait(remaining if remaining is not None else 0.5)
            return self.state

    def iter_events(self, start: int = 0) -> Iterator[dict]:
        """Yield events from ``start`` onward, blocking for new ones, until
        the job is terminal and every event has been delivered.

        This powers the NDJSON streaming endpoint: each handler thread runs
        its own iterator over the shared event list (events are append-only,
        so no copying is needed) and parks on the condition between bursts.
        """
        index = start
        while True:
            with self.cond:
                while index >= len(self.events) and not self.is_terminal:
                    self.cond.wait(0.5)
                batch = self.events[index:]
                index += len(batch)
                terminal = self.is_terminal and index >= len(self.events)
            for event in batch:
                yield event
            if terminal:
                return

    # -- aggregation -------------------------------------------------------------

    def result_payload(self) -> dict:
        """The job's result as a JSON payload, whatever its kind.

        Campaign jobs serve the :class:`CampaignResult` dict (bit-identical
        ``cells`` to the batch runner); fuzz jobs serve the deterministic
        fuzz aggregate of :meth:`fuzz_result`.
        """
        if self.kind == FUZZ:
            return self.fuzz_result()
        return self.result().to_dict()

    def fuzz_result(self) -> dict:
        """Aggregate a fuzz job's completed sessions.

        Everything outside ``meta`` is a pure function of the spec: session
        rows in seed order, the union of per-session coverage cells, and
        counterexamples deduplicated by ``(kind, token)`` — so two runs of
        the same spec (or one run interrupted by a server kill and resumed)
        compare bit-identical on ``sessions``/``coverage``/``counterexamples``.
        """
        if self.state not in (DONE, FAILED):
            raise ValueError(
                f"job {self.id} is {self.state}; results exist only for "
                "done/failed jobs"
            )
        sessions = []
        coverage: set = set()
        findings: Dict[Tuple[str, str], dict] = {}
        errors: Dict[str, str] = {}
        executed = 0
        for seed in self.cells:
            if seed in self.errors:
                errors[str(seed)] = self.errors[seed].describe()
                continue
            payload = self.fresh[seed]
            sessions.append(payload)
            executed += int(payload.get("executed", 0))
            coverage.update(payload.get("coverage", ()))
            for ce in payload.get("counterexamples", ()):
                findings[(str(ce.get("kind")), str(ce.get("token")))] = ce
        return {
            "kind": FUZZ,
            "fuzz": self.spec.describe(),
            "sessions": sessions,
            "executed": executed,
            "coverage": sorted(coverage),
            "counterexamples": [findings[key] for key in sorted(findings)],
            "errors": errors,
            "meta": {
                "executor": "farm",
                "job_id": self.id,
                "priority": self.priority,
                "recovered": self.recovered,
                "elapsed_s": round(self.elapsed_s, 6),
                "sessions_total": len(self.cells),
                "sessions_failed": len(errors),
                "spec_fingerprint": self.spec_fingerprint,
            },
        }

    def result(self) -> CampaignResult:
        """Aggregate into a :class:`CampaignResult`, batch-identical.

        Only available once every cell is accounted for (``done`` or
        ``failed``); cancelled and timed-out jobs have holes in the grid and
        raise instead of fabricating a partial table.
        """
        if self.kind != CAMPAIGN:
            raise ValueError(
                f"job {self.id} is a {self.kind} job; use fuzz_result()/"
                "result_payload()"
            )
        if self.state not in (DONE, FAILED):
            raise ValueError(
                f"job {self.id} is {self.state}; results exist only for "
                "done/failed jobs"
            )
        results = []
        for cell in self.cells:
            if cell.key in self.errors:
                outcome = self.errors[cell.key]
            elif cell.key in self.cached:
                outcome = self.cached[cell.key]
            else:
                outcome = self.fresh[cell.key]
            results.append(cell_result(cell, outcome, cached=cell.key in self.cached))
        return CampaignResult(
            spec=self.spec, cells=results,
            meta=_campaign_meta(self.snapshot(), self.simulated_cycles),
        )


def _campaign_meta(snapshot: dict, simulated_cycles: int) -> dict:
    """A campaign result's run metadata, from the job's status snapshot."""
    return {
        "executor": "farm",
        "job_id": snapshot["id"],
        "priority": snapshot["priority"],
        "elapsed_s": snapshot["elapsed_s"],
        "cells_total": snapshot["cells_total"],
        "cells_cached": snapshot["cells_cached"],
        "cells_executed": snapshot["cells_executed"],
        "cells_failed": snapshot["cells_failed"],
        "simulated_cycles": simulated_cycles,
        "spec_fingerprint": snapshot["spec_fingerprint"],
    }


class ResultUnavailable(LookupError):
    """A compact job's result can no longer be rebuilt (a cell's cache
    entry is missing or corrupt); the HTTP layer answers 410."""


class RetiredJob:
    """A finished job shrunk to a compact record of about 1 KB.

    The farm keeps full :class:`Job` records (cell grid, outcomes, event
    log) only for its newest finished jobs; an older one is replaced by
    this.  It keeps the final status snapshot, the idempotency key and
    whatever rebuilds the result: the spec and any error rows for a
    campaign job, whose cells are re-read from the result cache; the
    aggregate payload for a fuzz job.  Cancelled and timed-out jobs never
    had a result, so they keep nothing for it.  The event log is gone.
    """

    __slots__ = ("id", "kind", "state", "idempotency_key", "_snapshot",
                 "_spec_text", "_errors", "_cycles", "_fuzz", "_cache")

    def __init__(self, job: Job, cache: ResultCache) -> None:
        self.id = job.id
        self.kind = job.kind
        self.state = job.state
        self.idempotency_key = job.idempotency_key
        self._snapshot = tuple(job.snapshot().values())
        self._spec_text = self._errors = self._cycles = self._fuzz = None
        self._cache = cache
        if job.state not in (DONE, FAILED):
            return
        if job.kind == FUZZ:
            self._fuzz = job.fuzz_result()
            return
        self._spec_text = json.dumps(job.spec.describe(), separators=(",", ":"))
        self._errors = dict(job.errors) or None
        self._cycles = job.simulated_cycles

    def snapshot(self) -> dict:
        """The final status snapshot: the same keys a full job reports."""
        return dict(zip(_SNAPSHOT_KEYS, self._snapshot))

    def wait(self, timeout: Optional[float] = None) -> str:
        """A compact job is terminal: its state, at once."""
        return self.state

    def result_payload(self) -> dict:
        """Rebuild the result a full job served; call without the farm lock
        (a campaign rebuild reads the result cache)."""
        if self._fuzz is not None:
            return self._fuzz
        if self._spec_text is None:
            raise ValueError(
                f"job {self.id} is {self.state}; results exist only for "
                "done/failed jobs"
            )
        spec = CampaignSpec.from_dict(json.loads(self._spec_text))
        errors = self._errors or {}
        results = []
        for cell in spec.cells():
            outcome = errors.get(cell.key) or self._cache.get(cell)
            if outcome is None:
                raise ResultUnavailable(
                    f"job {self.id}: cell {cell.label}/s{cell.scenario.number}"
                    f"/seed{cell.seed}/r{cell.repeat} is no longer in the "
                    "result cache"
                )
            results.append(cell_result(cell, outcome))
        return CampaignResult(
            spec=spec, cells=results,
            meta=_campaign_meta(self.snapshot(), self._cycles),
        ).to_dict()


#: Keys of :meth:`Job.snapshot`, in order; a :class:`RetiredJob` stores the
#: values only.
_SNAPSHOT_KEYS = tuple(
    Job("", FuzzJobSpec(seed_start=0, sessions=1, budget=1), kind=FUZZ).snapshot()
)


class JobQueue:
    """Priority order over dispatchable jobs: higher ``priority`` first,
    FIFO within a priority.

    FIFO position is the *submission* sequence number, assigned at first
    push and kept for the job's lifetime — so a job whose shards are being
    dispatched one at a time (it is re-pushed while it still has pending
    shards) does not lose its place to a later submission of the same
    priority.

    Cancellation is lazy: a cancelled job's entries stay in the heap and
    are skipped at pop time, so dropping a queued job is O(1) — it just
    flips state.  Duplicate entries from re-pushes are likewise skipped
    once the job has nothing left to dispatch.  Not thread-safe; callers
    hold the farm lock.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()

    def push(self, job: Job) -> None:
        seq = getattr(job, "queue_seq", None)
        if seq is None:
            seq = job.queue_seq = next(self._seq)
        heapq.heappush(self._heap, (-job.priority, seq, job))

    def pop(self) -> Optional[Job]:
        """The next dispatchable job (has pending shards, not terminal)."""
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            if not job.is_terminal and job.pending_shards:
                return job
        return None

    def peek(self) -> Optional[Job]:
        while self._heap:
            job = self._heap[0][2]
            if not job.is_terminal and job.pending_shards:
                return job
            heapq.heappop(self._heap)
        return None

    def __len__(self) -> int:
        """Number of distinct dispatchable jobs currently in the heap."""
        return len({
            id(job) for _, _, job in self._heap
            if not job.is_terminal and job.pending_shards
        })
