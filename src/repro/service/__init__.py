"""Campaign-as-a-service: a long-lived simulation farm.

Where :mod:`repro.campaign` is strictly batch — every ``splice campaign
run`` re-elaborates and re-compiles what it runs and exits, on a farm of
its own when it has several workers — this package keeps a farm warm and
puts a queue and an HTTP API in front of it:

* :class:`~repro.service.farm.SimulationFarm` — persistent worker processes
  holding built runners and compiled programs resident across jobs, a
  priority job queue (FIFO within a priority, cancellation, per-job
  timeouts), and the shared content-addressed result cache in front of it
  all, so repeat submissions short-circuit without touching a worker.
* :func:`~repro.service.api.serve_farm` — the stdlib HTTP/JSON API:
  ``POST /jobs``, ``GET /jobs/<id>``, streaming NDJSON
  ``GET /jobs/<id>/events``, ``DELETE /jobs/<id>``, ``GET /stats``.
* :class:`~repro.service.client.ServiceClient` — the matching stdlib
  client, used by ``splice submit``.

The farm stays bounded however long it runs: finished jobs keep their full
record only while they are among the newest few hundred, then shrink to a
compact :class:`~repro.service.jobs.RetiredJob` (status, result and
idempotency key, about 1 KB), and the oldest compact records are forgotten.

Results served through the API are bit-identical to ``splice campaign run``
on the same spec: jobs expand the identical cell grid, cells execute through
the same registry-built runners, and aggregation shares the batch runner's
:func:`~repro.campaign.result.cell_result` path.

With ``--state-dir`` the farm is additionally *durable*: every job
transition is recorded write-ahead in a
:class:`~repro.service.journal.JobJournal`, so a hard kill of the server
loses nothing — a restart on the same directory replays the journal,
re-enqueues every non-terminal job, and resumes each from its completed
work (campaign cells from the result cache, fuzz sessions from the
journal), bit-identical to an uninterrupted run.  Fuzz jobs
(:class:`~repro.service.jobs.FuzzJobSpec`) are a first-class workload:
seed ranges shard across the warm workers, findings stream back live and
land in the server-side corpus.
"""

from importlib import import_module

from repro.campaign.executor import resolve_workers
from repro.service.farm import (
    DEFAULT_SHARD_SIZE,
    DEFAULT_STUCK_TIMEOUT_S,
    FarmSaturated,
    SimulationFarm,
)
from repro.service.jobs import (
    CAMPAIGN,
    CANCELLED,
    DONE,
    FAILED,
    FUZZ,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    TIMEOUT,
    FuzzJobSpec,
    Job,
    JobQueue,
    ResultUnavailable,
    RetiredJob,
    Shard,
)
from repro.service.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournalReplay,
    append_jsonl,
    replay_journal,
)

#: Loaded on first use: the farm a multi-worker ``run_campaign`` starts needs no HTTP.
_HTTP_EXPORTS = {"build_handler": "api", "serve_farm": "api", "serve_farm_in_thread": "api",
                 "ServiceClient": "client", "ServiceError": "client"}


def __getattr__(name):
    if name not in _HTTP_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HTTP_EXPORTS[name]}"), name)


__all__ = [
    "SimulationFarm",
    "FarmSaturated",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_STUCK_TIMEOUT_S",
    "resolve_workers",
    "serve_farm",
    "serve_farm_in_thread",
    "build_handler",
    "ServiceClient",
    "ServiceError",
    "Job",
    "JobQueue",
    "RetiredJob",
    "ResultUnavailable",
    "Shard",
    "FuzzJobSpec",
    "CAMPAIGN",
    "FUZZ",
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TIMEOUT",
    "TERMINAL_STATES",
    "JobJournal",
    "JournalReplay",
    "JOURNAL_FILENAME",
    "append_jsonl",
    "replay_journal",
]
