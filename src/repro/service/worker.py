"""Warm worker processes: runners stay resident across jobs.

A worker process lives as long as its farm: a ``splice serve`` lifetime,
or one multi-worker ``run_campaign``.  It keeps every runner it has ever
built in an in-process dictionary keyed by ``(label, kernel)`` and points
the compiled kernel at the farm's shared
:class:`~repro.rtl.compile.CompiledProgramCache` directory, so after the
first shard touches an implementation, every later one pays neither spec
parsing, nor elaboration, nor codegen for it.

Protocol (all messages are small picklable tuples):

* parent → worker (per-worker task queue):
  ``("shard", job_id, shard_id, [CampaignCell, ...])`` for campaign shards,
  ``("fuzz", job_id, shard_id, params)`` for one deterministic fuzz session
  (params: seed/budget/profile/with_faults/timeout_s), or ``None`` to stop.
* worker → parent (the worker's own result pipe; index 1 is always the
  worker id, so the dispatcher can track per-worker liveness generically):
  ``("ready", worker_id, stats)`` once warm-up/preload is done,
  ``("heartbeat", worker_id)`` at shard start and (throttled) per fuzz case
  — the stuck-worker watchdog's liveness signal,
  ``("cell", worker_id, job_id, shard_id, cell_key, (result, cycles, txns))``
  per finished cell (this is what per-cell progress streaming is fed from),
  ``("cell_error", worker_id, job_id, shard_id, cell_key, error)`` with the
  cell's :class:`~repro.campaign.executor.CellError` record when a single
  cell fails (the worker survives; job-level fault isolation),
  ``("shard_done", worker_id, job_id, shard_id, stats)`` at the boundary,
  ``("finding", worker_id, job_id, shard_id, counterexample_dict)`` per
  shrunk fuzz counterexample, as it is found (streamed to clients and
  appended to the server-side corpus),
  ``("fuzz_done", worker_id, job_id, shard_id, payload, duration_s, stats)``
  when a fuzz session completes (payload is the deterministic session
  record, :func:`repro.fuzz.session.session_payload`),
  ``("fuzz_error", worker_id, job_id, shard_id, seed, message)`` when the
  session machinery itself raises (e.g. Hypothesis missing in a minimal
  environment) — the job records a structured error, the worker survives.

A worker that dies (OOM, segfault, ``os._exit``) simply stops sending; the
dispatcher notices the dead process, respawns a fresh worker, and retries
each cell of the in-flight shard that did not finish once, as a shard of
its own, before recording a structured ``worker_crash`` error for a cell
whose retry dies too — the one crash policy of every multi-process run,
served or batch.  A worker that *hangs* stops heartbeating instead: the
dispatcher's watchdog SIGKILLs it and the same respawn/retry path runs,
ending in ``worker_stuck`` errors if the retry hangs too.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.campaign.executor import CellError, ResidentRunners
from repro.rtl.compile import PROGRAM_CACHE_ENV

#: Minimum seconds between fuzz-case heartbeats (campaign shards heartbeat
#: implicitly through per-cell messages; fuzz sessions run many cases per
#: second, so their liveness signal is throttled to one message per second).
FUZZ_HEARTBEAT_EVERY_S = 1.0

#: Seconds an idle worker waits for a task before checking that the farm's
#: process is still alive.  A SIGKILLed server cannot send the stop
#: message, and its workers must not idle on forever.
PARENT_CHECK_EVERY_S = 1.0


def _parse_preload(entry) -> Tuple[str, str]:
    """``"label"`` / ``"label:kernel"`` / ``(label, kernel)`` → pair."""
    from repro.rtl import DEFAULT_KERNEL

    if isinstance(entry, str):
        label, _, kernel = entry.partition(":")
        return (label, kernel or DEFAULT_KERNEL)
    label, kernel = entry
    return (str(label), str(kernel))


def worker_main(
    worker_id: int,
    task_queue,
    results,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> None:
    """Worker process entry point (module-level, so it pickles under spawn).

    ``results`` is the write end of this worker's own pipe to the
    dispatcher.  Messages are sent synchronously from this thread, so a
    worker that dies mid-message can only tear its own pipe.  A queue
    shared by every worker would not survive that: its feeder thread holds
    a lock all workers share while it writes, and a worker killed then
    leaves that lock held forever, silencing every later worker.

    The worker returns on the ``None`` stop message, or, while idle, once
    its parent process has died: a server killed with SIGKILL never sends
    the stop message.
    """
    send = results.send

    if program_cache_dir:
        # Reaches every CompiledSimulator this process ever builds; the
        # content-addressed program cache turns levelization and codegen of
        # a known topology into a disk read.
        os.environ[PROGRAM_CACHE_ENV] = str(program_cache_dir)

    runners = ResidentRunners()
    stats = {
        "worker": worker_id,
        "pid": os.getpid(),
        "builds": 0,
        "preloaded": 0,
        "cells": 0,
        "shards": 0,
        "cell_errors": 0,
        "sessions": 0,
        "fuzz_errors": 0,
    }

    for entry in preload:
        label, kernel = _parse_preload(entry)
        try:
            runners.get(label, kernel)
            stats["preloaded"] += 1
        except Exception:
            # A bad preload label must not take the worker down before it
            # served a single job; the label will fail per-cell if actually
            # used, with a proper error record.
            pass

    stats["builds"] = runners.builds
    send(("ready", worker_id, dict(stats, resident=len(runners))))

    parent = multiprocessing.parent_process()
    while True:
        try:
            message = task_queue.get(timeout=PARENT_CHECK_EVERY_S)
        except queue.Empty:
            if parent is not None and not parent.is_alive():
                break
            continue
        if message is None:
            break
        if message[0] == "fuzz":
            _, job_id, shard_id, params = message
            send(("heartbeat", worker_id))
            _run_fuzz_session(worker_id, job_id, shard_id, params,
                              send, stats, resident=len(runners))
            continue
        _, job_id, shard_id, cells = message
        # Shard-start heartbeat: per-cell messages cover liveness from the
        # first completion onward; this covers the first cell's runtime.
        send(("heartbeat", worker_id))
        for cell in cells:
            try:
                outcome = runners.run(cell)
            except Exception as exc:  # noqa: BLE001 — isolate the cell, keep serving
                # A clean cell that raises (or a label that fails to build)
                # becomes an error row and the shard goes on; a batch run
                # raises for it once its job has ended.
                outcome = CellError(
                    kind="cell_exception", message=f"{type(exc).__name__}: {exc}"
                )
            if isinstance(outcome, CellError):
                stats["cell_errors"] += 1
                send(("cell_error", worker_id, job_id, shard_id, cell.key, outcome))
                continue
            stats["cells"] += 1
            send(("cell", worker_id, job_id, shard_id, cell.key, outcome))
        stats["shards"] += 1
        stats["builds"] = runners.builds
        send(("shard_done", worker_id, job_id, shard_id,
              dict(stats, resident=len(runners))))


def _run_fuzz_session(
    worker_id: int,
    job_id: str,
    shard_id: int,
    params: Dict[str, object],
    send,
    stats: Dict[str, object],
    *,
    resident: int,
) -> None:
    """Execute one deterministic fuzz session and report it.

    Imports the fuzz stack lazily: a farm that only ever serves campaign
    jobs never touches Hypothesis, and a worker in an environment without
    it degrades to a structured ``fuzz_error`` instead of dying.
    """
    seed = int(params["seed"])
    try:
        from repro.fuzz.session import run_session, session_payload

        last_beat = [time.perf_counter()]

        def on_case(case, verdict) -> None:
            now = time.perf_counter()
            if now - last_beat[0] >= FUZZ_HEARTBEAT_EVERY_S:
                last_beat[0] = now
                send(("heartbeat", worker_id))

        def on_finding(counterexample) -> None:
            send(("finding", worker_id, job_id, shard_id,
                  counterexample.describe()))

        report = run_session(
            int(params["budget"]),
            seed,
            profile=str(params.get("profile", "quick")),
            with_faults=bool(params.get("with_faults", False)),
            timeout_s=float(params.get("timeout_s", 10.0)),
            corpus_dir=None,  # the farm owns the server-side corpus
            on_case=on_case,
            on_finding=on_finding,
        )
    except Exception as exc:  # noqa: BLE001 — isolate the session, keep serving
        stats["fuzz_errors"] += 1
        send(("fuzz_error", worker_id, job_id, shard_id, seed,
              f"{type(exc).__name__}: {exc}"))
        return
    stats["sessions"] += 1
    send(("fuzz_done", worker_id, job_id, shard_id, session_payload(report),
          round(report.duration_s, 3), dict(stats, resident=resident)))


@dataclass
class WorkerHandle:
    """Parent-side handle of one worker process.  What the worker is doing
    is the scheduler's :class:`~repro.service.scheduler.WorkerState`."""

    worker_id: int
    process: multiprocessing.Process
    task_queue: object
    #: Read end of the worker's result pipe (see :func:`worker_main`).
    results: object


def spawn_worker(
    context,
    worker_id: int,
    program_cache_dir: Optional[str],
    preload: Sequence,
) -> WorkerHandle:
    """Start one worker process with its own task queue and result pipe."""
    task_queue = context.Queue()
    results, writer = context.Pipe(duplex=False)
    process = context.Process(
        target=worker_main,
        args=(worker_id, task_queue, writer,
              str(program_cache_dir) if program_cache_dir else None,
              tuple(preload)),
        daemon=True,
        name=f"splice-farm-worker-{worker_id}",
    )
    process.start()
    # Only the worker keeps the write end, so its death reads as EOF.
    writer.close()
    return WorkerHandle(worker_id=worker_id, process=process,
                        task_queue=task_queue, results=results)
