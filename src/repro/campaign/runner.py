"""Campaign orchestration: cache lookup → execution → aggregated result.

:func:`run_campaign` is the one-call path: expand the spec's grid, satisfy
what it can from the result cache, run the remaining cells, persist fresh
outcomes back to the cache as each one lands, and aggregate everything into
a :class:`~repro.campaign.result.CampaignResult`.

The remaining cells run in this process (an explicit ``executor``, or one
worker) or on a :class:`~repro.service.farm.SimulationFarm` started for the
run alone — the warm workers, stuck-worker watchdog and crash policy of
``splice serve``, with no HTTP server and no state directory.  The farm is
imported only when one is started, so a serial run never loads
:mod:`repro.service`.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellError, CellOutcome, SerialExecutor, resolve_workers
from repro.campaign.result import CampaignResult, cell_result
from repro.campaign.spec import CampaignSpec

Outcomes = Dict[tuple, Union[CellOutcome, CellError]]


def run_campaign(
    spec: CampaignSpec,
    *,
    executor=None,
    workers: int = 1,
    cache: Union[ResultCache, Path, str, None] = None,
) -> CampaignResult:
    """Run every cell of ``spec`` and aggregate the outcomes.

    ``executor`` wins over ``workers``.  Without one, ``workers`` resolves
    through :func:`~repro.campaign.executor.resolve_workers`: one worker
    runs serially in this process; more start a farm for this run, with
    no more workers than there are uncached cells, that is stopped before
    this returns or raises.  ``cache`` may be a :class:`ResultCache` or a
    directory path; cached cells are never executed (their stored outcome
    is trusted — the content address covers the inputs and the kernel
    sources), and a run with every cell cached starts no process.

    A clean cell whose runner raises fails the run.  Serially, the
    runner's own exception propagates at once, and the cells finished
    before it stay persisted.  On a farm, every other cell still runs and
    is persisted, and then the run raises :class:`RuntimeError`, as it
    does if the farm itself fails.
    """
    if executor is None:
        workers = resolve_workers(workers)
        if workers <= 1:
            executor = SerialExecutor()
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
        try:
            return _run(spec, executor, workers, cache)
        finally:
            cache.close()
    return _run(spec, executor, workers, cache)


def _run(spec: CampaignSpec, executor, workers: int,
         cache: Optional[ResultCache]) -> CampaignResult:
    cells = spec.cells()
    started = time.perf_counter()

    cached = {} if cache is None else cache.lookup(cells)
    pending = [cell for cell in cells if cell.key not in cached]
    fresh: Outcomes = {}
    if executor is None:
        name = "farm"
        if pending:
            fresh = _run_on_farm(spec, cached, len(pending), workers, cache)
    else:
        name = getattr(executor, "name", type(executor).__name__)
        workers = getattr(executor, "workers", 1)
        if pending:
            fresh = _execute(executor, pending, cache)
    missing = [cell.key for cell in cells if cell.key not in cached and cell.key not in fresh]
    if missing:
        raise RuntimeError(f"executor returned no outcome for cells: {missing[:5]}")

    elapsed = time.perf_counter() - started
    results = [
        cell_result(cell, cached.get(cell.key) or fresh[cell.key], cached=cell.key in cached)
        for cell in cells
    ]
    failed = sum(1 for r in results if r.error is not None)
    total_cycles = sum(r.cycles for r in results if not r.cached and r.error is None)
    return CampaignResult(
        spec=spec,
        cells=results,
        meta={
            "executor": name,
            "workers": workers,
            "elapsed_s": round(elapsed, 6),
            "cells_total": len(cells),
            "cells_cached": len(cached),
            "cells_executed": len(cells) - len(cached),
            "cells_failed": failed,
            "simulated_cycles": total_cycles,
            "simulated_cycles_per_s": round(total_cycles / elapsed, 1) if elapsed > 0 else 0.0,
            "spec_fingerprint": spec.fingerprint(),
        },
    )


def _execute(executor, pending, cache: Optional[ResultCache]) -> Outcomes:
    """Run ``pending`` through ``executor`` in this process."""
    # Persist outcomes as they land, so an interrupted campaign resumes from
    # what it finished.  CellError records are never persisted: a failure
    # says nothing about what the outcome would have been.
    on_result = None
    if cache is not None:
        def on_result(cell, outcome, _put=cache.put):
            if not isinstance(outcome, CellError):
                _put(cell, outcome)
    return executor.execute(pending, on_result)


def _run_on_farm(spec: CampaignSpec, cached: Dict[tuple, CellOutcome], pending: int,
                 workers: int, cache: Optional[ResultCache]) -> Outcomes:
    """Run the ``pending`` uncached cells of ``spec`` as the one job of a
    farm started for it, and return their outcomes, error rows included.

    Shards hold the farm's default number of cells, or fewer when that
    would leave one of ``workers`` without a shard, and the farm gets no
    more workers than there are shards.  The farm persists each outcome to
    ``cache`` as it lands; without a cache it persists nothing.
    """
    from repro.service.farm import DEFAULT_SHARD_SIZE, SimulationFarm
    from repro.service.jobs import CAMPAIGN

    shard_size = min(DEFAULT_SHARD_SIZE, -(-pending // workers))
    workers = min(workers, -(-pending // shard_size))
    with SimulationFarm(workers, cache=cache, shard_size=shard_size) as farm:
        job = farm._submit(CAMPAIGN, spec, cached, persist=cache is not None)
        state = job.wait()
    if job.cells_done < len(job.cells):
        raise RuntimeError(job.events[-1].get("reason") or f"farm job ended {state}")
    for cell in job.cells:
        error = job.errors.get(cell.key)
        if error is not None and error.kind == "cell_exception" and cell.faults is None:
            raise RuntimeError(
                f"cell {cell.label}/s{cell.scenario.number}/seed{cell.seed}"
                f"/r{cell.repeat} failed: {error.message}"
            )
    fresh: Outcomes = dict(job.fresh)
    fresh.update(job.errors)
    return fresh
