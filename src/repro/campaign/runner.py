"""Campaign orchestration: cache lookup → executor → aggregated result.

:func:`run_campaign` is the one-call path: expand the spec's grid, satisfy
what it can from the result cache, ship the remaining cells to the chosen
executor, persist fresh outcomes back to the cache, and aggregate everything
into a :class:`~repro.campaign.result.CampaignResult`.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CellError, CellOutcome, SerialExecutor, make_executor
from repro.campaign.result import CampaignResult, CellResult, cell_result
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.rtl.compile import PROGRAM_CACHE_ENV


@contextmanager
def _program_cache_env(cache: Optional[ResultCache]):
    """Point compiled-kernel program caching at the campaign cache directory.

    Exported through the environment so it reaches sharded-executor worker
    processes (inherited under both fork and spawn); restored afterwards so
    an un-cached campaign in the same process does not silently keep writing
    into a stale directory.
    """
    if cache is None:
        yield
        return
    previous = os.environ.get(PROGRAM_CACHE_ENV)
    os.environ[PROGRAM_CACHE_ENV] = str(cache.program_cache_dir)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(PROGRAM_CACHE_ENV, None)
        else:
            os.environ[PROGRAM_CACHE_ENV] = previous


def run_campaign(
    spec: CampaignSpec,
    *,
    executor=None,
    workers: int = 1,
    cache: Union[ResultCache, Path, str, None] = None,
) -> CampaignResult:
    """Run every cell of ``spec`` and aggregate the outcomes.

    ``executor`` wins over ``workers``; with neither, the run is serial.
    ``cache`` may be a :class:`ResultCache` or a directory path; cached
    cells are never executed (their stored outcome is trusted — the content
    address covers the inputs and the kernel sources).
    """
    if executor is None:
        executor = make_executor(workers)
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
        try:
            return _run(spec, executor, cache)
        finally:
            cache.close()
    return _run(spec, executor, cache)


def _run(spec: CampaignSpec, executor, cache: Optional[ResultCache]) -> CampaignResult:
    cells = spec.cells()
    started = time.perf_counter()

    cached: Dict[tuple, CellOutcome] = {}
    pending = []
    if cache is not None:
        for cell in cells:
            outcome = cache.get(cell)
            if outcome is None:
                pending.append(cell)
            else:
                cached[cell.key] = outcome
    else:
        pending = list(cells)

    fresh: Dict[tuple, CellOutcome] = {}
    if pending:
        # Persist outcomes as they land (per cell serially, per shard when
        # sharded), so an interrupted campaign resumes from what it finished.
        # CellError records are never persisted: a worker crash says nothing
        # about what the outcome would have been.
        on_result = None
        if cache is not None:
            def on_result(cell, outcome, _put=cache.put):
                if not isinstance(outcome, CellError):
                    _put(cell, outcome)
        with _program_cache_env(cache):
            fresh = executor.execute(pending, on_result)
        missing = [cell.key for cell in pending if cell.key not in fresh]
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
            "executor": getattr(executor, "name", type(executor).__name__),
            "workers": getattr(executor, "workers", 1),
            "elapsed_s": round(elapsed, 6),
            "cells_total": len(cells),
            "cells_cached": len(cached),
            "cells_executed": len(pending),
            "cells_failed": failed,
            "simulated_cycles": total_cycles,
            "simulated_cycles_per_s": round(total_cycles / elapsed, 1) if elapsed > 0 else 0.0,
            "spec_fingerprint": spec.fingerprint(),
        },
    )
