"""Pluggable campaign executors: serial and process-sharded.

Executors turn a list of :class:`~repro.campaign.spec.CampaignCell` into
``{cell.key: (result, cycles, transactions)}``.  Both executors share the
same per-shard runner (:func:`execute_cells`), and every loop that runs
cells — that one and the service farm's warm workers — runs each cell
through :meth:`ResidentRunners.run`, so serial, sharded and served runs are
bit-identical by construction, error rows included: every cell's inputs
(and the text of its error, if it fails) are derived only from the cell
itself.

Simulators are not picklable, so :class:`ShardedExecutor` ships only the
cell descriptors to each worker process; workers rebuild systems from the
label via :mod:`repro.devices.registry`.  Cells are label-sorted before
being split into contiguous shards, so each worker elaborates each of its
implementations exactly once and reuses the runner across all of that
label's cells.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import CampaignCell
from repro.devices.registry import build_runner

#: What an executor returns per cell: (result, cycles, transactions).
CellOutcome = Tuple[int, int, int]


@dataclass(frozen=True)
class CellError:
    """Structured record for a cell that could not produce an outcome.

    Produced instead of a :data:`CellOutcome` when a worker process died
    mid-shard and the one retry died too (``worker_crash``), when a faulted
    cell's simulation raised — e.g. an injected fault deadlocked the
    handshake until a driver timeout fired (``cell_exception``) — or when a
    fault schedule targets a runner that cannot inject it
    (``faults_unsupported``).  The rest of the campaign (and, in the
    service, the rest of the job) proceeds, and the failure is carried
    through aggregation as :attr:`~repro.campaign.result.CellResult.error`
    rather than killing the whole run.  Never cached: a crash says nothing
    about what the outcome would have been.
    """

    kind: str
    message: str

    def describe(self) -> str:
        return f"{self.kind}: {self.message}"


#: Progress callback: invoked with (cell, outcome) as results land, so the
#: caller can persist incrementally (an interrupted campaign keeps what it
#: finished).  Serial execution reports per cell; sharded per shard.  The
#: outcome may be a :class:`CellError`; persistence layers must skip those.
ResultCallback = Callable[[CampaignCell, Union[CellOutcome, CellError]], None]


def resolve_workers(workers: Optional[int]) -> int:
    """The one rule for worker counts, shared by the batch and service paths.

    ``0`` or ``None`` (the CLI's ``--workers auto``) resolves to one worker
    per host CPU; a positive count is used as given; a negative count raises
    :class:`ValueError`.
    """
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 (0 = auto), got {workers}")
    return workers


class ResidentRunners:
    """The runners one process keeps, keyed by ``(label, kernel)``.

    Each runner is built on first use and reused by every later cell of its
    implementation and kernel; the fault schedule it has applied is tracked
    so consecutive cells with the same schedule do not re-apply it.
    """

    def __init__(self) -> None:
        self._runners: Dict[Tuple[str, str], object] = {}
        self._applied: Dict[Tuple[str, str], Optional[str]] = {}
        #: Runners built so far (evicted ones included).
        self.builds = 0

    def __len__(self) -> int:
        return len(self._runners)

    def get(self, label: str, kernel: str) -> object:
        key = (label, kernel)
        runner = self._runners.get(key)
        if runner is None:
            runner = self._runners[key] = build_runner(label, kernel=kernel)
            self._applied[key] = None
            self.builds += 1
        return runner

    def run(self, cell: CampaignCell) -> Union[CellOutcome, CellError]:
        """Run one cell: the per-cell body of every loop that executes cells.

        A faulted cell whose runner cannot inject (baselines have no SIS
        bundle) yields a ``faults_unsupported`` :class:`CellError`.  A
        faulted cell whose simulation raises (a fault can deadlock the
        handshake into a driver timeout) yields a ``cell_exception`` record
        and evicts the runner, which may be wedged mid-handshake, so the
        next cell of its label rebuilds fresh.  A clean cell's exception
        propagates: a batch run fails, a farm worker reports an error row.
        """
        key = (cell.label, cell.kernel)
        runner = self.get(*key)
        faults = cell.faults
        apply_faults = getattr(runner, "apply_faults", None)
        if faults is not None and apply_faults is None:
            return CellError("faults_unsupported", f"runner {cell.label!r} cannot inject fault schedule {faults!r}")
        if apply_faults is not None and self._applied[key] != faults:
            apply_faults(faults)
            self._applied[key] = faults
        sets = cell.generate_inputs()
        try:
            outcome = runner.run_scenario(sets)
        except Exception as exc:
            if faults is None:
                raise
            del self._runners[key], self._applied[key]
            return CellError("cell_exception", f"fault schedule {faults!r}: {type(exc).__name__}: {exc}")
        return (int(outcome["result"]) & 0xFFFFFFFF, int(outcome["cycles"]), int(outcome.get("transactions", 0)))


def execute_cells(
    cells: Sequence[CampaignCell],
    on_result: Optional[ResultCallback] = None,
) -> Dict[tuple, Union[CellOutcome, CellError]]:
    """Run ``cells`` in-process, building each (implementation, kernel) once.

    This is both the whole of :class:`SerialExecutor` and the per-worker body
    of :class:`ShardedExecutor` — a single code path keeps the two executors
    trivially equivalent.  (Workers call it without ``on_result``; callbacks
    don't cross process boundaries.)  Each cell runs through
    :meth:`ResidentRunners.run`, so a failed faulted cell becomes a
    :class:`CellError` row while a clean cell's exception aborts the run.
    """
    outcomes: Dict[tuple, Union[CellOutcome, CellError]] = {}
    runners = ResidentRunners()
    for cell in sorted(cells, key=lambda c: c.key):
        outcome = outcomes[cell.key] = runners.run(cell)
        if on_result is not None:
            on_result(cell, outcome)
    return outcomes


class SerialExecutor:
    """Run every cell in the calling process."""

    name = "serial"
    workers = 1

    def execute(
        self,
        cells: Sequence[CampaignCell],
        on_result: Optional[ResultCallback] = None,
    ) -> Dict[tuple, CellOutcome]:
        return execute_cells(cells, on_result)


class ShardedExecutor:
    """Partition cells across worker processes.

    Each worker receives a contiguous, label-sorted shard and rebuilds its
    own systems (simulators are not picklable), so shards are independent
    and the merged result is identical to a serial run.

    Workers resolve labels through :mod:`repro.devices.registry` at import
    time.  Labels registered at runtime via ``register_runner`` are only
    visible to workers under the ``fork`` start method (Linux default); with
    ``spawn`` (macOS/Windows), register them from a module that workers
    import, or run serially.
    """

    name = "sharded"

    def __init__(self, workers: int = 0) -> None:
        self.workers = resolve_workers(workers)

    @staticmethod
    def partition(cells: Sequence[CampaignCell], shards: int) -> List[List[CampaignCell]]:
        """Label-sorted contiguous split into at most ``shards`` parts.

        Sorting by key groups each label's cells together, so a shard that
        holds k labels elaborates exactly k systems; contiguous splitting
        keeps shard sizes within one cell of each other.
        """
        ordered = sorted(cells, key=lambda c: c.key)
        shards = max(1, min(shards, len(ordered) or 1))
        base, extra = divmod(len(ordered), shards)
        parts: List[List[CampaignCell]] = []
        start = 0
        for index in range(shards):
            size = base + (1 if index < extra else 0)
            parts.append(ordered[start:start + size])
            start += size
        return [part for part in parts if part]

    def execute(
        self,
        cells: Sequence[CampaignCell],
        on_result: Optional[ResultCallback] = None,
    ) -> Dict[tuple, Union[CellOutcome, CellError]]:
        shards = self.partition(cells, self.workers)
        if len(shards) <= 1:
            return execute_cells(cells, on_result)
        by_key = {cell.key: cell for cell in cells}
        outcomes: Dict[tuple, Union[CellOutcome, CellError]] = {}
        first_error: Optional[BaseException] = None
        broken: List[List[CampaignCell]] = []

        def merge(shard_result: Dict[tuple, CellOutcome]) -> None:
            outcomes.update(shard_result)
            if on_result is not None:
                for key, outcome in shard_result.items():
                    on_result(by_key[key], outcome)

        with ProcessPoolExecutor(max_workers=len(shards)) as pool:
            futures = {pool.submit(execute_cells, shard): shard for shard in shards}
            for future in as_completed(futures):
                try:
                    shard_result = future.result()
                except BrokenProcessPool:
                    # A worker process died (OOM kill, segfault, os._exit) —
                    # every unfinished future on the pool reports this, so
                    # innocent shards land here alongside the one that
                    # crashed.  Collect them all for a retry after the drain.
                    broken.append(futures[future])
                    continue
                except BaseException as exc:
                    # Keep draining: the other shards' finished work must
                    # still reach on_result (the cache) before we re-raise.
                    if first_error is None:
                        first_error = exc
                    continue
                merge(shard_result)

        # Each broken shard gets exactly one retry on its own fresh
        # single-worker pool (isolated, so one poisoned shard cannot break
        # another's retry).  A second death fails just that shard's cells
        # with a structured record instead of killing the run.
        for shard in broken:
            try:
                with ProcessPoolExecutor(max_workers=1) as retry_pool:
                    shard_result = retry_pool.submit(execute_cells, shard).result()
            except BrokenProcessPool:
                labels = sorted({cell.label for cell in shard})
                error = CellError(
                    kind="worker_crash",
                    message=(
                        "worker process died running this shard and the retry "
                        f"died too (shard of {len(shard)} cells, labels {labels})"
                    ),
                )
                for cell in shard:
                    outcomes[cell.key] = error
                    if on_result is not None:
                        on_result(cell, error)
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
            else:
                merge(shard_result)
        if first_error is not None:
            raise first_error
        return outcomes


def make_executor(workers: Optional[int] = 1) -> object:
    """Resolve a worker count (see :func:`resolve_workers`) to an executor.

    ``1`` (and a 1-CPU host's "auto") is serial; anything larger is a
    sharded pool of that size.
    """
    workers = resolve_workers(workers)
    if workers <= 1:
        return SerialExecutor()
    return ShardedExecutor(workers=workers)
