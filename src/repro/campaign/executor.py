"""Running campaign cells in one process, and the rules every cell runner shares.

An executor turns a list of :class:`~repro.campaign.spec.CampaignCell` into
``{cell.key: (result, cycles, transactions)}``.  :class:`SerialExecutor` runs
them in the calling process through :func:`execute_cells`; a multi-worker
``run_campaign`` runs them on an ephemeral
:class:`~repro.service.farm.SimulationFarm` instead, whose warm workers own
the one crash policy (respawn, one retry per unfinished cell, then
``worker_crash`` or ``worker_stuck`` rows).  Every loop that runs cells —
:func:`execute_cells` and the farm's workers — runs each cell through
:meth:`ResidentRunners.run`, so serial, multi-worker and served runs are
bit-identical by construction, error rows included: every cell's inputs
(and the text of its error, if it fails) are derived only from the cell
itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from repro.campaign.spec import CampaignCell
from repro.devices.registry import build_runner

#: What an executor returns per cell: (result, cycles, transactions).
CellOutcome = Tuple[int, int, int]


@dataclass(frozen=True)
class CellError:
    """Structured record for a cell that could not produce an outcome.

    Produced instead of a :data:`CellOutcome` when a farm worker died (or
    went heartbeat-silent) before the cell finished and the one retry did
    too (``worker_crash``, ``worker_stuck``), when a faulted cell's
    simulation raised — e.g. an injected fault deadlocked the handshake
    until a driver timeout fired (``cell_exception``) — or when a fault
    schedule targets a runner that cannot inject it
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
#: finished).  Reported once per cell.  The outcome may be a
#: :class:`CellError`; persistence layers must skip those.
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
        propagates: a farm worker reports it as a ``cell_exception`` row,
        and a batch run, serial or on a farm, fails.
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

    This is the whole of :class:`SerialExecutor`.  Each cell runs through
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
