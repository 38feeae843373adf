"""Blocking processor model used to execute generated drivers.

The embedded processors in the paper (PowerPC 405, LEON2) execute driver
code whose loads and stores appear on the bus one at a time; the processor
stalls on each access until the bus completes it.  :class:`ProcessorModel`
reproduces that behaviour: every :meth:`execute` submits one
:class:`~repro.buses.base.BusTransaction` to the bus master and advances the
simulation until it finishes, charging a small configurable inter-instruction
gap between consecutive accesses (address generation / loop overhead in the
driver code).

Two execution paths exist, both cycle-exact with each other:

* :meth:`execute` — one blocking transaction at a time.  The wait is a
  :class:`~repro.rtl.simulator.WaitCondition` on the master's
  completion-count signal rather than a per-cycle Python lambda, so every
  kernel can evaluate it natively (the compiled kernel runs the whole wait
  inside its generated cycle loop).
* :meth:`execute_script` — a whole driver call's beat sequence (writes,
  poll loop, reads, inter-operation gaps) queued on the master at once as a
  :class:`~repro.buses.base.TransactionScript`; one wait on the master's
  script-count signal replaces N× (submit → wait → gap).  This is the path
  the generated drivers and the Chapter 9 baselines use.

``record_transactions`` controls whether completed transaction objects are
retained in :attr:`executed` (and on the master): campaign-scale runs switch
it off so memory stays flat, while :attr:`transactions_issued` keeps
counting either way.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.buses.base import BusMaster, BusTransaction, PollOp, ScriptOp, TransactionScript
from repro.rtl.simulator import Simulator, WaitCondition


class ProcessorModel:
    """A blocking bus-master CPU with cycle accounting."""

    def __init__(
        self,
        simulator: Simulator,
        master: BusMaster,
        *,
        inter_op_gap: int = 1,
        timeout: int = 100_000,
        record_transactions: bool = True,
    ) -> None:
        self.simulator = simulator
        self.master = master
        self.inter_op_gap = inter_op_gap
        self.timeout = timeout
        self.record_transactions = record_transactions
        self.executed: List[BusTransaction] = []
        self._issued = 0

    # -- cycle accounting ---------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Bus clock cycles elapsed since the simulation started."""
        return self.simulator.cycle

    def elapsed_since(self, start_cycle: int) -> int:
        return self.simulator.cycle - start_cycle

    # -- execution -------------------------------------------------------------------

    def execute(self, transaction: BusTransaction) -> BusTransaction:
        """Run ``transaction`` to completion (blocking, like a CPU load/store)."""
        master = self.master
        if master._script is not None:
            # Scripts have queue priority and advance the completion count,
            # so a mixed-in blocking transaction would unblock early on a
            # script completion.  A blocking CPU never interleaves anyway.
            raise ValueError(
                f"master {master.name!r} is executing a transaction script; "
                f"blocking execute() cannot be interleaved with it"
            )
        master.submit(transaction)
        count = master.completion_count
        # The master completes FIFO, so "our transaction is done" is "the
        # completion count advanced past everything pending right now".
        target = (count._value + master.pending) & count._mask
        self.simulator.wait_until(WaitCondition(count, target), timeout=self.timeout)
        if self.inter_op_gap:
            self.simulator.step(self.inter_op_gap)
        self._issued += 1
        if self.record_transactions:
            self.executed.append(transaction)
        return transaction

    def execute_many(self, transactions) -> List[BusTransaction]:
        return [self.execute(txn) for txn in transactions]

    def execute_script(self, ops: Sequence[ScriptOp]) -> TransactionScript:
        """Run a whole beat sequence inside the master; block until done.

        Cycle-exact with issuing each operation through :meth:`execute`
        (inter-operation gaps included), but the simulation advances in one
        wait on the master's script-count signal instead of one Python round
        trip per transaction.  An empty ``ops`` list completes immediately
        without advancing the simulation, matching a driver call that has
        nothing to transfer.
        """
        script = TransactionScript(
            ops, gap=self.inter_op_gap, record=self.record_transactions
        )
        if not script.ops:
            script.done = True
            return script
        master = self.master
        master.submit_script(script)
        count = master.script_count
        target = (count._value + 1) & count._mask
        # Per-operation budget matching execute(): each poll attempt is an
        # operation of its own.
        budget = self.timeout * sum(
            op.limit if type(op) is PollOp else 1 for op in script.ops
        )
        self.simulator.wait_until(WaitCondition(count, target), timeout=budget)
        self._issued += script.transactions
        if self.record_transactions:
            self.executed.extend(script.executed)
        return script

    def idle(self, cycles: int) -> None:
        """Spin the clock without bus activity (models CPU-side computation)."""
        if cycles > 0:
            self.simulator.step(cycles)

    # -- statistics -------------------------------------------------------------------

    @property
    def transactions_issued(self) -> int:
        return self._issued

    def bus_utilization(self) -> float:
        return self.master.utilization()
