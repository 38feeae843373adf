"""Runtime drivers: Python callables mirroring the generated C drivers.

A :class:`GeneratedDriver` reproduces, step for step, the structure of the C
drivers in Figures 6.1 and 6.2:

1. ``SET_ADDRESS`` — compute the target function's slot (plus the instance
   index for multi-instance functions),
2. one write macro per declared input, in declaration order, splitting or
   packing values exactly as the hardware stub expects,
3. ``WAIT_FOR_RESULTS`` — a no-op on pseudo-asynchronous buses, a
   ``CALC_DONE`` poll loop on strictly synchronous ones,
4. read macros for the return value (or the single pseudo-output status word
   of a blocking ``void`` function), and
5. reassembly of the read beats into the value the caller expects.

The driver issues its transactions through a *processor* object (usually
:class:`repro.soc.cpu.ProcessorModel`), so calling a driver advances the
simulation and its cost is measured in real bus clock cycles.  The whole
call — every write beat, the ``CALC_DONE`` poll loop, every read beat and
the inter-operation gaps between them — is submitted as one
:class:`~repro.buses.base.TransactionScript` that the bus master consumes
inside the simulation, so a driver call costs one kernel wait instead of one
Python round trip per transaction (cycle-exact with the per-transaction
path; see ``tests/test_harness_scripting.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.buses.base import PollOp, TransactionOp
from repro.core.drivers.macro_lib import SoftwareMacroLibrary
from repro.core.drivers.wire_format import beat_count, deserialize_io, serialize_io
from repro.core.params import FuncParams, IOParams, ModuleParams
from repro.core.syntax.errors import SpliceGenerationError
from repro.rtl.signal import mask_for_width

Value = Union[int, Sequence[int]]


@dataclass
class DriverCallRecord:
    """Bookkeeping for one driver invocation (used by the benchmarks)."""

    func_name: str
    instance: int
    start_cycle: int
    end_cycle: int
    transactions: int
    polls: int = 0

    @property
    def cycles(self) -> int:
        return self.end_cycle - self.start_cycle


class GeneratedDriver:
    """The runtime driver for one interface declaration."""

    def __init__(
        self,
        func: FuncParams,
        module: ModuleParams,
        library: SoftwareMacroLibrary,
        processor,
        *,
        poll_limit: int = 10_000,
    ) -> None:
        self.func = func
        self.module = module
        self.library = library
        self.processor = processor
        self.poll_limit = poll_limit
        self.calls: List[DriverCallRecord] = []

    # -- public API -------------------------------------------------------------

    def __call__(self, *args: Value, inst_index: int = 0, **kwargs: Value):
        """Invoke the hardware function exactly as the C driver would.

        The full beat sequence is known before the bus is touched (the beat
        counts depend only on the declaration and the bound argument sizes),
        so the whole call is scripted onto the master and executed with a
        single blocking wait.
        """
        func = self.func
        if not 0 <= inst_index < func.nmbr_instances:
            raise SpliceGenerationError(
                f"{func.func_name} has {func.nmbr_instances} instance(s); "
                f"inst_index {inst_index} is out of range"
            )
        bound = self._bind_arguments(args, kwargs)
        func_id = func.func_id + inst_index
        start_cycle = self.processor.cycles
        ops: List[object] = []
        transactions = 0

        # 1-2: transfer every input in declaration order.
        for io in func.inputs:
            count = self._element_count(io, bound)
            words = serialize_io(io, bound[io.io_name], self.module.data_width, count)
            if not words:
                continue
            use_burst = self.module.ld_burst_f or self.library.max_burst_words > 1
            txns = self.library.write_transactions(
                self.module, func_id, words, use_dma=io.is_dma, use_burst=use_burst and not io.is_dma
            )
            ops.extend(TransactionOp(txn) for txn in txns)
            transactions += len(txns)

        output_plan = None
        read_txns: List = []
        if func.blocking:
            if self.library.requires_polling and not func.inputs:
                # Strictly synchronous buses cannot pause a read until the
                # function wakes up, so parameterless functions are started
                # with an explicit trigger write before polling CALC_DONE.
                trigger = self.library.write_transactions(self.module, func_id, [0])[0]
                ops.append(TransactionOp(trigger))
                transactions += 1
            if self.library.requires_polling:
                # 3: WAIT_FOR_RESULTS — the poll loop runs inside the master.
                template = self.library.poll_transaction(self.module)
                ops.append(
                    PollOp(template.kind, template.address, 1 << (func_id - 1), self.poll_limit)
                )
            # 4-5: read back the result (or the pseudo-output status word).
            if func.has_output and func.output is not None:
                output = func.output
                count = self._element_count(output, bound)
                beats = beat_count(output, self.module.data_width, count)
                read_txns = self._read_transactions(func_id, beats, output)
                ops.extend(TransactionOp(txn) for txn in read_txns)
                transactions += beats
                output_plan = (output, count, beats)
            else:
                read_txns = self._read_transactions(func_id, 1, None)
                ops.extend(TransactionOp(txn) for txn in read_txns)
                transactions += 1
        elif not func.inputs:
            # A nowait function with no inputs still needs a trigger write.
            txn = self.library.write_transactions(self.module, func_id, [0])[0]
            ops.append(TransactionOp(txn))
            transactions += 1

        script = self.processor.execute_script(ops)
        polls = script.polls
        transactions += polls
        if script.poll_failed:
            raise SpliceGenerationError(
                f"WAIT_FOR_RESULTS for function id {func_id} did not complete within "
                f"{self.poll_limit} status polls"
            )

        result = None
        if output_plan is not None:
            output, count, beats = output_plan
            words: List[int] = []
            for txn in read_txns:
                words.extend(txn.results)
            result = deserialize_io(output, words[:beats], self.module.data_width, count)

        record = DriverCallRecord(
            func_name=func.func_name,
            instance=inst_index,
            start_cycle=start_cycle,
            end_cycle=self.processor.cycles,
            transactions=transactions,
            polls=polls,
        )
        self.calls.append(record)
        return result

    @property
    def last_call(self) -> Optional[DriverCallRecord]:
        return self.calls[-1] if self.calls else None

    def total_cycles(self) -> int:
        return sum(call.cycles for call in self.calls)

    # -- internals ---------------------------------------------------------------

    def _bind_arguments(self, args: Sequence[Value], kwargs: Dict[str, Value]) -> Dict[str, Value]:
        names = [io.io_name for io in self.func.inputs]
        if len(args) > len(names):
            raise SpliceGenerationError(
                f"{self.func.func_name} takes {len(names)} argument(s), got {len(args)}"
            )
        bound: Dict[str, Value] = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise SpliceGenerationError(
                    f"{self.func.func_name} has no parameter named {name!r}"
                )
            if name in bound:
                raise SpliceGenerationError(f"parameter {name!r} supplied twice")
            bound[name] = value
        missing = [name for name in names if name not in bound]
        if missing:
            raise SpliceGenerationError(
                f"{self.func.func_name} is missing argument(s): {', '.join(missing)}"
            )
        # A count crosses the bus masked to its declared width, so a count
        # that does not fit would leave the stub expecting fewer elements
        # than the driver sends.
        for io in self.func.inputs:
            if io.used_as_index:
                limit = mask_for_width(io.io_width)
                count = int(bound[io.io_name])
                if not 0 <= count <= limit:
                    raise SpliceGenerationError(
                        f"{self.func.func_name}: count parameter {io.io_name!r} "
                        f"({io.io_type}) holds at most {limit}, got {count}"
                    )
        return bound

    def _element_count(self, io: IOParams, bound: Dict[str, Value]) -> int:
        if io.has_index:
            return int(bound[io.index_var])
        if io.io_number is not None:
            return io.io_number
        return 1

    def _read_transactions(self, func_id: int, beats: int, output: Optional[IOParams]) -> List:
        """The read-macro transactions moving ``beats`` result words."""
        if beats <= 0:
            return []
        use_dma = bool(output is not None and output.is_dma)
        use_burst = self.library.max_burst_words > 1
        return self.library.read_transactions(
            self.module, func_id, beats, use_dma=use_dma, use_burst=use_burst and not use_dma
        )


@dataclass
class DriverSet:
    """All runtime drivers generated for one peripheral."""

    module: ModuleParams
    drivers: Dict[str, GeneratedDriver] = field(default_factory=dict)

    def __getitem__(self, func_name: str) -> GeneratedDriver:
        return self.drivers[func_name]

    def __contains__(self, func_name: str) -> bool:
        return func_name in self.drivers

    def names(self) -> List[str]:
        return list(self.drivers)

    @classmethod
    def build(
        cls,
        module: ModuleParams,
        library: SoftwareMacroLibrary,
        processor,
    ) -> "DriverSet":
        drivers = {
            func.func_name: GeneratedDriver(func, module, library, processor)
            for func in module.funcs
        }
        return cls(module=module, drivers=drivers)
