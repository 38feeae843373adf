"""Hand-coded baseline interfaces for the Chapter 9 comparison.

Section 9.2.1 describes two hand-coded interconnects for the linear
interpolator:

* **"Simple PLB"** — the designers' first attempt, written before they knew
  "all of the intricacies of the PLB"; it is representative of what an
  end-user unfamiliar with the protocol would create.  This reproduction
  models those inefficiencies explicitly: every word is decoded and stored
  over several wait-state cycles before it is acknowledged, each input set is
  preceded by a count header word, and the driver defensively polls a status
  register before collecting the result.
* **"Optimized FCB"** — a hand-tuned co-processor attachment that
  acknowledges every beat on the next cycle, consumes quad-word bursts, and
  returns the result without any polling.

Both devices run the identical calculation
(:func:`repro.devices.interpolator.interpolate_fixed_point`) with the same
fixed latency as the Splice-generated versions, so the measured differences
come purely from the interface logic — exactly the paper's methodology.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.buses.base import BusTransaction, TransactionKind, TransactionOp
from repro.buses.fcb import FCBMaster, FCBSlaveBundle
from repro.buses.plb import PLBMaster, PLBSlaveBundle
from repro.core.generation.ir import EntityIR, EntityKind, PortDirection
from repro.devices.interpolator import CALCULATION_LATENCY, interpolate_fixed_point
from repro.rtl.fsm import (
    Active,
    BoundFsm,
    Call,
    Exec,
    FsmSpec,
    Goto,
    If,
    Pulse,
    Schedule,
    StateDispatch,
)
from repro.rtl.module import Module
from repro.rtl.simulator import Simulator
from repro.soc.cpu import ProcessorModel

#: Slot assignments used by both hand-coded designs.
SLOT_STATUS = 0
SLOT_SET1 = 1
SLOT_SET2 = 2
SLOT_SET3 = 3
SLOT_RESULT = 4

_BASE_ADDRESS = 0x80030000
_NUM_SLOTS = 8


def _complete_interpolation(device) -> None:
    """Finish a baseline's calculation: both hand-coded devices share the
    identical completion bookkeeping."""
    device.result = interpolate_fixed_point(
        device.sets[SLOT_SET1], device.sets[SLOT_SET2], device.sets[SLOT_SET3]
    )
    device.calc_done = True
    device._calculating = False
    device.activations += 1


class NaivePLBInterpolator(Module):
    """The naïve hand-coded PLB interpolator slave."""

    #: Wait-state cycles inserted between seeing a write and acknowledging it
    #: (decode, byte-enable check, store) — the hallmark of the first-attempt
    #: implementation.
    WRITE_WAIT_STATES = 4
    READ_WAIT_STATES = 3

    def __init__(
        self,
        name: str,
        plb: PLBSlaveBundle,
        calc_latency: int = CALCULATION_LATENCY,
    ) -> None:
        super().__init__(name)
        self.plb = plb
        self.calc_latency = calc_latency
        self.sets: Dict[int, List[int]] = {SLOT_SET1: [], SLOT_SET2: [], SLOT_SET3: []}
        self.expected: Dict[int, int] = {SLOT_SET1: -1, SLOT_SET2: -1, SLOT_SET3: -1}
        self.result = 0
        self.calc_done = False
        self._calc_counter = 0
        self._calculating = False
        self._state = "idle"
        self._delay = 0
        self._pending_slot = 0
        self._pending_data = 0
        self.activations = 0
        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals={
                "prst": plb.rst, "wr_req": plb.wr_req, "wr_ce": plb.wr_ce,
                "rd_req": plb.rd_req, "rd_ce": plb.rd_ce,
                "d2s": plb.data_to_slave, "dfs": plb.data_from_slave,
                "wr_ack": plb.wr_ack, "rd_ack": plb.rd_ack,
            },
            helpers={
                "h_reset_state": self._reset_state,
                "h_finish_calc": self._finish_calc,
                "h_store_word": self._store_word,
                "h_clear_inputs": self._clear_inputs,
            },
            consts={
                "WWAIT": self.WRITE_WAIT_STATES,
                "RWAIT": self.READ_WAIT_STATES,
                "STATUS": SLOT_STATUS,
                "RESULT": SLOT_RESULT,
            },
        )
        self.clocked(
            self.fsm.tick,
            sensitive_to=[
                plb.rst, plb.wr_req, plb.wr_ce, plb.rd_req, plb.rd_ce, plb.data_to_slave,
            ],
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec() -> FsmSpec:
        """The first-attempt hand-coded slave as FSM IR.

        The calculation countdown is an entry overlay (it runs regardless of
        the bus state); the decode wait states count down a cycle at a
        time — deliberately *not* a timed-wake park, because modelling the
        naïve design's always-busy decode FSM is the point of this baseline.
        """
        return FsmSpec(
            name="naive_plb_interp",
            entry=(
                If(
                    "prst._value",
                    (Call("h_reset_state"),),
                    orelse=(
                        If(
                            "m._calculating",
                            (
                                Exec("m._calc_counter += 1"),
                                If(
                                    "m._calc_counter >= m.calc_latency",
                                    (Call("h_finish_calc"),),
                                ),
                                Active("True"),
                            ),
                        ),
                        StateDispatch(),
                    ),
                ),
            ),
            states={
                "idle": (
                    If(
                        "wr_req._value and wr_ce._value",
                        (
                            Exec("m._pending_slot = wr_ce._value.bit_length() - 1"),
                            Exec("m._pending_data = d2s._value"),
                            Exec("m._delay = WWAIT"),
                            Goto("write_decode"),
                            Active("True"),
                        ),
                        orelse=(
                            If(
                                "rd_req._value and rd_ce._value",
                                (
                                    Exec("m._pending_slot = rd_ce._value.bit_length() - 1"),
                                    Exec("m._delay = RWAIT"),
                                    Goto("read_decode"),
                                    Active("True"),
                                ),
                            ),
                        ),
                    ),
                ),
                # Decode/wait states count down or respond every cycle
                # regardless of input changes, so they always report activity.
                "write_decode": (
                    If(
                        "m._delay > 0",
                        (Exec("m._delay -= 1"),),
                        orelse=(
                            Call("h_store_word", args="m._pending_slot, m._pending_data"),
                            Pulse("wr_ack"),
                            Goto("idle"),
                        ),
                    ),
                    Active("True"),
                ),
                "read_decode": (
                    If(
                        "m._delay > 0",
                        (Exec("m._delay -= 1"),),
                        orelse=(
                            If(
                                "m._pending_slot == STATUS",
                                (
                                    Schedule("dfs", "1 if m.calc_done else 0"),
                                    Pulse("rd_ack"),
                                    Goto("idle"),
                                ),
                                orelse=(
                                    If(
                                        "m._pending_slot == RESULT",
                                        (
                                            If(
                                                "m.calc_done",
                                                (
                                                    Schedule("dfs", "m.result & 0xFFFFFFFF"),
                                                    Pulse("rd_ack"),
                                                    Exec("m.calc_done = False"),
                                                    Call("h_clear_inputs"),
                                                    Goto("idle"),
                                                ),
                                                # otherwise: hold the bus
                                                # (pseudo-asynchronous wait).
                                            ),
                                        ),
                                        orelse=(
                                            Schedule("dfs", "0"),
                                            Pulse("rd_ack"),
                                            Goto("idle"),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                    Active("True"),
                ),
            },
            initial="idle",
            state_attr="_state",
            signals=(
                "prst", "wr_req", "wr_ce", "rd_req", "rd_ce", "d2s", "dfs",
                "wr_ack", "rd_ack",
            ),
            helpers=("h_reset_state", "h_finish_calc", "h_store_word", "h_clear_inputs"),
            consts=("WWAIT", "RWAIT", "STATUS", "RESULT"),
        )

    def _finish_calc(self) -> None:
        _complete_interpolation(self)

    # -- helpers ---------------------------------------------------------------

    def _store_word(self, slot: int, word: int) -> None:
        if slot not in self.sets:
            return
        if self.expected[slot] < 0:
            self.expected[slot] = word  # count header
            self.sets[slot] = []
        else:
            self.sets[slot].append(word)
        if (
            slot == SLOT_SET3
            and self.expected[SLOT_SET3] >= 0
            and len(self.sets[SLOT_SET3]) >= self.expected[SLOT_SET3]
            and all(
                self.expected[s] >= 0 and len(self.sets[s]) >= self.expected[s]
                for s in (SLOT_SET1, SLOT_SET2, SLOT_SET3)
            )
        ):
            self._calculating = True
            self._calc_counter = 0
            self.calc_done = False

    def _clear_inputs(self) -> None:
        for slot in self.sets:
            self.sets[slot] = []
            self.expected[slot] = -1

    def _reset_state(self) -> None:
        self._clear_inputs()
        self.result = 0
        self.calc_done = False
        self._calculating = False
        self._calc_counter = 0
        self._state = "idle"
        self._delay = 0


class OptimizedFCBInterpolator(Module):
    """The hand-tuned FCB interpolator slave (acknowledges beats back-to-back)."""

    def __init__(
        self,
        name: str,
        fcb: FCBSlaveBundle,
        calc_latency: int = CALCULATION_LATENCY,
    ) -> None:
        super().__init__(name)
        self.fcb = fcb
        self.calc_latency = calc_latency
        self.sets: Dict[int, List[int]] = {SLOT_SET1: [], SLOT_SET2: [], SLOT_SET3: []}
        self.expected: Dict[int, int] = {SLOT_SET1: -1, SLOT_SET2: -1, SLOT_SET3: -1}
        self.result = 0
        self.calc_done = False
        self._calculating = False
        self._calc_counter = 0
        self._target_slot = 0
        self._is_write = False
        self._beat_seen = True
        self._decode_wait = 0
        self.activations = 0
        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals={
                "prst": fcb.rst, "req": fcb.req, "func_sel": fcb.func_sel,
                "is_write": fcb.is_write, "data_valid": fcb.data_valid,
                "d2s": fcb.data_to_slave, "dfs": fcb.data_from_slave,
                "ack": fcb.ack, "resp_valid": fcb.resp_valid,
            },
            helpers={
                "h_reset_state": self._reset_state,
                "h_finish_calc": self._finish_calc,
                "h_store_word": self._store_word,
                "h_clear_inputs": self._clear_inputs,
            },
            consts={"RESULT": SLOT_RESULT},
        )
        self.clocked(
            self.fsm.tick,
            sensitive_to=[
                fcb.rst, fcb.req, fcb.func_sel, fcb.is_write,
                fcb.data_valid, fcb.data_to_slave,
            ],
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec() -> FsmSpec:
        """The hand-tuned co-processor slave as FSM IR.

        This design is flag-driven rather than phase-driven (the hallmark of
        hand-tuned RTL), so the IR is a single dispatch state whose body
        mirrors the write/read flag logic, with the calculation countdown
        and request capture as entry overlays.
        """
        return FsmSpec(
            name="optimized_fcb_interp",
            entry=(
                If(
                    "prst._value",
                    (Call("h_reset_state"),),
                    orelse=(
                        If(
                            "m._calculating",
                            (
                                Exec("m._calc_counter += 1"),
                                If(
                                    "m._calc_counter >= m.calc_latency",
                                    (Call("h_finish_calc"),),
                                ),
                                Active("True"),
                            ),
                        ),
                        If(
                            "req._value",
                            (
                                Exec("m._target_slot = func_sel._value"),
                                Exec("m._is_write = bool(is_write._value)"),
                                Exec("m._beat_seen = False"),
                                Active("True"),
                            ),
                        ),
                        StateDispatch(),
                    ),
                ),
            ),
            states={
                "main": (
                    If(
                        "m._is_write",
                        (
                            # Register the beat, decode the target set, ack
                            # two cycles later — fast, but not free, because
                            # the operand registers sit behind a write
                            # decoder.
                            If(
                                "data_valid._value and not m._beat_seen",
                                (
                                    If(
                                        "m._decode_wait < 3",
                                        (Exec("m._decode_wait += 1"), Active("True")),
                                        orelse=(
                                            Exec("m._decode_wait = 0"),
                                            Call(
                                                "h_store_word",
                                                args="m._target_slot, d2s._value",
                                            ),
                                            Pulse("ack"),
                                            Exec("m._beat_seen = True"),
                                            Active("True"),
                                        ),
                                    ),
                                ),
                                orelse=(
                                    If(
                                        "not data_valid._value",
                                        # Idempotent while the bus is quiet.
                                        (Exec("m._beat_seen = False"),),
                                    ),
                                ),
                            ),
                        ),
                        orelse=(
                            If(
                                "m._target_slot and not m._beat_seen",
                                (
                                    If(
                                        "m._target_slot == RESULT and not m.calc_done",
                                        # Hold the port until the result is
                                        # ready; the countdown keeps us active.
                                        (Active("True"),),
                                        orelse=(
                                            If(
                                                "m._target_slot == RESULT",
                                                (
                                                    Schedule("dfs", "m.result & 0xFFFFFFFF"),
                                                    Exec("m.calc_done = False"),
                                                    Call("h_clear_inputs"),
                                                ),
                                                orelse=(
                                                    Schedule("dfs", "1 if m.calc_done else 0"),
                                                ),
                                            ),
                                            Pulse("resp_valid"),
                                            Exec("m._beat_seen = True"),
                                            Active("True"),
                                        ),
                                    ),
                                ),
                            ),
                        ),
                    ),
                ),
            },
            state_attr="_fsm_state",
            signals=(
                "prst", "req", "func_sel", "is_write", "data_valid",
                "d2s", "dfs", "ack", "resp_valid",
            ),
            helpers=("h_reset_state", "h_finish_calc", "h_store_word", "h_clear_inputs"),
            consts=("RESULT",),
        )

    def _finish_calc(self) -> None:
        _complete_interpolation(self)

    def _store_word(self, slot: int, word: int) -> None:
        if slot not in self.sets:
            return
        if self.expected[slot] < 0:
            self.expected[slot] = word
            self.sets[slot] = []
        else:
            self.sets[slot].append(word)
        if (
            slot == SLOT_SET3
            and all(
                self.expected[s] >= 0 and len(self.sets[s]) >= self.expected[s]
                for s in (SLOT_SET1, SLOT_SET2, SLOT_SET3)
            )
            and self.expected[SLOT_SET3] >= 0
            and len(self.sets[SLOT_SET3]) >= self.expected[SLOT_SET3]
        ):
            self._calculating = True
            self._calc_counter = 0
            self.calc_done = False

    def _clear_inputs(self) -> None:
        for slot in self.sets:
            self.sets[slot] = []
            self.expected[slot] = -1

    def _reset_state(self) -> None:
        self._clear_inputs()
        self.result = 0
        self.calc_done = False
        self._calculating = False
        self._calc_counter = 0
        self._target_slot = 0
        self._beat_seen = True


# -- systems and drivers ------------------------------------------------------------


@dataclass
class BaselineSystem:
    """A hand-coded interpolator attached to its bus, ready to run scenarios."""

    simulator: Simulator
    processor: ProcessorModel
    device: Module
    label: str

    @property
    def cycles(self) -> int:
        return self.simulator.cycle

    def run_scenario(self, sets: Sequence[Sequence[int]]) -> Dict[str, int]:
        raise NotImplementedError


@dataclass
class NaivePLBSystem(BaselineSystem):
    base_address: int = _BASE_ADDRESS

    def run_scenario(self, sets: Sequence[Sequence[int]]) -> Dict[str, int]:
        """The naïve driver: header + singles per set, poll status, read result.

        The whole sequence is scripted onto the master in one submission
        (cycle-exact with per-transaction blocking execution, gaps included).
        """
        start = self.simulator.cycle
        ops = []
        word = self.base_address
        step = 4
        for slot, data in zip((SLOT_SET1, SLOT_SET2, SLOT_SET3), sets):
            address = word + slot * step
            ops.append(TransactionOp(BusTransaction(TransactionKind.WRITE, address, data=[len(data)])))
            for value in data:
                ops.append(
                    TransactionOp(
                        BusTransaction(TransactionKind.WRITE, address, data=[int(value) & 0xFFFFFFFF])
                    )
                )
        # Defensive status polling before collecting the result.
        status_address = word + SLOT_STATUS * step
        for _ in range(3):
            ops.append(TransactionOp(BusTransaction(TransactionKind.READ, status_address)))
        result_txn = BusTransaction(TransactionKind.READ, word + SLOT_RESULT * step)
        ops.append(TransactionOp(result_txn))
        self.processor.execute_script(ops)
        return {
            "result": result_txn.result,
            "cycles": self.simulator.cycle - start,
            "transactions": len(ops),
        }


@dataclass
class OptimizedFCBSystem(BaselineSystem):
    def run_scenario(self, sets: Sequence[Sequence[int]]) -> Dict[str, int]:
        """The hand-tuned driver: header + quad-word bursts, no polling."""
        start = self.simulator.cycle
        ops = []
        for slot, data in zip((SLOT_SET1, SLOT_SET2, SLOT_SET3), sets):
            ops.append(TransactionOp(BusTransaction(TransactionKind.WRITE, slot, data=[len(data)])))
            values = [int(v) & 0xFFFFFFFF for v in data]
            for index in range(0, len(values), 4):
                chunk = values[index:index + 4]
                kind = TransactionKind.BURST_WRITE if len(chunk) > 1 else TransactionKind.WRITE
                ops.append(TransactionOp(BusTransaction(kind, slot, data=chunk)))
        result_txn = BusTransaction(TransactionKind.READ, SLOT_RESULT)
        ops.append(TransactionOp(result_txn))
        self.processor.execute_script(ops)
        return {
            "result": result_txn.result,
            "cycles": self.simulator.cycle - start,
            "transactions": len(ops),
        }


def build_naive_plb_system(
    *,
    inter_op_gap: int = 1,
    simulator_factory: Callable[[], Simulator] = Simulator,
    record_transactions: bool = True,
) -> NaivePLBSystem:
    """Assemble the naïve hand-coded PLB interpolator system."""
    simulator = simulator_factory()
    plb = PLBSlaveBundle("naive.plb", data_width=32, num_slots=_NUM_SLOTS)
    master = PLBMaster("naive.plb_master", plb, base_address=_BASE_ADDRESS)
    master.record_transactions = record_transactions
    device = NaivePLBInterpolator("naive_plb_interp", plb)
    simulator.register_module(master)
    simulator.register_module(device)
    simulator.add_signals(plb.signals())
    simulator.reset()
    processor = ProcessorModel(
        simulator, master, inter_op_gap=inter_op_gap, record_transactions=record_transactions
    )
    return NaivePLBSystem(
        simulator=simulator, processor=processor, device=device, label="simple_plb_handcoded"
    )


def build_optimized_fcb_system(
    *,
    inter_op_gap: int = 1,
    simulator_factory: Callable[[], Simulator] = Simulator,
    record_transactions: bool = True,
) -> OptimizedFCBSystem:
    """Assemble the hand-tuned FCB interpolator system."""
    simulator = simulator_factory()
    fcb = FCBSlaveBundle("optfcb.fcb", data_width=32, func_id_width=4)
    master = FCBMaster("optfcb.fcb_master", fcb)
    master.record_transactions = record_transactions
    device = OptimizedFCBInterpolator("optimized_fcb_interp", fcb)
    simulator.register_module(master)
    simulator.register_module(device)
    simulator.add_signals(fcb.signals())
    simulator.reset()
    processor = ProcessorModel(
        simulator, master, inter_op_gap=inter_op_gap, record_transactions=record_transactions
    )
    return OptimizedFCBSystem(
        simulator=simulator, processor=processor, device=device, label="optimized_fcb_handcoded"
    )


# -- resource descriptions (for the Figure 9.3 comparison) ---------------------------


def naive_plb_resource_ir() -> EntityIR:
    """Structural description of the naïve hand-coded PLB implementation.

    First-attempt designs of this kind typically dedicate a register to every
    input word, decode the full one-hot chip enable in several places, and
    duplicate per-set state machines — all of which shows up as extra LUTs
    and flip-flops compared with the shared datapath Splice generates.
    """
    entity = EntityIR(
        name="naive_plb_interpolator",
        kind=EntityKind.SUPPORT,
        description="hand-coded (naive) PLB interface for the linear interpolator",
    )
    entity.add_port("CLK", 1, PortDirection.IN)
    entity.add_port("RST", 1, PortDirection.IN)
    entity.add_port("PLB_DATA_IN", 32, PortDirection.IN)
    entity.add_port("PLB_DATA_OUT", 32, PortDirection.OUT)
    entity.add_port("PLB_WR_CE", _NUM_SLOTS, PortDirection.IN)
    entity.add_port("PLB_RD_CE", _NUM_SLOTS, PortDirection.IN)
    # A dedicated register bank per input set (sized for the larger sets)
    # plus per-set count registers, fill counters and handshake FSMs — the
    # first-attempt design replicates storage and control per set instead of
    # sharing one datapath the way the generated interface does.
    for index in range(6):
        entity.add_register(f"input_word_{index}", 32, "dedicated input word register")
    for index in range(3):
        entity.add_register(f"count_{index}", 16, "per-set element count")
        entity.add_counter(f"fill_{index}", 16, "per-set fill counter")
        entity.add_comparator(f"full_{index}", 16, "per-set completion compare")
        entity.add_fsm(f"set_fsm_{index}", ["IDLE", "HEADER", "DATA", "DONE"], "per-set handshake FSM")
    entity.add_register("result", 32, "interpolation result")
    entity.add_register("status", 2, "status register")
    entity.add_fsm("bus_fsm", ["IDLE", "DECODE", "STORE", "ACK", "READ", "RESPOND"], "bus handshake FSM")
    entity.add_comparator("address_decode", _NUM_SLOTS, "one-hot chip-enable decode")
    entity.add_mux("readback_mux", _NUM_SLOTS, 32, "read-back selection across all registers")
    entity.add_mux("input_select", 6, 32, "input register write-enable decode")
    entity.overhead_luts = 60  # ad-hoc glue the hand-written RTL accumulates
    return entity


def optimized_fcb_resource_ir() -> EntityIR:
    """Structural description of the hand-tuned FCB implementation."""
    entity = EntityIR(
        name="optimized_fcb_interpolator",
        kind=EntityKind.SUPPORT,
        description="hand-optimized FCB interface for the linear interpolator",
    )
    entity.add_port("CLK", 1, PortDirection.IN)
    entity.add_port("RST", 1, PortDirection.IN)
    entity.add_port("FCB_DATA_IN", 32, PortDirection.IN)
    entity.add_port("FCB_DATA_OUT", 32, PortDirection.OUT)
    entity.add_port("FCB_FUNC_SEL", 4, PortDirection.IN)
    # The hand-tuned design still needs real machinery: operand staging
    # registers deep enough to absorb a quad burst per set, burst sequencing,
    # per-set tracking, and the multi-function decode the FCB's single
    # attachment point forces on it — which is why the paper found Splice's
    # FCB interface only marginally larger than this one.
    entity.add_register("capture", 32, "shared capture register")
    entity.add_register("result", 32, "interpolation result")
    for index in range(3):
        entity.add_register(f"stage_{index}", 32, "burst staging register")
        entity.add_register(f"count_{index}", 16, "per-set element count")
        entity.add_counter(f"fill_{index}", 16, "per-set fill counter")
        entity.add_comparator(f"full_{index}", 16, "per-set completion compare")
    entity.add_fsm("beat_fsm", ["IDLE", "HEADER", "STREAM", "DRAIN", "RESPOND"], "beat handshake FSM")
    entity.add_fsm("burst_fsm", ["B_IDLE", "B1", "B2", "B3", "B4"], "quad-burst sequencing")
    entity.add_comparator("func_decode", 4, "function select decode")
    entity.add_mux("readback_mux", 5, 32, "result/status selection")
    entity.add_mux("operand_mux", 4, 32, "staging register steering")
    entity.add_counter("burst_tracker", 3, "burst beat tracking")
    entity.overhead_luts = 70
    return entity
