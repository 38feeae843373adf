"""IBM CoreConnect Processor Local Bus (PLB) model.

The slave-side protocol follows Figures 4.5 and 4.6: the bus asserts a
one-hot chip-enable (``RD_CE`` / ``WR_CE``) plus ``BE`` and strobes
``RD_REQ`` / ``WR_REQ`` for one cycle, then holds the enables steady until
the peripheral answers with ``RD_ACK`` / ``WR_ACK``.

The master model charges two arbitration cycles per request (the PLB is a
shared, arbitrated processor bus) and supports three transfer styles:

* single-word reads/writes (the only style the PowerPC 405 can issue
  directly, Section 4.3.1),
* back-to-back streaming used for DMA payload movement, and
* DMA block transfers, which first pay the four control transactions the
  Xilinx PLB DMA engine requires (Section 9.2.1) and then stream the payload
  without per-word arbitration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.buses.base import BusMaster, BusTransaction, SlaveBundle, TransactionKind
from repro.rtl.fsm import (
    Active,
    Call,
    Exec,
    Goto,
    If,
    Pulse,
    Redispatch,
    Schedule,
    ScheduleZero,
)
from repro.buses.base import DMA_KINDS as _DMA_KINDS, WRITE_KINDS as _WRITE_KINDS
from repro.rtl.signal import Signal

#: Transfer styles that stream beats back-to-back without re-arbitration.
_STREAMING_KINDS = (
    TransactionKind.BURST_READ,
    TransactionKind.BURST_WRITE,
    TransactionKind.DMA_READ,
    TransactionKind.DMA_WRITE,
)


class PLBSlaveBundle(SlaveBundle):
    """Signals visible to a PLB-attached peripheral (slave port)."""

    def __init__(self, name: str, data_width: int = 32, num_slots: int = 16) -> None:
        super().__init__(name, data_width, select_width=num_slots)
        self.num_slots = num_slots
        self.rst = Signal(f"{name}.RST", 1)
        self.rd_req = Signal(f"{name}.RD_REQ", 1)
        self.wr_req = Signal(f"{name}.WR_REQ", 1)
        self.be = Signal(f"{name}.BE", data_width // 8)
        self.rd_ce = Signal(f"{name}.RD_CE", num_slots)
        self.wr_ce = Signal(f"{name}.WR_CE", num_slots)
        self.data_to_slave = Signal(f"{name}.DATA_IN", data_width)
        self.data_from_slave = Signal(f"{name}.DATA_OUT", data_width)
        self.rd_ack = Signal(f"{name}.RD_ACK", 1)
        self.wr_ack = Signal(f"{name}.WR_ACK", 1)

    def signals(self) -> List[Signal]:
        return [
            self.rst,
            self.rd_req,
            self.wr_req,
            self.be,
            self.rd_ce,
            self.wr_ce,
            self.data_to_slave,
            self.data_from_slave,
            self.rd_ack,
            self.wr_ack,
        ]

    def selected_slot(self, write: bool) -> int:
        """Decode the one-hot chip enable into a slot number (-1 when idle)."""
        value = self.wr_ce.value if write else self.rd_ce.value
        if value == 0:
            return -1
        return value.bit_length() - 1


class PLBMaster(BusMaster):
    """Drives a :class:`PLBSlaveBundle` on behalf of the processor."""

    ARBITRATION_CYCLES = 2
    RECOVERY_CYCLES = 1
    #: Cycles charged for each of the DMA engine's control transactions.
    DMA_SETUP_TRANSACTION_CYCLES = 4
    #: Number of control transactions needed to set up / tear down DMA.
    DMA_SETUP_TRANSACTIONS = 4

    def __init__(self, name: str, slave: PLBSlaveBundle, base_address: int = 0) -> None:
        super().__init__(name, slave)
        self.base_address = base_address
        self._phase = "idle"
        self._delay = 0
        self._delay_until = None
        self._word_index = 0
        # Per-transaction facts hoisted out of the per-cycle FSM: the write
        # direction and streaming style never change mid-transaction —
        # re-deriving them every cycle (enum properties) was measurable
        # harness overhead on every kernel.
        self._active_write = False
        self._active_streaming = False
        self._request_signals = (
            slave.rd_req, slave.wr_req, slave.rd_ce, slave.wr_ce,
            slave.be, slave.data_to_slave,
        )
        self._register_tick()

    def _wake_signals(self):
        # A parked PLB master resumes only when the peripheral acknowledges.
        return [self.slave.wr_ack, self.slave.rd_ack]

    # -- FSM IR ----------------------------------------------------------------

    def _fsm_signals(self) -> Dict[str, object]:
        slave = self.slave
        return {
            "wr_req": slave.wr_req, "rd_req": slave.rd_req,
            "wr_ce": slave.wr_ce, "rd_ce": slave.rd_ce, "be": slave.be,
            "d2s": slave.data_to_slave, "dfs": slave.data_from_slave,
            "wr_ack": slave.wr_ack, "rd_ack": slave.rd_ack,
        }

    def _fsm_groups(self) -> Dict[str, tuple]:
        return {"req_group": self._request_signals}

    def _fsm_helpers(self) -> Dict[str, object]:
        return {"h_complete": self._complete, "h_slot_for": self._slot_for}

    def _fsm_consts(self) -> Dict[str, int]:
        slave = self.slave
        return {
            **super()._fsm_consts(),
            "BASEADDR": self.base_address,
            "WORDB": slave.data_width // 8,
            "NSLOTS": slave.num_slots,
            "BEMASK": (1 << (slave.data_width // 8)) - 1,
        }

    def _fsm_external_states(self) -> tuple:
        # _begin() enters arbitration (or the DMA control-transaction
        # countdown) from Python when a transaction starts.
        return ("arbitrate", "dma_setup")

    def _fsm_protocol_states(self) -> Dict[str, tuple]:
        """The PLB request/acknowledge protocol as FSM IR.

        States are declared hottest-first (a transaction spends most cycles
        waiting for an acknowledge, then counting delay cycles).  Because the
        REQ strobes are kernel-cleared pulses, the machine is fully parked
        (``Active(False)``) from the cycle after a request until the
        peripheral acknowledges.  The per-beat advance is inline: streaming
        beats keep the enables and present the next word; single-word
        semantics re-arbitrate per beat.
        """
        after_beat = (
            Exec("tot = len(m.active.data) if m._active_write else m.active.word_count"),
            If(
                "m._word_index < tot",
                (
                    If(
                        "m._active_streaming",
                        (
                            # Back-to-back beat: keep the enables, present
                            # the next word; parked until the acknowledge.
                            If(
                                "m._active_write",
                                (
                                    Schedule("d2s", "m.active.data[m._word_index]"),
                                    Pulse("wr_req"),
                                ),
                                orelse=(Pulse("rd_req"),),
                            ),
                            Goto("wait_ack"),
                            Active("False"),
                        ),
                        orelse=(
                            # Single-word semantics: re-arbitrate per beat.
                            ScheduleZero("req_group"),
                            Exec("m._delay = ARB"),
                            Goto("arbitrate"),
                            Active("True"),
                        ),
                    ),
                ),
                orelse=(
                    ScheduleZero("req_group"),
                    Exec("m._delay = RECOV"),
                    Goto("recover"),
                    Active("True"),
                ),
            ),
        )
        request = (
            Exec("txn = m.active"),
            Exec("slot = (txn.address - BASEADDR) // WORDB"),
            If(
                "not (0 <= slot < NSLOTS)",
                # Out-of-range decode: the helper raises with the full
                # diagnostic.
                (Call("h_slot_for", args="txn.address"),),
            ),
            Schedule("be", "BEMASK"),
            If(
                "m._active_write",
                (
                    # REQ strobes for a single cycle (pulse); CE/BE/DATA hold.
                    Pulse("wr_req"),
                    Schedule("wr_ce", "1 << slot"),
                    Schedule("d2s", "txn.data[m._word_index]"),
                ),
                orelse=(
                    Pulse("rd_req"),
                    Schedule("rd_ce", "1 << slot"),
                ),
            ),
            Goto("wait_ack"),
            Active("False"),
        )
        return {
            "wait_ack": (
                If(
                    "m._active_write",
                    (
                        If(
                            "wr_ack._value",
                            (Exec("m._word_index += 1"), *after_beat),
                        ),
                    ),
                    orelse=(
                        If(
                            "rd_ack._value",
                            (
                                Exec("m.active.results.append(dfs._value)"),
                                Exec("m._word_index += 1"),
                                *after_beat,
                            ),
                        ),
                    ),
                ),
            ),
            "arbitrate": self._fsm_countdown((Goto("request"), Redispatch())),
            "dma_setup": self._fsm_countdown((Goto("request"), Redispatch())),
            "request": request,
            "recover": self._fsm_countdown(
                (
                    ScheduleZero("req_group"),
                    Call("h_complete", args="m.active"),
                    Goto("idle"),
                    Active("True"),
                )
            ),
        }

    # -- helpers ---------------------------------------------------------------

    def _slot_for(self, address: int) -> int:
        offset = address - self.base_address
        slot = offset // (self.slave.data_width // 8)
        if not 0 <= slot < self.slave.num_slots:
            raise ValueError(
                f"address 0x{address:x} does not decode to a slot of peripheral at "
                f"0x{self.base_address:x} ({self.slave.num_slots} slots)"
            )
        return slot

    def _begin(self, transaction: BusTransaction) -> None:
        self._word_index = 0
        kind = transaction.kind
        self._active_write = kind in _WRITE_KINDS
        self._active_streaming = kind in _STREAMING_KINDS
        if kind in _DMA_KINDS:
            self._phase = "dma_setup"
            self._delay = self.DMA_SETUP_TRANSACTIONS * self.DMA_SETUP_TRANSACTION_CYCLES
        else:
            self._phase = "arbitrate"
            self._delay = self.ARBITRATION_CYCLES
