"""Simulatable native bus interface adapters — the elaborated form of Section 5.1.

One adapter class per built-in bus translates the slave-side native protocol
into SIS transactions following the signal adaptations of Section 4.3:

* :class:`PLBToSIS` / :class:`OPBToSIS` — request/acknowledge handshake, the
  one-hot chip enables re-encoded onto ``FUNC_ID`` (Figures 4.7 / 4.8),
* :class:`FCBToSIS` — opcode-style requests with burst unrolling, and
* :class:`APBToSIS` — strictly synchronous accesses with combinational read
  data selection and ``CALC_DONE`` polling at slot zero.
"""

from __future__ import annotations

import functools
from typing import Dict

from repro.buses.apb import APBSlaveBundle
from repro.buses.fcb import FCBSlaveBundle
from repro.buses.plb import PLBSlaveBundle
from repro.core.generation.arbiter_rtl import status_vector_ops
from repro.core.params import STATUS_FUNC_ID
from repro.rtl.fsm import (
    Active,
    BoundFsm,
    Drive,
    Exec,
    FsmSpec,
    Goto,
    If,
    Pulse,
    Schedule,
    StateDispatch,
)
from repro.rtl.module import Module
from repro.sis.signals import SISBundle, SISFunctionPort

#: Shared entry prologue of every adapter machine: native reset propagates
#: onto the SIS (clearing the handshake strobes) and a previously asserted
#: SIS reset is cleared one cycle after the native reset drops.  The state
#: dispatch only runs outside reset.
def _adapter_entry(reset_ops) -> tuple:
    return (
        If(
            "prst._value",
            tuple(reset_ops),
            orelse=(
                If(
                    "s_rst._value or s_rst._next is not None",
                    (Schedule("s_rst", "0", capture=True),),
                ),
                StateDispatch(),
            ),
        ),
    )


class PLBToSIS(Module):
    """PLB (and OPB) slave-side adapter onto the SIS."""

    def __init__(self, name: str, plb: PLBSlaveBundle, sis: SISBundle) -> None:
        super().__init__(name)
        self.plb = plb
        self.sis = sis
        self._state = "idle"
        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals={
                "prst": plb.rst, "wr_req": plb.wr_req, "wr_ce": plb.wr_ce,
                "rd_req": plb.rd_req, "rd_ce": plb.rd_ce,
                "d2s": plb.data_to_slave, "dfs": plb.data_from_slave,
                "wr_ack": plb.wr_ack, "rd_ack": plb.rd_ack,
                "s_rst": sis.rst, "s_fid": sis.func_id, "s_din": sis.data_in,
                "s_div": sis.data_in_valid, "s_ioe": sis.io_enable,
                "s_iod": sis.io_done, "s_dov": sis.data_out_valid,
                "s_dout": sis.data_out,
            },
        )
        # The full input set (native request side + the SIS completion side)
        # opts the adapter into compiled-kernel wait-state elision; the
        # machine reports activity through its return value.
        self.clocked(
            self.fsm.tick,
            sensitive_to=[
                plb.rst, plb.wr_req, plb.wr_ce, plb.rd_req, plb.rd_ce,
                plb.data_to_slave, sis.io_done, sis.data_out_valid, sis.data_out,
            ],
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec() -> FsmSpec:
        """The request/acknowledge adapter as FSM IR (Figures 4.7 / 4.8).

        One state per handshake position; the one-hot chip enable is decoded
        inline (guards guarantee it is non-zero) and the wait states park the
        machine (``Active(False)``) until IO_DONE wakes it.  IO_ENABLE /
        WR_ACK / RD_ACK are kernel-cleared pulses, so the adapter is purely
        reactive: apart from the reset handshake it reports quiescence on
        every cycle and runs only when a declared input changes.
        """
        return FsmSpec(
            name="plb_to_sis",
            entry=_adapter_entry(
                (
                    Schedule("s_rst", "1", capture=True),
                    Schedule("s_div", "0", capture=True),
                    Schedule("s_fid", "0", capture=True),
                    Goto("idle"),
                )
            ),
            states={
                "idle": (
                    If(
                        "wr_req._value and wr_ce._value",
                        (
                            Schedule("s_fid", "wr_ce._value.bit_length() - 1"),
                            Schedule("s_din", "d2s._value"),
                            Schedule("s_div", "1"),
                            Pulse("s_ioe"),
                            Goto("write_wait"),
                            Active("False"),
                        ),
                        orelse=(
                            If(
                                "rd_req._value and rd_ce._value",
                                (
                                    Schedule("s_fid", "rd_ce._value.bit_length() - 1"),
                                    Pulse("s_ioe"),
                                    Goto("read_wait"),
                                    Active("False"),
                                ),
                            ),
                        ),
                    ),
                ),
                "write_wait": (
                    If(
                        "s_iod._value",
                        (Schedule("s_div", "0"), Pulse("wr_ack"), Goto("idle")),
                    ),
                ),
                "read_wait": (
                    If(
                        "s_iod._value and s_dov._value",
                        (
                            Schedule("dfs", "s_dout._value"),
                            Pulse("rd_ack"),
                            Goto("idle"),
                        ),
                    ),
                ),
            },
            signals=(
                "prst", "wr_req", "wr_ce", "rd_req", "rd_ce", "d2s", "dfs",
                "wr_ack", "rd_ack", "s_rst", "s_fid", "s_din", "s_div",
                "s_ioe", "s_iod", "s_dov", "s_dout",
            ),
        )


class OPBToSIS(PLBToSIS):
    """The OPB slave port is protocol-identical to the PLB slave port."""


class FCBToSIS(Module):
    """FCB slave-side adapter onto the SIS, with burst unrolling."""

    def __init__(self, name: str, fcb: FCBSlaveBundle, sis: SISBundle) -> None:
        super().__init__(name)
        self.fcb = fcb
        self.sis = sis
        self._state = "idle"
        self._remaining = 0
        self._func_id = 0
        self._is_write = False
        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals={
                "prst": fcb.rst, "req": fcb.req, "func_sel": fcb.func_sel,
                "is_write": fcb.is_write, "burst_len": fcb.burst_len,
                "data_valid": fcb.data_valid, "d2s": fcb.data_to_slave,
                "dfs": fcb.data_from_slave, "ack": fcb.ack,
                "resp_valid": fcb.resp_valid,
                "s_rst": sis.rst, "s_fid": sis.func_id, "s_din": sis.data_in,
                "s_div": sis.data_in_valid, "s_ioe": sis.io_enable,
                "s_iod": sis.io_done, "s_dov": sis.data_out_valid,
                "s_dout": sis.data_out,
            },
        )
        self.clocked(
            self.fsm.tick,
            sensitive_to=[
                fcb.rst, fcb.req, fcb.func_sel, fcb.is_write, fcb.burst_len,
                fcb.data_valid, fcb.data_to_slave,
                sis.io_done, sis.data_out_valid, sis.data_out,
            ],
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec() -> FsmSpec:
        """The opcode-style FCB adapter as FSM IR, burst unrolling included.

        The per-beat resynchronisation cycle (``write_beat`` →
        ``write_present``: the generic adapter re-latches FUNC_SEL and the
        burst state for every beat) and the inter-beat gap state (the master
        drops DATA_VALID for one cycle between beats) are separate states —
        part of the indirect-conversion cost the paper accepts for
        portability.  The adapter reports quiescence from every wait state
        and runs only when a declared input changes or it is mid
        beat-sequence (``write_present`` / ``write_ack`` / ``read_next``).
        """
        present_write = (
            Schedule("s_fid", "m._func_id"),
            Schedule("s_din", "d2s._value"),
            Schedule("s_div", "1"),
            Pulse("s_ioe"),
            Goto("write_wait"),
            Active("False"),
        )
        return FsmSpec(
            name="fcb_to_sis",
            entry=_adapter_entry(
                (
                    Schedule("s_rst", "1", capture=True),
                    Schedule("s_div", "0", capture=True),
                    Schedule("s_fid", "0", capture=True),
                    Goto("idle"),
                )
            ),
            states={
                "idle": (
                    If(
                        "req._value",
                        (
                            Exec("m._func_id = func_sel._value"),
                            Exec("m._is_write = bool(is_write._value)"),
                            Exec("m._remaining = max(1, burst_len._value)"),
                            Schedule("s_fid", "m._func_id"),
                            If(
                                "m._is_write",
                                (
                                    If(
                                        "not data_valid._value",
                                        (Goto("write_beat"),),
                                        orelse=(Goto("write_present"),),
                                    ),
                                    Active("True"),
                                ),
                                orelse=(
                                    Pulse("s_ioe"),
                                    Goto("read_wait"),
                                    Active("False"),
                                ),
                            ),
                        ),
                    ),
                ),
                "write_beat": (
                    If("data_valid._value", (Goto("write_present"), Active("True"))),
                ),
                "write_present": present_write,
                "write_wait": (
                    If(
                        "s_iod._value",
                        (Schedule("s_div", "0"), Goto("write_ack"), Active("True")),
                    ),
                ),
                "write_ack": (
                    Pulse("ack"),
                    Exec("m._remaining -= 1"),
                    If("m._remaining", (Goto("write_gap"),), orelse=(Goto("idle"),)),
                ),
                "write_gap": (
                    If("not data_valid._value", (Goto("write_beat"), Active("True"))),
                ),
                "read_wait": (
                    If(
                        "s_iod._value and s_dov._value",
                        (
                            Schedule("dfs", "s_dout._value"),
                            Pulse("resp_valid"),
                            Exec("m._remaining -= 1"),
                            If(
                                "m._remaining",
                                (Goto("read_next"), Active("True")),
                                orelse=(Goto("idle"),),
                            ),
                        ),
                    ),
                ),
                "read_next": (
                    Schedule("s_fid", "m._func_id"),
                    Pulse("s_ioe"),
                    Goto("read_wait"),
                    Active("False"),
                ),
            },
            signals=(
                "prst", "req", "func_sel", "is_write", "burst_len",
                "data_valid", "d2s", "dfs", "ack", "resp_valid",
                "s_rst", "s_fid", "s_din", "s_div", "s_ioe", "s_iod",
                "s_dov", "s_dout",
            ),
        )


class APBToSIS(Module):
    """APB slave-side adapter onto the SIS (strictly synchronous protocol).

    Writes are forwarded to the SIS during the access cycle; reads are served
    combinationally from the per-function ``DATA_OUT`` registers (or the
    ``CALC_DONE`` vector at slot zero) because the APB cannot insert wait
    states, and the access also strobes ``IO_ENABLE`` so the addressed
    function advances to its next output word.
    """

    def __init__(
        self,
        name: str,
        apb: APBSlaveBundle,
        sis: SISBundle,
        ports: Dict[int, SISFunctionPort],
        base_address: int,
    ) -> None:
        super().__init__(name)
        self.apb = apb
        self.sis = sis
        self.ports = dict(ports)
        self.base_address = base_address
        consts = {"BASE": base_address, "WORDB": apb.data_width // 8}
        signals = {
            "prst": apb.rst, "psel": apb.psel, "penable": apb.penable,
            "paddr": apb.paddr, "pwrite": apb.pwrite, "pwdata": apb.pwdata,
            "s_rst": sis.rst, "s_fid": sis.func_id, "s_din": sis.data_in,
            "s_div": sis.data_in_valid, "s_ioe": sis.io_enable,
        }
        self.fsm = BoundFsm(self._fsm_spec(), self, signals=signals, consts=consts)
        self.clocked(
            self.fsm.tick,
            sensitive_to=[apb.rst, apb.psel, apb.penable, apb.paddr, apb.pwrite, apb.pwdata],
        )
        # The read mux decodes PSEL/PADDR against the per-function DATA_OUT
        # registers and the CALC_DONE vector — its complete input set; it
        # only ever drives PRDATA.
        mux_sensitivity = [apb.psel, apb.paddr]
        mux_signals = {"psel": apb.psel, "paddr": apb.paddr, "prdata": apb.prdata}
        for func_id, port in self.ports.items():
            mux_sensitivity += [port.data_out, port.calc_done]
            mux_signals[f"p{func_id}_do"] = port.data_out
            mux_signals[f"p{func_id}_cd"] = port.calc_done
        self.read_mux_fsm = BoundFsm(
            self._read_mux_spec(tuple(self.ports)), self,
            signals=mux_signals, consts=consts,
        )
        self.comb(
            self.read_mux_fsm.tick, sensitive_to=mux_sensitivity, drives=[apb.prdata]
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec() -> FsmSpec:
        """The strictly synchronous write/trigger path as a one-state machine.

        The APB cannot insert wait states, so there are no handshake states:
        the single dispatch state forwards the committed access and parks.
        IO_ENABLE / DATA_IN_VALID strobe for the single access cycle as
        kernel-cleared pulses, so the machine runs only when its APB inputs
        change.
        """
        return FsmSpec(
            name="apb_to_sis",
            entry=_adapter_entry(
                (
                    Schedule("s_rst", "1", capture=True),
                    Schedule("s_fid", "0", capture=True),
                    Goto("access"),
                )
            ),
            states={
                "access": (
                    If(
                        "psel._value and penable._value",
                        (
                            Schedule("s_fid", "(paddr._value - BASE) // WORDB"),
                            Pulse("s_ioe"),
                            If(
                                "pwrite._value",
                                (
                                    Schedule("s_din", "pwdata._value"),
                                    Pulse("s_div"),
                                ),
                            ),
                            Active("False"),
                        ),
                    ),
                ),
            },
            state_attr="_fsm_state",
            signals=(
                "prst", "psel", "penable", "paddr", "pwrite", "pwdata",
                "s_rst", "s_fid", "s_din", "s_div", "s_ioe",
            ),
            consts=("BASE", "WORDB"),
        )

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _read_mux_spec(func_ids) -> FsmSpec:
        """The combinational read mux as FSM IR, ports unrolled at build time.

        Slot zero concatenates every function's CALC_DONE into the status
        vector; other slots select the addressed function's DATA_OUT (or 0
        for holes).  Lowered, this becomes straight-line compares inside the
        settle sweep.
        """
        select: tuple = (Drive("prdata", "0"),)
        for func_id in reversed(func_ids):
            select = (
                If(
                    f"slot == {func_id}",
                    (Drive("prdata", f"p{func_id}_do._value"),),
                    orelse=select,
                ),
            )
        status_ops = status_vector_ops(func_ids)
        status_ops.append(Drive("prdata", "v"))
        signals = ["psel", "paddr", "prdata"]
        for func_id in func_ids:
            signals += [f"p{func_id}_do", f"p{func_id}_cd"]
        return FsmSpec(
            name="apb_read_mux",
            kind="comb",
            entry=(
                If(
                    "psel._value",
                    (
                        Exec("slot = (paddr._value - BASE) // WORDB"),
                        If(
                            f"slot == {STATUS_FUNC_ID}",
                            tuple(status_ops),
                            orelse=select,
                        ),
                    ),
                ),
            ),
            signals=tuple(signals),
            consts=("BASE", "WORDB"),
            temps=("slot", "v"),
        )


#: Adapter classes by bus name (used by the peripheral builder and SoC).
ADAPTER_CLASSES = {
    "plb": PLBToSIS,
    "opb": OPBToSIS,
    "fcb": FCBToSIS,
    "apb": APBToSIS,
}
