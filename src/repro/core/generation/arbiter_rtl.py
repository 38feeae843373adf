"""Simulatable arbitration unit — the elaborated form of Section 5.2.

The arbiter is purely combinational: based on the shared ``FUNC_ID`` it
multiplexes the selected function's ``DATA_OUT`` / ``DATA_OUT_VALID`` /
``IO_DONE`` onto the shared SIS bundle and continuously concatenates every
function's ``CALC_DONE`` flag into the status vector.  Function identifier
zero selects the status vector itself and always reports ready, which is how
generated drivers poll for completion on strictly synchronous buses.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable

from repro.core.params import STATUS_FUNC_ID
from repro.rtl.fsm import BoundFsm, Drive, Exec, FsmSpec, If
from repro.rtl.module import Module
from repro.sis.signals import SISBundle, SISFunctionPort


def status_vector_ops(func_ids, temp: str = "v"):
    """IR ops accumulating the amalgamated CALC_DONE vector into ``temp``.

    Bit ``func_id - 1`` per function, reading the per-port ``p<id>_cd``
    bindings — the single authority on the status-register encoding, shared
    by the arbiter mux and the APB read mux so they cannot drift apart.
    """
    ops = [Exec(f"{temp} = 0")]
    for func_id in func_ids:
        ops.append(
            If(f"p{func_id}_cd._value", (Exec(f"{temp} |= {1 << (func_id - 1)}"),))
        )
    return ops


class SISArbiter(Module):
    """Multiplexes per-function SIS ports onto the shared bundle."""

    def __init__(
        self, name: str, sis: SISBundle, ports: Iterable[SISFunctionPort]
    ) -> None:
        super().__init__(name)
        self.sis = sis
        self.ports: Dict[int, SISFunctionPort] = {}
        for port in ports:
            if port.func_id in self.ports:
                raise ValueError(f"duplicate function id {port.func_id} attached to arbiter {name!r}")
            if port.func_id == STATUS_FUNC_ID:
                raise ValueError("function id 0 is reserved for the CALC_DONE status register")
            self.ports[port.func_id] = port
        # The mux reads FUNC_ID plus every per-function output; declaring the
        # full input set lets the event-driven kernel skip it otherwise, and
        # the output set lets the compiled kernel levelize it.
        sensitivity = [sis.func_id]
        for port in self.ports.values():
            sensitivity += [port.data_out, port.data_out_valid, port.io_done, port.calc_done]
        drives = [sis.calc_done, sis.data_out, sis.data_out_valid, sis.io_done]
        signals = {
            "s_fid": sis.func_id, "s_cd": sis.calc_done,
            "s_dout": sis.data_out, "s_dov": sis.data_out_valid,
            "s_iod": sis.io_done,
        }
        for func_id, port in self.ports.items():
            signals[f"p{func_id}_do"] = port.data_out
            signals[f"p{func_id}_dov"] = port.data_out_valid
            signals[f"p{func_id}_iod"] = port.io_done
            signals[f"p{func_id}_cd"] = port.calc_done
        self.fsm = BoundFsm(self._fsm_spec(tuple(self.ports)), self, signals=signals)
        self.comb(self.fsm.tick, sensitive_to=sensitivity, drives=drives)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec(func_ids) -> FsmSpec:
        """The arbitration mux as comb FSM IR, functions unrolled at build.

        The status-vector concatenation becomes straight-line per-function
        bit ORs and the selection becomes a compare chain — no dict lookups
        or Python iteration remain once lowered into the settle sweep.
        """
        select: tuple = (
            Drive("s_dout", "0"),
            Drive("s_dov", "0"),
            Drive("s_iod", "0"),
        )
        for func_id in reversed(func_ids):
            select = (
                If(
                    f"sel == {func_id}",
                    (
                        Drive("s_dout", f"p{func_id}_do._value"),
                        Drive("s_dov", f"p{func_id}_dov._value"),
                        Drive("s_iod", f"p{func_id}_iod._value"),
                    ),
                    orelse=select,
                ),
            )
        entry = status_vector_ops(func_ids)
        entry.append(Drive("s_cd", "v"))
        entry.append(Exec("sel = s_fid._value"))
        entry.append(
            If(
                # The status register is always readable and never busy.
                f"sel == {STATUS_FUNC_ID}",
                (
                    Drive("s_dout", "v"),
                    Drive("s_dov", "1"),
                    Drive("s_iod", "1"),
                ),
                orelse=select,
            )
        )
        signals = ["s_fid", "s_cd", "s_dout", "s_dov", "s_iod"]
        for func_id in func_ids:
            signals += [
                f"p{func_id}_do", f"p{func_id}_dov", f"p{func_id}_iod", f"p{func_id}_cd"
            ]
        return FsmSpec(
            name="sis_arbiter_mux",
            kind="comb",
            entry=tuple(entry),
            signals=tuple(signals),
            temps=("v", "sel"),
        )
