"""Simulatable user-logic stub (ICOB + SMB) — the elaborated form of Section 5.3.

:class:`FunctionStub` implements, cycle by cycle, exactly the behaviour the
generated VHDL stubs describe: input states that capture one bus beat at a
time (with split, packed and implicit-bound tracking), a calculation stage
whose body is the user-supplied ``behavior`` callable (the "filled-in"
calculation logic), and an output / pseudo-output stage that answers read
requests and drives ``CALC_DONE``.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, Optional, Union

from repro.core.params import FuncParams, IOParams, ModuleParams
from repro.rtl.fsm import (
    Active,
    BoundFsm,
    Call,
    Exec,
    FsmSpec,
    If,
    Pulse,
    Schedule,
    Sleep,
    StateDispatch,
)
from repro.rtl.module import Module
from repro.rtl.signal import mask_for_width
from repro.sis.signals import SISBundle, SISFunctionPort

#: Signature of user calculation logic: keyword arguments named after the
#: declaration's inputs (ints for scalars, lists of ints for arrays); the
#: return value is an int, a list of ints, or ``None`` for void functions.
Behavior = Callable[..., Union[int, List[int], None]]


def _default_behavior(**_inputs) -> int:
    """The empty calculation state Splice generates by default."""
    return 0


class FunctionStub(Module):
    """One user-logic function instance attached to the SIS."""

    def __init__(
        self,
        func: FuncParams,
        module_params: ModuleParams,
        sis: SISBundle,
        port: SISFunctionPort,
        *,
        behavior: Optional[Behavior] = None,
        calc_latency: int = 1,
        strictly_synchronous: bool = False,
        instance_index: int = 0,
    ) -> None:
        suffix = f"_{instance_index}" if func.nmbr_instances > 1 else ""
        super().__init__(f"func_{func.func_name}{suffix}")
        self.func = func
        self.module_params = module_params
        self.sis = sis
        self.port = port
        self.behavior: Behavior = behavior or _default_behavior
        self.calc_latency = max(1, calc_latency)
        self.strictly_synchronous = strictly_synchronous
        self.instance_index = instance_index
        self.my_func_id = func.func_id + instance_index

        self._states = self._build_states()
        self._state = self._states[0]
        # Per-state caches (current input descriptor, its expected beat
        # count, and the state's position): recomputing these on every bus
        # beat was measurable per-transaction overhead on every kernel.
        self._state_io: Optional[IOParams] = None
        self._state_beats = 0
        self._state_pos = 0
        self._beat_buffer: List[int] = []
        self._captured: Dict[str, Union[int, List[int]]] = {}
        self._output_words: List[int] = []
        self._out_index = 0
        self._calc_until = 0
        self._pending_read = False

        self._enter_state(self._states[0])

        #: Number of completed activations (useful for tests and examples).
        self.activations = 0

        self.fsm = BoundFsm(
            self._fsm_spec(),
            self,
            signals={
                "s_rst": sis.rst, "s_ioe": sis.io_enable,
                "s_fid": sis.func_id, "s_din": sis.data_in,
                "s_div": sis.data_in_valid,
                "p_cd": port.calc_done, "p_do": port.data_out,
                "p_dov": port.data_out_valid, "p_iod": port.io_done,
            },
            helpers={
                "h_reset_full": self._reset_full,
                "h_reset_soft": self._reset_soft,
                "h_finish_input": self._finish_input,
                "h_enter_calc": self._enter_calc,
                "h_run_calc": self._run_calc,
            },
            consts={"MYID": self.my_func_id},
        )
        # Declaring the ICOB's complete SIS-side input set opts it into the
        # compiled kernel's wait-state elision: an idle stub (sitting in an
        # input/trigger/output wait state with stable inputs) is skipped
        # entirely, and the machine's return value reports when it must keep
        # running regardless (mid-calculation, strobes to deassert, ...).
        self.clocked(
            self.fsm.tick,
            sensitive_to=[sis.rst, sis.io_enable, sis.func_id, sis.data_in, sis.data_in_valid],
        )

    # -- the ICOB as FSM IR ---------------------------------------------------

    def _fsm_spec(self) -> FsmSpec:
        """The ICOB as FSM IR over this stub's declared states."""
        return self._fsm_spec_for(tuple(self._states), self.strictly_synchronous)

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _fsm_spec_for(state_names: tuple, strict: bool) -> FsmSpec:
        """Build (and cache, per state-list shape) the ICOB machine.

        Every ``IN_<io>`` state shares one body (the per-state beat count is
        cached in ``_state_beats`` by ``_enter_state``); the calculation
        countdown is a :class:`Sleep` park expressed against the simulator
        cycle; the boundary work — beat reassembly, the user behaviour call,
        activation resets — stays in Python helpers.  States are entered
        both by IR transitions and by the helpers
        (``_enter_state``/``_enter_calc``), so all are declared external.
        The machine's return value is the wait-state-elision activity flag:
        true whenever re-running next cycle with unchanged inputs would not
        be a no-op.  IO_DONE and the pseudo-asynchronous DATA_OUT_VALID are
        kernel-cleared pulses, so no deassert pass is needed.
        """
        entry: List[object] = []
        if strict:
            # The strictly synchronous *held* DATA_OUT_VALID must drop when
            # the ICOB leaves its output state abnormally (reset mid-read).
            entry.append(
                If(
                    "m._state != 'OUT_RESULT' and m._state != 'OUT_STATUS'",
                    (
                        If(
                            "p_dov._value or p_dov._next is not None",
                            (Schedule("p_dov", "0"), Active("True")),
                        ),
                    ),
                )
            )
        entry.append(
            If(
                "s_rst._value",
                (
                    Call("h_reset_full"),
                    Schedule("p_cd", "0", capture=True),
                ),
                orelse=(
                    If(
                        "s_ioe._value and s_fid._value == MYID",
                        (
                            Exec("nreq = 1; wbeat = s_div._value"),
                            If("not wbeat", (Exec("m._pending_read = True"),)),
                            Active("True"),
                        ),
                        orelse=(Exec("nreq = 0; wbeat = 0"),),
                    ),
                    StateDispatch(),
                ),
            )
        )

        input_body = (
            If(
                "wbeat",
                (
                    Exec("m._beat_buffer.append(s_din._value)"),
                    Pulse("p_iod"),
                    If(
                        "len(m._beat_buffer) >= m._state_beats",
                        (Call("h_finish_input"),),
                    ),
                    Active("True"),
                ),
            ),
        )
        serve_tail: tuple = (
            (Schedule("p_cd", "0"), Schedule("p_dov", "0"), Call("h_reset_soft"))
            if strict
            else (Schedule("p_cd", "0"), Call("h_reset_soft"))
        )
        output_body = (
            # Steady wait-for-read state: re-asserting through schedule()
            # keeps quiescent cycles quiescent (nothing pending, no report).
            Schedule("p_cd", "1", capture=True),
            *(
                (
                    Schedule("p_do", "m._output_words[m._out_index]", capture=True),
                    Schedule("p_dov", "1", capture=True),
                )
                if strict
                else ()
            ),
            If(
                "m._pending_read",
                (
                    Exec("m._pending_read = False"),
                    Schedule("p_do", "m._output_words[m._out_index]"),
                    *(
                        (Schedule("p_dov", "1"),)
                        if strict
                        # Pseudo-asynchronous read: DATA_OUT_VALID rises with
                        # IO_DONE for exactly one cycle (Figure 4.3).
                        else (Pulse("p_dov"),)
                    ),
                    Pulse("p_iod"),
                    Exec("m._out_index += 1"),
                    If(
                        "m._out_index >= len(m._output_words)",
                        serve_tail,
                    ),
                    Active("True"),
                ),
            ),
        )
        states: Dict[str, tuple] = {}
        for state in state_names:
            if state.startswith("IN_"):
                states[state] = input_body
            elif state == "TRIGGER":
                states[state] = (
                    If(
                        "nreq",
                        (
                            If("wbeat", (Pulse("p_iod"),)),
                            Call("h_enter_calc"),
                            Active("True"),
                        ),
                    ),
                )
            elif state == "CALC":
                states[state] = (
                    If(
                        "CYCLE < m._calc_until",
                        (Sleep("m._calc_until - CYCLE"),),
                        orelse=(Call("h_run_calc"), Active("True")),
                    ),
                )
            else:  # OUT_RESULT / OUT_STATUS
                states[state] = output_body
        return FsmSpec(
            name="icob",
            entry=tuple(entry),
            states=states,
            initial=state_names[0],
            state_attr="_state",
            external_states=state_names,
            signals=(
                "s_rst", "s_ioe", "s_fid", "s_din", "s_div",
                "p_cd", "p_do", "p_dov", "p_iod",
            ),
            helpers=(
                "h_reset_full", "h_reset_soft", "h_finish_input",
                "h_enter_calc", "h_run_calc",
            ),
            consts=("MYID",),
            temps=("nreq", "wbeat"),
        )

    # -- state construction ----------------------------------------------------

    def _build_states(self) -> List[str]:
        states = [f"IN_{io.io_name}" for io in self.func.inputs]
        if not states:
            states.append("TRIGGER")
        states.append("CALC")
        if self.func.has_output:
            states.append("OUT_RESULT")
        elif self.func.blocking:
            states.append("OUT_STATUS")
        return states

    @property
    def state(self) -> str:
        """Name of the ICOB's current state (for tests and tracing)."""
        return self._state

    # -- helpers -----------------------------------------------------------------

    def _enter_state(self, state: str) -> None:
        """Transition to ``state``, refreshing the per-state caches."""
        self._state = state
        self._state_pos = self._states.index(state)
        if state.startswith("IN_"):
            io = self.func.input(state[3:])
            self._state_io = io
            # The beat count is fixed for the whole state: any implicit
            # bound it depends on was captured in an earlier input state.
            self._state_beats = self._expected_beats(io)
        else:
            self._state_io = None

    def _expected_beats(self, io: IOParams) -> int:
        bus_width = self.module_params.data_width
        if io.has_index:
            count = int(self._captured.get(io.index_var, 0))
        elif io.io_number is not None:
            count = io.io_number
        else:
            count = 1
        count = max(0, count)
        if count == 0:
            return 0
        if io.is_packed and io.io_width < bus_width:
            per_beat = max(1, bus_width // io.io_width)
            return -(-count // per_beat)
        return count * max(1, -(-io.io_width // bus_width))

    def _element_count(self, io: IOParams) -> int:
        if io.has_index:
            return max(0, int(self._captured.get(io.index_var, 0)))
        return io.io_number if io.io_number is not None else 1

    def _assemble_input(self, io: IOParams, beats: List[int]) -> Union[int, List[int]]:
        """Reassemble captured bus beats into the declared value(s)."""
        bus_width = self.module_params.data_width
        count = self._element_count(io)
        if io.is_packed and io.io_width < bus_width:
            per_beat = max(1, bus_width // io.io_width)
            element_mask = mask_for_width(io.io_width)
            elements: List[int] = []
            for beat in beats:
                for slot in range(per_beat):
                    elements.append((beat >> (slot * io.io_width)) & element_mask)
            elements = elements[:count]
            return elements if io.is_pointer else (elements[0] if elements else 0)
        words_per_element = max(1, -(-io.io_width // bus_width))
        elements = []
        for index in range(0, len(beats), words_per_element):
            value = 0
            for offset, word in enumerate(beats[index:index + words_per_element]):
                value |= word << (offset * bus_width)
            elements.append(value & mask_for_width(max(io.io_width, 1)))
        if io.is_pointer:
            return elements[:count]
        return elements[0] if elements else 0

    def _build_output_words(self, result: Union[int, List[int], None]) -> List[int]:
        """Serialise the calculation result into bus beats (LSW first)."""
        bus_width = self.module_params.data_width
        bus_mask = mask_for_width(bus_width)
        output = self.func.output
        if output is None:
            return [1]  # pseudo output / completion status word
        values: List[int]
        if isinstance(result, (list, tuple)):
            values = [int(v) for v in result]
        else:
            values = [int(result or 0)]
        if output.is_packed and output.io_width < bus_width:
            per_beat = max(1, bus_width // output.io_width)
            element_mask = mask_for_width(output.io_width)
            words = []
            for index in range(0, len(values), per_beat):
                word = 0
                for slot, value in enumerate(values[index:index + per_beat]):
                    word |= (value & element_mask) << (slot * output.io_width)
                words.append(word)
            return words or [0]
        words_per_element = max(1, -(-output.io_width // bus_width))
        words = []
        for value in values:
            value &= mask_for_width(max(output.io_width, 1))
            for offset in range(words_per_element):
                words.append((value >> (offset * bus_width)) & bus_mask)
        return words or [0]

    # -- machine helpers -----------------------------------------------------------

    def _finish_input(self) -> None:
        """Reassemble the completed input and advance (IR helper)."""
        io = self._state_io
        self._captured[io.io_name] = self._assemble_input(io, self._beat_buffer)
        self._beat_buffer = []
        self._advance_after_input(io)

    def _advance_after_input(self, io: IOParams) -> None:
        next_state = self._states[self._state_pos + 1]
        if next_state == "CALC":
            self._enter_calc()
            return
        self._enter_state(next_state)
        # A following implicit-bound input with a zero count is skipped
        # entirely (nothing will ever be transferred for it).
        following = self._state_io
        while following is not None and self._state_beats == 0:
            self._captured[following.io_name] = [] if following.is_pointer else 0
            nxt = self._states[self._state_pos + 1]
            if nxt == "CALC":
                self._enter_calc()
                return
            self._enter_state(nxt)
            following = self._state_io

    def _enter_calc(self) -> None:
        self._state = "CALC"
        self._state_io = None
        # The calculation is a pure countdown: express it against the
        # simulator cycle so the stub can sleep through it on kernels with
        # timed wakes (being run more often is harmless — it just re-checks).
        sim = self._simulator
        self._calc_until = (sim.cycle if sim is not None else 0) + self.calc_latency

    def _run_calc(self) -> None:
        """Invoke the user behaviour and enter the output stage (IR helper:
        the machine's CALC state expresses only the countdown)."""
        result = self.behavior(**{name: value for name, value in self._captured.items()})
        self.activations += 1
        self._output_words = self._build_output_words(result)
        self._out_index = 0
        if self.func.has_output or self.func.blocking:
            self._state = "OUT_RESULT" if self.func.has_output else "OUT_STATUS"
            self.port.calc_done.next = 1
            if self.strictly_synchronous:
                self.port.data_out.next = self._output_words[0]
                self.port.data_out_valid.next = 1
        else:
            # Non-blocking (nowait) functions simply strobe CALC_DONE and
            # return to their first input state.
            self.port.calc_done.next = 1
            self._reset_activation(full=False)

    # -- lifecycle -----------------------------------------------------------------

    def _reset_full(self) -> None:
        """IR helper: full reset (SIS reset asserted)."""
        self._reset_activation(full=True)

    def _reset_soft(self) -> None:
        """IR helper: return to the first input state after an activation."""
        self._reset_activation(full=False)

    def _reset_activation(self, *, full: bool) -> None:
        if full:
            # A reset may arrive with stale captures; clear them before the
            # first input state recomputes its expected beat count from them.
            self._captured = {}
        self._enter_state(self._states[0])
        self._beat_buffer = []
        self._output_words = []
        self._out_index = 0
        self._calc_until = 0
        self._pending_read = False
        if full:
            self.activations = 0
