"""SIS transfer protocols and runtime protocol checking (Sections 4.2).

Two protocol variants exist:

* **pseudo-asynchronous** (Figure 4.3) — the native bus provides per-beat
  handshaking, so the adapter holds ``DATA_IN`` / ``DATA_IN_VALID`` /
  ``FUNC_ID`` steady until the targeted function raises ``IO_DONE`` for one
  cycle; reads complete when the function raises ``DATA_OUT_VALID`` and
  ``IO_DONE`` together.
* **strictly synchronous** (Figure 4.4) — the native bus cannot be paused;
  writes must complete in the cycle they are presented and reads are
  coordinated through the ``CALC_DONE`` status vector, which software polls
  via the reserved function identifier zero.

:class:`SISProtocolMonitor` watches a shared :class:`~repro.sis.signals.SISBundle`
every cycle and records violations of the communication axioms; the test
suite attaches it to generated hardware to prove adapters honour the SIS.
The axioms are written once, as a ``monitor`` spec of the FSM IR
(:mod:`repro.rtl.fsm`), and that one description is executed three ways:
the generated tick the scan kernels call, the body the compiled kernel
inlines behind its event gate, and the interpreter the tests use as the
oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.rtl.fsm import BoundFsm, Call, Exec, FsmSpec, If
from repro.rtl.simulator import Simulator
from repro.sis.signals import SISBundle


class ProtocolVariant(enum.Enum):
    """Which SIS transfer protocol a native interface adapter implements."""

    PSEUDO_ASYNCHRONOUS = "pseudo_asynchronous"
    STRICTLY_SYNCHRONOUS = "strictly_synchronous"


def variant_for_bus(pseudo_asynchronous: bool) -> ProtocolVariant:
    """Map a bus capability flag onto the SIS protocol variant it requires."""
    return (
        ProtocolVariant.PSEUDO_ASYNCHRONOUS
        if pseudo_asynchronous
        else ProtocolVariant.STRICTLY_SYNCHRONOUS
    )


@dataclass
class ProtocolViolation:
    """One detected violation of the SIS communication axioms."""

    cycle: int
    rule: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        return f"cycle {self.cycle}: [{self.rule}] {self.detail}"


def _record(rule: str, detail: str) -> tuple:
    """The op that records one violation of ``rule`` at the current cycle."""
    return (Call("record", f"CYCLE, {rule!r}, {detail!r}"),)


def _monitor_spec(variant: ProtocolVariant) -> FsmSpec:
    """The communication axioms of ``variant`` as one monitor spec.

    Each check compares this cycle's wires with the previous cycle's, held
    in ``regs``.  The event gate: every check must observe each change of
    the signals it compares (the strobes, and on pseudo-asynchronous
    interfaces the payload and function id), plus every cycle of the two
    held-strobe states in which a record can repeat without any change
    (``IO_ENABLE`` held keeps ``prev_enable`` hot, ``DATA_OUT_VALID`` held
    keeps ``prev_out_valid`` hot).  ``IO_DONE`` needs no gate entry: it only
    ever suppresses records, and the held-``DATA_OUT_VALID`` check that
    reads it across cycles is kept running by ``prev_out_valid``.
    """
    entry = [
        Exec("enable = io_enable._value\nvalid = data_in_valid._value"),
        # IO_ENABLE strobes for a single cycle per request.
        If("enable and prev_enable", (
            Exec("enable_run += 1"),
            If("enable_run >= 2", _record("io_enable_strobe", "IO_ENABLE held high for more than one request cycle without a new request")),
        ), orelse=(Exec("enable_run = 0"),)),
        # Function id zero addresses the read-only CALC_DONE register.
        If("enable and valid and func_id._value == 0", _record(
            "status_register_write", "write presented to function id 0, which is reserved for the CALC_DONE status register")),
    ]
    signals = ["io_enable", "data_in_valid", "func_id"]
    regs = ["prev_enable", "enable_run"]
    gate = ["io_enable", "data_in_valid"]
    hot = "prev_enable"
    if variant is ProtocolVariant.PSEUDO_ASYNCHRONOUS:
        entry += [
            # Figure 4.3: payload and target hold steady until IO_DONE.
            If("prev_valid and valid and not io_done._value", (
                If("data_in._value != prev_data_in", _record(
                    "data_in_stability", "DATA_IN changed while DATA_IN_VALID was held waiting for IO_DONE")),
                If("func_id._value != prev_func_id", _record(
                    "func_id_stability", "FUNC_ID changed while DATA_IN_VALID was held waiting for IO_DONE")),
            )),
            # Figure 4.3: DATA_OUT_VALID and IO_DONE rise together on reads.
            Exec("out_valid = data_out_valid._value"),
            If("out_valid and not io_done._value", _record(
                "read_handshake", "DATA_OUT_VALID asserted without IO_DONE on a pseudo-asynchronous interface")),
            Exec("prev_valid = valid\nprev_data_in = data_in._value\n"
                 "prev_func_id = func_id._value\nprev_out_valid = out_valid"),
        ]
        signals += ["data_in", "io_done", "data_out_valid"]
        regs += ["prev_valid", "prev_data_in", "prev_func_id", "prev_out_valid"]
        gate += ["data_out_valid", "data_in", "func_id"]
        hot += " or prev_out_valid"
    entry.append(Exec("prev_enable = enable"))
    return FsmSpec(
        name=f"sis_monitor_{variant.value}", kind="monitor", entry=tuple(entry),
        signals=tuple(signals), helpers=("record",), temps=("enable", "valid", "out_valid"),
        regs=tuple(regs), gate=tuple(gate), hot=hot,
    )


#: One spec per variant, shared by every monitor: the generated tick and
#: the lowered text are cached on the spec.
_MONITOR_SPECS = {variant: _monitor_spec(variant) for variant in ProtocolVariant}


@dataclass
class SISProtocolMonitor:
    """Observes a shared SIS bundle and records protocol violations.

    The checks encode the axioms stated in Section 4.2:

    * ``DATA_IN``/``FUNC_ID`` must stay stable while ``DATA_IN_VALID`` waits
      for ``IO_DONE`` (write payload must not glitch mid-transfer),
    * ``IO_ENABLE`` strobes for a single cycle per request,
    * ``DATA_OUT_VALID`` is only meaningful together with ``IO_DONE`` on
      read completion, and
    * function identifier zero is never the target of a write (it addresses
      the read-only ``CALC_DONE`` status register).

    The first and third apply to pseudo-asynchronous interfaces only.  The
    rules exist once, as the FSM-IR monitor spec of the variant
    (:func:`_monitor_spec`); :meth:`attach` registers its generated tick,
    which the scan kernels call every cycle and the compiled kernel inlines.
    """

    bundle: SISBundle
    variant: ProtocolVariant = ProtocolVariant.PSEUDO_ASYNCHRONOUS
    violations: List[ProtocolViolation] = field(default_factory=list)
    _simulator: Optional[Simulator] = None

    def attach(self, simulator: Simulator) -> "SISProtocolMonitor":
        """Register the monitor with ``simulator`` (runs after every cycle)."""
        self._simulator = simulator
        spec = _MONITOR_SPECS[self.variant]
        signals = {name: getattr(self.bundle, name) for name in spec.signals}
        machine = BoundFsm(spec, self, signals=signals, helpers={"record": self._record})
        simulator.add_monitor(machine.tick)
        return self

    def _record(self, cycle: int, rule: str, detail: str) -> None:
        self.violations.append(ProtocolViolation(cycle=cycle, rule=rule, detail=detail))

    # -- reporting ---------------------------------------------------------

    @property
    def clean(self) -> bool:
        """True when no violations have been observed."""
        return not self.violations

    def report(self) -> str:
        if self.clean:
            return "SIS protocol: no violations observed"
        lines = [f"SIS protocol: {len(self.violations)} violation(s)"]
        lines.extend(str(v) for v in self.violations)
        return "\n".join(lines)
