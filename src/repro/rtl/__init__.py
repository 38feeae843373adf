"""Cycle-accurate RTL simulation kernel.

This package is the hardware substrate of the reproduction: every piece of
"generated hardware" (bus adapters, arbitration units, user-logic stubs) and
every hand-coded baseline peripheral is expressed as a :class:`Module` built
from :class:`Signal` objects and simulated by :class:`Simulator`.

Two kernels are provided: the default event-driven :class:`Simulator`
(sensitivity-list scheduling, dirty-signal tracking, and a settle-skipping
fast path) and the snapshot-based :class:`ReferenceSimulator` kept as the
differential-testing oracle.  Both are synchronous: a single global clock,
two-phase (read current values / commit next values) clocked processes, and a
settling loop for combinational processes.  That matches the hardware the
paper describes — all four target buses (PLB, OPB, FCB, APB) are synchronous
interfaces clocked from a single bus clock.
"""

from functools import partial

from repro.rtl.signal import Signal, mask_for_width, truncate
from repro.rtl.simulator import (
    ReferenceSimulator,
    SimulationError,
    Simulator,
    SimulatorStats,
    WaitCondition,
)
from repro.rtl.compile import CompiledDesign, CompiledSimulator
from repro.rtl.module import Module
from repro.rtl.fsm import (
    BoundFsm,
    FsmError,
    FsmSpec,
    detect_drive_conflicts,
    fsm_ir_fingerprint,
)
from repro.rtl.trace import Trace, TraceRecorder

#: Kernel name -> simulator factory, as exposed by ``--kernel`` everywhere.
KERNELS = {
    "event": Simulator,
    "reference": ReferenceSimulator,
    "compiled": CompiledSimulator,
}

#: The kernel used when nothing is specified.
DEFAULT_KERNEL = "event"


def kernel_factory(name: str, leap: bool = True):
    """Resolve a kernel name to its simulator factory.

    ``leap=False`` disables the compiled kernel's cycle-leaping fast path
    (the ``--no-leap`` debugging aid): idle spans are then executed cycle by
    cycle exactly as before the leap optimisation.  The flag has no effect
    on the scan kernels, which execute every cycle regardless.
    """
    try:
        factory = KERNELS[name]
    except KeyError:
        raise ValueError(
            f"unknown simulation kernel {name!r} (known: {sorted(KERNELS)})"
        ) from None
    if not leap and name == "compiled":
        return partial(factory, leap=False)
    return factory


__all__ = [
    "Signal",
    "Simulator",
    "WaitCondition",
    "ReferenceSimulator",
    "CompiledSimulator",
    "CompiledDesign",
    "SimulatorStats",
    "SimulationError",
    "Module",
    "BoundFsm",
    "FsmError",
    "FsmSpec",
    "detect_drive_conflicts",
    "fsm_ir_fingerprint",
    "Trace",
    "TraceRecorder",
    "KERNELS",
    "DEFAULT_KERNEL",
    "kernel_factory",
    "mask_for_width",
    "truncate",
]
