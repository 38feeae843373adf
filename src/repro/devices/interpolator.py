"""The Chapter 9 evaluation device: the Scan Eagle linear interpolator.

The real device approximates continuous flight-control data from three sets
of time-valued samples; the paper deliberately leaves its internals out of
the evaluation because "the amount of calculation done in each implementation
is constant" (Section 9.2).  This reproduction follows suit: the calculation
is a deterministic fixed-point linear interpolation over the three input
sets, identical across every interface implementation and given the same
fixed calculation latency everywhere.

Three Splice specifications are provided, matching the three generated
interfaces of Section 9.2.1: a simple 32-bit PLB interconnect, an FCB
interconnect (which benefits from double/quad bursts), and a DMA-enabled PLB
interconnect.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.rtl.simulator import Simulator
from repro.soc.system import SpliceSystem, build_system

#: Fixed number of cycles the calculation logic takes in every
#: implementation (Section 9.1: "requires the same numbers of clock cycles to
#: produce results each time it is run").
CALCULATION_LATENCY = 24

#: The single Splice user-logic function: implicit pointer declarations move
#: exactly the number of values each scenario requires (Section 9.2.1).
_DECLARATION = (
    "long interpolate(char n1, int*:n1 set1, char n2, int*:n2 set2, char n3, int*:n3 set3);"
)

INTERPOLATOR_SPEC_PLB = f"""\
%device_name interp_plb
%bus_type plb
%bus_width 32
%base_address 0x80010000
%dma_support false
{_DECLARATION}
"""

INTERPOLATOR_SPEC_PLB_DMA = f"""\
%device_name interp_plb_dma
%bus_type plb
%bus_width 32
%base_address 0x80020000
%dma_support true
long interpolate(char n1, int*:n1^ set1, char n2, int*:n2^ set2, char n3, int*:n3^ set3);
"""

INTERPOLATOR_SPEC_FCB = f"""\
%device_name interp_fcb
%bus_type fcb
%bus_width 32
%burst_support true
{_DECLARATION}
"""

#: OPB and APB targets for scenario-diversity testing: the paper's evaluation
#: focuses on PLB/FCB, but the same declaration retargets to the other two
#: built-in buses, exercising the full adapter matrix.
INTERPOLATOR_SPEC_OPB = f"""\
%device_name interp_opb
%bus_type opb
%bus_width 32
%base_address 0x80040000
{_DECLARATION}
"""

INTERPOLATOR_SPEC_APB = f"""\
%device_name interp_apb
%bus_type apb
%bus_width 32
%base_address 0x40050000
{_DECLARATION}
"""


def interpolate_fixed_point(
    set1: Sequence[int], set2: Sequence[int], set3: Sequence[int]
) -> int:
    """Deterministic fixed-point linear interpolation over the three sets.

    ``set1`` holds sample timestamps, ``set2`` holds sampled control values,
    and ``set3`` holds query timestamps; the result is the sum of the
    interpolated control values at each query point, in 16.16 fixed point
    truncated to 32 bits.  The exact maths is unimportant for the evaluation
    — what matters is that it is a pure, deterministic function of its inputs
    shared by every interface implementation.

    Each query's bracket starts at the last stamp not after it (the first
    stamp when every stamp is after it).  Sorted stamps, which every
    generated scenario has, find it by bisection; unsorted ones by a scan.
    Either way the answer is the same, and the simulated cost is the fixed
    :data:`CALCULATION_LATENCY`, so only host time depends on the method.
    """
    times = [int(v) for v in set1] or [0]
    values = [int(v) for v in set2] or [0]
    queries = [int(v) for v in set3] or [0]
    ordered = all(a <= b for a, b in zip(times, times[1:]))

    total = 0
    for query in queries:
        # Locate the bracketing samples (clamping at the ends).
        if ordered:
            lo = max(bisect_right(times, query) - 1, 0)
        else:
            lo = 0
            for index, stamp in enumerate(times):
                if stamp <= query:
                    lo = index
        hi = min(lo + 1, len(times) - 1)
        v_lo = values[min(lo, len(values) - 1)]
        v_hi = values[min(hi, len(values) - 1)]
        t_lo, t_hi = times[lo], times[hi]
        if t_hi == t_lo:
            interpolated = v_lo << 16
        else:
            fraction = ((query - t_lo) << 16) // (t_hi - t_lo)
            interpolated = (v_lo << 16) + (v_hi - v_lo) * fraction
        total = (total + interpolated) & 0xFFFFFFFF
    return total


def interpolator_behavior(**inputs) -> int:
    """The behaviour bound into every Splice-generated interpolator stub."""
    return interpolate_fixed_point(
        inputs.get("set1", []), inputs.get("set2", []), inputs.get("set3", [])
    )


@dataclass
class SpliceInterpolator:
    """A built Splice-generated interpolator system."""

    system: SpliceSystem
    label: str
    fault_controller: Optional[object] = None

    def apply_faults(self, schedule) -> None:
        """Attach a fault schedule (token string, ``FaultSchedule``, or
        ``None`` to clear) to this runner's simulator.

        Spec cycles are relative to scenario start: ``run_scenario`` rebases
        the controller every call, so the same schedule faults the same
        relative cycle of every scenario regardless of how many ran before.
        """
        from repro.faults import FaultController, coerce_schedule, sis_targets

        schedule = coerce_schedule(schedule)
        if schedule is None:
            self.fault_controller = None
            self.system.simulator.inject_faults(None)
            return
        self.fault_controller = FaultController(
            schedule, sis_targets(self.system.peripheral.sis)
        )
        self.system.simulator.inject_faults(self.fault_controller)

    def run_scenario(self, sets: Sequence[Sequence[int]]) -> Dict[str, int]:
        """Run one interpolation and report the cycles the call took."""
        set1, set2, set3 = [list(s) for s in sets]
        driver = self.system.drivers["interpolate"]
        start = self.system.cycles
        if self.fault_controller is not None:
            self.fault_controller.rebase(self.system.simulator, start)
        result = driver(len(set1), set1, len(set2), set2, len(set3), set3)
        return {
            "result": int(result),
            "cycles": self.system.cycles - start,
            "transactions": driver.last_call.transactions,
        }


_SPECS = {
    "splice_plb": INTERPOLATOR_SPEC_PLB,
    "splice_plb_dma": INTERPOLATOR_SPEC_PLB_DMA,
    "splice_fcb": INTERPOLATOR_SPEC_FCB,
    "splice_opb": INTERPOLATOR_SPEC_OPB,
    "splice_apb": INTERPOLATOR_SPEC_APB,
}


def build_splice_interpolator(
    kind: str = "splice_plb",
    *,
    inter_op_gap: int = 1,
    simulator_factory: Callable[[], Simulator] = Simulator,
    record_transactions: bool = True,
) -> SpliceInterpolator:
    """Build one of the Splice-generated interpolator systems.

    ``kind`` is one of ``"splice_plb"``, ``"splice_plb_dma"``,
    ``"splice_fcb"``, ``"splice_opb"`` or ``"splice_apb"``.
    ``simulator_factory`` selects the simulation kernel (see
    :func:`repro.soc.system.build_system`); ``record_transactions=False``
    keeps memory flat on campaign-scale runs.
    """
    try:
        spec = _SPECS[kind]
    except KeyError:
        raise KeyError(f"unknown Splice interpolator kind {kind!r} (known: {sorted(_SPECS)})") from None
    system = build_system(
        spec,
        behaviors={"interpolate": interpolator_behavior},
        calc_latencies={"interpolate": CALCULATION_LATENCY},
        inter_op_gap=inter_op_gap,
        simulator_factory=simulator_factory,
        record_transactions=record_transactions,
    )
    return SpliceInterpolator(system=system, label=kind)
