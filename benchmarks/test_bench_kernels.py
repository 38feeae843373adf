"""Kernel shoot-out gate: simulated bus cycles per wall-clock second for
the three kernels (snapshot-based reference, event-driven, levelized
compiled) on two workloads:

* the **timer workload** — the Chapter 8 timer running with a far-away
  threshold, the same design ``test_bench_timer.py`` uses, and
* one **Figure 9.1 bus matrix** — scenario 2 through the Splice-generated
  interpolator on all four buses, repeated enough times that the ~1 ms
  single-run wall-clock stops dominating the measurement.  Systems are
  built with ``record_transactions=False`` (the campaign configuration).

Gates (ratios only — absolute cycles/s depend on the host):

* timer: compiled > event always; >= 3x at the full thresholds;
* Fig 9.1: compiled >= 1.8x event and compiled > reference on every bus,
  at both threshold sets.
"""

import time
from typing import Dict

from repro.devices.interpolator import build_splice_interpolator
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import KERNELS

#: Fewer cycles for the reference kernel: it is O(signals x processes) per
#: cycle, and the rate estimate converges long before 20k cycles.
_TIMER_CYCLES = {"reference": 4_000, "event": 20_000, "compiled": 20_000}

_FIG91_BUSES = ("plb", "fcb", "opb", "apb")

#: Scenario repetitions per measurement: one scenario-2 run is ~150 bus
#: cycles (~1 ms), far too short to time on its own.
_FIG91_REPEATS = {"reference": 10, "event": 40, "compiled": 40}


def _timer_rate(kernel: str) -> float:
    timer = build_timer_system(simulator_factory=KERNELS[kernel])
    timer.drivers["set_threshold"](1 << 40)  # effectively never fires
    timer.drivers["enable"]()
    timer.system.run(1)  # warm-up: the compiled kernel compiles step on first call
    cycles = _TIMER_CYCLES[kernel]
    start = time.perf_counter()
    timer.system.run(cycles)
    return cycles / (time.perf_counter() - start)


def _fig91_rates(bus: str, sets) -> Dict[str, float]:
    """Best-of-5 cycles/s per kernel on ``bus``, measured interleaved.

    The kernels rotate within each round rather than each being timed in
    its own contiguous block: host-speed drift (thermal, noisy neighbours
    on shared runners) then hits every kernel's rounds alike, so the
    *ratios* the gates check stay stable even when absolute rates swing.
    """
    devices = {}
    for kernel in KERNELS:
        device = build_splice_interpolator(
            f"splice_{bus}", simulator_factory=KERNELS[kernel], record_transactions=False
        )
        device.run_scenario(sets)  # warm-up: first-call elaboration/compile
        devices[kernel] = device
    best = {kernel: 0.0 for kernel in KERNELS}
    for _ in range(5):
        for kernel, device in devices.items():
            cycles = 0
            start = time.perf_counter()
            for _ in range(_FIG91_REPEATS[kernel]):
                cycles += device.run_scenario(sets)["cycles"]
            elapsed = time.perf_counter() - start
            if elapsed > 0:
                best[kernel] = max(best[kernel], cycles / elapsed)
    return best


def test_kernel_throughput_matrix(smoke):
    timer = {kernel: _timer_rate(kernel) for kernel in KERNELS}
    sets = next(s for s in SCENARIOS if s.number == 2).generate_inputs()
    fig91 = {bus: _fig91_rates(bus, sets) for bus in _FIG91_BUSES}

    ratio = round(timer["compiled"] / timer["event"], 2)
    if smoke:
        # Shared runners: the compiled kernel must still beat the event
        # kernel outright.
        assert ratio > 1.0, f"compiled kernel slower than event kernel ({ratio:.2f}x)"
    else:
        assert ratio >= 3.0, f"compiled kernel only {ratio:.2f}x over event kernel"

    # The fused harness + lowered-FSM path must win decisively on the paper's
    # bus workloads: >= 1.8x the event kernel on *every* Figure 9.1 bus, now
    # that the per-cycle machines execute inside the generated loop.
    bus_ratios = {bus: round(rates["compiled"] / rates["event"], 2) for bus, rates in fig91.items()}
    for bus, rates in fig91.items():
        assert rates["compiled"] > rates["reference"], (bus, rates)
        assert bus_ratios[bus] >= 1.8, (
            f"compiled kernel only {bus_ratios[bus]:.2f}x over event on {bus}: {bus_ratios}"
        )
