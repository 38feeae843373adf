"""Event-driven kernel over the snapshot-based reference kernel on the
Chapter 8 timer: ``test_event_kernel_speedup`` compares raw simulated
cycles/second between the two on the running timer.
"""

import math
import time

from repro.devices.timer import build_timer_system
from repro.rtl import ReferenceSimulator, Simulator

#: Paired rounds behind the event/reference ratio, and cycles per kernel per
#: round (20k cycles in all per kernel).
_SPEEDUP_ROUNDS = 10
_SPEEDUP_CYCLES = 2_000


def test_event_kernel_speedup(smoke):
    """Cycles/second of the event-driven kernel vs the reference kernel.

    Both kernels simulate the identical running timer (enabled, threshold far
    away) for the same number of cycles; the differential harness guarantees
    their traces are identical, so this measures pure kernel overhead.

    Host speed drifts while the test runs, so, as in ``test_bench_idle.py``,
    each round times the two kernels back to back, the order alternates
    between rounds, and the gate reads the geometric mean of the per-round
    ratios.
    """
    systems = {}
    for label, factory in (("reference", ReferenceSimulator), ("event", Simulator)):
        timer = build_timer_system(simulator_factory=factory)
        timer.drivers["set_threshold"](1 << 40)  # effectively never fires
        timer.drivers["enable"]()
        systems[label] = timer.system
    log_ratio_sum = 0.0
    for round_ in range(_SPEEDUP_ROUNDS):
        order = ("reference", "event") if round_ % 2 == 0 else ("event", "reference")
        rates = {}
        for label in order:
            start = time.perf_counter()
            systems[label].run(_SPEEDUP_CYCLES)
            rates[label] = _SPEEDUP_CYCLES / (time.perf_counter() - start)
        log_ratio_sum += math.log(rates["event"] / rates["reference"])
    speedup = math.exp(log_ratio_sum / _SPEEDUP_ROUNDS)
    if smoke:
        # Shared runners: only require the event kernel to win, not the
        # full margin.
        assert speedup > 1.0, f"event-driven kernel slower than reference ({speedup:.2f}x)"
    else:
        assert speedup >= 3.0, f"event-driven kernel only {speedup:.2f}x faster"
