"""Kernel shoot-out benchmark — writes ``BENCH_kernels.json``.

Measures simulated bus cycles per wall-clock second for the three kernels
(snapshot-based reference, event-driven, levelized compiled) on two
workloads, so the per-PR perf trajectory of the simulation core is tracked
in one machine-readable artifact:

* the **timer workload** — the Chapter 8 timer running with a far-away
  threshold, the same design ``test_bench_timer.py`` uses, and
* one **Figure 9.1 bus matrix** — scenario 2 through the Splice-generated
  interpolator on all four buses, repeated enough times that the ~1 ms
  single-run wall-clock stops dominating the measurement.  Systems are
  built with ``record_transactions=False`` (the campaign configuration).

The record carries ``meta`` (host CPUs, Python version, platform, UTC
timestamp) so numbers are comparable across hosts, and per-bus
``compiled_over_event`` ratios for the Fig 9.1 matrix.

Gates (ratios only — absolute cycles/s depend on the host):

* timer: compiled > event always; >= 3x in full benchmark mode;
* Fig 9.1: compiled must beat event outright on every bus, and by >= 1.5x
  on at least one bus — the CI ``kernel-perf-smoke`` job re-checks both
  with ``--benchmark-disable``.
"""

import datetime
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict

from conftest import record_history

from repro.devices.interpolator import build_splice_interpolator
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import KERNELS

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

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


def test_kernel_throughput_matrix(benchmark, once):
    def measure():
        timer = {kernel: round(_timer_rate(kernel), 1) for kernel in KERNELS}
        scenario = next(s for s in SCENARIOS if s.number == 2)
        sets = scenario.generate_inputs()
        fig91 = {
            bus: {
                kernel: round(rate, 1)
                for kernel, rate in _fig91_rates(bus, sets).items()
            }
            for bus in _FIG91_BUSES
        }
        return {"timer_cycles_per_s": timer, "fig91_scenario2_cycles_per_s": fig91}

    record = once(benchmark, measure)
    timer = record["timer_cycles_per_s"]
    fig91 = record["fig91_scenario2_cycles_per_s"]
    record["ratios"] = {
        "event_over_reference_timer": round(timer["event"] / timer["reference"], 2),
        "compiled_over_event_timer": round(timer["compiled"] / timer["event"], 2),
        "compiled_over_reference_timer": round(timer["compiled"] / timer["reference"], 2),
        "compiled_over_event_fig91": {
            bus: round(rates["compiled"] / rates["event"], 2) for bus, rates in fig91.items()
        },
    }
    record["meta"] = {
        "host_cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "fig91_repeats": dict(_FIG91_REPEATS),
    }
    # Preserve the idle-workload row owned by test_bench_idle.py.
    try:
        record["idle"] = json.loads(_BENCH_PATH.read_text())["idle"]
    except (OSError, ValueError, KeyError):
        pass
    _BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"\nBENCH_kernels.json: {json.dumps(record, indent=2)}")
    record_history(
        "kernels",
        {
            "timer_cycles_per_s": timer,
            "fig91_scenario2_cycles_per_s": fig91,
            "compiled_over_event_fig91": record["ratios"]["compiled_over_event_fig91"],
            "compiled_over_event_timer": record["ratios"]["compiled_over_event_timer"],
        },
    )

    ratio = record["ratios"]["compiled_over_event_timer"]
    if getattr(benchmark, "disabled", False):
        # Smoke mode (--benchmark-disable, e.g. CI on shared runners): the
        # compiled kernel must still beat the event kernel outright.
        assert ratio > 1.0, f"compiled kernel slower than event kernel ({ratio:.2f}x)"
    else:
        assert ratio >= 3.0, f"compiled kernel only {ratio:.2f}x over event kernel"

    # The fused harness + lowered-FSM path must win decisively on the paper's
    # bus workloads: >= 1.8x the event kernel on *every* Figure 9.1 bus (the
    # named CI perf gate, raised from PR 4's best-bus >= 1.5x now that the
    # per-cycle machines execute inside the generated loop).
    bus_ratios = record["ratios"]["compiled_over_event_fig91"]
    for bus, rates in fig91.items():
        assert rates["compiled"] > rates["reference"], (bus, rates)
        assert bus_ratios[bus] >= 1.8, (
            f"compiled kernel only {bus_ratios[bus]:.2f}x over event on {bus}: {bus_ratios}"
        )
