"""Idle-workload benchmark: the cycle-leaping fast path — updates
``BENCH_kernels.json``.

Measures simulated bus cycles per wall-clock second for the compiled kernel
with and without cycle leaping on two workloads:

* the **idle timer workload** — the Chapter 8 timer counting down to a
  far-away threshold with no bus traffic at all.  With leaping enabled the
  kernel jumps each idle span in O(1), so throughput here is really a
  measure of how cheap a leap is, not how fast cycles execute;
* the **Figure 9.1 busy workload** — scenario 2 through the Splice-generated
  PLB interpolator, where transactions keep machines awake and leaping
  almost never engages.  This guards the other side of the bargain: the leap
  guard must cost nothing when there is nothing to leap.

The row merges into ``BENCH_kernels.json`` under the ``"idle"`` key (the
kernel shoot-out writes the other keys) and appends to
``BENCH_history.jsonl``.

Gates (ratios only — absolute cycles/s depend on the host):

* idle timer: leap >= 5x the plain compiled kernel always (the CI
  ``kernel-perf-smoke`` job re-checks this with ``--benchmark-disable``);
  >= 20x in full benchmark mode.  Measured margins are orders of magnitude.
* Fig 9.1 busy: leap at parity with plain compiled (nominal >= 1.0x; the
  assert allows the +-5% noise floor of the paired measurement) — no
  regression when busy.
"""

import json
import math
import time
from pathlib import Path

from conftest import record_history

from repro.devices.interpolator import build_splice_interpolator
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import kernel_factory

_BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernels.json"

#: Leap mode executes only a handful of real cycles per run, so it needs a
#: far longer simulated span than plain mode to get a stable wall-clock read.
_IDLE_CYCLES = {"leap": 2_000_000, "no_leap": 20_000}

#: Scenario repetitions per busy measurement (one scenario-2 run is ~150 bus
#: cycles, far too short to time on its own).
_FIG91_REPEATS = 40

#: Paired rounds behind the busy-parity statistic.  At 10 rounds the
#: geometric mean read below 0.95 in 3 of 12 clean runs on a shared 2-CPU
#: host; at 30 rounds twenty runs stayed within 0.976-1.045.
_BUSY_ROUNDS = 30


def _idle_rate(leap: bool) -> float:
    factory = kernel_factory("compiled", leap=leap)
    cycles = _IDLE_CYCLES["leap" if leap else "no_leap"]
    best = 0.0
    for _ in range(3):
        timer = build_timer_system(simulator_factory=factory)
        timer.drivers["set_threshold"](1 << 40)  # effectively never fires
        timer.drivers["enable"]()
        simulator = timer.system.simulator
        # Untimed warm-up: run() is the first call of the generated step
        # entry, whose compile would otherwise dwarf a leaping run.
        simulator.compile()
        start = time.perf_counter()
        timer.system.run(cycles)
        elapsed = time.perf_counter() - start
        assert simulator.design.leap is leap
        if leap:
            assert simulator.stats.leaped_cycles > cycles // 2
        else:
            assert simulator.stats.leaped_cycles == 0
        if elapsed > 0:
            best = max(best, cycles / elapsed)
    return best


def _busy_rates(sets) -> dict:
    """Paired busy-throughput measurement for leap vs no-leap.

    Host-speed noise (frequency ramping, noisy neighbours on shared
    runners) dwarfs the effect being measured, and is *structured*: within a
    back-to-back pair the second measurement tends to run on a warmer
    clock.  So the gate statistic is the **geometric mean of per-round
    paired ratios over an even number of rounds with alternating order**:
    each round times the two variants back-to-back (near-identical
    conditions), half the rounds run leap first and half run it second, and
    the geometric mean cancels the order effect exactly.  Best-of rates are
    reported alongside for the artifact.
    """
    devices = {}
    for leap in (True, False):
        device = build_splice_interpolator(
            "splice_plb",
            simulator_factory=kernel_factory("compiled", leap=leap),
            record_transactions=False,
        )
        device.run_scenario(sets)  # warm-up: first-call elaboration/compile
        devices[leap] = device
    best = {True: 0.0, False: 0.0}
    log_ratio_sum, rounds = 0.0, 0
    for round_ in range(_BUSY_ROUNDS):
        order = (True, False) if round_ % 2 == 0 else (False, True)
        rates = {}
        for leap in order:
            device = devices[leap]
            cycles = 0
            start = time.perf_counter()
            for _ in range(_FIG91_REPEATS):
                cycles += device.run_scenario(sets)["cycles"]
            elapsed = time.perf_counter() - start
            if elapsed > 0:
                rates[leap] = cycles / elapsed
                best[leap] = max(best[leap], rates[leap])
        if len(rates) == 2:
            log_ratio_sum += math.log(rates[True] / rates[False])
            rounds += 1
    best["ratio_gmean"] = math.exp(log_ratio_sum / rounds) if rounds else 0.0
    return best


def test_idle_leap_throughput(benchmark, once):
    def measure():
        scenario = next(s for s in SCENARIOS if s.number == 2)
        sets = scenario.generate_inputs()
        busy = _busy_rates(sets)
        return {
            "idle_timer_cycles_per_s": {
                "leap": round(_idle_rate(True), 1),
                "no_leap": round(_idle_rate(False), 1),
            },
            "fig91_plb_busy_cycles_per_s": {
                "leap": round(busy[True], 1),
                "no_leap": round(busy[False], 1),
                "paired_ratio_gmean": round(busy["ratio_gmean"], 3),
            },
        }

    record = once(benchmark, measure)
    idle = record["idle_timer_cycles_per_s"]
    busy = record["fig91_plb_busy_cycles_per_s"]
    record["ratios"] = {
        "leap_over_no_leap_idle": round(idle["leap"] / idle["no_leap"], 2),
        "leap_over_no_leap_busy": busy["paired_ratio_gmean"],
    }

    # Merge into the kernel artifact rather than overwriting it: the
    # shoot-out in test_bench_kernels.py owns the other keys.
    try:
        merged = json.loads(_BENCH_PATH.read_text())
    except (OSError, ValueError):
        merged = {}
    merged["idle"] = record
    _BENCH_PATH.write_text(json.dumps(merged, indent=2) + "\n")
    print(f"\nBENCH_kernels.json[idle]: {json.dumps(record, indent=2)}")
    record_history("idle", record)

    idle_ratio = record["ratios"]["leap_over_no_leap_idle"]
    busy_ratio = record["ratios"]["leap_over_no_leap_busy"]
    if getattr(benchmark, "disabled", False):
        # Smoke mode (--benchmark-disable, CI on shared runners).
        assert idle_ratio >= 5.0, f"leap only {idle_ratio:.2f}x on idle workload"
    else:
        assert idle_ratio >= 20.0, f"leap only {idle_ratio:.2f}x on idle workload"
    # Busy workloads must not pay for the leap guard: the requirement is
    # parity (>= 1.0x).  Measured gmean ratios centre slightly above 1.0;
    # the gate allows the +-5% noise floor of the paired measurement (worst
    # observed clean-run reading: 0.96 mid-suite on a loaded host) so it
    # does not flake on shared runners, while still catching any real
    # busy-path regression (the bug this gate caught during development
    # measured 0.79-0.92x).
    assert busy_ratio >= 0.95, (
        f"leap kernel slower than plain compiled when busy ({busy_ratio:.3f}x)"
    )
