"""Idle-workload gate: the cycle-leaping fast path.

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

Gates (ratios only — absolute cycles/s depend on the host):

* idle timer: leap >= 5x the plain compiled kernel at the smoke thresholds,
  >= 20x at the full ones.  Measured margins are orders of magnitude.
* Fig 9.1 busy: leap at parity with plain compiled (nominal >= 1.0x; the
  assert allows the +-5% noise floor of the paired measurement) — no
  regression when busy.
"""

import math
import time

from repro.devices.interpolator import build_splice_interpolator
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import kernel_factory

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


def _busy_ratio(sets) -> float:
    """Paired busy-throughput ratio of leap over no-leap.

    Host-speed noise (frequency ramping, noisy neighbours on shared
    runners) dwarfs the effect being measured, and is *structured*: within a
    back-to-back pair the second measurement tends to run on a warmer
    clock.  So the gate statistic is the **geometric mean of per-round
    paired ratios over an even number of rounds with alternating order**:
    each round times the two variants back-to-back (near-identical
    conditions), half the rounds run leap first and half run it second, and
    the geometric mean cancels the order effect exactly.
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
        if len(rates) == 2:
            log_ratio_sum += math.log(rates[True] / rates[False])
            rounds += 1
    return math.exp(log_ratio_sum / rounds) if rounds else 0.0


def test_idle_leap_throughput(smoke):
    sets = next(s for s in SCENARIOS if s.number == 2).generate_inputs()
    busy_ratio = round(_busy_ratio(sets), 3)
    idle_ratio = round(_idle_rate(True) / _idle_rate(False), 2)

    assert idle_ratio >= (5.0 if smoke else 20.0), f"leap only {idle_ratio:.2f}x on idle workload"
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
