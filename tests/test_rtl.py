"""Unit tests for the RTL simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.rtl import (
    CompiledSimulator,
    Module,
    ReferenceSimulator,
    Signal,
    SimulationError,
    Simulator,
    SimulatorStats,
    TraceRecorder,
)
from repro.rtl.signal import mask_for_width, truncate

#: The scan-based kernels; used where run-always comb semantics matter.
BOTH_KERNELS = pytest.mark.parametrize(
    "kernel", [Simulator, ReferenceSimulator], ids=["event", "reference"]
)

#: All three kernels must satisfy the shared behavioural contracts.
ALL_KERNELS = pytest.mark.parametrize(
    "kernel",
    [Simulator, ReferenceSimulator, CompiledSimulator],
    ids=["event", "reference", "compiled"],
)


class TestSignal:
    def test_reset_value_and_width_masking(self):
        sig = Signal("s", width=4, reset=0x1F)
        assert sig.value == 0xF  # masked to 4 bits

    def test_two_phase_update(self):
        sig = Signal("s", width=8)
        sig.next = 0xAB
        assert sig.value == 0
        assert sig.commit() is True
        assert sig.value == 0xAB

    def test_commit_without_pending_is_noop(self):
        sig = Signal("s", width=8, reset=3)
        assert sig.commit() is False
        assert sig.value == 3

    def test_drive_reports_change(self):
        sig = Signal("s", width=8)
        assert sig.drive(5) is True
        assert sig.drive(5) is False

    def test_bit_and_bits_accessors(self):
        sig = Signal("s", width=8, reset=0b1011_0010)
        assert sig.bit(1) == 1
        assert sig.bit(0) == 0
        assert sig.bits(7, 4) == 0b1011

    def test_bit_out_of_range(self):
        with pytest.raises(IndexError):
            Signal("s", width=4).bit(4)

    def test_bool_and_int_conversions(self):
        assert not Signal("s", width=1)
        assert int(Signal("s", width=8, reset=7)) == 7

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            Signal("s", width=0)

    @given(st.integers(min_value=1, max_value=64), st.integers(min_value=0))
    def test_truncate_always_fits(self, width, value):
        assert truncate(value, width) <= mask_for_width(width)


class TestSimulator:
    def test_clocked_process_advances_state(self):
        sim = Simulator()
        counter = sim.signal("count", width=8)
        sim.add_clocked(lambda: setattr(counter, "next", counter.value + 1))
        sim.step(5)
        assert counter.value == 5
        assert sim.cycle == 5

    def test_comb_settles_chain(self):
        sim = Simulator()
        a = sim.signal("a", width=8)
        b = sim.signal("b", width=8)
        c = sim.signal("c", width=8)
        sim.add_comb(lambda: b.drive(a.value + 1))
        sim.add_comb(lambda: c.drive(b.value + 1))
        sim.add_clocked(lambda: setattr(a, "next", 10))
        sim.step()
        assert (b.value, c.value) == (11, 12)

    @ALL_KERNELS
    def test_comb_loop_detection(self, kernel):
        # The scan kernels hit the settle iteration limit; the compiled
        # kernel rejects the undeclared run-always process at compile time.
        # Either way a SimulationError fires before the loop can spin.
        sim = kernel(max_settle_iterations=8)
        a = sim.signal("a", width=8)
        sim.add_comb(lambda: a.drive(a.value + 1))
        with pytest.raises(SimulationError):
            sim.step()

    @ALL_KERNELS
    def test_mutually_driving_comb_processes_raise(self, kernel):
        """Two comb processes driving each other's inputs form a loop."""
        sim = kernel(max_settle_iterations=16)
        a = sim.signal("a", width=8)
        b = sim.signal("b", width=8)
        sim.add_comb(lambda: a.drive(b.value + 1), sensitive_to=[b], drives=[a])
        sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a], drives=[b])
        with pytest.raises(SimulationError):
            sim.step()

    @BOTH_KERNELS
    def test_max_settle_iterations_is_honored(self, kernel):
        """A loop survives exactly ``max_settle_iterations`` passes, no more."""
        runs = []
        sim = kernel(max_settle_iterations=5)
        a = sim.signal("a", width=16)
        sim.add_comb(lambda: (runs.append(a.value), a.drive(a.value + 1)), sensitive_to=[a])
        with pytest.raises(SimulationError, match="5 iterations"):
            sim.step()
        assert len(runs) == 5

    @ALL_KERNELS
    def test_value_scheduled_before_registration_still_commits(self, kernel):
        """A ``next`` set before add_signal() binds the observer is not lost."""
        sig = Signal("s", width=8)
        sig.next = 5
        sim = kernel()
        sim.add_signal(sig)
        sim.step()
        assert sig.value == 5
        sig.next = 9
        sim.step()
        assert sig.value == 9

    def test_run_until_times_out(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, timeout=10)

    def test_run_until_returns_elapsed_cycles(self):
        sim = Simulator()
        flag = sim.signal("flag")
        sim.add_clocked(lambda: setattr(flag, "next", 1 if sim.cycle >= 3 else 0))
        elapsed = sim.run_until(lambda: flag.value == 1)
        assert elapsed >= 3

    @ALL_KERNELS
    def test_run_until_checks_condition_before_stepping(self, kernel):
        """An already-true condition returns 0 cycles even with timeout=0."""
        sim = kernel()
        sim.signal("unused")
        assert sim.run_until(lambda: True, timeout=0) == 0
        assert sim.cycle == 0
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False, timeout=0)

    @ALL_KERNELS
    def test_reset_restores_signals_and_cycle(self, kernel):
        sim = kernel()
        counter = sim.signal("count", width=8, reset=2)
        sim.add_clocked(lambda: setattr(counter, "next", counter.value + 1))
        sim.step(3)
        sim.reset()
        assert counter.value == 2
        assert sim.cycle == 0

    @ALL_KERNELS
    def test_reset_clears_stats_and_resettles_comb_outputs(self, kernel):
        sim = kernel()
        src = sim.signal("src", width=8, reset=3)
        derived = sim.signal("derived", width=8)
        sim.add_comb(lambda: derived.drive(src.value * 2), sensitive_to=[src], drives=[derived])
        sim.add_clocked(lambda: setattr(src, "next", src.value + 1))
        sim.step(5)
        assert sim.stats.cycles == 5
        sim.reset()
        # Stats are cleared, and the comb output is consistent with the reset
        # values before any step() runs (the reset->settle contract).
        assert sim.stats.as_dict() == SimulatorStats().as_dict()
        assert derived.value == 6

    @ALL_KERNELS
    def test_reset_settles_safely_without_comb_processes(self, kernel):
        """reset() with no comb processes leaves reset values committed."""
        sim = kernel()
        counter = sim.signal("count", width=8, reset=7)
        sim.add_clocked(lambda: setattr(counter, "next", counter.value + 1))
        samples = []
        sim.add_monitor(lambda: samples.append(counter.value))
        sim.step(2)
        sim.reset()
        assert counter.value == 7
        assert sim.stats.cycles == 0
        # Monitors never run during reset itself.
        assert samples == [8, 9]

    def test_event_kernel_skips_settle_on_quiet_cycles(self):
        sim = Simulator()
        pulse = sim.signal("pulse")
        out = sim.signal("out", width=8)
        sim.add_clocked(
            lambda: setattr(pulse, "next", 1 - pulse.value) if sim.cycle % 10 == 0 else None
        )
        sim.add_comb(lambda: out.drive(0xF0 if pulse.value else 0x0F), sensitive_to=[pulse])
        sim.step(30)
        assert sim.stats.fast_path_cycles > 20
        assert sim.stats.comb_activations < 30

    def test_sensitivity_limits_activations(self):
        sim = Simulator()
        hot = sim.signal("hot", width=8)
        cold = sim.signal("cold", width=8)
        hot_out = sim.signal("hot_out", width=8)
        cold_out = sim.signal("cold_out", width=8)
        activations = {"hot": 0, "cold": 0}

        def hot_proc():
            activations["hot"] += 1
            hot_out.drive(hot.value + 1)

        def cold_proc():
            activations["cold"] += 1
            cold_out.drive(cold.value + 1)

        sim.add_comb(hot_proc, sensitive_to=[hot])
        sim.add_comb(cold_proc, sensitive_to=[cold])
        sim.add_clocked(lambda: setattr(hot, "next", hot.value + 1))
        sim.step(10)
        # ``cold`` never changes after the initial settle, so its process
        # only ran when registration marked everything dirty.
        assert activations["hot"] >= 10
        assert activations["cold"] <= 2
        assert cold_out.value == 1

    def test_reference_kernel_ignores_sensitivity_lists(self):
        sim = ReferenceSimulator()
        a = sim.signal("a", width=8)
        b = sim.signal("b", width=8)
        sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a])
        sim.add_clocked(lambda: setattr(a, "next", 5))
        sim.step()
        assert b.value == 6
        assert sim.stats.fast_path_cycles == 0

    def test_stats_report_renders_counters(self):
        sim = Simulator()
        sim.signal("s")
        sim.step(3)
        text = sim.stats.report()
        assert "cycles" in text and "fast_path_cycles" in text
        assert sim.stats.as_dict()["cycles"] == 3


class TestModule:
    def test_signal_namespacing_and_duplicates(self):
        mod = Module("m")
        sig = mod.signal("x", width=4)
        assert sig.name == "m.x"
        with pytest.raises(ValueError):
            mod.signal("x")

    def test_attach_registers_children_recursively(self):
        parent = Module("p")
        child = Module("c")
        child.signal("y")
        parent.submodule(child)
        ticks = []
        child.clocked(lambda: ticks.append(1))
        sim = Simulator()
        sim.register_module(parent)
        sim.step(2)
        assert len(ticks) == 2
        assert any(s.name == "c.y" for s in parent.iter_signals())


class TestTrace:
    def test_recorder_samples_every_cycle(self):
        sim = Simulator()
        counter = sim.signal("count", width=8)
        sim.add_clocked(lambda: setattr(counter, "next", counter.value + 1))
        recorder = TraceRecorder(sim, [counter])
        sim.step(4)
        assert len(recorder.trace) == 4
        assert recorder.trace.values("count") == [1, 2, 3, 4]

    def test_edges_and_count_high(self):
        sim = Simulator()
        strobe = sim.signal("strobe")
        sim.add_clocked(lambda: setattr(strobe, "next", 1 if sim.cycle % 2 == 0 else 0))
        recorder = TraceRecorder(sim, [strobe])
        sim.step(6)
        trace = recorder.trace
        assert trace.count_high("strobe") > 0
        assert all(trace.values("strobe")[c] for c in trace.edges("strobe"))

    def test_unknown_signal_rejected(self):
        sim = Simulator()
        recorder = TraceRecorder(sim, [sim.signal("a")])
        sim.step(1)
        with pytest.raises(KeyError):
            recorder.trace.values("missing")

    def test_render_contains_signal_names(self):
        sim = Simulator()
        sig = sim.signal("visible", width=8)
        recorder = TraceRecorder(sim, [sig])
        sim.step(2)
        assert "visible" in recorder.trace.render()
