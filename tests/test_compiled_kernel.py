"""Unit tests for the levelized compiled kernel (``rtl/compile.py``).

The cycle-exactness proof lives in ``tests/test_kernel_equivalence.py``;
this file covers the compiler itself: static combinational-loop rejection
(with the offending signal path, *before* any cycle runs), the declaration
contract, levelization introspection, recompile-on-registration, first-call
compilation of each entry point, process-wide reuse of each entry's code,
stats parity with the event kernel, wait-state elision, and the kernel
selection plumbing the rest of the stack uses.
"""

import hashlib
import sys
import threading

import pytest

from repro.rtl import (
    KERNELS,
    CompiledSimulator,
    SimulationError,
    Simulator,
    TraceRecorder,
    WaitCondition,
    kernel_factory,
)
from repro.rtl.compile import ENTRY_POINTS


def _chain(sim):
    """a --p0--> b --p1--> c, clocked counter driving a."""
    a = sim.signal("a", width=8)
    b = sim.signal("b", width=8)
    c = sim.signal("c", width=8)
    sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a], drives=[b])
    sim.add_comb(lambda: c.drive(b.value + 1), sensitive_to=[b], drives=[c])
    sim.add_clocked(lambda: setattr(a, "next", a.value + 1))
    return a, b, c


class TestStaticLoopRejection:
    def test_cycle_rejected_at_compile_time_with_signal_path(self):
        sim = CompiledSimulator()
        a = sim.signal("loop_a", width=8)
        b = sim.signal("loop_b", width=8)
        sim.add_comb(lambda: a.drive(b.value + 1), sensitive_to=[b], drives=[a])
        sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a], drives=[b])
        with pytest.raises(SimulationError, match=r"loop_[ab] -> loop_[ba] -> loop_[ab]"):
            sim.compile()
        # The rejection happened before any cycle ran.
        assert sim.cycle == 0
        assert sim.stats.cycles == 0

    def test_cycle_rejected_on_first_step_before_any_cycle(self):
        sim = CompiledSimulator()
        a = sim.signal("self_loop", width=8)
        sim.add_comb(lambda: a.drive(a.value + 1), sensitive_to=[a], drives=[a])
        ran = []
        sim.add_clocked(lambda: ran.append(1))
        with pytest.raises(SimulationError, match="compile time"):
            sim.step()
        assert ran == []  # the clocked phase never started
        assert sim.stats.cycles == 0

    def test_cycle_behind_acyclic_frontend_is_still_found(self):
        # x -> (y <-> z): the acyclic front process must not mask the loop.
        sim = CompiledSimulator()
        x = sim.signal("x", width=8)
        y = sim.signal("y", width=8)
        z = sim.signal("z", width=8)
        w = sim.signal("w", width=8)
        sim.add_comb(lambda: y.drive(x.value), sensitive_to=[x], drives=[y])
        sim.add_comb(lambda: z.drive(y.value + w.value), sensitive_to=[y, w], drives=[z])
        sim.add_comb(lambda: w.drive(z.value), sensitive_to=[z], drives=[w])
        with pytest.raises(SimulationError, match="combinational cycle"):
            sim.compile()

    def test_undeclared_drive_breaking_levelization_raises_at_runtime(self):
        """A process that drives a signal outside its declared drives= set,
        feeding a process ranked before it, must fail loudly instead of
        silently settling on stale values."""
        sim = CompiledSimulator()
        a = sim.signal("a", width=8)
        b = sim.signal("b", width=8)
        c = sim.signal("c", width=8)
        d = sim.signal("d", width=8)
        sim.add_comb(lambda: c.drive(b.value + 1), sensitive_to=[b], drives=[c])
        # Lies about its outputs: declares d but actually drives b.
        sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a], drives=[d])
        sim.add_clocked(lambda: setattr(a, "next", a.value + 1))
        with pytest.raises(SimulationError, match="drives= set"):
            sim.step(2)

    def test_missing_declarations_rejected_with_guidance(self):
        sim = CompiledSimulator()
        a = sim.signal("a", width=8)
        sim.add_comb(lambda: None, sensitive_to=[a])  # no drives
        with pytest.raises(SimulationError, match="drives"):
            sim.compile()

        sim = CompiledSimulator()
        sim.signal("b", width=8)
        sim.add_comb(lambda: None)  # run-always: neither declared
        with pytest.raises(SimulationError, match="sensitive_to and drives"):
            sim.step()


class TestLevelization:
    def test_design_exposes_dense_ids_ranks_and_source(self):
        sim = CompiledSimulator()
        _chain(sim)
        design = sim.compile()
        assert design.signal_ids == {"a": 0, "b": 1, "c": 2}
        # p0 feeds p1, so ranks are 0 and 1 and the sweep order respects them.
        assert design.comb_ranks == {0: 0, 1: 1}
        assert design.comb_order == [0, 1]
        assert design.levels == [[0], [1]]
        assert "def wait_eq(sig, target, limit):" in design.source

    def test_registration_order_breaks_rank_ties(self):
        sim = CompiledSimulator()
        src = sim.signal("src", width=8)
        outs = [sim.signal(f"o{i}", width=8) for i in range(3)]
        for out in outs:
            sim.add_comb(
                (lambda o: lambda: o.drive(src.value))(out),
                sensitive_to=[src],
                drives=[out],
            )
        design = sim.compile()
        assert design.comb_order == [0, 1, 2]
        assert design.levels == [[0, 1, 2]]

    def test_registration_after_freeze_recompiles(self):
        sim = CompiledSimulator()
        a, b, c = _chain(sim)
        sim.step(3)
        assert (a.value, b.value, c.value) == (3, 4, 5)
        d = sim.signal("d", width=8)
        sim.add_comb(lambda: d.drive(c.value * 2), sensitive_to=[c], drives=[d])
        sim.step()
        assert (c.value, d.value) == (6, 12)
        assert sim.design.signal_ids["d"] == 3

    def test_settle_without_step_reaches_fixpoint_once(self):
        sim = CompiledSimulator()
        a, b, c = _chain(sim)
        assert sim.settle() == 1  # registration leaves everything pending
        assert (b.value, c.value) == (1, 2)
        assert sim.settle() == 0  # already settled: no pass, no stats churn


class TestStatsParity:
    def test_quiet_design_stats_match_event_kernel(self):
        """Every counter except settle_iterations is identical on a design
        that is mostly idle (the event kernel counts the empty fixed-point
        check as an extra iteration; the compiled kernel needs no such
        pass by construction)."""

        def run(factory):
            sim = factory()
            src = sim.signal("src", width=8)
            out = sim.signal("out", width=8)

            def clocked():
                if sim.cycle % 5 == 0:
                    src.next = src.value + 1

            sim.add_clocked(clocked)
            sim.add_comb(lambda: out.drive(src.value * 2), sensitive_to=[src], drives=[out])
            sim.reset()
            sim.step(50)
            return sim.stats.as_dict()

        event = run(Simulator)
        compiled = run(CompiledSimulator)
        for counter in (
            "cycles", "settle_calls", "comb_activations",
            "clocked_activations", "fast_path_cycles",
        ):
            assert event[counter] == compiled[counter], counter
        assert compiled["fast_path_cycles"] > 30  # the design really was quiet


#: sha256 of the JSON of ``[stats.as_dict(), process_profile()]`` after each
#: Figure 9.1 row (seed 0), per implementation and leap setting, on the
#: compiled kernel.  Recorded while the generated loop still counted every
#: cycle, fast-path cycle and clocked activation one at a time; the loop now
#: derives them once per call, and must report exactly the same numbers.
_COUNTER_DIGESTS = {
    ("optimized_fcb", True): "592795b32b9cee5fc33ccaf9f6e5d03da54bfa10331cc543d5b1afa4d7178d50",
    ("optimized_fcb", False): "592795b32b9cee5fc33ccaf9f6e5d03da54bfa10331cc543d5b1afa4d7178d50",
    ("simple_plb", True): "e5a2899574f337fc8b2286815e05cd79cc9724ee38846132ca27bb25083ee858",
    ("simple_plb", False): "e5a2899574f337fc8b2286815e05cd79cc9724ee38846132ca27bb25083ee858",
    ("splice_apb", True): "6b5fe88fe60d01cdefdfba8921f9e63880abbde32359d493fd95a87c4f4303f9",
    ("splice_apb", False): "6b5fe88fe60d01cdefdfba8921f9e63880abbde32359d493fd95a87c4f4303f9",
    ("splice_fcb", True): "ff8d6fb263581d73d6f521fab9dee8a14aa2e0b14788b0d18b3f38eb4cd48a1c",
    ("splice_fcb", False): "8ded5c914c837e9265522a7a4da4262de6a522b1e587aa76786127eb6f7242c4",
    ("splice_opb", True): "b30fdff658af9120a16445c4f96097becfae183aa0874a3bed433a7d6b5236ec",
    ("splice_opb", False): "abba00854b5ede286a52abaeaf94282e1b98d975b790ff09e9ccc8901b63565b",
    ("splice_plb", True): "fd84d58a2d1f252bd5ca7319a19da5b7f9ccd97148356eeb0d2b6ad68cc49024",
    ("splice_plb", False): "efaa2d36a4331730805141ae045f9dc5e749ad0a417b0b2fa2211ecc4488f7e0",
    ("splice_plb_dma", True): "83974e52faac450f89ab1066dd2633620b645493e59727c3ee1b55e8b85d9368",
    ("splice_plb_dma", False): "b213ad88ce25bb497067cfe89dc8978dc889227cbd0fb60e75a52a892c497942",
}


def _runner_simulator(runner):
    return getattr(runner, "system", runner).simulator


class TestCountersAtExit:
    """``SimulatorStats`` and ``process_profile()`` are pinned to the values
    the loop reported when it counted them per cycle."""

    @pytest.mark.parametrize("label, leap", sorted(_COUNTER_DIGESTS))
    def test_every_fig91_row_reports_the_pinned_counters(self, label, leap):
        import json

        from repro.devices.registry import build_runner
        from repro.evaluation.scenarios import SCENARIOS

        runner = build_runner(label, kernel="compiled", leap=leap)
        sim = _runner_simulator(runner)
        records = []
        for row in SCENARIOS:
            runner.run_scenario(row.generate_inputs(0))
            records.append([sim.stats.as_dict(), sim.process_profile()])
        text = json.dumps(records, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == _COUNTER_DIGESTS[label, leap], text

    def test_a_timed_out_wait_reports_the_pinned_counters(self):
        from repro.devices.registry import build_runner
        from repro.evaluation.scenarios import SCENARIOS
        from repro.rtl.signal import Signal

        runner = build_runner("splice_plb", kernel="compiled")
        sim = _runner_simulator(runner)
        runner.run_scenario(SCENARIOS[0].generate_inputs(0))
        with pytest.raises(SimulationError, match="timed out after 5000 cycles"):
            sim.wait_until(WaitCondition(Signal("never"), 1), timeout=5000)
        assert sim.stats.as_dict() == {
            "cycles": 5105, "settle_calls": 20, "settle_iterations": 20,
            "comb_activations": 20, "clocked_activations": 140,
            "fast_path_cycles": 5085, "leaped_cycles": 5011, "executed_cycles": 94,
        }
        assert sim.process_profile() == [
            {"label": "interp_plb.plb_master:plbmaster", "kind": "lowered", "gated": True,
             "active": 64, "leaped": 5011, "elided": 30},
            {"label": "func_interpolate:icob", "kind": "lowered", "gated": True,
             "active": 30, "leaped": 5011, "elided": 64},
            {"label": "plb_interface:plb_to_sis", "kind": "lowered", "gated": True,
             "active": 46, "leaped": 5011, "elided": 48},
        ]

    def test_a_call_cut_short_in_the_settle_sweep_counts_whole_cycles(self):
        """The second cycle's sweep raises.  The clock advanced one cycle and
        one settle finished; the always-run process counts once, for that
        cycle, and every comb activation that happened counts."""
        sim = CompiledSimulator()
        a = sim.signal("a", width=8)
        b = sim.signal("b", width=8)
        c = sim.signal("c", width=8)
        d = sim.signal("d", width=8)
        sim.add_comb(lambda: c.drive(b.value + 1), sensitive_to=[b], drives=[c])
        sim.add_comb(lambda: b.drive(a.value + 1), sensitive_to=[a], drives=[d])
        sim.add_clocked(lambda: setattr(a, "next", a.value + 1))
        with pytest.raises(SimulationError, match="drives= set"):
            sim.step(5)
        assert sim.cycle == 1
        stats = sim.stats.as_dict()
        assert (stats["cycles"], stats["settle_calls"], stats["fast_path_cycles"]) == (1, 1, 0)
        assert (stats["comb_activations"], stats["clocked_activations"]) == (3, 1)


class TestWaitStateElision:
    def test_quiescent_gated_process_is_skipped_until_input_changes(self):
        sim = CompiledSimulator()
        req = sim.signal("req", width=1)
        ack = sim.signal("ack", width=1)
        runs = []

        def fsm():
            runs.append(sim.cycle)
            if req.value and not ack.value:
                ack.next = 1
                return True
            if ack.value and ack._next is None:
                ack.next = 0
                return True
            return False

        sim.add_clocked(fsm, sensitive_to=[req])

        def master():
            if sim.cycle == 10:
                req.next = 1
            elif sim.cycle == 12:
                req.next = 0

        sim.add_clocked(master)
        sim.reset()
        sim.step(30)
        # The FSM ran at reset wake-up, around the req pulse, and for its own
        # ack bookkeeping — but nowhere near all 30 cycles.
        assert ack.value == 0
        assert 0 < len(runs) < 12, runs
        assert any(cycle >= 11 for cycle in runs)  # it did see the request

    def test_same_cycle_drive_wakes_later_gated_process(self):
        """A clocked process that drive()s a gated process's declared input
        must wake it within the same clocked phase — the registration-order
        visibility the scan kernels give for free."""

        def run(factory):
            sim = factory()
            x = sim.signal("x", width=8)
            y = sim.signal("y", width=1)

            def driver():
                if sim.cycle == 4:
                    x.drive(9)

            def gated():
                if x.value == 9 and y._next is None and not y.value:
                    y.next = 1
                    return True
                return False

            sim.add_clocked(driver)
            sim.add_clocked(gated, sensitive_to=[x])
            recorder = []
            sim.add_monitor(lambda: recorder.append((x.value, y.value)))
            sim.reset()
            sim.step(8)
            return recorder

        assert run(Simulator) == run(CompiledSimulator)

    def test_a_lowered_machines_call_that_drives_wakes_a_later_gated_process(self):
        """The same, with the drive made by a ``Call`` helper of a lowered
        FSM-IR machine: the compiled kernel must re-read the wake word after
        a machine that has a ``Call`` op."""
        from types import SimpleNamespace

        from repro.rtl.fsm import Active, BoundFsm, Call, FsmSpec, If, StateDispatch

        spec = FsmSpec(
            name="kicker",
            entry=(StateDispatch(),),
            states={"run": (If("CYCLE == 4", (Call("kick"),)), Active("True"))},
            helpers=("kick",),
        )

        def run(factory):
            sim = factory()
            x = sim.signal("x", width=8)
            y = sim.signal("y", width=1)

            def gated():
                if x.value == 9 and y._next is None and not y.value:
                    y.next = 1
                    return True
                return False

            machine = BoundFsm(spec, SimpleNamespace(_simulator=sim),
                               helpers={"kick": lambda: x.drive(9)})
            sim.add_clocked(machine.tick, sensitive_to=[y])
            sim.add_clocked(gated, sensitive_to=[x])
            recorder = []
            sim.add_monitor(lambda: recorder.append((x.value, y.value)))
            sim.reset()
            sim.step(8)
            return recorder, getattr(sim, "design", None)

        expected, _ = run(Simulator)
        trace, design = run(CompiledSimulator)
        assert design.fused_clocked == 1
        assert trace == expected

    def test_undeclared_clocked_processes_always_run(self):
        sim = CompiledSimulator()
        sim.signal("unused", width=1)
        ticks = []
        sim.add_clocked(lambda: ticks.append(1))
        sim.step(25)
        assert len(ticks) == 25
        assert sim.stats.clocked_activations == 25


class TestKernelSelection:
    def test_factory_mapping(self):
        assert kernel_factory("compiled") is CompiledSimulator
        assert set(KERNELS) == {"event", "reference", "compiled"}
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            kernel_factory("vectorized")

    def test_build_system_kernel_name(self):
        from repro.soc.system import build_system

        source = "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\nint ping(int x);\n"
        system = build_system(source, behaviors={"ping": lambda x: x + 1}, kernel="compiled")
        assert isinstance(system.simulator, CompiledSimulator)
        assert system.drivers["ping"](41) == 42

    def test_build_system_rejects_both_selectors(self):
        from repro.soc.system import build_system

        with pytest.raises(ValueError, match="not both"):
            build_system(
                "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x0\nvoid f();\n",
                kernel="compiled",
                simulator_factory=Simulator,
            )

    def test_registry_builds_runner_on_requested_kernel(self):
        from repro.devices.registry import build_runner

        runner = build_runner("splice_plb", kernel="compiled")
        assert isinstance(runner.system.simulator, CompiledSimulator)

    def test_registry_zero_arg_builder_restricted_to_default_kernel(self):
        from repro.devices.registry import build_runner, register_runner

        register_runner("zero-arg-test", lambda: object(), replace=True)
        try:
            build_runner("zero-arg-test")  # default kernel: fine
            with pytest.raises(TypeError, match="simulator_factory"):
                build_runner("zero-arg-test", kernel="compiled")
        finally:
            from repro.devices import registry

            registry._BUILDERS.pop("zero-arg-test", None)


_PING_SPEC = (
    "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"
    "int ping(int x);\n"
)

#: sha256 of ``design.source`` for ``build_runner("splice_plb",
#: kernel="compiled")``, taken when the loop stopped counting cycles,
#: fast-path cycles and clocked activations one at a time and the state
#: dispatch of a machine without ``Redispatch`` lost its bounded loop.
#: Update it deliberately when the code generator changes.
_SPLICE_PLB_SOURCE_SHA256 = "182715bfecf235c8b98547f0f1bd591fa72643022dad50b8bd62dd503c81eb8c"

#: sha256 of the same design's ``wait_eq`` entry: the per-cycle code every
#: loop runs.
_SPLICE_PLB_WAIT_EQ_SHA256 = "a850d22c749563765dc4230f85e2399b5cc63eefbb0412399445c3a7f96f66f0"


class TestFirstCallCompilation:
    """A freeze compiles no entry point; each one compiles on its first call."""

    def _system(self):
        from repro.soc.system import build_system

        return build_system(_PING_SPEC, behaviors={"ping": lambda x: x + 1}, kernel="compiled")

    def test_each_entry_compiles_on_its_first_call(self):
        system = self._system()
        sim = system.simulator
        # build_system ends with reset(), whose freeze only settles.
        assert set(sim._entries) == {"settle_once"}
        assert system.drivers["ping"](41) == 42
        assert set(sim._entries) == {"settle_once", "wait_eq"}
        # step(n) runs the wait_eq loop: it compiles nothing new.
        sim.step(1)
        assert set(sim._entries) == {"settle_once", "wait_eq"}
        assert sim.wait_until(WaitCondition(sim.signals[0], 0, op=">=")) == 0
        assert set(sim._entries) == set(ENTRY_POINTS)

    def test_registration_drops_every_entry_and_recompiles_with_it(self):
        system = self._system()
        sim = system.simulator
        system.drivers["ping"](1)
        sim.step(1)
        seen = []
        sim.add_monitor(lambda: seen.append(sim.cycle))
        assert sim._entries == {}
        assert system.drivers["ping"](2) == 3
        assert set(sim._entries) == {"wait_eq"}
        assert seen, "the monitor registered after the freeze never ran"

    def test_explicit_compile_compiles_every_entry(self):
        sim = self._system().simulator
        sim.compile()
        assert set(sim._entries) == set(ENTRY_POINTS)

    def test_splice_plb_source_is_unchanged(self):
        from repro.devices.registry import build_runner

        sim = build_runner("splice_plb", kernel="compiled").system.simulator
        assert hashlib.sha256(sim.design.source.encode()).hexdigest() == _SPLICE_PLB_SOURCE_SHA256
        wait_eq = sim._sources["wait_eq"]
        assert hashlib.sha256(wait_eq.encode()).hexdigest() == _SPLICE_PLB_WAIT_EQ_SHA256


class TestEntryCodeReuse:
    """Each entry source is compiled once per process, then shared."""

    def test_two_builds_share_entry_code_but_not_simulators(self):
        from repro.soc.system import build_system

        sims, runs = [], []
        for _ in range(2):
            system = build_system(
                _PING_SPEC, behaviors={"ping": lambda x: x + 1}, kernel="compiled"
            )
            sim = system.simulator
            recorder = TraceRecorder(sim, sim.signals)
            results = [system.drivers["ping"](x) for x in (1, 41, 0xFFFF)]
            sim.step(3)
            sim.compile()
            sims.append(sim)
            runs.append((results, sim.cycle, sim.stats, recorder.trace.samples))
        first, second = sims
        for name in ENTRY_POINTS:
            a, b = first._entries[name], second._entries[name]
            assert a is not b
            assert a.__code__ is b.__code__, f"{name} was compiled twice"
            assert a.__globals__["SIM"] is first
            assert b.__globals__["SIM"] is second
        assert runs[0] == runs[1]

    def test_memo_stays_at_its_bound(self):
        from repro.rtl.compile import _ENTRY_CODE, ENTRY_CODE_MEMO_SIZE

        # Chains of different lengths emit different sweeps, so every
        # design adds one new source per entry point.
        designs = ENTRY_CODE_MEMO_SIZE // len(ENTRY_POINTS) + 2
        for length in range(1, designs + 1):
            sim = CompiledSimulator()
            chain = [sim.signal(f"s{i}", width=8) for i in range(length + 1)]
            for src, dst in zip(chain, chain[1:]):
                sim.add_comb(
                    lambda src=src, dst=dst: dst.drive(src.value),
                    sensitive_to=[src], drives=[dst],
                )
            sim.compile()
        assert len(_ENTRY_CODE) == ENTRY_CODE_MEMO_SIZE

    def test_concurrent_lookups_serve_each_key_its_own_value(self):
        from repro.rtl.memo import LruMemo

        memo = LruMemo(8)
        sources = [f"def f():\n    return {i}\n" for i in range(3 * memo.size)]
        errors = []

        def look_up(offset):
            try:
                for k in range(2000):
                    index = (offset * 7 + k) % len(sources)
                    source = sources[index]
                    namespace = {}
                    exec(memo.get(source, lambda: compile(source, "<t>", "exec")), namespace)
                    if namespace["f"]() != index:
                        errors.append(f"key {index} got another key's value")
            except Exception as exc:  # noqa: BLE001 — reported below
                errors.append(repr(exc))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=look_up, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == memo.size


class TestProgramCache:
    """Persistent levelization/codegen cache keyed by the design digest."""

    def _build(self, cache_dir):
        sim = CompiledSimulator(program_cache=cache_dir)
        _chain(sim)
        sim.step(5)
        return sim

    def test_cold_build_populates_and_warm_build_hits(self, tmp_path):
        cold = self._build(tmp_path)
        assert cold.design.program_cache_hit is False
        assert cold.design.digest
        assert list(tmp_path.glob("*.json")), "no program entry written"

        warm = self._build(tmp_path)
        assert warm.design.program_cache_hit is True
        assert warm.design.digest == cold.design.digest
        assert warm.design.source == cold.design.source
        assert warm.design.comb_order == cold.design.comb_order
        assert warm.design.comb_ranks == cold.design.comb_ranks
        assert warm.cycle == cold.cycle == 5

    def test_different_topology_gets_different_digest(self, tmp_path):
        first = self._build(tmp_path)
        other = CompiledSimulator(program_cache=tmp_path)
        x = other.signal("x", width=8)
        y = other.signal("y", width=8)
        other.add_comb(lambda: y.drive(x.value), sensitive_to=[x], drives=[y])
        other.add_clocked(lambda: setattr(x, "next", x.value + 1))
        other.compile()
        assert other.design.digest != first.design.digest
        assert other.design.program_cache_hit is False

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cold = self._build(tmp_path)
        for entry in tmp_path.glob("*.json"):
            entry.write_text("{not json")
        again = self._build(tmp_path)
        assert again.design.program_cache_hit is False
        assert again.design.source == cold.design.source

    def test_truncated_entry_recompiles_and_heals(self, tmp_path):
        cold = self._build(tmp_path)
        for entry in tmp_path.glob("*.json"):
            text = entry.read_text()
            entry.write_text(text[: len(text) // 2])  # torn write
        again = self._build(tmp_path)
        assert again.design.program_cache_hit is False
        assert again.design.source == cold.design.source
        # The recompile overwrote the torn entry: the next build hits.
        healed = self._build(tmp_path)
        assert healed.design.program_cache_hit is True

    def test_cached_program_is_cycle_exact(self, tmp_path):
        def run(sim_factory):
            sim = sim_factory()
            a, b, c = _chain(sim)
            sim.step(20)
            return (a.value, b.value, c.value, sim.cycle)

        fresh = run(CompiledSimulator)
        run(lambda: CompiledSimulator(program_cache=tmp_path))  # populate
        warm = run(lambda: CompiledSimulator(program_cache=tmp_path))
        assert warm == fresh

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        from repro.rtl import PROGRAM_CACHE_ENV

        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path))
        sim = CompiledSimulator()
        _chain(sim)
        sim.compile()
        assert sim.program_cache is not None
        assert list(tmp_path.glob("*.json"))

    def test_campaign_cache_exports_program_cache(self, tmp_path):
        from repro.campaign import CampaignSpec, run_campaign
        from repro.evaluation.scenarios import SCENARIOS

        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:1],
            seeds=(0,),
            name="progcache-smoke",
            kernel="compiled",
        )
        result = run_campaign(spec, cache=tmp_path / "cache")
        assert result.meta["cells_executed"] == 1
        programs = tmp_path / "cache" / "programs"
        assert programs.is_dir() and list(programs.glob("*.json")), (
            "campaign run did not populate the compiled-program cache"
        )
