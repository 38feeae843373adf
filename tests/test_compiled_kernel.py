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
        assert "def step(n):" in design.source

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
#: kernel="compiled")``, taken before the entry points were split apart.
#: It proves the per-cycle code is unchanged; update it deliberately when
#: the code generator changes.
_SPLICE_PLB_SOURCE_SHA256 = "4379da294bea297f2fae3f49f9c9a8710ecb7ec19f3aed929012cf2f4a27e540"


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
        sim.step(1)
        assert set(sim._entries) == {"settle_once", "wait_eq", "step"}
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

        source = build_runner("splice_plb", kernel="compiled").system.simulator.design.source
        assert hashlib.sha256(source.encode()).hexdigest() == _SPLICE_PLB_SOURCE_SHA256


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
