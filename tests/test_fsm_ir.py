"""FSM IR unit tests: static diagnostics and backend equivalence.

Three execution forms exist for every machine — the tree-walking
interpreter (:meth:`BoundFsm.tick_interpreted`, the semantic oracle), the
standalone generated tick (:attr:`BoundFsm.tick`, the scan-kernel backend)
and the compiled-kernel lowering (inlined into the fused step loop).  The
randomized tests here prove all three produce identical signal traces and
identical machine state on machines the generator dreams up; the
full-system tests prove every machine of the paper grid cycle-exact against
the interpreter, with and without a native bus reset.  The lowering memo is
checked against fresh emission on the paper grid.
"""

import random
from contextlib import contextmanager

import pytest

from repro.devices.baselines import build_naive_plb_system, build_optimized_fcb_system
from repro.devices.interpolator import build_splice_interpolator, interpolate_fixed_point
from repro.evaluation.scenarios import SCENARIOS
from repro.faults import FaultController, sis_targets
from repro.rtl import (
    BoundFsm,
    CompiledSimulator,
    FsmError,
    FsmSpec,
    ReferenceSimulator,
    Simulator,
    TraceRecorder,
    detect_drive_conflicts,
)
from repro.rtl.fsm import (
    LOWERED_MEMO_SIZE,
    Active,
    Call,
    Drive,
    Exec,
    Goto,
    If,
    Pulse,
    Schedule,
    StateDispatch,
)
from repro.rtl.module import Module
from repro.sis import ProtocolVariant, SISBundle, SISProtocolMonitor


def _clocked_spec(**overrides):
    base = dict(
        name="t",
        entry=(StateDispatch(),),
        states={"a": (Goto("b"),), "b": (Goto("a"),)},
        signals=(),
    )
    base.update(overrides)
    return FsmSpec(**base)


class TestDiagnostics:
    """Malformed machines are rejected at build time, construct named."""

    def test_transition_to_unknown_state_is_rejected(self):
        with pytest.raises(FsmError, match="unknown state 'missing'"):
            _clocked_spec(states={"a": (Goto("missing"),)})

    def test_unknown_initial_state_is_rejected(self):
        with pytest.raises(FsmError, match="initial state"):
            _clocked_spec(initial="nope")

    def test_unreachable_state_is_rejected(self):
        with pytest.raises(FsmError, match="unreachable state.*orphan"):
            _clocked_spec(states={"a": (Goto("a"),), "orphan": ()})

    def test_externally_entered_state_is_reachable(self):
        spec = _clocked_spec(
            states={"a": (Goto("a"),), "helper_entered": ()},
            external_states=("helper_entered",),
        )
        assert "helper_entered" in spec.states

    def test_clocked_machine_may_not_drive(self):
        with pytest.raises(FsmError, match="conflicting-drive hazard"):
            _clocked_spec(states={"a": (Drive("x", "1"),)}, signals=("x",))

    def test_comb_machine_may_not_schedule(self):
        with pytest.raises(FsmError, match="may only drive"):
            FsmSpec(
                name="c", kind="comb",
                entry=(Schedule("x", "1"),), signals=("x",),
            )

    def test_clocked_machine_needs_exactly_one_dispatch(self):
        with pytest.raises(FsmError, match="exactly one\\s+StateDispatch"):
            _clocked_spec(entry=())
        with pytest.raises(FsmError, match="exactly one\\s+StateDispatch"):
            _clocked_spec(entry=(StateDispatch(), StateDispatch()))

    def test_redispatch_outside_state_body_is_rejected(self):
        from repro.rtl.fsm import Redispatch

        with pytest.raises(FsmError, match="Redispatch outside a state body"):
            _clocked_spec(
                entry=(StateDispatch(), If("m.flag", (Redispatch(),)))
            )

    def test_binding_mismatch_is_rejected(self):
        spec = _clocked_spec(
            states={"a": (Schedule("x", "1"), Goto("a"))}, signals=("x",)
        )
        owner = Module("owner")
        with pytest.raises(FsmError, match="signal bindings mismatch"):
            BoundFsm(spec, owner, signals={})

    def test_cross_machine_drive_conflict_is_reported(self):
        sim = Simulator()
        shared = sim.signal("shared", width=8)

        def comb_machine(name):
            owner = Module(name)
            spec = FsmSpec(
                name=name, kind="comb",
                entry=(Drive("out", "1"),), signals=("out",),
            )
            return BoundFsm(spec, owner, signals={"out": shared})

        conflicts = detect_drive_conflicts([comb_machine("m1"), comb_machine("m2")])
        assert len(conflicts) == 1
        assert "'shared'" in conflicts[0]
        assert "m1" in conflicts[0] and "m2" in conflicts[0]
        assert detect_drive_conflicts([comb_machine("m3")]) == []


class _RandomMachine(Module):
    """A machine assembled from a seeded random walk over the IR op set."""

    def __init__(self, name: str, seed: int, form: str) -> None:
        super().__init__(name)
        self.inp = self.signal("IN", width=8)
        self.out = self.signal("OUT", width=8)
        self.strobe = self.signal("STROBE", width=1)
        self.r0 = 0
        self.r1 = 0
        self._state = "s0"
        spec = self._random_spec(seed)
        self.fsm = BoundFsm(
            spec, self,
            signals={"inp": self.inp, "out": self.out, "strobe": self.strobe},
        )
        tick = self.fsm.tick_interpreted if form == "interpreted" else self.fsm.tick
        # Declaring sensitivity opts the machine into compiled-kernel
        # lowering; the generated bodies always report activity, so elision
        # never fires and the comparison isolates pure op semantics.
        self.clocked(tick, sensitive_to=[self.inp])

    @staticmethod
    def _random_spec(seed: int) -> FsmSpec:
        # A tiny deterministic LCG keeps the generator dependency-free.
        state = seed * 2654435761 % (2**32) or 1

        def rand(n):
            nonlocal state
            state = (1103515245 * state + 12345) % (2**31)
            return state % n

        n_states = 2 + rand(3)
        names = [f"s{i}" for i in range(n_states)]
        states = {}
        for index, name in enumerate(names):
            body = []
            for _ in range(1 + rand(3)):
                choice = rand(5)
                if choice == 0:
                    body.append(Exec(f"m.r0 = (m.r0 + {1 + rand(7)}) & 255"))
                elif choice == 1:
                    body.append(Exec(f"m.r1 = (m.r1 ^ (m.r0 >> {rand(3)})) & 255"))
                elif choice == 2:
                    body.append(Schedule("out", f"(m.r0 + m.r1 + {rand(16)}) & 255"))
                elif choice == 3:
                    body.append(Pulse("strobe"))
                else:
                    body.append(
                        If(
                            f"inp._value & {1 << rand(4)}",
                            (Exec(f"m.r0 = (m.r0 * 3 + {rand(5)}) & 255"),),
                            orelse=(Schedule("out", "m.r1"),),
                        )
                    )
            body.append(
                If(
                    f"inp._value > {rand(200)}",
                    (Goto(names[rand(n_states)]),),
                    orelse=(Goto(names[rand(n_states)]),),
                )
            )
            body.append(Active("True"))
            states[name] = tuple(body)
        return FsmSpec(
            name=f"rand{seed}",
            entry=(
                If(
                    f"inp._value == {255}",
                    (Exec("m.r0 = 0; m.r1 = 0"),),
                ),
                StateDispatch(),
            ),
            states=states,
            # The generator does not guarantee every state is a Goto target.
            external_states=tuple(names),
            signals=("inp", "out", "strobe"),
        )


class TestRandomizedEquivalence:
    """Interpreted, standalone and lowered execution are trace-identical."""

    @pytest.mark.parametrize("seed", range(12))
    def test_three_forms_agree(self, seed):
        def run(factory, form):
            sim = factory()
            machine = _RandomMachine("rm", seed, form)
            sim.register_module(machine)
            recorder = TraceRecorder(sim, sim.signals)
            sim.reset()
            for cycle in range(80):
                machine.inp.drive((cycle * 37 + seed * 11) % 256)
                sim.step()
            return recorder.trace.samples, machine.r0, machine.r1, machine._state

        oracle = run(Simulator, "interpreted")
        standalone = run(Simulator, "standalone")
        lowered = run(CompiledSimulator, "standalone")
        assert standalone == oracle, f"standalone tick diverges from interpreter (seed {seed})"
        assert lowered == oracle, f"lowered machine diverges from interpreter (seed {seed})"

    def test_lowering_actually_happened(self):
        sim = CompiledSimulator()
        machine = _RandomMachine("rm", 1, "standalone")
        sim.register_module(machine)
        sim.reset()
        design = sim.compile()
        assert design.fused_clocked == 1
        assert len(design.fsm_fingerprints) == 1
        profile = sim.process_profile()
        assert profile[0]["kind"] == "lowered"
        assert profile[0]["label"].endswith("rand1")


class TestFingerprint:
    def test_lexicon_category_changes_the_fingerprint(self):
        # Lowering renames a name by its category (f0_x, f0_g_x, f0_h_x,
        # f0_t_x), so the same ops over differently declared names emit
        # different code and must not share a fingerprint.
        ops = dict(
            name="t", entry=(StateDispatch(),), states={"a": (Exec("x"), Goto("a"))}
        )
        specs = [
            FsmSpec(**ops, **{category: ("x",)})
            for category in ("signals", "groups", "helpers", "temps")
        ]
        assert len({spec.fingerprint() for spec in specs}) == len(specs)
        assert FsmSpec(**ops, helpers=("x",)).fingerprint() == specs[2].fingerprint()

    def test_fingerprint_is_computed_once(self):
        spec = _clocked_spec()
        first = spec.fingerprint()
        spec._canonical = lambda: pytest.fail("fingerprint recomputed")
        assert spec.fingerprint() == first


def _built_simulator(build):
    built = build(CompiledSimulator)
    system = getattr(built, "system", None)
    return getattr(built, "simulator", None) or system.simulator


def _lowered_machines(sim):
    """(prefix, machine) for every FSM the compiled kernel lowers."""
    machines = []
    for cid, (proc, sense) in enumerate(sim._clocked_decls):
        owner = getattr(proc, "__self__", None)
        if isinstance(owner, BoundFsm) and sense is not None and proc is owner.tick:
            machines.append((f"f{cid}", owner))
    for pid, (proc, _, _) in enumerate(sim._comb_decls):
        owner = getattr(proc, "__self__", None)
        if isinstance(owner, BoundFsm) and proc is owner.tick:
            machines.append((f"g{pid}", owner))
    return machines


_PAPER_GRID = [
    pytest.param(
        lambda factory, bus=bus: build_splice_interpolator(
            f"splice_{bus}", simulator_factory=factory
        ),
        id=f"splice_{bus}",
    )
    for bus in ("plb", "fcb", "opb", "apb")
] + [
    pytest.param(lambda factory: build_naive_plb_system(simulator_factory=factory),
                 id="naive_plb"),
    pytest.param(lambda factory: build_optimized_fcb_system(simulator_factory=factory),
                 id="optimized_fcb"),
]


class TestLoweringMemo:
    """Each machine is lowered once per process, then served from its spec."""

    @pytest.mark.parametrize("build", _PAPER_GRID)
    def test_memo_served_body_matches_a_fresh_emission(self, build):
        sim = _built_simulator(build)
        design = sim.compile()
        machines = _lowered_machines(sim)
        assert machines
        assert len(machines) == design.fused_clocked + design.fused_comb
        # Every process of the paper grid is a machine, and every machine is
        # lowered: one left as a plain call would only show as lost speed.
        assert design.fused_clocked == len(sim._clocked_decls)
        assert design.fused_comb == len(sim._comb_decls)
        for prefix, machine in machines:
            served = machine.spec._lowered.get(
                machine._lowered_key(prefix),
                lambda: pytest.fail(f"{machine.profile_label} ({prefix}) not memoized"),
            )
            assert list(served) == machine._emit_lowered_body(prefix), (
                f"{machine.profile_label} ({prefix}): memo differs from a fresh emission"
            )

    def test_rebuilt_design_reuses_every_lowered_body(self, monkeypatch):
        build = _PAPER_GRID[0].values[0]
        source = _built_simulator(build).compile().source

        def fail(self, prefix):
            pytest.fail(f"{self.profile_label} ({prefix}) was lowered again")

        monkeypatch.setattr(BoundFsm, "_emit_lowered_body", fail)
        assert _built_simulator(build).compile().source == source

    def test_memo_stays_at_its_bound(self):
        # One machine whose lowered text varies with its constant.
        spec = FsmSpec(
            name="bounded",
            entry=(StateDispatch(),),
            states={"a": (Schedule("out", "k"), Goto("a"))},
            signals=("out",),
            consts=("k",),
        )
        for value in range(LOWERED_MEMO_SIZE + 3):
            owner = Module(f"m{value}")
            out = owner.signal("OUT", width=8)
            machine = BoundFsm(spec, owner, signals={"out": out}, consts={"k": value})
            owner.clocked(machine.tick, sensitive_to=[out])
            sim = CompiledSimulator()
            sim.register_module(owner)
            assert sim.compile().fused_clocked == 1
        assert len(spec._lowered) == LOWERED_MEMO_SIZE


@contextmanager
def _interpreted_machines():
    """Build systems whose machines run the IR's tree-walking interpreter.

    Every process registered as a :attr:`BoundFsm.tick` — a machine's
    clocked or comb process, or a monitor — is registered as its
    :meth:`BoundFsm.tick_interpreted` instead.  The scan kernels then call
    the interpreter, and the compiled kernel keeps it as a plain call (it
    lowers and fuses only a machine's canonical ``tick``).
    """

    def registering_interpreter(register):
        def patched(self, process, *args, **kwargs):
            owner = getattr(process, "__self__", None)
            if isinstance(owner, BoundFsm) and process is owner.tick:
                process = owner.tick_interpreted
            return register(self, process, *args, **kwargs)

        return patched

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Module, "clocked", registering_interpreter(Module.clocked))
        patch.setattr(Module, "comb", registering_interpreter(Module.comb))
        patch.setattr(
            Simulator, "add_monitor", registering_interpreter(Simulator.add_monitor)
        )
        yield


class _ResetPulse(Module):
    """Testbench stimulus: hold a native bus ``RST`` high for one cycle."""

    def __init__(self, rst, cycle: int) -> None:
        super().__init__("reset_pulse")
        self.rst = rst
        self.at = cycle
        self.clocked(self._tick)

    def _tick(self) -> None:
        cycle = self._simulator.cycle
        if cycle == self.at:
            self.rst.schedule(1)
        elif cycle == self.at + 1:
            self.rst.schedule(0)


#: Scenario-relative cycle of the reset pulse: inside every paper-grid
#: scenario (the shortest, optimized_fcb, takes 108 cycles).
_RESET_CYCLE = 60
#: A reset (or a diverging machine) wedges a system until the processor
#: gives up.  These bounds keep that short: a 40-cycle budget per bus
#: operation, and 20 status polls instead of 10,000 for the APB driver.
#: A clean scenario-2 run uses under half of that cycle budget.
_TIMEOUT = 40
_POLL_LIMIT = 20


def _run_scenario_trace(build, kernel_factory, reset=False):
    built = build(kernel_factory)
    # A Splice runner wraps its SoC system; a baseline is its own system.
    system = getattr(built, "system", built)
    simulator, processor = system.simulator, system.processor
    processor.timeout = _TIMEOUT
    drivers = getattr(system, "drivers", None)
    if drivers is not None:
        drivers["interpolate"].poll_limit = _POLL_LIMIT
    recorder = TraceRecorder(simulator, simulator.signals)
    scenario = next(s for s in SCENARIOS if s.number == 2)
    sets = scenario.generate_inputs()
    if reset:
        simulator.register_module(
            _ResetPulse(processor.master.slave.rst, simulator.cycle + _RESET_CYCLE)
        )
    try:
        result = built.run_scenario(sets)
        outcome = (result["result"], result["cycles"], result["transactions"])
    except Exception as exc:  # the run's error is part of what must agree
        outcome = (type(exc).__name__, str(exc))
    monitor = getattr(system, "monitor", None)
    violations = (
        [(v.cycle, v.rule, v.detail) for v in monitor.violations]
        if monitor is not None
        else None
    )
    processes = [proc for proc, *_ in simulator._clocked_decls + simulator._comb_decls]
    machines = [
        proc
        for proc in processes + simulator._monitors
        if isinstance(getattr(proc, "__self__", None), BoundFsm)
    ]
    return recorder.trace.samples, (outcome, violations, simulator.cycle), machines


_KERNELS = [
    pytest.param(Simulator, id="event"),
    pytest.param(CompiledSimulator, id="compiled"),
]


class TestInterpreterOracle:
    """Every paper-grid machine is cycle-exact against the IR interpreter.

    The default build runs each machine's generated tick (event kernel) or
    its lowered body (compiled kernel); the interpreted build runs the
    tree-walker, which shares no code with the emitter behind both.  The
    two must agree on every signal on every cycle, on the outcome (or the
    error raised) and on the monitor's violations.  The SIS protocol
    monitor is a machine too, so a Splice build runs it interpreted.
    """

    def _compare(self, build, kernel, reset):
        trace, outcome, machines = _run_scenario_trace(build, kernel, reset)
        with _interpreted_machines():
            oracle_trace, oracle_outcome, oracle_machines = _run_scenario_trace(
                build, kernel, reset
            )
        # Both builds really run the form they claim to.
        assert machines and all(proc is proc.__self__.tick for proc in machines)
        assert len(oracle_machines) == len(machines)
        assert all(
            proc == proc.__self__.tick_interpreted for proc in oracle_machines
        )
        monitors = [p for p in oracle_machines if p.__self__.spec.kind == "monitor"]
        assert len(monitors) == (oracle_outcome[1] is not None)
        assert outcome == oracle_outcome
        assert trace == oracle_trace, "generated machines diverge from the interpreter"
        return outcome

    @pytest.mark.parametrize("kernel", _KERNELS)
    @pytest.mark.parametrize("build", _PAPER_GRID)
    def test_scenario_matches_interpreter(self, build, kernel):
        (result, _, _), _, _ = self._compare(build, kernel, reset=False)
        scenario = next(s for s in SCENARIOS if s.number == 2)
        assert result == interpolate_fixed_point(*scenario.generate_inputs()) & 0xFFFFFFFF

    @pytest.mark.parametrize("kernel", _KERNELS)
    @pytest.mark.parametrize("build", _PAPER_GRID)
    def test_native_reset_matches_interpreter(self, build, kernel):
        _, _, cycles = self._compare(build, kernel, reset=True)
        # The reset landed mid-scenario: the run did not finish before it.
        assert cycles > _RESET_CYCLE + 1


class TestMonitorSpec:
    """The monitor kind admits only observer ops and a gate over its regs."""

    def test_monitor_may_not_schedule(self):
        with pytest.raises(FsmError, match="monitors may only Exec, If and Call"):
            FsmSpec(name="m", kind="monitor", entry=(Schedule("x", "1"),),
                    signals=("x",))

    def test_gate_must_name_declared_signals(self):
        with pytest.raises(FsmError, match="undeclared signal"):
            FsmSpec(name="m", kind="monitor", entry=(Exec("r = 1"),),
                    regs=("r",), gate=("x",))

    def test_hot_may_read_only_regs(self):
        with pytest.raises(FsmError, match="may\\s+read only the regs"):
            FsmSpec(name="m", kind="monitor", entry=(Exec("r = 1"),),
                    signals=("x",), regs=("r",), hot="r or x._value")

    def test_regs_belong_to_monitors(self):
        with pytest.raises(FsmError, match="belong to monitor specs"):
            _clocked_spec(regs=("r",))

    def test_gate_and_regs_change_the_fingerprint(self):
        base = dict(name="m", kind="monitor", entry=(Exec("r = r + 1"),),
                    signals=("x",), regs=("r",))
        specs = [
            FsmSpec(**base),
            FsmSpec(**base, gate=("x",)),
            FsmSpec(**base, hot="r"),
            FsmSpec(**dict(base, regs=("r", "q"))),
        ]
        assert len({spec.fingerprint() for spec in specs}) == len(specs)

    def test_regs_persist_across_a_recompile(self):
        # A monitor counting cycles: its register must carry over when a
        # registration invalidates the compiled program mid-run.
        owner = Module("counter")
        seen = []
        spec = FsmSpec(
            name="count", kind="monitor",
            entry=(Exec("n += 1"), Call("note", "n")),
            helpers=("note",), regs=("n",),
        )
        machine = BoundFsm(spec, owner, helpers={"note": seen.append})
        sim = CompiledSimulator()
        sim.register_module(owner)
        sim.add_monitor(machine.tick)
        sim.step(3)
        sim.add_monitor(lambda: None)
        sim.step(2)
        assert sim.design.fused_monitors == 1
        assert seen == [1, 2, 3, 4, 5]


#: SIS wires the generated monitor stimulus drives, with their value range
#: (small payload ranges so "unchanged" and function id 0 are common).
_MONITOR_INPUTS = {
    "io_enable": 2,
    "data_in_valid": 2,
    "data_in": 3,
    "func_id": 3,
    "io_done": 2,
    "data_out_valid": 2,
}
_STIMULUS_CYCLES = 40


def _monitor_stimulus(seed):
    """A seeded random SIS sequence: ``(schedule, fault token)``.

    Each cycle each wire changes with probability 1/4.  One window holds
    ``IO_ENABLE`` high and one holds ``DATA_OUT_VALID`` high (the two
    held-strobe states the event gate keeps hot), and a fault overrides
    ``IO_DONE``, which is not a gate signal.
    """
    rng = random.Random(seed)
    held = {}
    for name in ("io_enable", "data_out_valid"):
        start = rng.randrange(1, _STIMULUS_CYCLES - 8)
        held[name] = range(start, start + rng.randrange(3, 8))
    schedule = {}
    for cycle in range(1, _STIMULUS_CYCLES):
        changes = {}
        for name, values in _MONITOR_INPUTS.items():
            window = held.get(name)
            if window is not None and cycle in window:
                changes[name] = 1
            elif window is not None and cycle == window.stop:
                changes[name] = 0
            elif rng.random() < 0.25:
                changes[name] = rng.randrange(values)
        schedule[cycle] = changes
    kind = rng.choice(("stuck_at_0", "stuck_at_1", "bit_flip"))
    fault = f"{kind}:IO_DONE:{rng.randrange(1, _STIMULUS_CYCLES)}:{rng.randrange(1, 4)}"
    return schedule, fault


def _monitor_violations(factory, variant, schedule, fault):
    sim = factory()
    bundle = SISBundle(data_width=8, func_id_width=3)
    sim.add_signals(bundle.signals())
    monitor = SISProtocolMonitor(bundle, variant=variant).attach(sim)

    def stimulus():
        for name, value in schedule.get(sim.cycle, {}).items():
            getattr(bundle, name).next = value

    sim.add_clocked(stimulus)
    sim.inject_faults(FaultController(fault, sis_targets(bundle)))
    sim.step(_STIMULUS_CYCLES + 2)
    if factory is CompiledSimulator:
        assert sim.design.fused_monitors == 1
    return [(v.cycle, v.rule, v.detail) for v in monitor.violations]


class TestMonitorStimulus:
    """The monitor's generated tick (reference and event kernels), its
    event-gated inline body (compiled kernel) and the interpreter record
    identical violations on generated SIS sequences."""

    @pytest.mark.parametrize("variant", list(ProtocolVariant))
    def test_every_form_records_the_same_violations(self, variant):
        rules = set()
        for seed in range(300):
            schedule, fault = _monitor_stimulus(seed)
            with _interpreted_machines():
                oracle = _monitor_violations(ReferenceSimulator, variant, schedule, fault)
            for factory in (ReferenceSimulator, Simulator, CompiledSimulator):
                got = _monitor_violations(factory, variant, schedule, fault)
                assert got == oracle, (seed, factory.__name__, fault)
            rules.update(rule for _, rule, _ in oracle)
        expected = {"io_enable_strobe", "status_register_write"}
        if variant is ProtocolVariant.PSEUDO_ASYNCHRONOUS:
            expected |= {"data_in_stability", "func_id_stability", "read_handshake"}
        assert rules == expected

