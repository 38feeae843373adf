"""FSM IR unit tests: static diagnostics and backend equivalence.

Three execution forms exist for every machine — the tree-walking
interpreter (:meth:`BoundFsm.tick_interpreted`, the semantic oracle), the
standalone generated tick (:attr:`BoundFsm.tick`, the scan-kernel backend)
and the compiled-kernel lowering (inlined into the fused step loop).  The
randomized tests here prove all three produce identical signal traces and
identical machine state on machines the generator dreams up; the
full-system tests prove the IR ports of the in-tree machines cycle-exact
against the retained hand-written Python ticks (``fsm_backend="python"``).
The lowering memo is checked against fresh emission on the paper grid.
"""

import pytest

from repro.devices.baselines import build_naive_plb_system, build_optimized_fcb_system
from repro.devices.interpolator import build_splice_interpolator, interpolate_fixed_point
from repro.evaluation.scenarios import SCENARIOS
from repro.rtl import (
    BoundFsm,
    CompiledSimulator,
    FsmError,
    FsmSpec,
    Simulator,
    TraceRecorder,
    detect_drive_conflicts,
    use_backend,
)
from repro.rtl.fsm import (
    LOWERED_MEMO_SIZE,
    Active,
    Drive,
    Exec,
    Goto,
    If,
    Pulse,
    Schedule,
    StateDispatch,
)
from repro.rtl.module import Module


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


def _run_scenario_trace(build, kernel_factory):
    built = build(kernel_factory)
    system = getattr(built, "system", None)
    simulator = getattr(built, "simulator", None) or system.simulator
    recorder = TraceRecorder(simulator, simulator.signals)
    scenario = next(s for s in SCENARIOS if s.number == 2)
    sets = scenario.generate_inputs()
    outcome = built.run_scenario(sets)
    monitor = getattr(system, "monitor", None) if system is not None else None
    violations = (
        [(v.cycle, v.rule, v.detail) for v in monitor.violations]
        if monitor is not None
        else None
    )
    return recorder.trace.samples, (
        outcome["result"],
        outcome["cycles"],
        outcome["transactions"],
        violations,
    )


class TestRetainedPythonPathParity:
    """IR machines are cycle-exact against the retained hand-written ticks.

    The ``python`` backend registers the original tick methods; building
    the same system on the same kernel with both backends and comparing
    every signal on every cycle proves each port faithful.
    """

    @pytest.mark.parametrize("bus", ["plb", "fcb", "opb", "apb"])
    @pytest.mark.parametrize("kernel", [Simulator, CompiledSimulator])
    def test_splice_systems_match_legacy(self, bus, kernel):
        def build(factory):
            return build_splice_interpolator(f"splice_{bus}", simulator_factory=factory)

        ir_trace, ir_outcome = _run_scenario_trace(build, kernel)
        with use_backend("python"):
            py_trace, py_outcome = _run_scenario_trace(build, kernel)
        assert ir_outcome == py_outcome
        assert ir_trace == py_trace, f"IR port of {bus} diverges from the Python path"
        scenario = next(s for s in SCENARIOS if s.number == 2)
        assert ir_outcome[0] == interpolate_fixed_point(*scenario.generate_inputs()) & 0xFFFFFFFF

    @pytest.mark.parametrize(
        "builder", [build_naive_plb_system, build_optimized_fcb_system]
    )
    def test_baselines_match_legacy(self, builder):
        def build(factory):
            return builder(simulator_factory=factory)

        for kernel in (Simulator, CompiledSimulator):
            ir_trace, ir_outcome = _run_scenario_trace(build, kernel)
            with use_backend("python"):
                py_trace, py_outcome = _run_scenario_trace(build, kernel)
            assert ir_outcome == py_outcome
            assert ir_trace == py_trace

    def test_python_backend_still_selectable_per_module(self):
        with use_backend("python"):
            system = build_splice_interpolator("splice_plb").system
        assert system.master.fsm is None  # retained tick registered
        system2 = build_splice_interpolator("splice_plb").system
        assert system2.master.fsm is not None
