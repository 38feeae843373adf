"""The fuzz subsystem: case model, watchdog, oracle, shrinker, session.

The acceptance-grade checks live here too: a deliberately seeded kernel bug
(a one-token mutation of the compiled kernel's generated cycle-leap code)
must be *found* by a small fixed-seed session, *shrunk* to a small case,
*serialized* to a corpus record, and that record must *replay clean* on the
unmutated kernels — the full corpus lifecycle in one test.  Rigged kernels
synthesize one counterexample per verdict kind so the corpus round-trip
(serialize → load → replay → identical verdict) is covered for every kind.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.fuzz import (
    IDLE,
    CaseVerdict,
    Counterexample,
    FuzzCall,
    FuzzCase,
    FuzzFunction,
    FuzzTopology,
    VERDICT_KINDS,
    case_watchdog,
    corpus_files,
    minimize,
    replay_case,
    run_case,
    save_case,
    watchdog_available,
)
from repro.fuzz.session import run_session, session_payload
from repro.fuzz.watchdog import CaseHang
from repro.rtl import CompiledSimulator, ReferenceSimulator, Simulator


def _topology(**overrides):
    defaults = dict(
        bus="plb",
        functions=(
            FuzzFunction("f0", "poke"),
            FuzzFunction("f1", "peek"),
            FuzzFunction("f2", "stream", calc_latency=24),
        ),
    )
    defaults.update(overrides)
    return FuzzTopology(**defaults)


def _case(**overrides):
    defaults = dict(
        topology=_topology(),
        calls=(
            FuzzCall("f0", (3, 0xDEADBEEF)),
            FuzzCall.idle(40),
            FuzzCall("f2", ((1, 2, 0xFFFFFFFF),)),
            FuzzCall("f1", (3,)),
        ),
    )
    defaults.update(overrides)
    return FuzzCase(**defaults)


# -- seeded kernel mutations (the bugs the fuzzer must convict) --------------


def _mutate(sources, old, new):
    """Apply a one-token mutation to every generated entry point."""
    assert any(old in text for text in sources.values())
    return {name: text.replace(old, new) for name, text in sources.items()}


class OvershootCompiled(CompiledSimulator):
    """Cycle-leap overshoot: wakes one cycle late from every leap."""

    def _codegen(self, *args, **kwargs):
        return _mutate(
            super()._codegen(*args, **kwargs),
            "_skip = s._next_timed - cyc", "_skip = s._next_timed - cyc + 1",
        )


class PastHorizonLeapCompiled(CompiledSimulator):
    """A leap clamped one cycle past the call's horizon: a call that ends in
    a leap returns a cycle late."""

    def _codegen(self, *args, **kwargs):
        return _mutate(
            super()._codegen(*args, **kwargs), "_rem = _end - cyc", "_rem = _end - cyc + 1",
        )


def _overshoot_factories(case):
    return {
        "reference": ReferenceSimulator,
        "compiled": OvershootCompiled if case.leap else CompiledSimulator,
    }


# -- rigged kernels for the per-kind synthetic counterexamples ---------------


class MonitorBlindSimulator(Simulator):
    """Swallows the first attached monitor — the SIS protocol monitor —
    so real violations go unreported while traces stay identical."""

    def add_monitor(self, fn):
        if not getattr(self, "_blinded", False):
            self._blinded = True
            return
        super().add_monitor(fn)


class LyingStatsSimulator(Simulator):
    """A scan kernel that claims it leaped — leap accounting cannot balance."""

    def step(self, cycles=1):
        super().step(cycles)
        self.stats.leaped_cycles += 1


class WedgedSimulator(Simulator):
    """Never finishes a step call; only the watchdog can end it."""

    def step(self, cycles=1):
        while True:
            super().step(1)


class CrashingSimulator(Simulator):
    """Dies mid-run once the workload is underway."""

    def step(self, cycles=1):
        if self.cycle > 2:
            raise RuntimeError("kernel exploded")
        super().step(cycles)


def _boom_factory():
    raise RuntimeError("builder exploded")


class TestCaseModel:
    def test_json_round_trip_preserves_token(self):
        case = _case()
        clone = FuzzCase.from_json(case.to_json())
        assert clone == case
        assert clone.token == case.token

    def test_fault_token_is_canonicalised(self):
        # Short spelling and canonical spelling are the same case.
        short = _case(faults="bit_flip:DATA_IN:5")
        full = _case(faults="bit_flip:DATA_IN:5:1:*")
        assert short.faults == "bit_flip:DATA_IN:5:1:*"
        assert short.token == full.token

    def test_token_is_stable_across_processes(self):
        # sha256 of canonical JSON — no per-process hash randomisation.
        assert _case().token == FuzzCase.from_dict(_case().describe()).token

    def test_validation_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            _topology(bus="vme")
        with pytest.raises(ValueError):
            _topology(dma=True, bus="opb")
        with pytest.raises(ValueError):
            FuzzTopology(bus="plb", functions=())
        with pytest.raises(KeyError):
            _case(calls=(FuzzCall("nope", (1,)),))
        with pytest.raises(ValueError):
            FuzzCall.idle(0)

    def test_spec_source_targets_the_right_bus(self):
        assert "%bus_type plb" in _topology().spec_source()
        fcb = _topology(bus="fcb", burst=True, dma=False)
        assert "%burst_support true" in fcb.spec_source()

    def test_behaviors_share_one_store_per_system(self):
        behaviors = _topology().behaviors()
        behaviors["f0"](3, 99)
        assert behaviors["f1"](3) == 99
        # A fresh behaviours dict is a fresh store.
        assert _topology().behaviors()["f1"](3) == 0


class TestWatchdog:
    def test_kills_a_busy_loop(self):
        assert watchdog_available()
        with pytest.raises(CaseHang):
            with case_watchdog(0.2):
                while True:
                    pass

    def test_zero_timeout_disables(self):
        with case_watchdog(0) as armed:
            assert armed is False

    @pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
    def test_an_alarm_swallowed_by_a_gc_callback_fires_again(self):
        """Python ignores an exception raised in a gc callback, so the first
        alarm can be lost there; the guard must still end the case."""
        import gc
        import time

        def slow_callback(phase, info):
            if phase == "start":
                time.sleep(0.4)  # the 0.2 s alarm lands in here

        gc.callbacks.append(slow_callback)
        started = time.monotonic()
        try:
            with pytest.raises(CaseHang):
                with case_watchdog(0.2):
                    gc.collect()
                    while time.monotonic() - started < 3.0:
                        pass
        finally:
            gc.callbacks.remove(slow_callback)
        assert time.monotonic() - started < 1.5

    def test_oracle_reports_hang_for_wedged_kernel(self):
        verdict = run_case(
            _case(),
            kernel_factories={"reference": ReferenceSimulator, "wedged": WedgedSimulator},
            timeout_s=0.3,
        )
        assert verdict.kind == "hang"
        assert verdict.kernel == "wedged"


class TestOracle:
    def test_clean_kernels_agree(self):
        verdict = run_case(_case())
        assert verdict.ok, verdict
        assert verdict.kind == "pass"

    def test_overshoot_mutation_is_convicted(self):
        verdict = run_case(_case(), kernel_factories=_overshoot_factories(_case()))
        assert verdict.kind == "divergence"
        assert verdict.kernel == "compiled"

    def test_past_horizon_leap_mutation_is_convicted(self):
        verdict = run_case(_case(), kernel_factories={
            "reference": ReferenceSimulator, "compiled": PastHorizonLeapCompiled})
        assert verdict.kind == "divergence"
        assert verdict.kernel == "compiled"

    # Entry code is reused across simulators of one process by source text,
    # so a clean kernel and a mutant that ran the same case before it must
    # each get their own code.
    def _clean_then_mutant(self):
        assert run_case(_case()).ok
        verdict = run_case(_case(), kernel_factories=_overshoot_factories(_case()))
        assert verdict.kind == "divergence"

    def _mutant_then_clean(self):
        verdict = run_case(_case(), kernel_factories=_overshoot_factories(_case()))
        assert verdict.kind == "divergence"
        assert run_case(_case()).kind == "pass"

    def test_mutant_built_after_a_clean_run_gets_its_own_code(self):
        self._clean_then_mutant()

    def test_clean_kernel_built_after_a_mutant_run_gets_its_own_code(self):
        self._mutant_then_clean()

    # SPLICE_COMPILE_CACHE once named an on-disk program cache whose key left
    # out the class that generated a program; with it set, each order above
    # ran the other kernel's program.  Nothing reads or writes it any more.
    @pytest.mark.parametrize("order", ["clean_first", "mutant_first"])
    def test_the_old_cache_variable_changes_neither_order(self, order, monkeypatch, tmp_path):
        monkeypatch.setenv("SPLICE_COMPILE_CACHE", str(tmp_path))
        {"clean_first": self._clean_then_mutant, "mutant_first": self._mutant_then_clean}[order]()
        assert list(tmp_path.iterdir()) == []

    def test_crash_is_contained(self):
        verdict = run_case(
            _case(),
            kernel_factories={"reference": ReferenceSimulator, "crash": CrashingSimulator},
        )
        assert verdict.kind == "crash"
        assert "kernel exploded" in verdict.detail

    def test_verdict_kinds_are_closed(self):
        with pytest.raises(ValueError):
            CaseVerdict(kind="mystery")
        assert "pass" in VERDICT_KINDS


class TestOneGenerationPerCase:
    """A case generates its specification once and elaborates it per kernel."""

    def test_a_case_calls_the_generator_once(self, monkeypatch):
        from repro.core.engine import Splice

        sources = []
        generate = Splice.generate

        def counting(self, source):
            sources.append(source)
            return generate(self, source)

        monkeypatch.setattr(Splice, "generate", counting)
        assert run_case(_case()).ok
        assert sources == [_case().topology.spec_source()]

    def test_each_kernel_gets_its_own_system(self, monkeypatch):
        from repro.fuzz import oracle

        systems = []
        build = oracle.build_system

        def recording(*args, **kwargs):
            systems.append(build(*args, **kwargs))
            return systems[-1]

        monkeypatch.setattr(oracle, "build_system", recording)
        assert run_case(_case()).ok
        assert len(systems) == 3
        # One generation result, three elaborations of it.
        assert len({id(system.generation) for system in systems}) == 1

        def parts(system):
            stubs = [stub for group in system.peripheral.stubs.values() for stub in group]
            drivers = list(system.drivers.drivers.values())
            return [system.peripheral, system.simulator, system.drivers, *stubs, *drivers]

        owned = [{id(part) for part in parts(system)} for system in systems]
        for index, mine in enumerate(owned):
            for theirs in owned[index + 1:]:
                assert not mine & theirs

    def test_a_generator_that_raises_is_the_first_kernels_builder_error(self, monkeypatch):
        from repro.core.engine import Splice

        def exploding(self, source):
            raise RuntimeError("generator exploded")

        monkeypatch.setattr(Splice, "generate", exploding)
        verdict = run_case(_case())
        assert verdict.kind == "builder_error"
        assert verdict.kernel == "reference"
        assert verdict.detail == "RuntimeError: generator exploded"


class TestShrink:
    def test_minimizer_drops_irrelevant_structure(self):
        # The "bug": any case that still calls f2 with a non-empty stream.
        def reproduces(candidate):
            return any(
                call.func == "f2" and call.args and len(call.args[0]) > 0
                for call in candidate.calls
            )

        shrunk, attempts = minimize(_case(), reproduces, max_attempts=200)
        assert reproduces(shrunk)
        assert attempts > 0
        # Everything but one short f2 stream call should be gone.
        assert len(shrunk.calls) == 1
        assert shrunk.calls[0].func == "f2"
        assert len(shrunk.calls[0].args[0]) == 1
        assert len(shrunk.topology.functions) == 1

    def test_minimizer_is_verdict_preserving_and_bounded(self):
        calls = 0

        def never(candidate):
            nonlocal calls
            calls += 1
            return False

        shrunk, attempts = minimize(_case(), never, max_attempts=17)
        assert shrunk == _case()
        assert attempts == calls == 17


class TestSessionContainment:
    """Satellite: crash containment and deterministic budget accounting."""

    def test_builder_error_is_contained_and_session_continues(self):
        def flaky_factories(case):
            # Deterministic per case: roughly a third of builds explode.
            broken = int(case.token, 16) % 3 == 0
            return {
                "reference": ReferenceSimulator,
                "event": _boom_factory if broken else Simulator,
            }

        report = run_session(
            12, 5, corpus_dir=None, kernel_factories=flaky_factories, round_size=4
        )
        kinds = [ce.verdict.kind for ce in report.counterexamples]
        assert "builder_error" in kinds
        # The session absorbed the failures and still spent its whole budget.
        assert report.executed == 12
        assert report.exit_code == 1
        failing = {ce.case.token for ce in report.counterexamples}
        assert set(report.case_tokens) - failing, "session never ran a passing case"

    def test_a_verdict_that_flips_on_replay_is_recorded_unshrunk(
        self, monkeypatch, tmp_path
    ):
        """A case that fails once and passes when Hypothesis replays it is a
        finding as drawn, and the session still spends its whole budget."""
        import repro.fuzz.session as session_mod

        calls = {"n": 0}

        def fails_first_run_only(case, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                return CaseVerdict("crash", "injected")
            return run_case(case, **kwargs)

        monkeypatch.setattr(session_mod, "run_case", fails_first_run_only)
        found = []
        report = run_session(3, 5, corpus_dir=tmp_path, on_finding=found.append)
        assert report.executed == 3
        (finding,) = report.counterexamples
        assert found == [finding]
        assert finding.verdict.kind == "crash"
        assert finding.verdict.detail == "injected (did not reproduce on replay)"
        assert finding.token == report.case_tokens[0]
        assert finding.discovered["shrink_attempts"] == 0
        assert len(report.saved_paths) == 1

    def test_session_is_deterministic(self):
        first = run_session(8, 21, corpus_dir=None, round_size=4)
        second = run_session(8, 21, corpus_dir=None, round_size=4)
        assert first.case_tokens == second.case_tokens
        assert [ce.token for ce in first.counterexamples] == [
            ce.token for ce in second.counterexamples
        ]
        assert first.exit_code == second.exit_code == 0
        # The farm's per-session record carries the digest of that stream.
        payload = session_payload(first)
        assert payload == session_payload(second)
        assert payload["tokens_sha256"] == hashlib.sha256(
            "\n".join(first.case_tokens).encode()
        ).hexdigest()

    def test_case_stream_does_not_depend_on_loaded_modules(self):
        """One session in three fresh processes that imported different parts
        of the package first: one case-token stream.  Hypothesis would
        otherwise mix every loaded module's literals into generation."""
        script = (
            "import hashlib, importlib, sys\n"
            "for name in sys.argv[1:]:\n"
            "    importlib.import_module(name)\n"
            "from repro.fuzz.session import run_session\n"
            "tokens = run_session(30, 7, profile='quick').case_tokens\n"
            "print(len(tokens), hashlib.sha256(' '.join(tokens).encode()).hexdigest())\n"
        )
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen([sys.executable, "-c", script, *imports], env=env, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
            for imports in ((), ("repro.service",), ("repro.cli",))
        ]
        digests = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            digests.append(out.strip())
        assert digests[0].startswith("30 ")
        assert digests == [digests[0]] * 3

    def test_case_stream_does_not_depend_on_earlier_sessions(self):
        """The strategies are built once per process, so no state may leak
        from one session into the next: a quick session run right after a
        deep, faults-on one draws what it draws in a fresh process.

        The deep session (seed 1, budget 10) passes every case in about a
        second; faults-on seeds whose schedules wedge the handshake would
        spend minutes shrinking a legitimate ``crash`` finding instead.
        """
        run_session(10, 1, profile="deep", with_faults=True, corpus_dir=None)
        here = run_session(20, 3, profile="quick", corpus_dir=None)

        script = (
            "import json\n"
            "from repro.fuzz.session import run_session\n"
            "report = run_session(20, 3, profile='quick', corpus_dir=None)\n"
            "print(json.dumps({'case_tokens': report.case_tokens, 'counterexamples':"
            " [ce.describe() for ce in report.counterexamples]}))\n"
        )
        env = dict(os.environ)
        repo_src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        fresh = json.loads(proc.stdout)
        assert len(fresh["case_tokens"]) == 20
        assert fresh == json.loads(json.dumps({
            "case_tokens": here.case_tokens,
            "counterexamples": [ce.describe() for ce in here.counterexamples],
        }))

    def test_generation_pin_fails_loudly_without_the_hypothesis_hook(self, monkeypatch):
        from hypothesis.internal.conjecture import providers

        monkeypatch.delattr(providers, "_get_local_constants")
        with pytest.raises(RuntimeError, match="local-constants hook"):
            run_session(1, 0, corpus_dir=None)


class TestCorpusRoundTrip:
    """Satellite: serialize → replay → identical verdict, per failure kind."""

    def _rig(self, kind):
        base = _case()
        if kind == "divergence":
            return base, _overshoot_factories(base)
        if kind == "monitor_mismatch":
            # A real violation the blinded kernel fails to report.
            case = FuzzCase(
                topology=FuzzTopology(bus="plb", functions=(FuzzFunction("f0", "poke"),)),
                calls=(FuzzCall("f0", (1, 7)), FuzzCall.idle(4)),
                faults="stuck_at_1:DATA_OUT_VALID:5:2",
            )
            return case, {
                "reference": ReferenceSimulator,
                "blind": MonitorBlindSimulator,
            }
        if kind == "leap_miscount":
            return base, {
                "reference": ReferenceSimulator,
                "liar": LyingStatsSimulator,
            }
        if kind == "hang":
            return base, {
                "reference": ReferenceSimulator,
                "wedged": WedgedSimulator,
            }
        assert kind == "builder_error"
        return base, {"reference": ReferenceSimulator, "boom": _boom_factory}

    @pytest.mark.parametrize(
        "kind", ["divergence", "monitor_mismatch", "leap_miscount", "hang", "builder_error"]
    )
    def test_round_trip_reproduces_verdict(self, kind, tmp_path):
        case, factories = self._rig(kind)
        timeout = 0.3 if kind == "hang" else 10.0
        verdict = run_case(case, kernel_factories=factories, timeout_s=timeout)
        assert verdict.kind == kind, verdict

        record = Counterexample(
            case=case, verdict=verdict, discovered={"seed": 0, "synthetic": True}
        )
        path = save_case(record, tmp_path)
        assert path.name == f"{kind}-{case.token}.json"

        loaded = Counterexample.load(path)
        assert loaded.case == case
        assert loaded.verdict == verdict
        replayed = replay_case(path, kernel_factories=factories, timeout_s=timeout)
        assert replayed.kind == kind

    def test_edited_case_with_stale_token_is_rejected(self, tmp_path):
        record = Counterexample(case=_case(), verdict=CaseVerdict("pass"))
        path = save_case(record, tmp_path)
        data = json.loads(path.read_text())
        data["case"]["calls"].pop()  # hand-edit without re-canonicalising
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="token"):
            Counterexample.load(path)


class TestMutationAcceptance:
    """The seeded bug is found, shrunk, saved, and replays clean."""

    def test_session_finds_and_shrinks_the_seeded_bug(self, tmp_path):
        report = run_session(
            6,
            0,
            corpus_dir=tmp_path,
            kernel_factories=_overshoot_factories,
            round_size=3,
            shrink_attempts=40,
            timeout_s=5.0,
        )
        assert report.exit_code == 1
        kinds = {ce.verdict.kind for ce in report.counterexamples}
        assert kinds == {"divergence"}
        # Shrunk hard: the published counterexample is a one- or two-step
        # workload, not the generated original.
        smallest = min(report.counterexamples, key=lambda ce: len(ce.case.calls))
        assert len(smallest.case.calls) <= 2
        # The corpus lifecycle closes: the saved case replays CLEAN on the
        # real kernels (the bug is in the mutant, not the repo).
        saved = corpus_files(tmp_path)
        assert saved
        for path in saved:
            assert replay_case(path).ok

    def test_clean_kernels_survive_a_pinned_session(self):
        """Seed 7, 120 cases on the real kernels: a finding here is a real
        kernel bug or a strategy regression."""
        report = run_session(120, 7, corpus_dir=None)
        assert report.executed == 120
        assert not report.counterexamples, [ce.describe() for ce in report.counterexamples]

    def test_shipped_corpus_found_real_divergences(self):
        """The committed corpus entries reproduce their recorded verdicts
        against the mutation that discovered them."""
        from pathlib import Path

        corpus = Path(__file__).parent / "corpus"
        path = next(p for p in corpus_files(corpus) if p.name.startswith("divergence-"))
        record = Counterexample.load(path)
        verdict = replay_case(record, kernel_factories=_overshoot_factories(record.case))
        assert verdict.kind == "divergence"
