"""Tests for the fault-injection subsystem: specs, kernels, matrix, campaign.

The load-bearing property is the one the differential class proves: all
three kernels stay **cycle-exact under injection** — same traces, same
outcomes, same monitor violations — so a fault campaign measures monitor
efficacy, not kernel-scheduling artifacts.  Around that sit the schedule
grammar, the digest-separation guarantees (a cache must never serve a
faulted result as clean), the monitor-efficacy matrix, the campaign fault
axis with its structured error records, and the ``splice faults`` CLI.
"""

import hashlib
import json

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignSpec,
    SerialExecutor,
    cell_digest,
    run_campaign,
)
from repro.devices.interpolator import build_splice_interpolator
from repro.devices.registry import build_runner
from repro.evaluation.scenarios import SCENARIOS
from repro.faults import (
    FAULT_KINDS,
    FaultController,
    FaultSchedule,
    FaultSpec,
    coerce_schedule,
    matrix_to_markdown,
    matrix_to_payload,
    run_fault_matrix,
    sis_targets,
)
from repro.rtl import CompiledSimulator, ReferenceSimulator, Simulator, TraceRecorder


class TestFaultSpec:
    def test_token_round_trip(self):
        spec = FaultSpec("bit_flip", "DATA_IN", 30, duration=1, bit=7)
        assert spec.token == "bit_flip:DATA_IN:30:1:7"
        assert FaultSpec.parse(spec.token) == spec

    def test_shorthand_tokens_default_duration_and_bit(self):
        short = FaultSpec.parse("stuck_at_1:IO_ENABLE:40")
        assert short == FaultSpec("stuck_at_1", "IO_ENABLE", 40, duration=1, bit=None)
        # The canonical token always re-emits the full five-field form.
        assert short.token == "stuck_at_1:IO_ENABLE:40:1:*"
        with_duration = FaultSpec.parse("stuck_at_1:IO_ENABLE:40:3")
        assert with_duration.duration == 3 and with_duration.bit is None

    @pytest.mark.parametrize(
        "token",
        [
            "stuck_at_1:IO_ENABLE",  # too few fields
            "stuck_at_1:IO_ENABLE:40:1:0:9",  # too many fields
            "melting:IO_ENABLE:40",  # unknown class
            "stuck_at_1:MAGIC_WIRE:40",  # unknown target
            "stuck_at_1:IO_ENABLE:-1",  # negative cycle
            "stuck_at_1:IO_ENABLE:40:0",  # zero duration
        ],
    )
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(ValueError):
            FaultSpec.parse(token)

    def test_masks_per_class(self):
        full = (1 << 4) - 1
        assert FaultSpec("stuck_at_0", "FUNC_ID", 0).masks(4) == (0, 0, 0)
        assert FaultSpec("stuck_at_1", "FUNC_ID", 0, bit=2).masks(4) == (full, 4, 0)
        assert FaultSpec("bit_flip", "DATA_IN", 0, bit=3).masks(4) == (full, 0, 8)
        # A whole-signal flip inverts bit 0 by convention.
        assert FaultSpec("bit_flip", "DATA_IN", 0).masks(4) == (full, 0, 1)
        # drop_beat/dup_beat are placements of the low/high primitives.
        assert FaultSpec("drop_beat", "DATA_IN_VALID", 0).masks(1) == (0, 0, 0)
        assert FaultSpec("dup_beat", "IO_ENABLE", 0).masks(1) == (1, 1, 0)

    def test_schedule_is_canonically_ordered(self):
        late = FaultSpec("stuck_at_1", "IO_ENABLE", 50)
        early = FaultSpec("bit_flip", "DATA_IN", 10, bit=0)
        schedule = FaultSchedule.of(late, early)
        assert schedule.specs == (early, late)
        # Construction order never changes the identity.
        other = FaultSchedule.of(early, late)
        assert schedule.token == other.token
        assert schedule.fingerprint == other.fingerprint
        assert FaultSchedule.parse(schedule.token) == schedule

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule(specs=())
        with pytest.raises(ValueError):
            FaultSchedule.parse("  ;  ")

    def test_coerce_schedule_accepts_all_spellings(self):
        spec = FaultSpec("stuck_at_1", "IO_ENABLE", 40)
        schedule = FaultSchedule.of(spec)
        assert coerce_schedule(None) is None
        assert coerce_schedule(schedule) is schedule
        assert coerce_schedule(spec) == schedule
        assert coerce_schedule([spec]) == schedule
        assert coerce_schedule(schedule.token) == schedule
        with pytest.raises(TypeError):
            coerce_schedule(42)


class TestFaultController:
    def _bundle(self, runner):
        return sis_targets(runner.system.peripheral.sis)

    def test_unknown_target_rejected_at_bind_time(self):
        runner = build_runner("splice_plb")
        targets = self._bundle(runner)
        targets.pop("IO_DONE")
        with pytest.raises(ValueError, match="IO_DONE"):
            FaultController("delayed_handshake:IO_DONE:10", targets)

    def test_rebase_arms_the_next_pending_cycle(self):
        runner = build_runner("splice_plb")
        simulator = runner.system.simulator
        controller = FaultController(
            "bit_flip:DATA_IN:5:1:0;stuck_at_1:IO_ENABLE:9", self._bundle(runner)
        )
        controller.rebase(simulator, simulator.cycle)
        assert simulator._next_fault == simulator.cycle + 5
        # Rebasing mid-schedule skips already-passed cycles.
        controller.rebase(simulator, simulator.cycle - 7)
        assert simulator._next_fault == simulator.cycle + 2

    def test_injected_counts_applied_ops(self):
        runner = build_runner("splice_plb")
        runner.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        runner.run_scenario(SCENARIOS[0].generate_inputs(seed=0))
        assert runner.fault_controller.injected == 3

    def test_clearing_faults_detaches_the_controller(self):
        runner = build_runner("splice_plb")
        runner.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        runner.apply_faults(None)
        assert runner.fault_controller is None
        clean = build_runner("splice_plb")
        faulted_then_cleared = runner.run_scenario(SCENARIOS[0].generate_inputs(seed=0))
        assert faulted_then_cleared == clean.run_scenario(
            SCENARIOS[0].generate_inputs(seed=0)
        )
        assert not runner.system.monitor.violations


#: Per-bus fault schedules that perturb a run without deadlocking it —
#: chosen so the differential harness exercises >= 3 fault classes per bus,
#: including cases where the monitor fires (see TestFaultMatrix for the
#: crash/deadlock cases, which the matrix records instead of raising).
_DIFFERENTIAL_CASES = [
    ("plb", "stuck_at_1:IO_ENABLE:40:3"),
    ("plb", "bit_flip:DATA_IN:30:1:7"),
    ("plb", "transient_pulse:DATA_OUT_VALID:25"),
    ("plb", "dup_beat:IO_ENABLE:40:2"),
    ("fcb", "transient_pulse:DATA_OUT_VALID:25"),
    ("fcb", "delayed_handshake:IO_DONE:60:2"),
    ("fcb", "bit_flip:DATA_IN:30:1:7"),
]

_KERNELS = (
    ("reference", ReferenceSimulator),
    ("event", Simulator),
    ("compiled", CompiledSimulator),
)


class TestInjectionIsCycleExact:
    """All three kernels under injection: same traces, outcomes, violations."""

    @pytest.mark.parametrize("bus,token", _DIFFERENTIAL_CASES)
    def test_three_way_differential_under_injection(self, bus, token):
        sets = SCENARIOS[0].generate_inputs(seed=0)
        traces, outcomes, violations, injected = {}, {}, {}, {}
        for label, factory in _KERNELS:
            device = build_splice_interpolator(f"splice_{bus}", simulator_factory=factory)
            simulator = device.system.simulator
            recorder = TraceRecorder(simulator, simulator.signals)
            device.apply_faults(token)
            outcomes[label] = device.run_scenario(sets)
            traces[label] = recorder.trace
            violations[label] = [
                (v.cycle, v.rule, v.detail) for v in device.system.monitor.violations
            ]
            injected[label] = device.fault_controller.injected
        assert injected["reference"] > 0, "the schedule never fired"
        for label, _ in _KERNELS[1:]:
            assert outcomes["reference"] == outcomes[label], label
            assert violations["reference"] == violations[label], label
            assert injected["reference"] == injected[label], label
            assert len(traces["reference"]) == len(traces[label]), label
            for cycle, (ref, got) in enumerate(
                zip(traces["reference"].samples, traces[label].samples)
            ):
                assert ref == got, (
                    f"{label} diverges from reference at cycle {cycle} "
                    f"under {token}: "
                    + ", ".join(
                        f"{n}: ref={ref.get(n)} {label}={got.get(n)}"
                        for n in sorted(set(ref) | set(got))
                        if ref.get(n) != got.get(n)
                    )
                )

    def test_schedule_rebases_per_scenario(self):
        """The same relative schedule faults every scenario identically, no
        matter how many runs the warm system served before."""
        fresh = build_runner("splice_plb", kernel="compiled")
        fresh.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        warm = build_runner("splice_plb", kernel="compiled")
        warm.run_scenario(SCENARIOS[1].generate_inputs(seed=3))  # clean first
        warm.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        sets = SCENARIOS[0].generate_inputs(seed=0)
        assert fresh.run_scenario(sets) == warm.run_scenario(sets)
        assert fresh.fault_controller.injected == warm.fault_controller.injected == 3


class TestCompiledDigestSeparation:
    """The entry-code memo must never serve a faulted program as clean.

    The memo is keyed by the SHA-256 digest of each entry's source, so a
    schedule must show in the source: a faulted design generates the fault
    hook, and clearing its schedule restores the clean source byte for byte.
    """

    def _program(self, runner):
        simulator = runner.system.simulator
        simulator.compile()
        digests = {
            name: hashlib.sha256(text.encode()).digest()
            for name, text in simulator._sources.items()
        }
        return simulator, digests

    def test_fault_schedule_is_part_of_the_program_digest(self):
        clean, clean_digests = self._program(build_runner("splice_plb", kernel="compiled"))
        assert "_fire_faults" not in clean.design.source
        runner = build_runner("splice_plb", kernel="compiled")
        runner.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        faulted, faulted_digests = self._program(runner)
        hooked = [name for name, text in faulted._sources.items() if "_fire_faults" in text]
        assert hooked
        for name in hooked:
            assert faulted_digests[name] != clean_digests[name]
            assert faulted._entries[name].__code__ is not clean._entries[name].__code__
        # The schedule itself is data (``_next_fault``): another schedule
        # runs the same faulted program.
        other = build_runner("splice_plb", kernel="compiled")
        other.apply_faults("bit_flip:DATA_IN:30:1:7")
        assert self._program(other)[1] == faulted_digests

    def test_clean_design_is_byte_identical_with_faults_cleared(self):
        """Attaching then clearing a schedule leaves no residue: the program
        source and digests revert to exactly the clean build's."""
        clean, clean_digests = self._program(build_runner("splice_plb", kernel="compiled"))
        runner = build_runner("splice_plb", kernel="compiled")
        runner.apply_faults("stuck_at_1:IO_ENABLE:40:3")
        runner.apply_faults(None)
        simulator, digests = self._program(runner)
        assert digests == clean_digests
        assert simulator.design.source == clean.design.source
        assert "_fire_faults" not in simulator.design.source


class TestFaultMatrix:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_fault_matrix(
            buses=("splice_plb",),
            kinds=("stuck_at_0", "stuck_at_1", "transient_pulse", "dup_beat"),
        )

    def test_detected_rows_carry_rules_and_latency(self, rows):
        assert [row.kind for row in rows] == [
            "stuck_at_0", "stuck_at_1", "transient_pulse", "dup_beat",
        ]
        for row in rows:
            assert row.status == "detected", f"{row.kind} escaped on splice_plb"
            assert row.rules and row.violations >= 1
            assert row.cycles_to_detection is not None and row.cycles_to_detection >= 0
            # Every schedule token replays bit-exactly.
            assert FaultSchedule.parse(row.schedule).token == row.schedule

    def test_matrix_is_deterministic(self, rows):
        again = run_fault_matrix(
            buses=("splice_plb",),
            kinds=("stuck_at_0", "stuck_at_1", "transient_pulse", "dup_beat"),
        )
        assert [r.payload() for r in again] == [r.payload() for r in rows]

    def test_payload_and_markdown_artifacts(self, rows):
        payload = matrix_to_payload(rows, seed=0, scenario=SCENARIOS[0], kernel="compiled")
        assert payload["summary"]["detected"] == len(rows)
        assert payload["summary"]["escape"] == 0
        assert payload["meta"]["buses"] == ["splice_plb"]
        json.dumps(payload)  # artifact must be JSON-clean
        markdown = matrix_to_markdown(rows)
        assert markdown.count("\n") == len(rows) + 1  # header + rule + rows
        assert "| detected |" in markdown

    def test_crashed_runs_are_findings_not_failures(self):
        """A deadlocking fault (held enable on FCB wedges the handshake)
        yields a structured ``crashed`` row, never an exception."""
        [row] = run_fault_matrix(buses=("splice_fcb",), kinds=("stuck_at_1",))
        assert row.crashed
        assert row.error and "SimulationError" in row.error
        # The monitor caught the stuck strobe before the deadlock: violations
        # logged pre-crash still count toward detection.
        assert row.status == "detected"
        assert "crash" in matrix_to_markdown([row])


_COMPLETING_FAULTS = (None, "transient_pulse:DATA_OUT_VALID:25", "stuck_at_1:IO_ENABLE:40:3")


class TestCampaignFaultAxis:
    def test_faults_axis_multiplies_cells_and_is_canonicalized(self):
        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:2],
            faults=(None, "stuck_at_1:IO_ENABLE:40"),
        )
        # Shorthand tokens canonicalize to the five-field form on the axis.
        assert spec.faults == (None, "stuck_at_1:IO_ENABLE:40:1:*")
        assert spec.cell_count == 2 * 2
        cells = spec.cells()
        assert {cell.faults for cell in cells} == {None, "stuck_at_1:IO_ENABLE:40:1:*"}

    def test_malformed_axis_token_rejected_at_spec_time(self):
        with pytest.raises(ValueError):
            CampaignSpec(
                implementations=("splice_plb",),
                scenarios=SCENARIOS[:1],
                faults=("definitely:not:a:fault:token",),
            )

    def test_clean_identity_is_unchanged_by_the_axis(self):
        """Pre-fault-axis digests and payloads must not shift: a clean cell
        describes, keys, and digests identically to one from a spec that
        never mentions faults."""
        legacy = CampaignCell("splice_plb", SCENARIOS[0], seed=0, repeat=0)
        via_axis = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:1]
        ).cells()[0]
        assert via_axis.faults is None
        assert via_axis.key == legacy.key
        assert "faults" not in via_axis.describe()
        assert cell_digest(via_axis) == cell_digest(legacy)

    def test_faulted_cells_digest_separately(self):
        clean = CampaignCell("splice_plb", SCENARIOS[0], seed=0, repeat=0)
        faulted = CampaignCell(
            "splice_plb", SCENARIOS[0], seed=0, repeat=0,
            faults="stuck_at_1:IO_ENABLE:40:1:*",
        )
        assert clean.key != faulted.key
        assert faulted.describe()["faults"] == "stuck_at_1:IO_ENABLE:40:1:*"
        assert cell_digest(clean) != cell_digest(faulted)

    def test_spec_round_trips_with_faults(self):
        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:1],
            faults=_COMPLETING_FAULTS,
        )
        clone = CampaignSpec.from_dict(spec.describe())
        assert clone == spec
        # A fault-free spec's description stays byte-compatible with old specs.
        clean = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1])
        assert "faults" not in clean.describe()
        assert CampaignSpec.from_dict(clean.describe()) == clean

    def test_serial_and_sharded_agree_under_injection(self, tmp_path):
        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:2],
            faults=_COMPLETING_FAULTS,
            kernel="compiled",
            name="fault-axis",
        )
        serial = run_campaign(spec, executor=SerialExecutor())
        sharded = run_campaign(spec, workers=2)
        assert serial.payload() == sharded.payload()
        assert all(cell.error is None for cell in serial.cells)
        # Faulted rows carry their schedule token through the artifacts;
        # clean rows omit the key (byte-compatible with pre-fault payloads).
        payload = serial.payload()
        assert sum(1 for row in payload if row.get("faults")) == 2 * 2
        assert "faults" in serial.to_csv().splitlines()[0]

    def test_faulted_outcomes_cache_separately_from_clean(self, tmp_path):
        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:1],
            faults=(None, "transient_pulse:DATA_OUT_VALID:25:1:*"),
            kernel="compiled",
            name="fault-cache",
        )
        cold = run_campaign(spec, cache=tmp_path / "cache")
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert cold.meta["cells_cached"] == 0
        assert warm.meta["cells_cached"] == spec.cell_count == 2
        assert warm.payload() == cold.payload()

    def test_deadlocking_fault_yields_cell_exception_not_a_crash(self, tmp_path):
        """A schedule that wedges the handshake becomes a structured
        ``cell_exception`` record; the clean cells of the same grid survive,
        and the error is never cached (a warm rerun re-attempts it)."""
        spec = CampaignSpec(
            implementations=("splice_fcb",),
            scenarios=SCENARIOS[:1],
            faults=(None, "stuck_at_1:IO_ENABLE:40:3:*"),
            kernel="compiled",
            name="fault-deadlock",
        )
        result = run_campaign(spec, cache=tmp_path / "cache")
        by_faults = {cell.cell.faults: cell for cell in result.cells}
        assert by_faults[None].error is None
        errored = by_faults["stuck_at_1:IO_ENABLE:40:3:*"]
        assert errored.error is not None
        assert "cell_exception" in errored.error
        assert "stuck_at_1:IO_ENABLE:40:3:*" in errored.error
        assert result.meta["cells_failed"] == 1
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert warm.meta["cells_cached"] == 1  # the clean cell only
        assert warm.meta["cells_failed"] == 1

    def test_runner_without_fault_support_yields_structured_error(self):
        """The hand-written baseline adapters don't expose ``apply_faults``;
        asking them to inject must produce ``faults_unsupported`` records,
        not silently-clean results."""
        spec = CampaignSpec(
            implementations=("simple_plb", "splice_plb"),
            scenarios=SCENARIOS[:1],
            faults=("stuck_at_1:IO_ENABLE:40:3:*",),
            name="fault-unsupported",
        )
        result = run_campaign(spec)
        by_label = {cell.cell.label: cell for cell in result.cells}
        assert by_label["splice_plb"].error is None
        assert "faults_unsupported" in by_label["simple_plb"].error

    def test_error_rows_identical_serial_sharded_served(self, tmp_path):
        """A failed cell's row depends only on the cell: the serial run (the
        faulted FCB cell after its clean sibling on one runner), a
        multi-worker run (its ephemeral farm's own cache) and a job on a
        farm with another cache agree."""
        from repro.service import SimulationFarm

        spec = CampaignSpec(
            implementations=("simple_plb", "splice_plb", "splice_fcb"),
            scenarios=SCENARIOS[:1],
            faults=(None, "stuck_at_1:IO_ENABLE:40:3:*"),
            kernel="compiled",
            name="fault-error-rows",
        )
        serial = run_campaign(spec, executor=SerialExecutor()).payload()
        sharded = run_campaign(spec, workers=2).payload()
        with SimulationFarm(workers=2, cache=tmp_path / "cache") as farm:
            job = farm.submit(spec)
            job.wait(timeout=120)
            served = job.result().payload()
        errors = {row["label"]: row["error"] for row in serial if "error" in row}
        assert errors["simple_plb"].startswith("faults_unsupported: runner 'simple_plb'")
        assert errors["splice_fcb"].startswith(
            "cell_exception: fault schedule 'stuck_at_1:IO_ENABLE:40:3:*': SimulationError"
        )
        assert sharded == serial
        assert served == serial

    def test_executor_reapplies_schedules_on_a_shared_runner(self):
        """Serial execution reuses one warm runner per label: interleaved
        clean and faulted cells must each see their own schedule state."""
        from repro.campaign.executor import execute_cells

        spec = CampaignSpec(
            implementations=("splice_plb",),
            scenarios=SCENARIOS[:1],
            faults=(None, "stuck_at_1:IO_ENABLE:40:3:*"),
        )
        cells = spec.cells()
        outcomes = execute_cells(cells)
        clean_alone = execute_cells(
            CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1]).cells()
        )
        clean_key = next(cell.key for cell in cells if cell.faults is None)
        assert outcomes[clean_key] == next(iter(clean_alone.values()))


class TestFaultsCLI:
    def test_faults_run_writes_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "faults", "run",
            "--buses", "splice_plb",
            "--classes", "stuck_at_0", "stuck_at_1",
            "--artifacts", str(tmp_path / "out"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "| bus | fault class |" in out
        assert "detected" in out
        assert "findings, not failures" in out
        data = json.loads((tmp_path / "out" / "faults.json").read_text())
        assert data["summary"]["detected"] == 2
        assert (tmp_path / "out" / "faults.md").read_text().startswith("| bus |")

    def test_faults_run_rejects_unknown_class_and_scenario(self, capsys):
        from repro.cli import main

        assert main(["faults", "run", "--classes", "gamma_ray"]) == 2
        assert "unknown fault class" in capsys.readouterr().err
        assert main(["faults", "run", "--scenario", "99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_campaign_run_accepts_a_faults_axis(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "run",
            "--implementations", "splice_plb",
            "--sweep", "degenerate", "--sweep-count", "2",
            "--faults", "none", "transient_pulse:DATA_OUT_VALID:25",
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert rc == 0
        capsys.readouterr()
        data = json.loads((tmp_path / "artifacts" / "campaign.json").read_text())
        assert data["spec"]["faults"] == [None, "transient_pulse:DATA_OUT_VALID:25:1:*"]
        faulted = [row for row in data["cells"] if row.get("faults")]
        assert len(faulted) == 2
        assert all(row.get("error") is None for row in data["cells"])
