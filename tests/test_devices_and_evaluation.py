"""Tests for the example devices, baselines, resource model and evaluation harness."""

import pytest

from repro.core.syntax.errors import SpliceGenerationError
from repro.devices.baselines import (
    build_naive_plb_system,
    build_optimized_fcb_system,
    naive_plb_resource_ir,
    optimized_fcb_resource_ir,
)
from repro.devices.interpolator import (
    CALCULATION_LATENCY,
    build_splice_interpolator,
    interpolate_fixed_point,
)
from repro.devices.timer import STATUS_ENABLED_BIT, STATUS_FIRED_BIT, build_timer_system
from repro.evaluation.experiments import (
    IMPLEMENTATIONS,
    cycle_ratio_summary,
    resource_ratio_summary,
    run_cycles_experiment,
    run_resource_experiment,
)
from repro.evaluation.report import cycles_report, format_table, ratio_report, resources_report, scenario_report
from repro.evaluation.scenarios import SCENARIOS, scenario, scenario_table
from repro.resources.estimator import estimate_entities, estimate_entity
from repro.rtl import CompiledSimulator
from repro.soc.system import build_system


class TestTimerDevice:
    def test_threshold_round_trip(self):
        timer = build_timer_system()
        drivers = timer.drivers
        drivers["set_threshold"](5_000)
        assert drivers["get_threshold"]() == 5_000
        assert timer.core.threshold == 5_000

    def test_timer_fires_after_threshold_cycles(self):
        timer = build_timer_system()
        drivers = timer.drivers
        drivers["disable"]()
        drivers["set_threshold"](200)
        drivers["enable"]()
        status = drivers["get_status"]()
        assert status & (1 << STATUS_ENABLED_BIT)
        timer.system.run(400)  # let the counter pass the threshold
        status = drivers["get_status"]()
        assert status & (1 << STATUS_FIRED_BIT)
        # Reading the status clears the fired bit (Figure 8.8 semantics).
        assert not drivers["get_status"]() & (1 << STATUS_FIRED_BIT)

    def test_snapshot_increases_while_enabled(self):
        timer = build_timer_system()
        drivers = timer.drivers
        drivers["set_threshold"](1_000_000)
        drivers["enable"]()
        first = drivers["get_snapshot"]()
        timer.system.run(100)
        second = drivers["get_snapshot"]()
        assert second > first
        assert all(call.cycles > 0 for call in drivers["get_snapshot"].calls)

    def test_disable_pauses_counting(self):
        timer = build_timer_system()
        drivers = timer.drivers
        drivers["set_threshold"](1_000_000)
        drivers["enable"]()
        timer.system.run(50)
        drivers["disable"]()
        frozen = drivers["get_snapshot"]()
        timer.system.run(50)
        assert drivers["get_snapshot"]() == frozen

    def test_get_clock_reports_bus_clock(self):
        timer = build_timer_system(clock_rate_hz=50_000_000)
        assert timer.drivers["get_clock"]() == 50_000_000

    def test_generated_files_match_figure_8_3(self):
        timer = build_timer_system()
        listing = timer.system.generation.hardware_file_listing()
        assert len(listing) == 9  # interface + arbiter + 7 stubs
        for expected in ("plb_interface.vhd", "user_hw_timer.vhd", "func_enable.vhd",
                         "func_get_snapshot.vhd"):
            assert expected in listing


class TestInterpolator:
    def test_fixed_point_function_is_deterministic(self):
        sets = ([0, 100], [10, 20], [50, 75])
        assert interpolate_fixed_point(*sets) == interpolate_fixed_point(*sets)

    def test_interpolation_between_samples(self):
        result = interpolate_fixed_point([0, 100], [0, 100], [50])
        assert result == 50 << 16  # halfway between 0 and 100 in 16.16 fixed point

    @pytest.mark.parametrize("number", [1, 2, 3, 4])
    @pytest.mark.parametrize("bus", ["plb", "opb", "fcb", "apb"])
    def test_splice_implementations_agree_with_reference(self, bus, number):
        """Figure 9.1 scenario diversity: all four buses x all four scenarios."""
        device = build_splice_interpolator(f"splice_{bus}")
        sets = scenario(number).generate_inputs()
        outcome = device.run_scenario(sets)
        assert outcome["result"] == interpolate_fixed_point(*sets) & 0xFFFFFFFF
        assert outcome["cycles"] > CALCULATION_LATENCY

    @pytest.mark.parametrize("number", [1, 4])
    def test_dma_implementation_agrees_with_reference(self, number):
        device = build_splice_interpolator("splice_plb_dma")
        sets = scenario(number).generate_inputs()
        outcome = device.run_scenario(sets)
        assert outcome["result"] == interpolate_fixed_point(*sets) & 0xFFFFFFFF

    def test_scenario_cycles_grow_with_size_on_every_bus(self):
        """Each bus sees monotonically growing cost across Figure 9.1 scenarios."""
        for bus in ("plb", "opb", "fcb", "apb"):
            device = build_splice_interpolator(f"splice_{bus}")
            cycles = [
                device.run_scenario(scenario(n).generate_inputs())["cycles"]
                for n in (1, 2, 3, 4)
            ]
            assert cycles == sorted(cycles), f"{bus}: {cycles}"

    @pytest.mark.parametrize("kind", ["splice_plb", "splice_fcb", "splice_plb_dma"])
    def test_count_beyond_its_char_parameter_is_rejected(self, kind):
        """``char n1`` holds at most 255: a 256-element set must be refused
        before the bus moves, not sent with a count that wraps to 0."""
        device = build_splice_interpolator(kind, simulator_factory=CompiledSimulator)
        simulator = device.system.simulator
        start = simulator.cycle
        with pytest.raises(SpliceGenerationError, match=r"'n1' \(char\) holds at most 255, got 256"):
            device.run_scenario((list(range(256)), [1], [2]))
        assert simulator.cycle == start
        sets = (list(range(255)), [1], [2])
        assert device.run_scenario(sets)["result"] == interpolate_fixed_point(*sets)

    def test_baselines_agree_with_reference(self):
        sets = scenario(1).generate_inputs()
        expected = interpolate_fixed_point(*sets) & 0xFFFFFFFF
        assert build_naive_plb_system().run_scenario(sets)["result"] == expected
        assert build_optimized_fcb_system().run_scenario(sets)["result"] == expected

    def test_baseline_systems_can_run_repeatedly(self):
        system = build_naive_plb_system()
        first = system.run_scenario(scenario(1).generate_inputs())
        second = system.run_scenario(scenario(1).generate_inputs())
        assert first["result"] == second["result"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            build_splice_interpolator("splice_wishbone")


class TestScenarios:
    def test_figure_9_1_counts(self):
        # Note: Figure 9.1 lists scenario 3 as (8, 3, 6) with a printed total
        # of 16; the set sizes themselves sum to 17, and we keep the set
        # sizes (the totals for the other scenarios match exactly).
        rows = scenario_table()
        assert [(r["set1"], r["set2"], r["set3"]) for r in rows] == [
            (2, 1, 2), (4, 2, 4), (8, 3, 6), (16, 4, 8),
        ]
        assert [r["total"] for r in rows] == [5, 10, 17, 28]
        assert rows[2] == {"scenario": 3, "set1": 8, "set2": 3, "set3": 6, "total": 17}

    def test_generated_inputs_match_counts_and_are_deterministic(self):
        for s in SCENARIOS:
            a = s.generate_inputs(seed=1)
            b = s.generate_inputs(seed=1)
            assert a == b
            assert [len(x) for x in a] == [s.set1, s.set2, s.set3]

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            scenario(9)


class TestResources:
    def test_entity_estimate_scales_with_structure(self):
        small = estimate_entity(optimized_fcb_resource_ir())
        large = estimate_entity(naive_plb_resource_ir())
        assert large.flip_flops > small.flip_flops
        assert large.slices > 0 and small.slices > 0

    def test_reports_compose(self):
        combined = estimate_entities([naive_plb_resource_ir(), optimized_fcb_resource_ir()], label="both")
        assert combined.luts == pytest.approx(
            estimate_entity(naive_plb_resource_ir()).luts + estimate_entity(optimized_fcb_resource_ir()).luts
        )
        assert combined.label == "both"
        assert "registers" in combined.breakdown


class TestEvaluation:
    @pytest.fixture(scope="class")
    def cycles(self):
        return run_cycles_experiment()

    @pytest.fixture(scope="class")
    def resources(self):
        return run_resource_experiment()

    def test_every_implementation_and_scenario_is_measured(self, cycles):
        assert set(cycles) == set(IMPLEMENTATIONS)
        for per_scenario in cycles.values():
            assert set(per_scenario) == {1, 2, 3, 4}
            assert all(v > 0 for v in per_scenario.values())

    def test_cycles_grow_with_scenario_size(self, cycles):
        for label in ("simple_plb", "splice_plb", "splice_fcb", "optimized_fcb"):
            values = [cycles[label][n] for n in (1, 2, 3, 4)]
            assert values == sorted(values)

    def test_figure_9_2_ordering(self, cycles):
        """Who wins, per the paper: naive slowest, optimized FCB fastest."""
        for n in (1, 2, 3, 4):
            assert cycles["splice_plb"][n] < cycles["simple_plb"][n]
            assert cycles["splice_fcb"][n] < cycles["splice_plb"][n]
            assert cycles["optimized_fcb"][n] <= cycles["splice_fcb"][n]

    def test_section_9_3_1_ratios_roughly_match_paper(self, cycles):
        ratios = cycle_ratio_summary(cycles)
        assert 0.15 <= ratios["splice_plb_vs_naive"] <= 0.40        # paper: ~25%
        assert 0.30 <= ratios["splice_fcb_vs_naive"] <= 0.60        # paper: ~43%
        assert 0.02 <= ratios["splice_fcb_vs_optimized"] <= 0.30    # paper: ~13% slower
        assert -0.10 <= ratios["dma_gain_vs_splice_plb"] <= 0.15    # paper: 1-4%

    def test_dma_crossover_with_transfer_size(self, cycles):
        """DMA hurts the small scenario and helps the large one (Section 9.2.1)."""
        assert cycles["splice_plb_dma"][1] > cycles["splice_plb"][1]
        assert cycles["splice_plb_dma"][4] < cycles["splice_plb"][4]

    def test_figure_9_3_ordering(self, resources):
        slices = {label: resources[label].slices for label in IMPLEMENTATIONS}
        assert all(v > 0 for v in slices.values())
        assert slices["splice_plb"] < slices["simple_plb"]
        assert slices["splice_fcb"] < slices["simple_plb"]
        assert slices["splice_plb_dma"] > slices["splice_plb"]

    def test_section_9_3_2_ratios_roughly_match_paper(self, resources):
        ratios = resource_ratio_summary(resources)
        assert 0.10 <= ratios["splice_plb_vs_naive"] <= 0.45        # paper: ~23%
        assert 0.10 <= ratios["splice_fcb_vs_naive"] <= 0.45        # paper: ~28%
        assert -0.15 <= ratios["splice_fcb_vs_optimized"] <= 0.15   # paper: ~2%
        assert 0.40 <= ratios["dma_overhead_vs_splice_plb"] <= 0.80  # paper: 57-69%

    def test_reports_render(self, cycles, resources):
        assert "Scenario" in scenario_report(scenario_table())
        assert "Scenario 4" in cycles_report(cycles)
        assert "Slices" in resources_report(resources)
        assert "%" in ratio_report(cycle_ratio_summary(cycles), "ratios")
        assert "a" in format_table(["a"], [["1"]])


class TestAblations:
    """Design choices measured in cycles on the simulated SoC: packing, FCB
    bursts, and the cost of the generated SIS path over a hand-coded slave."""

    BASE_PLB = "%device_name dev\n%bus_type plb\n%bus_width 32\n%base_address 0x80000000\n"

    @staticmethod
    def _cycles(system, func, *args):
        driver = system.drivers[func]
        driver(*args)
        return driver.last_call.cycles

    def test_data_packing(self):
        """Packing 16 chars (4 per beat) versus one char per beat."""
        packed = build_system(self.BASE_PLB + "void sink(char*:16+ xs);\n")
        unpacked = build_system(self.BASE_PLB + "void sink(char*:16 xs);\n")
        data = list(range(16))
        assert self._cycles(packed, "sink", data) < self._cycles(unpacked, "sink", data)

    def test_fcb_bursts(self):
        """FCB quad-word bursts versus the same payload on the simple OPB."""
        fcb = build_system(
            "%device_name dev\n%bus_type fcb\n%bus_width 32\n%burst_support true\n"
            "void sink(int*:12 xs);\n"
        )
        opb = build_system(
            "%device_name dev\n%bus_type opb\n%bus_width 32\n%base_address 0x80000000\n"
            "void sink(int*:12 xs);\n"
        )
        data = list(range(12))
        assert self._cycles(fcb, "sink", data) < self._cycles(opb, "sink", data)

    def test_sis_indirection_overhead(self):
        """Cycle overhead of the generated SIS path versus a raw hand-coded slave."""
        sets = scenario(2).generate_inputs()
        splice_fcb = build_splice_interpolator("splice_fcb").run_scenario(sets)["cycles"]
        handcoded = build_optimized_fcb_system().run_scenario(sets)["cycles"]
        overhead_percent = 100.0 * (splice_fcb / handcoded - 1.0)
        assert 0.0 <= overhead_percent <= 35.0
