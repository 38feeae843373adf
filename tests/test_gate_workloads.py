"""The timed gates' workloads, checked without a clock.

Each gate in ``benchmarks/`` times two configurations doing the same work
and compares their rates: reference / event / compiled kernels, cycle
leaping on / off, cold / warm service submissions, journalled / plain
farms, a 4-worker farm / the serial executor.  A ratio means something only
if both sides do the same work, so each test here runs a gate's own
workload, at the gate's size, and checks that both sides produce the same
results; the exact assertions a gate makes beside its threshold are made
here as well.  The gates themselves run only in CI, as
``pytest benchmarks -q`` and ``pytest benchmarks -q --smoke``.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.campaign import ScenarioSweep, SerialExecutor, run_campaign, sweep_grid
from repro.devices.interpolator import build_splice_interpolator, interpolate_fixed_point
from repro.devices.timer import build_timer_system
from repro.evaluation.scenarios import scenario
from repro.rtl import KERNELS, kernel_factory
from repro.service import ServiceClient, SimulationFarm, serve_farm_in_thread


def _running_timer(factory, cycles):
    """The timer gates' workload: the Chapter 8 timer enabled with a
    threshold far away, run for ``cycles``.  Returns the simulator and what
    the run left behind: every signal's value, the cycle count and the
    counter as ``get_snapshot`` reads it over the bus."""
    timer = build_timer_system(simulator_factory=factory)
    timer.drivers["set_threshold"](1 << 40)  # effectively never fires
    timer.drivers["enable"]()
    timer.system.run(cycles)
    simulator = timer.system.simulator
    state = {signal.name: signal.value for signal in simulator.signals}
    return simulator, (state, timer.cycles, timer.drivers["get_snapshot"]())


class TestKernelGates:
    """``test_bench_timer.py::test_event_kernel_speedup`` and
    ``test_bench_kernels.py::test_kernel_throughput_matrix``."""

    def test_event_and_reference_kernels_run_the_same_timer(self):
        # 10 paired rounds of 2,000 cycles per kernel.
        _, event = _running_timer(KERNELS["event"], 20_000)
        _, reference = _running_timer(KERNELS["reference"], 20_000)
        assert event == reference

    def test_compiled_and_event_kernels_run_the_same_timer(self):
        _, compiled = _running_timer(KERNELS["compiled"], 20_000)
        _, event = _running_timer(KERNELS["event"], 20_000)
        assert compiled == event

    @pytest.mark.parametrize("bus", ["plb", "fcb", "opb", "apb"])
    def test_every_kernel_repeats_scenario_2_identically(self, bus):
        """Each kernel's device runs scenario 2 again and again without
        recording transactions, as the gate times it; every run must give
        the recording event kernel's result and cycle count."""
        sets = scenario(2).generate_inputs()
        recorded = build_splice_interpolator(f"splice_{bus}").run_scenario(sets)
        assert recorded["result"] == interpolate_fixed_point(*sets) & 0xFFFFFFFF
        expected = (recorded["result"], recorded["cycles"])
        for kernel, repeats in (("reference", 10), ("event", 40), ("compiled", 40)):
            device = build_splice_interpolator(
                f"splice_{bus}", simulator_factory=KERNELS[kernel], record_transactions=False
            )
            for _ in range(1 + repeats):  # the warm-up run, then one round
                outcome = device.run_scenario(sets)
                assert (outcome["result"], outcome["cycles"]) == expected, kernel


class TestIdleGate:
    """``test_bench_idle.py::test_idle_leap_throughput``."""

    @pytest.mark.parametrize(
        "leap, cycles", [(True, 2_000_000), (False, 20_000)], ids=["leap", "no-leap"]
    )
    def test_the_idle_timer_leaps_only_when_leaping_is_on(self, leap, cycles):
        simulator, _ = _running_timer(kernel_factory("compiled", leap=leap), cycles)
        assert simulator.design.leap is leap
        if leap:
            assert simulator.stats.leaped_cycles > cycles // 2
        else:
            assert simulator.stats.leaped_cycles == 0

    def test_the_idle_timer_ends_the_same_with_and_without_leap(self):
        _, leaping = _running_timer(kernel_factory("compiled", leap=True), 20_000)
        _, plain = _running_timer(kernel_factory("compiled", leap=False), 20_000)
        assert leaping == plain

    def test_the_busy_scenario_repeats_identically_with_and_without_leap(self):
        sets = scenario(2).generate_inputs()
        expected = interpolate_fixed_point(*sets) & 0xFFFFFFFF
        outcomes = {}
        for leap in (True, False):
            device = build_splice_interpolator(
                "splice_plb",
                simulator_factory=kernel_factory("compiled", leap=leap),
                record_transactions=False,
            )
            outcomes[leap] = [
                (outcome["result"], outcome["cycles"])
                for outcome in (device.run_scenario(sets) for _ in range(1 + 40))
            ]
        assert outcomes[True] == outcomes[False]
        assert set(outcomes[True]) == {(expected, outcomes[True][0][1])}  # every run alike


_WORKERS = max(2, min(4, os.cpu_count() or 1))
_CELLS_PER_JOB = 8


def _service_specs(count):
    """The service gates' population: ``count`` distinct 8-cell grids."""
    return [
        sweep_grid(
            ScenarioSweep(mode="geometric", count=2, base=(16, 8, 16), max_size=512),
            implementations=("splice_plb",),
            seeds=(seed,),
            repeats=4,
            name=f"bench-svc-{seed}",
        )
        for seed in range(count)
    ]


def _drive(farm, specs):
    """Serve ``farm`` over HTTP and submit every spec from 16 client
    threads; return the final snapshots, one served result and the stats."""
    server, _thread = serve_farm_in_thread(farm)
    client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1], timeout=300)
    try:
        with ThreadPoolExecutor(max_workers=16) as pool:
            finals = list(pool.map(lambda spec: client.submit_and_wait(spec, timeout=300), specs))
        return finals, client.result(finals[0]["id"])["cells"], client.stats()
    finally:
        server.shutdown()
        server.server_close()


class TestServiceGates:
    """``test_bench_service.py``: the cold ÷ warm gate's 192 jobs and the
    journal gate's 96, at the full thresholds' population."""

    @pytest.fixture(scope="class")
    def cold_then_warm(self):
        specs = _service_specs(192)
        with SimulationFarm(workers=_WORKERS, name="gate-farm") as farm:
            cold, served, _ = _drive(farm, specs)
            warm, _, stats = _drive(farm, specs)
        return specs, cold, served, warm, stats

    def test_every_cold_job_finishes_and_matches_the_batch_runner(self, cold_then_warm):
        specs, cold, served, _, _ = cold_then_warm
        assert [final["state"] for final in cold] == ["done"] * len(specs)
        assert served == run_campaign(specs[0]).payload()

    def test_the_warm_resubmission_executes_no_cell(self, cold_then_warm):
        specs, _, _, warm, stats = cold_then_warm
        assert [final["state"] for final in warm] == ["done"] * len(specs)
        assert all(final["cells_cached"] == final["cells_total"] for final in warm)
        assert stats["cells"]["cells_executed"] == len(specs) * _CELLS_PER_JOB

    def test_a_journalled_warm_job_writes_two_durable_records(self, tmp_path):
        specs = _service_specs(96)
        cache_dir = tmp_path / "cache"
        phases = []
        for state_dir in (None, None, tmp_path / "state"):  # prime, plain, journalled
            farm = SimulationFarm(
                workers=_WORKERS, cache=cache_dir, name="gate-journal", state_dir=state_dir
            )
            with farm:
                phases.append(_drive(farm, specs))
        for finals, _, _ in phases:
            assert [final["state"] for final in finals] == ["done"] * len(specs)
        for finals, _, _ in phases[1:]:
            assert all(final["cells_cached"] == final["cells_total"] for final in finals)
        journal_stats = phases[2][2]
        assert journal_stats["journal_records"] >= 2 * len(specs)
        assert journal_stats["durable"] is True


class TestFarmGate:
    """``test_bench_campaign.py::test_sharded_speedup_at_4_workers``, which
    skips below 4 CPUs; its payload check runs on any host."""

    def test_four_workers_match_serial_on_the_80_cell_grid(self):
        spec = sweep_grid(
            ScenarioSweep(mode="geometric", count=4, base=(16, 8, 16), max_size=256),
            seeds=(0, 1),
            repeats=2,
        )  # 5 implementations x 4 scenarios x 2 seeds x 2 repeats
        assert spec.cell_count == 80
        serial = run_campaign(spec, executor=SerialExecutor())
        assert run_campaign(spec, workers=4).payload() == serial.payload()
