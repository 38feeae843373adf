"""Tests for the campaign subsystem: specs, sweeps, executors, cache, CLI."""

import json
import multiprocessing
import os
import re
import sqlite3
import tempfile
import threading
import time
from contextlib import closing

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignResult,
    CampaignSpec,
    ResultCache,
    ScenarioSweep,
    SerialExecutor,
    cell_digest,
    paper_grid,
    run_campaign,
    sweep_grid,
)
from repro.campaign.cache import DAMAGED_FILENAME, STORE_FILENAME
from repro.campaign.executor import execute_cells
from repro.devices.registry import build_runner, known_labels, register_runner
from repro.evaluation.scenarios import SCENARIOS, Scenario, scenario


class TestSpec:
    def test_cell_count_and_order_are_deterministic(self):
        spec = CampaignSpec(
            implementations=("splice_plb", "splice_fcb"),
            scenarios=SCENARIOS[:2],
            seeds=(0, 7),
            repeats=2,
        )
        cells = spec.cells()
        assert len(cells) == spec.cell_count == 2 * 2 * 2 * 2
        assert cells == spec.cells()
        assert cells[0].label == "splice_plb"

    def test_repeats_vary_the_effective_seed(self):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1], repeats=3, seeds=(5,))
        cells = spec.cells()
        assert cells[0].effective_seed == 5  # repeat 0 == the plain seed
        assert len({cell.effective_seed for cell in cells}) == 3
        inputs = [cell.generate_inputs() for cell in cells]
        assert inputs[0] != inputs[1] != inputs[2]

    def test_mixed_seed_repeat_grids_never_alias_inputs(self):
        """seed=0/repeat=1 must not draw the same data as seed=1/repeat=0."""
        spec = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:1], seeds=(0, 1, 2), repeats=3
        )
        seeds = [cell.effective_seed for cell in spec.cells()]
        assert len(set(seeds)) == len(seeds)

    def test_round_trips_through_dict(self):
        spec = sweep_grid(ScenarioSweep(mode="geometric", count=3), seeds=(1, 2), repeats=2)
        clone = CampaignSpec.from_dict(spec.describe())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignSpec(implementations=(), scenarios=SCENARIOS)
        with pytest.raises(ValueError):
            CampaignSpec(implementations=("splice_plb",), scenarios=())
        with pytest.raises(ValueError):
            CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS, repeats=0)
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            CampaignSpec(implementations=("splice_plb",), kernel="vectorized")


class TestKernelSelection:
    def test_kernel_is_part_of_cell_identity_and_digest(self):
        spec_event = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1])
        spec_compiled = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:1], kernel="compiled"
        )
        event_cell = spec_event.cells()[0]
        compiled_cell = spec_compiled.cells()[0]
        assert event_cell.kernel == "event"
        assert compiled_cell.kernel == "compiled"
        assert event_cell.key != compiled_cell.key
        assert event_cell.describe()["kernel"] == "event"
        # The cache must never serve one kernel's outcome for another.
        assert cell_digest(event_cell) != cell_digest(compiled_cell)
        # Kernel survives the spec round trip.
        assert CampaignSpec.from_dict(spec_compiled.describe()).kernel == "compiled"

    def test_compiled_kernel_campaign_is_bit_identical_to_event(self):
        """The paper grid yields byte-for-byte equal outcomes on both
        scheduling kernels — the campaign-level cycle-exactness proof."""
        event = run_campaign(paper_grid())
        compiled = run_campaign(paper_grid(kernel="compiled"))

        def rows(result):
            return [
                {k: v for k, v in row.items() if k != "kernel"}
                for row in result.payload()
            ]

        assert rows(event) == rows(compiled)
        assert all(compiled.agreement().values())


class TestSweep:
    def test_linear_growth(self):
        rows = ScenarioSweep(mode="linear", count=3, base=(2, 1, 2)).scenarios()
        assert [(s.set1, s.set2, s.set3) for s in rows] == [(2, 1, 2), (4, 2, 4), (6, 3, 6)]
        assert [s.number for s in rows] == [101, 102, 103]

    def test_geometric_growth(self):
        rows = ScenarioSweep(mode="geometric", count=3, base=(4, 2, 4), ratio=2.0, max_size=256).scenarios()
        assert [s.set1 for s in rows] == [4, 8, 16]

    def test_random_is_deterministic_per_seed(self):
        a = ScenarioSweep(mode="random", count=5, seed=3).scenarios()
        b = ScenarioSweep(mode="random", count=5, seed=3).scenarios()
        c = ScenarioSweep(mode="random", count=5, seed=4).scenarios()
        assert a == b
        assert a != c

    def test_random_is_bit_identical_across_platforms(self):
        """Randomized rows come from random.Random(seed), whose bit stream is
        part of the Python language contract — so these exact sizes must
        reproduce on any platform, Python version, and worker process."""
        rows = ScenarioSweep(mode="random", count=3, seed=0).scenarios()
        assert [(s.set1, s.set2, s.set3) for s in rows] == [
            (49, 53, 5), (33, 62, 51), (38, 61, 45)]

    def test_fuzzed_is_deterministic_and_covers_families(self):
        rows = ScenarioSweep(mode="fuzzed", count=10, seed=1).scenarios()
        again = ScenarioSweep(mode="fuzzed", count=10, seed=1).scenarios()
        assert rows == again
        sizes = [(s.set1, s.set2, s.set3) for s in rows]
        # One row per family per 5 steps: empty-ish, skew, burst±1, uniform,
        # saturated (the max-size row is the family fingerprint).
        assert (64, 64, 64) in sizes
        assert any(a == 0 and b == 0 for a, b, _ in sizes)

    def test_burst_rows_are_quad_aligned(self):
        for s in ScenarioSweep(mode="burst", count=4).scenarios():
            assert s.set1 % 4 == 0 and s.set3 % 4 == 0
            assert s.set2 == 1

    def test_degenerate_includes_fully_empty_row(self):
        rows = ScenarioSweep(mode="degenerate", count=6).scenarios()
        assert (rows[0].set1, rows[0].set2, rows[0].set3) == (0, 0, 0)
        assert any(s.set1 == 0 for s in rows[1:])

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSweep(mode="fibonacci")

    def test_sweep_scenarios_round_trip_generate_inputs(self):
        """Sweep rows generate deterministic inputs with the declared sizes."""
        for mode in ("linear", "geometric", "random", "burst", "degenerate", "fuzzed"):
            for s in ScenarioSweep(mode=mode, count=4, seed=9).scenarios():
                first = s.generate_inputs(seed=2)
                second = s.generate_inputs(seed=2)
                assert first == second
                assert [len(part) for part in first] == [s.set1, s.set2, s.set3]


class TestScenarioEdgeCases:
    def test_scenario_5_raises_key_error(self):
        with pytest.raises(KeyError):
            scenario(5)

    def test_zero_size_scenario_generates_valid_empty_inputs(self):
        empty = Scenario(number=900, set1=0, set2=0, set3=0)
        sets = empty.generate_inputs(seed=0)
        assert sets == ([], [], [])

    def test_inputs_equal_the_numpy_array_reference(self):
        """Every Figure 9.1 row, geometric rows up to 255 and the empty-set
        rows generate what the array-based reference below generates, as
        plain ints, so the cell digests built from them are unchanged."""
        import numpy as np

        def reference(self, seed=0):
            rng = np.random.default_rng(self.number * 1000 + seed)
            set1 = np.sort(rng.integers(0, 1 << 16, size=self.set1)).astype(np.int64)
            set2 = rng.integers(0, 1 << 12, size=self.set2).astype(np.int64)
            lo = int(set1.min()) if self.set1 else 0
            hi = int(set1.max()) if self.set1 else 1
            set3 = rng.integers(lo, max(hi, lo + 1), size=self.set3).astype(np.int64)
            return [int(v) for v in set1], [int(v) for v in set2], [int(v) for v in set3]

        geometric = ScenarioSweep(mode="geometric", count=9, base=(1, 1, 1),
                                  max_size=255).scenarios()
        assert max(row.set1 for row in geometric) == 255
        rows = (*SCENARIOS, *geometric,
                *ScenarioSweep(mode="degenerate", count=6).scenarios())
        for row in rows:
            for seed in range(100):
                sets = row.generate_inputs(seed=seed)
                assert sets == reference(row, seed), (row, seed)
                assert all(type(value) is int for part in sets for value in part)

    @pytest.mark.parametrize("label", ["splice_plb", "splice_fcb", "simple_plb", "optimized_fcb"])
    def test_empty_sets_run_end_to_end(self, label):
        from repro.devices.interpolator import interpolate_fixed_point

        runner = build_runner(label)
        outcome = runner.run_scenario(([], [], []))
        assert outcome["result"] == interpolate_fixed_point([], [], []) & 0xFFFFFFFF
        assert outcome["cycles"] > 0


class TestRegistry:
    def test_known_labels_cover_the_paper(self):
        labels = known_labels()
        for expected in ("simple_plb", "optimized_fcb", "splice_plb", "splice_plb_dma", "splice_fcb"):
            assert expected in labels

    def test_unknown_label_rejected(self):
        with pytest.raises(KeyError):
            build_runner("vaporware_bus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_runner("splice_plb", lambda: None)


class TestExecutors:
    @pytest.fixture(scope="class")
    def grid(self):
        return paper_grid()

    @pytest.fixture(scope="class")
    def serial_result(self, grid):
        return run_campaign(grid, executor=SerialExecutor())

    def test_sharded_is_bit_identical_to_serial_on_the_paper_grid(self, grid, serial_result):
        sharded = run_campaign(grid, workers=2)
        assert sharded.payload() == serial_result.payload()

    def test_executor_matches_legacy_experiment_table(self, serial_result):
        from repro.evaluation.experiments import run_cycles_experiment

        assert serial_result.cycles_table() == run_cycles_experiment()

    def test_all_implementations_agree_everywhere(self, serial_result):
        assert all(serial_result.agreement().values())


_fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="runtime-registered runners only reach workers under fork",
)


class _Exiting:
    """Kills its whole worker process mid-shard (not an exception)."""

    def run_scenario(self, sets):
        os._exit(3)


class _Exploding:
    """A clean cell whose simulation raises."""

    def run_scenario(self, sets):
        raise RuntimeError("boom")


class _Wedged:
    """Goes silent far past any test watchdog, then returns an outcome."""

    def run_scenario(self, sets):
        time.sleep(30)
        return {"result": 1, "cycles": 1, "transactions": 0}


def _by_label(result):
    rows = {}
    for cell in result.cells:
        rows.setdefault(cell.cell.label, []).append(cell)
    return rows


def _tiny_grid(scenarios=3):
    return CampaignSpec(
        implementations=("splice_plb",), scenarios=SCENARIOS[:scenarios], name="tiny"
    )


class TestWorkerCounts:
    """How ``run_campaign`` resolves ``workers``: one runs in this process,
    more run on a farm started for the run."""

    def test_one_means_serial(self):
        meta = run_campaign(_tiny_grid(), workers=1).meta
        assert (meta["executor"], meta["workers"]) == ("serial", 1)

    def test_many_means_a_farm(self):
        meta = run_campaign(_tiny_grid(), workers=3).meta
        assert (meta["executor"], meta["workers"]) == ("farm", 3)

    def test_zero_means_one_worker_per_cpu(self):
        cpus = os.cpu_count() or 1
        meta = run_campaign(_tiny_grid(), workers=0).meta
        assert meta["workers"] == cpus
        assert meta["executor"] == ("serial" if cpus <= 1 else "farm")

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(_tiny_grid(), workers=-2)

    def test_one_rule_for_every_worker_count(self, tmp_path):
        """Batch runs and the service resolve worker counts with the same
        function, so a negative count is rejected everywhere."""
        from repro import service
        from repro.campaign.executor import resolve_workers

        assert service.resolve_workers is resolve_workers
        farm = service.SimulationFarm(workers=0, cache=tmp_path)
        farm.cache.close()
        assert farm.worker_count == resolve_workers(0)
        with pytest.raises(ValueError):
            service.SimulationFarm(workers=-3, cache=tmp_path)

    def test_farm_never_gets_more_workers_than_cells(self, monkeypatch):
        from repro.service import farm as farm_mod

        started = []

        class Recording(farm_mod.SimulationFarm):
            def start(self):
                started.append(self.worker_count)
                return super().start()

        monkeypatch.setattr(farm_mod, "SimulationFarm", Recording)
        result = run_campaign(_tiny_grid(3), workers=8)
        assert started == [3]
        assert result.meta["executor"] == "farm"

    def test_every_farm_worker_gets_a_shard(self, monkeypatch):
        """Shards shrink so that each worker the farm starts has one: nine
        cells at eight workers run as five shards on five workers."""
        from repro.service import farm as farm_mod

        dispatched = []

        class Recording(farm_mod.SimulationFarm):
            def stop(self):
                dispatched.append([w.dispatched for w in self._workers])
                super().stop()

        monkeypatch.setattr(farm_mod, "SimulationFarm", Recording)
        spec = CampaignSpec(
            implementations=("splice_plb", "splice_fcb", "splice_opb"),
            scenarios=SCENARIOS[:3],
        )
        run_campaign(spec, workers=8)
        (counts,) = dispatched
        assert len(counts) == 5
        assert all(count >= 1 for count in counts)

    def test_serial_run_never_imports_the_service(self):
        import subprocess
        import sys

        code = (
            "import sys\n"
            "from repro.campaign import CampaignSpec, run_campaign\n"
            "from repro.evaluation.scenarios import SCENARIOS\n"
            "run_campaign(CampaignSpec(implementations=('splice_plb',), scenarios=SCENARIOS[:1]))\n"
            "assert 'repro.service' not in sys.modules, 'serial run imported repro.service'\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


class TestWorkerCrashIsolation:
    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="runtime-registered runners only reach workers under fork",
    )
    def test_dead_worker_yields_error_records_not_a_crash(self, tmp_path):
        """A farm worker dying mid-shard is respawned and each cell it did
        not finish is retried once on its own; a cell whose retry dies too
        gets a structured ``worker_crash`` error record and every other
        cell's outcome survives."""
        from repro.devices.registry import _BUILDERS, register_runner

        class Exiting:
            def run_scenario(self, sets):
                os._exit(3)

        register_runner("zz_exiting", Exiting)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exiting"),
                scenarios=SCENARIOS[:2],
                name="worker-crash",
            )
            result = run_campaign(spec, workers=2, cache=tmp_path / "cache")
            by_label = {}
            for cell in result.cells:
                by_label.setdefault(cell.cell.label, []).append(cell)
            assert all(c.error is None for c in by_label["splice_plb"])
            assert all(
                c.error is not None and "worker_crash" in c.error
                for c in by_label["zz_exiting"]
            )
            assert all(c.cycles is None for c in by_label["zz_exiting"])
            assert result.meta["cells_failed"] == 2
            # Error records are never cached: a warm rerun re-attempts them.
            warm = run_campaign(spec, workers=2, cache=tmp_path / "cache")
            assert warm.meta["cells_cached"] == 2
            assert warm.meta["cells_failed"] == 2
        finally:
            _BUILDERS.pop("zz_exiting", None)

    @_fork_only
    @pytest.mark.parametrize("crasher", ["aa_exiting", "zz_exiting"])
    def test_crash_rows_depend_only_on_the_cell(self, tmp_path, crasher):
        """Which worker ran a cell that killed it, in which shard and next
        to which other cells, depends on the worker count and on what was
        cached; the rows do not.  Only the crashing cells get crash rows,
        whether their label sorts before or after the clean one."""
        from repro.devices.registry import _BUILDERS
        from repro.service import SimulationFarm

        register_runner(crasher, _Exiting)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", crasher),
                scenarios=SCENARIOS[:3],
                name="crash-rows",
            )
            def one_clean_cell_cached(number):
                cache = tmp_path / f"cache{number}"
                run_campaign(
                    CampaignSpec(implementations=("splice_plb",),
                                 scenarios=SCENARIOS[number - 1:number]),
                    cache=cache,
                )
                return cache

            cold = run_campaign(spec, workers=2).payload()
            warm = run_campaign(spec, workers=2, cache=one_clean_cell_cached(1))
            assert warm.meta["cells_cached"] == 1
            with SimulationFarm(workers=3, cache=one_clean_cell_cached(2)) as farm:
                job = farm.submit(spec)
                job.wait(timeout=120)
                assert len(job.cached) == 1
                served = job.result().payload()
            with SimulationFarm(workers=3) as farm:
                job = farm.submit(spec)
                job.wait(timeout=120)
                served_cold = job.result().payload()
            errors = {row["label"]: row["error"] for row in cold if "error" in row}
            assert list(errors) == [crasher]
            crashes = [row["error"] for row in cold if "error" in row]
            assert len(crashes) == 3
            assert all(error.startswith("worker_crash: ") for error in crashes)
            assert not [error for error in crashes if re.search(r"worker \d|shard \d", error)]
            assert warm.payload() == cold
            assert served == cold
            assert served_cold == cold
        finally:
            _BUILDERS.pop(crasher, None)

    @_fork_only
    def test_batch_run_kills_a_wedged_cell(self, monkeypatch):
        """The farm's stuck-worker watchdog covers batch runs: a cell that
        goes silent is killed, retried once and recorded as
        ``worker_stuck`` instead of holding the run for its full sleep."""
        from repro.devices.registry import _BUILDERS
        from repro.service import farm as farm_mod

        class QuickWatchdog(farm_mod.SimulationFarm):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.stuck_timeout_s = 2.0

        monkeypatch.setattr(farm_mod, "SimulationFarm", QuickWatchdog)
        register_runner("zz_wedged", _Wedged)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_wedged"),
                scenarios=SCENARIOS[:2],
                name="wedged",
            )
            started = time.monotonic()
            result = run_campaign(spec, workers=2)
            assert time.monotonic() - started < 20
            rows = _by_label(result)
            assert all(c.error is None for c in rows["splice_plb"])
            assert all(
                c.error is not None and c.error.startswith("worker_stuck: ")
                for c in rows["zz_wedged"]
            )
        finally:
            _BUILDERS.pop("zz_wedged", None)

    @_fork_only
    def test_farm_run_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """Returned or raised, a multi-worker run has stopped its workers
        and removed its farm's cache directory; a fully cached one starts
        no process at all."""
        from repro.devices.registry import _BUILDERS

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        clean = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])

        def leftovers():
            workers = [p for p in multiprocessing.active_children()
                       if p.name.startswith("splice-farm-worker")]
            return workers + list(tmp_path.glob("splice-farm-cache-*"))

        run_campaign(clean, workers=2)
        assert leftovers() == []
        register_runner("zz_exploding", _Exploding)
        try:
            failing = CampaignSpec(
                implementations=("splice_plb", "zz_exploding"), scenarios=SCENARIOS[:2]
            )
            with pytest.raises(RuntimeError, match="boom"):
                run_campaign(failing, workers=2)
            assert leftovers() == []
        finally:
            _BUILDERS.pop("zz_exploding", None)

        cache = tmp_path / "cache"
        run_campaign(clean, cache=cache)

        def no_process(self):
            raise AssertionError("a fully cached run started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
        warm = run_campaign(clean, workers=2, cache=cache)
        assert warm.meta["cells_cached"] == clean.cell_count

    @_fork_only
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_a_failing_farm_fails_the_run(self, tmp_path, monkeypatch):
        """A cache that cannot be written kills the farm's dispatcher; the
        run raises instead of waiting for a job nobody finishes, and stops
        its workers.  A farm in that state accepts no new job."""
        from repro.service import SimulationFarm

        def put(self, cell, outcome):
            raise sqlite3.OperationalError("database or disk is full")

        monkeypatch.setattr(ResultCache, "put", put)
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
        raised = []

        def run():
            try:
                run_campaign(spec, workers=2, cache=tmp_path / "cache")
            except RuntimeError as exc:
                raised.append(str(exc))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), "the run waited for a farm that had failed"
        assert len(raised) == 1 and "dispatcher failed: OperationalError" in raised[0]
        assert not [p for p in multiprocessing.active_children()
                    if p.name.startswith("splice-farm-worker")]

        with SimulationFarm(workers=1, cache=tmp_path / "cache") as farm:
            job = farm.submit(spec)
            assert job.wait(timeout=20) == "failed"
            with pytest.raises(RuntimeError, match="dispatcher failed"):
                farm.submit(spec)

    def test_error_rows_round_trip_through_json_and_csv(self, tmp_path):
        from repro.campaign.executor import CellError
        from repro.campaign.result import cell_result

        spec = CampaignSpec(
            implementations=("splice_plb",), scenarios=SCENARIOS[:2], name="err-rows"
        )
        cells = spec.cells()
        mixed = CampaignResult(
            spec=spec,
            cells=[
                cell_result(cells[0], (1, 2, 3)),
                cell_result(cells[1], CellError(kind="worker_crash", message="died")),
            ],
            meta={},
        )
        clone = CampaignResult.from_dict(mixed.to_dict())
        assert clone.cells[0].error is None and clone.cells[0].cycles == 2
        assert clone.cells[1].error == "worker_crash: died"
        assert clone.cells[1].cycles is None
        assert "worker_crash: died" in mixed.to_csv()
        # Errored cells drop out of the aggregates instead of poisoning them.
        assert mixed.mean_cycles() == {"splice_plb": {cells[0].scenario.number: 2.0}}


def _store(directory):
    """A second connection to a cache directory's store, to damage it."""
    return closing(sqlite3.connect(directory / STORE_FILENAME, isolation_level=None))


def _set_entries(directory, text):
    """Overwrite the entry text of every row in the store."""
    with _store(directory) as store:
        store.execute("UPDATE results SET entry = ?", (text,))


def _cells(count):
    return [CampaignCell("splice_plb", SCENARIOS[0], seed, 0) for seed in range(count)]


def _outcome(cell):
    return (cell.seed, 2 * cell.seed, 3 * cell.seed)


def _use_inherited_cache(cache, seen, written):
    """Forked child: read and write through the parent's cache object, then
    close it, as an exiting worker might."""
    assert cache.get(seen) == _outcome(seen)
    cache.put(written, _outcome(written))
    cache.close()


def _put_all(directory, cells, start):
    """One of two processes creating one store and writing overlapping
    cells into it."""
    start.wait(timeout=60)
    cache = ResultCache(directory)
    for _ in range(2):
        for cell in cells:
            cache.put(cell, _outcome(cell))
            assert cache.get(cell) == _outcome(cell)


class TestCache:
    def test_warm_rerun_skips_every_cell(self, tmp_path):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2], seeds=(0, 1))
        cold = run_campaign(spec, cache=tmp_path / "cache")
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert cold.meta["cells_cached"] == 0
        assert warm.meta["cells_cached"] == warm.meta["cells_total"] == spec.cell_count
        assert warm.cache_hit_rate == 1.0
        assert warm.payload() == cold.payload()

    def test_digest_depends_on_cell_identity(self):
        base = CampaignCell("splice_plb", SCENARIOS[0], seed=0, repeat=0)
        assert cell_digest(base) == cell_digest(base)
        assert cell_digest(base) != cell_digest(CampaignCell("splice_fcb", SCENARIOS[0], 0, 0))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[0], 1, 0))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[0], 0, 1))
        assert cell_digest(base) != cell_digest(CampaignCell("splice_plb", SCENARIOS[1], 0, 0))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = CampaignCell("splice_plb", SCENARIOS[0], 0, 0)
        cache.put(cell, (1, 2, 3))
        assert cache.get(cell) == (1, 2, 3)
        _set_entries(tmp_path, "not json")
        assert cache.get(cell) is None

    def test_truncated_and_malformed_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = CampaignCell("splice_plb", SCENARIOS[0], 0, 0)
        cache.put(cell, (1, 2, 3))
        with _store(tmp_path) as store:
            (text,) = store.execute("SELECT entry FROM results").fetchone()
        _set_entries(tmp_path, text[: len(text) // 2])  # torn write / partial copy
        assert cache.get(cell) is None
        # Valid JSON with the wrong shape is also a miss, never a crash.
        _set_entries(tmp_path, '{"outcome": "not-a-list"}')
        assert cache.get(cell) is None
        _set_entries(tmp_path, '{"outcome": [1]}')
        assert cache.get(cell) is None
        # The next put overwrites the bad row.
        cache.put(cell, (1, 2, 3))
        assert cache.get(cell) == (1, 2, 3)

    def test_campaign_recovers_from_a_vandalised_cache(self, tmp_path):
        """Corrupt every entry in the store: the next run degrades to
        recompute, reproduces the cold payload bit-exactly, and heals the
        entries."""
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
        cold = run_campaign(spec, cache=tmp_path / "cache")
        _set_entries(tmp_path / "cache", "\x00garbage")
        healed = run_campaign(spec, cache=tmp_path / "cache")
        assert healed.meta["cells_cached"] == 0
        assert healed.payload() == cold.payload()
        warm = run_campaign(spec, cache=tmp_path / "cache")
        assert warm.meta["cells_cached"] == spec.cell_count

    def test_lookup_answers_what_get_answers_in_chunked_queries(self, tmp_path):
        """Over 1,200 cells, more than one query's worth, ``lookup`` equals
        per-cell ``get``: a stored cell is found, a missing one and a
        corrupt row are misses.  A store that cannot be read answers
        nothing."""
        cells = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS,
                             seeds=tuple(range(300))).cells()
        assert len(cells) == 1200
        cache = ResultCache(tmp_path)
        for index, cell in enumerate(cells):
            if index % 3:
                cache.put(cell, (index, 2 * index, 3 * index))
        corrupt = [cell_digest(cell) for cell in cells[1::30]]
        with _store(tmp_path) as store:
            store.executemany("UPDATE results SET entry = ? WHERE digest = ?",
                              [("not json", digest) for digest in corrupt])
        statements = []
        cache._connection().set_trace_callback(statements.append)
        found = cache.lookup(cells)
        cache._connection().set_trace_callback(None)
        queries = [s for s in statements if s.startswith("SELECT digest, entry")]
        assert 1 < len(queries) < len(cells)
        expected = {cell.key: cache.get(cell) for cell in cells}
        assert found == {key: outcome for key, outcome in expected.items()
                         if outcome is not None}
        assert list(found) == [cell.key for cell in cells if cell.key in found]
        assert len(found) == 800 - len(corrupt)

        cache.close()
        for name in (STORE_FILENAME, STORE_FILENAME + "-wal", STORE_FILENAME + "-shm"):
            (tmp_path / name).unlink(missing_ok=True)
        (tmp_path / STORE_FILENAME).mkdir()
        assert cache.lookup(cells) == {}
        assert cache.get(cells[1]) is None

    def test_a_farm_run_looks_each_cell_up_once(self, tmp_path, monkeypatch):
        """The runner's lookup is the only one; without a cache a farm run
        neither looks anything up nor persists anything."""
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:3])
        lookups = []
        lookup = ResultCache.lookup

        def counting(self, cells):
            lookups.append(len(cells))
            return lookup(self, cells)

        monkeypatch.setattr(ResultCache, "lookup", counting)
        run_campaign(spec, workers=2, cache=tmp_path / "cache")
        assert lookups == [spec.cell_count]

        def refuse(*args):
            raise AssertionError("a run without a cache used a result store")

        monkeypatch.setattr(ResultCache, "lookup", refuse)
        monkeypatch.setattr(ResultCache, "put", refuse)
        assert run_campaign(spec, workers=2).meta["cells_executed"] == spec.cell_count

    def test_cache_shared_between_serial_and_sharded(self, tmp_path):
        spec = CampaignSpec(implementations=("splice_plb", "splice_fcb"), scenarios=SCENARIOS[:2],
                            kernel="compiled")
        cold = run_campaign(spec, workers=2, cache=tmp_path / "cache")
        warm = run_campaign(spec, workers=1, cache=tmp_path / "cache")
        assert warm.meta["cells_cached"] == spec.cell_count
        assert warm.payload() == cold.payload()
        store = {STORE_FILENAME + suffix for suffix in ("", "-wal", "-shm")}
        left = {path.name for path in (tmp_path / "cache").iterdir()}
        assert STORE_FILENAME in left and left <= store, sorted(left)


class TestResultStore:
    """The store behind :class:`ResultCache`: one SQLite file per directory."""

    def test_many_puts_leave_only_the_store_files(self, tmp_path):
        cache = ResultCache(tmp_path)
        cells = _cells(500)
        for cell in cells:
            cache.put(cell, _outcome(cell))
        assert len(cache) == 500
        assert len(list(tmp_path.iterdir())) <= 4
        assert cache.get(cells[-1]) == _outcome(cells[-1])

    def test_forked_child_leaves_the_parents_store_usable(self, tmp_path):
        cache = ResultCache(tmp_path)
        seen, written, later = _cells(3)
        cache.put(seen, _outcome(seen))
        child = multiprocessing.get_context("fork").Process(
            target=_use_inherited_cache, args=(cache, seen, written))
        child.start()
        child.join(timeout=60)
        assert not child.is_alive() and child.exitcode == 0
        assert cache.get(seen) == _outcome(seen)
        assert cache.get(written) == _outcome(written)
        cache.put(later, _outcome(later))
        assert cache.get(later) == _outcome(later)
        with _store(tmp_path) as store:
            assert store.execute("PRAGMA integrity_check").fetchone() == ("ok",)

    def test_two_processes_put_overlapping_cells(self, tmp_path):
        cells = _cells(120)
        for cell in cells:
            cell_digest(cell)  # once, before the children inherit the memo
        ctx = multiprocessing.get_context("fork")
        # Each round starts from no store at all: creating one races too.
        for round_index in range(8):
            directory = tmp_path / str(round_index)
            start = ctx.Event()
            writers = [ctx.Process(target=_put_all, args=(directory, part, start))
                       for part in (cells[:80], cells[40:])]
            for writer in writers:
                writer.start()
            start.set()
            for writer in writers:
                writer.join(timeout=120)
            assert [writer.exitcode for writer in writers] == [0, 0]
            cache = ResultCache(directory)
            assert len(cache) == len(cells)
            assert [cache.get(cell) for cell in cells] == [_outcome(cell) for cell in cells]
            cache.close()

    def test_garbage_store_file_degrades_to_recompute(self, tmp_path):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
        cold = run_campaign(spec, cache=tmp_path)
        (tmp_path / STORE_FILENAME).write_bytes(b"\x00garbage" * 512)
        healed = run_campaign(spec, cache=tmp_path)
        assert healed.meta["cells_cached"] == 0
        assert healed.payload() == cold.payload()
        assert (tmp_path / DAMAGED_FILENAME).exists()
        warm = run_campaign(spec, cache=tmp_path)
        assert warm.meta["cells_cached"] == spec.cell_count

    def test_unusable_store_path_raises_oserror(self, tmp_path, capsys):
        (tmp_path / STORE_FILENAME).mkdir()
        with pytest.raises(OSError):
            ResultCache(tmp_path)
        from repro.cli import main

        assert main(["campaign", "run", "--implementations", "splice_plb",
                     "--cache-dir", str(tmp_path)]) == 2
        assert "cannot use cache directory" in capsys.readouterr().err


class TestResultArtifacts:
    @pytest.fixture(scope="class")
    def result(self):
        spec = CampaignSpec(implementations=("splice_plb", "splice_fcb"), scenarios=SCENARIOS[:2])
        return run_campaign(spec)

    def test_json_round_trip(self, result, tmp_path):
        path = tmp_path / "campaign.json"
        result.to_json(path)
        loaded = CampaignResult.from_json(path)
        assert loaded.payload() == result.payload()
        assert loaded.spec == result.spec

    def test_csv_has_one_row_per_cell(self, result):
        lines = result.to_csv().strip().splitlines()
        assert len(lines) == 1 + len(result.cells)
        assert lines[0].startswith("label,scenario,set1")

    def test_markdown_contains_grid_and_cycles_tables(self, result):
        text = result.to_markdown()
        assert "## Scenario grid" in text
        assert "## Mean bus cycles per run" in text
        assert "All implementations agree" in text

    def test_write_artifacts(self, result, tmp_path):
        paths = result.write_artifacts(tmp_path / "out")
        for path in paths.values():
            assert path.exists()
        data = json.loads(paths["json"].read_text())
        assert data["spec"]["implementations"] == ["splice_plb", "splice_fcb"]

    def test_mean_cycles_averages_over_seeds(self):
        spec = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:1], seeds=(0, 1, 2))
        result = run_campaign(spec)
        per_cell = [c.cycles for c in result.cells]
        assert result.mean_cycles()["splice_plb"][1] == pytest.approx(sum(per_cell) / 3)


class TestCampaignCLI:
    def test_legacy_flat_invocation_still_generates(self, tmp_path, capsys):
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        assert main([str(spec_file), "--list-only"]) == 0
        out = capsys.readouterr().out
        assert "plb_interface.vhd" in out

    def test_campaign_run_and_report(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "campaign", "run",
            "--implementations", "splice_plb", "splice_fcb",
            "--sweep", "degenerate", "--sweep-count", "3",
            "--workers", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--artifacts", str(tmp_path / "artifacts"),
        ])
        assert rc == 0
        assert (tmp_path / "artifacts" / "campaign.json").exists()
        capsys.readouterr()

        rc = main(["campaign", "report", str(tmp_path / "artifacts" / "campaign.json")])
        assert rc == 0
        assert "Mean bus cycles" in capsys.readouterr().out

        rc = main(["campaign", "report", str(tmp_path / "artifacts" / "campaign.json"),
                   "--format", "csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("label,")

    def test_campaign_report_missing_file(self, capsys):
        from repro.cli import main

        assert main(["campaign", "report", "/nonexistent/campaign.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_legacy_option_value_named_like_a_subcommand(self, tmp_path, capsys):
        """`splice -o campaign spec.spl` must stay a generate invocation."""
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        out_dir = tmp_path / "campaign"
        assert main(["-o", str(out_dir), str(spec_file)]) == 0
        capsys.readouterr()
        assert (out_dir / "interp_plb").is_dir()

    def test_paper_preset_rejects_conflicting_flags(self, capsys):
        from repro.cli import main

        rc = main(["campaign", "run", "--preset", "paper", "--sweep", "linear"])
        assert rc == 2
        assert "--preset paper" in capsys.readouterr().err


class TestIncrementalCachePersistence:
    def test_outcomes_persist_even_when_a_later_cell_fails(self, tmp_path):
        """An interrupted run keeps the cells it finished."""
        from repro.campaign.runner import run_campaign
        from repro.devices.registry import _BUILDERS, register_runner

        class Exploding:
            def run_scenario(self, sets):
                raise RuntimeError("boom")

        register_runner("zz_exploding", Exploding)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exploding"),
                scenarios=SCENARIOS[:2],
                name="interrupted",
            )
            cache = ResultCache(tmp_path / "cache")
            with pytest.raises(RuntimeError):
                run_campaign(spec, cache=cache)
            # splice_plb sorts before zz_exploding, so its cells completed
            # and were persisted before the failure.
            assert len(cache) == 2
            survivor = CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:2])
            warm = run_campaign(survivor, cache=cache)
            assert warm.cache_hit_rate == 1.0
        finally:
            _BUILDERS.pop("zz_exploding", None)

    @pytest.mark.skipif(
        __import__("multiprocessing").get_start_method() != "fork",
        reason="runtime-registered runners only reach workers under fork",
    )
    def test_failing_shard_does_not_discard_completed_shards(self, tmp_path):
        from repro.campaign.runner import run_campaign
        from repro.devices.registry import _BUILDERS, register_runner

        class Exploding:
            def run_scenario(self, sets):
                raise RuntimeError("boom")

        register_runner("zz_exploding", Exploding)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_exploding"),
                scenarios=SCENARIOS[:2],
                name="shard-failure",
            )
            cache = ResultCache(tmp_path / "cache")
            with pytest.raises(RuntimeError):
                run_campaign(spec, workers=2, cache=cache)
            # The splice_plb shard completed; its outcomes must have been
            # persisted even though the zz_exploding shard blew up.
            assert len(cache) == 2
        finally:
            _BUILDERS.pop("zz_exploding", None)


class TestProfileCLI:
    def test_profile_registry_label(self, capsys):
        from repro.cli import main

        rc = main(["profile", "splice_plb", "--kernel", "compiled",
                   "--repeat", "2", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Profile of splice_plb scenario 2" in out
        assert "cumulative" in out
        assert "bus cycles" in out

    def test_profile_spec_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.devices.interpolator import INTERPOLATOR_SPEC_PLB

        spec_file = tmp_path / "interp.sp"
        spec_file.write_text(INTERPOLATOR_SPEC_PLB)
        rc = main(["profile", str(spec_file), "--cycles", "500", "--top", "5",
                   "--sort", "tottime"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "500 bus cycles" in out
        assert "tottime" in out

    def test_profile_unknown_target(self, capsys):
        from repro.cli import main

        assert main(["profile", "not-a-label-or-file"]) == 2
        assert "neither a registered implementation label" in capsys.readouterr().err

    def test_profile_unknown_scenario(self, capsys):
        from repro.cli import main

        assert main(["profile", "splice_plb", "--scenario", "99"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
