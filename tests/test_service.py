"""Tests for the simulation farm service: job queue, farm, HTTP API, CLI.

The farm's contract is that serving a campaign through the queue + warm
workers + shared cache is *observably identical* to ``splice campaign run``:
same cells, same payload bytes, same aggregation.  The tests here pin that,
plus the queueing semantics the batch path does not have: priority ordering,
FIFO fairness, cancellation at shard boundaries, per-job timeouts, the
cache short-circuit, and worker-crash fault isolation.
"""

import json
import multiprocessing
import os
import sqlite3
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing

import pytest

from repro.campaign import CampaignSpec, ScenarioSweep, paper_grid, run_campaign, sweep_grid
from repro.evaluation.scenarios import SCENARIOS
from repro.service import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    TIMEOUT,
    Job,
    JobQueue,
    ServiceClient,
    ServiceError,
    Shard,
    SimulationFarm,
    resolve_workers,
    serve_farm_in_thread,
)

#: Runtime-registered runners (the slow/crashing stand-ins below) only reach
#: worker processes when the OS forks them from the registering parent.
fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="runtime-registered runners only reach workers under fork",
)


def small_spec(count=2, name="svc-small", seed=0):
    """A cheap single-implementation grid (degenerate scenarios simulate fast)."""
    return sweep_grid(
        ScenarioSweep(mode="degenerate", count=count),
        implementations=("splice_plb",),
        seeds=(seed,),
        name=name,
    )


class _SlowRunner:
    """Holds a worker busy for a deterministic, nontrivial interval."""

    def run_scenario(self, sets):
        time.sleep(0.15)
        return {"result": 1, "cycles": 1, "transactions": 0}


class _RaisingRunner:
    """A clean cell whose simulation raises."""

    def run_scenario(self, sets):
        raise RuntimeError("boom")


class _ExitingRunner:
    """Kills the whole worker process mid-shard (not an exception)."""

    def run_scenario(self, sets):
        import os

        os._exit(3)


def _register(label, builder):
    from repro.devices.registry import register_runner

    register_runner(label, builder, replace=True)


def _unregister(label):
    from repro.devices.registry import _BUILDERS

    _BUILDERS.pop(label, None)


# ---------------------------------------------------------------------------
# JobQueue unit semantics (no processes involved)
# ---------------------------------------------------------------------------


class TestJobQueue:
    def _job(self, job_id, priority=0):
        job = Job(job_id, small_spec(name=f"q-{job_id}"), priority=priority)
        job.pending_shards.append(Shard(job_id, 0, []))
        return job

    def test_higher_priority_pops_first(self):
        queue = JobQueue()
        low, high = self._job("low", priority=0), self._job("high", priority=5)
        queue.push(low)
        queue.push(high)
        assert queue.pop() is high
        assert queue.pop() is low
        assert queue.pop() is None

    def test_fifo_within_a_priority(self):
        queue = JobQueue()
        jobs = [self._job(f"j{i}") for i in range(4)]
        for job in jobs:
            queue.push(job)
        assert [queue.pop() for _ in jobs] == jobs

    def test_repush_keeps_the_original_queue_position(self):
        """A job re-pushed while it still has pending shards must not lose
        its FIFO slot to a later submission of the same priority."""
        queue = JobQueue()
        first, second = self._job("first"), self._job("second")
        queue.push(first)
        queue.push(second)
        assert queue.pop() is first
        queue.push(first)  # still has pending shards: goes back in
        assert queue.pop() is first
        assert queue.pop() is second

    def test_terminal_jobs_are_skipped_lazily(self):
        queue = JobQueue()
        cancelled, live = self._job("dead"), self._job("live")
        queue.push(cancelled)
        queue.push(live)
        cancelled.state = CANCELLED  # cancel() just flips state; heap untouched
        assert queue.pop() is live
        assert queue.pop() is None

    def test_jobs_without_pending_shards_are_skipped(self):
        queue = JobQueue()
        drained = self._job("drained")
        drained.pending_shards.clear()
        queue.push(drained)
        assert len(queue) == 0
        assert queue.peek() is None
        assert queue.pop() is None

    def test_len_counts_distinct_dispatchable_jobs(self):
        queue = JobQueue()
        job = self._job("dup")
        queue.push(job)
        queue.push(job)  # re-push duplicates the heap entry, not the job
        assert len(queue) == 1


class TestResolveWorkers:
    def test_zero_means_one_per_cpu(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-1)


# ---------------------------------------------------------------------------
# Farm behaviour (real worker processes)
# ---------------------------------------------------------------------------


class TestFarm:
    def test_farm_result_is_bit_identical_to_batch_on_the_paper_grid(self):
        grid = paper_grid()
        batch = run_campaign(grid)
        with SimulationFarm(workers=2) as farm:
            job = farm.submit(grid)
            assert job.wait(timeout=120) == DONE
            assert job.result().payload() == batch.payload()

    def test_repeat_submission_short_circuits_without_touching_workers(self):
        spec = small_spec(name="svc-cachehit")
        with SimulationFarm(workers=1) as farm:
            first = farm.submit(spec)
            assert first.wait(timeout=60) == DONE
            executed_before = farm.counters["cells_executed"]

            second = farm.submit(spec)
            # Fully cached: terminal at submit time, no queueing, no worker.
            assert second.state == DONE
            assert len(second.cached) == spec.cell_count
            assert len(second.fresh) == 0
            assert farm.counters["cells_executed"] == executed_before
            stats = farm.stats()
            assert stats["cache_hit_rate"] == 0.5  # 0/N then N/N
            assert stats["queue_depth"] == 0

    def test_submit_requires_a_running_farm(self):
        farm = SimulationFarm(workers=1)
        with pytest.raises(RuntimeError):
            farm.submit(small_spec())

    def test_a_farm_that_never_starts_leaves_nothing_behind(self, tmp_path, monkeypatch):
        """A farm without a cache makes its cache directory when it starts.
        One that is dropped unstarted leaves none, and one whose start fails
        on its second worker removes it and stops the first worker."""
        import tempfile

        import repro.service.farm as farm_mod

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

        def leftovers():
            workers = [p for p in multiprocessing.active_children()
                       if p.name.startswith("splice-farm-worker")]
            return workers + list(tmp_path.glob("splice-farm-cache-*"))

        farm = SimulationFarm(workers=1)
        assert farm.kill_worker() is None
        del farm
        assert leftovers() == []

        spawn = farm_mod.spawn_worker

        def second_fails(context, worker_id, preload):
            if worker_id == 1:
                raise OSError("fork failed")
            return spawn(context, worker_id, preload)

        monkeypatch.setattr(farm_mod, "spawn_worker", second_fails)
        with pytest.raises(OSError, match="fork failed"):
            with SimulationFarm(workers=2):
                pass
        assert leftovers() == []

    def test_a_job_builds_no_selector_per_message(self, monkeypatch):
        """The dispatcher waits on one selector for the farm's whole life,
        so a 64-cell job builds no more selectors than a 4-cell one."""
        import selectors

        built = []
        init = selectors._BaseSelectorImpl.__init__

        def counting(self):
            built.append(type(self).__name__)
            init(self)

        with SimulationFarm(workers=1) as farm:
            counts = []
            for count in (4, 64):
                monkeypatch.setattr(selectors._BaseSelectorImpl, "__init__", counting)
                job = farm.submit(small_spec(count=count, name=f"selectors-{count}"))
                assert job.wait(timeout=120) == DONE
                monkeypatch.undo()
                counts.append(len(built))
                built.clear()
        assert counts[1] <= counts[0], counts

    @fork_only
    def test_priority_cancel_and_timeout_semantics(self):
        """One slow worker, deterministic queueing behind it.

        While the worker grinds through a slow job's first shard, everything
        submitted after it is provably queued — so priority overtaking,
        queued-cancellation and queued-timeout can be asserted exactly.
        """
        _register("zz_slow", _SlowRunner)
        try:
            slow_spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:3], name="slow"
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                slow = farm.submit(slow_spec)  # 3 shards x 0.15s
                low = farm.submit(small_spec(name="low"), priority=0)
                high = farm.submit(small_spec(name="high", seed=1), priority=5)
                doomed = farm.submit(small_spec(name="doomed", seed=2), priority=0)
                expiring = farm.submit(
                    small_spec(name="expiring", seed=3), timeout_s=0.05
                )

                # Queued cancellation: drops instantly, never runs a cell.
                assert farm.cancel(doomed.id) is True
                assert doomed.state == CANCELLED
                assert farm.cancel(doomed.id) is False  # already terminal

                assert expiring.wait(timeout=30) == TIMEOUT
                with pytest.raises(ValueError):
                    expiring.result()  # holes in the grid: no result exists

                assert high.wait(timeout=60) == DONE
                assert low.wait(timeout=60) == DONE
                assert slow.wait(timeout=60) == DONE
                # Priority 5 overtook the earlier-submitted priority 0.
                assert high.finished < low.finished
                assert doomed.fresh == {} and doomed.cells_done == 0
        finally:
            _unregister("zz_slow")

    @fork_only
    def test_cancelling_a_running_job_stops_at_the_shard_boundary(self):
        _register("zz_slow", _SlowRunner)
        try:
            slow_spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:4], name="slow-cancel"
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                job = farm.submit(slow_spec)
                with farm.lock:
                    while not job.in_flight:
                        farm.lock.wait(1.0)
                assert farm.cancel(job.id) is True
                assert job.state == CANCELLED
                # The in-flight shard runs to its boundary in the worker and
                # its late results are discarded, after which the farm is
                # fully available again for new jobs.
                follow_up = farm.submit(small_spec(name="after-cancel"))
                assert follow_up.wait(timeout=60) == DONE
                assert job.cells_done < len(job.cells)
        finally:
            _unregister("zz_slow")

    @fork_only
    def test_dead_worker_is_respawned_and_the_job_fails_structurally(self):
        """A worker killed mid-shard (twice) must not take the farm down:
        the shard is retried once on a fresh worker, then its cells get
        structured error records and the farm keeps serving."""
        _register("zz_exit", _ExitingRunner)
        try:
            crash_spec = CampaignSpec(
                implementations=("zz_exit",), scenarios=SCENARIOS[:1], name="crash"
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                job = farm.submit(crash_spec)
                assert job.wait(timeout=60) == FAILED
                assert len(job.errors) == 1
                (error,) = job.errors.values()
                assert error.kind == "worker_crash"
                assert farm.counters["workers_respawned"] >= 2
                assert farm.counters["shards_retried"] == 1

                result = job.result()
                (cell,) = result.cells
                assert cell.error is not None and "worker_crash" in cell.error
                assert cell.cycles is None

                # The respawned worker serves the next job normally.
                follow_up = farm.submit(small_spec(name="after-crash"))
                assert follow_up.wait(timeout=60) == DONE
        finally:
            _unregister("zz_exit")

    @fork_only
    def test_clean_cell_that_raises_becomes_an_error_row(self):
        """A batch run aborts on a clean cell's exception; a served job
        records it as a ``cell_exception`` row and serves the other cells."""
        _register("zz_raise", _RaisingRunner)
        try:
            spec = CampaignSpec(
                implementations=("splice_plb", "zz_raise"),
                scenarios=SCENARIOS[:1],
                name="raising",
            )
            with pytest.raises(RuntimeError, match="boom"):
                run_campaign(spec)
            with SimulationFarm(workers=1) as farm:
                job = farm.submit(spec)
                assert job.wait(timeout=60) == FAILED
                rows = {cell.cell.label: cell for cell in job.result().cells}
                assert rows["zz_raise"].error == "cell_exception: RuntimeError: boom"
                assert rows["splice_plb"].error is None
        finally:
            _unregister("zz_raise")

    @fork_only
    def test_a_worker_that_dies_after_reporting_its_shard_is_not_retried(self):
        """The dispatcher hands the scheduler a dead worker's last messages
        before its exit.  Holding the farm lock keeps the dispatcher from
        reading them while the worker finishes its first shard and is
        killed; once the lock is free, that shard is done, not retried, and
        the job's second shard runs on the respawned worker."""
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(implementations=("zz_slow",), scenarios=SCENARIOS[:2],
                                name="reported-then-died")
            with SimulationFarm(workers=1, shard_size=1) as farm:
                slot = farm._workers[0]
                with farm.lock:
                    while not slot.ready:
                        farm.lock.wait(0.05)
                    job = farm.submit(spec)
                    while not job.in_flight:
                        farm.lock.wait(0.05)
                    (shard,) = job.in_flight.values()
                    while (slot.last_message_at or 0.0) <= shard.dispatched_at:
                        farm.lock.wait(0.01)  # until its shard-start heartbeat
                    # The dispatcher wakes with nothing from the worker to read
                    # and waits for the lock while the worker reports its cell
                    # and its shard boundary, and is killed.
                    farm._wake()
                    time.sleep(1.0)
                    worker = farm._procs[0].process
                    worker.kill()
                    worker.join(timeout=10)
                    assert not worker.is_alive()
                assert job.wait(timeout=60) == DONE
                assert farm.counters["shards_retried"] == 0
                assert farm.counters["workers_respawned"] == 1
                assert not [e for e in job.events if e["event"] == "shard_retry"]
        finally:
            _unregister("zz_slow")

    @fork_only
    def test_a_failing_cache_put_fails_its_job_and_wakes_its_waiter(self, tmp_path,
                                                                     monkeypatch):
        """Holding the farm lock while the worker runs its 2-cell shard puts
        both cells and the shard's end on the pipe before the dispatcher
        reads any of them.  The first cell's cache write raises, and that
        fails the job before the shard's end can finish it, and wakes a
        waiter already asleep in ``wait``.  The dispatcher then re-raises
        the put's error and ends."""
        from repro.campaign.cache import ResultCache

        def put(self, cell, outcome):
            raise sqlite3.OperationalError("database or disk is full")

        raised = []
        monkeypatch.setattr(ResultCache, "put", put)
        monkeypatch.setattr(threading, "excepthook",
                            lambda args: raised.append((args.thread, args.exc_value)))
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(implementations=("zz_slow",), scenarios=SCENARIOS[:2],
                                name="put-fails")
            woke = []
            with SimulationFarm(workers=1, shard_size=2, cache=tmp_path / "cache") as farm:
                slot = farm._workers[0]
                with farm.lock:
                    while not slot.ready:
                        farm.lock.wait(0.05)
                    job = farm.submit(spec)
                    waiter = threading.Thread(
                        target=lambda: woke.append((job.wait(timeout=5), time.monotonic())))
                    waiter.start()
                    # The waiter goes to sleep in wait() while the lock is free.
                    while not job.in_flight:
                        farm.lock.wait(0.05)
                    time.sleep(1.0)  # two 0.15 s cells and the shard's end
                    released = time.monotonic()
                waiter.join(timeout=10)
                assert woke and woke[0][0] == FAILED
                assert woke[0][1] - released < 2.0, "the waiter slept out its timeout"
                assert "dispatcher failed: OperationalError" in job.events[-1]["reason"]
                farm._dispatcher.join(timeout=10)
                assert not farm._dispatcher.is_alive()
                assert len(raised) == 1
                thread, error = raised[0]
                assert thread is farm._dispatcher
                assert isinstance(error, sqlite3.OperationalError)
                assert str(error) == "database or disk is full"
        finally:
            _unregister("zz_slow")


# ---------------------------------------------------------------------------
# Chaos: worker kills and graceful drain
# ---------------------------------------------------------------------------


class TestChaos:
    @fork_only
    def test_killing_a_busy_worker_leaves_results_intact(self):
        """``kill_worker`` mid-shard exercises the real crash-recovery path:
        the worker is respawned, the shard retried, and the job finishes
        with the same cells it would have produced unharmed."""
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:4], name="chaos-kill"
            )
            with SimulationFarm(workers=2, shard_size=1) as farm:
                job = farm.submit(spec)
                with farm.lock:
                    while not job.in_flight:
                        farm.lock.wait(1.0)
                killed = farm.kill_worker()
                assert killed is not None
                assert job.wait(timeout=60) == DONE
                assert job.errors == {}
                assert len(job.fresh) == len(job.cells)
                assert farm.counters["workers_respawned"] >= 1
                assert farm.counters["shards_retried"] >= 1
                # The farm stays fully available after the chaos.
                follow_up = farm.submit(small_spec(name="after-chaos"))
                assert follow_up.wait(timeout=60) == DONE
        finally:
            _unregister("zz_slow")

    def test_kill_worker_with_no_live_workers_returns_none(self):
        farm = SimulationFarm(workers=1)
        assert farm.kill_worker() is None
        with SimulationFarm(workers=1) as running:
            assert running.kill_worker(worker_id=99) is None

    def test_chaos_on_a_real_grid_is_bit_identical_to_batch(self):
        """Kills injected while real simulation jobs flow: every job still
        completes and its payload matches the batch runner byte for byte."""
        specs = [small_spec(count=3, name=f"chaos-real-{i}", seed=40 + i) for i in range(4)]
        with SimulationFarm(workers=2, shard_size=1) as farm:
            jobs = [farm.submit(spec) for spec in specs]
            farm.kill_worker()
            for job in jobs:
                assert job.wait(timeout=120) == DONE
                assert job.errors == {}
            for spec, job in zip(specs, jobs):
                assert job.result().payload() == run_campaign(spec).payload()

    def test_farm_stays_available_under_worker_kills(self):
        """24 real-simulation jobs run while a killer thread SIGKILLs a busy
        worker up to 8 times.  Every job reaches a terminal state; a job
        that completes is bit-identical to the batch runner, and a job that
        fails carries only ``worker_crash`` rows (a cell killed twice)."""
        specs = [
            sweep_grid(
                ScenarioSweep(mode="geometric", count=2, base=(16, 8, 16), max_size=512),
                implementations=("splice_plb",),
                seeds=(1000 + seed,),
                repeats=2,
                name=f"chaos-{seed}",
            )
            for seed in range(24)
        ]
        stop = threading.Event()
        kills = []

        def killer():
            # Kill only while a worker is busy, not on a fixed clock, so the
            # kills hit real shards; each is followed by a recovery window.
            while not stop.is_set() and len(kills) < 8:
                if farm.stats()["workers_busy"] > 0:
                    killed = farm.kill_worker()  # busy-preferred SIGKILL
                    if killed is not None:
                        kills.append(killed)
                        stop.wait(0.1)
                        continue
                stop.wait(0.005)

        workers = max(2, min(4, os.cpu_count() or 1))
        with SimulationFarm(workers=workers, shard_size=1, name="chaos-farm") as farm:
            thread = threading.Thread(target=killer, name="chaos-killer", daemon=True)
            thread.start()
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    jobs = list(pool.map(farm.submit, specs))
                states = [job.wait(timeout=300) for job in jobs]
            finally:
                stop.set()
                thread.join(timeout=5)
            assert not thread.is_alive()
            respawned = farm.counters["workers_respawned"]
            # The farm is fully available once the chaos stops.
            assert farm.submit(specs[0]).wait(timeout=120) == DONE

        assert kills, "the killer thread never killed a worker"
        assert respawned >= len(kills)
        assert all(state in (DONE, FAILED) for state in states), states
        for spec, job, state in zip(specs, jobs, states):
            if state == DONE:
                assert job.result().payload() == run_campaign(spec).payload(), spec.name
            else:
                assert job.errors, job.id
                assert all(error.kind == "worker_crash" for error in job.errors.values())


class TestDrain:
    @fork_only
    def test_drain_finishes_running_jobs_then_rejects_new_ones(self):
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:2], name="drain-wait"
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                job = farm.submit(spec)
                outcome = farm.drain(timeout_s=30)
                assert outcome == {"drained": True, "cancelled": []}
                assert job.state == DONE
                assert job.cells_done == len(job.cells)
                assert farm.stats()["draining"] is True
                with pytest.raises(RuntimeError, match="draining"):
                    farm.submit(small_spec(name="too-late"))
        finally:
            _unregister("zz_slow")

    @fork_only
    def test_drain_timeout_cancels_leftovers_with_a_terminal_event(self):
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:4], name="drain-cut"
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                job = farm.submit(spec)
                with farm.lock:
                    while not job.in_flight:
                        farm.lock.wait(1.0)
                outcome = farm.drain(timeout_s=0.01)
                assert outcome["drained"] is False
                assert outcome["cancelled"] == [job.id]
                assert job.state == CANCELLED
                # Watchers see a terminal state event explaining the cut.
                last_state = [e for e in job.events if e["event"] == "state"][-1]
                assert last_state["state"] == CANCELLED
                assert last_state["reason"] == "drain timeout"
        finally:
            _unregister("zz_slow")

    def test_draining_farm_returns_503_over_http(self):
        with SimulationFarm(workers=1, name="drain-http") as farm:
            server, _thread = serve_farm_in_thread(farm)
            client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
            try:
                assert farm.drain(timeout_s=1)["drained"] is True
                with pytest.raises(ServiceError) as excinfo:
                    client.submit(small_spec(name="post-drain"))
                assert excinfo.value.status == 503
                # Reads stay available while draining.
                assert client.healthz()["running"] is True
                assert client.stats()["draining"] is True
            finally:
                client.close()
                server.shutdown()
                server.server_close()


# ---------------------------------------------------------------------------
# HTTP API + client
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served_farm():
    with SimulationFarm(workers=2, name="test-farm") as farm:
        server, _thread = serve_farm_in_thread(farm)
        client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
        try:
            yield farm, client
        finally:
            client.close()
            server.shutdown()
            server.server_close()


class TestHTTPAPI:
    def test_submit_stream_and_result_match_the_batch_runner(self, served_farm):
        farm, client = served_farm
        spec = small_spec(count=3, name="http-flow")
        job = client.submit(spec, priority=2)
        assert job["state"] in (QUEUED, "running", DONE)
        assert job["cells_total"] == 3
        assert job["priority"] == 2

        events = list(client.events(job["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "submitted"
        assert kinds[-1] == "state" and events[-1]["state"] == DONE
        cell_events = [e for e in events if e["event"] == "cell"]
        assert len(cell_events) == 3
        assert all(e["label"] == "splice_plb" for e in cell_events)

        served = client.result(job["id"])
        batch = run_campaign(spec)
        assert served["cells"] == batch.payload()
        assert served["meta"]["executor"] == "farm"

    def test_event_stream_supports_resume_offsets(self, served_farm):
        farm, client = served_farm
        job = client.submit(small_spec(name="http-offset", seed=11))
        client.wait(job["id"], timeout=60)
        all_events = list(client.events(job["id"]))
        tail = list(client.events(job["id"], start=len(all_events) - 1))
        assert tail == all_events[-1:]

    def test_status_jobs_stats_and_health(self, served_farm):
        farm, client = served_farm
        assert client.healthz() == {"ok": True, "running": True}
        stats = client.stats()
        assert stats["worker_count"] == 2
        assert stats["shard_size"] == farm.shard_size
        assert {"cells_total", "cells_cached", "cells_executed"} <= set(stats["cells"])
        job = client.submit(small_spec(name="http-status", seed=12))
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == DONE
        assert final["cells_done"] == final["cells_total"]
        assert any(j["id"] == job["id"] for j in client.jobs())

    def test_delete_cancels_and_error_codes_are_specific(self, served_farm):
        farm, client = served_farm
        # 404: unknown endpoints and unknown jobs.
        for path in ("status", "result", "cancel"):
            with pytest.raises(ServiceError) as excinfo:
                getattr(client, path)("j999999")
            assert excinfo.value.status == 404
        # 400: bodies that are not campaign specs.
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"bogus": 1})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"implementations": ["no_such_label"]})
        assert excinfo.value.status == 400
        # Cancel flow: done jobs cannot be cancelled; cancelled jobs have no
        # result (410, distinct from 409 = still running).
        job = client.submit(small_spec(name="http-del", seed=13))
        client.wait(job["id"], timeout=60)
        assert client.cancel(job["id"])["cancelled"] is False
        assert client.result(job["id"])["meta"]["executor"] == "farm"

    def test_warm_resubmission_over_http_is_fully_cached(self, served_farm):
        farm, client = served_farm
        spec = small_spec(name="http-warm", seed=14)
        cold = client.submit_and_wait(spec, timeout=60)
        warm = client.submit_and_wait(spec, timeout=60)
        assert cold["state"] == warm["state"] == DONE
        assert warm["cells_cached"] == warm["cells_total"]
        assert warm["cells_executed"] == 0


class TestClientResilience:
    """Retry/resume behaviour of the stdlib client under flaky transport."""

    def _client(self):
        client = ServiceClient("http://127.0.0.1:1")  # nothing listens here
        client.RETRY_BACKOFF_S = 0.001  # keep test wall-clock negligible
        return client

    def test_get_retries_transient_connection_errors(self):
        client = self._client()
        calls = {"n": 0}

        def flaky(method, path, body=None, headers=None):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ConnectionError("transient")
            return {"ok": True}

        client._request_once = flaky
        assert client._request("GET", "/stats") == {"ok": True}
        assert calls["n"] == 3

    def test_get_gives_up_after_the_retry_budget(self):
        client = self._client()
        calls = {"n": 0}

        def always_down(method, path, body=None, headers=None):
            calls["n"] += 1
            raise ConnectionRefusedError("down")

        client._request_once = always_down
        with pytest.raises(ConnectionError):
            client._request("GET", "/stats")
        assert calls["n"] == 1 + client.GET_RETRIES

    def test_posts_and_deletes_are_never_retried(self):
        """A resent POST could double-submit; the first failure must surface."""
        client = self._client()
        calls = {"n": 0}

        def always_down(method, path, body=None, headers=None):
            calls["n"] += 1
            raise ConnectionError("down")

        client._request_once = always_down
        for method in ("POST", "DELETE"):
            calls["n"] = 0
            with pytest.raises(ConnectionError):
                client._request(method, "/jobs")
            assert calls["n"] == 1

    def test_keyed_submits_are_retried(self):
        """submit() sends an Idempotency-Key, which makes the POST safe to
        resend — the server answers a duplicate key with the original job —
        so submissions get the same retry budget as reads."""
        client = self._client()
        calls = {"n": 0, "keys": set()}

        def flaky(method, path, body=None, headers=None):
            calls["n"] += 1
            calls["keys"].add((headers or {}).get("Idempotency-Key"))
            if calls["n"] < 3:
                raise ConnectionError("transient")
            return {"id": "j000001"}

        client._request_once = flaky
        assert client.submit(small_spec(name="retry-post"))["id"] == "j000001"
        assert calls["n"] == 3
        # Every resend carried the SAME key — that is what makes it safe.
        assert len(calls["keys"]) == 1 and None not in calls["keys"]

    def test_http_error_responses_are_not_retried(self):
        """The server answered; retrying a 4xx/5xx can only repeat it."""
        client = self._client()
        calls = {"n": 0}

        def erroring(method, path, body=None, headers=None):
            calls["n"] += 1
            raise ServiceError(500, {"error": "boom"})

        client._request_once = erroring
        with pytest.raises(ServiceError):
            client._request("GET", "/stats")
        assert calls["n"] == 1

    def test_events_resume_after_a_midstream_disconnect(self, served_farm, monkeypatch):
        """A stream cut mid-flight reconnects at ``?from=N`` and the consumer
        still sees every event exactly once."""
        import repro.service.client as client_mod

        farm, client = served_farm
        job = client.submit(small_spec(count=3, name="resume", seed=31))
        client.wait(job["id"], timeout=60)
        full = list(client.events(job["id"]))
        assert len(full) > 3  # need room to cut the stream mid-flight

        real = client_mod.HTTPConnection
        state = {"armed": True}

        class _CutStream:
            """Yields two NDJSON lines, then dies like a reset connection."""

            def __init__(self, response):
                self._response = response
                self.status = response.status

            def read(self, *args):
                return self._response.read(*args)

            def __iter__(self):
                for count, line in enumerate(self._response):
                    if count >= 2:
                        raise ConnectionResetError("injected mid-stream cut")
                    yield line

        class Flaky(real):
            def request(self, method, path, **kwargs):
                self._chaos_path = path
                return super().request(method, path, **kwargs)

            def getresponse(self):
                response = super().getresponse()
                if state["armed"] and "/events" in self._chaos_path:
                    state["armed"] = False
                    return _CutStream(response)
                return response

        monkeypatch.setattr(client_mod, "HTTPConnection", Flaky)
        with ServiceClient(f"http://{client.host}:{client.port}") as resilient:
            resilient.RETRY_BACKOFF_S = 0.001
            resumed = list(resilient.events(job["id"]))
        assert not state["armed"], "the injected cut never fired"
        assert resumed == full

    def test_events_abort_after_consecutive_reconnect_failures(self):
        client = self._client()
        client.STREAM_RESUMES = 2
        client.timeout = 0.2
        with pytest.raises(OSError):
            list(client.events("j1"))


@pytest.fixture
def count_connects(monkeypatch):
    """Patch a connect-counting ``HTTPConnection`` into the client module;
    yields the list of calling-thread ids, one per TCP connection opened."""
    import threading

    import repro.service.client as client_mod

    opened = []

    class Counting(client_mod.HTTPConnection):
        def connect(self):
            opened.append(threading.get_ident())
            super().connect()

    monkeypatch.setattr(client_mod, "HTTPConnection", Counting)
    return opened


class TestKeptAliveConnection:
    """Each client thread sends all its requests over one HTTP/1.1
    connection, event streams included."""

    def _cached_spec(self, client, seed):
        spec = small_spec(name="keepalive", seed=seed)
        assert client.submit_and_wait(spec, timeout=60)["state"] == DONE
        return spec

    def test_a_cached_job_uses_one_connection(self, served_farm, count_connects):
        farm, client = served_farm
        spec = self._cached_spec(client, 90)
        count_connects.clear()
        with ServiceClient(f"http://{client.host}:{client.port}") as fresh:
            job = fresh.submit(spec)
            events = list(fresh.events(job["id"]))
            assert events[-1]["state"] == DONE
            assert fresh.status(job["id"])["cells_cached"] == job["cells_total"]
            assert fresh.result(job["id"])["cells"]
        assert len(count_connects) == 1

    def test_threads_sharing_a_client_keep_one_connection_each(
        self, served_farm, count_connects
    ):
        import threading

        farm, client = served_farm
        spec = self._cached_spec(client, 91)
        shared = ServiceClient(f"http://{client.host}:{client.port}")
        count_connects.clear()
        finished, errors = [], []

        def twenty_jobs():
            try:
                for _ in range(20):
                    job = shared.submit(spec)
                    list(shared.events(job["id"]))
                    finished.append(shared.status(job["id"])["state"])
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=twenty_jobs) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        shared.close()  # both threads' connections, from this one
        assert not errors, errors
        assert finished == [DONE] * 40
        assert sorted(count_connects) == sorted(t.ident for t in threads)

    def test_status_after_leaving_the_event_stream_early(
        self, served_farm, count_connects
    ):
        farm, client = served_farm
        spec = self._cached_spec(client, 92)
        with ServiceClient(f"http://{client.host}:{client.port}") as fresh:
            job = fresh.submit(spec)
            count_connects.clear()
            for _event in fresh.events(job["id"]):
                break
            # The half-read stream's connection (the submit's) is dropped; the
            # next call reconnects and the one after reuses that connection.
            assert fresh.status(job["id"])["state"] == DONE
            assert fresh.result(job["id"])["cells"]
            assert len(count_connects) == 1
            # A stream still suspended mid-way holds its connection: a call
            # made meanwhile on the same thread gets another one.
            stream = fresh.events(job["id"])
            first = next(stream)
            assert fresh.status(job["id"])["state"] == DONE
            assert [first, *stream] == list(fresh.events(job["id"]))

    @fork_only
    def test_status_after_wait_times_out_mid_stream(self, count_connects):
        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:2],
                name="keepalive-wait",
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                server, _thread = serve_farm_in_thread(farm)
                client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
                try:
                    job = client.submit(spec)
                    with pytest.raises(TimeoutError):
                        client.wait(job["id"], timeout=0.05)
                    assert client.status(job["id"])["id"] == job["id"]
                    assert client.wait(job["id"], timeout=60)["state"] == DONE
                    # The submit's connection carried the abandoned stream
                    # and was dropped; every later call used one more.
                    assert len(count_connects) == 2
                finally:
                    client.close()
                    server.shutdown()
                    server.server_close()
        finally:
            _unregister("zz_slow")

    def test_a_server_restarted_on_the_same_port_answers_the_old_client(self):
        with SimulationFarm(workers=1, name="keepalive-old") as old_farm:
            server, _thread = serve_farm_in_thread(old_farm)
            port = server.server_address[1]
            client = ServiceClient(f"http://127.0.0.1:{port}")
            try:
                job = client.submit(small_spec(name="keepalive-restart", seed=93))
                assert client.wait(job["id"], timeout=60)["state"] == DONE
            finally:
                server.shutdown()
                server.server_close()
        with SimulationFarm(workers=1, name="keepalive-new") as new_farm:
            server, _thread = serve_farm_in_thread(new_farm, port=port)
            try:
                # The DELETE goes first: it is never retried, so it must not
                # be sent on the socket the old server shut.
                for call in (client.cancel, client.status):
                    with pytest.raises(ServiceError) as excinfo:
                        call(job["id"])
                    assert excinfo.value.status == 404
                    assert "no such job" in str(excinfo.value)
            finally:
                client.close()
                server.shutdown()
                server.server_close()

    def test_close_shuts_every_threads_connection_and_a_later_call_reconnects(
        self, served_farm, count_connects
    ):
        farm, client = served_farm
        count_connects.clear()
        with ServiceClient(f"http://{client.host}:{client.port}") as fresh:
            assert fresh.healthz()["ok"]
            other = threading.Thread(target=fresh.healthz)
            other.start()
            other.join(timeout=30)
            assert not other.is_alive()
            kept = list(fresh._idle)
            assert len(kept) == 2 and all(c.sock is not None for c in kept)
            fresh.close()
            assert all(c.sock is None for c in kept)
            assert fresh.healthz()["ok"]
            assert len(count_connects) == 3
        assert all(c.sock is None for c in fresh._idle)

    def test_a_stock_client_reuses_its_connection_without_stalling(self, served_farm):
        from http.client import HTTPConnection

        farm, client = served_farm
        connection = HTTPConnection(client.host, client.port, timeout=30)
        try:
            started = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200 and not response.will_close
                response.read()
            elapsed = time.perf_counter() - started
        finally:
            connection.close()
        assert elapsed < 0.3, f"20 GETs on one connection took {elapsed:.3f}s"

    def test_an_http_1_0_event_stream_is_bare_lines_to_eof(self, served_farm):
        import json
        import socket

        farm, client = served_farm
        job = client.submit(small_spec(name="keepalive-http10", seed=94))
        expected = list(client.events(job["id"]))
        with socket.create_connection((client.host, client.port), timeout=30) as sock:
            sock.sendall(f"GET /jobs/{job['id']}/events HTTP/1.0\r\n\r\n".encode())
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200")
        assert b"chunked" not in head.lower()
        assert [json.loads(line) for line in body.splitlines()] == expected


# ---------------------------------------------------------------------------
# CLI integration (the `submit` front end is a pure HTTP client)
# ---------------------------------------------------------------------------


class TestCLI:
    def test_workers_arg_spellings(self):
        import argparse

        from repro.cli import _workers_arg

        assert _workers_arg("auto") == 0
        assert _workers_arg("0") == 0
        assert _workers_arg("3") == 3
        with pytest.raises(argparse.ArgumentTypeError):
            _workers_arg("-2")
        with pytest.raises(argparse.ArgumentTypeError):
            _workers_arg("many")

    def test_submit_round_trip_against_a_live_farm(self, served_farm, capsys):
        from repro.cli import main

        farm, client = served_farm
        url = f"http://{client.host}:{client.port}"
        code = main([
            "submit", "--url", url, "--implementations", "splice_plb",
            "--sweep", "degenerate", "--sweep-count", "2", "--seeds", "21",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Submitted job" in out
        assert "# Campaign report" in out

    def test_submit_no_follow_prints_the_handle_only(self, served_farm, capsys):
        from repro.cli import main

        farm, client = served_farm
        url = f"http://{client.host}:{client.port}"
        code = main([
            "submit", "--url", url, "--no-follow", "--implementations",
            "splice_plb", "--sweep", "degenerate", "--sweep-count", "2",
            "--seeds", "22",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "follow with" in out

    def test_submit_reports_an_unreachable_farm(self, capsys):
        from repro.cli import main

        code = main([
            "submit", "--url", "http://127.0.0.1:1", "--implementations",
            "splice_plb", "--sweep", "degenerate",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "no farm reachable" in err

    def test_submit_rejects_contradictory_grid_arguments(self, capsys):
        from repro.cli import main

        code = main(["submit", "--preset", "paper", "--sweep", "linear"])
        assert code == 2
        assert "--preset paper fixes the grid" in capsys.readouterr().err

    def test_serve_drains_gracefully_on_interrupt(self, capsys):
        """``splice serve`` + SIGINT = drain banner, clean exit code 0."""
        import signal
        import threading

        from repro.cli import main

        timer = threading.Timer(2.0, signal.raise_signal, args=(signal.SIGINT,))
        timer.daemon = True
        timer.start()
        try:
            rc = main(["serve", "--port", "0", "--workers", "1",
                       "--drain-timeout", "2"])
        finally:
            timer.cancel()
        assert rc == 0
        out = capsys.readouterr().out
        assert "draining" in out
        assert "shutting down" in out


# ---------------------------------------------------------------------------
# Backpressure, idempotency, stuck-worker watchdog, fuzz jobs
# ---------------------------------------------------------------------------


class _HangingRunner:
    """Goes heartbeat-silent: sleeps far longer than any test watchdog."""

    def run_scenario(self, sets):
        time.sleep(30)
        return {"result": 1, "cycles": 1, "transactions": 0}


class TestBackpressure:
    def test_saturated_farm_rejects_with_retry_after(self):
        """queue_limit=0 means every submission bounces — the deterministic
        way to pin the FarmSaturated contract without timing games."""
        from repro.service import FarmSaturated

        with SimulationFarm(workers=1, queue_limit=0) as farm:
            with pytest.raises(FarmSaturated) as exc:
                farm.submit(small_spec(name="bounced"))
            assert exc.value.retry_after_s > 0
            assert farm.counters["jobs_rejected"] == 1
            assert farm.stats()["saturated"] is True
            assert farm.stats()["queue_limit"] == 0

    def test_http_saturation_is_503_with_retry_after_header(self):
        with SimulationFarm(workers=1, queue_limit=0) as farm:
            server, _thread = serve_farm_in_thread(farm)
            client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
            try:
                with pytest.raises(ServiceError) as exc:
                    client.submit(small_spec(name="http-bounced"))
                assert exc.value.status == 503
                assert exc.value.retry_after is not None
                assert exc.value.retry_after >= 1
            finally:
                client.close()
                server.shutdown()
                server.server_close()

    @fork_only
    def test_limit_admits_again_once_jobs_finish(self):
        from repro.service import FarmSaturated

        _register("zz_slow", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:2],
                name="bp-slow",
            )
            with SimulationFarm(workers=1, shard_size=1, queue_limit=1) as farm:
                first = farm.submit(spec)
                with pytest.raises(FarmSaturated):
                    farm.submit(small_spec(name="bp-over"))
                assert first.wait(timeout=60) == DONE
                # The slot freed; the same submission is admitted now.
                follow_up = farm.submit(small_spec(name="bp-after"))
                assert follow_up.wait(timeout=60) == DONE
        finally:
            _unregister("zz_slow")


class TestIdempotency:
    def test_duplicate_key_returns_the_original_job(self):
        with SimulationFarm(workers=1) as farm:
            spec = small_spec(name="idem")
            first = farm.submit(spec, idempotency_key="idem-key-1")
            again = farm.submit(spec, idempotency_key="idem-key-1")
            assert again is first
            # Even after the job finished, the key still dedupes.
            assert first.wait(timeout=60) == DONE
            assert farm.submit(spec, idempotency_key="idem-key-1") is first
            other = farm.submit(spec, idempotency_key="idem-key-2")
            assert other is not first

    def test_http_duplicate_submit_returns_original_id(self, served_farm):
        farm, client = served_farm
        spec = small_spec(name="http-idem", seed=61)
        first = client.submit(spec, idempotency_key="http-idem-key")
        again = client.submit(spec, idempotency_key="http-idem-key")
        assert again["id"] == first["id"]
        assert again.get("duplicate") is True
        assert "duplicate" not in first

    def test_client_generates_a_key_so_each_submit_is_distinct(self, served_farm):
        farm, client = served_farm
        spec = small_spec(name="http-fresh", seed=62)
        a = client.submit(spec)
        b = client.submit(spec)
        assert a["id"] != b["id"]


class TestStuckWatchdog:
    @fork_only
    def test_silent_worker_is_killed_retried_and_attributed(self):
        """A worker that stops heartbeating is SIGKILLed and the shard
        retried once; a silent retry fails the cells with ``worker_stuck``
        (not ``worker_crash``) and the farm keeps serving."""
        _register("zz_hang", _HangingRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_hang",), scenarios=SCENARIOS[:1],
                name="stuck",
            )
            with SimulationFarm(workers=1, shard_size=1,
                                stuck_timeout_s=0.4) as farm:
                job = farm.submit(spec)
                assert job.wait(timeout=60) == FAILED
                (error,) = job.errors.values()
                assert error.kind == "worker_stuck"
                assert "heartbeat-silent" in error.message
                assert farm.counters["workers_stuck_killed"] == 2
                assert farm.counters["shards_retried"] == 1
                kinds = [e["event"] for e in job.events]
                assert "worker_stuck" in kinds

                follow_up = farm.submit(small_spec(name="after-stuck"))
                assert follow_up.wait(timeout=60) == DONE
        finally:
            _unregister("zz_hang")

    def test_watchdog_can_be_disabled_and_defaults_are_generous(self):
        from repro.service import DEFAULT_STUCK_TIMEOUT_S

        with SimulationFarm(workers=1, stuck_timeout_s=None) as farm:
            job = farm.submit(small_spec(name="no-watchdog"))
            assert job.wait(timeout=60) == DONE
            assert farm.counters["workers_stuck_killed"] == 0
        assert DEFAULT_STUCK_TIMEOUT_S >= 60


class TestFuzzJobs:
    """Fuzz jobs as a first-class farm workload (needs Hypothesis)."""

    @pytest.fixture(autouse=True)
    def _needs_hypothesis(self):
        pytest.importorskip("hypothesis")

    @staticmethod
    def _local_session(seed, budget):
        """The deterministic payload an uninterrupted local session yields."""
        from repro.fuzz.session import run_session, session_payload

        return session_payload(run_session(budget, seed, profile="quick", corpus_dir=None))

    def test_fuzz_job_shards_across_workers_and_matches_local_sessions(self):
        from repro.service import FUZZ, FuzzJobSpec

        spec = FuzzJobSpec(seed_start=0, sessions=2, budget=4)
        with SimulationFarm(workers=2) as farm:
            job = farm.submit_fuzz(spec)
            assert job.kind == FUZZ
            assert job.wait(timeout=300) == DONE
            payload = job.fuzz_result()
        expected = [self._local_session(seed, 4) for seed in (0, 1)]
        assert payload["sessions"] == expected
        assert payload["executed"] == sum(s["executed"] for s in expected)
        merged = sorted({c for s in expected for c in s["coverage"]})
        assert payload["coverage"] == merged
        assert payload["errors"] == {}

    def test_fuzz_job_over_http_streams_session_events(self, served_farm):
        farm, client = served_farm
        snap = client.submit_fuzz(seed_start=5, sessions=2, budget=3)
        assert snap["kind"] == "fuzz"
        events = list(client.events(snap["id"]))
        kinds = [e["event"] for e in events]
        assert kinds.count("session") == 2
        assert kinds[-1] == "state"
        result = client.result(snap["id"])
        assert [s["seed"] for s in result["sessions"]] == [5, 6]
        assert result["meta"]["sessions_total"] == 2

    def test_fuzz_jobs_are_deterministic_across_submissions(self, served_farm):
        """Two identical fuzz submissions produce bit-identical deterministic
        payloads (sessions, coverage, counterexamples) — the property the
        recovery guarantee builds on."""
        farm, client = served_farm
        runs = []
        for _ in range(2):
            snap = client.submit_fuzz(seed_start=7, sessions=2, budget=3)
            client.wait(snap["id"], timeout=300)
            runs.append(client.result(snap["id"]))
        assert runs[0]["sessions"] == runs[1]["sessions"]
        assert runs[0]["coverage"] == runs[1]["coverage"]
        assert runs[0]["counterexamples"] == runs[1]["counterexamples"]

    def test_pinned_seed_range_finds_nothing_and_records_its_coverage(self, tmp_path):
        """Four seeds × 40 cases sharded across warm workers: no finding,
        some coverage, and the job's record in the farm's history file."""
        from repro.service import FuzzJobSpec

        spec = FuzzJobSpec(seed_start=7, sessions=4, budget=40, name="fuzz-farm")
        history = tmp_path / "history.jsonl"
        workers = max(2, min(4, os.cpu_count() or 1))
        with SimulationFarm(workers=workers, name="fuzz-farm", history_path=history) as farm:
            job = farm.submit_fuzz(spec)
            assert job.wait(timeout=600) == DONE
            result = job.fuzz_result()
        assert result["executed"] == 4 * 40
        assert not result["counterexamples"], result["counterexamples"]
        assert result["coverage"], "a pinned fuzz run must cover at least one cell"
        trajectory = [json.loads(line) for line in history.read_text().splitlines()]
        assert any(
            rec["headline"]["seed_start"] == 7
            and rec["headline"]["sessions"] == 4
            and rec["headline"]["coverage_cells"] == len(result["coverage"])
            for rec in trajectory
        ), trajectory

    def test_invalid_fuzz_spec_is_rejected(self, served_farm):
        farm, client = served_farm
        with pytest.raises(ServiceError) as exc:
            client.submit_fuzz(seed_start=0, sessions=0, budget=4)
        assert exc.value.status == 400


# ---------------------------------------------------------------------------
# Bounded retention: compact records, forgotten ids, the active index
# ---------------------------------------------------------------------------


def _raw_get(client, path):
    """One GET without the client's conveniences: (status, JSON body)."""
    import json
    from http.client import HTTPConnection

    connection = HTTPConnection(client.host, client.port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"{}")
    finally:
        connection.close()


@pytest.fixture
def small_windows(monkeypatch):
    """Two full records and four compact ones, so eviction is cheap to reach."""
    import repro.service.farm as farm_mod

    monkeypatch.setattr(farm_mod, "FULL_WINDOW_JOBS", 2)
    monkeypatch.setattr(farm_mod, "COMPACT_WINDOW_JOBS", 4)
    return 2, 4


@pytest.fixture
def evicting_farm(small_windows):
    with SimulationFarm(workers=1, name="evicting-farm") as farm:
        server, _thread = serve_farm_in_thread(farm)
        client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
        try:
            yield farm, client
        finally:
            client.close()
            server.shutdown()
            server.server_close()


def _push_out(farm, spec, count):
    """Finish ``count`` fully cached jobs, sliding older ones out of the windows."""
    for _ in range(count):
        assert farm.submit(spec).state == DONE


class TestRetention:
    def test_resident_jobs_never_exceed_active_plus_the_full_window(self, small_windows):
        full, compact = small_windows
        spec = small_spec(name="retain-bound", seed=70)
        with SimulationFarm(workers=1) as farm:
            assert farm.submit(spec).wait(timeout=60) == DONE
            jobs = [farm.submit(small_spec(name="retain-miss", seed=80 + i))
                    for i in range(3)]
            for _ in range(12):
                assert farm.submit(spec).state == DONE
                stats = farm.stats()
                assert len(farm.jobs()) <= stats["active_jobs"] + full
                assert stats["jobs_resident"] == len(farm.jobs())
                assert stats["jobs_compact"] <= compact
            for job in jobs:
                assert job.wait(timeout=60) == DONE
            stats = farm.stats()
            # Lifetime counters keep counting what the windows forgot.
            assert stats["jobs"][DONE] == 16
            assert stats["job_kinds"]["campaign"] == 16
            assert stats["jobs"]["submitted"] == 16
            assert stats["active_jobs"] == 0
            assert stats["jobs_resident"] == full

    def test_compact_job_answers_status_result_and_events(self, evicting_farm):
        farm, client = evicting_farm
        spec = small_spec(count=3, name="evict", seed=71)
        first = client.submit(spec, idempotency_key="evict-key")
        client.wait(first["id"], timeout=60)
        status, result = client.status(first["id"]), client.result(first["id"])

        _push_out(farm, spec, 2)
        from repro.service import RetiredJob

        assert isinstance(farm.get(first["id"]), RetiredJob)
        assert first["id"] not in {job["id"] for job in client.jobs()}
        assert client.status(first["id"]) == status
        assert client.result(first["id"]) == result
        assert result["cells"] == run_campaign(spec).payload()

        code, body = _raw_get(client, f"/jobs/{first['id']}/events")
        assert code == 410
        assert body["evicted"] is True and body["state"] == DONE
        assert list(client.events(first["id"])) == []
        assert client.wait(first["id"], timeout=10)["state"] == DONE

        again = client.submit(spec, idempotency_key="evict-key")
        assert again["id"] == first["id"]
        assert again["duplicate"] is True
        in_process = farm.submit(spec, idempotency_key="evict-key")
        assert in_process.id == first["id"] and in_process.wait() == DONE

    def test_forgotten_job_answers_404_and_its_key_is_free(self, evicting_farm, small_windows):
        farm, client = evicting_farm
        full, compact = small_windows
        spec = small_spec(name="forget", seed=72)
        first = client.submit(spec, idempotency_key="forget-key")
        client.wait(first["id"], timeout=60)

        _push_out(farm, spec, full + compact)
        assert farm.get(first["id"]) is None
        with pytest.raises(ServiceError) as excinfo:
            client.status(first["id"])
        assert excinfo.value.status == 404
        assert "expired" in str(excinfo.value)
        with pytest.raises(ServiceError) as excinfo:
            client.status("j999999")  # never issued: not "expired"
        assert "no such job" in str(excinfo.value)

        again = client.submit(spec, idempotency_key="forget-key")
        assert again["id"] != first["id"]
        assert "duplicate" not in again

    def test_compact_result_with_a_lost_cache_entry_is_410(self, evicting_farm):
        farm, client = evicting_farm
        spec = small_spec(name="evict-lost", seed=73)
        job = client.submit(spec)
        client.wait(job["id"], timeout=60)
        _push_out(farm, spec, 2)
        with closing(sqlite3.connect(farm.cache.path, isolation_level=None)) as store:
            store.execute("DELETE FROM results")
        code, body = _raw_get(client, f"/jobs/{job['id']}/result")
        assert code == 410
        assert "no longer in the result cache" in body["error"]

    @fork_only
    def test_failed_job_keeps_its_error_rows(self, small_windows):
        _register("zz_exit", _ExitingRunner)
        try:
            crash_spec = CampaignSpec(
                implementations=("zz_exit",), scenarios=SCENARIOS[:1],
                name="evict-crash",
            )
            cached_spec = small_spec(name="evict-crash-filler", seed=74)
            with SimulationFarm(workers=1, shard_size=1) as farm:
                job = farm.submit(crash_spec)
                assert job.wait(timeout=60) == FAILED
                before = job.result_payload()
                assert farm.submit(cached_spec).wait(timeout=60) == DONE
                _push_out(farm, cached_spec, 2)
                compact = farm.get(job.id)
                assert compact is not job and compact.state == FAILED
                assert compact.result_payload() == before
                (cell,) = before["cells"]
                assert "worker_crash" in cell["error"]
        finally:
            _unregister("zz_exit")

    @fork_only
    def test_job_cancelled_mid_shard_retires_only_after_its_late_shard(self, small_windows):
        _register("zz_slow", _SlowRunner)
        try:
            slow_spec = CampaignSpec(
                implementations=("zz_slow",), scenarios=SCENARIOS[:2],
                name="evict-cancel",
            )
            with SimulationFarm(workers=1, shard_size=1) as farm:
                cached_spec = small_spec(name="evict-cancel-filler", seed=75)
                assert farm.submit(cached_spec).wait(timeout=60) == DONE
                job = farm.submit(slow_spec)
                with farm.lock:
                    while not job.in_flight:
                        farm.lock.wait(1.0)
                assert farm.cancel(job.id) is True
                with farm.lock:
                    # Three later jobs finish while the late shard runs:
                    # enough to push the job out if it had been retired.
                    _push_out(farm, cached_spec, 3)
                    assert job.in_flight
                    assert farm.get(job.id) is job
                deadline = time.monotonic() + 30
                with farm.lock:
                    while job.in_flight and time.monotonic() < deadline:
                        farm.lock.wait(0.1)
                assert not job.in_flight
                assert farm.get(job.id) is job  # newest in the full window
                _push_out(farm, cached_spec, 2)
                compact = farm.get(job.id)
                assert compact is not job and compact.state == CANCELLED
                assert job.cells_done < len(job.cells)  # late cells discarded
        finally:
            _unregister("zz_slow")

    def test_evicted_fuzz_job_keeps_its_aggregate(self, small_windows):
        pytest.importorskip("hypothesis")
        from repro.service import FuzzJobSpec

        with SimulationFarm(workers=1) as farm:
            job = farm.submit_fuzz(FuzzJobSpec(seed_start=3, sessions=1, budget=2))
            assert job.wait(timeout=300) == DONE
            before = job.result_payload()
            cached_spec = small_spec(name="evict-fuzz-filler", seed=76)
            assert farm.submit(cached_spec).wait(timeout=60) == DONE
            _push_out(farm, cached_spec, 2)
            compact = farm.get(job.id)
            assert compact is not job
            assert compact.result_payload() == before
            assert compact.snapshot()["kind"] == "fuzz"


class TestResponsesOutsideTheLock:
    def test_status_result_and_events_are_written_without_the_farm_lock(self):
        """A slow reader must never stall the dispatcher or other handlers:
        every byte of a response is written with the farm lock released."""
        import threading

        from repro.service.api import FarmHTTPServer, build_handler

        held = []

        with SimulationFarm(workers=1, name="lock-free-writes") as farm:
            base = build_handler(farm)

            class _Writer:
                def __init__(self, raw):
                    self._raw = raw

                def write(self, data):
                    held.append(farm.lock._is_owned())
                    return self._raw.write(data)

                def __getattr__(self, name):
                    return getattr(self._raw, name)

            class Handler(base):
                def setup(self):
                    super().setup()
                    self.wfile = _Writer(self.wfile)

            server = FarmHTTPServer(("127.0.0.1", 0), Handler)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1])
            try:
                job = client.submit(small_spec(name="lock-free", seed=77))
                client.wait(job["id"], timeout=60)
                held.clear()
                client.status(job["id"])
                client.result(job["id"])
                assert list(client.events(job["id"]))
                assert held and not any(held), held
            finally:
                client.close()
                server.shutdown()
                server.server_close()


class TestBoundedMemory:
    def test_cached_submits_do_not_grow_memory(self, monkeypatch):
        """Fully cached submits, one key each, against windows of 8 full and
        256 compact records: once both windows are full, 500 more submits
        leave the farm holding no more memory than before them.

        Growth is measured over two consecutive 500-submit spans and the
        smaller one is checked: CPython's interned-string table, which
        pathlib churns on every cache lookup, can double once at an
        arbitrary submit (one ~1 MB block), while farm state that grows
        per job would show in both spans."""
        import gc
        import tracemalloc

        import repro.service.farm as farm_mod

        monkeypatch.setattr(farm_mod, "FULL_WINDOW_JOBS", 8)
        monkeypatch.setattr(farm_mod, "COMPACT_WINDOW_JOBS", 256)
        spec = small_spec(name="soak", seed=78)
        marks = {}
        with SimulationFarm(workers=1) as farm:
            assert farm.submit(spec).wait(timeout=60) == DONE
            tracemalloc.start()
            try:
                for index in range(1, 2001):
                    job = farm.submit(spec, idempotency_key=f"soak-{index}")
                    assert job.state == DONE
                    del job
                    assert len(farm.jobs()) <= 8
                    if index % 500 == 0:
                        gc.collect()
                        marks[index] = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            growth = min(marks[1500] - marks[1000], marks[2000] - marks[1500])
            assert growth <= 256 * 1024, f"grew {growth} bytes per 500 submits"
            stats = farm.stats()
            assert stats["jobs_compact"] == 256
            assert stats["jobs_resident"] == 8
