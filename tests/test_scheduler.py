"""The farm's scheduling core, driven with a fake clock and fake worker messages.

:class:`~repro.service.scheduler.Scheduler` holds the whole scheduling
policy and does no I/O, so every test here but the last runs without a
process, thread, socket or file: it feeds the scheduler events, moves a fake
clock and reads the effects the scheduler decides.  The last test checks, on
a real durable farm, the one ordering the shell adds: the journal's group
commit.
"""

import ast
import threading
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.spec import CampaignSpec
from repro.evaluation.scenarios import SCENARIOS
from repro.service import scheduler as scheduler_mod
from repro.service.jobs import (
    CAMPAIGN,
    CANCELLED,
    DONE,
    FAILED,
    FUZZ,
    QUEUED,
    RUNNING,
    TIMEOUT,
    FuzzJobSpec,
    RetiredJob,
)
from repro.service.scheduler import Effect, Scheduler

#: A cell outcome: (result, cycles, transactions).
OUTCOME = (1, 10, 2)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def make(workers=1, **options):
    """A scheduler on a fake clock at 0, with small windows."""
    clock = FakeClock()
    settings = dict(shard_size=4, stuck_timeout_s=60.0, full_window=4, compact_window=4)
    settings.update(options)
    return Scheduler(workers, clock=clock, **settings), clock


def grid(cells=2, name="core", seed=0):
    return CampaignSpec(implementations=("splice_plb",), scenarios=SCENARIOS[:cells],
                        seeds=(seed,), name=name)


def of_kind(effects, kind):
    return [effect for effect in effects if effect.kind == kind]


def events(effects, name):
    return [effect.target for effect in of_kind(effects, "emit")
            if effect.target["event"] == name]


def dispatch(core):
    """Tick once; the tasks it sent, by worker id (other effects dropped)."""
    core.tick()
    return {effect.target: effect.data for effect in of_kind(core.take(), "dispatch")}


def report(core, worker_id, task, cells=None, done=True):
    """The worker reports the first ``cells`` cells of campaign ``task``
    (all of them by default), then its shard boundary if ``done``."""
    _, job_id, shard_id, units = task
    for cell in units[:cells]:
        core.message(("cell", worker_id, job_id, shard_id, cell.key, OUTCOME))
    if done:
        core.message(("shard_done", worker_id, job_id, shard_id, {"pid": 1}))


def test_the_core_imports_no_process_thread_database_os_clock_or_socket_module():
    tree = ast.parse(Path(scheduler_mod.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" in imported, imported
    forbidden = {"multiprocessing", "threading", "sqlite3", "os", "time", "socket"}
    assert not imported & forbidden, imported & forbidden


def test_a_miss_job_runs_shard_by_shard_with_its_effects_in_order():
    """Cache puts land before their shard's ``shard_done`` record and before
    the job's terminal event; every stamp comes from the injected clock."""
    core, clock = make(workers=2, shard_size=2, durable=True)
    job = core.submit(CAMPAIGN, grid(3))
    effects = core.take()
    assert [e.target for e in of_kind(effects, "journal")] == ["submitted"]
    assert [e.target["event"] for e in of_kind(effects, "emit")] == ["submitted"]
    assert job.state == QUEUED and [len(s.cells) for s in job.pending_shards] == [2, 1]

    clock.now = 1.0
    core.tick()
    effects = core.take()
    assert [(e.target, e.data[0]) for e in of_kind(effects, "dispatch")] == [
        (0, "shard"), (1, "shard")]
    (running,) = events(effects, "state")
    assert running["state"] == RUNNING and running["t"] == 1.0 and job.started == 1.0
    assert [e.data["attempt"] for e in of_kind(effects, "journal")] == [1, 1]

    clock.now = 3.5
    tasks = {e.target: e.data for e in of_kind(effects, "dispatch")}
    for worker_id in (0, 1):
        report(core, worker_id, tasks[worker_id])
    sequence = [
        e.kind if e.kind in ("cache_put", "history") else
        f"{e.kind}:{e.target if e.kind == 'journal' else e.target['event']}"
        for e in core.take()
    ]
    assert sequence == [
        "cache_put", "emit:cell", "cache_put", "emit:cell", "journal:shard_done",
        "cache_put", "emit:cell", "journal:shard_done", "emit:state", "journal:finished",
    ]
    assert job.state == DONE and job.finished == 3.5 and job.events[-1]["t"] == 3.5
    assert job.elapsed_s == 3.5 and core.workers[0].busy_s == 2.5
    assert job.id in core.window and not core.active


def test_a_worker_crash_retries_each_unfinished_cell_once_on_its_own():
    core, _ = make()
    job = core.submit(CAMPAIGN, grid(3))
    (task,) = dispatch(core).values()
    report(core, 0, task, cells=1, done=False)  # one cell, then the worker dies
    core.take()
    core.worker_exited(0)
    effects = core.take()
    assert effects[0] == Effect("spawn", 0)
    (retry,) = events(effects, "shard_retry")
    assert retry["shard"] == task[2] and retry["worker"] == 0 and retry["stuck"] is False
    assert core.counters["shards_retried"] == 1 and core.counters["workers_respawned"] == 1
    assert [(len(s.cells), s.attempts) for s in job.pending_shards] == [(1, 1), (1, 1)]
    assert core.workers[0].respawns == 1 and core.workers[0].busy is None

    for _ in range(2):
        (retry_task,) = dispatch(core).values()
        assert len(retry_task[3]) == 1
        report(core, 0, retry_task)
    assert job.state == DONE and not job.errors
    assert core.counters["cells_executed"] == 3


def test_a_cell_that_kills_its_worker_twice_gets_a_worker_crash_row_alone():
    core, _ = make()
    job = core.submit(CAMPAIGN, grid(2))
    dispatch(core)
    core.worker_exited(0)  # dies before reporting anything: both cells retried
    (survivor,) = dispatch(core).values()
    report(core, 0, survivor)
    (killer,) = dispatch(core).values()
    core.take()
    core.worker_exited(0)  # the other cell kills its worker again
    effects = core.take()
    (failed,) = events(effects, "shard_failed")
    assert failed["cells_failed"] == 1 and failed["cause"] == "worker_crash"
    assert list(job.errors) == [killer[3][0].key]
    (error,) = job.errors.values()
    assert (error.kind, error.message) == (
        "worker_crash", "the worker process died before it finished, and again on the retry")
    assert job.state == FAILED and events(effects, "state")[-1]["cells_failed"] == 1
    assert core.counters["cells_failed"] == 1 and core.counters["shards_retried"] == 1


def test_a_silent_worker_is_killed_and_a_second_silence_fails_its_cell_as_stuck():
    core, clock = make(stuck_timeout_s=5.0)
    job = core.submit(CAMPAIGN, grid(1))
    dispatch(core)
    clock.now = 4.0
    core.message(("heartbeat", 0))
    clock.now = 9.0  # silent for exactly the bound: not yet stuck
    core.tick()
    assert core.take() == []
    clock.now = 9.5
    core.tick()
    effects = core.take()
    assert Effect("kill", 0) in effects
    (stuck,) = events(effects, "worker_stuck")
    assert stuck["silent_s"] == 5.5 and stuck["worker"] == 0
    core.tick()
    assert core.take() == []  # killed once, not again before it is reaped
    core.worker_exited(0)
    (retry,) = events(core.take(), "shard_retry")
    assert retry["stuck"] is True

    dispatch(core)
    clock.now = 20.0
    core.tick()
    core.worker_exited(0)
    effects = core.take()
    (failed,) = events(effects, "shard_failed")
    assert failed["cause"] == "worker_stuck"
    (error,) = job.errors.values()
    assert error.kind == "worker_stuck"
    assert job.state == FAILED and core.counters["workers_stuck_killed"] == 2


def test_no_watchdog_without_a_stuck_timeout():
    core, clock = make(stuck_timeout_s=None)
    core.submit(CAMPAIGN, grid(1))
    dispatch(core)
    clock.now = 1e9
    core.tick()
    assert core.take() == [] and core.counters["workers_stuck_killed"] == 0


def test_a_job_times_out_and_its_late_shard_is_discarded():
    core, clock = make(durable=True)
    job = core.submit(CAMPAIGN, grid(2), timeout_s=10.0)
    (task,) = dispatch(core).values()
    clock.now = 9.9
    core.tick()
    assert job.state == RUNNING
    clock.now = 10.0
    core.tick()
    effects = core.take()
    (state,) = events(effects, "state")
    assert (state["state"], state["timeout_s"], state["cells_done"], state["t"]) == (
        TIMEOUT, 10.0, 0, 10.0)
    assert Effect("journal", "finished", {"job": job.id, "state": TIMEOUT}) in effects
    assert core.get(job.id) is job and job.id not in core.window  # shard still out

    report(core, 0, task)
    assert core.counters["cells_discarded"] == 2 and not job.fresh
    assert job.id in core.window and core.workers[0].busy is None
    assert of_kind(core.take(), "cache_put") == []


def test_cancel_drops_a_queued_job_and_stops_a_running_one_at_its_shard_boundary():
    core, _ = make(durable=True)
    running = core.submit(CAMPAIGN, grid(2, name="running"))
    queued = core.submit(CAMPAIGN, grid(2, name="queued", seed=1))
    (task,) = dispatch(core).values()
    assert task[1] == running.id
    core.take()

    assert core.cancel(queued.id) is True
    effects = core.take()
    assert queued.state == CANCELLED
    assert events(effects, "state")[0]["shards_in_flight"] == 0
    assert Effect("journal", "cancelled", {"job": queued.id}) in effects
    assert core.cancel(queued.id) is False

    assert core.cancel(running.id) is True
    assert events(core.take(), "state")[0]["shards_in_flight"] == 1
    assert running.id not in core.window  # retired only once its shard is back
    report(core, 0, task)
    assert core.counters["cells_discarded"] == 2 and running.cells_done == 0
    assert running.id in core.window
    assert dispatch(core) == {}  # the cancelled queued job never runs


def test_a_dispatcher_failure_fails_every_active_job_and_refuses_new_ones():
    core, _ = make(durable=True)
    campaign = core.submit(CAMPAIGN, grid(2))
    fuzz = core.submit(FUZZ, FuzzJobSpec(seed_start=0, sessions=2, budget=1))
    dispatch(core)
    core.take()
    core.fail("OperationalError: database or disk is full")
    effects = core.take()
    assert campaign.state == fuzz.state == FAILED and not core.active
    assert {event["reason"] for event in events(effects, "state")} == {
        "farm dispatcher failed: OperationalError: database or disk is full"}
    assert of_kind(effects, "journal") == []  # unjournaled: a restart resumes them
    with pytest.raises(RuntimeError, match="dispatcher failed"):
        core.submit(CAMPAIGN, grid(1))


def test_retention_keeps_a_full_window_then_a_compact_one_then_forgets():
    core, _ = make(full_window=2, compact_window=3)
    spec = grid(2)
    cached = {cell.key: OUTCOME for cell in spec.cells()}
    jobs = [core.submit(CAMPAIGN, spec, cached=cached, idempotency_key=f"key-{index}")
            for index in range(6)]
    assert all(job.state == DONE for job in jobs)
    assert list(core.window) == [jobs[4].id, jobs[5].id]
    assert list(core.retired_order) == [job.id for job in jobs[1:4]]
    assert core.get(jobs[5].id) is jobs[5]
    assert isinstance(core.get(jobs[1].id), RetiredJob)
    assert core.job_for_key("key-1").id == jobs[1].id  # compact records still dedupe
    assert core.get(jobs[0].id) is None and core.job_for_key("key-0") is None
    again = core.submit(CAMPAIGN, spec, cached=cached, idempotency_key="key-0")
    assert again.id == "j000007" and core.finished_counts[DONE] == 7


@pytest.mark.parametrize("reported_boundary", [True, False])
def test_a_worker_that_finished_its_shard_and_then_died_is_not_retried(reported_boundary):
    """Its last messages are handled before its exit, so its shard has
    nothing left to retry: no retry, no event, no counter but the respawn."""
    core, _ = make()
    job = core.submit(CAMPAIGN, grid(1))
    (task,) = dispatch(core).values()
    report(core, 0, task, done=reported_boundary)
    core.take()
    before = dict(core.counters)
    core.worker_exited(0)
    effects = core.take()
    assert events(effects, "shard_retry") == [] and events(effects, "shard_failed") == []
    assert job.state == DONE and not job.errors
    before["workers_respawned"] += 1
    assert core.counters == before


@pytest.mark.parametrize("reported_boundary", [True, False])
def test_a_retried_cell_that_reported_before_its_worker_died_is_not_failed(reported_boundary):
    core, _ = make()
    job = core.submit(CAMPAIGN, grid(2))
    dispatch(core)
    core.worker_exited(0)  # first attempt: nothing reported, both cells retried
    (retry,) = dispatch(core).values()
    report(core, 0, retry, done=reported_boundary)
    core.take()
    before = dict(core.counters)
    core.worker_exited(0)
    effects = core.take()
    assert events(effects, "shard_failed") == [] and not job.errors
    before["workers_respawned"] += 1
    assert core.counters == before
    (last,) = dispatch(core).values()
    report(core, 0, last)
    assert job.state == DONE and len(job.fresh) == 2


def test_a_readmitted_fuzz_job_runs_only_its_missing_seeds():
    """Fuzz jobs take the same admission path, one shard per seed; a job the
    journal recorded resumes from its restored sessions."""
    core, _ = make(workers=2, durable=True)
    session = {"seed": 6, "executed": 2, "rounds": 1, "counterexamples": [],
               "coverage": ["plb:poke:none"]}
    job = core.submit(FUZZ, FuzzJobSpec(seed_start=5, sessions=3, budget=2),
                      job_id="j000009", restored={6: session, 99: session})
    effects = core.take()
    assert of_kind(effects, "journal") == []  # already in the journal
    (submitted,) = events(effects, "submitted")
    assert submitted["recovered"] is True and submitted["sessions_done"] == 1
    assert core.counters["jobs_recovered"] == 1 and core.counters["sessions_recovered"] == 1

    tasks = dispatch(core)
    assert sorted(task[3]["seed"] for task in tasks.values()) == [5, 7]
    for worker_id, task in tasks.items():
        payload = dict(session, seed=task[3]["seed"])
        core.message(("fuzz_done", worker_id, job.id, task[2], payload, 0.1, {"pid": 2}))
    effects = core.take()
    assert job.state == DONE and sorted(job.fresh) == [5, 6, 7]
    assert [e.data["seed"] for e in of_kind(effects, "journal")
            if e.target == "shard_done"] == [5, 7]
    assert Effect("history", job) in effects


def test_a_cached_durable_submit_commits_with_one_fsync_outside_the_farm_lock(
        tmp_path, monkeypatch):
    """Group commit survives the split: a fully cached submit's two journal
    records cost one fsync, on the submitting thread, with the lock free."""
    from repro.service import journal as journal_mod
    from repro.service.farm import SimulationFarm

    spec = grid(2, name="group-commit")
    cache = ResultCache(tmp_path / "state" / "cache")
    try:
        for cell in spec.cells():
            cache.put(cell, OUTCOME)
    finally:
        cache.close()
    calls = []
    real_fsync = journal_mod.os.fsync
    with SimulationFarm(workers=1, state_dir=tmp_path / "state") as farm:
        def fsync(fd):
            calls.append((threading.get_ident(), farm.lock._is_owned()))
            real_fsync(fd)

        monkeypatch.setattr(journal_mod.os, "fsync", fsync)
        for _ in range(3):
            calls.clear()
            assert farm.submit(spec).state == DONE
            assert calls == [(threading.get_ident(), False)]
        assert farm.stats()["journal_records"] == 6
