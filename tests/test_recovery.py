"""Crash recovery: the durable job journal and shard-checkpoint resume.

The contract under test is the PR's acceptance criterion: kill -9 the
``splice serve`` process mid-job, restart it on the same ``--state-dir``,
and every non-terminal job is re-enqueued at its original priority and
resumed from its last completed shard — completed campaign cells answered
from the shared result cache (never re-executed), completed fuzz sessions
restored from the journal — with final results bit-identical to an
uninterrupted run.

Three layers of tests:

* journal unit semantics (append/replay/compaction, torn-tail tolerance),
* whole-row cache writes under concurrent writers (the property recovery's
  zero-re-execution guarantee leans on),
* whole-process recovery: in-process farm restarts, and real ``SIGKILL`` of
  a ``splice serve`` subprocess mid-campaign and mid-fuzz-job.
"""

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import CampaignSpec, ScenarioSweep, run_campaign, sweep_grid
from repro.campaign.cache import STORE_FILENAME, ResultCache
from repro.evaluation.scenarios import SCENARIOS
from repro.service import (
    DONE,
    JOURNAL_FILENAME,
    JobJournal,
    ServiceClient,
    SimulationFarm,
    append_jsonl,
    replay_journal,
)

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="runtime-registered runners only reach workers under fork",
)


def small_spec(count=2, name="rec-small", seed=0):
    return sweep_grid(
        ScenarioSweep(mode="degenerate", count=count),
        implementations=("splice_plb",),
        seeds=(seed,),
        name=name,
    )


# ---------------------------------------------------------------------------
# Journal unit semantics
# ---------------------------------------------------------------------------


class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / JOURNAL_FILENAME)
        journal.append("submitted", job="j000001", kind="campaign", priority=3,
                       timeout_s=None, spec={"implementations": ["x"]},
                       idempotency_key="k1")
        journal.append("shard_dispatched", job="j000001", shard=0, worker=0,
                       attempt=1)
        journal.append("shard_done", job="j000001", shard=0, cells=["d1", "d2"])
        journal.append("submitted", job="j000002", kind="fuzz", priority=0,
                       timeout_s=5.0, fuzz={"seed_start": 9, "sessions": 2,
                                            "budget": 4},
                       idempotency_key=None)
        journal.append("shard_done", job="j000002", shard=0, seed=9,
                       session={"seed": 9, "executed": 4})
        journal.append("finished", job="j000001", state="done")
        journal.close()

        replay = replay_journal(journal.path)
        assert replay.skipped == 0
        assert replay.seq == 2
        assert set(replay.jobs) == {"j000001", "j000002"}
        assert not replay.jobs["j000001"].live
        assert replay.jobs["j000001"].terminal == "done"
        fuzz = replay.jobs["j000002"]
        assert fuzz.live
        assert fuzz.kind == "fuzz"
        assert fuzz.timeout_s == 5.0
        assert fuzz.sessions == {9: {"seed": 9, "executed": 4}}
        assert replay.jobs["j000001"].idempotency_key == "k1"
        assert [j.job_id for j in replay.live_jobs()] == ["j000002"]

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_FILENAME
        journal = JobJournal(path)
        journal.append("submitted", job="j000001", kind="campaign", priority=0,
                       timeout_s=None, spec={"implementations": ["x"]})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"type": "shard_done", "job": "j000001", "cel')  # torn
        replay = replay_journal(path)
        assert replay.skipped == 1
        assert replay.jobs["j000001"].live

    def test_missing_journal_is_an_empty_replay(self, tmp_path):
        replay = replay_journal(tmp_path / "nope.jsonl")
        assert replay.jobs == {}
        assert replay.seq == 0

    def test_append_jsonl_adds_one_sorted_line_per_record(self, tmp_path):
        path = tmp_path / "history" / "fuzz.jsonl"  # the parent is created
        append_jsonl(path, {"seed": 7, "coverage": [1, 2]})
        append_jsonl(str(path), {"seed": 8})
        assert path.read_text(encoding="utf-8") == '{"coverage":[1,2],"seed":7}\n{"seed":8}\n'

    def test_compaction_keeps_live_jobs_and_fuzz_sessions_only(self, tmp_path):
        journal = JobJournal(tmp_path / JOURNAL_FILENAME)
        journal.append("submitted", job="j000001", kind="campaign", priority=0,
                       timeout_s=None, spec={"implementations": ["x"]})
        journal.append("shard_done", job="j000001", shard=0, cells=["d1"])
        journal.append("finished", job="j000001", state="done")
        journal.append("submitted", job="j000002", kind="fuzz", priority=1,
                       timeout_s=None, fuzz={"seed_start": 0, "sessions": 2,
                                             "budget": 4})
        journal.append("shard_done", job="j000002", shard=0, seed=0,
                       session={"seed": 0, "executed": 4})
        journal.append("shard_dispatched", job="j000002", shard=1, worker=0,
                       attempt=1)

        replay = replay_journal(journal.path)
        journal.compact(replay.compaction_records())
        journal.close()

        lines = [json.loads(line)
                 for line in journal.path.read_text().splitlines()]
        types = [record["type"] for record in lines]
        # Header + the live fuzz job's submission + its durable session;
        # the finished campaign job and the dispatch record are gone.
        assert types == ["journal", "submitted", "shard_done"]
        assert lines[0]["seq"] == 2
        assert lines[1]["job"] == "j000002"
        # The compacted journal replays to the same live state.
        again = replay_journal(journal.path)
        assert again.seq == 2
        assert [j.job_id for j in again.live_jobs()] == ["j000002"]
        assert again.jobs["j000002"].sessions[0]["executed"] == 4

    def test_ids_never_reused_after_compaction(self, tmp_path):
        """The compaction header pins the sequence even when every job is
        terminal — a restart must not hand out a job id a client of the
        previous incarnation might still be polling."""
        journal = JobJournal(tmp_path / JOURNAL_FILENAME)
        journal.append("submitted", job="j000007", kind="campaign", priority=0,
                       timeout_s=None, spec={"implementations": ["x"]})
        journal.append("finished", job="j000007", state="done")
        replay = replay_journal(journal.path)
        journal.compact(replay.compaction_records())
        journal.close()
        assert replay_journal(journal.path).seq == 7


# ---------------------------------------------------------------------------
# Atomic cache writes under concurrency
# ---------------------------------------------------------------------------


class TestAtomicCacheWrites:
    def test_concurrent_writers_never_publish_a_torn_entry(self, tmp_path):
        """Many threads hammering the same cell digest while a reader polls:
        every read after the first put returns the complete outcome."""
        cache = ResultCache(tmp_path / "cache")
        spec = small_spec(name="atomic")
        cell = spec.cells()[0]
        stop = threading.Event()
        seen = []

        def writer():
            while not stop.is_set():
                cache.put(cell, (1, 2, 3))

        def reader():
            while not stop.is_set():
                outcome = cache.get(cell)
                if outcome is not None or seen:
                    seen.append(outcome)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        time.sleep(0.5)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen, "the reader never saw the entry"
        assert set(seen) == {(1, 2, 3)}
        assert cache.get(cell) == (1, 2, 3)
        # Nothing but the store's own files.
        assert {path.name for path in cache.directory.iterdir()} <= {
            STORE_FILENAME, STORE_FILENAME + "-wal", STORE_FILENAME + "-shm"}


# ---------------------------------------------------------------------------
# In-process farm restarts (stop mid-job, recover on the same state dir)
# ---------------------------------------------------------------------------


class _SlowRunner:
    def run_scenario(self, sets):
        time.sleep(0.12)
        return {"result": 1, "cycles": 1, "transactions": 0}


def _register(label, builder):
    from repro.devices.registry import register_runner

    register_runner(label, builder, replace=True)


def _unregister(label):
    from repro.devices.registry import _BUILDERS

    _BUILDERS.pop(label, None)


class TestInProcessRecovery:
    @fork_only
    def test_campaign_resumes_from_cache_with_zero_reexecution(self, tmp_path):
        _register("zz_slowrec", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slowrec",), scenarios=SCENARIOS[:4],
                name="midstop",
            )
            farm = SimulationFarm(workers=1, shard_size=1,
                                  state_dir=tmp_path / "state").start()
            try:
                job = farm.submit(spec, priority=4)
                with farm.lock:
                    while len(job.fresh) < 2:
                        farm.lock.wait(1.0)
            finally:
                farm.stop()  # hard stop mid-job; deliberately not journaled

            farm2 = SimulationFarm(workers=1, shard_size=1,
                                   state_dir=tmp_path / "state").start()
            try:
                recovered = farm2.get(job.id)
                assert recovered is not None
                assert recovered.recovered
                assert recovered.priority == 4
                cached = len(recovered.cached)
                assert cached >= 2  # completed cells answered from the cache
                assert farm2.counters["jobs_recovered"] == 1
                assert recovered.wait(timeout=60) == DONE
                # Zero re-execution: only the not-yet-cached cells ran.
                assert farm2.counters["cells_executed"] == (
                    len(recovered.cells) - cached
                )
                diff = recovered.result().diff(run_campaign(spec))
                assert diff is None, diff
            finally:
                farm2.stop()
        finally:
            _unregister("zz_slowrec")

    @fork_only
    def test_restart_after_eviction_resumes_the_live_job(self, tmp_path, monkeypatch):
        """Finished jobs shrunk to compact records, or forgotten, change
        nothing about recovery: the live job resumes bit-identical and the
        id sequence continues past every id issued before the restart."""
        import repro.service.farm as farm_mod

        monkeypatch.setattr(farm_mod, "FULL_WINDOW_JOBS", 1)
        monkeypatch.setattr(farm_mod, "COMPACT_WINDOW_JOBS", 2)
        _register("zz_slowrec", _SlowRunner)
        try:
            spec = CampaignSpec(
                implementations=("zz_slowrec",), scenarios=SCENARIOS[:4],
                name="evict-live",
            )
            filler = small_spec(name="evict-filler")
            farm = SimulationFarm(workers=1, shard_size=1,
                                  state_dir=tmp_path / "state").start()
            try:
                finished = [farm.submit(filler, idempotency_key="fill-0")]
                assert finished[0].wait(timeout=60) == DONE
                finished += [farm.submit(filler, idempotency_key=f"fill-{i}")
                             for i in range(1, 5)]
                stats = farm.stats()
                assert stats["jobs_resident"] == 1 and stats["jobs_compact"] == 2
                job = farm.submit(spec, priority=3)
                with farm.lock:
                    while len(job.fresh) < 1:
                        farm.lock.wait(1.0)
            finally:
                farm.stop()

            farm2 = SimulationFarm(workers=1, shard_size=1,
                                   state_dir=tmp_path / "state").start()
            try:
                assert farm2.counters["jobs_recovered"] == 1
                recovered = farm2.get(job.id)
                assert recovered.recovered and recovered.priority == 3
                cached = len(recovered.cached)
                assert recovered.wait(timeout=60) == DONE
                assert farm2.counters["cells_executed"] == (
                    len(recovered.cells) - cached
                )
                diff = recovered.result().diff(run_campaign(spec))
                assert diff is None, diff
                for old in finished:
                    assert farm2.get(old.id) is None
                    assert farm2.expired(old.id)
                issued = {old.id for old in finished} | {job.id}
                later = farm2.submit(filler, idempotency_key="fill-0")
                assert later.id not in issued and later.id > job.id
            finally:
                farm2.stop()
        finally:
            _unregister("zz_slowrec")

    def test_fuzz_job_resumes_from_journaled_sessions(self, tmp_path):
        pytest.importorskip("hypothesis")
        from repro.fuzz.session import run_session, session_payload

        farm = SimulationFarm(workers=1,
                              state_dir=tmp_path / "state").start()
        try:
            job = farm.submit_fuzz({"seed_start": 20, "sessions": 3,
                                    "budget": 4})
            with farm.lock:
                while not job.fresh:
                    farm.lock.wait(1.0)
        finally:
            farm.stop()

        done_before = len(job.fresh)
        farm2 = SimulationFarm(workers=1,
                               state_dir=tmp_path / "state").start()
        try:
            recovered = farm2.get(job.id)
            assert recovered is not None and recovered.recovered
            assert len(recovered.fresh) >= done_before >= 1
            assert farm2.counters["sessions_recovered"] >= done_before
            assert recovered.wait(timeout=300) == DONE
            payload = recovered.fuzz_result()
        finally:
            farm2.stop()

        expected = [session_payload(run_session(4, seed, profile="quick", corpus_dir=None))
                    for seed in (20, 21, 22)]
        assert payload["sessions"] == expected  # bit-identical resume

    def test_terminal_jobs_are_not_recovered_and_ids_advance(self, tmp_path):
        spec = small_spec(name="terminal")
        farm = SimulationFarm(workers=1, state_dir=tmp_path / "state").start()
        try:
            job = farm.submit(spec)
            assert job.wait(timeout=60) == DONE
        finally:
            farm.stop()
        farm2 = SimulationFarm(workers=1, state_dir=tmp_path / "state").start()
        try:
            assert farm2.get(job.id) is None
            assert farm2.counters["jobs_recovered"] == 0
            # The sequence continues past the compacted job's id...
            next_job = farm2.submit(small_spec(name="next", seed=1))
            assert next_job.id > job.id
            # ...and the first job's cells are a pure cache hit.
            again = farm2.submit(spec)
            assert again.wait(timeout=60) == DONE
            assert len(again.cached) == len(again.cells)
        finally:
            farm2.stop()

    def test_idempotency_keys_survive_restart(self, tmp_path):
        """A client retrying a POST after a server crash must get its
        original (journaled, recovered) job back, not a duplicate."""
        pytest.importorskip("hypothesis")
        farm = SimulationFarm(workers=1, state_dir=tmp_path / "state").start()
        try:
            job = farm.submit_fuzz(
                {"seed_start": 0, "sessions": 2, "budget": 3},
                idempotency_key="retry-me",
            )
        finally:
            farm.stop()
        farm2 = SimulationFarm(workers=1, state_dir=tmp_path / "state").start()
        try:
            again = farm2.submit_fuzz(
                {"seed_start": 0, "sessions": 2, "budget": 3},
                idempotency_key="retry-me",
            )
            assert again.id == job.id
            assert again.recovered
        finally:
            farm2.stop()


# ---------------------------------------------------------------------------
# SIGKILL of a real `splice serve` subprocess
# ---------------------------------------------------------------------------


_BANNER = re.compile(r"serving on http://([0-9.]+):(\d+)")


def _start_serve(state_dir, extra=()):
    """Start `splice serve` on an ephemeral port; returns (proc, client)."""
    env = dict(os.environ)
    repo_src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))",
         "serve", "--port", "0", "--workers", "1",
         "--state-dir", str(state_dir), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    deadline = time.monotonic() + 60
    for line in proc.stdout:
        match = _BANNER.search(line)
        if match:
            return proc, ServiceClient(f"http://{match.group(1)}:{match.group(2)}")
        if time.monotonic() > deadline:
            break
    proc.kill()
    raise RuntimeError("serve subprocess never printed its banner")


def _stop_serve(proc):
    if proc.poll() is None:
        proc.kill()
    proc.stdout.close()
    proc.wait(timeout=30)


def _pid_running(pid):
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True  # no procfs: a signalable pid counts as running
    # The state letter follows the parenthesised command name.
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestServeKillRecovery:
    def test_worker_exits_when_its_server_is_killed(self, tmp_path):
        """A SIGKILLed server never sends its workers the stop message;
        an idle worker must notice its dead parent and exit on its own."""
        proc, client = _start_serve(tmp_path / "state")
        worker_pid = None
        try:
            deadline = time.monotonic() + 60
            while worker_pid is None and time.monotonic() < deadline:
                workers = client.stats()["workers"]
                worker_pid = workers[0].get("pid") if workers else None
                if worker_pid is None:
                    time.sleep(0.05)
            assert worker_pid is not None, "the worker never reported ready"
            os.kill(proc.pid, signal.SIGKILL)
        finally:
            _stop_serve(proc)
        try:
            deadline = time.monotonic() + 10
            while _pid_running(worker_pid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _pid_running(worker_pid), (
                f"farm worker {worker_pid} outlived its SIGKILLed server"
            )
        finally:
            if _pid_running(worker_pid):
                os.kill(worker_pid, signal.SIGKILL)

    def test_sigkill_mid_campaign_recovers_bit_identical(self, tmp_path):
        """The acceptance criterion, end to end: SIGKILL the server after
        the first cell completes, restart on the same --state-dir, and the
        job finishes with a payload bit-identical to the batch runner —
        with every already-cached cell served from the cache."""
        state = tmp_path / "state"
        spec = small_spec(count=10, name="kill-campaign")
        total = len(spec.cells())
        proc, client = _start_serve(state)
        try:
            snap = client.submit(spec, priority=2)
            for event in client.events(snap["id"]):
                if event.get("event") == "cell":
                    os.kill(proc.pid, signal.SIGKILL)
                    break
        except (ConnectionError, OSError):
            pass  # the stream died with the server; expected
        finally:
            _stop_serve(proc)

        # The journal survived the kill and holds the live job.
        replay = replay_journal(state / JOURNAL_FILENAME)
        assert [j.job_id for j in replay.live_jobs()] == [snap["id"]]

        proc2, client2 = _start_serve(state)
        try:
            status = client2.status(snap["id"])  # same id after restart
            assert status["recovered"] is True
            assert status["priority"] == 2
            final = client2.wait(snap["id"], timeout=300)
            assert final["state"] == "done"
            result = client2.result(snap["id"])
            cached = result["meta"]["cells_cached"]
            assert cached >= 1  # at least the pre-kill cell came from cache
            stats = client2.stats()
            # Zero re-execution of cached shards in the second incarnation.
            assert stats["cells"]["cells_executed"] == total - cached
            assert stats["cells"]["jobs_recovered"] == 1
        finally:
            _stop_serve(proc2)

        assert result["cells"] == run_campaign(spec).to_dict()["cells"]

    def test_sigkill_mid_fuzz_job_resumes_completed_sessions(self, tmp_path):
        pytest.importorskip("hypothesis")
        from repro.fuzz.session import run_session, session_payload

        state = tmp_path / "state"
        proc, client = _start_serve(state)
        try:
            snap = client.submit_fuzz(seed_start=30, sessions=3, budget=4)
            for event in client.events(snap["id"]):
                if event.get("event") == "session":
                    os.kill(proc.pid, signal.SIGKILL)
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            _stop_serve(proc)

        replay = replay_journal(state / JOURNAL_FILENAME)
        (live,) = replay.live_jobs()
        assert live.job_id == snap["id"]
        done_before = len(live.sessions)
        assert done_before >= 1  # the journaled session survived the kill

        proc2, client2 = _start_serve(state)
        try:
            final = client2.wait(snap["id"], timeout=600)
            assert final["state"] == "done"
            assert final["recovered"] is True
            result = client2.result(snap["id"])
            stats = client2.stats()
            assert stats["cells"]["sessions_recovered"] >= done_before
            assert stats["cells"]["sessions_executed"] <= 3 - done_before
        finally:
            _stop_serve(proc2)

        expected = [session_payload(run_session(4, seed, profile="quick", corpus_dir=None))
                    for seed in (30, 31, 32)]
        assert result["sessions"] == expected  # bit-identical to uninterrupted
