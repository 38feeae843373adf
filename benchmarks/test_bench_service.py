"""Service farm latency gates.

Drives a live farm (real worker processes, real HTTP server, real stdlib
clients) with concurrent small-grid submissions from 16 client threads, in
two phases over the *same* job population:

* **cold** — every spec is new: each job queues, is dispatched to a warm
  worker, simulates, and streams back;
* **warm** — the identical specs are resubmitted: every cell is answered
  from the shared content-addressed result cache at submit time, without
  touching a worker (per-job hit rate must be exactly 1.0).

Latency is submit-to-final-state as the clients observe it (the full
HTTP → queue → worker → stream round trip).  The cold ÷ warm p50 ratio is
what the result cache buys a repeat submission end to end (≥5x full, ≥3x
with ``--smoke``, where the smaller population makes the ratio noisier).
One cold job is also checked bit-identical against ``run_campaign`` on the
same spec — load must not change results.
"""

import os
import time
from concurrent.futures import ThreadPoolExecutor

from repro.campaign import ScenarioSweep, run_campaign, sweep_grid
from repro.service import ServiceClient, SimulationFarm, serve_farm_in_thread

_WORKERS = max(2, min(4, os.cpu_count() or 1))
_CLIENT_THREADS = 16
#: 2 geometric scenarios x 4 repeats: a small grid, but one that actually
#: simulates a few thousand bus cycles — so the cold phase measures real
#: submit→simulate→stream round trips, not just HTTP overhead.
_CELLS_PER_JOB = 8


def _specs(count):
    """``count`` distinct small grids (the seed varies the cell digests,
    so no cold job can accidentally hit another job's cache entries)."""
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


def _drive(client, specs):
    """Submit every spec from a 16-thread client pool; return the final
    snapshots and the median submit-to-terminal-state latency."""

    def one(spec):
        start = time.perf_counter()
        final = client.submit_and_wait(spec, timeout=300)
        return final, time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=_CLIENT_THREADS) as pool:
        outcomes = list(pool.map(one, specs))
    finals = [final for final, _ in outcomes]
    latencies = sorted(latency for _, latency in outcomes)
    assert all(final["state"] == "done" for final in finals)
    return finals, latencies[int(0.5 * (len(latencies) - 1))]


def _served(farm):
    server, _thread = serve_farm_in_thread(farm)
    client = ServiceClient("http://127.0.0.1:%d" % server.server_address[1], timeout=300)
    return server, client


def test_service_cold_vs_warm_latency_under_load(smoke):
    job_count = 24 if smoke else 192
    specs = _specs(job_count)

    with SimulationFarm(workers=_WORKERS, name="bench-farm") as farm:
        server, client = _served(farm)
        try:
            cold_finals, cold_p50 = _drive(client, specs)

            # Load must not change results: one served job, bit-identical
            # to the batch runner on the same spec.
            batch = run_campaign(specs[0])
            served = client.result(cold_finals[0]["id"])
            assert served["cells"] == batch.payload()

            warm_finals, warm_p50 = _drive(client, specs)
            stats = client.stats()
        finally:
            server.shutdown()
            server.server_close()

    # Warm phase = pure cache reads: every job fully cached, no worker cells.
    assert all(
        final["cells_cached"] == final["cells_total"] for final in warm_finals
    )
    assert stats["cells"]["cells_executed"] == job_count * _CELLS_PER_JOB

    # The cache short-circuit is architectural, not a tuning artifact: a
    # warm submission does no simulation at all, so even on a noisy host the
    # end-to-end median must be several times faster than cold.
    speedup = round(cold_p50 / warm_p50, 2) if warm_p50 > 0 else None
    assert speedup is not None and speedup >= (3.0 if smoke else 5.0), (cold_p50, warm_p50)


def test_journal_overhead_on_warm_path(smoke, tmp_path):
    """Durability must be close to free on the fast path.

    With ``--state-dir`` a fully-cached submission still writes two fsync'd
    journal records (``submitted`` + ``finished``) before the client sees a
    terminal state.  This drives the identical warm (100%-cached) population
    through two farms sharing one result-cache directory — one ephemeral,
    one journalled — and gates the journalled warm p50 at no worse than
    15% over the ephemeral one (plus a 10 ms absolute floor so sub-ms
    medians on fast hosts don't turn disk-latency noise into failures).
    """
    job_count = 12 if smoke else 96
    specs = _specs(job_count)
    cache_dir = tmp_path / "cache"

    def warm_phase(state_dir=None):
        farm = SimulationFarm(
            workers=_WORKERS,
            cache=cache_dir,
            name="bench-journal",
            state_dir=state_dir,
        )
        with farm:
            server, client = _served(farm)
            try:
                finals, p50 = _drive(client, specs)
                stats = client.stats()
            finally:
                server.shutdown()
                server.server_close()
        return finals, p50, stats

    # Prime the shared cache once (cold); both measured phases below are
    # then pure cache reads, so the only difference between them is the
    # write-ahead journal.
    warm_phase()

    plain_finals, plain_p50, _ = warm_phase()
    journal_finals, journal_p50, journal_stats = warm_phase(tmp_path / "state")

    for finals in (plain_finals, journal_finals):
        assert all(f["cells_cached"] == f["cells_total"] for f in finals)
    # Two records per fully-cached job: "submitted" then "finished".
    assert journal_stats["journal_records"] >= 2 * job_count
    assert journal_stats["durable"] is True

    # The durability gate: journalling a warm submission may cost at most
    # 15% of the ephemeral warm median (10 ms absolute slack for hosts
    # where the warm median itself is sub-millisecond).
    assert journal_p50 <= plain_p50 * 1.15 + 0.010, (plain_p50, journal_p50)
