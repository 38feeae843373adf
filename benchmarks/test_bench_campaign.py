"""Farm speedup gate: a multi-worker campaign run against the serial one."""

import os
import time

import pytest

from repro.campaign import ScenarioSweep, SerialExecutor, run_campaign, sweep_grid


@pytest.mark.skipif((os.cpu_count() or 1) < 4, reason="needs >= 4 CPUs for a meaningful speedup")
def test_sharded_speedup_at_4_workers():
    spec = sweep_grid(
        ScenarioSweep(mode="geometric", count=4, base=(16, 8, 16), max_size=256),
        seeds=(0, 1),
        repeats=2,
    )  # 5 implementations x 4 scenarios x 2 seeds x 2 repeats = 80 cells
    assert spec.cell_count >= 32
    start = time.perf_counter()
    serial = run_campaign(spec, executor=SerialExecutor())
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    sharded = run_campaign(spec, workers=4)
    sharded_s = time.perf_counter() - start
    assert sharded.payload() == serial.payload()
    assert serial_s / sharded_s >= 2.0, f"speedup {serial_s / sharded_s:.2f}x"
