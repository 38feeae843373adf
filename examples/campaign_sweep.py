#!/usr/bin/env python3
"""Campaign walkthrough: a custom scenario sweep, run in parallel, cached,
and rendered to a markdown report.

The paper's evaluation is a fixed 5x4 grid.  The campaign subsystem makes
the grid declarative: describe implementations x scenarios x seeds x repeats
as a :class:`~repro.campaign.spec.CampaignSpec`, pick a worker count (one
runs serially; more run on a farm of worker processes started for the run),
point it at a result cache, and write report artifacts.

Run from the repository root::

    PYTHONPATH=src python examples/campaign_sweep.py

or the CLI equivalent::

    PYTHONPATH=src python -m repro.cli campaign run \
        --sweep geometric --sweep-count 5 --workers 4 \
        --cache-dir .campaign-cache --artifacts campaign-out
"""

import os
from pathlib import Path

from repro.campaign import (
    CampaignSpec,
    ScenarioSweep,
    run_campaign,
)
from repro.evaluation.experiments import IMPLEMENTATION_NAMES


def main() -> None:
    # 1. Declare the grid: a geometric set-size sweep (4 -> 64 elements)
    #    across three Splice-generated interfaces, two seeds each.
    sweep = ScenarioSweep(mode="geometric", count=5, base=(4, 2, 4), max_size=128)
    spec = CampaignSpec(
        implementations=("splice_plb", "splice_fcb", "splice_plb_dma"),
        scenarios=sweep.scenarios(),
        seeds=(0, 1),
        name="geometric-sweep",
    )
    print(f"Grid: {spec.cell_count} cells "
          f"({len(spec.implementations)} implementations x "
          f"{len(spec.scenarios)} scenarios x {len(spec.seeds)} seeds)")

    # 2. Run it across worker processes, with a content-addressed cache: a
    #    second invocation of this script skips every cell.
    cache_dir = Path(".campaign-cache")
    result = run_campaign(spec, workers=os.cpu_count() or 1, cache=cache_dir)
    meta = result.meta
    print(f"Executed {meta['cells_executed']} cells "
          f"({meta['cells_cached']} from cache) via {meta['executor']} "
          f"executor in {meta['elapsed_s']:.3f}s")

    # 3. Write the artifacts: campaign.json / campaign.csv / campaign.md.
    paths = result.write_artifacts(Path("campaign-out"), names=IMPLEMENTATION_NAMES)
    print(f"Markdown report: {paths['markdown']}")
    print()
    print(result.to_markdown(names=IMPLEMENTATION_NAMES))


if __name__ == "__main__":
    main()
