"""Campaign subsystem: declarative scenario grids, pluggable execution,
content-addressed result caching, and report artifacts.

The moving parts, bottom-up:

* :mod:`repro.campaign.sweep` — parametric scenario generators extending
  Figure 9.1's four rows to arbitrary set-size sweeps,
* :mod:`repro.campaign.spec` — :class:`CampaignSpec`, the declarative grid
  of implementations × scenarios × seeds × repeats,
* :mod:`repro.campaign.executor` — :class:`SerialExecutor`, the
  in-process path, and the per-cell rules every cell runner shares,
* :mod:`repro.campaign.cache` — content-addressed per-cell result cache,
* :mod:`repro.campaign.runner` — :func:`run_campaign`, the orchestrator,
  which runs a multi-worker campaign on an ephemeral
  :class:`~repro.service.farm.SimulationFarm` (bit-identical to serial by
  construction),
* :mod:`repro.campaign.result` — :class:`CampaignResult` aggregation plus
  JSON/CSV/markdown artifact writers,
* :mod:`repro.campaign.presets` — ready-made grids ("the paper grid").
"""

from repro.campaign.cache import ResultCache, cell_digest, kernel_fingerprint
from repro.campaign.executor import CellError, SerialExecutor, execute_cells
from repro.campaign.presets import PAPER_IMPLEMENTATIONS, paper_grid, sweep_grid
from repro.campaign.result import CampaignResult, CellResult, cell_result
from repro.campaign.runner import run_campaign
from repro.campaign.spec import CampaignCell, CampaignSpec
from repro.campaign.sweep import SWEEP_MODES, ScenarioSweep

__all__ = [
    "CampaignCell",
    "CampaignSpec",
    "CampaignResult",
    "CellError",
    "CellResult",
    "ResultCache",
    "cell_result",
    "ScenarioSweep",
    "SWEEP_MODES",
    "SerialExecutor",
    "PAPER_IMPLEMENTATIONS",
    "cell_digest",
    "execute_cells",
    "kernel_fingerprint",
    "paper_grid",
    "run_campaign",
    "sweep_grid",
]
