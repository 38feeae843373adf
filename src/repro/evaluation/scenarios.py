"""The four interpolator usage scenarios (Figure 9.1).

Each scenario transfers three sets of input values to the hardware and reads
a single result back.  The element counts are taken directly from Figure 9.1;
the values themselves are generated deterministically (monotonic timestamps,
pseudo-random control samples, in-range query points) so every interface
implementation operates on identical data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Scenario:
    """One row of Figure 9.1."""

    number: int
    set1: int
    set2: int
    set3: int

    @property
    def total(self) -> int:
        return self.set1 + self.set2 + self.set3

    def generate_inputs(self, seed: int = 0) -> Tuple[List[int], List[int], List[int]]:
        """Deterministic input data with the Figure 9.1 element counts."""
        rng = np.random.default_rng(self.number * 1000 + seed)
        stamps = rng.integers(0, 1 << 16, size=self.set1)
        stamps.sort()
        set1 = stamps.tolist()
        set2 = rng.integers(0, 1 << 12, size=self.set2).tolist()
        lo, hi = (set1[0], set1[-1]) if set1 else (0, 1)
        set3 = rng.integers(lo, max(hi, lo + 1), size=self.set3).tolist()
        return set1, set2, set3


#: Figure 9.1 — input parameters required for each scenario.
SCENARIOS: Tuple[Scenario, ...] = (
    Scenario(number=1, set1=2, set2=1, set3=2),
    Scenario(number=2, set1=4, set2=2, set3=4),
    Scenario(number=3, set1=8, set2=3, set3=6),
    Scenario(number=4, set1=16, set2=4, set3=8),
)


def scenario(number: int) -> Scenario:
    """Look a scenario up by its Figure 9.1 number (1-4)."""
    for candidate in SCENARIOS:
        if candidate.number == number:
            return candidate
    raise KeyError(f"no scenario numbered {number}; Figure 9.1 defines scenarios 1-4")


def scenario_table() -> List[Dict[str, int]]:
    """Figure 9.1 as a list of table rows."""
    return [
        {
            "scenario": s.number,
            "set1": s.set1,
            "set2": s.set2,
            "set3": s.set3,
            "total": s.total,
        }
        for s in SCENARIOS
    ]
