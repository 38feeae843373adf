"""Waveform capture for simulated signals.

:class:`TraceRecorder` samples a chosen set of signals after every cycle and
stores them in a :class:`Trace`, which can be queried, diffed, or rendered as
a simple VCD-like text dump.  The evaluation harness uses traces to verify
that generated adapters follow the SIS timing diagrams (Figures 4.3 and 4.4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.rtl.signal import Signal
from repro.rtl.simulator import Simulator


class Trace:
    """Recorded per-cycle values for a fixed set of signals."""

    def __init__(self, names: Sequence[str]) -> None:
        self.names: List[str] = list(names)
        self.samples: List[Dict[str, int]] = []

    def __len__(self) -> int:
        return len(self.samples)

    def values(self, name: str) -> List[int]:
        """The full value history of one signal."""
        if name not in self.names:
            raise KeyError(f"signal {name!r} was not traced")
        return [s[name] for s in self.samples]

    def at(self, cycle: int) -> Dict[str, int]:
        """Sample recorded for ``cycle`` (index into the recording)."""
        return dict(self.samples[cycle])

    def edges(self, name: str) -> List[int]:
        """Cycles at which ``name`` transitioned from 0 to non-zero."""
        history = self.values(name)
        rising = []
        prev = 0
        for cycle, value in enumerate(history):
            if value and not prev:
                rising.append(cycle)
            prev = value
        return rising

    def count_high(self, name: str) -> int:
        """Number of cycles during which ``name`` was non-zero."""
        return sum(1 for v in self.values(name) if v)

    def render(self) -> str:
        """Render an ASCII table of the trace (one row per signal)."""
        lines = []
        width = max((len(n) for n in self.names), default=0)
        for name in self.names:
            cells = " ".join(f"{v:>4x}" for v in self.values(name))
            lines.append(f"{name:<{width}} | {cells}")
        return "\n".join(lines)


class TraceRecorder:
    """Attach to a simulator and record selected signals every cycle.

    Implements the compiled kernel's monitor leap protocol
    (:meth:`observe_leap`), so recording a trace does not force the kernel
    to execute idle cycles one by one: a leap replicates the last sample
    once per skipped cycle, which is exact because no signal can change
    during a leap.
    """

    def __init__(self, simulator: Simulator, signals: Iterable[Signal]) -> None:
        self._signals: List[Signal] = list(signals)
        self.trace = Trace([s.name for s in self._signals])
        simulator.add_monitor(self._sample)

    def _sample(self) -> None:
        # A fresh dict per cycle, read from the committed slots: stored as
        # is, it needs no defensive copy.
        self.trace.samples.append({s.name: s._value for s in self._signals})

    def observe_leap(self, cycles: int) -> None:
        """Account for ``cycles`` leaped cycles (compiled kernel only).

        Signal values are frozen for the whole leaped span, so the recording
        stays bit-identical to sampling each cycle individually.
        """
        samples = self.trace.samples
        if samples:
            sample = samples[-1]
        else:
            # A leap can only follow at least one executed cycle after this
            # recorder attached (attaching recompiles, and a fresh freeze
            # marks everything pending), but sample defensively: values are
            # unchanged during a leap, so reading them now is still exact.
            sample = {s.name: s._value for s in self._signals}
        samples.extend([sample] * cycles)
