"""The differential oracle: execute one fuzz case on every kernel and judge.

This is the property the whole fuzz subsystem exists to check, lifted from
``tests/test_kernel_equivalence.py`` into a library: generate the case's
specification once, elaborate that one design into a fresh SoC per kernel
(reference / event / compiled), drive all of them with the case's workload,
and demand that

* the full-signal traces are identical, cycle for cycle and bit for bit,
* the driver-call outcomes and transaction counts are identical,
* the SIS monitor violation lists are element-for-element identical, and
* every kernel's leap accounting balances
  (``leaped + executed == cycles``, traces cover every cycle, and only a
  leap-enabled compiled kernel may leap at all).

Any disagreement becomes a typed :class:`CaseVerdict` rather than an
assertion: the fuzz session records it, the shrinker minimises against it,
and the corpus replays it.  The oracle itself must survive hostile cases —
a builder that raises is a ``builder_error`` finding, a kernel that raises
mid-run is a ``crash``, and a kernel that never comes back is killed by the
:mod:`~repro.fuzz.watchdog` and recorded as a ``hang``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.core.engine import GenerationResult, Splice
from repro.fuzz.case import IDLE, FuzzCase
from repro.fuzz.watchdog import CaseHang, case_watchdog
from repro.rtl import ReferenceSimulator, Simulator, TraceRecorder, kernel_factory
from repro.soc.system import build_system

#: Every verdict kind, in triage-priority order (``pass`` last).
VERDICT_KINDS: Tuple[str, ...] = (
    "builder_error",
    "hang",
    "crash",
    "divergence",
    "monitor_mismatch",
    "leap_miscount",
    "pass",
)

#: Default per-case wall-clock budget.  The biggest quick-profile cases
#: build + run in well under a second per kernel; anything that takes 10s
#: is stuck, not slow.
DEFAULT_TIMEOUT_S = 10.0


@dataclass(frozen=True)
class CaseVerdict:
    """The oracle's judgement of one case."""

    kind: str
    detail: str = ""
    kernel: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in VERDICT_KINDS:
            raise ValueError(
                f"unknown verdict kind {self.kind!r} (known: {VERDICT_KINDS})"
            )

    @property
    def ok(self) -> bool:
        return self.kind == "pass"

    def describe(self) -> Dict[str, object]:
        data: Dict[str, object] = {"kind": self.kind, "detail": self.detail}
        if self.kernel is not None:
            data["kernel"] = self.kernel
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CaseVerdict":
        return cls(
            kind=str(data["kind"]),
            detail=str(data.get("detail", "")),
            kernel=data.get("kernel"),
        )


def coverage_cells(case: FuzzCase) -> Tuple[str, ...]:
    """The ``bus:family:fault-class`` coverage cells one case touches.

    This is the fuzz layer's coverage signal: the cross product of the
    case's bus, the function families its workload actually exercises
    (plus ``idle`` for leap-window spans), and the fault kinds its schedule
    injects (``clean`` when unfaulted).  Sessions union these per case, so
    a session's coverage summary says which corners of the
    bus × family × fault-class space its seed range reached — deterministic
    for a given ``(seed, budget, profile)``, which is what lets CI pin it
    and the perf trajectory track strategy regressions.
    """
    families = set()
    for call in case.calls:
        if call.func == IDLE:
            families.add("idle")
        else:
            families.add(case.topology.function(call.func).family)
    if case.faults:
        from repro.faults.spec import FaultSchedule

        kinds = sorted({spec.kind for spec in FaultSchedule.parse(case.faults)})
        fault_classes = kinds or ["clean"]
    else:
        fault_classes = ["clean"]
    return tuple(sorted(
        f"{case.topology.bus}:{family}:{fault}"
        for family in families
        for fault in fault_classes
    ))


def default_kernel_factories(case: FuzzCase) -> Dict[str, Callable]:
    """The three production kernels, oracle first.

    Exposed (and overridable via ``run_case(kernel_factories=...)``) so the
    acceptance tests can swap in a deliberately broken kernel and watch the
    oracle convict it.
    """
    return {
        "reference": ReferenceSimulator,
        "event": Simulator,
        "compiled": kernel_factory("compiled", leap=case.leap),
    }


class _OneGeneration:
    """The engine every kernel of one case builds with.

    It generates on its first call, which falls in the first kernel's build
    and under that kernel's watchdog, and hands every later build the same
    :class:`~repro.core.engine.GenerationResult`.  Generation is a pure
    function of the specification, and each build still elaborates the
    result into its own peripheral, bus, drivers and simulator.
    """

    def __init__(self) -> None:
        self._result: Optional[GenerationResult] = None

    def generate(self, source: str) -> GenerationResult:
        if self._result is None:
            self._result = Splice().generate(source)
        return self._result


def _build(case: FuzzCase, factory, engine: _OneGeneration) -> object:
    """Build one system for the case (fresh behaviours/state per kernel)."""
    topology = case.topology
    system = build_system(
        topology.spec_source(),
        behaviors=topology.behaviors(),
        calc_latencies=topology.calc_latencies(),
        engine=engine,
        inter_op_gap=topology.inter_op_gap,
        simulator_factory=factory,
    )
    if case.faults is not None:
        from repro.faults.inject import FaultController, sis_targets

        controller = FaultController(case.faults, sis_targets(system.peripheral.sis))
        # inject_faults rebases to the current cycle (0, post-reset), so the
        # schedule's relative cycles count from the start of the workload.
        system.simulator.inject_faults(controller)
    return system


def _drive(system, case: FuzzCase) -> Tuple:
    """Execute the workload; return the comparable outcome tuple."""
    results = []
    for call in case.calls:
        if call.func == IDLE:
            system.run(call.args[0])
            results.append(("idle", call.args[0]))
            continue
        family = case.topology.function(call.func).family
        driver = system.drivers[call.func]
        if family == "poke":
            results.append(driver(call.args[0], call.args[1]))
        elif family == "peek":
            results.append(driver(call.args[0]))
        elif family == "stream":
            data = list(call.args[0])
            results.append(driver(len(data), data))
        else:  # pair
            a, b = list(call.args[0]), list(call.args[1])
            results.append(driver(len(a), a, len(b), b))
    return tuple(results)


def _violations(system):
    monitor = getattr(system, "monitor", None)
    if monitor is None:
        return None
    return [(v.cycle, v.rule, v.detail) for v in monitor.violations]


def _first_trace_divergence(ref_trace, other_trace) -> Optional[str]:
    """Describe the first divergent cycle, or ``None`` if traces match."""
    for cycle, (ref_sample, other_sample) in enumerate(
        zip(ref_trace.samples, other_trace.samples)
    ):
        if ref_sample != other_sample:
            names = set(ref_sample) | set(other_sample)
            diff = {
                name: (ref_sample.get(name), other_sample.get(name))
                for name in sorted(names)
                if ref_sample.get(name) != other_sample.get(name)
            }
            shown = list(diff.items())[:4]
            rendered = ", ".join(f"{n}: {a} != {b}" for n, (a, b) in shown)
            more = f" (+{len(diff) - len(shown)} more)" if len(diff) > len(shown) else ""
            return f"cycle {cycle}: {rendered}{more}"
    if len(ref_trace) != len(other_trace):
        return f"trace lengths differ: {len(ref_trace)} != {len(other_trace)}"
    return None


def _leap_miscount(label: str, run: Dict[str, object], leap_allowed: bool) -> Optional[str]:
    """Check one kernel run's leap/trace accounting; describe any breach."""
    stats = run["stats"]
    cycles = stats["cycles"]
    leaped = stats["leaped_cycles"]
    executed = stats["executed_cycles"]
    if leaped + executed != cycles:
        return f"leaped({leaped}) + executed({executed}) != cycles({cycles})"
    if leaped < 0 or leaped > cycles:
        return f"leaped({leaped}) outside [0, cycles({cycles})]"
    if leaped and not leap_allowed:
        return f"non-leaping kernel reported leaped={leaped}"
    if run["trace_len"] != cycles:
        return f"trace covers {run['trace_len']} cycles, kernel ran {cycles}"
    return None


def run_case(
    case: FuzzCase,
    *,
    kernel_factories: Optional[Dict[str, Callable]] = None,
    timeout_s: float = DEFAULT_TIMEOUT_S,
) -> CaseVerdict:
    """Execute ``case`` under every kernel and return the verdict.

    The first factory in ``kernel_factories`` is the baseline every other
    kernel is compared against (the reference oracle by default).  The
    watchdog brackets each kernel's build+run individually, so one stuck
    kernel cannot consume another kernel's budget.  The specification is
    generated once, inside the first kernel's build, so a generator that
    raises or hangs is that kernel's ``builder_error`` or ``hang``.
    """
    factories = kernel_factories or default_kernel_factories(case)
    labels = list(factories)
    if len(labels) < 2:
        raise ValueError("the oracle needs at least two kernels to differ")

    engine = _OneGeneration()
    runs: Dict[str, Dict[str, object]] = {}
    for label in labels:
        factory = factories[label]
        try:
            with case_watchdog(timeout_s):
                system = _build(case, factory, engine)
        except CaseHang:
            return CaseVerdict("hang", f"build exceeded {timeout_s:g}s", kernel=label)
        except Exception as exc:  # noqa: BLE001 - containment is the point
            return CaseVerdict(
                "builder_error", f"{type(exc).__name__}: {exc}", kernel=label
            )
        simulator = system.simulator
        recorder = TraceRecorder(simulator, simulator.signals)
        try:
            with case_watchdog(timeout_s):
                outcome = _drive(system, case)
        except CaseHang:
            return CaseVerdict(
                "hang",
                f"workload exceeded {timeout_s:g}s at cycle {simulator.cycle}",
                kernel=label,
            )
        except Exception as exc:  # noqa: BLE001 - containment is the point
            return CaseVerdict("crash", f"{type(exc).__name__}: {exc}", kernel=label)
        runs[label] = {
            "trace": recorder.trace,
            "trace_len": len(recorder.trace),
            "outcome": outcome,
            "cycles": simulator.cycle,
            "stats": simulator.stats.as_dict(),
            "violations": _violations(system),
            "leaps": bool(getattr(simulator, "_leap", False)),
        }

    base = labels[0]
    for label in labels[1:]:
        diff = _first_trace_divergence(runs[base]["trace"], runs[label]["trace"])
        if diff is not None:
            return CaseVerdict("divergence", diff, kernel=label)
        if runs[base]["outcome"] != runs[label]["outcome"]:
            return CaseVerdict(
                "divergence",
                f"outcomes differ: {runs[base]['outcome']!r} != {runs[label]['outcome']!r}",
                kernel=label,
            )
        if runs[base]["violations"] != runs[label]["violations"]:
            return CaseVerdict(
                "monitor_mismatch",
                f"{runs[base]['violations']!r} != {runs[label]['violations']!r}",
                kernel=label,
            )
    for label in labels:
        breach = _leap_miscount(label, runs[label], leap_allowed=runs[label]["leaps"])
        if breach is not None:
            return CaseVerdict("leap_miscount", breach, kernel=label)
    return CaseVerdict("pass", f"cycles={runs[base]['cycles']}")
