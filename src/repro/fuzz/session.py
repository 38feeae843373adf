"""The fuzz session: deterministic rounds, contained failures, shrunk output.

A session spends a *budget* of generated cases against the differential
oracle, in rounds.  Each round is one Hypothesis ``@given`` execution with
an explicit derived seed and no example database, and draws only from
Hypothesis's built-in constants (:func:`pin_generation`), which makes the
whole session a pure function of ``(seed, budget, profile, with_faults)``:
the same inputs generate the same case tokens with the same verdicts on
every platform and in every process, whatever it has imported, which is
what lets CI assert "zero counterexamples at seed S" and lets a human
replay finding N of session S exactly.

Failures never abort the session.  A failing case ends its round (Hypothesis
shrinks it first), is minimised further by the domain-aware
:func:`~repro.fuzz.shrink.minimize`, deduplicated by ``(kind, token)``,
recorded as a :class:`~repro.fuzz.corpus.Counterexample`, optionally saved
into the corpus, and the session moves on to the next round with whatever
budget remains.  A case whose verdict does not repeat when Hypothesis
replays it (a wedged case can end as ``hang`` on one run and ``crash`` on
the next, depending on host speed) is recorded as drawn, unshrunk, with
that noted in its detail.  The session's exit code is nonzero only at the
end, and only if counterexamples were found.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Union

import hypothesis
from hypothesis import HealthCheck, Phase, Verbosity, given
from hypothesis import seed as hyp_seed
from hypothesis import settings as hyp_settings
from hypothesis.errors import FlakyFailure

from repro.fuzz.case import FuzzCase
from repro.fuzz.corpus import Counterexample, save_case
from repro.fuzz.oracle import (
    DEFAULT_TIMEOUT_S,
    CaseVerdict,
    coverage_cells,
    default_kernel_factories,
    run_case,
)
from repro.fuzz.shrink import minimize
from repro.fuzz.strategies import PROFILES, FuzzProfile, cases

#: Cases per Hypothesis round.  Small rounds bound how much budget one
#: failure's shrink phase can consume and give each failure a fresh seed.
ROUND_SIZE = 25

#: Domain-shrink oracle-run caps (hangs pay the watchdog timeout per run,
#: so they get a much smaller allowance).
SHRINK_ATTEMPTS = 120
SHRINK_ATTEMPTS_HANG = 24


class _CaseFailed(Exception):
    """Raised inside the Hypothesis property to capture (case, verdict)."""

    def __init__(self, case: FuzzCase, verdict: CaseVerdict):
        super().__init__(verdict.kind)
        self.case = case
        self.verdict = verdict
        #: Set when the verdict did not repeat on Hypothesis's replay.
        self.flaky = False


@dataclass
class FuzzReport:
    """Everything one session did, in JSON-friendly form."""

    seed: int
    budget: int
    profile: str
    with_faults: bool
    executed: int = 0
    rounds: int = 0
    case_tokens: List[str] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)
    saved_paths: List[str] = field(default_factory=list)
    #: Sorted union of :func:`~repro.fuzz.oracle.coverage_cells` over every
    #: budget-counted case — which bus × family × fault-class corners this
    #: session touched.  Deterministic for (seed, budget, profile, faults).
    coverage: List[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def exit_code(self) -> int:
        return 1 if self.counterexamples else 0

    @property
    def cases_per_second(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.executed / self.duration_s

    def describe(self) -> Dict[str, object]:
        return {
            "version": 1,
            "seed": self.seed,
            "budget": self.budget,
            "profile": self.profile,
            "with_faults": self.with_faults,
            "executed": self.executed,
            "rounds": self.rounds,
            "case_tokens": list(self.case_tokens),
            "counterexamples": [ce.describe() for ce in self.counterexamples],
            "saved_paths": list(self.saved_paths),
            "coverage": list(self.coverage),
            "duration_s": round(self.duration_s, 3),
            "cases_per_second": round(self.cases_per_second, 2),
            "exit_code": self.exit_code,
        }

    def render(self) -> str:
        lines = [
            f"fuzz session: seed={self.seed} budget={self.budget} "
            f"profile={self.profile} faults={'on' if self.with_faults else 'off'}",
            f"executed {self.executed} cases in {self.rounds} rounds "
            f"({self.duration_s:.1f}s, {self.cases_per_second:.1f} cases/s)",
        ]
        if not self.counterexamples:
            lines.append("no counterexamples — all kernels agree")
        else:
            lines.append(f"{len(self.counterexamples)} counterexample(s):")
            for ce in self.counterexamples:
                lines.append(
                    f"  [{ce.verdict.kind}] {ce.token} "
                    f"kernel={ce.verdict.kernel or '-'} {ce.verdict.detail}"
                )
            for path in self.saved_paths:
                lines.append(f"  saved {path}")
        return "\n".join(lines)


def session_payload(report: FuzzReport) -> Dict[str, object]:
    """The deterministic record of one session, as a farm fuzz job keeps,
    journals and serves it per seed.

    Every field is a function of the session's inputs alone, so a served, a
    recovered and a local session compare equal.  ``tokens_sha256``, the
    SHA-256 of the newline-joined case tokens, makes that comparison cover
    the case stream itself, not only its counts and coverage.
    """
    return {
        "seed": report.seed,
        "budget": report.budget,
        "profile": report.profile,
        "with_faults": report.with_faults,
        "executed": report.executed,
        "rounds": report.rounds,
        "coverage": list(report.coverage),
        "counterexamples": [ce.describe() for ce in report.counterexamples],
        "exit_code": report.exit_code,
        "tokens_sha256": hashlib.sha256("\n".join(report.case_tokens).encode()).hexdigest(),
    }


@lru_cache(maxsize=None)
def _builtin_constants_only():
    """Hypothesis's local-constants hook once pinned: an empty pool."""
    from hypothesis.internal.conjecture.providers import Constants

    return Constants()


def pin_generation() -> None:
    """Make every session's cases a function of its inputs alone.

    Hypothesis 6.1xx mixes literal constants from every loaded local module
    into generation, so a session's case stream would depend on which
    modules the process had imported (``splice fuzz run``, a farm worker and
    an in-process caller would draw different cases for one seed) and on
    every literal in them.  This replaces that pool with an empty one, so
    every draw uses Hypothesis's built-in constants only.  The pin is
    process-wide, because Hypothesis keeps the pool in module state, and
    applying it again is free.  A Hypothesis without the hook raises
    :class:`RuntimeError` rather than silently drawing another stream.
    """
    try:
        from hypothesis.internal.conjecture import providers

        hook = providers._get_local_constants
        constants_cache = providers.CONSTANTS_CACHE.cache
        _builtin_constants_only()
    except (ImportError, AttributeError) as exc:
        raise RuntimeError(
            f"cannot pin fuzz case generation: Hypothesis {hypothesis.__version__} "
            f"lacks the local-constants hook ({exc}); without it a session's "
            "cases would depend on which modules the process has loaded"
        ) from exc
    if hook is not _builtin_constants_only:
        providers._get_local_constants = _builtin_constants_only
        constants_cache.clear()


def _factories_for(kernel_factories, case: FuzzCase) -> Dict[str, Callable]:
    if kernel_factories is None:
        return default_kernel_factories(case)
    if callable(kernel_factories):
        return kernel_factories(case)
    return kernel_factories


def _round_seed(seed: int, round_index: int) -> int:
    # Splitmix-style spread so consecutive sessions' rounds never collide.
    value = (seed * 0x9E3779B97F4A7C15 + round_index * 0xBF58476D1CE4E5B9) & (1 << 63) - 1
    return value or 1


def _run_round(
    strategy,
    round_seed: int,
    examples: int,
    execute: Callable[[FuzzCase], None],
) -> Optional[_CaseFailed]:
    """One deterministic Hypothesis round; returns the shrunk failure if any.

    A failure that did not repeat on replay reaches here as Hypothesis's
    ``FlakyFailure``; its first :class:`_CaseFailed` comes back unshrunk,
    marked ``flaky``, with that noted in its verdict's detail.
    """

    @hyp_settings(
        max_examples=examples,
        database=None,
        deadline=None,
        derandomize=False,
        phases=(Phase.generate, Phase.shrink),
        verbosity=Verbosity.quiet,
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @hyp_seed(round_seed)
    @given(strategy)
    def property_(case):
        execute(case)

    try:
        property_()
    except _CaseFailed as failure:
        return failure
    except FlakyFailure as group:
        failure = next((exc for exc in group.exceptions if isinstance(exc, _CaseFailed)), None)
        if failure is None:
            raise
        failure.flaky = True
        failure.verdict = replace(
            failure.verdict,
            detail=f"{failure.verdict.detail} (did not reproduce on replay)",
        )
        return failure
    return None


def run_session(
    budget: int,
    seed: int,
    *,
    profile: Union[str, FuzzProfile] = "quick",
    with_faults: bool = False,
    timeout_s: float = DEFAULT_TIMEOUT_S,
    corpus_dir=None,
    kernel_factories=None,
    shrink_attempts: int = SHRINK_ATTEMPTS,
    round_size: int = ROUND_SIZE,
    on_case: Optional[Callable[[FuzzCase, CaseVerdict], None]] = None,
    on_finding: Optional[Callable[[Counterexample], None]] = None,
) -> FuzzReport:
    """Run one deterministic fuzz session and return its report.

    ``kernel_factories`` may be a dict (as :func:`run_case` takes), a
    callable ``case -> dict`` (needed when the kernel set depends on the
    case's leap flag, as the default does), or ``None`` for the three
    production kernels.  ``corpus_dir=None`` disables saving (dry sessions,
    unit tests); pass :data:`~repro.fuzz.corpus.DEFAULT_CORPUS_DIR` to grow
    the real corpus.  ``on_finding`` fires once per *deduplicated, shrunk*
    counterexample as it is recorded — the farm's fuzz workers use it to
    stream findings to watching clients while the session keeps running.
    """
    if budget < 1:
        raise ValueError(f"fuzz budget must be >= 1, got {budget}")
    pin_generation()
    prof = PROFILES[profile] if isinstance(profile, str) else profile
    report = FuzzReport(
        seed=seed, budget=budget, profile=prof.name, with_faults=with_faults
    )
    strategy = cases(profile=prof, with_faults=with_faults)
    seen: set = set()
    coverage: set = set()
    started = time.perf_counter()

    round_index = 0
    while report.executed < budget:
        examples = min(round_size, budget - report.executed)
        state = {"failed": False, "ran": 0}

        def execute(case: FuzzCase) -> None:
            verdict = run_case(
                case,
                kernel_factories=_factories_for(kernel_factories, case),
                timeout_s=timeout_s,
            )
            if not state["failed"]:
                # Shrink-phase replays re-enter here after the first failure;
                # only generate-phase cases count against the budget or the
                # deterministic token trail.
                state["ran"] += 1
                report.case_tokens.append(case.token)
                coverage.update(coverage_cells(case))
                if on_case is not None:
                    on_case(case, verdict)
            if not verdict.ok:
                state["failed"] = True
                raise _CaseFailed(case, verdict)

        failure = _run_round(strategy, _round_seed(seed, round_index), examples, execute)
        report.rounds += 1
        report.executed += state["ran"]
        round_index += 1

        if failure is None:
            continue
        kind = failure.verdict.kind
        attempts_cap = SHRINK_ATTEMPTS_HANG if kind == "hang" else shrink_attempts

        def reproduces(candidate: FuzzCase) -> bool:
            verdict = run_case(
                candidate,
                kernel_factories=_factories_for(kernel_factories, candidate),
                timeout_s=timeout_s,
            )
            return verdict.kind == kind

        if failure.flaky:
            # A verdict that does not repeat cannot be minimised.
            shrunk, attempts = failure.case, 0
        else:
            shrunk, attempts = minimize(failure.case, reproduces, max_attempts=attempts_cap)
        final_verdict = (
            failure.verdict
            if shrunk is failure.case
            else run_case(
                shrunk,
                kernel_factories=_factories_for(kernel_factories, shrunk),
                timeout_s=timeout_s,
            )
        )
        key = (final_verdict.kind, shrunk.token)
        if key in seen:
            continue
        seen.add(key)
        counterexample = Counterexample(
            case=shrunk,
            verdict=final_verdict,
            discovered={
                "seed": seed,
                "round": round_index - 1,
                "round_seed": _round_seed(seed, round_index - 1),
                "profile": prof.name,
                "with_faults": with_faults,
                "shrink_attempts": attempts,
            },
        )
        report.counterexamples.append(counterexample)
        if on_finding is not None:
            on_finding(counterexample)
        if corpus_dir is not None:
            report.saved_paths.append(str(save_case(counterexample, corpus_dir)))

    report.coverage = sorted(coverage)
    report.duration_s = time.perf_counter() - started
    return report
