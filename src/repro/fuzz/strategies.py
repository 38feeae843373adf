"""Hypothesis strategies over the fuzz-case space.

The strategies are deliberately *structured*: instead of free-form byte
soup, they draw from the same topology axes the differential grid already
covers (bus × DMA × burst × arbitration × gap × latency) and then fill in
the parts the grid fixes by hand — workload order, stream contents and
lengths, idle spans, fault schedules.  Value choices are biased toward the
edges that historically break wire-format code: zero-length streams,
single-element streams, all-ones words, sign-boundary words, and repeated
back-to-back calls into the same function.

Everything here is pure generation — no simulator imports — so the module
stays cheap to import and the only Hypothesis dependency in the package is
isolated to this module and :mod:`~repro.fuzz.session`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from hypothesis import strategies as st

from repro.faults.spec import FAULT_KINDS, FaultSchedule, FaultSpec
from repro.fuzz.case import (
    FUNCTION_FAMILIES,
    FUZZ_BUSES,
    FuzzCall,
    FuzzCase,
    FuzzFunction,
    FuzzTopology,
)

#: Word values that sit on the boundaries wire-format code gets wrong:
#: zero, tiny, char-sign edges, int-sign edges, all-ones.
CORNER_WORDS: Tuple[int, ...] = (
    0,
    1,
    2,
    0x7F,
    0x80,
    0xFF,
    0x7FFFFFFF,
    0x80000000,
    0xFFFFFFFF,
)

#: Calculation latencies: small ones keep the SIS busy back-to-back, large
#: ones open the idle windows the compiled kernel's cycle-leap mode jumps.
CALC_LATENCIES: Tuple[int, ...] = (1, 2, 5, 24, 40)

#: Fault targets the fuzzer may hit.  RST is excluded on purpose: a stuck
#: reset legitimately wedges the handshake (the drivers wait forever by
#: design), which the watchdog would report as a hang on *every* kernel —
#: true, but not a kernel bug, and it would drown real findings.
FAULT_TARGETS: Tuple[str, ...] = (
    "DATA_IN",
    "DATA_IN_VALID",
    "IO_ENABLE",
    "FUNC_ID",
    "DATA_OUT",
    "DATA_OUT_VALID",
    "IO_DONE",
    "CALC_DONE",
)


@dataclass(frozen=True)
class FuzzProfile:
    """Size knobs for one fuzz session flavour."""

    name: str
    max_functions: int
    max_calls: int
    max_stream: int
    max_idle: int
    max_fault_cycle: int

    def describe(self) -> dict:
        return {
            "name": self.name,
            "max_functions": self.max_functions,
            "max_calls": self.max_calls,
            "max_stream": self.max_stream,
            "max_idle": self.max_idle,
            "max_fault_cycle": self.max_fault_cycle,
        }


#: ``quick`` keeps cases small enough for CI smoke budgets; ``deep`` grows
#: streams, call trails, and idle spans for overnight hunting.
PROFILES = {
    "quick": FuzzProfile(
        name="quick",
        max_functions=3,
        max_calls=6,
        max_stream=5,
        max_idle=64,
        max_fault_cycle=80,
    ),
    "deep": FuzzProfile(
        name="deep",
        max_functions=4,
        max_calls=14,
        max_stream=12,
        max_idle=200,
        max_fault_cycle=240,
    ),
}


# Leaf strategies, built once for the process.  A strategy object is built,
# resolved and validated on its first draw; a reused one pays that once, so no
# draw builds one except ``sampled_from(topology.functions)``, whose elements
# come from the case being drawn.  Reusing an object draws exactly what a
# freshly built equal one would.

#: 32-bit words, biased heavily toward :data:`CORNER_WORDS`.
_WORDS = st.one_of(
    st.sampled_from(CORNER_WORDS),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)
_BUSES = st.sampled_from(FUZZ_BUSES)
_FAMILIES = st.sampled_from(FUNCTION_FAMILIES)
_LATENCIES = st.sampled_from(CALC_LATENCIES)
_GAPS = st.sampled_from((0, 1, 3))
_FLAGS = st.booleans()
_INDICES = st.integers(0, 0xFF)
_STEP_KINDS = st.integers(min_value=0, max_value=5)
_FAULT_COUNTS = st.integers(min_value=1, max_value=2)
_FAULT_KINDS = st.sampled_from(FAULT_KINDS)
_FAULT_TARGETS = st.sampled_from(FAULT_TARGETS)
_FAULT_DURATIONS = st.integers(min_value=1, max_value=3)
_FAULT_BITS = st.one_of(st.none(), st.integers(min_value=0, max_value=7))
# Bias toward leap-enabled: that is the production configuration and the
# path with real optimisation machinery to get wrong.
_LEAPS = st.sampled_from((True, True, True, False))


class _Sized:
    """The strategies whose bounds come from one profile."""

    def __init__(self, profile: FuzzProfile) -> None:
        self.function_counts = st.integers(min_value=1, max_value=profile.max_functions)
        self.call_counts = st.integers(min_value=1, max_value=profile.max_calls)
        self.idle_spans = st.integers(min_value=1, max_value=profile.max_idle)
        self.fault_cycles = st.integers(min_value=0, max_value=profile.max_fault_cycle)
        #: Wire-format input streams, including the zero-length degenerate.
        self.streams = st.lists(_WORDS, min_size=0, max_size=profile.max_stream).map(tuple)
        self.topologies = topologies(self)
        self.fault_schedules = fault_schedules(self)


@lru_cache(maxsize=8)
def _sized(profile: FuzzProfile) -> _Sized:
    """One :class:`_Sized` per profile, built on the profile's first use.

    Bounded because callers may pass profiles of their own; a profile
    evicted and built again draws exactly what it drew before.
    """
    return _Sized(profile)


@st.composite
def topologies(draw, sized: _Sized) -> FuzzTopology:
    bus = draw(_BUSES)
    count = draw(sized.function_counts)
    functions = []
    for index in range(count):
        family = draw(_FAMILIES)
        latency = draw(_LATENCIES)
        functions.append(FuzzFunction(name=f"f{index}", family=family, calc_latency=latency))
    has_pointer = any(f.family in ("stream", "pair") for f in functions)
    dma = bus == "plb" and has_pointer and draw(_FLAGS)
    burst = bus == "fcb" and draw(_FLAGS)
    gap = draw(_GAPS)
    return FuzzTopology(
        bus=bus, functions=tuple(functions), dma=dma, burst=burst, inter_op_gap=gap
    )


@st.composite
def calls_for(draw, topology: FuzzTopology, sized: _Sized) -> Tuple[FuzzCall, ...]:
    count = draw(sized.call_counts)
    functions = st.sampled_from(topology.functions)
    out = []
    for _ in range(count):
        # ~1 in 6 steps is an idle span: leap windows and monitor quiet
        # cycles only exist when the bus goes genuinely silent.
        if draw(_STEP_KINDS) == 0:
            out.append(FuzzCall.idle(draw(sized.idle_spans)))
            continue
        fn = draw(functions)
        if fn.family == "poke":
            args = (draw(_INDICES), draw(_WORDS))
        elif fn.family == "peek":
            args = (draw(_INDICES),)
        elif fn.family == "stream":
            args = (draw(sized.streams),)
        else:  # pair
            args = (draw(sized.streams), draw(sized.streams))
        out.append(FuzzCall(func=fn.name, args=args))
    return tuple(out)


@st.composite
def fault_schedules(draw, sized: _Sized) -> str:
    count = draw(_FAULT_COUNTS)
    specs = []
    for _ in range(count):
        specs.append(
            FaultSpec(
                kind=draw(_FAULT_KINDS),
                target=draw(_FAULT_TARGETS),
                cycle=draw(sized.fault_cycles),
                duration=draw(_FAULT_DURATIONS),
                bit=draw(_FAULT_BITS),
            )
        )
    return FaultSchedule(specs=tuple(specs)).token


@st.composite
def _cases(draw, sized: _Sized, with_faults: bool) -> FuzzCase:
    topology = draw(sized.topologies)
    calls = draw(calls_for(topology, sized))
    faults = None
    if with_faults and draw(_FLAGS):
        faults = draw(sized.fault_schedules)
    leap = draw(_LEAPS)
    return FuzzCase(topology=topology, calls=calls, faults=faults, leap=leap)


def cases(profile: FuzzProfile = PROFILES["quick"], with_faults: bool = False) -> st.SearchStrategy:
    """Complete fuzz cases (the strategy the session's property consumes)."""
    return _cases(_sized(profile), with_faults)
