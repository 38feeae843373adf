"""Lowerable finite-state-machine IR — the declarative form of every
per-cycle Python state machine and protocol monitor in the tree.

PR 4 measured the remaining cost of the compiled kernel on the Figure 9.1
workloads: every bus master, slave adapter, user-logic stub and arbiter
still executed as a per-cycle Python ``tick()`` call, and that shared FSM
cost dominated.  This module removes the Python call from that tier the way
migen's simulator lowers FHDL processes: the machines are *described as
data* — states, guarded transitions, signal schedules/pulses/drives, counter
updates, timed-wake parks — and the description has two backends:

* an **interpreted backend** (:meth:`BoundFsm.tick_interpreted`): a
  tree-walking executor over the IR with pre-compiled guard/action
  expressions — the semantic oracle every other execution form is proven
  against;
* a **standalone tick** (:meth:`BoundFsm.tick`): a per-machine function
  generated from the IR at bind time (bindings in closure cells, integer
  state register synchronised with the owner's state attribute per tick).
  It is what every machine registers as its process, and what the scan
  kernels (event-driven and reference) call — IR execution without per-op
  dispatch cost; and
* a **lowered backend** (:meth:`BoundFsm.emit_compiled_clocked` /
  :meth:`BoundFsm.emit_compiled_comb` / :meth:`BoundFsm.emit_compiled_monitor`):
  a code generator the
  :class:`~repro.rtl.compile.CompiledSimulator` calls at elaboration freeze
  to inline the machine straight into its fused ``step(n)`` loop — the
  state register is held in a function local across cycles, all bindings
  are hoisted at function entry, and no per-cycle Python call remains.

The standalone tick and the inlined body come from the *same* emitter, so
they cannot drift apart; the tree-walker is an independent implementation.
``tests/test_kernel_equivalence.py`` proves standalone and lowered
execution cycle-exact against each other on the full paper grid;
``tests/test_fsm_ir.py`` proves the interpreter equivalent to both on
randomized machines, on every machine and monitor of the paper grid (four
Splice buses plus both hand-coded baselines, with and without a native bus
reset), and on generated SIS sequences for the protocol monitor.

The IR
------

A machine is an :class:`FsmSpec` of one of three kinds:

* ``clocked`` — an ``entry`` op tree executed every tick (reset handling,
  request detection, cycle accounting) containing exactly one
  :class:`StateDispatch` marker, plus named states whose bodies are op
  trees;
* ``comb`` — a stateless ``entry`` tree that may only ``Drive``;
* ``monitor`` — a stateless ``entry`` tree run after every cycle that may
  only ``Exec``, ``If`` and ``Call``; its rolling state lives in
  zero-initialised ``regs`` that persist across cycles and recompiles, and
  its event gate is data: the compiled kernel runs it only on cycles where
  one of the ``gate`` signals changed or the ``hot`` expression over the
  regs is true.  The SIS protocol monitor (:mod:`repro.sis.protocol`) is
  one.

Expressions are Python expression strings over a closed lexicon declared by
the spec — signal bindings (``sig_name._value`` reads the committed slot),
``m`` (the owning module object), integer constants (inlined as literals by
the lowering backend), scratch temps, monitor regs, and ``CYCLE`` (the
simulator cycle when the process runs: before the increment for machines,
after it for monitors).  Side effects are explicit ops:

========================  ====================================================
:class:`Exec`             a statement over the lexicon (counter updates etc.)
:class:`If`               structured branch (guarded transition bodies)
:class:`Goto`             set the state register (the transition itself)
:class:`Redispatch`       re-enter the dispatch chain *this* cycle
                          (same-cycle fall-through between states)
:class:`Active`           set / accumulate the wait-state-elision flag
:class:`Schedule`         two-phase ``sig.schedule(expr)``
:class:`Pulse`            kernel-cleared one-cycle strobe ``sig.pulse(expr)``
:class:`Drive`            combinational ``sig.drive(expr)`` (comb specs only)
:class:`ScheduleZero`     bulk clear of a declared signal group
:class:`Call`             escape to a bound Python helper (transaction
                          boundaries, monitor records); in clocked machines
                          the state register is synchronised around the
                          call so helpers may set it
:class:`Sleep`            timed-wake park for pure countdowns
========================  ====================================================

Validation is static and loud: transitions to undeclared states, states
unreachable from the initial/helper-entered set, combinational drives inside
clocked machines (and vice versa) are all rejected when the spec is built,
with the offending op named — the same move the compiled kernel makes for
combinational cycles.  :func:`detect_drive_conflicts` additionally reports
two bound machines combinationally driving the same signal.

Every spec has a content :meth:`~FsmSpec.fingerprint`; the compiled kernel
folds the emitted machine source into its design digest (so program-cache
entries are IR-exact) and the campaign result cache folds
:func:`fsm_ir_fingerprint` into every cell digest.  Lowering is a pure
function of the spec and a small key, so each spec memoizes its lowered
text (:meth:`BoundFsm._lowered_body`): a process lowers a machine once,
not once per elaboration freeze.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rtl.memo import LruMemo
from repro.rtl.signal import Signal, schedule_zero


class FsmError(ValueError):
    """Raised for malformed FSM IR (bad transitions, invalid ops, ...)."""


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def _ops(items) -> tuple:
    out = tuple(items)
    for op in out:
        if not isinstance(op, Op):
            raise FsmError(f"expected an FSM op, got {op!r}")
    return out


class Op:
    """Base class for IR operations (frozen dataclasses)."""

    __slots__ = ()


@dataclass(frozen=True)
class Exec(Op):
    """A statement over the machine lexicon (counter/register updates)."""

    code: str


@dataclass(frozen=True)
class If(Op):
    """A structured branch; ``then``/``orelse`` are op sequences."""

    cond: str
    then: tuple
    orelse: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "then", _ops(self.then))
        object.__setattr__(self, "orelse", _ops(self.orelse))


@dataclass(frozen=True)
class Goto(Op):
    """Set the state register to ``state`` (does not stop the body)."""

    state: str


@dataclass(frozen=True)
class Redispatch(Op):
    """Re-enter the state dispatch chain within the same tick."""


@dataclass(frozen=True)
class StateDispatch(Op):
    """Marker in ``entry``: run the current state's body here."""


@dataclass(frozen=True)
class Active(Op):
    """Set (or OR-accumulate) the wait-state-elision activity flag."""

    expr: str = "True"
    accumulate: bool = False


@dataclass(frozen=True)
class Schedule(Op):
    """Two-phase ``sig.schedule(expr)``; ``capture`` ORs the report into
    the activity flag (the canonical idiom for steady wait states)."""

    sig: str
    expr: str
    capture: bool = False


@dataclass(frozen=True)
class Pulse(Op):
    """Kernel-cleared one-cycle strobe ``sig.pulse(expr)``."""

    sig: str
    expr: str = "1"
    capture: bool = False


@dataclass(frozen=True)
class Drive(Op):
    """Combinational ``sig.drive(expr)`` — only valid in comb specs."""

    sig: str
    expr: str


@dataclass(frozen=True)
class ScheduleZero(Op):
    """Bulk ``schedule(0)`` over a declared signal group."""

    group: str


@dataclass(frozen=True)
class Call(Op):
    """Escape to a bound Python helper (transaction-boundary work).

    The state register is written back to the owner before the call and
    reloaded after it, so helpers are free to change the machine's state
    (``_begin`` hooks, completion bookkeeping).  ``args`` is a
    comma-separated expression list; ``store`` names a scratch temp for the
    return value.
    """

    helper: str
    args: str = ""
    store: Optional[str] = None


@dataclass(frozen=True)
class Sleep(Op):
    """Park a pure countdown: on kernels with timed wakes, book a wake in
    ``delta`` cycles and report quiescence; on scan kernels, or when the
    target is the next cycle anyway, stay active.  Scan kernels run the
    machine every cycle, so the countdown must re-check its target."""

    delta: str


# ---------------------------------------------------------------------------
# the spec
# ---------------------------------------------------------------------------


#: Lowered bodies kept per spec.  A spec lowers differently per prefix (its
#: process index in the design) and per bound constants, so a few entries
#: cover the designs one process keeps rebuilding.
LOWERED_MEMO_SIZE = 8


@dataclass
class FsmSpec:
    """One machine, described as data.

    ``kind`` is ``"clocked"`` (stateful, produces an activity flag, may
    schedule/pulse), ``"comb"`` (stateless entry-only body that may only
    ``drive``) or ``"monitor"`` (see the module docstring).  State bodies and
    ``entry`` are op trees; the owner object's ``state_attr`` attribute
    holds the *name* of the current state between ticks (helpers and tests
    keep reading the familiar strings), while both backends dispatch on a
    dense integer register internally.

    The binding name tuples (``signals``/``groups``/``helpers``/``consts``/
    ``temps``/``regs``) declare the complete expression lexicon; binding the
    spec (:class:`BoundFsm`) checks that every declared name is supplied.
    A monitor's ``gate`` and ``hot`` assert that a cycle on which no gate
    signal changed and ``hot`` is false records nothing and leaves every
    reg unchanged, so the compiled kernel may skip it.
    """

    name: str
    kind: str = "clocked"
    entry: tuple = ()
    states: Dict[str, tuple] = field(default_factory=dict)
    initial: Optional[str] = None
    state_attr: str = "_state"
    #: States helpers may enter directly (reachability roots besides Goto).
    external_states: tuple = ()
    signals: tuple = ()
    groups: tuple = ()
    helpers: tuple = ()
    consts: tuple = ()
    temps: tuple = ()
    regs: tuple = ()
    gate: tuple = ()
    hot: str = "False"

    def __post_init__(self) -> None:
        self.entry = _ops(self.entry)
        self.states = {name: _ops(body) for name, body in self.states.items()}
        self.external_states = tuple(self.external_states)
        self.validate()
        #: Lowered bodies by key (see :meth:`BoundFsm._lowered_body`).
        self._lowered = LruMemo(LOWERED_MEMO_SIZE)

    # -- static diagnostics -------------------------------------------------

    def _walk(self, ops: Iterable[Op]):
        for op in ops:
            yield op
            if isinstance(op, If):
                yield from self._walk(op.then)
                yield from self._walk(op.orelse)

    def _all_ops(self):
        yield from self._walk(self.entry)
        for body in self.states.values():
            yield from self._walk(body)

    def validate(self) -> None:
        """Reject malformed machines with the offending construct named."""
        if self.kind not in ("clocked", "comb", "monitor"):
            raise FsmError(f"FSM {self.name!r}: unknown kind {self.kind!r}")

        if self.kind == "monitor":
            bad = [op for op in self._all_ops() if not isinstance(op, (Exec, If, Call))]
            if self.states or bad:
                raise FsmError(
                    f"monitor {self.name!r} uses {bad or 'states'}; monitors "
                    f"may only Exec, If and Call in their entry ops"
                )
            undeclared = [name for name in self.gate if name not in self.signals]
            if undeclared:
                raise FsmError(f"monitor {self.name!r}: gate names undeclared signal(s) {undeclared}")
            hot_names = compile(self.hot, f"<fsm {self.name} hot>", "eval").co_names
            if not set(hot_names) <= set(self.regs):
                raise FsmError(
                    f"monitor {self.name!r}: hot expression {self.hot!r} may "
                    f"read only the regs {list(self.regs)}"
                )
            return
        if self.regs or self.gate or self.hot != "False":
            raise FsmError(f"FSM {self.name!r}: regs, gate and hot belong to monitor specs")

        if self.kind == "comb":
            if self.states:
                raise FsmError(
                    f"comb FSM {self.name!r} must be stateless (entry ops only)"
                )
            for op in self._all_ops():
                if isinstance(op, (Schedule, Pulse, ScheduleZero)):
                    raise FsmError(
                        f"comb FSM {self.name!r} uses two-phase op {op!r}; "
                        f"combinational processes may only drive()"
                    )
                if isinstance(
                    op, (Goto, Redispatch, StateDispatch, Active, Sleep, Call)
                ):
                    raise FsmError(
                        f"comb FSM {self.name!r} uses clocked-only op {op!r}"
                    )
            return

        if not self.states:
            raise FsmError(f"clocked FSM {self.name!r} declares no states")
        if self.initial is None:
            self.initial = next(iter(self.states))
        if self.initial not in self.states:
            raise FsmError(
                f"FSM {self.name!r}: initial state {self.initial!r} is not declared"
            )
        for state in self.external_states:
            if state not in self.states:
                raise FsmError(
                    f"FSM {self.name!r}: external state {state!r} is not declared"
                )

        dispatches = sum(
            1 for op in self._walk(self.entry) if isinstance(op, StateDispatch)
        )
        if dispatches != 1:
            raise FsmError(
                f"clocked FSM {self.name!r} must contain exactly one "
                f"StateDispatch in its entry tree (found {dispatches})"
            )
        for op in self._walk(self.entry):
            if isinstance(op, Redispatch):
                raise FsmError(
                    f"FSM {self.name!r}: Redispatch outside a state body "
                    f"(it re-enters the dispatch chain, which only exists "
                    f"inside states)"
                )
        for name, body in self.states.items():
            for op in self._walk(body):
                if isinstance(op, StateDispatch):
                    raise FsmError(
                        f"FSM {self.name!r}: StateDispatch inside state {name!r} "
                        f"(use Redispatch for same-cycle fall-through)"
                    )

        # Malformed transitions: every Goto must target a declared state.
        for op in self._all_ops():
            if isinstance(op, Goto) and op.state not in self.states:
                raise FsmError(
                    f"FSM {self.name!r}: transition to unknown state "
                    f"{op.state!r} (declared: {sorted(self.states)})"
                )
            if isinstance(op, Drive):
                raise FsmError(
                    f"clocked FSM {self.name!r} drives {op.sig!r} "
                    f"combinationally; clocked machines must schedule() or "
                    f"pulse() (conflicting-drive hazard)"
                )

        # Unreachable states: not initial, not helper-entered, never a Goto
        # target.  A state the dispatch chain can never select is dead logic
        # — reject it loudly instead of silently carrying it.
        targeted = {self.initial, *self.external_states}
        targeted.update(
            op.state for op in self._all_ops() if isinstance(op, Goto)
        )
        unreachable = [s for s in self.states if s not in targeted]
        if unreachable:
            raise FsmError(
                f"FSM {self.name!r}: unreachable state(s) {unreachable} "
                f"(no Goto targets them, they are not the initial state, and "
                f"they are not declared in external_states)"
            )

    # -- introspection ------------------------------------------------------

    def written_signals(self) -> Tuple[str, ...]:
        """Binding names of every signal (and group) this machine writes."""
        names: List[str] = []
        for op in self._all_ops():
            if isinstance(op, (Schedule, Pulse, Drive)):
                if op.sig not in names:
                    names.append(op.sig)
            elif isinstance(op, ScheduleZero):
                if op.group not in names:
                    names.append(op.group)
        return tuple(names)

    def _canonical(self) -> str:
        def dump(op: Op) -> str:
            kind = type(op).__name__
            parts = []
            for f in fields(op):
                value = getattr(op, f.name)
                if isinstance(value, tuple) and value and isinstance(value[0], Op):
                    value = "[" + ",".join(dump(v) for v in value) + "]"
                parts.append(f"{f.name}={value!r}")
            return f"{kind}({','.join(parts)})"

        lines = [
            f"fsm:{self.name}:{self.kind}:{self.initial}:{self.state_attr}",
            "entry:" + ",".join(dump(op) for op in self.entry),
        ]
        for name, body in self.states.items():
            lines.append(f"state {name}:" + ",".join(dump(op) for op in body))
        # The lexicon: lowering renames each name by its category, so the
        # same ops over names declared in different categories emit
        # different code.
        for category in ("signals", "groups", "helpers", "consts", "temps", "regs"):
            lines.append(f"{category}:{','.join(getattr(self, category))}")
        lines.append(f"gate:{','.join(self.gate)}")
        lines.append(f"hot:{self.hot}")
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Content digest of the IR (states, transitions, ops, lexicon).

        Computed once per spec: specs are not modified after construction.
        """
        digest = getattr(self, "_fingerprint", None)
        if digest is None:
            digest = hashlib.sha256(self._canonical().encode()).hexdigest()
            self._fingerprint = digest
        return digest


#: Bumped whenever the IR schema or execution semantics change; folded into
#: :func:`fsm_ir_fingerprint` so caches keyed on it invalidate.
FSM_IR_VERSION = 2


@lru_cache(maxsize=1)
def fsm_ir_fingerprint() -> str:
    """Digest of this module's source + IR schema version.

    The campaign result cache folds this into every cell digest so a change
    to the FSM IR (its semantics, its lowering, or any machine described in
    it — machine specs live in source files already covered by the source
    fingerprint) invalidates cached measurements.
    """
    from pathlib import Path

    digest = hashlib.sha256()
    digest.update(f"fsm-ir-v{FSM_IR_VERSION}\0".encode())
    digest.update(Path(__file__).read_bytes())
    return digest.hexdigest()


def detect_drive_conflicts(machines: Sequence["BoundFsm"]) -> List[str]:
    """Report signals combinationally driven by more than one bound machine.

    Two comb machines driving the same :class:`Signal` is the classic
    conflicting-drive bug; the scan kernels would silently resolve it by
    execution order.  Returns human-readable diagnostics (empty = clean).
    """
    drivers: Dict[int, List[Tuple[str, Signal]]] = {}
    for machine in machines:
        if machine.spec.kind != "comb":
            continue
        for name in machine.spec.written_signals():
            sig = machine._bindings[name]
            drivers.setdefault(id(sig), []).append((machine.spec.name, sig))
    conflicts = []
    for entries in drivers.values():
        if len(entries) > 1:
            sig = entries[0][1]
            owners = sorted(name for name, _ in entries)
            conflicts.append(
                f"signal {sig.name!r} is combinationally driven by "
                f"{len(entries)} machines: {', '.join(owners)}"
            )
    return sorted(conflicts)


# ---------------------------------------------------------------------------
# interpreted backend
# ---------------------------------------------------------------------------

# Compiled-op tags (tuple-encoded program for the tree walker).
_EXEC, _IF, _GOTO, _REDISP, _DISPATCH, _ACTIVE, _SCHED, _PULSE, _DRIVE, _SZERO, _CALL, _SLEEP = range(12)

#: Control codes returned by the interpreter's op walker.
_CTRL_NONE, _CTRL_REDISPATCH = 0, 1


class BoundFsm:
    """An :class:`FsmSpec` bound to its owner module, signals and helpers.

    ``tick`` is the standalone tick generated from the IR — register it as
    the machine's process (``module.clocked(fsm.tick, sensitive_to=[...])``
    or ``module.comb(...)``); a clocked tick returns the wait-state-elision
    activity flag.  The compiled kernel recognises the bound machine via the
    ``emit_compiled_clocked`` / ``emit_compiled_comb`` hooks and inlines the
    lowered form instead of calling ``tick`` at all.  ``tick_interpreted``
    is the tree-walking interpreter over the same IR, the oracle the tests
    register in place of ``tick``.
    """

    def __init__(
        self,
        spec: FsmSpec,
        owner,
        *,
        signals: Optional[Dict[str, Signal]] = None,
        groups: Optional[Dict[str, tuple]] = None,
        helpers: Optional[Dict[str, Callable]] = None,
        consts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.spec = spec
        self.owner = owner
        signals = dict(signals or {})
        groups = {k: tuple(v) for k, v in (groups or {}).items()}
        helpers = dict(helpers or {})
        consts = {k: int(v) for k, v in (consts or {}).items()}
        for label, declared, supplied in (
            ("signal", spec.signals, signals),
            ("group", spec.groups, groups),
            ("helper", spec.helpers, helpers),
            ("const", spec.consts, consts),
        ):
            missing = [n for n in declared if n not in supplied]
            extra = [n for n in supplied if n not in declared]
            if missing or extra:
                raise FsmError(
                    f"FSM {spec.name!r}: {label} bindings mismatch "
                    f"(missing {missing}, undeclared {extra})"
                )
        self._signals = signals
        self._groups = groups
        self._helpers = helpers
        self._consts = consts
        self._bindings: Dict[str, object] = {**signals, **groups}
        #: Monitor registers, shared by all three execution forms, so their
        #: history survives a recompile or a change of kernel.
        self._regs = [0] * len(spec.regs)
        self._state_names = list(spec.states)
        self._state_index = {name: i for i, name in enumerate(self._state_names)}
        # Persistent expression namespace for the interpreter: bindings are
        # constant, temps persist harmlessly between ticks, CYCLE is
        # refreshed per tick.
        self._ns: Dict[str, object] = {
            "m": owner,
            "CYCLE": 0,
            **signals,
            **groups,
            **helpers,
            **consts,
        }
        # The interpreter's op program is built lazily on first use: the
        # oracle is exercised by tests, not by ordinary simulation, and
        # compiling its per-op expressions for every machine of every system
        # build was measurable at campaign scale.
        self._entry_prog: Optional[tuple] = None
        self._state_progs: List[tuple] = []
        if spec.kind == "clocked" and not hasattr(owner, spec.state_attr):
            setattr(owner, spec.state_attr, spec.initial)
        self._standalone = False
        #: The registered process: a per-machine function generated from the
        #: IR (state register synchronised with the owner per call).  The
        #: ``__self__`` backref lets the compiled kernel discover the
        #: lowering hooks exactly as it does for bound methods.
        self.tick = self._build_standalone_tick()
        self.tick.__self__ = self

    # -- profile / introspection -------------------------------------------

    @property
    def profile_label(self) -> str:
        owner_name = getattr(self.owner, "name", type(self.owner).__name__)
        return f"{owner_name}:{self.spec.name}"

    @property
    def state(self) -> str:
        """Current state name (clocked machines)."""
        return getattr(self.owner, self.spec.state_attr)

    # -- op compilation -----------------------------------------------------

    def _expr(self, text: str):
        return compile(text, f"<fsm {self.spec.name}>", "eval")

    def _stmt(self, text: str):
        return compile(text, f"<fsm {self.spec.name}>", "exec")

    def _compile_ops(self, ops: tuple) -> tuple:
        prog = []
        for op in ops:
            if isinstance(op, Exec):
                prog.append((_EXEC, self._stmt(op.code)))
            elif isinstance(op, If):
                prog.append(
                    (
                        _IF,
                        self._expr(op.cond),
                        self._compile_ops(op.then),
                        self._compile_ops(op.orelse),
                    )
                )
            elif isinstance(op, Goto):
                prog.append((_GOTO, self._state_index[op.state]))
            elif isinstance(op, Redispatch):
                prog.append((_REDISP,))
            elif isinstance(op, StateDispatch):
                prog.append((_DISPATCH,))
            elif isinstance(op, Active):
                prog.append((_ACTIVE, self._expr(op.expr), op.accumulate))
            elif isinstance(op, Schedule):
                prog.append(
                    (_SCHED, self._signals[op.sig], self._expr(op.expr), op.capture)
                )
            elif isinstance(op, Pulse):
                prog.append(
                    (_PULSE, self._signals[op.sig], self._expr(op.expr), op.capture)
                )
            elif isinstance(op, Drive):
                prog.append((_DRIVE, self._signals[op.sig], self._expr(op.expr)))
            elif isinstance(op, ScheduleZero):
                prog.append((_SZERO, self._groups[op.group]))
            elif isinstance(op, Call):
                args = self._expr(f"({op.args},)") if op.args else None
                prog.append((_CALL, self._helpers[op.helper], args, op.store))
            elif isinstance(op, Sleep):
                prog.append((_SLEEP, self._expr(op.delta)))
            else:  # pragma: no cover - guarded by _ops()
                raise FsmError(f"unknown op {op!r}")
        return tuple(prog)

    # -- interpreted execution ---------------------------------------------

    def _run(self, prog: tuple, ns: dict, ctx: list) -> int:
        # ctx = [state_index, activity, simulator]; returns a control code.
        for op in prog:
            tag = op[0]
            if tag == _IF:
                branch = op[2] if eval(op[1], ns) else op[3]
                if branch:
                    ctrl = self._run(branch, ns, ctx)
                    if ctrl:
                        return ctrl
            elif tag == _EXEC:
                exec(op[1], ns)
            elif tag == _SCHED:
                if op[3]:
                    ctx[1] = op[1].schedule(eval(op[2], ns)) or ctx[1]
                else:
                    op[1].schedule(eval(op[2], ns))
            elif tag == _PULSE:
                if op[3]:
                    ctx[1] = op[1].pulse(eval(op[2], ns)) or ctx[1]
                else:
                    op[1].pulse(eval(op[2], ns))
            elif tag == _ACTIVE:
                if op[2]:
                    ctx[1] = ctx[1] or eval(op[1], ns)
                else:
                    ctx[1] = eval(op[1], ns)
            elif tag == _GOTO:
                ctx[0] = op[1]
            elif tag == _CALL:
                clocked = self.spec.kind == "clocked"
                owner, attr = self.owner, self.spec.state_attr
                if clocked:
                    setattr(owner, attr, self._state_names[ctx[0]])
                result = op[1](*eval(op[2], ns)) if op[2] is not None else op[1]()
                if op[3] is not None:
                    ns[op[3]] = result
                if clocked:
                    ctx[0] = self._state_index[getattr(owner, attr)]
            elif tag == _SLEEP:
                delta = eval(op[1], ns)
                sim = ctx[2]
                if delta > 1 and sim is not None and sim.timed_wakes:
                    # Wake the interpreter itself: when tick_interpreted is
                    # the registered process, this is the identity the
                    # kernel's wake bits are keyed by (bound methods compare
                    # by function+instance, so a fresh access is fine).
                    sim.wake_after(self.tick_interpreted, delta)
                    ctx[1] = False
                else:
                    ctx[1] = True
            elif tag == _DISPATCH:
                progs = self._state_progs
                for _ in range(64):
                    if self._run(progs[ctx[0]], ns, ctx) != _CTRL_REDISPATCH:
                        break
                else:  # pragma: no cover - defensive bound
                    raise FsmError(
                        f"FSM {self.spec.name!r}: dispatch did not terminate"
                    )
            elif tag == _REDISP:
                return _CTRL_REDISPATCH
            elif tag == _DRIVE:
                op[1].drive(eval(op[2], ns))
            elif tag == _SZERO:
                schedule_zero(op[1])
        return _CTRL_NONE

    def tick_interpreted(self):
        """Interpreted execution of one clock tick (or one comb evaluation).

        The tree-walking oracle: op-by-op execution over the IR data with no
        code generation involved.  Drop-in compatible with :attr:`tick`;
        the equivalence tests (randomized machines and the paper grid)
        register it to pin down the semantics the generated forms must
        reproduce.
        """
        if self._entry_prog is None:
            self._entry_prog = self._compile_ops(self.spec.entry)
            self._state_progs = [
                self._compile_ops(self.spec.states[name])
                for name in self._state_names
            ]
        owner = self.owner
        sim = getattr(owner, "_simulator", None)
        ns = self._ns
        ns["CYCLE"] = sim.cycle if sim is not None else 0
        if self.spec.kind != "clocked":
            regs = self.spec.regs
            ns.update(zip(regs, self._regs))
            self._run(self._entry_prog, ns, [0, False, sim])
            self._regs[:] = [ns[name] for name in regs]
            return None
        ctx = [self._state_index[getattr(owner, self.spec.state_attr)], False, sim]
        self._run(self._entry_prog, ns, ctx)
        setattr(owner, self.spec.state_attr, self._state_names[ctx[0]])
        return ctx[1]

    # -- standalone generated tick (the scan-kernel backend) ----------------

    def _build_standalone_tick(self):
        """Generate this machine's ``tick()`` function from the IR.

        Shares the op emitter with the compiled-kernel lowering (the two
        forms cannot drift apart); bindings live in closure cells, constants
        are inlined as literals, and the state register round-trips through
        the owner's state attribute once per call so helpers and tests keep
        seeing the familiar state names.
        """
        p = "z"
        spec = self.spec
        # Same spec, same program: the generated source depends only on the
        # IR and the declared binding names, so the compiled code object is
        # cached on the spec and shared by every machine instance built from
        # it (specs themselves are cached per class/shape by their owners).
        program = getattr(spec, "_standalone_program", None)
        if program is None:
            # Unlike the lowered form (emitted per elaboration freeze, where
            # constants become literals), the shared standalone program takes
            # consts as closure parameters — instances built from the same
            # spec may bind different values (base addresses, widths).
            mapping = self._rename_map(p)
            for name in spec.consts:
                mapping[name] = f"{p}_k_{name}"
            rename = self._renamer(mapping)
            make_params: List[str] = [f"{p}_M", f"{p}_SN", f"{p}_SI", f"{p}_SZ", f"{p}_RG"]
            alias_lines = [f"{p}_m = {p}_M"]
            for name in spec.signals:
                make_params.append(f"{p}_SIG_{name}")
                alias_lines.append(f"{p}_{name} = {p}_SIG_{name}")
            for name in spec.groups:
                make_params.append(f"{p}_GRP_{name}")
                alias_lines.append(f"{p}_g_{name} = {p}_GRP_{name}")
            for name in spec.helpers:
                make_params.append(f"{p}_HLP_{name}")
                alias_lines.append(f"{p}_h_{name} = {p}_HLP_{name}")
            for name in spec.consts:
                make_params.append(f"{p}_k_{name}")

            body: List[str] = []
            self._standalone = True
            try:
                self._emit_ops(spec.entry, "", rename, body, p)
            finally:
                self._standalone = False

            lines = [f"def {p}_make({', '.join(make_params)}):"]
            lines += ["    " + line for line in alias_lines]
            lines.append(f"    def {p}_tick():")
            if spec.kind == "comb":
                lines += ["        " + line for line in body]
                lines.append("        return None")
            elif spec.kind == "monitor":
                lines.append(f"        {p}_s = {p}_m._simulator")
                lines.append(f"        cyc = {p}_s.cycle if {p}_s is not None else 0")
                load, store = self._reg_lines(p)
                lines += ["        " + line for line in load + body + store]
                lines.append("        return None")
            else:
                lines.append(f"        {p}_s = {p}_m._simulator")
                lines.append(f"        cyc = {p}_s.cycle if {p}_s is not None else 0")
                lines.append(f"        {p}_st = {p}_SI[{p}_m.{spec.state_attr}]")
                lines.append(f"        {p}_act = False")
                lines += ["        " + line for line in body]
                lines.append(f"        {p}_m.{spec.state_attr} = {p}_SN[{p}_st]")
                lines.append(f"        return {p}_act")
            lines.append(f"    return {p}_tick")
            program = compile("\n".join(lines), f"<fsm-tick {spec.name}>", "exec")
            spec._standalone_program = program

        make_args: Dict[str, object] = {
            f"{p}_M": self.owner,
            f"{p}_SN": self._state_names,
            f"{p}_SI": self._state_index,
            f"{p}_SZ": schedule_zero,
            f"{p}_RG": self._regs,
        }
        for name in spec.signals:
            make_args[f"{p}_SIG_{name}"] = self._signals[name]
        for name in spec.groups:
            make_args[f"{p}_GRP_{name}"] = self._groups[name]
        for name in spec.helpers:
            make_args[f"{p}_HLP_{name}"] = self._helpers[name]
        for name in spec.consts:
            make_args[f"{p}_k_{name}"] = self._consts[name]
        namespace: Dict[str, object] = {f"{p}_FERR": FsmError}
        exec(program, namespace)
        return namespace[f"{p}_make"](**make_args)

    # -- lowered backend ----------------------------------------------------

    def _renamer(self, mapping: Dict[str, str]):
        import re

        if not mapping:
            return lambda text: text
        # String literals are matched first (and left untouched) so a state
        # name or message containing a lexicon word is never rewritten.
        pattern = re.compile(
            r"('[^']*'|\"[^\"]*\")|(?<![\w.])("
            + "|".join(sorted(map(re.escape, mapping), key=len, reverse=True))
            + r")\b"
        )

        def replace(match):
            if match.group(1) is not None:
                return match.group(1)
            return mapping[match.group(2)]

        return lambda text: pattern.sub(replace, text)

    def _emit_ops(self, ops: tuple, indent: str, rename, lines: List[str], p: str) -> None:
        spec = self.spec
        for op in ops:
            if isinstance(op, Exec):
                for line in op.code.split("\n"):
                    lines.append(indent + rename(line))
            elif isinstance(op, If):
                lines.append(indent + f"if {rename(op.cond)}:")
                if op.then:
                    self._emit_ops(op.then, indent + "    ", rename, lines, p)
                else:
                    lines.append(indent + "    pass")
                if op.orelse:
                    lines.append(indent + "else:")
                    self._emit_ops(op.orelse, indent + "    ", rename, lines, p)
            elif isinstance(op, Goto):
                lines.append(indent + f"{p}_st = {self._state_index[op.state]}")
            elif isinstance(op, Redispatch):
                lines.append(indent + "continue")
            elif isinstance(op, StateDispatch):
                self._emit_dispatch(indent, rename, lines, p)
            elif isinstance(op, Active):
                target = f"{p}_act"
                if op.accumulate:
                    lines.append(indent + f"{target} = {target} or ({rename(op.expr)})")
                else:
                    lines.append(indent + f"{target} = {rename(op.expr)}")
            elif isinstance(op, Schedule):
                if self._standalone:
                    call = f"{rename(op.sig)}.schedule({rename(op.expr)})"
                    if op.capture:
                        lines.append(indent + f"{p}_act = {call} or {p}_act")
                    else:
                        lines.append(indent + call)
                else:
                    self._emit_schedule_inline(op, indent, rename, lines, p)
            elif isinstance(op, Pulse):
                if self._standalone:
                    call = f"{rename(op.sig)}.pulse({rename(op.expr)})"
                    if op.capture:
                        lines.append(indent + f"{p}_act = {call} or {p}_act")
                    else:
                        lines.append(indent + call)
                else:
                    self._emit_pulse_inline(op, indent, rename, lines, p)
            elif isinstance(op, Drive):
                if self._standalone:
                    lines.append(indent + f"{rename(op.sig)}.drive({rename(op.expr)})")
                else:
                    self._emit_drive_inline(op, indent, rename, lines, p)
            elif isinstance(op, ScheduleZero):
                if self._standalone:
                    lines.append(indent + f"{p}_SZ({rename(op.group)})")
                else:
                    # Unrolled per member against the known observer contract
                    # (mirrors schedule_zero exactly, including its quirk of
                    # not touching _auto on the scheduled-from-idle path).
                    for index in range(len(self._groups[op.group])):
                        sig = f"{p}_GM_{op.group}_{index}"
                        lines.append(indent + f"if {sig}._next is None:")
                        lines.append(indent + f"    if {sig}._value:")
                        lines.append(indent + f"        {sig}._next = 0")
                        lines.append(indent + f"        sched.append({sig})")
                        lines.append(indent + "else:")
                        lines.append(indent + f"    {sig}._next = 0")
                        lines.append(indent + f"    {sig}._auto = False")
            elif isinstance(op, Call):
                attr = spec.state_attr
                clocked = spec.kind == "clocked"
                if clocked:
                    lines.append(indent + f"{p}_m.{attr} = {p}_SN[{p}_st]")
                call = f"{rename(op.helper)}({rename(op.args)})"
                if op.store is not None:
                    lines.append(indent + f"{rename(op.store)} = {call}")
                else:
                    lines.append(indent + call)
                if clocked:
                    lines.append(indent + f"{p}_st = {p}_SI[{p}_m.{attr}]")
            elif isinstance(op, Sleep):
                lines.append(indent + f"{p}_d = {rename(op.delta)}")
                if self._standalone:
                    # Scan kernels run every clocked process every cycle;
                    # only kernels honouring timed wakes may park.
                    lines.append(
                        indent
                        + f"if {p}_d > 1 and {p}_s is not None and {p}_s.timed_wakes:"
                    )
                    lines.append(indent + f"    {p}_s.wake_after({p}_tick, {p}_d)")
                else:
                    # The compiled kernel always honours timed wakes — park
                    # when the countdown is long enough to pay for the heap
                    # traffic.  The break-even point belongs to the kernel,
                    # which parks only countdowns longer than 3 cycles,
                    # leaping or not: short waits (arbitration, bridge
                    # crossings) stay active.  A threshold of 1 cut the
                    # generated loop's opcodes per cycle by about 2.6% on
                    # splice_plb and simple_plb (none on splice_fcb), but the
                    # wake_after and _pop_timed calls it adds outside the
                    # loop raised the whole cycle's by 1-2%.  Countdowns
                    # re-check their target either way.
                    lines.append(indent + f"if {p}_d > s._sleep_threshold:")
                    lines.append(indent + f"    s.wake_after({p}_TICK, {p}_d)")
                lines.append(indent + f"    {p}_act = False")
                lines.append(indent + "else:")
                lines.append(indent + f"    {p}_act = True")

    # The lowered backend runs inside CompiledSimulator's generated loop,
    # where the signal observer protocol is known statically: a scheduled
    # report is exactly ``sched.append(sig)`` and a changed report is exactly
    # ``s._events |= sig._ev_mask``.  The three emitters below inline
    # Signal.schedule/pulse/drive against that contract — the per-op method
    # call disappears and the width mask becomes a literal.  The standalone
    # tick keeps the method calls: on scan kernels the observer differs.

    def _masked_value(self, op, rename) -> Tuple[Optional[int], str]:
        """Constant-fold the op's value expression when it is a literal
        (inlined constants included — the renamer substitutes them first)."""
        mask = self._signals[op.sig]._mask
        text = rename(op.expr)
        try:
            return int(text, 0) & mask, ""
        except ValueError:
            return None, f"({text}) & {mask}"

    def _emit_schedule_inline(self, op, indent, rename, lines: List[str], p: str) -> None:
        sig = rename(op.sig)
        const, value_code = self._masked_value(op, rename)
        if const is None:
            lines.append(indent + f"{p}_v = {value_code}")
            value = f"{p}_v"
        else:
            value = repr(const)
        report = [f"{indent}        {p}_act = True"] if op.capture else []
        lines.append(indent + f"if {sig}._next is None:")
        lines.append(indent + f"    if {value} != {sig}._value:")
        lines.append(indent + f"        {sig}._auto = False")
        lines.append(indent + f"        {sig}._next = {value}")
        lines.append(indent + f"        sched.append({sig})")
        lines.extend(report)
        lines.append(indent + "    else:")
        lines.append(indent + f"        {sig}._auto = False")
        lines.append(indent + "else:")
        lines.append(indent + f"    {sig}._auto = False")
        lines.append(indent + f"    {sig}._next = {value}")
        if op.capture:
            lines.append(indent + f"    {p}_act = True")

    def _emit_pulse_inline(self, op, indent, rename, lines: List[str], p: str) -> None:
        sig = rename(op.sig)
        const, value_code = self._masked_value(op, rename)
        if const is not None and const != 0:
            # The common strobe: a non-zero constant pulse always schedules.
            lines.append(indent + f"if {sig}._next is None: sched.append({sig})")
            lines.append(indent + f"{sig}._next = {const}")
            lines.append(indent + f"{sig}._auto = True")
            if op.capture:
                lines.append(indent + f"{p}_act = True")
            return
        if const is None:
            lines.append(indent + f"{p}_v = {value_code}")
            value = f"{p}_v"
        else:
            value = repr(const)
        lines.append(indent + f"if {sig}._next is None:")
        lines.append(indent + f"    if {value} != {sig}._value or {value} != 0:")
        lines.append(indent + f"        sched.append({sig})")
        lines.append(indent + f"        {sig}._next = {value}")
        lines.append(indent + f"        {sig}._auto = True")
        if op.capture:
            lines.append(indent + f"        {p}_act = True")
        lines.append(indent + "else:")
        lines.append(indent + f"    {sig}._next = {value}")
        lines.append(indent + f"    {sig}._auto = True")
        if op.capture:
            lines.append(indent + f"    {p}_act = True")

    def _emit_drive_inline(self, op, indent, rename, lines: List[str], p: str) -> None:
        sig = rename(op.sig)
        const, value_code = self._masked_value(op, rename)
        if const is None:
            lines.append(indent + f"{p}_v = {value_code}")
            value = f"{p}_v"
        else:
            value = repr(const)
        lines.append(indent + f"if {value} != {sig}._value:")
        lines.append(indent + f"    {sig}._value = {value}")
        lines.append(indent + f"    s._events |= {sig}._ev_mask")

    def _emit_dispatch(self, indent: str, rename, lines: List[str], p: str) -> None:
        if not any(isinstance(op, Redispatch) for op in self.spec._all_ops()):
            # No state re-enters the chain: one pass runs one state body.
            for index, name in enumerate(self._state_names):
                keyword = "elif" if index else "if"
                lines.append(indent + f"{keyword} {p}_st == {index}:")
                body = self.spec.states[name]
                if body:
                    self._emit_ops(body, indent + "    ", rename, lines, p)
                else:
                    lines.append(indent + "    pass")
            return
        # Bounded like the interpreter's dispatch (a Redispatch cycle must
        # fail loudly, not hang the generated loop); the for/else raises
        # only when 64 iterations never reached a break.
        lines.append(indent + f"for {p}_i in range(64):")
        inner = indent + "    "
        for index, name in enumerate(self._state_names):
            lines.append(inner + f"if {p}_st == {index}:")
            body = self.spec.states[name]
            if body:
                self._emit_ops(body, inner + "    ", rename, lines, p)
            else:
                lines.append(inner + "    pass")
            lines.append(inner + "    break")
        lines.append(inner + "break")
        lines.append(indent + "else:")
        lines.append(
            indent
            + f"    raise {p}_FERR({self.spec.name!r} + ': dispatch did not terminate')"
        )

    def _rename_map(self, p: str) -> Dict[str, str]:
        mapping = {"m": f"{p}_m", "CYCLE": "cyc"}
        for name in self.spec.signals:
            mapping[name] = f"{p}_{name}"
        for name in self.spec.groups:
            mapping[name] = f"{p}_g_{name}"
        for name in self.spec.helpers:
            mapping[name] = f"{p}_h_{name}"
        for name, value in self._consts.items():
            mapping[name] = repr(value)
        for name in self.spec.temps:
            mapping[name] = f"{p}_t_{name}"
        for name in self.spec.regs:
            mapping[name] = f"{p}_r_{name}"
        return mapping

    def _reg_lines(self, p: str) -> Tuple[List[str], List[str]]:
        """Lines that load the monitor registers into locals, and store them."""
        if not self.spec.regs:
            return [], []
        names = ", ".join(f"{p}_r_{name}" for name in self.spec.regs)
        return [f"{names}, = {p}_RG"], [f"{p}_RG[:] = ({names},)"]

    def _emit_lowered_body(self, p: str) -> List[str]:
        """Emit the lowered per-cycle lines of this machine under prefix ``p``."""
        if self.spec.kind != "comb":
            rename = self._renamer(self._rename_map(p))
            body: List[str] = [f"{p}_act = False"] if self.spec.kind == "clocked" else []
        else:
            # The comb body references namespace globals directly and
            # never reads CYCLE, groups or helpers.
            mapping = {"m": f"{p}_m"}
            for name in self._signals:
                mapping[name] = f"{p}_{name}"
            for name, value in self._consts.items():
                mapping[name] = repr(value)
            for name in self.spec.temps:
                mapping[name] = f"{p}_t_{name}"
            rename = self._renamer(mapping)
            body = []
        self._emit_ops(self.spec.entry, "", rename, body, p)
        return body

    def _lowered_key(self, p: str) -> tuple:
        """Everything the lowered text depends on besides the spec: the
        prefix, the constant values (inlined as literals), the group sizes
        (``ScheduleZero`` unrolls per member) and the signal masks (folded
        into literal values)."""
        spec = self.spec
        return (
            p,
            tuple(self._consts[name] for name in spec.consts),
            tuple(len(self._groups[name]) for name in spec.groups),
            tuple(self._signals[name]._mask for name in spec.signals),
        )

    def _lowered_body(self, p: str) -> List[str]:
        """The lowered per-cycle lines, served from the spec's memo.

        The text is a pure function of the spec and :meth:`_lowered_key`,
        so every instance of a spec with the same key, in any design this
        process builds, shares one emission.
        """
        body = self.spec._lowered.get(
            self._lowered_key(p), lambda: tuple(self._emit_lowered_body(p))
        )
        return list(body)

    def _hoisted_bindings(self, p: str) -> Tuple[Dict[str, object], List[str]]:
        """The namespace and entry lines that hoist the owner and every
        binding into function locals, once per generated call."""
        namespace: Dict[str, object] = {f"{p}_M": self.owner}
        entry = [f"{p}_m = {p}_M"]
        for name, sig in self._signals.items():
            namespace[f"{p}_SIG_{name}"] = sig
            entry.append(f"{p}_{name} = {p}_SIG_{name}")
        for name, group in self._groups.items():
            namespace[f"{p}_GRP_{name}"] = group
            entry.append(f"{p}_g_{name} = {p}_GRP_{name}")
            for index, sig in enumerate(group):
                namespace[f"{p}_GM_{name}_{index}"] = sig
        for name, helper in self._helpers.items():
            namespace[f"{p}_HLP_{name}"] = helper
            entry.append(f"{p}_h_{name} = {p}_HLP_{name}")
        return namespace, entry

    def emit_compiled_clocked(self, prefix: str) -> dict:
        """Lowering hook for :class:`repro.rtl.compile.CompiledSimulator`.

        Returns ``entry`` lines (hoist bindings + the state register into
        function locals, once per generated call), per-cycle ``body`` lines
        (the machine inlined; sets ``<prefix>_act``), ``exit`` lines (write
        the state name back to the owner), the ``namespace`` the generated
        module needs, and ``may_drive``: whether a ``Call`` or ``Drive`` op
        can change a signal while the machine runs, so that the kernel
        re-reads the wake word after it.  The body is emitted at zero
        indentation; the kernel indents it under its run-gate.
        """
        if self.spec.kind != "clocked":
            raise FsmError(f"FSM {self.spec.name!r} is not a clocked machine")
        p = prefix
        namespace, entry = self._hoisted_bindings(p)
        namespace.update({
            f"{p}_SN": self._state_names,
            f"{p}_SI": self._state_index,
            f"{p}_SZ": schedule_zero,
            f"{p}_TICK": self.tick,
            f"{p}_FERR": FsmError,
        })
        entry.append(f"{p}_st = {p}_SI[{p}_m.{self.spec.state_attr}]")
        exit_ = [f"{p}_M.{self.spec.state_attr} = {p}_SN[{p}_st]"]
        return {
            "entry": entry,
            "body": self._lowered_body(p),
            "exit": exit_,
            "namespace": namespace,
            "act": f"{p}_act",
            "may_drive": any(isinstance(op, (Drive, Call)) for op in self.spec._all_ops()),
            "label": self.profile_label,
            "fingerprint": self.spec.fingerprint(),
        }

    def emit_compiled_comb(self, prefix: str) -> dict:
        """Lowering hook for combinational machines (settle-sweep inline).

        The body references namespace globals directly (the sweep runs only
        on triggered cycles, in both ``step`` and ``settle_once``, so there
        is no shared entry hoist point).
        """
        if self.spec.kind != "comb":
            raise FsmError(f"FSM {self.spec.name!r} is not a comb machine")
        p = prefix
        namespace: Dict[str, object] = {f"{p}_m": self.owner}
        for name, sig in self._signals.items():
            namespace[f"{p}_{name}"] = sig
        return {
            "body": self._lowered_body(p),
            "namespace": namespace,
            "label": self.profile_label,
            "fingerprint": self.spec.fingerprint(),
        }

    def emit_compiled_monitor(self, prefix: str) -> dict:
        """Fusion hook for monitors (see ``CompiledSimulator._monitor_blocks``).

        Returns ``entry`` lines (hoist bindings and load the registers into
        locals), the per-cycle ``body`` (the monitor inlined, emitted by the
        same emitter as the standalone tick), ``exit`` lines (write the
        registers back), the ``namespace``, and the event gate: the
        ``gate_signals`` and the ``hot`` expression over the register
        locals.  ``CYCLE`` reads the loop's post-increment cycle number, the
        value a scan kernel's monitor reads from the simulator.
        """
        spec = self.spec
        if spec.kind != "monitor":
            raise FsmError(f"FSM {spec.name!r} is not a monitor")
        p = prefix
        namespace, entry = self._hoisted_bindings(p)
        namespace[f"{p}_RG"] = self._regs
        load, store = self._reg_lines(p)
        return {
            "entry": entry + load,
            "body": self._lowered_body(p),
            "exit": store,
            "namespace": namespace,
            "gate_signals": [self._signals[name] for name in spec.gate],
            "hot": self._renamer(self._rename_map(p))(spec.hot),
        }
