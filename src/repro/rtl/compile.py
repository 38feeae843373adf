"""Levelized compiled simulation kernel: elaborate once, run straight-line.

The event-driven kernel re-discovers, on every cycle, which processes to run
— set unions over dirty signals, dict lookups per sensitivity entry, and a
fixed-point settle loop.  Production cycle-based HDL simulators do none of
that at runtime: they *levelize* the combinational network once at
elaboration and emit a single evaluation order.  :class:`CompiledSimulator`
brings that technique to this codebase.

At registration-freeze time (the first ``step``/``settle``/``reset`` after a
registration, or an explicit :meth:`CompiledSimulator.compile`) the kernel:

1. **assigns dense integer ids** to every signal and process;
2. **builds the sensitivity DAG** from the ``add_comb(..., sensitive_to=...,
   drives=...)`` declarations — an edge from process P to process Q for each
   signal P drives that Q is sensitive to;
3. **topologically ranks** the combinational processes (Kahn's algorithm,
   registration order within a rank), *statically rejecting* true
   combinational cycles at compile time with the offending signal path in
   the :class:`~repro.rtl.simulator.SimulationError` — before any cycle
   runs;
4. **code-generates a fused cycle loop** — clocked phase, non-observer
   commit of scheduled signals, a *single* rank-ordered settle sweep gated
   by an integer event bitmask, and monitor dispatch — with every per-cycle
   attribute/property lookup hoisted into locals and every process call
   unrolled.

Levelization is what makes the single sweep sufficient: producers are
ordered before consumers, so each triggered process runs at most once per
cycle and the sweep ends at the same fixed point the event-driven kernel
iterates to.  The price is a stricter contract: every combinational process
must declare both its complete input set (``sensitive_to``) and its complete
output set (``drives``), and must be a pure function of signal values.

Event bitmask layout
--------------------

One Python integer carries all pending work.  Bits ``[0, n_comb)`` are
"combinational process i must re-run"; bits ``[n_comb, n_comb + n_gated)``
are "elidable clocked process j must wake".  Each signal's
:attr:`~repro.rtl.signal.Signal._ev_mask` is the OR of the bits of every
process that reads it, so a committed or driven change is one ``|=`` — no
sets, no dicts, no per-process scheduling structures.

Per-cycle bookkeeping
---------------------

The loop keeps only the counters it cannot derive: settling cycles,
combinational activations, leaped cycles, and one run count per gated
clocked process.  At exit it derives the rest once: the call's cycles are
the clock's advance, every cycle that did not settle (a leaped one
included) took the fast path, and an always-run process ran on every
executed cycle.  A call that an exception cuts short mid-cycle counts the
cycles the clock advanced over, the settles that finished, and an
always-run process once per such cycle; gated process runs and
combinational activations are the ones that happened.  The activity word
lives in a local for the whole call.
The wake word is re-read after a process only when that process can drive
a signal (a called process, or a lowered machine with a ``Call`` or
``Drive`` op) and a gated process registered after it could wake.  A
lowered machine's state dispatch is a plain ``if``/``elif`` chain unless
one of its states can ``Redispatch``, which needs the bounded re-entry
loop.

Clocked wait-state elision
--------------------------

Clocked processes registered with ``add_clocked(proc, sensitive_to=[...])``
opt into elision: the compiled kernel skips them on cycles where none of
their declared inputs changed *and* their previous run reported quiescence
(a falsy return value).  The contract mirrors what the generated hardware
does — an FSM sitting in a wait state with stable inputs computes nothing —
and is what lets an idle SoC run at the cost of its genuinely active
processes only.  A process must return truthy whenever re-running it with
unchanged inputs would not be a no-op (it scheduled a signal, changed
internal state it will act on, or is mid-countdown).  Processes registered
without ``sensitive_to`` run every cycle, exactly as on the other kernels.

Harness fusion
--------------

The testbench side of a simulation lives inside the same generated loop:

* **Lowered waits** — :meth:`CompiledSimulator.wait_until` dispatches a
  declarative :class:`~repro.rtl.simulator.WaitCondition` to generated
  ``wait_eq``/``wait_ge`` loops sharing one per-cycle body, so a whole
  driver-call wait is one call with a slot compare per cycle.
  :meth:`CompiledSimulator.step` is ``wait_eq`` on a condition that never
  holds, so a fixed cycle count runs the same loop and ends at its limit.
* **Fused monitors** — a monitor registered as the ``tick`` of a
  ``monitor`` FSM-IR spec (:meth:`repro.rtl.fsm.BoundFsm.emit_compiled_monitor`;
  the SIS protocol monitor is one) has its checks inlined from the same
  emitter as its standalone tick, its registers hoisted into function
  locals, and its body event-gated on the spec's ``gate`` signals and
  ``hot`` expression — no per-cycle Python dispatch.
* **Timed wakes** — gated clocked processes in pure countdowns call
  :meth:`wake_after` and sleep; the loop pays one integer compare per cycle
  against the earliest pending wake.
* **Cycle leaping** — when every machine is parked (no pending commits,
  events, wakes or active machines) and every monitor is provably quiet,
  the generated loop jumps the cycle counter straight to the next timed
  wake (clamped to the call's horizon) instead of iterating: idle spans
  cost O(1) regardless of length.  Constructor flag ``leap=False`` (CLI:
  ``--no-leap``) disables the fast path for debugging; designs with
  always-run clocked processes or unannotated monitors never leap.
* **Persistent programs** — levelization + generated source are cached on
  disk (:class:`CompiledProgramCache`, ``SPLICE_COMPILE_CACHE``), keyed by
  a digest of the design topology and this compiler's own fingerprint, so
  identical designs skip levelization and codegen across processes.  A hit
  does not skip Python's ``compile()`` of the generated text, which is most
  of a freeze's cost; first-call compilation and the in-process code memo
  (below) are what bound that.

First-call compilation
----------------------

A freeze emits three entry points (:data:`ENTRY_POINTS`): ``wait_eq``,
``wait_ge`` and ``settle_once``.  The first two each carry their own copy
of the fused cycle body, yet most freezes call only one of them (the freeze
inside ``reset()`` calls only ``settle_once``, and ``step(n)`` is the
``wait_eq`` loop with a condition that never holds).  So a freeze stops at
the per-entry source, and each entry is compiled and executed on its first
call through ``step``, ``wait_until`` or ``settle``; it then stays until the
next registration.  :meth:`CompiledSimulator.compile` compiles all three,
which surfaces any codegen error at once and gives a benchmark an untimed
warm-up.

Reuse within a process
----------------------

Lowering and compiling are pure functions of their inputs, so both are
memoized for the life of the process, each behind a constant bound:

* the lowered text of each FSM-IR machine is kept on its spec, keyed by
  prefix, constant values, group sizes and signal masks
  (:meth:`repro.rtl.fsm.BoundFsm._lowered_body`); the second freeze of a
  system, and every later system of the same shape, skips lowering;
* the code object of each entry comes from a thread-safe LRU memo of
  :data:`ENTRY_CODE_MEMO_SIZE` entries keyed by the SHA-256 of the entry
  source, and is executed into the simulator's own namespace, so each
  system still binds its own ``SIM`` and signals.

Neither changes a generated byte.  Across processes only the on-disk
program cache is shared.

``tests/test_kernel_equivalence.py`` proves the whole construction
cycle-exact (full signal traces, every cycle, plus identical monitor
violation lists) against both the event-driven kernel and the
snapshot-based reference kernel on all four buses.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.rtl.memo import LruMemo
from repro.rtl.signal import Signal
from repro.rtl.simulator import Process, SimulationError, Simulator, WaitCondition

#: Environment variable naming the persistent compiled-program cache
#: directory.  When set (or when a cache is passed to the constructor),
#: levelization + codegen results are reused across processes for identical
#: design topologies — campaign workers and repeated ``build_system`` calls
#: skip levelization and codegen (not Python's ``compile()`` of the result).
PROGRAM_CACHE_ENV = "SPLICE_COMPILE_CACHE"

#: Fingerprint of this compiler's own source: baked into every design digest
#: so a change to the code generator invalidates all cached programs.
_COMPILER_FINGERPRINT = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()

#: The generated entry points, in the order :attr:`CompiledDesign.source`
#: lists them.  Each is compiled on its first call after a freeze.
ENTRY_POINTS = ("wait_eq", "wait_ge", "settle_once")


class CompiledProgramCache:
    """A directory of codegen results keyed by design digest.

    Entries are single JSON files (``<digest>.json``) holding the generated
    source of each entry point (``sources``, keyed by name) plus the
    levelization (``order``/``ranks``) needed to rebuild the
    :class:`CompiledDesign` introspection record without re-running Kahn's
    algorithm.  The digest covers the complete design topology *and* the
    compiler's own source fingerprint, so a hit is only possible for a design
    this exact compiler version would compile identically; corrupt entries
    are treated as misses.  Like the campaign result cache, the directory is
    trusted — entries are executed, so do not point it at untrusted data.
    """

    def __init__(self, directory) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def get(self, digest: str) -> Optional[dict]:
        path = self._path(digest)
        try:
            payload = json.loads(path.read_text())
            sources = {name: payload["sources"][name] for name in ENTRY_POINTS}
            if not all(isinstance(text, str) for text in sources.values()):
                raise ValueError("missing source")
            order = [int(x) for x in payload["order"]]
            ranks = {int(k): int(v) for k, v in payload["ranks"].items()}
        except (OSError, ValueError, KeyError, TypeError, AttributeError):
            self.misses += 1
            return None
        self.hits += 1
        return {"sources": sources, "order": order, "ranks": ranks}

    def put(
        self, digest: str, sources: Dict[str, str], order: List[int], ranks: Dict[int, int]
    ) -> Path:
        path = self._path(digest)
        payload = {
            "digest": digest,
            "sources": dict(sources),
            "order": list(order),
            "ranks": {str(k): v for k, v in ranks.items()},
        }
        # Unique per pid *and* thread: the farm compiles programs from
        # multiple threads of one process, so a pid-only temp name could
        # still interleave two writers into a torn entry.
        tmp = path.with_name(
            f".{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


#: Compiled entry points kept per process.  Entry sources repeat within a
#: process: the designs a fuzz session or a warm worker builds share
#: topologies, and a freeze after a registration re-emits entries whose
#: text did not change.  A code object is immutable and holds no reference
#: to a simulator (``SIM`` and every binding are globals of the namespace it
#: is executed in), so one compilation serves every simulator whose entry
#: has the same text.  Keys are SHA-256 digests, so the memo does not keep
#: the source alive.
ENTRY_CODE_MEMO_SIZE = 64

_ENTRY_CODE = LruMemo(ENTRY_CODE_MEMO_SIZE)

#: Sentinel for "no timed wake pending" (compares greater than any cycle).
_NEVER = 1 << 62


#: The wait target of ``step(n)``, which is ``wait_eq(_UNREACHED, -1, n)``:
#: no design registers this signal, so it stays 0 and never equals -1.
_UNREACHED = Signal("unreached")


def _default_program_cache() -> Optional[CompiledProgramCache]:
    directory = os.environ.get(PROGRAM_CACHE_ENV)
    if not directory:
        return None
    try:
        return CompiledProgramCache(directory)
    except OSError:
        return None


@dataclass
class CompiledDesign:
    """Introspection record of one elaboration freeze.

    Exposed as :attr:`CompiledSimulator.design` so tests and tools can see
    exactly what the compiler decided: the dense ids, the levelization, and
    the generated source itself.
    """

    #: Dense id per registered signal, in registration order.
    signal_ids: Dict[str, int] = field(default_factory=dict)
    #: Comb process ids in rank order (the settle sweep order).
    comb_order: List[int] = field(default_factory=list)
    #: Rank (level) per comb process id.
    comb_ranks: Dict[int, int] = field(default_factory=dict)
    #: Comb process ids grouped by rank, rank-major.
    levels: List[List[int]] = field(default_factory=list)
    #: Clocked process ids that opted into wait-state elision.
    gated_clocked: Tuple[int, ...] = ()
    #: Number of clocked processes that always run.
    always_clocked: int = 0
    #: The generated source of every entry point, in :data:`ENTRY_POINTS`
    #: order (debugging aid).
    source: str = ""
    #: Number of monitors inlined into the generated loop (vs. called).
    fused_monitors: int = 0
    #: Number of clocked FSM machines lowered inline (vs. called).
    fused_clocked: int = 0
    #: Number of combinational FSM machines lowered into the settle sweep.
    fused_comb: int = 0
    #: FSM IR fingerprints of every lowered machine, in registration order.
    fsm_fingerprints: Tuple[str, ...] = ()
    #: Content digest of the frozen design (compiler fingerprint included).
    digest: str = ""
    #: Whether this freeze reused a persistent program-cache entry.
    program_cache_hit: bool = False
    #: Whether the generated loops include the cycle-leap fast path (the
    #: kernel's ``leap`` flag AND the design's static eligibility).
    leap: bool = False


def _find_cycle_path(
    adjacency: Dict[int, Dict[int, Signal]], candidates: Sequence[int]
) -> List[Signal]:
    """Return the signals along one combinational cycle among ``candidates``.

    ``adjacency[p][q]`` is a signal driven by process ``p`` and sensed by
    process ``q``.  Called only when Kahn's algorithm left ``candidates``
    unranked, so a cycle is guaranteed to exist among them.
    """
    # Trim nodes that merely sit downstream of the cycle (no successor left
    # in the set) until only strongly-connected members remain; then any
    # walk inside the set must revisit a node.
    remaining = set(candidates)
    trimmed = True
    while trimmed:
        trimmed = False
        for node in list(remaining):
            if not any(q in remaining for q in adjacency.get(node, ())):
                remaining.discard(node)
                trimmed = True
    start = min(remaining)
    stack: List[int] = [start]
    on_path = {start: 0}
    while True:
        node = stack[-1]
        successor = next(q for q in adjacency.get(node, ()) if q in remaining)
        if successor in on_path:
            cycle_nodes = stack[on_path[successor]:] + [successor]
            return [
                adjacency[cycle_nodes[i]][cycle_nodes[i + 1]]
                for i in range(len(cycle_nodes) - 1)
            ]
        on_path[successor] = len(stack)
        stack.append(successor)


class CompiledSimulator(Simulator):
    """Levelized, code-generated simulation kernel.

    Shares the full registration API of :class:`~repro.rtl.simulator.Simulator`
    but requires every combinational process to declare ``sensitive_to`` and
    ``drives``.  Registration after a freeze simply invalidates the compiled
    program; the next ``step``/``wait_until``/``settle``/``reset``
    re-freezes, and each entry point compiles on its first call.

    ``max_settle_iterations`` is accepted for API compatibility but unused:
    combinational loops are rejected statically at compile time instead of
    being detected by an iteration limit at runtime.
    """

    timed_wakes = True

    def __init__(
        self,
        max_settle_iterations: int = 64,
        program_cache: Optional[object] = None,
        leap: bool = True,
    ) -> None:
        super().__init__(max_settle_iterations=max_settle_iterations)
        self._sched: List[Signal] = []
        # Observer fast path: scheduling reports are a plain list append (no
        # Python frame); the list object is never replaced, only cleared.
        self._signal_scheduled = self._sched.append
        self._events = 0
        self._active = 0
        # Timed wakes: (target sim-cycle, seq, process) heap + cached minimum,
        # so the generated loop pays one integer compare per cycle.  The
        # per-process target map deduplicates re-arms: only the earliest live
        # target per process counts; superseded heap entries are tombstones
        # that _pop_timed discards.
        self._timed: List[tuple] = []
        self._timed_seq = 0
        self._next_timed = _NEVER
        self._timed_target: Dict[Process, int] = {}
        self._gated_bits: Dict[Process, int] = {}
        #: Whether cycle leaping may be generated (the design must also be
        #: eligible: no always-run clocked processes and no monitor the
        #: kernel cannot prove quiet-cycle-safe — see ``_build``).
        self._leap = bool(leap)
        # Minimum countdown at which a lowered Sleep op parks the machine via
        # wake_after (read by the FSM lowering at runtime).  Short waits stay
        # active on purpose, leap or no leap: a couple of inlined runs are
        # cheaper than the heap traffic of parking, and a 2-3 cycle span is
        # not worth leaping anyway.  Only spans longer than this can engage
        # the cycle-leaping fast path.
        self._sleep_threshold = 3
        self._comb_all = 0
        self._gated_all = 0
        self._mon_all = 0
        # The frozen program: the source of each entry point (None until a
        # freeze), the namespace the entries execute in, and the entries
        # compiled so far (see _entry).
        self._sources: Optional[Dict[str, str]] = None
        self._namespace: Dict[str, object] = {}
        self._entries: Dict[str, Callable] = {}
        if program_cache is None:
            program_cache = _default_program_cache()
        elif isinstance(program_cache, (str, Path)):
            program_cache = CompiledProgramCache(program_cache)
        #: Optional :class:`CompiledProgramCache` reused across freezes.
        self.program_cache = program_cache
        self.design: Optional[CompiledDesign] = None
        # Per-clocked-process run counters (gated processes only; always-run
        # processes execute every cycle by construction).  Flushed from
        # generated-loop locals in the finally block; basis of the per-FSM
        # attribution in ``splice profile``.
        self._proc_runs: List[int] = []
        self._fused_labels: Dict[int, str] = {}

    # -- registration (every mutation invalidates the compiled program) -----

    def _invalidate(self) -> None:
        self._sources = None
        self._entries = {}

    def add_signal(self, signal: Signal) -> Signal:
        self._invalidate()
        self._signals.append(signal)
        signal.bind(self)
        if signal._next is not None:
            self._sched.append(signal)
        return signal

    def add_clocked(
        self, process: Process, sensitive_to: Optional[Sequence[Signal]] = None
    ) -> Process:
        self._invalidate()
        return super().add_clocked(process, sensitive_to=sensitive_to)

    def add_comb(
        self,
        process: Process,
        sensitive_to: Optional[Sequence[Signal]] = None,
        drives: Optional[Sequence[Signal]] = None,
    ) -> Process:
        self._invalidate()
        return super().add_comb(process, sensitive_to=sensitive_to, drives=drives)

    def add_monitor(self, process: Process) -> Process:
        self._invalidate()
        return super().add_monitor(process)

    # -- signal event hooks --------------------------------------------------

    # (_signal_scheduled is bound to self._sched.append in __init__.)

    def _signal_changed(self, signal: Signal) -> None:
        self._events |= signal._ev_mask

    # -- fault injection -----------------------------------------------------

    def inject_faults(self, controller) -> None:
        """Attach/detach a fault controller and invalidate the program.

        The fault hook (a one-compare guard in the fused cycle body plus a
        clamp on the cycle-leap span) is only *generated* when a controller
        is attached — a clean design compiles to byte-identical source with
        an unchanged digest, so fault support costs fault-free runs nothing.
        """
        self._invalidate()
        super().inject_faults(controller)

    def _fire_faults(self) -> None:
        """Apply due fault ops; schedule a full comb re-derivation.

        ``drive()`` already ORed each changed signal's event mask in; OR-ing
        ``_comb_all`` on top re-runs the whole network next cycle, matching
        the scan kernels' dirty-all (see ``Simulator._fire_faults``).
        ``_mon_all`` forces every fused monitor body too: a fault can change
        a rule input that is *not* one of the monitor's gate signals (e.g.
        IO_DONE), which the scan kernels see because they sample every cycle.
        """
        self._faults.fire(self)
        self._events |= self._comb_all | self._mon_all

    # -- timed wakes ---------------------------------------------------------

    def wake_after(self, process: Process, cycles: int) -> None:
        """Wake the gated ``process`` in ``cycles`` cycles (or sooner on
        a declared-input change).  See ``Simulator.wake_after`` for the
        contract; here the request is honoured, letting countdown states
        (bus arbitration, bridge latency, calculation latency) sleep through
        the wait instead of decrementing a counter every cycle.

        ``cycles`` is clamped to at least 1 ("wake next cycle"): a zero- or
        negative-cycle request would target the cycle currently executing,
        whose wake pops have already been drained by the fused loop.

        Requests are deduplicated per process: re-arming with a target no
        earlier than one already pending is dropped outright (being woken
        early is always contract-safe, and the pending entry covers it), so
        a machine that re-arms every run cannot grow the heap without bound.
        Re-arming *earlier* pushes a new entry and tombstones the old one,
        which :meth:`_pop_timed` discards when it surfaces.
        """
        target = self.cycle + max(1, int(cycles))
        armed = self._timed_target.get(process)
        if armed is not None and armed <= target:
            return
        self._timed_target[process] = target
        heappush(self._timed, (target, self._timed_seq, process))
        self._timed_seq += 1
        if target < self._next_timed:
            self._next_timed = target

    def _pop_timed(self, cycle: int) -> int:
        """Collect the wake bits of every timed request due at ``cycle``.

        Heap entries whose target no longer matches the process's live
        target are tombstones (the process re-armed earlier, or its live
        entry already fired) and are discarded without setting a wake bit.
        """
        mask = 0
        heap = self._timed
        bits = self._gated_bits
        targets = self._timed_target
        while heap and heap[0][0] <= cycle:
            target, _, proc = heappop(heap)
            if targets.get(proc) == target:
                del targets[proc]
                mask |= bits.get(proc, 0)
        self._next_timed = heap[0][0] if heap else _NEVER
        return mask

    # -- compilation ---------------------------------------------------------

    def compile(self) -> CompiledDesign:
        """Freeze the registered design and compile every entry point.

        Safe to call repeatedly; recompiles only after a registration.
        Raises :class:`SimulationError` for combinational cycles or missing
        ``sensitive_to``/``drives`` declarations.  Running a design needs no
        explicit call (each entry point compiles on its first use); this one
        compiles them all up front, so every codegen error surfaces here and
        a benchmark can warm up outside its timed region.
        """
        for name in ENTRY_POINTS:
            self._entry(name)
        assert self.design is not None
        return self.design

    def _ensure_compiled(self) -> None:
        if self._sources is None:
            self._build()

    def _entry(self, name: str) -> Callable:
        """The entry point ``name``, freezing and compiling it on first use.

        The code object comes from the process-wide entry-code memo; it is
        executed into this simulator's own namespace, so the function binds
        this simulator and its signals.
        """
        fn = self._entries.get(name)
        if fn is None:
            self._ensure_compiled()
            namespace = self._namespace
            source = self._sources[name]
            code = _ENTRY_CODE.get(
                hashlib.sha256(source.encode()).digest(),
                lambda: compile(source, "<compiled-kernel>", "exec"),
            )
            exec(code, namespace)
            fn = self._entries[name] = namespace[name]
        return fn

    def _levelize(self) -> Tuple[List[int], Dict[int, int]]:
        """Rank the comb processes; reject cycles with the signal path."""
        decls = self._comb_decls
        for pid, (proc, sense, driven) in enumerate(decls):
            missing = [
                name
                for name, value in (("sensitive_to", sense), ("drives", driven))
                if value is None
            ]
            if missing:
                label = getattr(proc, "__qualname__", repr(proc))
                raise SimulationError(
                    f"CompiledSimulator requires every combinational process to "
                    f"declare its inputs and outputs; process #{pid} ({label}) "
                    f"is missing {' and '.join(missing)}.  Declare them via "
                    f"add_comb(proc, sensitive_to=[...], drives=[...]) or use "
                    f"the event-driven kernel for run-always processes."
                )

        # adjacency[p][q] = one signal driven by p and sensed by q.
        readers: Dict[Signal, List[int]] = {}
        for pid, (_, sense, _) in enumerate(decls):
            for sig in sense:
                readers.setdefault(sig, []).append(pid)
        adjacency: Dict[int, Dict[int, Signal]] = {}
        indegree = {pid: 0 for pid in range(len(decls))}
        for pid, (_, _, driven) in enumerate(decls):
            edges = adjacency.setdefault(pid, {})
            for sig in driven:
                for reader in readers.get(sig, ()):
                    if reader not in edges:
                        edges[reader] = sig
                        indegree[reader] += 1

        # Kahn's algorithm; ready set ordered by registration index so ties
        # replay the event kernel's registration-order execution.
        ranks: Dict[int, int] = {}
        ready = sorted(pid for pid, deg in indegree.items() if deg == 0)
        order: List[int] = []
        while ready:
            pid = ready.pop(0)
            rank = max(
                (ranks[p] + 1 for p, edges in adjacency.items() if pid in edges and p in ranks),
                default=0,
            )
            ranks[pid] = rank
            order.append(pid)
            newly_ready = []
            for successor in adjacency.get(pid, {}):
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    newly_ready.append(successor)
            if newly_ready:
                ready = sorted(ready + newly_ready)
        if len(order) != len(decls):
            leftovers = [pid for pid in range(len(decls)) if pid not in ranks]
            path = _find_cycle_path(adjacency, leftovers)
            chain = " -> ".join(sig.name for sig in path + path[:1])
            raise SimulationError(
                f"combinational cycle detected at compile time: {chain} "
                f"(each signal is driven by a process sensitive to the "
                f"previous one; break the loop with a clocked register)"
            )
        return order, ranks

    def _monitor_blocks(
        self, n_comb: int, n_gated: int
    ) -> Tuple[List[str], List[str], List[str], Dict[str, object], int, dict]:
        """Collect the per-cycle monitor code for the generated loop.

        A monitor whose process is the canonical ``tick`` of an object
        implementing ``emit_compiled_monitor(prefix)`` (a monitor-kind
        :class:`repro.rtl.fsm.BoundFsm`, such as the SIS protocol monitor's)
        is *fused*: its checks run inline in the generated loop with inputs
        and registers hoisted to function locals — no per-cycle Python
        dispatch.  A fused monitor that declares ``gate_signals``
        additionally gets a bit in the event word (above the gated-clocked
        wake bits): its per-cycle block is skipped entirely on cycles where
        none of those signals changed and its ``hot`` state expression is
        false — a skip the hook guarantees is a no-op.  Every other monitor
        keeps the plain ``m<id>()`` call.  Order of registration is
        preserved either way.

        Returns (entry_lines, per_cycle_lines, exit_lines, namespace,
        fused_count, leap_info); monitor event-mask bits are assigned as a
        side effect.  ``leap_info`` describes whether cycle leaping can skip
        monitor dispatch entirely on quiet cycles:

        * a fused, gated monitor is leap-safe while its ``hot`` expression is
          false (the same condition under which its per-cycle block is
          already a proven no-op) — the expression joins the leap guard;
        * a plain monitor whose owner implements ``observe_leap(n)`` is
          leap-safe: the hook is called with the leap width so the monitor
          can account for the skipped cycles (e.g. a trace recorder
          replicates its last sample — signal values cannot change during a
          leap);
        * any other monitor disables leaping for the design (``ok`` False).
        """
        entry: List[str] = []
        body: List[str] = []
        exit_: List[str] = []
        namespace: Dict[str, object] = {}
        fused = 0
        leap_info = {"ok": True, "hot": [], "calls": []}
        next_bit = n_comb + n_gated
        self._mon_all = 0
        for mid, proc in enumerate(self._monitors):
            owner = getattr(proc, "__self__", None)
            hook = getattr(owner, "emit_compiled_monitor", None)
            # As in _fsm_blocks: fuse only the monitor's canonical tick; any
            # other registered callable of it (the interpreter oracle) runs
            # as a plain call.
            if hook is None or proc is not getattr(owner, "tick", None):
                body.append(f"m{mid}()")
                leap_hook = getattr(owner, "observe_leap", None)
                if leap_hook is not None:
                    namespace[f"mlp{mid}"] = leap_hook
                    leap_info["calls"].append(f"mlp{mid}")
                else:
                    leap_info["ok"] = False
                continue
            spec = hook(f"mon{mid}")
            entry.extend(spec["entry"])
            exit_.extend(spec["exit"])
            namespace.update(spec["namespace"])
            gate_signals = spec.get("gate_signals") or ()
            if gate_signals:
                bit = 1 << next_bit
                next_bit += 1
                self._mon_all |= bit
                for sig in gate_signals:
                    sig._ev_mask |= bit
                hot = spec.get("hot") or "False"
                body.append(f"if s._events & {bit} or {hot}:")
                body.extend("    " + line for line in spec["body"])
                leap_info["hot"].append(hot)
            else:
                body.extend(spec["body"])
                leap_info["ok"] = False
            fused += 1
        return entry, body, exit_, namespace, fused, leap_info

    def _fsm_blocks(
        self, gated: Sequence[int]
    ) -> Tuple[Dict[int, dict], Dict[int, dict]]:
        """Collect the lowered form of every FSM-IR machine in the design.

        A clocked process that is a bound method of an object implementing
        ``emit_compiled_clocked(prefix)`` (a :class:`repro.rtl.fsm.BoundFsm`)
        and that declared its sensitivity (``add_clocked(...,
        sensitive_to=[...])``) is *lowered*: the machine's dispatch chain,
        guarded transitions and signal ops are inlined into the generated
        loop under its wake gate, with the state register held in a function
        local across cycles.  Combinational processes whose owner implements
        ``emit_compiled_comb(prefix)`` are likewise inlined into the
        rank-ordered settle sweep.  Everything else keeps its plain call.
        """
        gated_set = set(gated)
        fused_clocked: Dict[int, dict] = {}
        for cid, (proc, _) in enumerate(self._clocked_decls):
            if cid not in gated_set:
                continue
            owner = getattr(proc, "__self__", None)
            hook = getattr(owner, "emit_compiled_clocked", None)
            # Lower only the machine's canonical tick: a different registered
            # callable of the same machine (e.g. the interpreter oracle) must
            # keep running as a plain call, or its timed wakes would be keyed
            # to a process the kernel never registered.
            if hook is not None and proc is getattr(owner, "tick", None):
                fused_clocked[cid] = hook(f"f{cid}")
        fused_comb: Dict[int, dict] = {}
        for pid, (proc, sense, driven) in enumerate(self._comb_decls):
            if sense is None or driven is None:
                continue
            owner = getattr(proc, "__self__", None)
            hook = getattr(owner, "emit_compiled_comb", None)
            if hook is not None and proc is getattr(owner, "tick", None):
                fused_comb[pid] = hook(f"g{pid}")
        return fused_clocked, fused_comb

    def _design_digest(self, monitor_text: str) -> str:
        """Content address of the frozen design's codegen-relevant topology.

        Two designs with the same digest produce byte-identical generated
        source and identical levelization, so a persistent cache entry can be
        reused across processes.  The digest covers: the compiler source
        fingerprint, the signal count, every comb declaration's
        sensitivity/drives structure (as registration indices), every clocked
        declaration's gating, and the monitor sequence (fused monitors by
        their emitted source, others by position).
        """
        index = {id(sig): i for i, sig in enumerate(self._signals)}

        def key(sig: Signal) -> str:
            pos = index.get(id(sig))
            return str(pos) if pos is not None else f"x:{sig.name}:{sig.width}"

        parts = [
            _COMPILER_FINGERPRINT,
            f"signals={len(self._signals)}",
            # Leap is a runtime constructor flag, not covered by the compiler
            # fingerprint, yet it changes the generated source.
            f"leap={self._leap}",
            # An attached fault schedule changes the generated source (the
            # injection hook) *and* the run's meaning: folding its
            # fingerprint in guarantees the program cache can never serve a
            # faulted program as clean or vice versa.
            f"faults={self._faults.fingerprint if self._faults is not None else 'none'}",
        ]
        for pid, (_, sense, driven) in enumerate(self._comb_decls):
            s = ",".join(key(sig) for sig in sense) if sense is not None else "?"
            d = ",".join(key(sig) for sig in driven) if driven is not None else "?"
            parts.append(f"c{pid}:{s}|{d}")
        for cid, (_, sense) in enumerate(self._clocked_decls):
            s = ",".join(key(sig) for sig in sense) if sense is not None else "?"
            parts.append(f"k{cid}:{s}")
        parts.append(f"monitors:{monitor_text}")
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def _build(self) -> None:
        comb_procs = [proc for proc, _, _ in self._comb_decls]
        n_comb = len(comb_procs)

        gated: List[int] = []
        always: List[int] = []
        for cid, (_, sense) in enumerate(self._clocked_decls):
            (gated if sense is not None else always).append(cid)
        self._gated_bits = {self._clocked[cid]: 1 << pos for pos, cid in enumerate(gated)}

        # Dense ids + per-signal event masks.
        signal_ids: Dict[str, int] = {}
        for index, sig in enumerate(self._signals):
            signal_ids.setdefault(sig.name, index)
            sig._ev_mask = 0
        for pid, (_, sense, _) in enumerate(self._comb_decls):
            if sense is None:
                continue  # rejected below by _levelize with guidance
            bit = 1 << pid
            for sig in sense:
                sig._ev_mask |= bit
        for wake_pos, cid in enumerate(gated):
            bit = 1 << (n_comb + wake_pos)
            for sig in self._clocked_decls[cid][1]:
                sig._ev_mask |= bit

        self._comb_all = (1 << n_comb) - 1
        self._gated_all = (1 << len(gated)) - 1

        mon_entry, mon_body, mon_exit, mon_namespace, fused_monitors, leap_info = (
            self._monitor_blocks(n_comb, len(gated))
        )
        # Leap eligibility is static per design: an always-run clocked
        # process must execute every cycle, and every monitor must be
        # provably quiet-cycle-safe (see _monitor_blocks).
        leap_static = self._leap and not always and leap_info["ok"]
        fused_clocked, fused_comb = self._fsm_blocks(gated)
        self._fused_labels = {
            cid: spec["label"] for cid, spec in fused_clocked.items()
        }
        self._proc_runs = [0] * len(self._clocked)

        # Persistent program cache: identical topology -> reuse levelization
        # and generated source, skipping Kahn's algorithm and codegen.  The
        # hook text covers the monitors *and* every lowered FSM machine, so
        # a change to any machine's IR changes the digest.
        digest = ""
        cached = None
        cache = self.program_cache
        if cache is not None:
            hook_lines = list(mon_entry) + list(mon_body) + list(mon_exit)
            # Leap eligibility and guard inputs shape the generated source
            # but are invisible to the declaration topology — hash them too.
            hook_lines.append(
                f"leap:{leap_static}:{','.join(leap_info['calls'])}:"
                f"{'|'.join(leap_info['hot'])}"
            )
            for spec in fused_clocked.values():
                hook_lines += spec["entry"] + spec["body"] + spec["exit"]
                hook_lines.append(spec["fingerprint"])
            for spec in fused_comb.values():
                hook_lines += spec["body"]
                hook_lines.append(spec["fingerprint"])
            monitor_text = hashlib.sha256("\n".join(hook_lines).encode()).hexdigest()
            digest = self._design_digest(monitor_text)
            cached = cache.get(digest)

        if cached is not None:
            order = cached["order"]
            ranks = cached["ranks"]
            sources = cached["sources"]
        else:
            order, ranks = self._levelize()
            sources = self._codegen(
                order, gated, always, n_comb, mon_entry, mon_body, mon_exit,
                fused_clocked, fused_comb,
                leap_info=leap_info if leap_static else None,
            )
            if cache is not None:
                cache.put(digest, sources, order, ranks)

        levels: List[List[int]] = []
        for pid in order:
            while len(levels) <= ranks[pid]:
                levels.append([])
            levels[ranks[pid]].append(pid)

        namespace: Dict[str, object] = {"SIM": self}
        for cid, proc in enumerate(self._clocked):
            namespace[f"c{cid}"] = proc
        for pid, proc in enumerate(comb_procs):
            namespace[f"p{pid}"] = proc
        for mid, proc in enumerate(self._monitors):
            namespace[f"m{mid}"] = proc
        namespace.update(mon_namespace)
        for spec in fused_clocked.values():
            namespace.update(spec["namespace"])
        for spec in fused_comb.values():
            namespace.update(spec["namespace"])
        # No entry is compiled here: _entry compiles each on its first call.
        self._namespace = namespace
        self._sources = sources
        self._entries = {}

        self.design = CompiledDesign(
            signal_ids=signal_ids,
            comb_order=list(order),
            comb_ranks=dict(ranks),
            levels=levels,
            gated_clocked=tuple(gated),
            always_clocked=len(always),
            source="\n\n".join(sources[name] for name in ENTRY_POINTS),
            fused_monitors=fused_monitors,
            fused_clocked=len(fused_clocked),
            fused_comb=len(fused_comb),
            fsm_fingerprints=tuple(
                spec["fingerprint"]
                for spec in list(fused_clocked.values()) + list(fused_comb.values())
            ),
            digest=digest,
            program_cache_hit=cached is not None,
            leap=leap_static,
        )

        # A fresh freeze behaves like fresh registration on the event kernel:
        # everything is pending, so the first cycle settles the whole network
        # and runs every elidable process once.
        self._events = self._comb_all | (self._gated_all << n_comb)
        self._active = 0

    def _codegen(
        self,
        order,
        gated,
        always,
        n_comb,
        mon_entry: Sequence[str] = (),
        mon_body: Sequence[str] = (),
        mon_exit: Sequence[str] = (),
        fused_clocked: Optional[Dict[int, dict]] = None,
        fused_comb: Optional[Dict[int, dict]] = None,
        leap_info: Optional[dict] = None,
    ) -> Dict[str, str]:
        """Emit the source of every entry point, keyed by name.

        The per-cycle body — clocked phase, inline commit, rank-ordered
        settle sweep, fused/called monitors — is shared verbatim between
        two entry points, ``wait_eq`` and ``wait_ge``: run until a signal
        reaches a target value (the lowered form of
        :class:`~repro.rtl.simulator.WaitCondition`) or a cycle limit is hit.
        The loops check the signal's committed slot between cycles, so a
        whole driver-call wait executes inside one generated-function call;
        ``step(n)`` is ``wait_eq`` with a condition that never holds and a
        limit of ``n``.  ``settle_once`` is the settle sweep alone.  Each
        source is a self-contained definition, compiled on its own.

        ``fused_clocked`` / ``fused_comb`` carry the lowered FSM-IR machines
        (see :meth:`_fsm_blocks`): their bodies replace the ``c<cid>()`` /
        ``p<pid>()`` calls outright, with binding hoists in the entry block
        and state-register writebacks in the exit block.

        ``leap_info`` (non-``None`` only for leap-eligible designs) adds the
        *cycle-leap* fast path ahead of the per-cycle body: on a cycle where
        nothing is scheduled, no events or wakes are pending, and every
        fused monitor's ``hot`` expression is false, every cycle up to
        ``min(next timed wake, cycles remaining in this call) - 1`` is
        provably identical — no process may run, no signal may change, every
        monitor block is a no-op — so the loop jumps the cycle counter
        straight to the first cycle on which something can happen.  Leap-safe
        plain monitors are informed through their ``observe_leap(n)`` hook
        (``leap_info["calls"]``).  Skipped cycles are counted in
        ``stats.leaped_cycles`` (and, since they skip settle by definition,
        in ``stats.fast_path_cycles``).
        """
        comb_all = self._comb_all
        gated_bit = {cid: 1 << pos for pos, cid in enumerate(gated)}
        always_set = set(always)
        fused_clocked = fused_clocked or {}
        fused_comb = fused_comb or {}

        last_gated = max(gated, default=-1)
        clocked_lines: List[str] = []
        for cid in range(len(self._clocked)):
            spec = fused_clocked.get(cid)
            # Refresh the wake word after a process that can drive a signal
            # ran: a drive() of a declared input of a later-registered gated
            # process wakes it within this very clocked phase — the
            # same-cycle visibility the scan kernels have.  A called process
            # or a lowered machine with a Call or Drive op can drive; a
            # lowered machine without them only schedules, which wakes
            # nobody before the commit.  (Reading the live event word only
            # after such a run, instead of at every check, keeps the
            # all-parked cycle at two ops per process.)
            refresh = cid < last_gated and (spec is None or spec["may_drive"])
            if cid in always_set:
                clocked_lines.append(f"            c{cid}()")
                if refresh:
                    clocked_lines.append(f"            run |= s._events >> {n_comb}")
            else:
                clocked_lines.append(f"            if run & {gated_bit[cid]}:")
                clocked_lines.append(f"                _pr{cid} += 1")
                if spec is None:
                    clocked_lines.append(
                        f"                if c{cid}(): nact |= {gated_bit[cid]}"
                    )
                else:
                    # Lowered machine: the dispatch chain runs inline; no
                    # per-cycle Python call remains for this process.
                    clocked_lines.extend(
                        "                " + line for line in spec["body"]
                    )
                    clocked_lines.append(
                        f"                if {spec['act']}: nact |= {gated_bit[cid]}"
                    )
                if refresh:
                    clocked_lines.append(f"                run |= s._events >> {n_comb}")
        clocked_block = "\n".join(clocked_lines) or "            pass"

        def sweep_block(indent: str) -> str:
            # ``_ran`` tracks which processes this sweep executed; a comb bit
            # that is set at sweep end for a process that never ran means the
            # bit arrived *after* that process's levelized position — i.e. a
            # process drove a signal outside its declared ``drives`` set.
            # Turning that into a loud error keeps incomplete declarations
            # from silently producing stale-value traces.
            lines: List[str] = [f"{indent}_ran = 0"]
            for pid in order:
                lines.append(f"{indent}if s._events & {1 << pid}:")
                spec = fused_comb.get(pid)
                if spec is None:
                    lines.append(f"{indent}    p{pid}(); _comb += 1; _ran |= {1 << pid}")
                else:
                    lines.extend(f"{indent}    " + line for line in spec["body"])
                    lines.append(f"{indent}    _comb += 1; _ran |= {1 << pid}")
            lines.append(f"{indent}_late = s._events & {comb_all} & ~_ran")
            lines.append(f"{indent}if _late:")
            lines.append(f"{indent}    s._declaration_violation(_late)")
            return "\n".join(lines) or f"{indent}pass"

        monitor_lines = ["            " + line for line in mon_body]
        monitor_block = "\n".join(monitor_lines)
        entry_lines = list(mon_entry)
        exit_lines: List[str] = []
        for cid, spec in sorted(fused_clocked.items()):
            entry_lines.extend(spec["entry"])
            exit_lines.extend(spec["exit"])
        if gated:
            entry_lines.append(
                " = ".join(f"_pr{cid}" for cid in gated) + " = 0"
            )
            for cid in gated:
                exit_lines.append(f"s._proc_runs[{cid}] += _pr{cid}")
        exit_lines.extend(mon_exit)
        entry_block = "\n".join("    " + line for line in entry_lines)
        if entry_block:
            entry_block += "\n"
        exit_block = "\n".join("        " + line for line in exit_lines)
        if exit_block:
            exit_block += "\n"

        # A settle is counted once its sweep has finished, so a sweep that
        # raises leaves the derived fast-path count whole.
        settle_branch = f"""\
            if s._events & {comb_all}:
{sweep_block("                ")}
                s._events &= {~comb_all}
                _stl += 1
""" if n_comb else ""

        # Fault-injection hook: generated only when a controller is attached,
        # so clean designs keep byte-identical source (and digests).  The
        # guard sits after the settle branch — monitors on this very cycle
        # observe the faulted values, clocked processes see them next cycle —
        # and the leap span below is clamped to the next scheduled fault
        # cycle, so a fault cycle is always executed, never leaped over.
        faulted = self._faults is not None
        if faulted:
            fault_hook = (
                "            if cyc >= s._next_fault:\n"
                "                s._fire_faults()\n"
            )
            fault_clamp = (
                "                _fsk = s._next_fault - cyc\n"
                "                if _fsk < _skip:\n"
                "                    _skip = _fsk\n"
            )
        else:
            fault_hook = ""
            fault_clamp = ""

        if leap_info is not None:
            hot_terms = "".join(f" and not ({hot})" for hot in leap_info["hot"])
            leap_calls = "".join(
                f"                    {name}(_skip)\n" for name in leap_info["calls"]
            )
            # The guard sits right after the phase prologue.  In the gated
            # case the event word (`ev`) and wake word (`run`) are already in
            # function locals there, so a busy cycle rejects the whole check
            # with a single local truthiness test — the leap fast path costs
            # active workloads essentially nothing.  `run` also folds in any
            # wakes just popped for this cycle, so a due wake target vetoes
            # the leap without a separate clock comparison.
            if gated:
                leap_guard = f"if not run and not ev and not sched{hot_terms}:"
            else:
                leap_guard = f"if not sched and not s._events{hot_terms}:"

            # `_skip` is clamped to the cycles left in this call; the
            # wake-target cycle itself (and everything after) executes
            # normally.
            leap_block = f"""\
            {leap_guard}
                _skip = s._next_timed - cyc
{fault_clamp}                _rem = _end - cyc
                if _skip > _rem:
                    _skip = _rem
                if _skip > 0:
                    cyc += _skip
                    s.cycle = cyc
                    _leap += _skip
{leap_calls}                    continue
"""
        else:
            leap_block = ""

        has_mon_gates = any(line.startswith("if s._events & ") for line in mon_body)
        if gated:
            phase_prologue = f"""\
            ev = s._events
            run = (ev >> {n_comb}) | act
            if cyc >= s._next_timed:
                run |= s._pop_timed(cyc)
            s._events = ev & {comb_all}
            nact = 0"""
            phase_epilogue = "            act = nact\n"
        else:
            # No gated processes: the phase needs no wake word, but gated
            # monitor bits must still be consumed at the start of each cycle.
            phase_prologue = (
                f"            s._events &= {comb_all}" if has_mon_gates else "            pass"
            )
            phase_epilogue = ""

        cycle_body = f"""\
{phase_prologue}
{leap_block}{clocked_block}
{phase_epilogue}            if sched:
                d = s._events
                _ac = None
                for _sg in sched:
                    nxt = _sg._next
                    if _sg._auto:
                        # Pulsed strobe: commit now, auto-clear next cycle.
                        _sg._auto = False
                        _sg._next = 0
                        if _ac is None:
                            _ac = [_sg]
                        else:
                            _ac.append(_sg)
                    else:
                        _sg._next = None
                    if nxt != _sg._value:
                        _sg._value = nxt
                        d |= _sg._ev_mask
                del sched[:]
                if _ac is not None:
                    sched.extend(_ac)
                s._events = d
{settle_branch}{fault_hook}            cyc += 1
            s.cycle = cyc
{monitor_block}"""

        # Derived once per call (see "Per-cycle bookkeeping" above).
        activations = [f"_pr{cid}" for cid in gated]
        if always:
            activations.append(f"{len(always)} * (_done - _leap)")
        clocked_flush = (
            f"        stats.clocked_activations += {' + '.join(activations)}\n"
            if activations else ""
        )
        active_flush = "        s._active = act\n" if gated else ""
        stats_flush = f"""\
{exit_block}        _done = cyc - _start
        stats.cycles += _done
{clocked_flush}        stats.settle_calls += _stl
        stats.settle_iterations += _stl
        stats.comb_activations += _comb
        stats.fast_path_cycles += _done - _stl
        stats.leaped_cycles += _leap
{active_flush}"""
        active_load = "    act = s._active\n" if gated else ""

        def wait_fn(name: str, keep_waiting: str) -> str:
            return f"""\
def {name}(sig, target, limit):
    s = SIM
    sched = s._sched
    stats = s.stats
    cyc = _start = s.cycle
    _end = cyc + limit
{active_load}{entry_block}    _stl = _comb = _leap = 0
    try:
        while {keep_waiting}:
            if cyc >= _end:
                return -1
{cycle_body}
    finally:
{stats_flush}    return cyc - _start
"""

        settle_fn = f"""\
def settle_once():
    s = SIM
    if not (s._events & {comb_all}):
        return 0
    stats = s.stats
    stats.settle_calls += 1
    stats.settle_iterations += 1
    _comb = 0
    try:
{sweep_block("        ")}
        s._events &= {~comb_all}
    finally:
        stats.comb_activations += _comb
    return 1
"""
        return {
            "wait_eq": wait_fn("wait_eq", "sig._value != target"),
            "wait_ge": wait_fn("wait_ge", "sig._value < target"),
            "settle_once": settle_fn,
        }

    def _declaration_violation(self, late_mask: int) -> None:
        """Raise for comb bits that arrived after their levelized position."""
        names = [
            f"#{pid} ({getattr(proc, '__qualname__', repr(proc))})"
            for pid, (proc, _, _) in enumerate(self._comb_decls)
            if late_mask >> pid & 1
        ]
        raise SimulationError(
            f"combinational process(es) {', '.join(names)} were triggered "
            f"after their levelized position in the settle sweep: some "
            f"process drove a signal outside its declared drives= set, so "
            f"the compile-time ranking is unsound for this design.  Complete "
            f"the add_comb(..., drives=[...]) declarations (the event kernel "
            f"can run the design in the meantime)."
        )

    # -- per-FSM attribution --------------------------------------------------

    def process_profile(self) -> List[dict]:
        """Per-machine cycle attribution for the current run.

        Returns one record per clocked process, in registration order:
        ``label`` (the lowered machine's owner/spec name, or the process
        qualname), ``kind`` (``"lowered"`` for inlined FSM-IR machines,
        ``"called"`` otherwise), ``active`` (cycles on which the machine
        actually ran), ``leaped`` (cycles the whole kernel leaped over while
        every machine was parked — no per-cycle gate check even happened),
        and ``elided`` (executed cycles the wait-state gate skipped this
        machine on); ``active + leaped + elided == cycles`` for every gated
        machine.  Always-run processes execute every *executed* cycle by
        construction (their presence disables leaping, so for them
        ``active == cycles``).  This is what names the next bottleneck
        instead of guessing at it: a machine with a high active count is
        where the per-cycle budget goes.
        """
        self._ensure_compiled()
        cycles = self.stats.cycles
        leaped = self.stats.leaped_cycles
        gated_set = set(self.design.gated_clocked)
        records = []
        for cid, proc in enumerate(self._clocked):
            label = self._fused_labels.get(cid)
            kind = "lowered" if label is not None else "called"
            if label is None:
                owner = getattr(proc, "__self__", None)
                label = getattr(
                    owner, "profile_label", None
                ) or getattr(proc, "__qualname__", repr(proc))
            active = self._proc_runs[cid] if cid in gated_set else cycles - leaped
            records.append(
                {
                    "label": label,
                    "kind": kind,
                    "gated": cid in gated_set,
                    "active": active,
                    "leaped": leaped,
                    "elided": max(0, cycles - active - leaped),
                }
            )
        return records

    # -- execution -----------------------------------------------------------

    def settle(self) -> int:
        """Run one rank-ordered sweep if anything is pending; return passes."""
        return self._entry("settle_once")()

    def step(self, cycles: int = 1) -> None:
        # Reaching the limit is this wait's normal end, not a timeout.
        self._entry("wait_eq")(_UNREACHED, -1, cycles)

    def wait_until(self, condition: WaitCondition, timeout: int = 100_000) -> int:
        """Run the lowered wait: the whole wait is one generated-loop call.

        Cycle-exact with the base kernel's ``wait_until`` (condition checked
        before each cycle; ``timeout`` elapsed cycles raise), but the
        per-cycle condition check is a slot comparison inside the fused loop
        instead of a Python-level ``step()`` round trip.
        """
        fn = self._entry("wait_eq" if condition.op == "==" else "wait_ge")
        elapsed = fn(condition.signal, condition.value, timeout)
        if elapsed < 0:
            raise SimulationError(f"run_until timed out after {timeout} cycles")
        return elapsed

    def reset(self) -> None:
        """Reset signals, re-settle, zero the clock and stats.

        Honours the reset→settle contract of the base kernel: combinational
        outputs are re-derived from reset values before ``reset()`` returns,
        monitors are not invoked, and the stats are cleared last.  All
        elidable clocked processes are marked woken, matching the event
        kernel (which runs every clocked process on every cycle anyway).
        The timed-wake state (heap, per-process targets, cached minimum,
        sequence counter) is cleared too: the cycle counter rewinds to 0, so
        a wake requested before the reset would otherwise fire at a bogus
        cycle — a parked machine is instead woken by the all-woken mark and
        re-arms itself from the fresh cycle count.
        """
        self._ensure_compiled()
        for sig in self._signals:
            sig.reset()
        del self._sched[:]
        del self._timed[:]
        self._timed_target.clear()
        self._timed_seq = 0
        self._next_timed = _NEVER
        self._events = self._comb_all | (self._gated_all << len(self._comb_decls))
        self._active = 0
        self._proc_runs = [0] * len(self._clocked)
        self.settle()
        self.cycle = 0
        if self._faults is not None:
            self._faults.rebase(self, 0)
        else:
            self._next_fault = _NEVER
        self.stats.reset()
