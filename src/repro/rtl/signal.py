"""Hardware signals for the RTL simulation kernel.

A :class:`Signal` models a fixed-width wire or register.  Clocked processes
read ``sig.value`` and schedule updates with ``sig.next = x`` (applied when
the simulator commits the cycle); combinational processes drive values
immediately with :meth:`Signal.drive`.

Signals participate in the event-driven scheduler through an *observer*
backref (:meth:`Signal.bind`): scheduling a next value reports the signal to
the simulator's pending-commit set, and any committed or driven value change
reports it to the simulator's dirty set, so the settle phase only re-runs
combinational processes whose inputs actually changed.

The compiled kernel (:class:`repro.rtl.compile.CompiledSimulator`) adds a
*fast, non-observer commit path*: at compile time it stores a per-signal
event bitmask in :attr:`Signal._ev_mask` (one bit per combinational process
sensitive to the signal plus one bit per elidable clocked process reading
it), and its generated cycle loop commits scheduled values by touching
``_value``/``_next`` directly and OR-ing ``_ev_mask`` into the kernel's
dirty word — no observer dispatch per signal.  :meth:`Signal.drive` still
notifies the observer on change, which is how settle-phase updates feed the
same bitmask.
"""

from __future__ import annotations

from typing import Optional


def schedule_zero(signals) -> None:
    """Schedule 0 on every signal in ``signals`` (bulk ``schedule(0)``).

    Semantically identical to calling ``sig.schedule(0)`` on each, with the
    per-signal method dispatch flattened into one loop — bus masters clear
    their whole request group once per beat, which made the six individual
    calls measurable on every kernel.  Lives here so knowledge of the
    pending-slot/observer/pulse protocol stays in the signal layer.
    """
    for sig in signals:
        if sig._next is None:
            if sig._value:
                sig._next = 0
                observer = sig._observer
                if observer is not None:
                    observer._signal_scheduled(sig)
        else:
            sig._next = 0
            sig._auto = False


def mask_for_width(width: int) -> int:
    """Return the bit mask covering ``width`` bits (``width >= 1``)."""
    if width < 1:
        raise ValueError(f"signal width must be >= 1, got {width}")
    return (1 << width) - 1


def truncate(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` bits (two's-complement wrap for negatives)."""
    return value & mask_for_width(width)


class Signal:
    """A fixed-width hardware signal with two-phase update semantics.

    Parameters
    ----------
    name:
        Human-readable name used in traces and error messages.
    width:
        Bit width; values are stored as non-negative integers masked to this
        width.
    reset:
        Value the signal takes on reset and at construction.
    """

    __slots__ = (
        "name",
        "width",
        "reset_value",
        "_value",
        "_next",
        "_mask",
        "_observer",
        "_ev_mask",
        "_auto",
    )

    def __init__(self, name: str, width: int = 1, reset: int = 0) -> None:
        self.name = name
        self.width = width
        self._mask = mask_for_width(width)
        self.reset_value = reset & self._mask
        self._value = self.reset_value
        self._next: Optional[int] = None
        self._observer = None
        # Event bitmask assigned by the compiled kernel at elaboration freeze:
        # which compiled processes a change to this signal must trigger/wake.
        self._ev_mask = 0
        # Pulse flag: when set, the next commit automatically schedules the
        # signal back to 0 (see :meth:`pulse`), so one-cycle strobes need no
        # process invocation on the following cycle just to deassert.
        self._auto = False

    # -- event reporting ---------------------------------------------------

    def bind(self, observer) -> None:
        """Attach the simulator observing this signal's update events.

        ``observer`` must provide ``_signal_scheduled(sig)`` (a next value was
        scheduled) and ``_signal_changed(sig)`` (the committed value changed).
        A signal reports to at most one simulator; rebinding replaces the
        previous observer.
        """
        self._observer = observer

    # -- value access -----------------------------------------------------

    @property
    def value(self) -> int:
        """Current (committed) value of the signal."""
        return self._value

    @property
    def next(self) -> int:
        """The pending next-cycle value (falls back to the current value)."""
        return self._value if self._next is None else self._next

    @next.setter
    def next(self, value: int) -> None:
        self.schedule(value)

    def schedule(self, value: int) -> bool:
        """Schedule ``value`` iff doing so has any effect; return whether it did.

        Scheduling the current value with nothing pending is a no-op under
        two-phase semantics — committing it could never change the signal —
        and returns ``False``; skipping it keeps idle designs off the commit
        path.  The report makes this the canonical idiom for FSM processes
        that re-assert outputs every cycle and participate in the compiled
        kernel's wait-state elision: ``active |= sig.schedule(v)`` both keeps
        the two-phase semantics and feeds the activity flag the elision
        contract requires.  The ``next`` setter is sugar for this method.
        """
        if type(value) is not int:
            value = int(value)
        value &= self._mask
        self._auto = False  # a plain schedule overrides a pending pulse clear
        if self._next is None:
            if value == self._value:
                return False
            self._next = value
            if self._observer is not None:
                self._observer._signal_scheduled(self)
            return True
        self._next = value
        return True

    def pulse(self, value: int = 1) -> bool:
        """Assert ``value`` for exactly one cycle, auto-clearing to 0.

        The committed waveform is identical to ``sig.next = value`` this
        cycle followed by ``sig.next = 0`` from a process on the next cycle —
        but the deassert is performed by the *kernel* during the commit
        phase, so a strobing FSM does not need to run (or be woken) on the
        following cycle purely to drop its strobe.  That is what lets
        request/acknowledge state machines report quiescence immediately
        after strobing and stay parked under the compiled kernel's
        wait-state elision.  Returns whether anything was scheduled.

        A subsequent :meth:`schedule` (or another :meth:`pulse`) in the same
        or next cycle overrides the pending auto-clear, so back-to-back
        strobes compose naturally.
        """
        if type(value) is not int:
            value = int(value)
        value &= self._mask
        had_pending = self._next is not None
        if not had_pending and value == self._value:
            if value == 0:
                return False  # pulsing 0 onto a low strobe: nothing to do
            # Value already high with nothing pending: schedule a no-change
            # commit so the kernel still visits the signal and arms the
            # auto-clear for the following cycle.
            self._next = value
            self._auto = True
            if self._observer is not None:
                self._observer._signal_scheduled(self)
            return True
        self._next = value
        self._auto = True
        if not had_pending and self._observer is not None:
            self._observer._signal_scheduled(self)
        return True

    def drive(self, value: int) -> bool:
        """Immediately drive ``value`` (combinational assignment).

        Returns ``True`` when the driven value differs from the previous
        value, which the simulator uses to detect combinational settling.
        """
        if type(value) is not int:
            value = int(value)
        value &= self._mask
        changed = value != self._value
        self._value = value
        if changed and self._observer is not None:
            self._observer._signal_changed(self)
        return changed

    # -- lifecycle ---------------------------------------------------------

    def commit(self) -> bool:
        """Apply the pending next value; return whether the value changed.

        A pending :meth:`pulse` re-schedules 0 for the following cycle
        (reporting the new pending value to the observer), which is how the
        auto-clear propagates on the scan kernels; the compiled kernel's
        generated commit loop performs the equivalent inline.
        """
        if self._next is None:
            return False
        changed = self._next != self._value
        self._value = self._next
        if self._auto:
            self._auto = False
            self._next = 0
            if self._observer is not None:
                self._observer._signal_scheduled(self)
        else:
            self._next = None
        if changed and self._observer is not None:
            self._observer._signal_changed(self)
        return changed

    def reset(self) -> None:
        """Return the signal to its reset value and clear pending updates."""
        changed = self._value != self.reset_value
        self._value = self.reset_value
        self._next = None
        self._auto = False
        if changed and self._observer is not None:
            self._observer._signal_changed(self)

    # -- conveniences -------------------------------------------------------

    def bit(self, index: int) -> int:
        """Return bit ``index`` (0 = LSB) of the current value."""
        if not 0 <= index < self.width:
            raise IndexError(f"bit {index} out of range for {self.width}-bit signal {self.name}")
        return (self._value >> index) & 1

    def bits(self, hi: int, lo: int) -> int:
        """Return the inclusive slice ``[hi:lo]`` of the current value."""
        if hi < lo:
            raise ValueError("bits() requires hi >= lo")
        return (self._value >> lo) & mask_for_width(hi - lo + 1)

    def is_set(self) -> bool:
        """True when the signal is non-zero (an active-high strobe)."""
        return self._value != 0

    def __bool__(self) -> bool:
        return self._value != 0

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, width={self.width}, value=0x{self._value:x})"
