"""Per-case watchdog: a hanging case is a finding, not a stuck fuzz run.

The compiled kernel executes generated Python in a tight loop; a codegen bug
(or a deliberately mutated kernel under test) can turn a finite workload into
an unbounded one.  :func:`case_watchdog` brackets one case execution with a
real-time alarm — ``signal.setitimer(ITIMER_REAL)`` plus a ``SIGALRM`` handler
that raises :class:`CaseHang` *inside* the running Python frame, which unwinds
the stuck kernel and lets the session record a ``hang`` counterexample and
move on.  The alarm repeats every ``timeout_s`` until the guard exits: one
that lands in a callback whose exceptions Python ignores (a gc callback, a
``__del__``) is swallowed there, and the next one still ends the case.

``SIGALRM`` can only be installed from the main thread (and does not exist on
Windows).  Off the main thread — campaign worker processes use threads for
their watchdogs already, and pytest plugins occasionally run collection
helpers elsewhere — the context manager degrades to a no-op rather than
failing: the case simply runs unguarded, which is the pre-watchdog behaviour,
not a new failure mode.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager


class CaseHang(Exception):
    """A fuzz case exceeded its wall-clock budget and was killed."""

    def __init__(self, timeout_s: float):
        super().__init__(f"case exceeded {timeout_s:g}s watchdog")
        self.timeout_s = timeout_s


def watchdog_available() -> bool:
    """Whether a real alarm can be armed in the current thread."""
    return (
        hasattr(signal, "setitimer")
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def case_watchdog(timeout_s: float):
    """Raise :class:`CaseHang` in the guarded block after ``timeout_s``.

    ``timeout_s <= 0`` disables the guard explicitly (used by replay paths
    that want to debug a hanging case under an external debugger).
    """
    if timeout_s <= 0 or not watchdog_available():
        yield False
        return

    def _alarm(signum, frame):
        raise CaseHang(timeout_s)

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s, timeout_s)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
