"""A bounded, thread-safe memo of the most recently used keys.

Both per-process memos of the compiled-kernel path use it: the lowered text
of each FSM-IR machine (one memo per spec, :mod:`repro.rtl.fsm`) and the code
object of each generated entry point (:mod:`repro.rtl.compile`).  Either
may be reached from several threads of one process, hence the lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable


class LruMemo:
    """Values for the ``size`` most recently used keys.

    ``get(key, make)`` returns the memoized value or stores ``make()``.
    ``make`` runs outside the lock: two threads missing the same key may
    both run it, which is harmless for the pure functions memoized here.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._values: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable, make: Callable[[], object]):
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
        value = make()
        with self._lock:
            self._values[key] = value
            self._values.move_to_end(key)
            while len(self._values) > self.size:
                self._values.popitem(last=False)
        return value
