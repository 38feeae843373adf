"""Content-addressed result cache for campaign cells.

Each cell's cache key is the SHA-256 of everything that determines its
outcome:

* the cell descriptor (implementation label, scenario shape, seed, repeat),
* the *generated input data itself* (so a change to the input generator
  invalidates stale entries even if shapes match), and
* a fingerprint of the entire ``repro`` source tree (so *any* code change —
  kernel, buses, generation, devices — re-runs everything it could affect;
  over-invalidation is cheap, a stale hit is not).

The entries live in one SQLite table, ``results``, in
``<cache dir>/results.sqlite``: one row per cell, keyed by its digest, whose
``entry`` is the JSON text ``{"cell": <descriptor>, "outcome": [result,
cycles, transactions]}``.  A put is one autocommitted ``INSERT OR REPLACE``
in WAL mode: it costs an append to the write-ahead log, not a new file, and
it has been committed — it survives a killed process — when it returns.
SQLite's locks serialise writers across threads and processes, so the
farm's dispatcher and any number of campaign processes can share one
directory, and a reader never sees a torn row.

:meth:`ResultCache.lookup` answers a whole grid's cells, as a submit asks,
with one ``SELECT ... WHERE digest IN (...)`` per :data:`LOOKUP_CHUNK`
digests instead of one query per cell.

Damage degrades to recomputation.  A row whose entry does not parse, or has
the wrong shape, is a miss and is overwritten by the next put; so is a read
that SQLite reports as an error.  A store file that SQLite does not
recognise as a database is renamed to ``results.sqlite.damaged`` and
replaced by an empty store.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

import repro
from repro.campaign.spec import CampaignCell
from repro.rtl.fsm import fsm_ir_fingerprint


@lru_cache(maxsize=1)
def kernel_fingerprint() -> str:
    """SHA-256 over every ``.py`` source in the ``repro`` package.

    A cell outcome depends on the parser, the generation engine, the kernel,
    the bus models and the device code — in practice, on most of the tree —
    so the fingerprint conservatively covers all of it.  A change anywhere
    invalidates the cache; that costs one re-run, whereas a missed
    dependency would silently serve stale measurements.
    """
    digest = hashlib.sha256()
    root = Path(repro.__file__).resolve().parent
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()


@lru_cache(maxsize=65536)
def cell_digest(cell: CampaignCell) -> str:
    """Content address of one cell: descriptor + inputs + kernel.

    Memoised (cells are frozen dataclasses): ``run_campaign`` digests each
    cell once in the cache-lookup pass and again when persisting the fresh
    outcome, and regenerating the numpy inputs twice per cell is pure waste.
    """
    payload = {
        "cell": cell.describe(),
        "inputs": [list(s) for s in cell.generate_inputs()],
        "kernel": kernel_fingerprint(),
        # The FSM IR fingerprint is folded in explicitly (not just via the
        # source hash above): measurements depend on the IR's execution
        # semantics and its lowering, so an IR schema bump invalidates every
        # cached cell even if a source-tree hash scheme were to change.
        "fsm_ir": fsm_ir_fingerprint(),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: The store's file name inside the cache directory.
STORE_FILENAME = "results.sqlite"
#: Where a store file SQLite does not recognise is moved (the latest one).
DAMAGED_FILENAME = STORE_FILENAME + ".damaged"
#: SQLite page cache per connection, in KiB.  A get or put touches a few
#: pages, so SQLite's 2 MB default would only grow a long-lived server.
CACHE_SIZE_KIB = 64
#: How long a statement waits for another writer before it fails.
BUSY_TIMEOUT_S = 30.0
#: Digests per :meth:`ResultCache.lookup` query, under the 999 bound
#: parameters that SQLite builds before 3.32 allow.
LOOKUP_CHUNK = 900


def _enter_wal_mode(conn: sqlite3.Connection) -> None:
    """Switch the store to WAL, waiting out other processes creating it.

    Switching a new file takes its exclusive lock, and SQLite reports
    "database is locked" at once instead of calling the busy handler when
    another connection holds the file, so the switch is retried here.
    """
    deadline = time.monotonic() + BUSY_TIMEOUT_S
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if str(exc) != "database is locked" or time.monotonic() > deadline:
                raise
        time.sleep(0.005)


def _connect(path: Path) -> sqlite3.Connection:
    conn = sqlite3.connect(path, timeout=BUSY_TIMEOUT_S, isolation_level=None,
                           check_same_thread=False)
    try:
        _enter_wal_mode(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA cache_size=-{CACHE_SIZE_KIB}")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results"
            " (digest TEXT PRIMARY KEY, entry TEXT) WITHOUT ROWID"
        )
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def _open_store(path: Path) -> sqlite3.Connection:
    """Connect to the store at ``path``, replacing a file that is not one.

    Failures to open or lock the file (``OperationalError``) raise
    :class:`OSError`, as an unusable cache directory always has.
    """
    try:
        try:
            return _connect(path)
        except sqlite3.OperationalError:
            raise
        except sqlite3.DatabaseError:
            # Not a database: set it aside, with the write-ahead log and
            # index that belong to it, so the new store does not replay them.
            path.rename(path.with_name(DAMAGED_FILENAME))
            for suffix in ("-wal", "-shm"):
                path.with_name(path.name + suffix).unlink(missing_ok=True)
        return _connect(path)
    except sqlite3.Error as exc:
        raise OSError(f"cannot open result store {path}: {exc}") from exc


class ResultCache:
    """Content-addressed cell outcomes in one SQLite table.

    Each process uses one connection, shared by its threads behind a lock.
    The creating process opens it at once, so an unusable directory raises
    :class:`OSError` here.  A forked child (a farm worker, or any process
    forked while the cache was open) opens its own on first use: it never
    uses or closes the connection it inherited, whose locks and
    write-ahead-log index belong to the parent.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: The store file.
        self.path = self.directory / STORE_FILENAME
        self._lock = threading.Lock()
        self._conn: Optional[sqlite3.Connection] = None
        self._pid: Optional[int] = None
        #: Connections inherited across a fork, kept referenced so that
        #: garbage collection never closes them in the child.
        self._inherited: List[sqlite3.Connection] = []
        with self._lock:
            self._connection()

    def _connection(self) -> sqlite3.Connection:
        """This process's connection; call with the lock held."""
        pid = os.getpid()
        if self._pid != pid and self._conn is not None:
            self._inherited.append(self._conn)
            self._conn = None
        if self._conn is None:
            self._conn = _open_store(self.path)
            self._pid = pid
        return self._conn

    def close(self) -> None:
        """Close this process's connection; a later get or put reopens it."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                self._conn.close()
                self._conn = None

    def get(self, cell: CampaignCell) -> Optional[Tuple[int, int, int]]:
        """The cached (result, cycles, transactions), or ``None`` on a miss."""
        digest = cell_digest(cell)
        try:
            with self._lock:
                row = self._connection().execute(
                    "SELECT entry FROM results WHERE digest = ?", (digest,)
                ).fetchone()
        except (sqlite3.DatabaseError, OSError):
            return None  # an unreadable store: recompute the cell
        return None if row is None else _outcome(row[0])

    def lookup(self, cells: Iterable[CampaignCell]) -> Dict[tuple, Tuple[int, int, int]]:
        """The cached outcome of each of ``cells`` that has one, by ``cell.key``
        in the order of ``cells``: what :meth:`get` answers for each, read
        with one query per :data:`LOOKUP_CHUNK` distinct digests.  A chunk
        the store fails to read is a miss for each of its cells."""
        cells = list(cells)
        digests = [cell_digest(cell) for cell in cells]
        distinct = list(dict.fromkeys(digests))
        stored = {}
        for start in range(0, len(distinct), LOOKUP_CHUNK):
            chunk = distinct[start:start + LOOKUP_CHUNK]
            try:
                with self._lock:
                    rows = self._connection().execute(
                        "SELECT digest, entry FROM results WHERE digest IN"
                        f" ({','.join('?' * len(chunk))})", chunk,
                    ).fetchall()
            except (sqlite3.DatabaseError, OSError):
                continue  # an unreadable store: recompute these cells
            for digest, entry in rows:
                outcome = _outcome(entry)
                if outcome is not None:
                    stored[digest] = outcome
        return {cell.key: stored[digest] for cell, digest in zip(cells, digests)
                if digest in stored}

    def put(self, cell: CampaignCell, outcome: Tuple[int, int, int]) -> None:
        """Persist ``outcome``; it is committed when this returns."""
        entry = json.dumps(
            {"cell": cell.describe(),
             "outcome": [int(outcome[0]), int(outcome[1]), int(outcome[2])]},
            sort_keys=True, separators=(",", ":"),
        )
        digest = cell_digest(cell)
        with self._lock:
            self._connection().execute(
                "INSERT OR REPLACE INTO results (digest, entry) VALUES (?, ?)",
                (digest, entry),
            )

    def __len__(self) -> int:
        with self._lock:
            return self._connection().execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]


def _outcome(entry) -> Optional[Tuple[int, int, int]]:
    """A stored entry's (result, cycles, transactions), or ``None`` for an
    entry that does not parse or has the wrong shape: a miss, which the next
    put of the cell overwrites."""
    try:
        outcome = json.loads(entry)["outcome"]
        return (int(outcome[0]), int(outcome[1]), int(outcome[2]))
    except (ValueError, KeyError, IndexError, TypeError):
        return None
