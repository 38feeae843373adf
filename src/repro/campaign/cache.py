"""Content-addressed result cache for campaign cells.

Each cell's cache key is the SHA-256 of everything that determines its
outcome:

* the cell descriptor (implementation label, scenario shape, seed, repeat),
* the *generated input data itself* (so a change to the input generator
  invalidates stale entries even if shapes match), and
* a fingerprint of the entire ``repro`` source tree (so *any* code change —
  kernel, buses, generation, devices — re-runs everything it could affect;
  over-invalidation is cheap, a stale hit is not).

Entries are single JSON files named ``<digest>.json`` under the cache
directory — safe to merge across machines, trivially inspectable, and
naturally content-addressed: a re-run of a completed cell is a pure file
read.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from functools import lru_cache
from pathlib import Path
from typing import Dict, Optional, Tuple

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


class ResultCache:
    """A directory of content-addressed cell outcomes."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    @property
    def program_cache_dir(self) -> Path:
        """Directory for the compiled kernel's persistent program cache.

        ``run_campaign`` exports this via
        :data:`repro.rtl.compile.PROGRAM_CACHE_ENV` so every worker's
        :class:`~repro.rtl.compile.CompiledSimulator` reuses levelization +
        codegen for identical design topologies instead of redoing them per
        process.  Program entries carry their own compiler fingerprint in
        the digest, so they invalidate independently of the result entries
        (which glob only this directory's top level, not this subtree).
        """
        return self.directory / "programs"

    def get(self, cell: CampaignCell) -> Optional[Tuple[int, int, int]]:
        """The cached (result, cycles, transactions), or ``None`` on a miss."""
        path = self._path(cell_digest(cell))
        if not path.exists():
            return None
        try:
            data = json.loads(path.read_text())
            outcome = data["outcome"]
            return (int(outcome[0]), int(outcome[1]), int(outcome[2]))
        except (ValueError, KeyError, IndexError, TypeError):
            return None  # corrupt entry: treat as a miss and overwrite later

    def put(self, cell: CampaignCell, outcome: Tuple[int, int, int]) -> Path:
        digest = cell_digest(cell)
        path = self._path(digest)
        payload = {
            "digest": digest,
            "cell": cell.describe(),
            "outcome": [int(outcome[0]), int(outcome[1]), int(outcome[2])],
        }
        # The temp name must be unique per writer (pid *and* thread): the
        # farm's dispatcher thread and any number of campaign worker
        # processes may persist the same digest concurrently, and a shared
        # temp path would interleave their writes into a torn file that the
        # final rename then publishes.  With unique temps the os.replace is
        # the only shared step, and it is atomic — last writer wins with an
        # identical payload.
        tmp = path.with_name(
            f".{digest}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))
