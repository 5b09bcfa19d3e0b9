"""Persistent compiled-trace cache.

Every simulation replays the same dynamic uop trace, but before this
module existed the trace only lived in a per-process dict: each engine
worker process (and every fresh CLI invocation) re-ran the functional
model to rebuild it, the single largest fixed cost of a sweep.  Real
trace-driven simulators (Scarab, uiCA) sidestep this by *compiling* the
trace once and shipping the compiled artifact; this module does the
same with a content-addressed on-disk store, mirroring the PR 1 result
cache design:

* **Content addressing** — an entry's key is the SHA-256 of its
  identity: workload ``(name, scale, seed)`` plus :func:`trace_salt`, a
  digest of the binary trace format version and every source file that
  can change what the functional model emits (``repro/isa`` and
  ``repro/workloads``).  Editing a kernel or the ISA silently
  invalidates its traces; editing the *timing* models does not, so
  traces survive most simulator work.

* **Two entries per key** — the trace, in the exact
  :func:`repro.isa.traceio.dumps_trace` byte form (binary, compact,
  byte-stable), and beside it the *program entry*: the workload's
  program and its other fields but the memory image
  (:meth:`repro.workloads.Workload.to_json`), as JSON.  A hit on both
  never runs the kernel builder; the image is built only if something
  reads ``Workload.memory``.  The salt covers the kernel builders, so a
  stored program cannot outlive its builder.  Both entries are written
  atomically (temp file + ``os.replace``).

* **Corruption safety** — a truncated, malformed, or
  version-incompatible entry of either kind is treated as a miss,
  deleted, and regenerated; the store is advisory and never fatal.

* **Layout** — ``<root>/<key[:2]>/<key>.trace`` and
  ``<root>/<key[:2]>/<key>.json`` under ``$REPRO_CACHE_DIR/traces``
  (default ``~/.cache/repro-sim/traces``).

:func:`repro.harness.runner.load_workload` always consults the
process-wide default store, so engine workers deserialize the compiled
trace instead of re-running
:class:`~repro.isa.functional.FunctionalMachine`; the kernel builder
and functional execution run only on a store miss, and what they
produce is then stored.  See docs/performance.md.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
from typing import List, Optional

from ..isa.dynuop import DynUop
from ..isa import traceio
from ..workloads import Workload, get_workload

#: Bump to invalidate every stored trace regardless of code content.
TRACE_STORE_VERSION = "1"

_trace_salt_cache: Optional[str] = None


def trace_salt() -> str:
    """Digest of everything that determines a workload's dynamic trace.

    Folds in the trace-format version and the source of ``repro.isa``
    (functional model, ISA, serialization) and ``repro.workloads``
    (kernel generators).  Timing-model edits leave the salt unchanged —
    compiled traces deliberately outlive them.
    """
    # A pure digest of on-disk code, identical in every process.
    global _trace_salt_cache
    if _trace_salt_cache is None:
        root = pathlib.Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(
            f"{TRACE_STORE_VERSION}:{traceio.VERSION}".encode())
        for package in ("isa", "workloads"):
            for path in sorted((root / package).rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
        _trace_salt_cache = digest.hexdigest()[:16]
    return _trace_salt_cache


class TraceStore:
    """Content-addressed, crash-safe, on-disk store of compiled traces."""

    def __init__(self, root: Optional[os.PathLike] = None):
        if root is None:
            from .engine import default_cache_dir
            root = default_cache_dir() / "traces"
        self.root = pathlib.Path(root).expanduser()
        #: Per-process accounting (read by tests).
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------- keys
    @staticmethod
    def identity(name: str, scale: float, seed: int) -> dict:
        """The JSON-able dict that fully determines a stored trace."""
        return {
            "name": name,
            "scale": repr(float(scale)),
            "seed": int(seed),
            "salt": trace_salt(),
        }

    def key(self, name: str, scale: float, seed: int) -> str:
        """Content-addressed store key (SHA-256 hex)."""
        blob = json.dumps(self.identity(name, scale, seed),
                          sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.trace"

    def program_path_for(self, key: str) -> pathlib.Path:
        """Where the program entry beside ``path_for(key)`` lives."""
        return self.root / key[:2] / f"{key}.json"

    # ------------------------------------------------------------ access
    def get(self, name: str, scale: float,
            seed: int) -> Optional[List[DynUop]]:
        """Deserialized trace, or None on miss/corruption (corrupt
        entries are deleted so the regenerated trace replaces them)."""
        path = self.path_for(self.key(name, scale, seed))
        try:
            data = path.read_bytes()
        except OSError:
            self.misses += 1
            return None
        try:
            trace = traceio.loads_trace(data, context=str(path))
        except traceio.TraceFormatError:
            # Truncated write, format drift, bit rot, ... — regenerate.
            _unlink(path)
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, name: str, scale: float, seed: int,
            trace: List[DynUop]) -> None:
        """Atomically persist *trace* (best-effort; never fatal)."""
        _write(self.path_for(self.key(name, scale, seed)),
               traceio.dumps_trace(trace))

    def get_workload(self, name: str, scale: float,
                     seed: int) -> Optional[Workload]:
        """The stored program entry as a workload without its memory
        image, or None on a miss.

        The image is built by the kernel builder on the first read of
        ``memory`` (see :meth:`repro.workloads.Workload.from_json`).  An
        unreadable entry is deleted, so the caller's
        :meth:`put_workload` replaces it.
        """
        path = self.program_path_for(self.key(name, scale, seed))
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            return Workload.from_json(
                json.loads(data),
                functools.partial(get_workload, name, scale, seed))
        except (ValueError, KeyError, TypeError):
            _unlink(path)
            return None

    def put_workload(self, name: str, scale: float, seed: int,
                     workload: Workload) -> None:
        """Atomically persist *workload*'s program entry (best-effort)."""
        blob = json.dumps(workload.to_json(), separators=(",", ":"))
        _write(self.program_path_for(self.key(name, scale, seed)),
               blob.encode("utf-8"))

    # --------------------------------------------------------- inventory
    def entries(self) -> List[pathlib.Path]:
        """The stored traces (program entries are not listed)."""
        return self._glob("*/*.trace")

    def program_entries(self) -> List[pathlib.Path]:
        return self._glob("*/*.json")

    def _glob(self, pattern: str) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob(pattern))

    def stats(self) -> dict:
        entries = self.entries()
        programs = self.program_entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
            "programs": len(programs),
            "program_bytes": sum(path.stat().st_size for path in programs),
        }

    def clear(self) -> int:
        """Delete every trace and program entry, plus the temp files of
        writers killed before their rename; returns the number of traces
        removed."""
        removed = sum(_unlink(path) for path in self.entries())
        for path in self.program_entries() + self._glob("*/*.tmp*"):
            _unlink(path)
        return removed


def _write(path: pathlib.Path, data: bytes) -> None:
    """Write *data* to *path* atomically; the store is advisory, so an
    OSError is swallowed."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:
        pass


def _unlink(path: pathlib.Path) -> bool:
    """Delete *path* if it can; returns whether it did."""
    try:
        path.unlink()
    except OSError:
        return False
    return True


# ------------------------------------------------------- default store
_default_store: Optional[TraceStore] = None


def get_trace_store() -> TraceStore:
    """The process-wide default trace store.

    Re-rooted automatically whenever ``$REPRO_CACHE_DIR`` changes, so
    tests that repoint the cache directory get a matching store.
    """
    # The store handle derives only from $REPRO_CACHE_DIR.
    global _default_store
    from .engine import default_cache_dir
    root = default_cache_dir() / "traces"
    if _default_store is None or _default_store.root != root:
        _default_store = TraceStore(root)
    return _default_store


def reset_trace_store() -> None:
    """Drop the default store (fresh hit/miss accounting)."""
    global _default_store
    _default_store = None
