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

* **Serialization** — entries are the exact
  :func:`repro.isa.traceio.dumps_trace` byte form (binary, compact,
  byte-stable), written atomically (temp file + ``os.replace``).

* **Corruption safety** — a truncated, malformed, or
  version-incompatible entry is treated as a miss, deleted, and
  regenerated; the store is advisory and never fatal.

* **Layout** — ``<root>/<key[:2]>/<key>.trace`` under
  ``$REPRO_CACHE_DIR/traces`` (default ``~/.cache/repro-sim/traces``).
  Set ``REPRO_NO_TRACE_CACHE`` to a non-empty value to disable the
  store entirely (every run rebuilds functionally, like before).

:func:`repro.harness.runner.load_workload` consults the process-wide
default store, so engine workers deserialize the compiled trace instead
of re-running :class:`~repro.isa.functional.FunctionalMachine`.  See
docs/performance.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import List, Optional

from ..isa.dynuop import DynUop
from ..isa import traceio

#: Set to a non-empty value to disable the persistent trace store.
NO_TRACE_CACHE_ENV = "REPRO_NO_TRACE_CACHE"

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
        #: Per-process accounting (read by ``repro-sim perf`` and tests).
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
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return trace

    def put(self, name: str, scale: float, seed: int,
            trace: List[DynUop]) -> None:
        """Atomically persist *trace* (best-effort; never fatal)."""
        path = self.path_for(self.key(name, scale, seed))
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + f".tmp{os.getpid()}")
            tmp.write_bytes(traceio.dumps_trace(trace))
            os.replace(tmp, path)
        except OSError:
            pass                      # the store is advisory

    # --------------------------------------------------------- inventory
    def entries(self) -> List[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.trace"))

    def stats(self) -> dict:
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(path.stat().st_size for path in entries),
        }

    def clear(self) -> int:
        """Delete every entry, plus the temp files of writers killed
        before their rename; returns the number of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for path in self.root.glob("*/*.trace.tmp*"):
            try:
                path.unlink()
            except OSError:
                pass
        return removed


# ------------------------------------------------------- default store
_default_store: Optional[TraceStore] = None


def trace_store_enabled() -> bool:
    """False when ``REPRO_NO_TRACE_CACHE`` is set to a non-empty value."""
    return not os.environ.get(NO_TRACE_CACHE_ENV)


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
