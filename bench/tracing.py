"""Bench-side tracing: spans around public calls, and a stack sampler.

Nothing here reaches inside the simulator.  Spans wrap the public calls
the benchmark makes; the sampler reads the interrupted Python stack on a
wall-clock timer and charges each sample to the innermost frame that
lies in ``src/repro/<layer>``.  Frames outside the package (the standard
library, importlib, dataclass-generated code) are skipped, so their time
goes to the repro frame that called them.  A sample in a package layer
called from its own sub-layer (``isa`` called from ``isa.traceio``) goes
to the sub-layer.  Samples with no repro frame on the stack go to
``other``.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from typing import Dict, Iterator, List, Optional

#: The ARCH001 layers a sample can be charged to, in report order.
LAYERS = ("isa", "isa.traceio", "workloads", "harness.tracestore",
          "harness.engine", "harness.runner", "harness.figures", "cli",
          "core", "memory", "frontend", "cdf", "runahead", "energy",
          "stats", "other")

#: Layers with a sub-layer of their own (``isa`` has ``isa.traceio``).
_PARENT_LAYERS = frozenset(layer for layer in LAYERS
                           if any(other.startswith(layer + ".")
                                  for other in LAYERS))

#: Single files that form a layer of their own (paths under src/repro).
_FILE_LAYERS = {
    "isa/traceio.py": "isa.traceio",
    "harness/tracestore.py": "harness.tracestore",
    "harness/engine.py": "harness.engine",
    "harness/runner.py": "harness.runner",
    "harness/figures.py": "harness.figures",
    "harness/experiments.py": "harness.figures",
    "harness/figdash.py": "harness.figures",
    "harness/tables.py": "harness.figures",
    "cli.py": "cli",
    "__main__.py": "cli",
}

#: Subpackages that are a layer as a whole.
_PACKAGE_LAYERS = frozenset(("isa", "workloads", "core", "memory",
                             "frontend", "cdf", "runahead", "energy",
                             "stats"))


def layer_of(relpath: str) -> str:
    """The layer of a source file, given as a posix path under
    ``src/repro`` (``core/pipeline.py`` -> ``core``)."""
    if relpath in _FILE_LAYERS:
        return _FILE_LAYERS[relpath]
    head, sep, _ = relpath.partition("/")
    if sep and head in _PACKAGE_LAYERS:
        return head
    return "other"


class Tracer:
    """In-memory span recorder.

    A span has a name, start and end (``perf_counter`` seconds), the id
    of the span open around it, and an optional job id that every span
    of one job shares.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, job: Optional[str] = None) -> Iterator[None]:
        record = {"id": len(self.spans), "name": name, "job": job,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()


def span_seconds(spans: List[dict], name: str) -> Dict[Optional[str], float]:
    """Total duration of the spans called *name*, by job id."""
    totals: Dict[Optional[str], float] = {}
    for record in spans:
        if record["name"] == name:
            totals[record["job"]] = (totals.get(record["job"], 0.0)
                                     + record["end"] - record["start"])
    return totals


class StackSampler:
    """Wall-clock stack sampler driven by ``ITIMER_REAL``.

    Interval timers are not inherited across ``fork``, so only the
    process that enters the sampler is sampled; time a parent spends
    waiting on worker processes shows up in the frame that waits.
    """

    #: Seconds between samples.
    INTERVAL_S = 0.001

    def __init__(self, package_dir: str):
        self.prefix = os.path.realpath(package_dir) + os.sep
        self.counts: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self._layer_by_file: Dict[str, Optional[str]] = {}
        self._previous = None

    def _file_layer(self, filename: str) -> Optional[str]:
        try:
            return self._layer_by_file[filename]
        except KeyError:
            pass
        layer = None
        path = os.path.realpath(filename) if os.path.isabs(filename) \
            else filename
        if path.startswith(self.prefix):
            layer = layer_of(path[len(self.prefix):].replace(os.sep, "/"))
        self._layer_by_file[filename] = layer
        return layer

    def _on_alarm(self, _signum, frame) -> None:
        layer = None
        while frame is not None:
            layer = self._file_layer(frame.f_code.co_filename)
            frame = frame.f_back
            if layer is not None:
                break
        if layer in _PARENT_LAYERS:
            # A sub-layer's calls into the rest of its package are its
            # own time: isa.traceio building DynUop records is decoding.
            while frame is not None:
                caller = self._file_layer(frame.f_code.co_filename)
                if caller is not None:
                    if caller.startswith(layer + "."):
                        layer = caller
                    break
                frame = frame.f_back
        self.counts[layer or "other"] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S,
                         self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def shares(self) -> Dict[str, float]:
        """Each layer's fraction of all samples (0.0 when none)."""
        total = sum(self.counts.values())
        return {layer: (count / total if total else 0.0)
                for layer, count in self.counts.items()}
