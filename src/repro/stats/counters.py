"""Generic named-counter bag with snapshot/delta support.

The pipelines bump counters by name; the harness diffs snapshots to
exclude warmup. A plain dict subclass keeps the hot path cheap.

Every key fed to :meth:`Counters.bump` must be declared in
:mod:`repro.stats.registry`; undeclared keys raise instead of silently
fabricating a new counter.
The hot path pays one set-membership test per bump — against a bound
``set.__contains__`` captured at definition time (the registry memo is
only ever mutated in place, so the binding stays valid) — and dict
subscripting via ``__missing__`` instead of a ``.get`` method call.

Innermost pipeline loops go one step further and use plain
``counters[key] += n`` subscripts on statically-declared keys: the
simlint ``STAT001`` rule checks subscripted literal keys against the
registry exactly like ``bump`` arguments, so the registration contract
holds without paying any per-event validation at runtime.  See
docs/performance.md.
"""

from __future__ import annotations

from typing import Callable, Dict

from .registry import KNOWN_KEYS, validate_key


class Counters(Dict[str, int]):
    """String-keyed integer counters; missing keys read as zero."""

    def __missing__(self, key: str) -> int:
        return 0

    def bump(self, key: str, amount: int = 1,
             _known: Callable[[str], bool] = KNOWN_KEYS.__contains__,
             ) -> None:
        if not _known(key):
            validate_key(key)
        self[key] = self[key] + amount

    def snapshot(self) -> Dict[str, int]:
        return dict(self)

    def delta(self, snap: Dict[str, int]) -> "Counters":
        """Counters accumulated since *snap* was taken."""
        result = Counters()
        for key, value in self.items():
            diff = value - snap.get(key, 0)
            if diff:
                result[key] = diff
        return result
