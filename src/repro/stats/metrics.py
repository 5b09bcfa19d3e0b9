"""Scalar metric helpers shared by the harness and the figure registry.

The paper reports every headline number as a geometric mean over the
benchmark suite, usually as a percentage delta against the baseline
core.  These helpers are the single place that arithmetic lives so the
claim studies (:mod:`repro.harness.experiments`), the paper-parity
registry (:mod:`repro.harness.figures`), sweeps, and ad-hoc analysis
scripts cannot disagree on how a "geomean uplift" is computed.

Everything here is a pure function of its inputs (no config, no state),
which keeps the module inside the mypy strict island and importable
from any layer.
"""

from __future__ import annotations

import math
from typing import Iterable

__all__ = [
    "MetricDomainError",
    "geomean",
    "mean",
    "percent_delta",
    "ratio_of",
]


class MetricDomainError(ValueError):
    """A metric helper received input outside its mathematical domain.

    Raised instead of a bare ``ValueError``/``math domain error`` so
    callers can distinguish "a claim's kernel list filtered to nothing"
    from an arbitrary arithmetic bug and decide their own policy (the
    claim registry re-raises it as a ``ClaimValueError`` naming the
    claim; see ``repro.harness.figures``).
    """

    def __init__(self, message: str, offending: object = None) -> None:
        super().__init__(message)
        #: The value (or lack of one) that violated the domain.
        self.offending = offending


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values.

    The geometric mean is undefined for an empty sequence and for
    non-positive values; both raise :class:`MetricDomainError` naming
    the offending input instead of a bare ``math`` error from deep
    inside the log.  Callers that legitimately see empty or mixed-sign
    inputs (a figure claim whose kernel list filtered to nothing, a
    sweep containing a zero-IPC point) must filter or catch explicitly;
    the claim registry turns the error into a failed claim, never a
    verdict.
    """
    listed = list(values)
    if not listed:
        raise MetricDomainError(
            "geomean of an empty sequence is undefined (did a kernel "
            "list filter to nothing?)", offending=None)
    for value in listed:
        if value <= 0:
            raise MetricDomainError(
                f"geomean is undefined for non-positive value {value!r}",
                offending=value)
    return math.exp(sum(math.log(value) for value in listed)
                    / len(listed))


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input (Fig. 1 uses this for
    the stalling-benchmark average)."""
    listed = list(values)
    if not listed:
        return 0.0
    return sum(listed) / len(listed)


def percent_delta(ratio: float) -> float:
    """A ratio-over-baseline expressed the way the paper reports it:
    ``1.061 -> +6.1`` (percent above baseline), ``0.965 -> -3.5``."""
    return (ratio - 1.0) * 100.0


def ratio_of(value: float, baseline: float,
             default: float = 0.0) -> float:
    """``value / baseline`` with an explicit zero-baseline policy."""
    if baseline == 0:
        return default
    return value / baseline
