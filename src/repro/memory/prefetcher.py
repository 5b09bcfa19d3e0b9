"""Stream prefetcher with feedback-directed throttling (Table 1).

Mirrors the classic stream prefetcher: up to ``num_streams`` trackers, each
monitoring a region of memory. Two misses in the same region with a
consistent direction train a stream; once trained, each further demand
access in the stream issues ``degree`` prefetches ahead, up to
``max_distance`` lines beyond the demand pointer.

Feedback-directed prefetching (Srinath et al.) throttles the degree based
on measured accuracy: the cache sets a ``prefetched`` bit on filled lines
and reports back when a demand hit consumes one.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import PrefetcherConfig


class _Stream:
    __slots__ = ("valid", "region", "last_line", "direction", "trained",
                 "next_prefetch", "lru")

    def __init__(self) -> None:
        self.valid = False
        self.region = -1
        self.last_line = -1
        self.direction = 0
        self.trained = False
        self.next_prefetch = -1
        self.lru = 0

    def reset(self, region: int, line: int, lru: int) -> None:
        self.valid = True
        self.region = region
        self.last_line = line
        self.direction = 0
        self.trained = False
        self.next_prefetch = -1
        self.lru = lru


# Region size in lines; a stream tracks accesses within +/- one region.
_REGION_LINES = 64


class StreamPrefetcher:
    """Multi-stream prefetcher with accuracy feedback."""

    def __init__(self, config: PrefetcherConfig) -> None:
        self.config = config
        self.degree = config.initial_degree
        self._streams: List[_Stream] = [_Stream()
                                        for _ in range(config.num_streams)]
        self._clock = 0
        # Feedback state.
        self.issued = 0
        self.useful = 0
        self._issued_in_window = 0
        self._useful_in_window = 0
        # Overall stats.
        self.trainings = 0
        self.degree_increases = 0
        self.degree_decreases = 0

    def _find_stream(self, region: int) -> Optional[_Stream]:
        for stream in self._streams:
            if stream.valid and abs(stream.region - region) <= 1:
                return stream
        return None

    def _allocate_stream(self, region: int, line: int) -> _Stream:
        victim = min(self._streams, key=lambda s: (s.valid, s.lru))
        victim.reset(region, line, self._clock)
        return victim

    def on_access(self, line_addr: int, was_miss: bool) -> List[int]:
        """Observe a demand access; return line addresses to prefetch.

        Training happens on misses; issuing happens on any access that
        advances a trained stream.
        """
        if not self.config.enabled:
            return []
        self._clock += 1
        region = line_addr // _REGION_LINES
        stream = self._find_stream(region)
        if stream is None:
            if was_miss:
                self._allocate_stream(region, line_addr)
            return []
        stream.lru = self._clock
        if not was_miss and not stream.trained:
            return []

        delta = line_addr - stream.last_line
        if not stream.trained:
            if delta == 0:
                return []
            direction = 1 if delta > 0 else -1
            if stream.direction == direction:
                stream.trained = True
                stream.next_prefetch = line_addr + direction
                self.trainings += 1
            else:
                stream.direction = direction
            stream.last_line = line_addr
            stream.region = region
            if not stream.trained:
                return []
        else:
            direction = stream.direction if stream.direction else 1
            stream.last_line = line_addr
            stream.region = region

        # Issue up to `degree` prefetches, bounded by max_distance.
        prefetches = []
        direction = stream.direction or 1
        limit = line_addr + direction * self.config.max_distance
        if stream.next_prefetch * direction <= line_addr * direction:
            stream.next_prefetch = line_addr + direction
        for _ in range(self.degree):
            candidate = stream.next_prefetch
            if candidate * direction > limit * direction or candidate < 0:
                break
            prefetches.append(candidate)
            stream.next_prefetch = candidate + direction
        self.issued += len(prefetches)
        self._issued_in_window += len(prefetches)
        self._maybe_throttle()
        return prefetches

    def on_useful_prefetch(self) -> None:
        """Cache reports a demand hit on a prefetched line."""
        self.useful += 1
        self._useful_in_window += 1

    def _maybe_throttle(self) -> None:
        if self._issued_in_window < self.config.feedback_interval:
            return
        accuracy = self._useful_in_window / self._issued_in_window
        if accuracy >= self.config.high_accuracy:
            if self.degree < self.config.max_degree:
                self.degree += 1
                self.degree_increases += 1
        elif accuracy < self.config.low_accuracy:
            if self.degree > self.config.min_degree:
                self.degree -= 1
                self.degree_decreases += 1
        self._issued_in_window = 0
        self._useful_in_window = 0

    @property
    def accuracy(self) -> float:
        return self.useful / self.issued if self.issued else 0.0

    def reset_stats(self) -> None:
        self.issued = self.useful = 0
        self._issued_in_window = self._useful_in_window = 0
        self.trainings = self.degree_increases = self.degree_decreases = 0
