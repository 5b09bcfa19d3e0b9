"""TAGE predictor (TAGE-SC-L-class, per Table 1).

A faithful-in-structure (reduced-in-size) TAGE: a bimodal base predictor
plus several partially-tagged tables indexed by geometrically increasing
global-history lengths. Includes the standard mechanisms that give TAGE
its accuracy: longest-match provider selection, alternate prediction on
weak entries, usefulness counters with periodic aging, and allocation on
mispredictions into longer-history tables.

The paper uses the 64KB TAGE-SC-L championship predictor; the statistical
corrector and loop predictor contribute a small accuracy delta that does
not change any CDF mechanism, so they are omitted. Hard-to-predict
branches (the ones CDF marks critical) remain hard under TAGE either way.
"""

from __future__ import annotations

from typing import List, Optional


class _TaggedEntry:
    __slots__ = ("tag", "counter", "useful")

    def __init__(self) -> None:
        self.tag = 0
        self.counter = 0   # 3-bit signed: -4..3; >=0 predicts taken
        self.useful = 0    # 2-bit


class _TaggedTable:
    """One tagged component with its own history length."""

    def __init__(self, entries: int, tag_bits: int, history_length: int) -> None:
        self.entries = entries
        self.tag_mask = (1 << tag_bits) - 1
        self.history_length = history_length
        self.index_mask = entries - 1
        self.table = [_TaggedEntry() for _ in range(entries)]

    def fold(self, history: int, bits: int) -> int:
        """Fold `history_length` history bits down to `bits` bits."""
        length = self.history_length
        folded = 0
        chunk_mask = (1 << bits) - 1
        remaining = history & ((1 << length) - 1)
        while remaining:
            folded ^= remaining & chunk_mask
            remaining >>= bits
        return folded

    def index(self, pc: int, history: int) -> int:
        folded = self.fold(history, max(1, self.index_mask.bit_length()))
        return (pc ^ (pc >> 4) ^ folded) & self.index_mask

    def tag(self, pc: int, history: int) -> int:
        folded = self.fold(history, max(1, self.tag_mask.bit_length()))
        return (pc ^ (folded << 1)) & self.tag_mask


class TAGEPredictor:
    """Multi-table TAGE with geometric history lengths.

    Trace-driven usage: the branch unit calls :meth:`predict` at fetch,
    compares the prediction with the trace's outcome, then calls
    :meth:`update` with that outcome.
    """

    def __init__(self, base_entries: int = 8192,
                 table_entries: int = 1024, tag_bits: int = 9,
                 history_lengths: Optional[List[int]] = None,
                 useful_reset_interval: int = 256 * 1024) -> None:
        history_lengths = history_lengths or [5, 13, 34, 89, 233]
        self._base = [2] * base_entries
        self._base_mask = base_entries - 1
        self._tables = [_TaggedTable(table_entries, tag_bits, length)
                        for length in history_lengths]
        self._history = 0
        self._history_limit = (1 << (max(history_lengths) + 1)) - 1
        self._useful_reset_interval = useful_reset_interval
        self._updates = 0
        # Provider bookkeeping between predict() and update(): trace-driven
        # pipelines call them back-to-back for the same branch.
        self._last_provider: Optional[int] = None
        self._last_provider_index: int = 0
        self._last_altpred: bool = False
        self._use_alt_on_weak = 8   # 4-bit counter, >=8 means use alt

    # -- prediction ---------------------------------------------------------
    def _base_predict(self, pc: int) -> bool:
        return self._base[pc & self._base_mask] >= 2

    def predict(self, pc: int) -> bool:
        provider = None
        provider_index = 0
        altpred = self._base_predict(pc)
        prediction = altpred
        # Search from longest history down for a tag match; the first
        # match is the provider, the next match (or base) the alternate.
        matches = []
        for table_number in range(len(self._tables) - 1, -1, -1):
            table = self._tables[table_number]
            index = table.index(pc, self._history)
            entry = table.table[index]
            if entry.tag == table.tag(pc, self._history):
                matches.append((table_number, index, entry))
        if matches:
            table_number, index, entry = matches[0]
            provider = table_number
            provider_index = index
            if len(matches) > 1:
                altpred = matches[1][2].counter >= 0
            weak = entry.counter in (-1, 0)
            if weak and entry.useful == 0 and self._use_alt_on_weak >= 8:
                prediction = altpred
            else:
                prediction = entry.counter >= 0
        self._last_provider = provider
        self._last_provider_index = provider_index
        self._last_altpred = altpred
        return prediction

    # -- update -----------------------------------------------------------
    def _update_base(self, pc: int, taken: bool) -> None:
        index = pc & self._base_mask
        counter = self._base[index]
        if taken:
            if counter < 3:
                self._base[index] = counter + 1
        elif counter > 0:
            self._base[index] = counter - 1

    @staticmethod
    def _bump(entry: _TaggedEntry, taken: bool) -> None:
        if taken:
            if entry.counter < 3:
                entry.counter += 1
        elif entry.counter > -4:
            entry.counter -= 1

    def update(self, pc: int, taken: bool) -> None:
        provider = self._last_provider
        provider_prediction = None
        # The base prediction must be sampled *before* the base counters
        # are trained, or the allocate-on-mispredict check below would
        # compare against the already-corrected counter and never fire.
        base_prediction = self._base_predict(pc)
        if provider is not None:
            table = self._tables[provider]
            entry = table.table[self._last_provider_index]
            provider_prediction = entry.counter >= 0
            # Usefulness: provider correct where the alternate was wrong.
            if provider_prediction != self._last_altpred:
                if provider_prediction == taken:
                    if entry.useful < 3:
                        entry.useful += 1
                elif entry.useful > 0:
                    entry.useful -= 1
            # use-alt-on-weak adaptation.
            if entry.counter in (-1, 0) and entry.useful == 0:
                if self._last_altpred == taken and provider_prediction != taken:
                    if self._use_alt_on_weak < 15:
                        self._use_alt_on_weak += 1
                elif provider_prediction == taken and self._last_altpred != taken:
                    if self._use_alt_on_weak > 0:
                        self._use_alt_on_weak -= 1
            self._bump(entry, taken)
        else:
            self._update_base(pc, taken)

        # Allocate into a longer table on a provider (or base) mispredict.
        mispredicted = ((provider_prediction if provider is not None
                         else base_prediction) != taken)
        if mispredicted:
            self._allocate(pc, taken, provider)

        self._history = ((self._history << 1) | int(taken)) & self._history_limit
        self._updates += 1
        if self._updates % self._useful_reset_interval == 0:
            self._age_useful_bits()

    def _allocate(self, pc: int, taken: bool, provider: Optional[int]) -> None:
        start = 0 if provider is None else provider + 1
        for table_number in range(start, len(self._tables)):
            table = self._tables[table_number]
            index = table.index(pc, self._history)
            entry = table.table[index]
            if entry.useful == 0:
                entry.tag = table.tag(pc, self._history)
                entry.counter = 0 if taken else -1
                entry.useful = 0
                return
        # No free entry: decay usefulness along the way (TAGE's fallback).
        for table_number in range(start, len(self._tables)):
            table = self._tables[table_number]
            index = table.index(pc, self._history)
            entry = table.table[index]
            if entry.useful > 0:
                entry.useful -= 1

    def _age_useful_bits(self) -> None:
        for table in self._tables:
            for entry in table.table:
                entry.useful >>= 1
