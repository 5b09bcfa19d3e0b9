"""Banked DRAM timing model (Ramulator-equivalent substrate).

Models the DDR4-2400R organisation of Table 1: 2 channels x 1 rank x
4 bank groups x 4 banks, with tRP-tCL-tRCD = 16-16-16 (memory cycles),
open-row policy, per-bank busy times, and a shared per-channel data bus.
Lines are interleaved across channels and then across the banks of a
channel, so sequential streams enjoy bank-level parallelism while
pointer-chasing sees serialised row activations — the contrast the paper's
MLP results depend on.

Traffic is attributed to a *source* tag (demand / prefetch / runahead /
writeback) so the Fig. 15 memory-traffic comparison can be regenerated.
"""

from __future__ import annotations

from typing import Dict

from ..config import DRAMConfig

#: Traffic source tags.
SOURCES = ("demand", "prefetch", "runahead", "writeback")


class _Bank:
    __slots__ = ("ready_at", "open_row")

    def __init__(self) -> None:
        self.ready_at = 0
        self.open_row = -1


class DRAMModel:
    """Latency/bandwidth model for main memory.

    ``access`` returns the completion cycle of a 64B read; writes occupy
    the bank and bus but their completion time is irrelevant to the core
    (stores retire from the SQ).
    """

    def __init__(self, config: DRAMConfig, core_freq_ghz: float,
                 line_bytes: int = 64) -> None:
        self.config = config
        self.core_freq_ghz = core_freq_ghz
        self.line_bytes = line_bytes
        self.banks_per_channel = (config.ranks * config.bank_groups
                                  * config.banks_per_group)
        self.lines_per_row = max(1, config.row_bytes // line_bytes)
        self._banks = [[_Bank() for _ in range(self.banks_per_channel)]
                       for _ in range(config.channels)]
        self._bus_free = [0] * config.channels
        # Pre-converted latencies in core cycles.
        self.t_cl = config.core_cycles(config.tcl, core_freq_ghz)
        self.t_rcd = config.core_cycles(config.trcd, core_freq_ghz)
        self.t_rp = config.core_cycles(config.trp, core_freq_ghz)
        self.burst = config.burst_core_cycles
        # Statistics
        self.reads: Dict[str, int] = {s: 0 for s in SOURCES}
        self.writes: Dict[str, int] = {s: 0 for s in SOURCES}
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0

    # -- address mapping ----------------------------------------------------
    def map_address(self, line_addr: int):
        """Return (channel, bank, row) for a line address.

        Bank index is XOR-hashed with higher address bits, as real memory
        controllers do, so power-of-two strides spread across banks
        instead of hammering one.
        """
        channel = line_addr % self.config.channels
        channel_line = line_addr // self.config.channels
        hashed = channel_line ^ (channel_line >> 4) ^ (channel_line >> 9)
        bank = hashed % self.banks_per_channel
        row = (channel_line // self.banks_per_channel) // self.lines_per_row
        return channel, bank, row

    # -- timing ---------------------------------------------------------------
    def _bank_latency(self, bank: _Bank, row: int) -> int:
        if bank.open_row == row:
            self.row_hits += 1
            return self.t_cl
        if bank.open_row == -1:
            self.row_misses += 1
            return self.t_rcd + self.t_cl
        self.row_conflicts += 1
        return self.t_rp + self.t_rcd + self.t_cl

    def access(self, cycle: int, line_addr: int, source: str = "demand",
               is_write: bool = False, low_priority: bool = False) -> int:
        """Issue one 64B transfer; return its completion cycle.

        ``low_priority`` models the memory controller's demand-first
        scheduling: the request still waits behind the bank and pays the
        data-bus burst, but it does not hold the bank against subsequent
        demand requests (they would be reordered ahead of it).
        """
        if source not in SOURCES:
            raise ValueError(f"unknown traffic source: {source!r}")
        channel, bank_index, row = self.map_address(line_addr)
        bank = self._banks[channel][bank_index]
        start = max(cycle, bank.ready_at)
        latency = self._bank_latency(bank, row)
        data_ready = start + latency
        data_start = max(data_ready, self._bus_free[channel])
        completion = data_start + self.burst
        if not low_priority:
            bank.ready_at = completion
            bank.open_row = row
        self._bus_free[channel] = completion
        if is_write:
            self.writes[source] += 1
        else:
            self.reads[source] += 1
        return completion

    # -- statistics -------------------------------------------------------------
    @property
    def total_reads(self) -> int:
        return sum(self.reads.values())

    @property
    def total_writes(self) -> int:
        return sum(self.writes.values())

    @property
    def total_traffic(self) -> int:
        """Total 64B transfers in either direction."""
        return self.total_reads + self.total_writes

    def reset_stats(self) -> None:
        self.reads = {s: 0 for s in SOURCES}
        self.writes = {s: 0 for s in SOURCES}
        self.row_hits = self.row_misses = self.row_conflicts = 0
