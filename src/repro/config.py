"""Simulation configuration, with defaults matching Table 1 of the paper.

Every structure size, latency, and CDF parameter that Table 1 or the text
of the paper specifies appears here with the paper's value as the default:

* Core: 3.2 GHz, 6-wide, 352-entry ROB, 160-entry RS, 128-entry LQ,
  72-entry SQ (Intel Sunny Cove-like).
* Caches: 32KB 8-way L1 I/D (2-cycle), 1MB 16-way LLC (18-cycle), 64B lines.
* Prefetcher: 64-stream stream prefetcher with feedback-directed throttling.
* Memory: DDR4-2400R, 2 channels, 1 rank, 4 bank groups x 4 banks,
  tRP-tCL-tRCD = 16-16-16.
* CDF: 64-entry 2-way Critical Count Tables, 4KB 4-way Mask Cache,
  18KB 4-way Critical Uop Cache (8 uops per entry), 1024-entry Fill
  Buffer, 256-entry Delayed Branch Queue, 256-entry Critical Map Queue.
* CDF policies (from the text): fill-buffer walk every 10k retired
  instructions with ~1200-cycle fill latency; mask cache reset every 200k
  instructions; density gates at <2% and >50%; dynamic partitioning with a
  4-cycle stall threshold, +/-8-entry ROB/RS steps and +/-2-entry LQ/SQ
  steps.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, field


class FrozenConfigError(AttributeError):
    """A config object was mutated after :meth:`SimConfig.freeze`."""


class _Freezable:
    """Opt-in immutability for the config dataclasses.

    Configs are born mutable (builders tweak fields freely), but once a
    config enters the experiment engine its canonical JSON becomes a
    cache key: silent mutation after that point would corrupt
    content-addressed results.  ``freeze()`` flips the object (and, for
    :class:`SimConfig`, every nested config) read-only, which also makes
    it safe to memoize :meth:`SimConfig.canonical_json` /
    :meth:`SimConfig.fingerprint` — the engine's per-job cache-key path
    then re-canonicalizes nothing.  Use :meth:`SimConfig.copy` to derive
    a fresh mutable config from a frozen one.
    """

    _frozen: bool = False        # class default; flipped per-instance

    def __setattr__(self, name: str, value: typing.Any) -> None:
        if self._frozen:
            raise FrozenConfigError(
                f"cannot set {name!r}: this "
                f"{type(self).__name__} was frozen when it entered the "
                f"experiment engine (its fingerprint is a cache key); "
                f"derive a mutable copy with SimConfig.copy()")
        object.__setattr__(self, name, value)

    def freeze(self) -> "_Freezable":
        """Make this object (and nested configs) immutable; returns it."""
        for f in dataclasses.fields(self):          # type: ignore[arg-type]
            value = getattr(self, f.name)
            if isinstance(value, _Freezable):
                value.freeze()
        object.__setattr__(self, "_frozen", True)
        return self

    @property
    def frozen(self) -> bool:
        return self._frozen


def _dataclass_from_dict(cls: type, data: dict) -> typing.Any:
    """Rebuild a (possibly nested) config dataclass from a plain dict.

    Unknown keys are ignored and missing keys fall back to the field
    defaults, so configs serialized by older/newer code versions load
    cleanly (the cache's code-version salt handles semantic drift).
    """
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        value = data[f.name]
        ftype = hints.get(f.name)
        if dataclasses.is_dataclass(ftype) and isinstance(value, dict):
            value = _dataclass_from_dict(ftype, value)
        kwargs[f.name] = value
    return cls(**kwargs)


@dataclass
class CoreConfig(_Freezable):
    """Out-of-order core parameters (Table 1, 'Core')."""

    freq_ghz: float = 3.2
    fetch_width: int = 6
    rename_width: int = 6
    issue_width: int = 6
    retire_width: int = 6
    rob_size: int = 352
    rs_size: int = 160
    lq_size: int = 128
    sq_size: int = 72
    num_phys_regs: int = 416          # 352 ROB + 32 arch + headroom
    decode_latency: int = 3           # fetch->rename pipeline depth
    mispredict_redirect_penalty: int = 10
    num_load_ports: int = 2
    num_store_ports: int = 1
    # Execution-unit pools (Sunny-Cove-like): simple integer/branch ports,
    # floating-point ports, and a long-latency integer (mul/div) pipe.
    num_alu_ports: int = 4
    num_fp_ports: int = 3
    num_muldiv_ports: int = 2
    # Memory dependence handling: 'oracle' models perfect memory
    # dependence prediction (loads bypass older stores except true
    # forwarders — how modern cores behave in the common case);
    # 'conservative' holds every load until all older stores have
    # computed their addresses.
    memory_disambiguation: str = "oracle"

    def scaled(self, rob_size: int) -> "CoreConfig":
        """Return a copy scaled to *rob_size* with other window structures
        scaled proportionately (used by the Fig. 17 scaling study)."""
        factor = rob_size / self.rob_size
        return dataclasses.replace(
            self,
            rob_size=rob_size,
            rs_size=max(16, int(round(self.rs_size * factor))),
            lq_size=max(8, int(round(self.lq_size * factor))),
            sq_size=max(8, int(round(self.sq_size * factor))),
            num_phys_regs=rob_size + 64,
        )


@dataclass
class CacheConfig(_Freezable):
    """One cache level."""

    size_bytes: int
    ways: int
    latency: int
    line_bytes: int = 64
    mshrs: int = 16

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_bytes)


@dataclass
class PrefetcherConfig(_Freezable):
    """Stream prefetcher with feedback-directed throttling (Table 1)."""

    enabled: bool = True
    num_streams: int = 64
    max_distance: int = 48            # lines ahead of the demand stream
    initial_degree: int = 2
    min_degree: int = 1
    max_degree: int = 6
    feedback_interval: int = 512      # prefetches between throttle decisions
    high_accuracy: float = 0.60       # above this, increase degree
    low_accuracy: float = 0.30        # below this, decrease degree
    train_on_hits: bool = False


@dataclass
class DRAMConfig(_Freezable):
    """DDR4-2400R main memory (Table 1, 'Memory').

    Timing parameters are in *memory* cycles (1200 MHz for DDR4-2400) and
    converted to core cycles via the frequency ratio.
    """

    channels: int = 2
    ranks: int = 1
    bank_groups: int = 4
    banks_per_group: int = 4
    trp: int = 16
    tcl: int = 16
    trcd: int = 16
    row_bytes: int = 2048
    mem_freq_mhz: float = 1200.0
    burst_core_cycles: int = 11       # 64B burst at 2400 MT/s, 3.2 GHz core

    def core_cycles(self, mem_cycles: int, core_freq_ghz: float) -> int:
        """Convert memory-clock cycles to core-clock cycles (rounded up)."""
        ratio = core_freq_ghz * 1000.0 / self.mem_freq_mhz
        return int(mem_cycles * ratio + 0.999)

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks * self.bank_groups * self.banks_per_group


@dataclass
class CDFConfig(_Freezable):
    """Criticality Driven Fetch structures and policies (Table 1 + Sec. 3)."""

    enabled: bool = True

    # Critical Count Tables: two saturating counters per entry. The strict
    # counter needs more evidence before marking a load critical; the
    # permissive one marks sooner. CDF picks permissive when too few uops
    # end up marked critical (Sec. 3.2).
    cct_entries: int = 64
    cct_ways: int = 2
    strict_counter_max: int = 15
    strict_threshold: int = 12
    permissive_counter_max: int = 7
    permissive_threshold: int = 4
    # Hard-to-predict branch table ("tracked similarly in a separate table
    # and have different thresholds").
    branch_table_entries: int = 64
    branch_table_ways: int = 2
    branch_strict_threshold: int = 10
    branch_permissive_threshold: int = 3
    branch_counter_max: int = 15
    # Asymmetric walk so 50%-mispredicting branches qualify (see cct.py).
    branch_counter_increment: int = 2
    mark_branches_critical: bool = True
    # Fraction of retired uops marked critical below which the permissive
    # counters are selected.
    low_coverage_fraction: float = 0.05

    # Fill Buffer / trace construction (Sec. 3.2).
    fill_buffer_entries: int = 1024
    fill_interval_uops: int = 10_000
    fill_latency_cycles: int = 1200
    min_critical_fraction: float = 0.02   # <2%: do not fill
    max_critical_fraction: float = 0.50   # >50%: do not fill

    # Mask Cache: 4KB, 4-way; one 64-bit mask per basic block.
    mask_cache_entries: int = 512
    mask_cache_ways: int = 4
    mask_cache_reset_interval: int = 200_000

    # Critical Uop Cache: 18KB, 4-way, 8 uops per entry.
    uop_cache_entries: int = 288
    uop_cache_ways: int = 4
    uops_per_trace: int = 8

    # FIFOs.
    delayed_branch_queue_entries: int = 256
    critical_map_queue_entries: int = 256

    # Dynamic partitioning (Sec. 3.5).
    dynamic_partitioning: bool = True
    stall_cycle_threshold: int = 4
    rob_partition_step: int = 8
    lsq_partition_step: int = 2
    min_noncrit_rob: int = 32
    initial_critical_rob_fraction: float = 0.5

    # Extra pipeline stage at the end of Rename while in CDF mode
    # (Sec. 4.3, "worst-case scenario").
    extra_rename_stage: bool = True

    # Design alternative the paper evaluates and rejects (Sec. 3.3): a
    # separate Non-Critical Uop Cache that avoids re-fetching/decoding
    # critical uops from the I-cache and raises non-critical fetch
    # bandwidth. 'Non-critical instructions are generally less sensitive
    # to fetch bandwidth' — the ablation bench quantifies that.
    non_critical_uop_cache: bool = False
    non_critical_fetch_boost: int = 2     # x fetch width when enabled

    # Generalised criticality (Sec. 6): 'Criticality driven fetch is not
    # fundamentally limited to loads and can be expanded to any
    # instructions in the program that are critical.' When enabled,
    # long-latency arithmetic (DIV/FDIV-class uops) also roots critical
    # chains, letting CDF pack independent long dependence chains the
    # way it packs independent misses.
    mark_longlat_critical: bool = False
    longlat_min_latency: int = 12

    # Dependence-violation flush penalty (reuses branch-flush logic).
    violation_flush_penalty: int = 10


@dataclass
class PREConfig(_Freezable):
    """Precise Runahead comparator (Sec. 4.1).

    Per the paper's fair-comparison methodology, PRE uses the *same*
    marking/fetching infrastructure as CDF except that only loads causing
    full-window stalls are marked critical, and it runs dependence chains
    only during full-window stalls using free RS entries / physical
    registers.
    """

    enabled: bool = False
    enter_exit_overhead: int = 4      # cycles to start/stop runahead
    chain_issue_width: int = 4        # chains issued per cycle in runahead
    # How far beyond the stalled fetch point runahead chains may reach, in
    # trace uops. PRE holds runahead state in *free* RS entries and
    # physical registers only, which bounds how many future chains can be
    # live; with typical chain densities that corresponds to roughly 2k
    # sequential uops. This bound produces the paper's observation (c):
    # stalls spaced further apart than this see no runahead benefit.
    max_runahead_distance: int = 2048
    # Probability that a chain whose inputs depend on in-flight misses
    # produces a wrong address (models stale-value chains; drives the
    # extra-traffic results of Figs. 14/15).
    stale_chain_fraction: float = 0.10
    # Runahead requests are second-class citizens: leave this many LLC
    # MSHRs for demand misses.
    reserved_llc_mshrs: int = 4


@dataclass
class SimConfig(_Freezable):
    """Top-level simulation configuration."""

    core: CoreConfig = field(default_factory=CoreConfig)
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, ways=8, latency=2, mshrs=8))
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=32 * 1024, ways=8, latency=2, mshrs=16))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=1024 * 1024, ways=16, latency=18, mshrs=32))
    prefetcher: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    cdf: CDFConfig = field(default_factory=lambda: CDFConfig(enabled=False))
    pre: PREConfig = field(default_factory=PREConfig)
    stats_warmup_uops: int = 0
    max_cycles: int = 50_000_000
    seed: int = 1
    # Runtime verification (see docs/verification.md): 0 = off (the
    # default; bit-identical results and no measurable overhead), 1 =
    # event invariants + differential oracle, 2 = level 1 plus per-cycle
    # occupancy sweeps and periodic structural scans, 3 = level 2 with
    # the structural scan every cycle.
    verify_level: int = 0
    # Observability (see docs/observability.md), mirroring the
    # verify_level contract: 0 = off (the default; bit-identical results,
    # the obs subsystem is never imported and every hook site costs one
    # comparison), 1 = sampled counter time-series + structure-occupancy
    # gauges every ``obs_sample_interval`` cycles, 2 = level 1 plus full
    # per-uop lifecycle events and per-request memory latency
    # attribution.
    obs_level: int = 0
    # Cycles between occupancy-gauge samples at obs_level >= 1.
    obs_sample_interval: int = 128

    @staticmethod
    def baseline(**overrides: typing.Any) -> "SimConfig":
        """Baseline OoO core with prefetching (the paper's baseline)."""
        cfg = SimConfig(**overrides)
        cfg.cdf = CDFConfig(enabled=False)
        cfg.pre = PREConfig(enabled=False)
        return cfg

    @staticmethod
    def with_cdf(**overrides: typing.Any) -> "SimConfig":
        """Baseline plus Criticality Driven Fetch."""
        cfg = SimConfig(**overrides)
        cfg.cdf = CDFConfig(enabled=True)
        cfg.pre = PREConfig(enabled=False)
        return cfg

    @staticmethod
    def with_pre(**overrides: typing.Any) -> "SimConfig":
        """Baseline plus Precise Runahead."""
        cfg = SimConfig(**overrides)
        cfg.cdf = CDFConfig(enabled=False)
        cfg.pre = PREConfig(enabled=True)
        return cfg

    def mode(self) -> str:
        """Return 'cdf', 'pre', or 'baseline'."""
        if self.cdf.enabled:
            return "cdf"
        if self.pre.enabled:
            return "pre"
        return "baseline"

    # ------------------------------------------------ stable serialization
    def to_dict(self) -> dict:
        """Plain-dict form (nested dataclasses become nested dicts).

        Always returns a fresh dict the caller may mutate.  On a frozen
        config it is rebuilt from the memoized canonical JSON (one C
        ``json.loads`` instead of a recursive ``dataclasses.asdict``
        walk); config values are JSON-exact scalars, so the round trip
        is lossless.
        """
        if self._frozen:
            result: dict = json.loads(self.canonical_json())
            return result
        return dataclasses.asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "SimConfig":
        """Inverse of :meth:`to_dict`; tolerant of unknown/missing keys."""
        config: SimConfig = _dataclass_from_dict(SimConfig, data)
        return config

    def copy(self) -> "SimConfig":
        """A fresh, always-mutable deep copy (frozen or not)."""
        return SimConfig.from_dict(self.to_dict())

    def canonical_json(self) -> str:
        """Deterministic JSON rendering: sorted keys, no whitespace.

        This is the representation the experiment engine hashes into
        on-disk cache keys, so it must be byte-stable across processes
        and Python versions for equal configs.  Memoized once the
        config is frozen (the engine freezes every job config), so the
        per-job cache-key path stops re-canonicalizing JSON.
        """
        if self._frozen:
            cached = self.__dict__.get("_canonical_json_cache")
            if cached is None:
                cached = json.dumps(dataclasses.asdict(self),
                                    sort_keys=True,
                                    separators=(",", ":"))
                object.__setattr__(self, "_canonical_json_cache", cached)
            return typing.cast(str, cached)
        return json.dumps(dataclasses.asdict(self), sort_keys=True,
                          separators=(",", ":"))

    def fingerprint(self) -> str:
        """SHA-256 hex digest of :meth:`canonical_json` (memoized on
        frozen configs alongside the canonical JSON)."""
        if self._frozen:
            cached = self.__dict__.get("_fingerprint_cache")
            if cached is None:
                digest = hashlib.sha256(
                    self.canonical_json().encode("utf-8"))
                cached = digest.hexdigest()
                object.__setattr__(self, "_fingerprint_cache", cached)
            return typing.cast(str, cached)
        digest = hashlib.sha256(self.canonical_json().encode("utf-8"))
        return digest.hexdigest()
