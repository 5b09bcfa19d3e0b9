"""Fuzz campaign driver: generated programs through verified pipelines.

One *case* is one seed: :func:`repro.verify.fuzz.fuzz_program` derives a
program and memory image, the functional model executes it once, and the
resulting trace is replayed through each requested timing pipeline with
a :class:`~repro.verify.checker.PipelineVerifier` (hosting a
:class:`~repro.verify.oracle.DifferentialOracle`) attached.  Any
divergence or invariant violation surfaces as a
:class:`~repro.verify.errors.VerificationError` whose report carries the
replay hint ``repro-sim verify --fuzz 1 --seed <seed>``.

Configs are fuzzed too — deterministically, from the case seed and a
fixed per-mode salt (never ``hash()``, which is randomized across
processes).  The CDF time constants are shrunk so a few-thousand-uop
fuzz trace actually trains the CCTs, fills the uop cache, and enters CDF
mode; full-size constants would leave the CDF machinery cold and
unverified.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..cdf import CDFPipeline
from ..config import SimConfig
from ..core import BaselinePipeline
from ..isa.functional import execute
from ..runahead import PREPipeline
from ..stats import SimResult
from .errors import VerificationError
from .fuzz import fuzz_program
from .oracle import DifferentialOracle
from .checker import PipelineVerifier

MODES: Tuple[str, ...] = ("baseline", "cdf", "pre")

#: Fixed per-mode seed salts (``hash(mode)`` would vary with
#: PYTHONHASHSEED and break cross-process replay).
_MODE_SALT: Dict[str, int] = {"baseline": 101, "cdf": 202, "pre": 303}

#: Backstop for the functional execution; the generator's loops are
#: structurally bounded well below this.
_MAX_UOPS = 200_000


def replay_hint(seed: int) -> str:
    """The exact CLI invocation that regenerates one failing case."""
    return f"repro-sim verify --fuzz 1 --seed {seed}"


# ------------------------------------------------------------------ config
def fuzz_config(mode: str, seed: int) -> SimConfig:
    """Derive a deterministic per-(mode, seed) configuration.

    Small cores (64–128-entry ROBs) so short fuzz traces fill every
    structure; shrunken CDF intervals so mode switches happen within the
    trace; occasional conservative disambiguation / prefetcher-off /
    design-alternative knobs so those paths get verified too.
    """
    if mode not in _MODE_SALT:
        raise ValueError(f"unknown mode: {mode!r}; known: {MODES}")
    rng = random.Random(seed * 1_000_003 + _MODE_SALT[mode])
    if mode == "baseline":
        cfg = SimConfig.baseline()
    elif mode == "cdf":
        cfg = SimConfig.with_cdf()
    else:
        cfg = SimConfig.with_pre()
    cfg.seed = seed
    cfg.core = cfg.core.scaled(rng.choice((64, 96, 128)))
    if rng.random() < 0.30:
        cfg.core = dataclasses.replace(
            cfg.core, memory_disambiguation="conservative")
    if rng.random() < 0.20:
        cfg.prefetcher.enabled = False
    if mode == "cdf":
        # Shrink the time constants to fuzz-trace scale.
        cfg.cdf.fill_interval_uops = 300
        cfg.cdf.fill_buffer_entries = 256
        cfg.cdf.fill_latency_cycles = 60
        cfg.cdf.mask_cache_reset_interval = 4_000
        cfg.cdf.mark_longlat_critical = rng.random() < 0.5
        cfg.cdf.non_critical_uop_cache = rng.random() < 0.25
    if mode == "pre":
        # Same shrinkage: PRE reuses the CDF marking infrastructure.
        cfg.cdf.fill_interval_uops = 300
        cfg.cdf.fill_latency_cycles = 60
    return cfg


def _make_pipeline(mode: str, trace, config: SimConfig, program,
                   benchmark: str):
    if mode == "baseline":
        return BaselinePipeline(trace, config, benchmark=benchmark)
    if mode == "cdf":
        return CDFPipeline(trace, config, program, benchmark=benchmark)
    if mode == "pre":
        return PREPipeline(trace, config, program, benchmark=benchmark)
    raise ValueError(f"unknown mode: {mode!r}; known: {MODES}")


# ------------------------------------------------------------------- case
@dataclasses.dataclass
class FuzzCase:
    """Outcome of one seed run through every requested pipeline."""

    seed: int
    trace_len: int
    results: Dict[str, SimResult]


@dataclasses.dataclass
class FuzzFailure:
    """One verification failure, with everything needed to replay it."""

    seed: int
    mode: str
    error: VerificationError

    def report(self) -> str:
        return str(self.error)


def run_fuzz_case(seed: int, modes: Sequence[str] = MODES,
                  verify_level: int = 2,
                  max_uops: int = _MAX_UOPS) -> FuzzCase:
    """Run one fuzz case; raises :class:`VerificationError` on failure."""
    program, memory = fuzz_program(seed)
    trace = execute(program, memory, max_uops=max_uops,
                    require_halt=False)
    benchmark = f"fuzz-{seed}"
    results: Dict[str, SimResult] = {}
    for mode in modes:
        config = fuzz_config(mode, seed)
        config.verify_level = verify_level
        pipeline = _make_pipeline(mode, trace, config, program, benchmark)
        oracle = DifferentialOracle(
            program, memory, context=f"fuzz seed {seed}",
            replay=replay_hint(seed))
        pipeline.attach_verifier(PipelineVerifier(
            level=verify_level, oracle=oracle,
            context=f"fuzz seed {seed}", replay=replay_hint(seed)))
        results[mode] = pipeline.run()
    return FuzzCase(seed=seed, trace_len=len(trace), results=results)


# --------------------------------------------------------------- campaign
@dataclasses.dataclass
class CampaignReport:
    """Aggregate outcome of a fuzz campaign."""

    base_seed: int
    modes: Tuple[str, ...]
    verify_level: int
    cases: List[FuzzCase]
    failures: List[FuzzFailure]

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        runs = len(self.cases) + len(self.failures)
        uops = sum(case.trace_len for case in self.cases)
        lines = [
            f"fuzz campaign: {runs} cases "
            f"(seeds {self.base_seed}..{self.base_seed + runs - 1}), "
            f"modes={','.join(self.modes)}, "
            f"verify_level={self.verify_level}",
            f"  passed : {len(self.cases)} cases, "
            f"{uops} trace uops cross-checked",
            f"  failed : {len(self.failures)}",
        ]
        for failure in self.failures:
            lines.append("")
            lines.append(f"seed {failure.seed} [{failure.mode}]:")
            lines.extend("  " + ln for ln in failure.report().splitlines())
        return "\n".join(lines)


def run_fuzz_campaign(count: int, seed: int = 0,
                      modes: Sequence[str] = MODES,
                      verify_level: int = 2,
                      progress: Optional[Callable[[str], None]] = None,
                      ) -> CampaignReport:
    """Run ``count`` cases with seeds ``seed .. seed+count-1``.

    Case ``i`` uses seed ``seed + i`` so any failure replays in
    isolation with ``--fuzz 1 --seed <case seed>``.  Verification
    failures are collected in the report; infrastructure errors
    propagate.
    """
    modes = tuple(modes)
    cases: List[FuzzCase] = []
    failures: List[FuzzFailure] = []
    for i in range(count):
        case_seed = seed + i
        try:
            case = run_fuzz_case(case_seed, modes=modes,
                                 verify_level=verify_level)
        except VerificationError as err:
            mode = getattr(err, "mode", "") or "?"
            failures.append(FuzzFailure(seed=case_seed, mode=mode,
                                        error=err))
            if progress is not None:
                progress(f"seed {case_seed}: FAIL [{mode}] "
                         f"{getattr(err, 'field', '') or getattr(err, 'invariant', '')}")
            continue
        cases.append(case)
        if progress is not None:
            ipcs = " ".join(
                f"{mode}={case.results[mode].ipc:.3f}"
                for mode in modes)
            progress(f"seed {case_seed}: ok "
                     f"({case.trace_len} uops; {ipcs})")
    return CampaignReport(base_seed=seed, modes=modes,
                          verify_level=verify_level,
                          cases=cases, failures=failures)
