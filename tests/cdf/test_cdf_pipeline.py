"""Behavioural tests for the CDF pipeline against the baseline."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.cdf import CDFPipeline
from repro.config import SimConfig
from repro.core import BaselinePipeline
from repro.isa import ProgramBuilder, execute

REPO = pathlib.Path(__file__).resolve().parents[2]
IDX_BASE = 1 << 24
BIG_BASE = 1 << 26
N = 1 << 14


def astar_like(iters=900, filler=20, seed=7):
    """Random-index load missing the LLC, inside a fat loop body."""
    rng = random.Random(seed)
    mem = {IDX_BASE + i * 8: rng.randrange(1 << 20) for i in range(N)}
    b = ProgramBuilder()
    b.movi(1, iters)
    b.movi(2, IDX_BASE)
    b.movi(3, BIG_BASE)
    b.movi(4, 0)
    b.label("loop")
    b.load(5, base=2, index=4, scale=8)      # idx = index[i]
    b.load(6, base=3, index=5, scale=8)      # big[idx]: LLC miss
    b.add(7, 7, 6)
    for _ in range(filler):                  # non-critical work
        b.add(8, 8, imm=3)
        b.mul(9, 8, imm=5)
        b.add(10, 9, imm=1)
    b.add(4, 4, imm=1)
    b.and_(4, 4, imm=N - 1)
    b.sub(1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    program = b.build()
    trace = execute(program, mem, max_uops=500_000)
    return program, trace


@pytest.fixture(scope="module")
def astar_runs():
    program, trace = astar_like()
    base = BaselinePipeline(trace, SimConfig.baseline()).run()
    cdf_pipe = CDFPipeline(trace, SimConfig.with_cdf(), program)
    cdf = cdf_pipe.run()
    return program, trace, base, cdf, cdf_pipe


def test_requires_cdf_enabled_config():
    program, trace = astar_like(iters=5)
    with pytest.raises(ValueError):
        CDFPipeline(trace, SimConfig.baseline(), program)


def test_all_uops_retire_exactly_once(astar_runs):
    _, trace, _, cdf, _ = astar_runs
    assert cdf.retired_uops == len(trace)


def test_cdf_mode_engages(astar_runs):
    _, _, _, cdf, _ = astar_runs
    assert cdf.counters["cdf_mode_entries"] > 0
    assert cdf.counters["cdf_mode_cycles"] > cdf.cycles * 0.2
    assert cdf.counters["crit_fetch_uops"] > 0
    assert cdf.counters["fill_applied"] > 0


def test_cdf_improves_mlp_and_ipc(astar_runs):
    _, _, base, cdf, _ = astar_runs
    assert cdf.mlp > base.mlp * 1.3
    assert cdf.ipc > base.ipc * 1.05


def test_every_critical_uop_is_replayed(astar_runs):
    _, _, _, cdf, pipe = astar_runs
    # Fetched-critically uops are either replayed or flushed; at the end
    # nothing may linger.
    assert not pipe.critically_fetched
    assert len(pipe.cmq) == 0
    flushed = cdf.counters["violation_flushed_uops"]
    assert cdf.counters["crit_rename_uops"] == \
        cdf.counters["replayed_uops"] + flushed


def test_single_path_loop_has_no_violations(astar_runs):
    _, _, _, cdf, _ = astar_runs
    assert cdf.counters["dependence_violations"] == 0


def test_dbq_never_mismatches(astar_runs):
    _, _, _, cdf, _ = astar_runs
    assert cdf.counters["dbq_mismatches"] == 0


def test_no_extra_memory_traffic_on_clean_loop(astar_runs):
    _, _, base, cdf, _ = astar_runs
    # CDF fetches real critical loads only: traffic within 2% of baseline.
    assert cdf.total_traffic <= base.total_traffic * 1.02


_FRESH_CDF_RUN = """\
from repro.cdf import CDFPipeline
from repro.config import SimConfig
from tests.cdf.test_cdf_pipeline import astar_like

program, trace = astar_like()
print(CDFPipeline(trace, SimConfig.with_cdf(), program).run().fingerprint())
"""


def test_deterministic(astar_runs):
    """A CDF result depends on its own inputs alone: the fixture's run,
    made after a baseline run of the same program in this process,
    matches a run in a fresh interpreter. State shared between pipeline
    instances, such as BTB tables held in a module-level dict, makes
    them differ. A rerun in this process is no substitute for the fresh
    one: with that BTB fault, a rerun made after a different program
    still matched the fixture's run."""
    _, _, _, cdf, _ = astar_runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), str(REPO), env.get("PYTHONPATH"))
        if p)
    proc = subprocess.run([sys.executable, "-c", _FRESH_CDF_RUN],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == cdf.fingerprint()


def test_partition_grows_critical_section(astar_runs):
    _, _, _, _, pipe = astar_runs
    # The miss-bound loop should push the critical ROB share up.
    assert pipe.partitions.rob.grows > 0


def test_branch_prediction_trained_once_per_branch(astar_runs):
    _, trace, base, cdf, _ = astar_runs
    n_branches = sum(1 for u in trace if u.is_branch)
    assert cdf.counters["bpred_accesses"] == n_branches
    assert base.counters["bpred_accesses"] == n_branches


def control_flow_violation_workload():
    """Fig. 12 scenario: the critical load's producer differs per path,
    and one path is rare - its producer is missing from the mask."""
    rng = random.Random(3)
    mem = {IDX_BASE + i * 8: rng.randrange(1 << 20) for i in range(N)}
    # bias[i]: mostly 0 (common path), rarely 1 (rare path)
    for i in range(N):
        mem[(1 << 22) + i * 8] = 1 if rng.random() < 0.02 else 0
    b = ProgramBuilder()
    b.movi(1, 2500)
    b.movi(2, IDX_BASE)
    b.movi(3, BIG_BASE)
    b.movi(4, 0)
    b.movi(11, 1 << 22)
    b.label("loop")
    b.load(12, base=11, index=4, scale=8)    # path selector
    b.load(5, base=2, index=4, scale=8)      # common-path index
    b.beqz(12, "common")
    b.add(5, 5, imm=8)                       # rare path: perturb the index
    b.label("common")
    b.load(6, base=3, index=5, scale=8)      # critical load
    b.add(7, 7, 6)
    for _ in range(12):
        b.add(8, 8, imm=3)
        b.mul(9, 8, imm=5)
    b.add(4, 4, imm=1)
    b.and_(4, 4, imm=N - 1)
    b.sub(1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    program = b.build()
    trace = execute(program, mem, max_uops=500_000)
    return program, trace


def test_rare_path_violations_are_detected_and_survived():
    program, trace = control_flow_violation_workload()
    pipe = CDFPipeline(trace, SimConfig.with_cdf(), program)
    result = pipe.run()
    # Everything still retires correctly despite control-flow surprises.
    assert result.retired_uops == len(trace)
    # The mask-accumulation mechanism keeps violations rare relative to
    # critical fetches, exactly the paper's claim.
    violations = result.counters["dependence_violations"]
    if violations:
        assert violations < result.counters["crit_fetch_uops"] * 0.05


def test_density_gate_blocks_all_critical_workload():
    """A pure pointer chase where ~everything is critical: the >50%
    density gate must keep CDF out (no benefit possible)."""
    rng = random.Random(1)
    # singly linked random list
    order = list(range(2048))
    rng.shuffle(order)
    mem = {}
    base_addr = 1 << 26
    for a, b_ in zip(order, order[1:] + order[:1]):
        mem[base_addr + a * 64] = base_addr + b_ * 64
    b = ProgramBuilder()
    b.movi(1, 4000)
    b.movi(2, base_addr + order[0] * 64)
    b.label("loop")
    b.load(2, base=2)          # p = *p  (the whole loop is the chain)
    b.sub(1, 1, imm=1)
    b.bnez(1, "loop")
    b.halt()
    program = b.build()
    trace = execute(program, mem, max_uops=200_000)
    result = CDFPipeline(trace, SimConfig.with_cdf(), program).run()
    assert result.counters["fill_rejected"] > 0
    assert result.counters["cdf_mode_entries"] == 0


def test_warmup_region_reporting():
    program, trace = astar_like(iters=600)
    cfg = SimConfig.with_cdf()
    cfg.stats_warmup_uops = len(trace) // 3
    result = CDFPipeline(trace, cfg, program).run()
    assert result.retired_uops < len(trace)
    assert result.ipc > 0
