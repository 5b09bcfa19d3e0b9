"""Tests for the paper-parity figure registry and pipeline.

Covers registry integrity (every spec resolves to real workloads and a
metric function), the verdict rules, QUICK determinism across worker
counts, the BENCH_figures.json history / pinned-baseline round trips,
the generated claim map in docs/PAPER_VS_CODE.md, and the CLI surface.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import experiments
from repro.harness import figures as figmod
from repro.harness.engine import configure
from repro.harness.figures import (
    ANALYTIC,
    DIVERGED,
    MATCH,
    PLANNED,
    REGISTRY,
    WITHIN,
    ClaimResult,
    ClaimValueError,
    FigureSpec,
    Profile,
    append_history,
    baseline_record,
    bench_record,
    check_baseline,
    format_figures,
    format_value,
    get_spec,
    implemented_specs,
    load_baseline,
    load_history,
    render_claim_map,
    run_claim,
    run_figures,
    summarize,
    sync_claim_map,
    verdict,
    write_baseline,
)
from repro.harness.extractors import fig17_scaling
from repro.harness.runner import run_comparison
from repro.workloads import DEFAULT_SEED, STUDY_PROGRAMS, suite_names

REPO_ROOT = Path(__file__).resolve().parents[2]


# -------------------------------------------------------------- registry
def test_fig_ids_unique():
    ids = [spec.fig_id for spec in REGISTRY]
    assert len(ids) == len(set(ids))


def test_every_implemented_spec_resolves():
    """Each implemented claim holds a metric function and a FULL profile
    (plus, unless it is FULL-only, a QUICK one) whose workloads exist,
    and only the analytic claim names none — nothing can be silently
    unrunnable, and every simulation a claim needs is named."""
    known = set(suite_names()) | set(STUDY_PROGRAMS)
    for spec in implemented_specs():
        assert callable(spec.metric), spec.fig_id
        assert spec.full is not None, spec.fig_id
        modes = ("full",) if spec.full_only else ("quick", "full")
        for mode in modes:
            profile = spec.profile(mode)
            assert set(profile.names) <= known, (spec.fig_id, mode)
            if profile is not ANALYTIC:
                assert profile.names, (spec.fig_id, mode)
                assert 0.0 < profile.scale <= 1.0, (spec.fig_id, mode)
            if spec.metric is fig17_scaling:
                assert {352, 512} <= set(profile.rob_sizes)


def test_registry_covers_headline_figures():
    refs = {spec.paper_ref for spec in implemented_specs()}
    for ref in ("Fig. 1", "Fig. 13", "Fig. 14", "Fig. 15", "Fig. 16",
                "Fig. 17", "Table 1", "Sec. 4.2"):
        assert ref in refs


def test_planned_specs_have_no_command():
    planned = [spec for spec in REGISTRY if spec.status == "planned"]
    assert {spec.fig_id for spec in planned} == {
        "cgooo-energy", "multicore-criticality"}
    for spec in planned:
        assert spec.command == "-"
        with pytest.raises(ValueError, match="no quick profile"):
            spec.profile("quick")


def test_get_spec_unknown_lists_known():
    with pytest.raises(ValueError, match="fig13-cdf-uplift"):
        get_spec("nonsense")


def test_spec_command_and_paper_text():
    spec = get_spec("fig13-cdf-uplift")
    assert spec.command == "repro-sim figures --full --fig fig13-cdf-uplift"
    assert spec.paper_text() == "+6.10%"
    assert get_spec("fig14-cdf-mlp").paper_text() == ">= 1.000x"


def test_format_value_units():
    assert format_value("%", -3.5) == "-3.50%"
    assert format_value("pp", 2.3) == "+2.30pp"
    assert format_value("x", 1.0894) == "1.089x"
    assert format_value("% of ROB", 11.25) == "11.2%"


# -------------------------------------------------------------- verdicts
def test_verdict_value_kind_bands():
    spec = FigureSpec(fig_id="t", paper_ref="-", claim="-", unit="%",
                      paper_value=6.0, kind="value",
                      match_tol=2.0, tolerance=6.0)
    assert verdict(spec, 6.0) == MATCH
    assert verdict(spec, 7.9) == MATCH
    assert verdict(spec, 4.1) == MATCH
    assert verdict(spec, 11.9) == WITHIN
    assert verdict(spec, 0.1) == WITHIN
    assert verdict(spec, 12.5) == DIVERGED
    assert verdict(spec, -0.5) == DIVERGED


def test_verdict_min_kind_directional():
    spec = FigureSpec(fig_id="t", paper_ref="-", claim="-", unit="x",
                      paper_value=1.0, kind="min", tolerance=0.05)
    assert verdict(spec, 1.2) == MATCH
    assert verdict(spec, 1.0) == MATCH
    assert verdict(spec, 0.97) == WITHIN
    assert verdict(spec, 0.9) == DIVERGED


def test_verdict_max_kind_directional():
    spec = FigureSpec(fig_id="t", paper_ref="-", claim="-", unit="%",
                      paper_value=2.0, kind="max", tolerance=1.0)
    assert verdict(spec, 1.5) == MATCH
    assert verdict(spec, 2.8) == WITHIN
    assert verdict(spec, 3.5) == DIVERGED


def test_verdict_planned_and_missing_value():
    planned = get_spec("cgooo-energy")
    assert verdict(planned, 0.0) == PLANNED
    assert verdict(get_spec("table1-area"), None) == PLANNED


# ------------------------------------------------------------- execution
def test_analytic_claim_runs_without_simulation():
    result = run_claim(get_spec("table1-area"), "quick")
    assert result.verdict in (MATCH, WITHIN)
    assert result.value == pytest.approx(3.2, abs=1.0)
    assert result.names == ()


@pytest.mark.parametrize("bad", [None, float("nan")])
def test_claim_without_a_finite_value_raises(bad):
    spec = dataclasses.replace(get_spec("table1-area"),
                               metric=lambda profile, seed: bad)
    with pytest.raises(ClaimValueError, match=r"table1-area \[quick\]"):
        run_claim(spec, "quick")


@pytest.mark.parametrize("fig_id", ["fig13-cdf-uplift",
                                    "ablation-branches-drop",
                                    "fig17-area-scaling"])
def test_zero_kernel_ratio_raises_instead_of_a_verdict(monkeypatch,
                                                       fig_id):
    """A zero-IPC CDF run makes one kernel's speedup (or IPC) 0.0; its
    geomean has no value, so the claim fails rather than reading a
    verdict for the kernels left over."""
    from repro.harness.engine import Engine
    from repro.stats import SimResult

    def fake_run(self, jobs):
        return [SimResult(
            benchmark=job.benchmark, mode=job.mode, cycles=1000,
            retired_uops=0 if (job.benchmark, job.mode) == ("astar", "cdf")
            else 1000, mlp=1.0, dram_reads={}, dram_writes={},
            full_window_stall_cycles=0) for job in jobs]

    monkeypatch.setattr(Engine, "run", fake_run)
    monkeypatch.setattr(experiments, "_comparison_cache", {})
    with pytest.raises(ClaimValueError, match=rf"{fig_id} \[quick\]"):
        run_claim(get_spec(fig_id), "quick")


def test_run_figures_never_skips_planned_claims():
    results = run_figures("quick",
                          fig_ids=["table1-area", "cgooo-energy"])
    by_id = {r.fig_id: r for r in results}
    assert by_id["cgooo-energy"].verdict == PLANNED
    assert by_id["cgooo-energy"].value is None
    assert by_id["table1-area"].value is not None
    counts = summarize(results)
    assert counts[PLANNED] == 1
    assert sum(counts.values()) == 2


def test_format_figures_renders_every_claim_and_total():
    results = run_figures("quick",
                          fig_ids=["table1-area", "cgooo-energy"])
    text = format_figures(results, "quick")
    assert "table1-area" in text
    assert "cgooo-energy" in text
    assert "TOTAL" in text
    assert "1 planned" in text


def test_quick_extractor_identical_across_worker_counts(tmp_path):
    """The QUICK metric is a pure function of the registry: a 2-worker
    engine must produce the exact value the serial engine does."""
    spec = dataclasses.replace(get_spec("fig13-cdf-uplift"),
                               quick=Profile(("bzip", "milc"), 0.1))
    saved = experiments._comparison_cache
    try:
        values = []
        for jobs in (1, 2):
            experiments._comparison_cache = {}
            configure(jobs=jobs, cache_dir=tmp_path / f"cache{jobs}")
            values.append(run_claim(spec, "quick").value)
        assert values[0] == values[1]
    finally:
        experiments._comparison_cache = saved
        configure()


# ----------------------------------------------------- history + baseline
def _fake_results():
    return [
        ClaimResult("fig13-cdf-uplift", "quick", 5.39, MATCH, 0.3,
                    ("astar", "mcf")),
        ClaimResult("cgooo-energy", "quick", None, PLANNED, 0.0, ()),
    ]


def test_bench_record_shape():
    record = bench_record(_fake_results(), "quick", seed=7)
    assert record["schema"] == figmod.SCHEMA_VERSION
    assert record["mode"] == "quick"
    assert record["seed"] == 7
    assert isinstance(record["generated_unix"], int)
    assert record["claims"]["fig13-cdf-uplift"]["value"] == 5.39
    assert record["claims"]["cgooo-energy"]["value"] is None
    assert record["summary"][MATCH] == 1


def test_history_round_trip_and_cap(tmp_path):
    path = str(tmp_path / "bench.json")
    assert load_history(path) == []
    record = bench_record(_fake_results(), "quick")
    history = append_history(record, path)
    assert history == [record]
    assert load_history(path) == [record]
    for _ in range(4):
        history = append_history(record, path, keep=3)
    assert len(history) == 3
    assert len(load_history(path)) == 3


def test_history_tolerates_garbage_file(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text("{not json")
    assert load_history(str(path)) == []
    path.write_text(json.dumps({"schema": 999, "history": [{}]}))
    assert load_history(str(path)) == []


def test_baseline_strips_volatile_fields(tmp_path):
    record = bench_record(_fake_results(), "quick")
    pinned = baseline_record(record)
    assert "generated_unix" not in pinned
    assert "code" not in pinned
    path = str(tmp_path / "base.json")
    assert write_baseline(record, path) == pinned
    assert load_baseline(path) == pinned
    assert load_baseline(str(tmp_path / "missing.json")) is None


def test_check_baseline_detects_drift(tmp_path):
    record = bench_record(_fake_results(), "quick")
    baseline = baseline_record(record)
    assert check_baseline(record, baseline) == []

    drifted = json.loads(json.dumps(record))
    drifted["claims"]["fig13-cdf-uplift"]["value"] = 4.0
    drifted["claims"]["fig13-cdf-uplift"]["verdict"] = WITHIN
    problems = check_baseline(drifted, baseline)
    assert any("value 5.39 -> 4.0" in p for p in problems)
    assert any("verdict match -> within-tolerance" in p
               for p in problems)

    extra = json.loads(json.dumps(record))
    extra["claims"]["brand-new"] = {"value": 1.0, "verdict": MATCH}
    assert any("not in baseline" in p
               for p in check_baseline(extra, baseline))

    missing = json.loads(json.dumps(record))
    del missing["claims"]["cgooo-energy"]
    assert any("not in this run" in p
               for p in check_baseline(missing, baseline))

    other_mode = dict(record, mode="full")
    assert "not comparable" in check_baseline(other_mode, baseline)[0]


def test_repo_quick_baseline_matches_registry():
    """The committed pinned baseline covers exactly the claims a QUICK
    run checks: every claim but the FULL-only ones."""
    baseline = load_baseline(str(REPO_ROOT / figmod.DEFAULT_BASELINE))
    assert baseline is not None, "benchmarks/figures_baseline.json missing"
    assert baseline["schema"] == figmod.SCHEMA_VERSION
    assert baseline["mode"] == "quick"
    assert set(baseline["claims"]) == {
        s.fig_id for s in REGISTRY if not s.full_only}
    assert not any(claim["verdict"] == DIVERGED
                   for claim in baseline["claims"].values())


def test_repo_full_baseline_matches_registry():
    """The committed FULL baseline covers every claim in the registry
    and pins none as diverged."""
    baseline = load_baseline(str(REPO_ROOT / figmod.DEFAULT_FULL_BASELINE))
    assert baseline is not None, \
        "benchmarks/figures_baseline_full.json missing"
    assert baseline["schema"] == figmod.SCHEMA_VERSION
    assert baseline["mode"] == "full"
    assert baseline["seed"] == DEFAULT_SEED
    assert set(baseline["claims"]) == {s.fig_id for s in REGISTRY}
    assert not any(claim["verdict"] == DIVERGED
                   for claim in baseline["claims"].values())


def test_quick_fig15_cdf_traffic_is_zero_by_construction():
    """QUICK's fig15-cdf-traffic reads exactly 0.0 because CDF makes the
    same DRAM reads and writes as baseline, source by source, on every
    QUICK kernel, even though it enters CDF mode on some of them."""
    results = run_comparison(figmod.QUICK_NAMES, ("baseline", "cdf"),
                             figmod.QUICK_SCALE)
    for name, by_mode in results.items():
        base, cdf = by_mode["baseline"], by_mode["cdf"]
        assert cdf.dram_reads == base.dram_reads, name
        assert cdf.dram_writes == base.dram_writes, name
    assert any(by_mode["cdf"].counters["cdf_mode_cycles"] > 0
               for by_mode in results.values())


# ------------------------------------------------------------- claim map
def test_render_claim_map_has_row_per_spec():
    table = render_claim_map()
    for spec in REGISTRY:
        assert f"`{spec.fig_id}`" in table
    assert "repro-sim figures --full --fig table1-area" in table


def test_committed_claim_map_is_in_sync():
    """docs/PAPER_VS_CODE.md's generated block must equal what the
    registry renders today (regenerate with --sync-doc)."""
    doc = (REPO_ROOT / figmod.DEFAULT_CLAIM_DOC).read_text(
        encoding="utf-8")
    begin = doc.index(figmod.GENERATED_BEGIN) + len(figmod.GENERATED_BEGIN)
    end = doc.index(figmod.GENERATED_END)
    assert doc[begin:end].strip() == render_claim_map().strip()


def test_sync_claim_map_fills_and_is_idempotent(tmp_path):
    path = tmp_path / "doc.md"
    path.write_text(f"intro\n\n{figmod.GENERATED_BEGIN}\nstale\n"
                    f"{figmod.GENERATED_END}\n\noutro\n")
    assert sync_claim_map(str(path)) is True
    text = path.read_text()
    assert "intro" in text and "outro" in text
    assert "stale" not in text
    assert "`table1-area`" in text
    assert sync_claim_map(str(path)) is False      # second pass: no-op

    bare = tmp_path / "bare.md"
    bare.write_text("no markers here\n")
    with pytest.raises(ValueError, match="markers"):
        sync_claim_map(str(bare))


# ------------------------------------------------------------------- CLI
def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_cli_figures_list(capsys):
    code, out = run_cli(capsys, "figures", "--list")
    assert code == 0
    for spec in REGISTRY:
        assert spec.fig_id in out
    assert "planned" in out
    assert "full only" in out


def test_cli_figures_quick_refuses_full_only_claim(capsys):
    fig_id = figmod.full_only_ids()[0]
    code = main(["figures", "--quick", "--fig", fig_id])
    captured = capsys.readouterr()
    assert code == 2
    assert fig_id in captured.err and "--full" in captured.err
    assert captured.out == ""


def test_cli_figures_single_claim_smoke(capsys):
    """`figures --fig table1-area --quick` runs end-to-end in CI time;
    a partial run never appends to the BENCH history."""
    code, out = run_cli(capsys, "figures", "--quick",
                        "--fig", "table1-area")
    assert code == 0
    assert "table1-area" in out
    assert "match" in out
    assert "run appended" not in out


def test_cli_figures_write_baseline_refuses_partial(capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["figures", "--quick", "--fig", "table1-area",
                 "--write-baseline"])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / figmod.default_baseline("quick")).exists()


def test_cli_figures_check_baseline_partial(capsys, tmp_path, monkeypatch):
    """A --fig subset checks only the claims it ran against the pin."""
    monkeypatch.chdir(tmp_path)
    results = run_figures("quick", fig_ids=["table1-area"])
    write_baseline(bench_record(results, "quick"),
                   figmod.default_baseline("quick"))
    code, out = run_cli(capsys, "figures", "--quick",
                        "--fig", "table1-area", "--check-baseline")
    assert code == 0
    assert "all claims match the pinned baseline" in out


def test_cli_figures_check_baseline_missing_file(capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["figures", "--quick", "--fig", "table1-area",
                 "--check-baseline"])
    capsys.readouterr()
    assert code == 2
