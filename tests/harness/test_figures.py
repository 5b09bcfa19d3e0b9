"""Tests for the paper-parity figure registry and pipeline.

Covers registry integrity (every spec resolves to real workloads and a
real runner), the verdict rules, QUICK determinism across worker
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
    RUNNERS,
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
from repro.workloads import suite_names

REPO_ROOT = Path(__file__).resolve().parents[2]


# -------------------------------------------------------------- registry
def test_fig_ids_unique():
    ids = [spec.fig_id for spec in REGISTRY]
    assert len(ids) == len(set(ids))


def test_every_implemented_spec_resolves():
    """Each implemented claim names a real runner and profiles whose
    kernels exist in the suite — nothing can be silently unrunnable."""
    suite = set(suite_names())
    for spec in implemented_specs():
        assert spec.runner in RUNNERS, spec.fig_id
        for mode in ("quick", "full"):
            profile = spec.profile(mode)
            assert set(profile.names) <= suite, (spec.fig_id, mode)
            if profile is not ANALYTIC:
                assert 0.0 < profile.scale <= 1.0, (spec.fig_id, mode)
        if spec.runner == "fig17_scaling":
            for mode in ("quick", "full"):
                assert {352, 512} <= set(spec.profile(mode).rob_sizes)


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
                      match_tol=2.0, tolerance=6.0, runner="x")
    assert verdict(spec, 6.0) == MATCH
    assert verdict(spec, 7.9) == MATCH
    assert verdict(spec, 4.1) == MATCH
    assert verdict(spec, 11.9) == WITHIN
    assert verdict(spec, 0.1) == WITHIN
    assert verdict(spec, 12.5) == DIVERGED
    assert verdict(spec, -0.5) == DIVERGED


def test_verdict_min_kind_directional():
    spec = FigureSpec(fig_id="t", paper_ref="-", claim="-", unit="x",
                      paper_value=1.0, kind="min", tolerance=0.05,
                      runner="x")
    assert verdict(spec, 1.2) == MATCH
    assert verdict(spec, 1.0) == MATCH
    assert verdict(spec, 0.97) == WITHIN
    assert verdict(spec, 0.9) == DIVERGED


def test_verdict_max_kind_directional():
    spec = FigureSpec(fig_id="t", paper_ref="-", claim="-", unit="%",
                      paper_value=2.0, kind="max", tolerance=1.0,
                      runner="x")
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
def test_claim_without_a_finite_value_raises(monkeypatch, bad):
    monkeypatch.setitem(RUNNERS, "table1_area", lambda profile, seed: bad)
    with pytest.raises(ClaimValueError, match=r"table1-area \[quick\]"):
        run_claim(get_spec("table1-area"), "quick")


def test_zero_kernel_ratio_raises_instead_of_a_verdict(monkeypatch):
    """A zero-IPC baseline makes one kernel's speedup 0.0; its geomean
    has no value, so the claim fails rather than reading -100%."""
    from repro.harness import runner
    monkeypatch.setattr(experiments, "get_comparison",
                        lambda *args, **kwargs: {})
    monkeypatch.setattr(runner, "speedups",
                        lambda results, mode: {"astar": 0.0, "mcf": 1.2})
    with pytest.raises(ClaimValueError,
                       match=r"fig13-cdf-uplift \[quick\]"):
        run_claim(get_spec("fig13-cdf-uplift"), "quick")


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
    """The committed pinned baseline covers exactly the registry."""
    baseline = load_baseline(str(REPO_ROOT / figmod.DEFAULT_BASELINE))
    assert baseline is not None, "benchmarks/figures_baseline.json missing"
    assert baseline["schema"] == figmod.SCHEMA_VERSION
    assert baseline["mode"] == "quick"
    assert set(baseline["claims"]) == {s.fig_id for s in REGISTRY}
    assert not any(claim["verdict"] == DIVERGED
                   for claim in baseline["claims"].values())


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


def test_cli_figures_single_claim_smoke(capsys):
    """`figures --fig table1-area --quick` runs end-to-end in CI time;
    a partial run never appends to the BENCH history."""
    code, out = run_cli(capsys, "figures", "--quick",
                        "--fig", "table1-area")
    assert code == 0
    assert "table1-area" in out
    assert "match" in out
    assert "run appended" not in out


def test_cli_figures_write_baseline_refuses_partial(capsys, tmp_path):
    code = main(["figures", "--quick", "--fig", "table1-area",
                 "--write-baseline",
                 "--baseline", str(tmp_path / "b.json")])
    capsys.readouterr()
    assert code == 2
    assert not (tmp_path / "b.json").exists()


def test_cli_figures_check_baseline_partial(capsys, tmp_path):
    """A --fig subset checks only the claims it ran against the pin."""
    baseline_path = tmp_path / "b.json"
    results = run_figures("quick", fig_ids=["table1-area"])
    write_baseline(bench_record(results, "quick"), str(baseline_path))
    code, out = run_cli(capsys, "figures", "--quick",
                        "--fig", "table1-area",
                        "--check-baseline", "--baseline",
                        str(baseline_path))
    assert code == 0
    assert "all claims match the pinned baseline" in out


def test_cli_figures_check_baseline_missing_file(capsys, tmp_path):
    code = main(["figures", "--quick", "--fig", "table1-area",
                 "--check-baseline",
                 "--baseline", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert code == 2
