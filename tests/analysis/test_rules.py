"""Fixture snippets for every simlint rule: positive, suppressed, and
allowlisted/clean variants, plus framework-level behaviors (baseline,
reporters, suppression parsing)."""

import textwrap

import pytest

from repro.analysis import (
    ALL_RULES,
    Baseline,
    lint_source,
    parse_suppressions,
    rule_by_id,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.runner import LintReport


def findings(rule_id, source, module="repro.core.snippet"):
    rule = rule_by_id(rule_id)
    found, _ = lint_source(textwrap.dedent(source), rules=[rule],
                           module=module)
    return found


def suppressed_count(rule_id, source, module="repro.core.snippet"):
    rule = rule_by_id(rule_id)
    found, hidden = lint_source(textwrap.dedent(source), rules=[rule],
                                module=module)
    assert not found
    return hidden


# ------------------------------------------------------------------ DET001
def test_det001_flags_global_random():
    hits = findings("DET001", """
        import random
        value = random.randrange(10)
    """)
    assert len(hits) == 1 and hits[0].rule == "DET001"


def test_det001_flags_from_import():
    hits = findings("DET001", "from random import shuffle, randrange\n")
    assert len(hits) == 1
    assert "shuffle" in hits[0].message


def test_det001_flags_numpy_global_rng():
    hits = findings("DET001", """
        import numpy as np
        x = np.random.rand(4)
    """)
    assert len(hits) == 1


def test_det001_allows_seeded_generators():
    assert not findings("DET001", """
        import random
        import numpy as np
        rng = random.Random(42)
        gen = np.random.default_rng(42)
        value = rng.randrange(10)
    """)


def test_det001_suppressed_inline():
    assert suppressed_count("DET001", """
        import random
        value = random.random()  # simlint: disable=DET001 demo only
    """) == 1


# ------------------------------------------------------------------ DET002
def test_det002_flags_for_over_set_call():
    hits = findings("DET002", """
        def f(xs):
            for x in set(xs):
                print(x)
    """)
    assert len(hits) == 1


def test_det002_flags_comprehension_and_literal():
    hits = findings("DET002", """
        def f(xs):
            out = [x for x in {1, 2, 3}]
            for y in {x * 2 for x in xs}:
                out.append(y)
            return out
    """)
    assert len(hits) == 2


def test_det002_flags_order_leaky_wrappers():
    hits = findings("DET002", """
        def f(xs):
            return list(set(xs)), ", ".join({str(x) for x in xs})
    """)
    assert len(hits) == 2


def test_det002_allows_sorted_and_reductions():
    assert not findings("DET002", """
        def f(xs):
            for x in sorted(set(xs)):
                print(x)
            for y in dict.fromkeys(xs):
                print(y)
            return len(set(xs)) + sum(set(xs)) + max(set(xs))
    """)


def test_det002_suppressed_next_line():
    assert suppressed_count("DET002", """
        def f(xs):
            # simlint: disable-next=DET002 order provably irrelevant here
            for x in set(xs):
                print(x)
    """) == 1


# ------------------------------------------------------------------ DET003
def test_det003_flags_wall_clock_in_simulator_module():
    hits = findings("DET003", """
        import time
        def step():
            return time.perf_counter()
    """, module="repro.core.pipeline")
    assert len(hits) == 1


def test_det003_flags_from_import_and_datetime():
    hits = findings("DET003", """
        from time import monotonic
        import datetime
        stamp = datetime.datetime.now()
    """, module="repro.cdf.cct")
    assert len(hits) == 2


def test_det003_allowlists_harness_telemetry():
    source = """
        import time
        start = time.perf_counter()
    """
    assert not findings("DET003", source, module="repro.harness.engine")
    assert not findings("DET003", source, module="repro.harness.report")
    assert findings("DET003", source, module="repro.memory.dram")


def test_det003_suppressed():
    assert suppressed_count("DET003", """
        import time
        def log():
            return time.time()  # simlint: disable=DET003 debug logging
    """, module="repro.core.pipeline") == 1


# ------------------------------------------------------------------ CFG001
def test_cfg001_flags_param_mutation():
    hits = findings("CFG001", """
        def tweak(config):
            config.core.rob_size = 128
    """)
    assert len(hits) == 1
    assert "caller-supplied" in hits[0].message


def test_cfg001_flags_annotated_param():
    hits = findings("CFG001", """
        def tweak(options: SimConfig):
            options.max_cycles = 10
    """)
    assert len(hits) == 1


def test_cfg001_allows_rebound_copy():
    assert not findings("CFG001", """
        import copy
        def run(config):
            config = copy.deepcopy(config)
            config.stats_warmup_uops = 5
            return config
    """)


def test_cfg001_allows_locally_built_config():
    assert not findings("CFG001", """
        def make():
            config = config_for_mode("cdf")
            config.core.rob_size = 128
            return config
    """)


def test_cfg001_suppressed():
    assert suppressed_count("CFG001", """
        def knob(config, value):
            config.llc.mshrs = value  # simlint: disable=CFG001 knob contract
    """) == 1


# ------------------------------------------------------------------ STAT001
def test_stat001_flags_undeclared_bump_key():
    hits = findings("STAT001", """
        def f(self):
            self.counters.bump("fetch_uop")
    """)
    assert len(hits) == 1
    assert "fetch_uop" in hits[0].message


def test_stat001_flags_undeclared_subscript_key():
    hits = findings("STAT001", """
        def f(counters):
            counters["branch_mispredict"] = 3
            return counters["llc_mis_loads"]
    """)
    assert len(hits) == 2


def test_stat001_flags_unknown_fstring_template():
    hits = findings("STAT001", """
        def f(self, reason):
            self.counters.bump(f"mystery_{reason}_events")
    """)
    assert len(hits) == 1


def test_stat001_allows_registered_keys():
    assert not findings("STAT001", """
        def f(self, reason, weight):
            self.counters.bump("fetch_uops")
            self.counters.bump(f"dispatch_stall_{reason}_cycles", weight)
            self.counters["branch_mispredicts"] = 7
    """)


def test_stat001_allows_registered_verify_counters():
    assert not findings("STAT001", """
        def f(self):
            self.counters.bump("verify_retired_uops")
            self.counters.bump("verify_oracle_uops")
            self.counters.bump("verify_structural_scans")
    """)


def test_stat001_flags_undeclared_verify_counter():
    # screen_configs_pruned: a deleted counter family stays undeclared.
    for key in ("verify_bogus_checks", "screen_configs_pruned"):
        hits = findings("STAT001", f"""
            def f(self):
                self.counters.bump("{key}")
        """)
        assert len(hits) == 1
        assert key in hits[0].message


def test_stat001_flags_undeclared_screen_counter():
    hits = findings("STAT001", """
        def f(self):
            self.counters.bump("screen_configs_prunned")
    """)
    assert len(hits) == 1
    assert "screen_configs_prunned" in hits[0].message


def test_stat001_suppressed():
    assert suppressed_count("STAT001", """
        def f(self):
            self.counters.bump("experimental_key")  # simlint: disable=STAT001 staging
    """) == 1


# ------------------------------------------------------------------ NUM001
def test_num001_flags_division_into_bump():
    hits = findings("NUM001", """
        def f(self, cycles):
            self.counters.bump("cdf_mode_cycles", cycles / 2)
    """)
    assert len(hits) == 1


def test_num001_flags_float_literal_assignment():
    hits = findings("NUM001", """
        def f(counters):
            counters["llc_accesses"] = 0.5
    """)
    assert len(hits) == 1


def test_num001_allows_integer_math_and_int_cast():
    assert not findings("NUM001", """
        def f(self, cycles, ratio):
            self.counters.bump("cdf_mode_cycles", cycles // 2)
            self.counters.bump("fetch_uops", int(cycles * ratio))
    """)


def test_num001_suppressed():
    assert suppressed_count("NUM001", """
        def f(self, cycles):
            self.counters.bump("cdf_mode_cycles", cycles / 2)  # simlint: disable=NUM001 known exact
    """) == 1


# ------------------------------------------------------------------ ARCH001
def test_arch001_flags_upward_import():
    hits = findings("ARCH001", "from repro.harness import run_benchmark\n",
                    module="repro.isa.program")
    assert len(hits) == 1
    assert "repro.isa" in hits[0].message


def test_arch001_flags_relative_upward_import():
    hits = findings("ARCH001", "from ..cdf import CDFPipeline\n",
                    module="repro.memory.cache")
    assert len(hits) == 1


def test_arch001_allows_downward_import():
    assert not findings("ARCH001", """
        from ..config import SimConfig
        from ..isa.dynuop import DynUop
    """, module="repro.core.pipeline")


def test_arch001_harness_may_import_anything():
    assert not findings("ARCH001", """
        from ..cdf import CDFPipeline
        from ..workloads import SUITE
    """, module="repro.harness.runner")


def test_arch001_suppressed():
    assert suppressed_count(
        "ARCH001",
        "from repro.cdf import CDFPipeline  # simlint: disable=ARCH001 migration\n",
        module="repro.memory.cache") == 1


# ------------------------------------------------------------------ API001
def test_api001_flags_mutable_defaults():
    hits = findings("API001", """
        def f(xs=[], mapping={}, tags=set()):
            return xs, mapping, tags
    """)
    assert len(hits) == 3


def test_api001_flags_kwonly_constructor_default():
    hits = findings("API001", """
        def f(*, counters=Counters()):
            return counters
    """)
    assert len(hits) == 1


def test_api001_allows_none_and_immutables():
    assert not findings("API001", """
        def f(xs=None, n=3, name="x", pair=(1, 2)):
            xs = list(xs or ())
            return xs, n, name, pair
    """)


def test_api001_suppressed():
    assert suppressed_count("API001", """
        def f(cache={}):  # simlint: disable=API001 intentional memo
            return cache
    """) == 1


# --------------------------------------------------------------- framework
def test_disable_all_silences_every_rule():
    source = textwrap.dedent("""
        def f(xs):
            for x in set(xs):  # simlint: disable=all generated code
                print(x)
    """)
    found, hidden = lint_source(source)
    assert not found
    assert hidden >= 1


def test_disable_file_directive():
    source = textwrap.dedent("""
        # simlint: disable-file=DET002 trace dump helper, order-free
        def f(xs):
            for x in set(xs):
                print(x)
            return list(set(xs))
    """)
    found, hidden = lint_source(source, rules=[rule_by_id("DET002")])
    assert not found
    assert hidden == 2


def test_multiline_statement_suppression_on_any_line():
    source = textwrap.dedent("""
        def f(self):
            self.counters.bump(
                "experimental_key")  # simlint: disable=STAT001 staging
    """)
    found, hidden = lint_source(source, rules=[rule_by_id("STAT001")])
    assert not found and hidden == 1


def test_parse_suppressions_directives():
    supp = parse_suppressions([
        "x = 1  # simlint: disable=DET001,DET002 reason text",
        "# simlint: disable-next=CFG001",
        "y = 2",
        "# simlint: disable-file=API001 whole file",
    ])
    assert supp.is_suppressed("DET001", 1, 1)
    assert supp.is_suppressed("DET002", 1, 1)
    assert not supp.is_suppressed("DET003", 1, 1)
    assert supp.is_suppressed("CFG001", 3, 3)
    assert supp.is_suppressed("API001", 99, 99)


def test_rule_catalogue_is_documented():
    ids = [rule.id for rule in ALL_RULES]
    assert ids == sorted(ids) or len(set(ids)) == len(ids)
    for rule in ALL_RULES:
        assert rule.rationale, f"{rule.id} missing rationale"
        assert rule.name, f"{rule.id} missing name"
    with pytest.raises(KeyError):
        rule_by_id("NOPE999")


def test_baseline_grandfathers_then_catches_new(tmp_path):
    source = textwrap.dedent("""
        def f(xs):
            for x in set(xs):
                print(x)
    """)
    found, _ = lint_source(source, rules=[rule_by_id("DET002")])
    baseline = Baseline.from_findings(found)
    # same findings again: fully grandfathered
    again, _ = lint_source(source, rules=[rule_by_id("DET002")])
    new, grandfathered, stale = baseline.filter(again)
    assert not new and grandfathered == 1 and not stale
    # a second violation appears: only the new one fires
    source2 = source + "    for y in set(xs):\n        print(y)\n"
    more, _ = lint_source(source2, rules=[rule_by_id("DET002")])
    new, grandfathered, stale = baseline.filter(more)
    assert len(new) == 1 and grandfathered == 1
    # violation removed: baseline entry is reported stale
    clean, _ = lint_source("def f():\n    return 1\n",
                           rules=[rule_by_id("DET002")])
    new, grandfathered, stale = baseline.filter(clean)
    assert not new and not grandfathered and len(stale) == 1
    # round-trips through disk
    path = tmp_path / "baseline.json"
    baseline.dump(path)
    assert Baseline.load(path).counts == baseline.counts


def test_reporters_render_findings():
    source = "def f(xs):\n    return list(set(xs))\n"
    found, _ = lint_source(source, rules=[rule_by_id("DET002")])
    report = LintReport(findings=found, files_checked=1)
    text = render_text(report, verbose=True)
    assert "DET002" in text and "FAIL" in text
    clean = LintReport(files_checked=1)
    assert "OK" in render_text(clean)
    import json
    payload = json.loads(render_json(report))
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "DET002"
