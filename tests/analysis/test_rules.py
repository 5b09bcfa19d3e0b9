"""Fixture snippets for every simlint rule: positive and
allowlisted/clean variants, plus the rule catalogue and the text
reporter."""

import importlib.util
import textwrap

import pytest

from repro.analysis import ALL_RULES, lint_source, rule_by_id
from repro.analysis.report import render_text
from repro.analysis.runner import LintReport


def findings(rule_id, source, module="repro.core.snippet"):
    return lint_source(textwrap.dedent(source), rules=[rule_by_id(rule_id)],
                       module=module)


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
    assert not findings("DET003", source, module="repro.harness.figures")
    assert findings("DET003", source, module="repro.memory.dram")
    # simlint's own driver keeps no timings, so it is checked too
    assert findings("DET003", source, module="repro.analysis.runner")


def test_det003_flags_time_time():
    hits = findings("DET003", """
        import time
        def log():
            return time.time()
    """, module="repro.core.pipeline")
    assert len(hits) == 1 and "time.time" in hits[0].message


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


def test_stat001_flags_undeclared_key_on_continuation_line():
    hits = findings("STAT001", """
        def f(self):
            self.counters.bump(
                "experimental_key")
    """)
    assert len(hits) == 1
    assert hits[0].line == 4 and "experimental_key" in hits[0].snippet


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


# --------------------------------------------------------------- framework
def test_rule_catalogue_is_documented():
    ids = [rule.id for rule in ALL_RULES]
    assert ids == sorted(ids) or len(set(ids)) == len(ids)
    for rule in ALL_RULES:
        assert rule.rationale, f"{rule.id} missing rationale"
        assert rule.name, f"{rule.id} missing name"
    with pytest.raises(KeyError):
        rule_by_id("NOPE999")


def test_allowlisted_modules_still_exist():
    """Every module a rule exempts still resolves. Otherwise a deleted
    module's exemption stays behind unseen, and any later module that
    reuses the name inherits it."""
    allowlisting = [rule for rule in ALL_RULES
                    if getattr(rule, "ALLOWED_MODULES", ())]
    assert {"DET003"} <= {rule.id for rule in allowlisting}
    for rule in allowlisting:
        for module in rule.ALLOWED_MODULES:
            assert importlib.util.find_spec(module) is not None, (
                f"{rule.id} allowlists {module}, which does not exist")


def test_reporters_render_findings():
    source = "def f(xs):\n    return list(set(xs))\n"
    found = lint_source(source, rules=[rule_by_id("DET002")])
    report = LintReport(findings=found, files_checked=1)
    text = render_text(report)
    assert "DET002" in text and "FAIL" in text
    # every finding is followed by its source line
    assert "    | return list(set(xs))" in text
    clean = LintReport(files_checked=1)
    assert "OK" in render_text(clean)
