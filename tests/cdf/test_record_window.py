"""The Fill Buffer's record window is exact.

CDF and PRE record a retire into the Fill Buffer only if the next walk
reads it: the last ``fill_buffer_entries`` retires of each
``fill_interval_uops`` interval, or every retire when the interval is
not longer than the buffer.  Recording every retire instead must give
every walk the same result and leave the run's result unchanged.
"""

import pytest

from repro.cdf import CDFPipeline
from repro.config import SimConfig
from repro.harness.runner import load_workload
from repro.isa.functional import execute
from repro.runahead import PREPipeline
from repro.verify import campaign
from repro.verify.fuzz import fuzz_program


#: A window start no retire count is below.
EVERY_RETIRE = -(1 << 62)


class RecordEveryRetireCDF(CDFPipeline):
    """Reference: the Fill Buffer records every retire."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._record_from = EVERY_RETIRE


class RecordEveryRetirePRE(PREPipeline):
    """Reference: the Fill Buffer records every retire."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._record_from = EVERY_RETIRE


PIPELINES = {"cdf": (CDFPipeline, RecordEveryRetireCDF),
             "pre": (PREPipeline, RecordEveryRetirePRE)}
CONFIGS = {"cdf": SimConfig.with_cdf, "pre": SimConfig.with_pre}


def run_with_walks(cls, trace, config, program):
    """Run one pipeline; return its result and every walk's output."""
    pipeline = cls(trace, config, program)
    walks = []
    walk = pipeline.fill_buffer.walk

    def recorded_walk(prior_masks=None):
        result = walk(prior_masks)
        walks.append((result.critical_flags, result.bb_masks,
                      result.bb_ends_in_branch))
        return result

    pipeline.fill_buffer.walk = recorded_walk
    return pipeline.run().to_dict(), walks


def assert_window_exact(mode, trace, config, program):
    windowed, reference = PIPELINES[mode]
    result, walks = run_with_walks(windowed, trace, config, program)
    expected, expected_walks = run_with_walks(reference, trace, config,
                                              program)
    assert walks == expected_walks
    assert result == expected
    return len(walks)


@pytest.mark.parametrize("mode", ["cdf", "pre"])
@pytest.mark.parametrize("fill_interval", [None, 800],
                         ids=["interval-10000", "interval-800"])
def test_record_window_matches_recording_every_retire_on_astar(
        mode, fill_interval):
    """At the default 10,000-uop interval the window is the last 1,024
    retires; at 800, below the 1,024-entry buffer, it is every retire."""
    workload = load_workload("astar", 0.3)
    config = CONFIGS[mode]()
    if fill_interval is not None:
        config.cdf.fill_interval_uops = fill_interval
    walks = assert_window_exact(mode, workload.trace(), config,
                                workload.program)
    assert walks >= (1 if fill_interval is None else 2)


@pytest.mark.parametrize("mode", ["cdf", "pre"])
def test_record_window_matches_recording_every_retire_on_fuzz(mode):
    """Seeds 0-11.  The fuzz configs give CDF a 300-uop interval over a
    256-entry buffer and PRE a 300-uop interval over a 1,024-entry one."""
    walks = 0
    for seed in range(12):
        program, memory = fuzz_program(seed)
        trace = execute(program, memory, require_halt=False)
        walks += assert_window_exact(mode, trace,
                                     campaign.fuzz_config(mode, seed),
                                     program)
    assert walks > 12
