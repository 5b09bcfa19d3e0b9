"""Mutation fixtures for the dataflow-tier rules.

Each rule gets (a) a positive fixture reproducing its historical bug
class — the PR 3 rebalance overflow for GRD001, the PR 5
writeback-at-cycle-0 for TIME001, the level-0 observer mutation for
PUR001 — and (b) clean variants proving the repo's idioms (early-return
guards, gate-derived locals, min/max clamps, share transfers) are not
flagged.
"""

import textwrap

from repro.analysis import lint_source, rule_by_id


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


# ------------------------------------------------------------------ PUR001
def test_pur001_flags_unguarded_observer_use():
    hits = findings("PUR001", """
        class Core:
            def tick(self, cycle):
                self.observer.on_cycle_end(cycle)
    """)
    assert len(hits) == 1 and hits[0].rule == "PUR001"


def test_pur001_accepts_none_guard():
    assert not findings("PUR001", """
        class Core:
            def tick(self, cycle):
                if self.observer is not None:
                    self.observer.on_cycle_end(cycle)
    """)


def test_pur001_accepts_early_return_guard():
    assert not findings("PUR001", """
        class Core:
            def tick(self, cycle):
                if self.observer is None:
                    return
                self.observer.on_cycle_end(cycle)
    """)


def test_pur001_accepts_obs_level_gate():
    assert not findings("PUR001", """
        class Core:
            def tick(self, cycle):
                if self.obs_level >= 1:
                    self.observer.on_cycle_end(cycle)
    """)


def test_pur001_flags_use_through_local_alias():
    hits = findings("PUR001", """
        class Core:
            def tick(self, cycle):
                obs = self.observer
                obs.on_cycle_end(cycle)
    """)
    assert len(hits) == 1


def test_pur001_accepts_guarded_alias():
    assert not findings("PUR001", """
        class Core:
            def tick(self, cycle):
                obs = self.observer
                if obs is not None:
                    obs.on_cycle_end(cycle)
    """)


def test_pur001_exempts_observability_modules():
    assert not findings("PUR001", """
        class Report:
            def render(self):
                return self.observer.event_log
    """, module="repro.obs.report")


def test_pur001_suppressed_inline():
    assert suppressed_count("PUR001", """
        class Core:
            def tick(self, cycle):
                self.observer.on_cycle_end(cycle)  # simlint: disable=PUR001 demo
    """) == 1


# ------------------------------------------------------------------ TIME001
def test_time001_flags_writeback_at_cycle_zero():
    # PR 5's actual bug: victim writebacks issued at timestamp 0.
    hits = findings("TIME001", """
        class Hierarchy:
            def evict(self, victim):
                self.dram.access(0, victim, source="writeback")
    """)
    assert len(hits) == 1 and hits[0].rule == "TIME001"


def test_time001_accepts_cycle_derived_timestamp():
    assert not findings("TIME001", """
        class Hierarchy:
            def evict(self, cycle, victim):
                self.dram.access(cycle + 1, victim, source="writeback")
    """)


def test_time001_flags_stale_local_into_event_queue():
    hits = findings("TIME001", """
        import heapq

        class Sched:
            def push(self, item):
                when = 0
                heapq.heappush(self.events, (when, item))
    """)
    assert len(hits) == 1


def test_time001_accepts_cycleish_heap_timestamp():
    assert not findings("TIME001", """
        import heapq

        class Sched:
            def push(self, cycle, item):
                ready_cycle = cycle + self.latency
                heapq.heappush(self.events, (ready_cycle, item))
    """)


def test_time001_sees_through_aliased_event_heap():
    # The shape of _issue's completion loop: local aliases of the heap
    # and of heappush, one push per issued uop.
    hits = findings("TIME001", """
        import heapq

        class Core:
            def complete(self, issued):
                events = self.events
                heappush = heapq.heappush
                for tiebreak, entry in issued:
                    heappush(events, (0, tiebreak, entry))
    """)
    assert len(hits) == 1


def test_time001_accepts_cycle_clamped_completion_through_aliases():
    assert not findings("TIME001", """
        import heapq

        class Core:
            def complete(self, cycle, issued):
                events = self.events
                heappush = heapq.heappush
                tiebreak = self._tiebreak
                for entry, completion in issued:
                    done = completion if completion > cycle else cycle + 1
                    tiebreak += 1
                    heappush(events, (done, tiebreak, entry))
    """)


def test_time001_sees_through_method_alias():
    hits = findings("TIME001", """
        class Core:
            def fetch(self, line):
                ifetch = self.mem.ifetch
                ifetch(0, line)
    """)
    assert len(hits) == 1


def test_time001_exempts_harness_modules():
    assert not findings("TIME001", """
        class Replay:
            def seed(self, victim):
                self.dram.access(0, victim)
    """, module="repro.harness.replay")


# ------------------------------------------------------------------ GRD001
def test_grd001_flags_unclamped_partition_growth():
    # PR 3's actual bug: rebalance grew critical_size past its bound.
    hits = findings("GRD001", """
        class Partition:
            def rebalance(self):
                self.critical_size += self.step
    """)
    assert len(hits) == 1 and hits[0].rule == "GRD001"
    assert "critical_size" in hits[0].message


def test_grd001_accepts_minmax_clamped_growth():
    assert not findings("GRD001", """
        class Partition:
            def rebalance(self):
                new_size = min(self.total - self.min_noncritical,
                               self.critical_size + self.step)
                change = new_size - self.critical_size
                self.critical_size += change
    """)


def test_grd001_accepts_capacity_guarded_append():
    assert not findings("GRD001", """
        class Fifo:
            def push(self, item):
                if self.full:
                    raise OverflowError("fifo overflow")
                self._q.append(item)
    """)


def test_grd001_flags_unguarded_fifo_append():
    hits = findings("GRD001", """
        class Fifo:
            def push_unchecked(self, item):
                self._q.append(item)
    """)
    assert len(hits) == 1


def test_grd001_accepts_share_transfer():
    # paired += / -= in the same block moves occupancy, net zero
    assert not findings("GRD001", """
        class Partition:
            def hand_off(self, count):
                self.critical_size += count
                self.noncritical_size -= count
    """)


def test_grd001_accepts_gate_derived_break():
    assert not findings("GRD001", """
        class Pipe:
            def dispatch(self, uops, cycle):
                for uop in uops:
                    reason = self._allocation_block_reason(uop)
                    if reason is not None:
                        break
                    self.rob.append(uop)
    """)


def test_grd001_allocator_excused_when_all_callers_gated():
    assert not findings("GRD001", """
        class Pipe:
            def dispatch(self, uop):
                if self._allocation_block_reason(uop) is not None:
                    return False
                self._allocate(uop)
                return True

            def _allocate(self, uop):
                self.rob.append(uop)
    """)


def test_grd001_allocator_excused_by_inline_gate():
    # The base _dispatch shape: each structure tested in line before
    # the allocator runs.
    assert not findings("GRD001", """
        class Pipe:
            def dispatch(self, uop):
                if len(self.rob) >= self.rob_size:
                    return
                if self.rs_used >= self.rs_size:
                    return
                self._allocate(uop)

            def _allocate(self, uop):
                self.rob.append(uop)
                self.rs_used += 1
    """)


def test_grd001_flags_inline_gate_missing_a_structure():
    hits = findings("GRD001", """
        class Pipe:
            def dispatch(self, uop):
                if self.rs_used >= self.rs_size:
                    return
                self._allocate(uop)

            def _allocate(self, uop):
                self.rob.append(uop)
                self.rs_used += 1
    """)
    assert len(hits) == 1 and "ROB" in hits[0].message


def test_grd001_flags_ungated_allocator_caller():
    hits = findings("GRD001", """
        class Pipe:
            def dispatch(self, uop):
                if self._allocation_block_reason(uop) is not None:
                    return False
                self._allocate(uop)
                return True

            def sneak_in(self, uop):
                self._allocate(uop)

            def _allocate(self, uop):
                self.rob.append(uop)
    """)
    assert len(hits) == 1
    assert "sneak_in" in hits[0].message or "_allocate" in hits[0].message


def test_grd001_same_name_method_on_unrelated_class_not_conflated():
    # TAGE also has `_allocate`; its callers must not be dragged into
    # the pipeline allocator's caller set by the name-based call graph.
    assert not findings("GRD001", """
        class Pipe:
            def dispatch(self, uop):
                if self._allocation_block_reason(uop) is not None:
                    return False
                self._allocate(uop)

            def _allocate(self, uop):
                self.rob.append(uop)

        class Tage:
            def update(self, pc):
                self._allocate(pc)

            def _allocate(self, pc):
                self.table[pc] = 0
    """)


# ------------------------------------------------------------------ CONC001
def test_conc001_flags_worker_mutating_module_cache():
    hits = findings("CONC001", """
        _CACHE = {}

        def _run_sim_job(job):
            _CACHE[job.key] = job.payload
            return job.payload

        KINDS = {"sim": JobKind(execute=_run_sim_job)}
    """)
    assert len(hits) == 1 and hits[0].rule == "CONC001"
    assert "_CACHE" in hits[0].message


def test_conc001_flags_global_assignment_in_worker():
    hits = findings("CONC001", """
        _COUNT = 0

        def _run_sim_job(job):
            global _COUNT
            _COUNT += 1
            return job.payload

        KINDS = {"sim": JobKind(execute=_run_sim_job)}
    """)
    assert len(hits) == 1


def test_conc001_follows_the_call_graph():
    hits = findings("CONC001", """
        _SEEN = []

        def _record(job):
            _SEEN.append(job.key)

        def _run_sim_job(job):
            _record(job)
            return job.payload

        KINDS = {"sim": JobKind(execute=_run_sim_job)}
    """)
    assert len(hits) == 1


def test_conc001_flags_process_target_mutating_module_state():
    # A worker entry point is also discovered through the
    # multiprocessing.Process(target=...) keyword, same sharing rules
    # as a pool worker.
    hits = findings("CONC001", """
        import multiprocessing

        _RESULTS = {}

        def worker_main(worker_id, root):
            _RESULTS[worker_id] = root

        def spawn(slot):
            return multiprocessing.Process(
                target=worker_main, kwargs={"worker_id": slot,
                                            "root": "/tmp"})
    """)
    assert len(hits) == 1 and hits[0].rule == "CONC001"
    assert "_RESULTS" in hits[0].message


def test_conc001_allows_clean_process_target():
    assert not findings("CONC001", """
        import multiprocessing

        def worker_main(worker_id, root):
            return f"{worker_id}:{root}"

        def spawn(slot):
            return multiprocessing.Process(target=worker_main,
                                           args=(slot, "/tmp"))
    """)


def test_conc001_ignores_local_mutation_and_nonworker_globals():
    assert not findings("CONC001", """
        _CACHE = {}

        def warm_cache(key, value):
            _CACHE[key] = value

        def _run_sim_job(job):
            results = {}
            results[job.key] = job.payload
            return results

        KINDS = {"sim": JobKind(execute=_run_sim_job)}
    """)


def test_conc001_flags_class_attribute_store_in_worker():
    hits = findings("CONC001", """
        class Telemetry:
            last_job = None

        def _run_sim_job(job):
            Telemetry.last_job = job.key
            return job.payload

        KINDS = {"sim": JobKind(execute=_run_sim_job)}
    """)
    assert len(hits) == 1


def test_conc001_flags_lambda_in_job_payload():
    hits = findings("CONC001", """
        def launch(pool, work):
            return pool.submit(work, lambda: 3)
    """)
    assert len(hits) == 1
    assert "lambda" in hits[0].message


def test_conc001_discovers_submit_targets():
    hits = findings("CONC001", """
        _LOG = []

        def _execute(job):
            _LOG.append(job)

        def launch(pool, job):
            return pool.submit(_execute, job)
    """)
    assert len(hits) == 1


# ------------------------------------------------------------------ API002
def test_api002_flags_missing_hook_surface():
    hits = findings("API002", """
        class SparsePipeline:
            def run(self):
                return 0
    """)
    assert len(hits) == 1
    message = hits[0].message
    for method in ("attach_verifier", "attach_observer", "obs_gauges",
                   "_mode_name"):
        assert method in message


def test_api002_skips_class_with_unresolved_base():
    # partial-tree lint: the base lives outside the linted file set,
    # so the surface may be inherited from code we cannot see
    assert not findings("API002", """
        class CdfPipeline(BaselinePipeline):
            def run(self):
                return 1
    """)


def test_api002_accepts_surface_inherited_from_base():
    assert not findings("API002", """
        class BasePipeline:
            def attach_verifier(self, verifier):
                self.verifier = verifier

            def attach_observer(self, observer):
                self.observer = observer

            def obs_gauges(self):
                return {}

            def run(self):
                return 0

            def _mode_name(self):
                return "base"

        class CdfPipeline(BasePipeline):
            def run(self):
                return 1
    """)


def test_api002_flags_obs_gauges_override_dropping_base():
    hits = findings("API002", """
        class BasePipeline:
            def attach_verifier(self, verifier):
                self.verifier = verifier

            def attach_observer(self, observer):
                self.observer = observer

            def obs_gauges(self):
                return {}

            def run(self):
                return 0

            def _mode_name(self):
                return "base"

        class CdfPipeline(BasePipeline):
            def obs_gauges(self):
                return {"cdf.extra": 1}
    """)
    assert len(hits) == 1
    assert "obs_gauges" in hits[0].message


def test_api002_accepts_additive_obs_gauges_override():
    assert not findings("API002", """
        class BasePipeline:
            def attach_verifier(self, verifier):
                self.verifier = verifier

            def attach_observer(self, observer):
                self.observer = observer

            def obs_gauges(self):
                return {}

            def run(self):
                return 0

            def _mode_name(self):
                return "base"

        class CdfPipeline(BasePipeline):
            def obs_gauges(self):
                gauges = super().obs_gauges()
                gauges["cdf.extra"] = 1
                return gauges
    """)


def test_api002_checks_mode_name_against_registry():
    hits = findings("API002", """
        MODES = ("baseline", "cdf")

        class BasePipeline:
            def attach_verifier(self, verifier):
                self.verifier = verifier

            def attach_observer(self, observer):
                self.observer = observer

            def obs_gauges(self):
                return {}

            def run(self):
                return 0

            def _mode_name(self):
                return "experimental"
    """)
    assert len(hits) == 1
    assert "experimental" in hits[0].message


def test_api002_requires_literal_mode_name():
    hits = findings("API002", """
        class BasePipeline:
            def attach_verifier(self, verifier):
                self.verifier = verifier

            def attach_observer(self, observer):
                self.observer = observer

            def obs_gauges(self):
                return {}

            def run(self):
                return 0

            def _mode_name(self):
                return self.name
    """)
    assert len(hits) == 1
