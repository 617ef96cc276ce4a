"""Unit and integration tests for the process-sharded experiment runner."""

import multiprocessing
import os
import pickle

import pytest

from repro.experiments import ExperimentConfig, Experiments
from repro.experiments import sharding
from repro.experiments.sharding import (
    FORTRAN_EXT,
    PART1_ACC,
    PART1_OMP,
    PART2_ACC,
    PART2_OMP,
    STANDARD_CELLS,
    Cell,
    CellResult,
    estimated_cost,
    plan,
    prefill,
    run_cell,
)
from repro.obs import trace
from repro.pipeline.stats import PipelineStats, StageStats


class TestPlan:
    def test_default_plan_is_the_standard_matrix(self):
        assert plan(None) == list(STANDARD_CELLS)

    def test_single_table_maps_to_its_cell(self):
        assert plan(["table1"]) == [PART1_ACC]
        assert plan(["table5"]) == [PART2_OMP]
        assert plan(["fortran_extension"]) == [FORTRAN_EXT]

    def test_plan_deduplicates_shared_cells(self):
        # tables 4 and 7 both ride on the part2/acc run
        assert plan(["table4", "table7", "fig3"]) == [PART2_ACC]

    def test_composite_artifacts_pull_in_both_parts(self):
        assert plan(["fig5"]) == [PART1_ACC, PART2_ACC]
        assert plan(["table3"]) == [PART1_ACC, PART1_OMP]

    def test_unknown_artifacts_are_skipped(self):
        assert plan(["nonsense"]) == []
        assert plan(["nonsense", "table2"]) == [PART1_OMP]

    def test_every_standard_artifact_is_mapped(self):
        names = [f"table{i}" for i in range(1, 10)] + [f"fig{i}" for i in range(3, 7)]
        for name in names:
            assert sharding.ARTIFACT_CELLS[name], name

    def test_cell_keys_match_runner_memo_keys(self):
        assert PART1_ACC.key == "acc"
        assert PART2_OMP.key == "omp:part2"
        assert FORTRAN_EXT.key == "acc:fortran-ext"


class TestCost:
    def test_part2_outweighs_part1_at_every_scale(self):
        for scale in ("tiny", "small", "paper"):
            config = ExperimentConfig(scale=scale)
            assert estimated_cost(config, PART2_ACC) > estimated_cost(config, PART1_ACC)

    def test_extension_cell_uses_shrunk_count(self):
        config = ExperimentConfig(scale="tiny")
        assert estimated_cost(config, FORTRAN_EXT) < estimated_cost(config, PART2_ACC)


class TestStatsAcrossProcesses:
    def test_stage_stats_pickle_roundtrip(self):
        stats = StageStats("judge")
        stats.record(passed=True, busy=0.5, simulated=2.0)
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.snapshot() == stats.snapshot()
        # the reconstituted lock must be a real, usable lock
        clone.record(passed=False, busy=0.1)
        assert clone.processed == 2

    def test_pipeline_stats_pickle_roundtrip(self):
        stats = PipelineStats()
        stats.compile.record(passed=True, busy=1.0)
        stats.files_total = 7
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.summary() == stats.summary()

    def test_merge_sums_counters_and_maxes_wall(self):
        a = PipelineStats()
        a.compile.record(passed=True, busy=1.0)
        a.judge.record(passed=False, busy=2.0, simulated=5.0)
        a.wall_seconds = 3.0
        a.files_total = 10
        b = PipelineStats()
        b.compile.record(passed=False, busy=0.5)
        b.wall_seconds = 4.0
        b.files_total = 6
        a.merge(b)
        assert a.compile.processed == 2
        assert a.compile.passed == 1 and a.compile.failed == 1
        assert a.judge.simulated_seconds == 5.0
        assert a.wall_seconds == 4.0  # concurrent shards: slowest wins
        assert a.files_total == 16

    def test_merge_covers_extra_stages(self):
        a, b = PipelineStats(), PipelineStats()
        b.for_stage("lint").record(passed=True, busy=0.2)
        a.merge(b)
        assert a.for_stage("lint").processed == 1


class TestRunCell:
    def test_part1_cell_matches_sequential(self):
        config = ExperimentConfig(scale="tiny")
        result = run_cell(config, PART1_OMP)
        sequential = Experiments(config).part1_report("omp")
        assert result.report == sequential
        assert result.run is None

    def test_cell_result_shares_cache_dir(self, tmp_path):
        config = ExperimentConfig(scale="tiny")
        cold = run_cell(config, PART1_OMP, cache_dir=str(tmp_path))
        warm = run_cell(config, PART1_OMP, cache_dir=str(tmp_path))
        assert warm.report == cold.report
        # the second process-equivalent warm-started from the shared dir
        assert warm.cache_summary["namespaces"]["judge"]["hits"] > 0

    def test_worker_config_never_recurses(self):
        config = ExperimentConfig(scale="tiny", jobs=8)
        result = run_cell(config, PART1_OMP)
        assert result.report is not None  # ran in-process, no pool


class TestPrefill:
    def test_prefill_installs_cells_and_skips_filled(self):
        config = ExperimentConfig(scale="tiny")
        exp = Experiments(config)
        stats = prefill(exp, artifacts=["table2"], jobs=1)
        assert "omp" in exp._part1_reports
        assert stats is not None
        # second prefill finds nothing to do
        assert prefill(exp, artifacts=["table2"], jobs=1) is None

    def test_prefilled_table_is_byte_identical(self):
        config = ExperimentConfig(scale="tiny")
        sequential = Experiments(config).table2().text
        exp = Experiments(config)
        prefill(exp, artifacts=["table2"], jobs=1)
        assert exp.table2().text == sequential

    def test_sharded_prefill_over_processes(self):
        """Two worker processes; composed table equals the sequential one."""
        config = ExperimentConfig(scale="tiny", jobs=2)
        sequential = Experiments(ExperimentConfig(scale="tiny")).table3().text
        exp = Experiments(config)
        stats = prefill(exp, artifacts=["table3"])
        assert set(exp._part1_reports) == {"acc", "omp"}
        assert exp.table3().text == sequential
        assert exp.shard_stats is stats

    def test_entrypoint_is_spawn_safe(self):
        """Pin the spawn start method explicitly: the worker function
        and its arguments must survive a from-scratch interpreter."""
        config = ExperimentConfig(scale="tiny")
        results = sharding.run_cells(
            config, [PART1_ACC, PART1_OMP], jobs=2, start_method="spawn"
        )
        sequential = Experiments(config)
        assert results[0].report == sequential.part1_report("acc")
        assert results[1].report == sequential.part1_report("omp")

    def test_jobs_knob_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(jobs=0)

    def test_prefill_flushes_parent_cache_to_workers(self):
        """A parent holding warm in-memory results must hand them to
        the shards (via the shared dir), not let them recompute."""
        from repro.cache.bundle import PipelineCache

        cache = PipelineCache()
        config = ExperimentConfig(scale="tiny")
        Experiments(config, cache=cache).part1_report("omp")
        assert cache.judge.hits == 0  # cold so far, misses only

        exp = Experiments(ExperimentConfig(scale="tiny", jobs=2), cache=cache)
        prefill(exp, artifacts=["table2"], jobs=2)
        # folded worker counters show the shard reused the parent's work
        assert cache.judge.hits > 0


class TestCellResultPickles:
    def test_part2_run_crosses_process_boundary(self):
        """_Part2Run (records, stats, reports) must survive pickling —
        this is what workers actually send back."""
        config = ExperimentConfig(scale="tiny")
        result = run_cell(config, Cell("part2", "omp"))
        clone: CellResult = pickle.loads(pickle.dumps(result))
        assert clone.run.llmj2_report == result.run.llmj2_report
        assert clone.stats.summary() == result.stats.summary()
        assert len(clone.run.pipeline1.records) == len(result.run.pipeline1.records)


class TestUsableCpus:
    def test_counts_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no CPU affinity on this platform")
        assert sharding.usable_cpus() == len(os.sched_getaffinity(0))

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert sharding.usable_cpus() == (os.cpu_count() or 1)


class TestSpanShipping:
    """Cell spans recorded in worker processes reach the caller's tracer."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_worker_spans_arrive_parented_once(self, start_method):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {start_method} start method here")
        config = ExperimentConfig(scale="tiny")
        tracer = trace.Tracer()
        with trace.installed(tracer), tracer.span("caller") as caller:
            # finished before the pool forks: a fork inherits it
            with tracer.span("before-fork"):
                pass
            results = sharding.run_cells(
                config, [PART1_OMP, PART2_OMP], jobs=2, start_method=start_method
            )
        for result in results:
            tracer.absorb(result.spans)
        spans = tracer.spans
        by_id = {span.span_id: span for span in spans}

        assert len(by_id) == len(spans), "a span came back twice"
        assert [s.name for s in spans].count("before-fork") == 1
        assert all(result.spans for result in results)

        cells = [s for s in spans if s.name == "experiments.cell"]
        assert sorted(s.attrs["cell"] for s in cells) == ["part1:omp", "part2:omp"]
        for cell in cells:
            assert cell.parent_id == caller.span_id
            assert cell.trace_id == caller.trace_id
            assert cell.pid != os.getpid()

        def cell_of(span):
            while span.parent_id in by_id and span.name != "experiments.cell":
                span = by_id[span.parent_id]
            return span

        stages = [s for s in spans if s.name.startswith("stage.")]
        assert stages, "the Part-Two cell's pipeline recorded no stage spans"
        for stage in stages:
            owner = cell_of(stage)
            assert owner.name == "experiments.cell"
            assert owner.attrs["cell"] == "part2:omp"
            assert stage.pid == owner.pid

    def test_prefill_absorbs_cell_spans(self):
        tracer = trace.Tracer()
        exp = Experiments(ExperimentConfig(scale="tiny", jobs=2))
        with trace.installed(tracer), tracer.span("caller"):
            prefill(exp, artifacts=["table3"])
        cells = [s for s in tracer.spans if s.name == "experiments.cell"]
        assert len(cells) == 2
        assert {s.pid for s in cells}.isdisjoint({os.getpid()})

    def test_in_process_cells_open_the_same_span(self):
        tracer = trace.Tracer()
        with trace.installed(tracer), tracer.span("caller") as caller:
            results = sharding.run_cells(
                ExperimentConfig(scale="tiny"), [PART1_OMP], jobs=1
            )
        assert results[0].spans == []
        cells = [s for s in tracer.spans if s.name == "experiments.cell"]
        assert len(cells) == 1
        assert cells[0].parent_id == caller.span_id
        assert cells[0].pid == os.getpid()

    def test_untraced_workers_ship_nothing(self):
        results = sharding.run_cells(
            ExperimentConfig(scale="tiny"), [PART1_ACC, PART1_OMP], jobs=2
        )
        assert [result.spans for result in results] == [[], []]

    def test_checkpoints_drop_spans(self, tmp_path):
        tracer = trace.Tracer()
        with trace.installed(tracer), tracer.span("caller"):
            sharding.run_cells(
                ExperimentConfig(scale="tiny"), [PART1_ACC, PART1_OMP], jobs=2,
                checkpoint_dir=tmp_path,
            )
        loaded = sharding.load_cell_results(tmp_path)
        assert set(loaded) == {"part1:acc", "part1:omp"}
        assert all(result.spans == [] for result in loaded.values())
