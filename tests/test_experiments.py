"""Tests for the experiment harness: environment, paperdata, runner."""

import pytest

from repro.compiler.driver import Compiler
from repro.corpus.generator import TestFile
from repro.experiments import EnvironmentModel, ExperimentConfig, Experiments
from repro.experiments import paperdata
from repro.experiments.config import _SCALES
from repro.runtime.executor import Executor


class TestEnvironmentModel:
    def test_zero_rate_never_flaky(self):
        env = EnvironmentModel(compile_flake_rate=0.0)
        assert not any(env.is_flaky(f"file{i}.c") for i in range(50))

    def test_rate_approximately_respected(self):
        env = EnvironmentModel(compile_flake_rate=0.2, seed=3)
        flaky = sum(env.is_flaky(f"file{i}.c") for i in range(2000))
        assert 300 < flaky < 500

    def test_deterministic_per_name(self):
        env = EnvironmentModel(compile_flake_rate=0.5, seed=3)
        assert env.is_flaky("x.c") == env.is_flaky("x.c")

    def test_apply_replaces_successful_compile(self, valid_acc_source):
        env = EnvironmentModel(compile_flake_rate=1.0, seed=1)
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        compiled = Compiler(model="acc").compile(test.source, test.name)
        flaked = env.apply(test, compiled)
        assert flaked.returncode != 0
        assert "toolchain-limitation" in flaked.diagnostic_codes

    def test_apply_leaves_failures_alone(self):
        env = EnvironmentModel(compile_flake_rate=1.0, seed=1)
        test = TestFile("t.c", "c", "acc", "garbage", "x")
        compiled = Compiler(model="acc").compile(test.source, test.name)
        assert env.apply(test, compiled) is compiled


class TestPaperData:
    def test_counts_sum_to_published_totals(self):
        assert sum(paperdata.TABLE_I.counts.values()) == 1335
        assert sum(paperdata.TABLE_II.counts.values()) == 431
        assert sum(paperdata.TABLE_IV["Pipeline 1"].counts.values()) == 1782
        assert sum(paperdata.TABLE_V["Pipeline 1"].counts.values()) == 296

    def test_accuracy_matches_published_percentages(self):
        assert paperdata.TABLE_I.accuracy(3) == pytest.approx(94 / 117)
        assert paperdata.TABLE_II.accuracy(5) == pytest.approx(84 / 216)

    def test_overall_consistency(self):
        # mistakes + correct = total for Table III
        t3 = paperdata.TABLE_III["acc"]
        correct = sum(paperdata.TABLE_I.correct.values())
        assert t3.total_count - t3.total_mistakes == correct

    def test_pipeline_mistakes_consistent(self):
        t6 = paperdata.TABLE_VI["acc"][0]
        correct = sum(paperdata.TABLE_IV["Pipeline 1"].correct.values())
        assert t6.total_count - t6.total_mistakes == correct

    def test_figures_derive_from_tables(self):
        fig3 = paperdata.FIGURE_3["Pipeline 1"]
        assert fig3["model errors"] == pytest.approx(250 / 272)
        assert fig3["test logic"] == pytest.approx(38 / 176)
        fig5 = paperdata.FIGURE_5["LLMJ 1"]
        assert fig5["valid tests"] == pytest.approx(819 / 891)


class TestConfig:
    def test_scales_defined(self):
        assert set(_SCALES) == {"paper", "small", "tiny"}

    def test_paper_scale_counts(self):
        config = ExperimentConfig(scale="paper")
        assert config.part1_acc_count == 1336
        assert config.part2_acc_count == 1782
        assert config.part2_omp_count == 296

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(scale="huge")

    def test_protocol_languages(self):
        config = ExperimentConfig(scale="tiny")
        assert config.part1_omp_languages == ("c",)
        assert "f90" in config.part1_acc_languages
        assert config.part2_languages == ("c", "cpp")


@pytest.fixture(scope="module")
def tiny_sweep():
    """A cold tiny sweep (every table and figure), plus the program —
    (language, source) — of every interpreter run it made, in order."""
    experiments = Experiments(ExperimentConfig(scale="tiny", seed=7, model_seed=5))
    programs = {}  # id(unit) -> (unit, language, source); the unit pins the id
    runs = []
    compile_, run = Compiler.compile, Executor.run

    def compile_recording(self, source, filename="<input>"):
        result = compile_(self, source, filename)
        programs[id(result.unit)] = (result.unit, result.language, source)
        return result

    def run_recording(self, compiled):
        runs.append(programs[id(compiled.unit)][1:])
        return run(self, compiled)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Compiler, "compile", compile_recording)
        patch.setattr(Executor, "run", run_recording)
        experiments.all_tables()
        experiments.all_figures()
    return experiments, runs


@pytest.fixture(scope="module")
def tiny_experiments(tiny_sweep):
    return tiny_sweep[0]


class TestExperimentsTiny:
    """Integration: the harness regenerates every artifact at tiny scale."""

    def test_table1_shape(self, tiny_experiments):
        result = tiny_experiments.table1()
        assert "Table I" in result.text
        report = result.reports[0]
        assert report.total_count == 60
        assert report.row_for(5) is not None

    def test_table3_has_both_flavors(self, tiny_experiments):
        result = tiny_experiments.table3()
        assert "OpenACC" in result.text and "OpenMP" in result.text

    def test_part2_reports_consistent(self, tiny_experiments):
        run = tiny_experiments.part2_run("acc")
        assert run.llmj1_report.total_count == run.pipeline1_report.total_count
        # the pipeline can only be stricter than its judge on invalid files
        assert run.pipeline1_report.row_for(1).accuracy >= run.llmj1_report.row_for(1).accuracy

    def test_agent_beats_direct_overall(self, tiny_experiments):
        """The paper's headline: agent-based judging is drastically better."""
        direct = tiny_experiments.part1_report("acc")
        agent = tiny_experiments.part2_run("acc").llmj1_report
        assert agent.overall_accuracy > direct.overall_accuracy

    def test_figures_have_series(self, tiny_experiments):
        fig3 = tiny_experiments.fig3()
        assert len(fig3.series) == 2
        fig5 = tiny_experiments.fig5()
        assert len(fig5.series) == 3
        assert fig5.series[0].axes[-1] == "valid tests"

    def test_all_tables_materialize(self, tiny_experiments):
        tables = tiny_experiments.all_tables()
        assert len(tables) == 9
        assert all(t.text for t in tables)

    def test_caching_returns_same_objects(self, tiny_experiments):
        assert tiny_experiments.part1_report("acc") is tiny_experiments.part1_report("acc")
        assert tiny_experiments.part2_run("omp") is tiny_experiments.part2_run("omp")

    def test_cold_sweep_runs_each_program_once(self, tiny_sweep):
        """Every execute-cache miss is a program not run before: files
        that differ only in name (probing's unchanged half) share a run."""
        experiments, runs = tiny_sweep
        assert len(runs) > 50
        assert len(set(runs)) == len(runs)
        assert experiments.cache.execute.misses == len(runs)


class TestReportGeneration:
    def test_experiments_md_written(self, tiny_experiments, tmp_path):
        from repro.experiments.report import write_experiments_md

        path = write_experiments_md(tiny_experiments, tmp_path / "EXPERIMENTS.md")
        text = path.read_text()
        assert "Table I" in text
        assert "paper" in text and "measured" in text
        assert "Figure 6" in text
        assert "Known residual deviations" in text
