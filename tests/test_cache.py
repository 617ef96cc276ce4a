"""Unit tests for the content-addressed result cache layer."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache.bundle import PipelineCache
from repro.cache.keys import compile_key, content_key, execute_key, judge_key
from repro.cache.store import Codec, ResultCache
from repro.cache.wrappers import (
    CachingAgentJudge,
    CachingCompiler,
    CachingDirectJudge,
    CachingExecutor,
)
from repro.compiler.driver import Compiler
from repro.corpus.generator import EXTENSIONS, TestFile
from repro.corpus.templates import TEMPLATES, TemplateContext
from repro.judge.llmj import AgentLLMJ, DirectLLMJ, JudgeResult
from repro.llm.model import DeepSeekCoderSim
from repro.pipeline.engine import PipelineConfig, ValidationPipeline
from repro.probing.mutators import MutationError, mutator_for_issue
from repro.runtime.executor import Executor


class TestKeys:
    def test_key_is_stable_across_calls(self):
        assert content_key("a", 1, {"x": [1, 2]}) == content_key("a", 1, {"x": [1, 2]})

    def test_key_depends_on_every_part(self):
        base = compile_key("compiler:acc:4.5", "c", "int main(){}")
        assert base != compile_key("compiler:omp:4.5", "c", "int main(){}")
        assert base != compile_key("compiler:acc:4.5", "c++", "int main(){}")
        assert base != compile_key("compiler:acc:4.5", "c", "int main(){return 1;}")

    def test_program_key_ignores_the_file_name_but_not_its_language(self):
        compiler = Compiler("acc")
        base = compiler.program_key("int main(){}", "t.c")
        assert base == compiler.program_key("int main(){}", "dir/u__issue5.c")
        assert base == compile_key(compiler.fingerprint(), "c", "int main(){}")
        assert base != compiler.program_key("int main(){}", "t.cpp")

    def test_part_boundaries_matter(self):
        assert content_key("ab", "c") != content_key("a", "bc")

    def test_key_stability_across_processes(self):
        """Pinned digest: a changed key function silently invalidates
        every persisted cache, so changes must be deliberate."""
        assert content_key("probe") == (
            "f8e0e5e2245d89d2f43dae922948ee25696b4f000edb168cf3eea4bd11d6f782"
        )

    def test_execute_and_judge_keys_namespaced(self):
        assert execute_key("deadbeef", 100) != content_key("deadbeef", 100)
        assert judge_key("f", "t.c", "src", None) != content_key("f", "t.c", "src", None)


class TestResultCache:
    def test_hit_miss_counters(self):
        cache = ResultCache("t")
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.snapshot() == {"entries": 1, "hits": 1, "misses": 1, "evictions": 0}

    def test_lru_eviction_order(self):
        cache = ResultCache("t", max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh 'a'; 'b' becomes LRU
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_get_or_compute(self):
        cache = ResultCache("t")
        calls = []
        assert cache.get_or_compute("k", lambda: calls.append(1) or 41) == 41
        assert cache.get_or_compute("k", lambda: calls.append(1) or 42) == 41
        assert len(calls) == 1

    def test_bad_max_entries(self):
        with pytest.raises(ValueError):
            ResultCache("t", max_entries=0)

    def test_corrupt_disk_file_is_cold_start(self, tmp_path):
        cache = PipelineCache(cache_dir=tmp_path)
        (tmp_path / "judge.json").write_text("{not json")
        assert cache.load() == 0


class TestCachingCompiler:
    def test_hit_returns_same_result(self, valid_acc_source):
        store = ResultCache("compile")
        compiler = CachingCompiler(Compiler("acc"), store)
        first = compiler.compile(valid_acc_source, "t.c")
        second = compiler.compile(valid_acc_source, "t.c")
        assert first is second
        assert store.hits == 1 and store.misses == 1

    def test_renamed_source_hits(self, valid_acc_source):
        store = ResultCache("compile")
        compiler = CachingCompiler(Compiler("acc"), store)
        first = compiler.compile(valid_acc_source, "t.c")
        second = compiler.compile(valid_acc_source, "u.c")
        assert store.misses == 1 and store.hits == 1
        assert (first.filename, second.filename) == ("t.c", "u.c")
        assert second.unit is first.unit  # the program is shared, not recompiled

    def test_language_fingerprint_and_source_miss(self, valid_acc_source):
        store = ResultCache("compile")
        acc = CachingCompiler(Compiler("acc"), store)
        omp = CachingCompiler(Compiler("omp"), store)
        acc.compile(valid_acc_source, "t.c")
        acc.compile(valid_acc_source, "t.cpp")
        omp.compile(valid_acc_source, "t.c")
        acc.compile(valid_acc_source + "\n", "t.c")
        assert store.misses == 4 and store.hits == 0

    @pytest.mark.parametrize(
        "source",
        [
            pytest.param(None, id="accepted"),
            pytest.param("int main() {\n  int x = ;\n  return y;\n}\n", id="rejected"),
            pytest.param("#warning careful\nint main() { return 0; }\n", id="warned"),
        ],
    )
    def test_relabelled_result_equals_fresh_compile(self, source, valid_acc_source):
        source = source or valid_acc_source
        compiler = CachingCompiler(Compiler("acc"), ResultCache("compile"))
        compiler.compile(source, "first.c")
        relabelled = compiler.compile(source, "second.c")
        fresh = Compiler("acc").compile(source, "second.c")
        assert observable(relabelled) == observable(fresh)
        assert "first.c" not in relabelled.stderr
        if not fresh.ok:
            assert "second.c:2:" in relabelled.stderr


def observable(result) -> dict:
    """Every field of a compile result except the AST and its analysis,
    which a cache hit shares with the first compile of the program."""
    return {
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result)
        if f.name not in ("unit", "info")
    }


def _renders_and_mutants() -> list[TestFile]:
    """One render of every template per (model, language), each followed
    by its mutant for every applicable issue (0-4)."""
    rng = random.Random(5)
    out = []
    for spec in TEMPLATES:
        for model in spec.models:
            for language in spec.languages:
                ctx = TemplateContext(rng=rng, model=model, language=language)
                test = TestFile(
                    f"{model}_{spec.name}{EXTENSIONS[language]}", language, model,
                    spec.render(ctx), spec.name, spec.features,
                )
                out.append(test)
                for issue in range(5):
                    try:
                        out.append(mutator_for_issue(issue).mutate(test, rng))
                    except MutationError:
                        continue
    return out


def test_renamed_hits_equal_fresh_results_corpus_wide():
    """Compiling and running a program as A and then as B through the
    caches gives exactly what a fresh compile and run as B gives."""
    store = PipelineCache()
    compilers = {m: CachingCompiler(Compiler(m), store.compile) for m in ("acc", "omp")}
    executor = CachingExecutor(Executor(), store.execute)
    rejected = executed = 0
    for test in _renders_and_mutants():
        renamed = f"renamed_{test.name}"
        first = compilers[test.model].compile(test.source, test.name)
        hit = compilers[test.model].compile(test.source, renamed)
        fresh = Compiler(test.model).compile(test.source, renamed)
        assert observable(hit) == observable(fresh), test.name
        if not fresh.ok:
            rejected += 1
            continue
        executor.run(first)
        assert executor.run(hit) == Executor().run(fresh), test.name
        executed += 1
    assert store.compile.misses == rejected + executed
    assert store.execute.misses == store.execute.hits == executed
    assert rejected > 100 and executed > 100


class TestCachingExecutor:
    def test_hit_skips_reinterpretation(self, valid_acc_source):
        compiled = Compiler("acc").compile(valid_acc_source, "t.c")
        store = ResultCache("execute")
        executor = CachingExecutor(Executor(step_limit=2_000_000), store)
        first = executor.run(compiled)
        second = executor.run(compiled)
        assert first.returncode == 0
        assert first is second
        assert store.hits == 1

    def test_uncachable_result_executes_without_store(self, valid_acc_source):
        compiled = Compiler("acc").compile(valid_acc_source, "t.c")
        compiled.content_key = ""  # e.g. hand-built results in tests
        store = ResultCache("execute")
        executor = CachingExecutor(Executor(step_limit=2_000_000), store)
        assert executor.run(compiled).returncode == 0
        assert len(store) == 0


class TestCachingJudges:
    def test_direct_judge_hits_for_same_test(self, valid_acc_source, model):
        store = ResultCache("judge")
        judge = CachingDirectJudge(DirectLLMJ(model, "acc"), store)
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        first = judge.judge(test)
        second = judge.judge(test)
        assert first is second
        assert first.says_valid == second.says_valid
        assert store.hits == 1

    def test_agent_judge_key_covers_tool_report(self, valid_acc_source, model):
        from repro.judge.agent import ToolReport

        store = ResultCache("judge")
        judge = CachingAgentJudge(AgentLLMJ(model, "acc", kind="indirect"), store)
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        clean = ToolReport(0, "", "", 0, "", "PASSED", ())
        failed = ToolReport(1, "error: nope", "", None, None, None, ("syntax",))
        judge.judge(test, clean)
        judge.judge(test, failed)
        assert store.misses == 2  # different evidence, different key
        judge.judge(test, clean)
        assert store.hits == 1


class TestPersistence:
    def test_judge_result_json_roundtrip(self, valid_acc_source, model):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        result = DirectLLMJ(model, "acc").judge(test)
        restored = JudgeResult.from_json(json.loads(json.dumps(result.to_json())))
        assert restored == result

    def test_warm_start_from_disk(self, tmp_path, valid_acc_source, model):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")

        first = PipelineCache(cache_dir=tmp_path)
        judge = CachingDirectJudge(DirectLLMJ(model, "acc"), first.judge)
        verdict = judge.judge(test)
        compiled = Compiler("acc").compile(valid_acc_source, "t.c")
        CachingExecutor(Executor(), first.execute).run(compiled)
        first.save()
        assert (tmp_path / "judge.json").exists()
        assert (tmp_path / "execute.json").exists()

        second = PipelineCache(cache_dir=tmp_path)
        assert second.load() == 2
        rejudge = CachingDirectJudge(DirectLLMJ(model, "acc"), second.judge)
        assert rejudge.judge(test) == verdict
        assert second.judge.hits == 1

    def test_compile_namespace_is_memory_only(self, tmp_path, valid_acc_source):
        cache = PipelineCache(cache_dir=tmp_path)
        CachingCompiler(Compiler("acc"), cache.compile).compile(valid_acc_source, "t.c")
        cache.save()
        assert not (tmp_path / "compile.json").exists()


_PLAIN_CODEC = Codec(encode=lambda value: value, decode=lambda value: value)

# Worker for the concurrent-save test: fill a namespace with tagged
# entries, then hammer save_to() so two processes' merge windows
# interleave.  Run as `python -c SCRIPT tag dir rounds`.
_WRITER_SCRIPT = """
import sys
from repro.cache.store import Codec, ResultCache

tag, directory, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResultCache("judge", codec=Codec(lambda v: v, lambda v: v))
for i in range(50):
    cache.put(f"{tag}:{i}", {"tag": tag, "i": i})
for _ in range(rounds):
    assert cache.save_to(directory) is not None
"""


class TestConcurrentProcesses:
    """Shard-safety of the on-disk namespaces (the PR-3 sharding layer
    has worker processes saving to one shared cache directory)."""

    def _writer_env(self):
        import repro

        src_root = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
        return env

    def test_sequential_saves_merge_instead_of_clobbering(self, tmp_path):
        first = ResultCache("judge", codec=_PLAIN_CODEC)
        first.put("a", 1)
        first.save_to(tmp_path)
        second = ResultCache("judge", codec=_PLAIN_CODEC)
        second.put("b", 2)
        second.save_to(tmp_path)

        merged = ResultCache("judge", codec=_PLAIN_CODEC)
        assert merged.load_from(tmp_path) == 2
        assert merged.get("a") == 1 and merged.get("b") == 2

    def test_in_memory_value_wins_on_key_overlap(self, tmp_path):
        stale = ResultCache("judge", codec=_PLAIN_CODEC)
        stale.put("k", "old")
        stale.save_to(tmp_path)
        fresh = ResultCache("judge", codec=_PLAIN_CODEC)
        fresh.put("k", "new")
        fresh.save_to(tmp_path)
        reread = ResultCache("judge", codec=_PLAIN_CODEC)
        reread.load_from(tmp_path)
        assert reread.get("k") == "new"

    def test_merged_file_honours_max_entries(self, tmp_path):
        big = ResultCache("judge", codec=_PLAIN_CODEC)
        for i in range(5):
            big.put(f"old:{i}", i)
        big.save_to(tmp_path)

        bounded = ResultCache("judge", max_entries=3, codec=_PLAIN_CODEC)
        bounded.put("new", 99)
        bounded.save_to(tmp_path)

        payload = json.loads((tmp_path / "judge.json").read_text())
        assert len(payload) == 3  # capped, not 6
        assert payload["new"] == 99  # this process's entries survive

    def test_merge_survives_corrupt_disk_payload(self, tmp_path):
        (tmp_path / "judge.json").write_text("{definitely not json")
        cache = ResultCache("judge", codec=_PLAIN_CODEC)
        cache.put("a", 1)
        assert cache.save_to(tmp_path) is not None
        reread = ResultCache("judge", codec=_PLAIN_CODEC)
        assert reread.load_from(tmp_path) == 1

    def test_two_processes_write_same_namespace_losslessly(self, tmp_path):
        """Two live processes repeatedly saving the same namespace must
        not lose or corrupt entries (flock + merge-on-save + atomic
        rename)."""
        env = self._writer_env()
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, tag, str(tmp_path), "25"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for tag in ("left", "right")
        ]
        for proc in procs:
            _, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()

        merged = ResultCache("judge", codec=_PLAIN_CODEC)
        assert merged.load_from(tmp_path) == 100
        for tag in ("left", "right"):
            for i in range(50):
                assert merged.get(f"{tag}:{i}") == {"tag": tag, "i": i}


class TestPipelineEquivalence:
    def _run(self, files, cache):
        pipeline = ValidationPipeline(
            PipelineConfig(flavor="acc", early_exit=False),
            model=DeepSeekCoderSim(seed=4242),
            cache=cache,
        )
        return pipeline.run(files)

    def test_records_identical_with_and_without_cache(self, acc_probed):
        files = list(acc_probed)[:12]
        uncached = self._run(files, cache=None)
        cache = PipelineCache()
        cold = self._run(files, cache=cache)
        warm = self._run(files, cache=cache)
        assert cache.hits > 0
        for a, b, c in zip(uncached.records, cold.records, warm.records):
            for name, other in (("cold", b), ("warm", c)):
                assert a.test.name == other.test.name, name
                assert a.compile_rc == other.compile_rc, name
                assert a.compile_stderr == other.compile_stderr, name
                assert a.run_rc == other.run_rc, name
                assert a.run_stdout == other.run_stdout, name
                assert a.judge_result == other.judge_result, name
                assert a.pipeline_says_valid == other.pipeline_says_valid, name

    def test_warm_pipeline_skips_judge_generation(self, acc_probed):
        files = list(acc_probed)[:8]
        cache = PipelineCache()
        self._run(files, cache)
        before = cache.judge.hits
        self._run(files, cache)
        assert cache.judge.hits >= before + len(files)
