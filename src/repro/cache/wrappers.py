"""Caching wrappers around the stage workhorses.

Each wrapper exposes the same call surface as the object it wraps
(``compile`` / ``run`` / ``judge``) so stages, the corpus generator and
the experiment runner can use either interchangeably.  The wrapped
computation only runs on a cache miss; because every workhorse here is
a pure function of its content-addressed inputs (seeded model, seeded
environment, deterministic interpreter), a hit is observationally
identical to a recompute.
"""

from __future__ import annotations

from repro.cache.keys import execute_key, judge_key
from repro.cache.store import ResultCache
from repro.compiler.driver import Compiler, CompileResult
from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport
from repro.judge.llmj import AgentLLMJ, DirectLLMJ, JudgeResult
from repro.runtime.executor import ExecutionResult, Executor


class CachingCompiler:
    """Content-addressed cache in front of :class:`Compiler`.

    Keyed on the program (:meth:`Compiler.program_key`: toolchain
    fingerprint, language, source), not the file name, so a renamed
    copy of a program — negative probing's unchanged half, a repeated
    request — is a hit.  A hit under another name comes back
    :meth:`~CompileResult.renamed`: its file name and ``stderr`` are
    exactly those of a fresh compile under the name asked for.

    Values carry live AST objects (the execute stage consumes
    ``CompileResult.unit``), so this namespace is memory-only.

    The fast execution backends (closure, codegen) memoize their
    lowered program on the unit object itself
    (``repro.runtime.compilebody.lower_unit``), so a compile-cache hit
    also carries the lowered program: repeated executions of one unit
    — worker scaling, ablations, Part-Two re-judging — skip both
    parsing *and* lowering.
    """

    def __init__(self, inner: Compiler, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    @property
    def model(self) -> str:
        return self.inner.model

    def compile(self, source: str, filename: str = "<input>") -> CompileResult:
        key = self.inner.program_key(source, filename)
        result = self.cache.get_or_compute(key, lambda: self.inner.compile(source, filename))
        return result.renamed(filename)


class CachingExecutor:
    """Content-addressed cache in front of :class:`Executor`.

    Keyed on the compile result's content key (which pins toolchain,
    language and source, not the file name) plus the step limit;
    results are plain data, so this namespace persists to disk.
    Results without a content key (hand-built in tests) execute
    uncached.  Entries persisted before the key dropped the file name
    are never looked up again: an existing cache directory runs cold
    once.

    The execution *backend* is deliberately NOT part of the key: every
    registered backend (walk, closure, codegen) is observationally
    identical (asserted corpus-wide by
    ``tests/test_backend_equivalence.py``), so results computed under
    any one warm-start the others.
    """

    def __init__(self, inner: Executor, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    def run(self, compiled: CompileResult) -> ExecutionResult:
        if not compiled.content_key:
            return self.inner.run(compiled)
        key = execute_key(compiled.content_key, self.inner.step_limit)
        return self.cache.get_or_compute(key, lambda: self.inner.run(compiled))


def _report_parts(report: ToolReport) -> list:
    return [
        report.compile_rc,
        report.compile_stderr,
        report.compile_stdout,
        report.run_rc,
        report.run_stderr,
        report.run_stdout,
        list(report.diagnostic_codes),
    ]


class CachingAgentJudge:
    """Content-addressed cache in front of :class:`AgentLLMJ`.

    The key covers everything the prompt is built from (source, tool
    observables) plus the judge/model fingerprint, so a hit skips
    prompt construction and generation entirely.
    """

    def __init__(self, inner: AgentLLMJ, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    @property
    def mode(self) -> str:
        return self.inner.mode

    def judge(self, test: TestFile, report: ToolReport | None = None) -> JudgeResult:
        if report is None:
            report = self.inner.tools.collect(test)
        key = judge_key(
            self.inner.fingerprint(), test.name, test.source, _report_parts(report)
        )
        return self.cache.get_or_compute(key, lambda: self.inner.judge(test, report))


class CachingDirectJudge:
    """Content-addressed cache in front of :class:`DirectLLMJ`."""

    def __init__(self, inner: DirectLLMJ, cache: ResultCache):
        self.inner = inner
        self.cache = cache

    @property
    def mode(self) -> str:
        return self.inner.mode

    def judge(self, test: TestFile) -> JudgeResult:
        key = judge_key(self.inner.fingerprint(), test.name, test.source, None)
        return self.cache.get_or_compute(key, lambda: self.inner.judge(test))
