"""Corpus generation: render templates into a validated test population.

:class:`CorpusGenerator` cycles the template registry with seeded
parameter jitter and (by default) *validates* every rendered file by
compiling and executing it — a generated "valid" test that does not
compile clean and exit 0 would poison the negative-probing ground
truth, so validation failures raise instead of being skipped silently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from repro.compiler.driver import Compiler
from repro.corpus.templates import TemplateContext, TemplateSpec, templates_for
from repro.runtime.executor import Executor

EXTENSIONS = {"c": ".c", "cpp": ".cpp", "f90": ".f90"}


@dataclass(frozen=True)
class TestFile:
    """One test in the corpus (and, after probing, its mutants)."""

    __test__ = False  # not a pytest test class despite the name

    name: str
    language: str  # 'c' | 'cpp' | 'f90'
    model: str  # 'acc' | 'omp'
    source: str
    template: str
    features: tuple[str, ...] = ()
    issue: int | None = None  # negative-probing issue id (0-4), None/5 = unchanged

    @property
    def filename(self) -> str:
        return self.name

    @property
    def is_valid(self) -> bool:
        """Ground truth per the paper's system-of-verification."""
        return self.issue is None or self.issue == 5

    def with_issue(self, issue: int, source: str | None = None) -> "TestFile":
        return replace(
            self,
            issue=issue,
            source=source if source is not None else self.source,
            name=_issue_name(self.name, issue),
        )


def _issue_name(name: str, issue: int) -> str:
    stem, dot, ext = name.rpartition(".")
    if not dot:
        return f"{name}__issue{issue}"
    return f"{stem}__issue{issue}.{ext}"


class CorpusValidationError(Exception):
    """A rendered template failed its own compile/run validation."""


@dataclass
class CorpusGenerator:
    """Seeded generator over the template registry.

    ``cache`` (a :class:`repro.cache.bundle.PipelineCache`) makes the
    per-file validation compile/run content-addressed: regenerating the
    same corpus — the common case across experiment instances — reuses
    every check result instead of re-interpreting each program.
    """

    seed: int = 1234
    validate: bool = True
    step_limit: int = 3_000_000
    openmp_max_version: float = 4.5
    execution_backend: str = "closure"
    cache: object | None = None
    _validation_failures: list[str] = field(default_factory=list)

    def generate(
        self,
        model: str,
        count: int,
        languages: tuple[str, ...] = ("c", "cpp"),
    ) -> list[TestFile]:
        """Render ``count`` validated test files for one model."""
        rng = random.Random(f"{self.seed}:{model}:{','.join(languages)}")
        pool: list[tuple[str, TemplateSpec]] = []
        for language in languages:
            for spec in templates_for(model, language):
                pool.append((language, spec))
        if not pool:
            raise ValueError(f"no templates for model={model!r} languages={languages!r}")
        rng.shuffle(pool)
        compiler = Compiler(model=model, openmp_max_version=self.openmp_max_version)
        executor = Executor(step_limit=self.step_limit, backend=self.execution_backend)
        if self.cache is not None:
            from repro.cache.wrappers import CachingCompiler, CachingExecutor

            compiler = CachingCompiler(compiler, self.cache.compile)
            executor = CachingExecutor(executor, self.cache.execute)
        out: list[TestFile] = []
        attempts = 0
        idx = 0
        while len(out) < count:
            language, spec = pool[idx % len(pool)]
            idx += 1
            attempts += 1
            if attempts > count * 4 + 32:
                raise CorpusValidationError(
                    f"too many validation failures generating {model} corpus: "
                    f"{self._validation_failures[:5]}"
                )
            ctx = TemplateContext(rng=rng, model=model, language=language)
            source = spec.render(ctx)
            name = f"{model}_{spec.name}_{len(out):04d}{EXTENSIONS[language]}"
            test = TestFile(
                name=name,
                language=language,
                model=model,
                source=source,
                template=spec.name,
                features=spec.features,
            )
            if self.validate and not self._check(test, compiler, executor):
                continue
            out.append(test)
        return out

    def _check(self, test: TestFile, compiler: Compiler, executor: Executor) -> bool:
        compiled = compiler.compile(test.source, test.name)
        if not compiled.ok:
            failure = f"{test.name}: compile rc={compiled.returncode}"
            if compiled.stderr:
                failure += ": " + compiled.stderr.splitlines()[0]
            self._validation_failures.append(failure)
            return False
        result = executor.run(compiled)
        if not result.ok:
            self._validation_failures.append(
                f"{test.name}: run rc={result.returncode}: {result.stderr.strip()[:80]}"
            )
            return False
        return True

    @property
    def validation_failures(self) -> list[str]:
        return list(self._validation_failures)
