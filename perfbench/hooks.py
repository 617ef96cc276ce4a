"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each layer in a span
on the program's ambient tracer (:mod:`repro.obs.trace`), so the span
log keeps the ``repro.obs`` JSON-lines format and ``llm4vv trace
summarize`` reads it.  Counts ride on span attributes, recorded where
the work happens.  Nothing under ``src/`` changes: the wrappers are set
on the classes and modules at run time, before the command starts.
Under the daemon's fork-started worker pool the workers inherit the
wrappers, and their spans travel home with each batch.
"""

from __future__ import annotations

import functools
import sys

from repro.obs import trace

#: every ResultCache built in this process, for hit/miss totals at exit
_CACHES: list = []


def _wrap(owner, attr: str, span_name: str, annotate=None) -> None:
    original = owner.__dict__.get(attr)
    if original is None:
        print(f"perfbench: no {owner.__name__}.{attr}; {span_name} not traced",
              file=sys.stderr)
        return

    @functools.wraps(original)
    def traced(*args, **kwargs):
        with trace.span(span_name) as handle:
            result = original(*args, **kwargs)
            if annotate is not None:
                handle.attrs.update(annotate(args, result))
            return result

    setattr(owner, attr, traced)


def _register_cache(owner) -> None:
    original = owner.__init__

    @functools.wraps(original)
    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        _CACHES.append(self)

    owner.__init__ = init


def cache_counts() -> dict:
    """Hits and misses per cache namespace, over every cache built here."""
    counts: dict[str, dict[str, int]] = {}
    for cache in _CACHES:
        entry = counts.setdefault(cache.name, {"hits": 0, "misses": 0})
        entry["hits"] += cache.hits
        entry["misses"] += cache.misses
    return counts


def install() -> None:
    """Wrap every layer's entry points (idempotence is not needed: one
    call per process, before the command runs)."""
    from repro.cache.bundle import PipelineCache
    from repro.cache.store import ResultCache
    from repro.compiler.cparser import Parser
    from repro.compiler.driver import Compiler
    from repro.compiler.fortran import FortranFrontEnd
    from repro.compiler.lexer import Lexer
    from repro.compiler.preprocessor import Preprocessor
    from repro.compiler.semantic import SemanticAnalyzer
    from repro.corpus.generator import CorpusGenerator
    from repro.experiments import runner
    from repro.fuzz.campaign import Campaign
    from repro.fuzz.differential import DifferentialRunner
    from repro.fuzz.stages import MutateStage, TriageStage
    from repro.judge.llmj import AgentLLMJ, DirectLLMJ
    from repro.llm.model import DeepSeekCoderSim
    from repro.pipeline.engine import ValidationPipeline
    from repro.probing.prober import NegativeProber
    from repro.runtime.codegen import CodegenProgram
    from repro.runtime.compilebody import LoweredProgram
    from repro.runtime.executor import Executor

    # corpus and probing
    _wrap(CorpusGenerator, "generate", "corpus.generate")
    _wrap(CorpusGenerator, "_check", "corpus.check",
          lambda args, kept: {"kept": bool(kept)})
    _wrap(NegativeProber, "probe", "probing.probe")

    # experiments: the Part One / Part Two cells, the LLMJ-2 sweep and
    # rendering (the runner imports these helpers by name, so the
    # wrappers replace the runner module's own references)
    _wrap(runner.Experiments, "part1_report", "experiments.part1")
    _wrap(runner.Experiments, "part2_run", "experiments.part2")
    _wrap(runner.Experiments, "_figure", "experiments.render")
    _wrap(runner, "run_stage", "experiments.llmj2_sweep")
    for name in ("render_issue_table", "render_comparison_table", "render_overall_table"):
        _wrap(runner, name, "experiments.render")

    # compiler front-end and its phases
    _wrap(Compiler, "compile", "compiler.compile",
          lambda args, res: {"rc": res.returncode})
    _wrap(Lexer, "tokenize", "compiler.lex")
    _wrap(Preprocessor, "run", "compiler.preprocess")
    _wrap(Parser, "parse_translation_unit", "compiler.parse")
    _wrap(FortranFrontEnd, "parse", "compiler.parse")
    _wrap(SemanticAnalyzer, "analyze", "compiler.semantic")

    # runtime: lowering (closure and codegen) and program runs
    _wrap(LoweredProgram, "__init__", "runtime.lower")
    _wrap(CodegenProgram, "__init__", "runtime.lower")
    _wrap(Executor, "run", "runtime.execute",
          lambda args, res: {"steps": res.steps, "timed_out": bool(res.timed_out)})

    # judge and the simulated model behind it
    def judged(args, res):
        return {
            "attempts": res.attempts,
            "simulated_s": res.simulated_seconds,
            "prompt_tokens": res.prompt_tokens,
            "completion_tokens": res.completion_tokens,
        }

    _wrap(DirectLLMJ, "judge", "judge.judge", judged)
    _wrap(AgentLLMJ, "judge", "judge.judge", judged)
    _wrap(DeepSeekCoderSim, "generate", "llm.generate")

    # cache persistence and per-namespace counters
    _wrap(PipelineCache, "load", "cache.load")
    _wrap(PipelineCache, "save", "cache.save")
    _register_cache(ResultCache)

    # the validation pipeline (its stage spans come from the program)
    def stage_stats(args, res):
        stages = res.stats.snapshot()["stages"]
        out = {}
        for stage in ("compile", "execute", "judge"):
            snap = stages.get(stage, {})
            out[f"{stage}_busy_s"] = snap.get("busy_seconds", 0.0)
            out[f"{stage}_skipped"] = snap.get("skipped", 0)
        return out

    _wrap(ValidationPipeline, "run", "pipeline.run", stage_stats)

    # fuzzing: the campaign, mutation, the differential oracle, triage
    _wrap(Campaign, "run", "fuzz.campaign")
    _wrap(MutateStage, "process", "fuzz.mutate")
    _wrap(DifferentialRunner, "run", "fuzz.differential",
          lambda args, out: {"compiled": bool(out.compiled)})
    _wrap(TriageStage, "process", "fuzz.triage")
