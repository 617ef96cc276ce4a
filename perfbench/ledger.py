"""Per-layer metrics from one traced run.

A layer's time is its self time: each span's duration minus the part
its child spans cover, summed over the layer's spans.  Counts come from
span attributes, so a count and the time it explains are recorded at
the same boundary.  Everything here is a pure function of its inputs.
"""

from __future__ import annotations

from collections import defaultdict

from harness import coverage, layer_of, percentile, self_times

CACHE_NAMESPACES = ("compile", "execute", "judge", "fuzz")
STAGES = ("compile", "execute", "judge")

#: spans the benchmark itself opens around a whole command; they are
#: not a layer and do not count towards attribution
ROOT_PREFIX = "bench."


class Ledger:
    """Index of one span log: self time per span name and per layer."""

    def __init__(self, spans):
        self.spans = [s for s in spans if not s["name"].startswith(ROOT_PREFIX)]
        selfs = self_times(spans)
        self.by_name: dict[str, list] = defaultdict(list)
        self.self_by_name: dict[str, float] = defaultdict(float)
        self.layers: dict[str, float] = defaultdict(float)
        for span in self.spans:
            seconds = selfs[span["span_id"]]
            self.by_name[span["name"]].append(span)
            self.self_by_name[span["name"]] += seconds
            self.layers[layer_of(span["name"])] += seconds

    def self_s(self, *names: str) -> float:
        return sum(self.self_by_name.get(name, 0.0) for name in names)

    def count(self, name: str, predicate=None) -> int:
        spans = self.by_name.get(name, ())
        if predicate is None:
            return len(spans)
        return sum(1 for span in spans if predicate(span.get("attrs") or {}))

    def attr_sum(self, name: str, key: str) -> float:
        return sum((span.get("attrs") or {}).get(key, 0) for span in self.by_name.get(name, ()))

    def wall_s(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.by_name.get(name, ()))

    def attributed(self, start: float, end: float) -> float:
        return coverage(self.spans, start, end)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_metrics(ledger: Ledger) -> dict[str, float]:
    """Every per-layer metric a span log alone determines."""
    m: dict[str, float] = {}
    m["startup.import_s"] = ledger.self_s("startup.import")

    m["corpus.generate_s"] = ledger.layers.get("corpus", 0.0)
    m["corpus.accept_ratio"] = ratio(
        ledger.count("corpus.check", lambda a: a.get("kept")), ledger.count("corpus.check")
    )

    # the experiment phases are reported inclusive of the layers they
    # call: they split a sweep's wall time by phase
    for part in ("part1", "part2", "llmj2_sweep", "render"):
        m[f"experiments.{part}_s"] = ledger.wall_s(f"experiments.{part}")

    calls = ledger.count("compiler.compile")
    m["compiler.calls"] = calls
    m["compiler.busy_s"] = ledger.layers.get("compiler", 0.0)
    for phase in ("lex", "preprocess", "parse", "semantic"):
        m[f"compiler.{phase}_s"] = ledger.self_s(f"compiler.{phase}")
    m["compiler.reject_ratio"] = ratio(
        ledger.count("compiler.compile", lambda a: a.get("rc", 0) != 0), calls
    )

    m["runtime.calls"] = ledger.count("runtime.execute")
    m["runtime.busy_s"] = ledger.layers.get("runtime", 0.0)
    m["runtime.lower_s"] = ledger.self_s("runtime.lower")
    steps = ledger.attr_sum("runtime.execute", "steps")
    m["runtime.steps"] = steps
    m["runtime.steps_per_s"] = ratio(steps, ledger.self_s("runtime.execute"))
    m["runtime.timeouts"] = ledger.attr_sum("runtime.execute", "timed_out")

    judge_calls = ledger.count("judge.judge")
    m["judge.calls"] = judge_calls
    m["judge.busy_s"] = ledger.layers.get("judge", 0.0)
    m["judge.attempts_per_call"] = ratio(ledger.attr_sum("judge.judge", "attempts"), judge_calls)
    m["judge.simulated_s"] = ledger.attr_sum("judge.judge", "simulated_s")
    m["llm.generate_s"] = ledger.layers.get("llm", 0.0)
    m["llm.prompt_tokens"] = ledger.attr_sum("judge.judge", "prompt_tokens")
    m["llm.completion_tokens"] = ledger.attr_sum("judge.judge", "completion_tokens")

    m["cache.load_s"] = ledger.self_s("cache.load")
    m["cache.save_s"] = ledger.self_s("cache.save")

    run_s = ledger.wall_s("pipeline.run")
    m["pipeline.run_s"] = run_s
    busy = 0.0
    for stage in STAGES:
        stage_busy = ledger.attr_sum("pipeline.run", f"{stage}_busy_s")
        busy += stage_busy
        m[f"pipeline.{stage}.busy_s"] = stage_busy
        m[f"pipeline.{stage}.skipped"] = ledger.attr_sum("pipeline.run", f"{stage}_skipped")
    m["pipeline.overlap"] = ratio(busy, run_s)

    m["fuzz.differential_s"] = ledger.self_s("fuzz.differential")
    return m


def cache_metrics(counts: dict) -> dict[str, float]:
    """``cache.<ns>.hits/misses/hit_ratio`` from per-namespace counts."""
    m = {}
    for ns in CACHE_NAMESPACES:
        entry = counts.get(ns) or {}
        hits, misses = entry.get("hits", 0), entry.get("misses", 0)
        m[f"cache.{ns}.hits"] = hits
        m[f"cache.{ns}.misses"] = misses
        m[f"cache.{ns}.hit_ratio"] = ratio(hits, hits + misses)
    return m


def campaign_metrics(stats: dict) -> dict[str, float]:
    """``fuzz.*`` counts from a campaign manifest's ``stats`` block."""
    applied = stats.get("applied", 0)
    curve = stats.get("coverage_curve") or [0]
    return {
        "fuzz.candidates": stats.get("scheduled", 0),
        "fuzz.compiled_ratio": ratio(applied - stats.get("compile_failures", 0), applied),
        "fuzz.accept_ratio": ratio(stats.get("accepted", 0), applied),
        "fuzz.executions": stats.get("executions", 0),
        "fuzz.triage_calls": stats.get("judge_calls", 0),
        "fuzz.frontier_keys": curve[-1],
        "fuzz.discrepancies": stats.get("discrepancies", 0),
    }


def service_metrics(records, stats: dict) -> dict[str, float]:
    """``service.*`` from open-loop records and the daemon's ``/v1/stats``.

    A request's wait is its due-time latency minus the pipeline time the
    daemon reports for its batch (``timings.wall_ms``): queueing in the
    generator, the batch window and the worker hand-off.
    """
    answered = [r for r in records if r["verdicts"] is not None]
    waits = [r["latency_ms"] - r["wall_ms"] for r in answered]
    pipeline_ms = [r["wall_ms"] for r in answered]
    batching = stats["service"]["batching"]
    pool = stats["service"]["workers"]
    lags = [r["lag_ms"] for r in records]
    return {
        "service.wait_ms_p50": percentile(waits, 50),
        "service.wait_ms_p95": percentile(waits, 95),
        "service.pipeline_ms_p50": percentile(pipeline_ms, 50),
        "service.batch_size_mean": ratio(sum(r["batch_size"] for r in answered), len(answered)),
        "service.latency_cutoffs": batching.get("latency_cutoffs", 0),
        "service.rejected": sum(1 for r in records if r["status"] == 429),
        "service.pool.dispatched": pool.get("batches_dispatched", 0),
        "service.pool.retries": pool.get("retries", 0),
        "service.generator_lag_ms": percentile(lags, 95),
    }
