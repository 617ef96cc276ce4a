"""Self-tests of the benchmark harness on fixed synthetic inputs.

Run with ``python -m pytest perfbench/tests -q``.  No test reads the
wall clock or runs a workload, so none can flake under host load; the
schedule test renders the program's fixed serve-mix population.
"""

import json
from pathlib import Path

import pytest

import run
from harness import highest_percentile, percentile, self_times, tail_percentile
from ledger import Ledger, cache_metrics, campaign_metrics, service_metrics, span_metrics
from loadgen import run_open_loop

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


# -- the percentile rule ------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(10, None), (11, 9), (100, 90), (199, 94), (200, 95), (250, 96), (1000, 99)],
)
def test_highest_percentile_leaves_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected
    if expected is not None:
        assert n * (100 - expected) // 100 >= 10
        assert n * (100 - expected - 1) // 100 < 10


def test_tail_percentile_refuses_what_the_sample_cannot_support():
    values = list(range(1, 201))
    assert tail_percentile(values, 95) == 190
    assert percentile(values, 50) == 100
    with pytest.raises(ValueError):
        tail_percentile(values[:199], 95)


# -- self time from nested spans ----------------------------------------


def span(span_id, parent, start, end, name="compiler.compile", **attrs):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", None, 0.0, 10.0),
        span("a", "root", 1.0, 4.0),   # two children overlapping in time,
        span("b", "root", 3.0, 6.0),   # as from two worker threads
        span("a1", "a", 2.0, 3.0),
        span("late", "b", 5.0, 7.5),   # runs past its parent: clipped
    ]
    selfs = self_times(spans)
    assert selfs == {"root": 5.0, "a": 2.0, "b": 2.0, "a1": 1.0, "late": 2.5}


def test_ledger_sums_self_time_per_layer():
    spans = [
        span("cmd", None, 0.0, 10.0, name="bench.command"),
        span("st", "cmd", 0.0, 4.0, name="stage.compile"),
        span("c", "st", 0.5, 3.5, name="compiler.compile", rc=1),
        span("lex", "c", 1.0, 2.0, name="compiler.lex"),
        span("x", "cmd", 4.0, 9.0, name="runtime.execute", steps=500, timed_out=False),
    ]
    ledger = Ledger(spans)
    assert dict(ledger.layers) == {"pipeline": 1.0, "compiler": 3.0, "runtime": 5.0}
    metrics = span_metrics(ledger)
    assert metrics["compiler.calls"] == 1
    assert metrics["compiler.reject_ratio"] == 1.0
    assert metrics["compiler.lex_s"] == 1.0
    assert metrics["runtime.steps_per_s"] == 100.0
    # the root span is not a layer: attribution counts layer spans only
    assert ledger.attributed(0.0, 10.0) == 0.9


# -- due-time latency under an injected stall ---------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def test_latency_runs_from_the_due_time_through_a_stall():
    clock = FakeClock()

    def send(service_time):
        clock.now += service_time
        return "ok"

    # request 0 stalls the only connection for 0.5 s; 1 and 2 fall due
    # during the stall, 3 after it
    schedule = [(0.0, 0.5), (0.1, 0.01), (0.2, 0.01), (0.6, 0.01)]
    records = run_open_loop(schedule, send, connections=1, clock=clock, sleep=clock.sleep)
    latencies = [round(r["done"] - r["due"], 6) for r in records]
    lags = [round(r["sent"] - r["due"], 6) for r in records]
    assert latencies == [0.5, 0.41, 0.32, 0.01]
    assert lags == [0.0, 0.4, 0.31, 0.0]
    # timed from the send instead, the stall would vanish from 1 and 2
    assert [round(r["done"] - r["sent"], 6) for r in records] == [0.5, 0.01, 0.01, 0.01]


# -- printed metric names equal those in BENCHMARK.json -----------------


def test_end_to_end_names_match_the_spec():
    names = {m["name"] for m in SPEC["end_to_end"]}
    batch = run.Batch()
    batch.walls, batch.rss, batch.attempted = [2.0, 3.0], [50.0, 60.0], 2
    assert set(batch.end_to_end([1.0, 1.5, 2.0])) == names

    records = [{"ok": True, "latency_ms": float(i)} for i in range(1, 201)]
    serve = {"setup_s": 1.0, **run.serve_end_to_end(records, 20.0), "peak_rss_mb": 40.0}
    assert set(serve) == names


def test_per_layer_names_match_the_spec():
    names = {m["name"] for m in SPEC["per_layer"]}
    stats = {"service": {"batching": {}, "workers": {}}}
    produced = set(span_metrics(Ledger([])))
    produced |= set(cache_metrics({})) | set(campaign_metrics({}))
    produced |= set(service_metrics([], stats))
    # filled in by run.py itself
    produced |= {"failed_frac", "cache.disk_bytes", "obs.trace_overhead_ratio",
                 "obs.attributed_frac"}
    assert produced == names


def test_result_line_prints_every_metric_with_its_unit():
    units = run.metric_units(0)
    metrics = {name: 1.5 for name in units}
    line = json.loads(run.result_line(True, 3, 0, metrics, units))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {name: {"value": 1.5, "unit": unit} for name, unit in units.items()}


# -- the serve-mix schedule ---------------------------------------------


def test_schedule_is_seeded_and_keeps_its_shape():
    import inputs

    pool = inputs.population()
    plan = inputs.schedule(7, 200, 4.0, pool)
    assert plan == inputs.schedule(7, 200, 4.0, pool)
    assert plan != inputs.schedule(8, 200, 4.0, pool)

    repeats = [r for r in plan if r["repeat_of"] is not None]
    fresh = [r for r in plan if r["repeat_of"] is None]
    assert len(repeats) == 50
    assert sum(r["flavor"] == "acc" for r in fresh) == round(inputs.ACC_SHARE * len(fresh))
    assert plan[-1]["due"] <= 200 / 4.0
    for r in repeats:
        origin = plan[r["repeat_of"]]
        assert origin["files"] == r["files"]
        assert origin["due"] <= r["due"] - inputs.REPEAT_MIN_AGE
    names = [name for r in fresh for name in r["files"]]
    assert len(names) == len(set(names))  # fresh files are new to every cache
    known = {name for _, name, _ in inputs.variants(pool)}
    assert set(names) <= known  # every file has a reference verdict
    assert all(1 <= len(r["files"]) <= inputs.MAX_FILES for r in plan)
