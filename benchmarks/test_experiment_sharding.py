"""EXP-SHARD — process sharding of the experiment matrix.

The multi-table sweep (every table and figure) decomposes into four
independent (part × flavor) cells; `repro.experiments.sharding` fans
them over worker processes that share execute/judge results through a
lock-protected on-disk cache.  This bench asserts the two properties
the layer promises:

* **determinism** — the sharded sweep's tables and figures are
  byte-identical to the sequential runner's, always;
* **speedup** — ≥ 2x wall-clock on the sweep when the host has ≥ 4
  CPUs (the four cells genuinely overlap).  Hosts with 2-3 CPUs gate a
  conservative ≥ 1.2x; single-CPU hosts can't overlap processes at
  all, so only determinism is gated there (the artifact still records
  the measured ratio).

Timing is one-shot (cold sequential vs cold sharded), so this times
explicitly rather than using the repeating ``benchmark`` fixture.  The
sweeps run once, in a module fixture; the identity test judges them
first, so a noisy host that fails the wall-clock gate cannot hide a
byte-identity break.
"""

import time

import pytest

from repro.experiments import ExperimentConfig, Experiments
from repro.experiments.sharding import usable_cpus


def _sweep(jobs: int):
    exp = Experiments(ExperimentConfig(scale="tiny", jobs=jobs))
    t0 = time.perf_counter()
    tables = [t.text for t in exp.all_tables()]
    figures = [f.text for f in exp.all_figures()]
    return tables, figures, time.perf_counter() - t0, exp


@pytest.fixture(scope="module")
def sweeps(emit_artifact):
    cpus = usable_cpus()
    jobs = min(4, cpus) if cpus > 1 else 2
    target = 2.0 if cpus >= 4 else (1.2 if cpus >= 2 else 0.0)

    seq_tables, seq_figures, seq_seconds, _ = _sweep(jobs=1)
    shard_tables, shard_figures, shard_seconds, exp = _sweep(jobs=jobs)
    if target and seq_seconds / shard_seconds < target:
        # one retry, keeping the faster sharded run: a noisy neighbor
        # on a shared CI host shouldn't fail a structural property
        _, _, retry_seconds, _ = _sweep(jobs=jobs)
        shard_seconds = min(shard_seconds, retry_seconds)

    speedup = seq_seconds / shard_seconds if shard_seconds > 0 else float("inf")
    gate = "2.0x" if cpus >= 4 else ("1.2x" if cpus >= 2 else "none (1 CPU)")
    identical = shard_tables == seq_tables and shard_figures == seq_figures
    emit_artifact(
        "experiment_sharding",
        "\n".join(
            [
                "Process-sharded multi-table sweep (tiny scale, 9 tables + 4 figures):",
                f"  usable CPUs:          {cpus}",
                f"  worker processes:     {jobs}",
                f"  sequential sweep:     {seq_seconds:7.2f} s",
                f"  sharded sweep:        {shard_seconds:7.2f} s",
                f"  speedup:              {speedup:7.2f}x",
                f"  speedup gate:         {gate}",
                f"  byte-identical:       {identical}",
            ]
        ),
    )
    return {
        "cpus": cpus,
        "sequential": (seq_tables, seq_figures, seq_seconds),
        "sharded": (shard_tables, shard_figures, shard_seconds),
        "speedup": speedup,
        "exp": exp,
    }


def test_sharded_sweep_identical(sweeps):
    seq_tables, seq_figures, _ = sweeps["sequential"]
    shard_tables, shard_figures, _ = sweeps["sharded"]
    # determinism gates unconditionally
    assert shard_tables == seq_tables
    assert shard_figures == seq_figures

    # per-shard stats made it back and were aggregated
    stats = sweeps["exp"].shard_stats
    assert stats is not None
    assert stats.files_total > 0
    assert stats.judge.processed > 0


def test_sharded_sweep_faster(sweeps):
    cpus, speedup = sweeps["cpus"], sweeps["speedup"]
    seq_seconds = sweeps["sequential"][2]
    shard_seconds = sweeps["sharded"][2]
    # the speedup gate needs real CPUs to overlap processes on
    if cpus >= 4:
        assert speedup >= 2.0, (
            f"sharded sweep only {speedup:.2f}x faster on {cpus} CPUs "
            f"(sequential {seq_seconds:.2f}s, sharded {shard_seconds:.2f}s)"
        )
    elif cpus >= 2:
        assert speedup >= 1.2, (
            f"sharded sweep only {speedup:.2f}x faster on {cpus} CPUs "
            f"(sequential {seq_seconds:.2f}s, sharded {shard_seconds:.2f}s)"
        )


def test_targeted_artifact_shards_only_needed_cells():
    """`--jobs` on a single artifact must not compute the whole matrix."""
    exp = Experiments(ExperimentConfig(scale="tiny", jobs=2))
    exp.prefetch(artifacts=["table4"])
    assert set(exp._part2_runs) == {"acc:part2"}
    assert not exp._part1_reports

    sequential = Experiments(ExperimentConfig(scale="tiny")).table4().text
    assert exp.table4().text == sequential
