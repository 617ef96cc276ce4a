"""Pure helpers of the benchmark: statistics, span self time, open-loop
latency accounting and the result line.

Nothing here imports the program under test, so the harness self-tests
(``perfbench/tests``) run on fixed synthetic inputs without it.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

#: a percentile is only reported when at least this many samples lie
#: beyond it; with fewer, one slow sample decides the figure
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def highest_percentile(n: int, beyond: int = MIN_BEYOND) -> int | None:
    """The highest whole percentile with at least ``beyond`` of ``n``
    samples above it, or None when ``n`` is too small for any."""
    for p in range(99, 0, -1):
        if n * (100 - p) // 100 >= beyond:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values, wanted: int) -> float:
    """``percentile(values, wanted)``, refusing a percentile the sample
    count cannot support under the :data:`MIN_BEYOND` rule."""
    values = list(values)
    supported = highest_percentile(len(values))
    if supported is None or supported < wanted:
        raise ValueError(
            f"p{wanted} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples support at most p{supported}"
        )
    return percentile(values, wanted)


# ----------------------------------------------------------------------
# spans: self time, layers, coverage
# ----------------------------------------------------------------------


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Children may run on other threads and overlap each other; only the
    union of their intervals (clipped to the parent) is subtracted, so
    self times of one tree never add up to more than its root's wall.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent is not None:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    out = {}
    for span in spans:
        start, end = span["start"], span["end"]
        clipped = [
            (max(start, s), min(end, e))
            for s, e in children.get(span["span_id"], ())
        ]
        out[span["span_id"]] = max(0.0, (end - start) - union_length(clipped))
    return out


#: span-name prefix -> ledger layer, for spans the program records
#: itself (scheduler and stage spans, the daemon's request path)
PROGRAM_SPAN_LAYERS = {
    "scheduler": "pipeline",
    "stage": "pipeline",
    "service": "service",
    "pool": "service",
    "worker": "service",
}


def layer_of(name: str) -> str:
    prefix = name.split(".", 1)[0]
    return PROGRAM_SPAN_LAYERS.get(prefix, prefix)


def coverage(spans, start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of ``spans``."""
    if end <= start:
        return 0.0
    clipped = [
        (max(start, s["start"]), min(end, s["end"])) for s in spans
    ]
    return union_length(clipped) / (end - start)


# ----------------------------------------------------------------------
# open-loop latency
# ----------------------------------------------------------------------


def due_latencies(records) -> tuple[list[float], list[float]]:
    """Per-request latency and generator lag from open-loop records.

    Each record holds ``due`` (when the schedule said to send), ``sent``
    and ``done`` on one clock.  Latency runs from ``due``, not ``sent``:
    a request that waited for a free connection, or behind a stall of
    the generator, carries that wait in its latency.  Lag is how late
    the generator sent it.
    """
    latencies = [r["done"] - r["due"] for r in records]
    lags = [max(0.0, r["sent"] - r["due"]) for r in records]
    return latencies, lags


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The benchmark's last stdout line: one JSON object."""
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": units[name]}
                for name in units
            },
        }
    )


def verdict_digest(verdict: dict) -> str:
    """Content digest of one encoded verdict (byte identity, compactly)."""
    return hashlib.sha256(json.dumps(verdict, sort_keys=True).encode()).hexdigest()
