"""The LLM4VV benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``perfbench/README.md`` for why each was chosen, and why
``sweep-warm`` is not in ``BENCHMARK.json``):

* ``sweep-cold``    ``experiment all --scale tiny`` on an empty cache dir;
* ``serve-mix``     open-loop ``POST /v1/validate`` traffic against
                    ``llm4vv serve --workers 2``;
* ``fuzz-campaign`` ``fuzz run`` with the default campaign config;
* ``sweep-warm``    the sweep on the cache dir set-up filled.

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off.  With ``--trace 1`` it runs the workload once untraced and once
with the layer spans of :mod:`hooks`, and reports the per-layer
metrics; the span log stays in ``perfbench/traces/WORKLOAD.jsonl``.
Every run checks the program's outputs and appends its figures to
``perfbench/history.jsonl``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any output was wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from harness import due_latencies, median, result_line, tail_percentile, verdict_digest
from ledger import Ledger, cache_metrics, campaign_metrics, service_metrics, span_metrics
from loadgen import http_get, http_validate, run_open_loop

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PY = sys.executable

#: the paper's end product at its fixed configuration.  The experiment
#: seed stays at the CLI default: the population it draws changes the
#: cold sweep's cost up to twofold (8.4-16.7 s across four seeds), which
#: would bury run-to-run differences.
SWEEP_ARGS = ["-m", "repro.cli", "experiment", "all", "--scale", "tiny"]
#: ``fuzz run`` with the default CampaignConfig and its fixed seed
FUZZ_ARGS = ["-m", "repro.cli", "fuzz", "run"]
SERVE_ARGS = ["-m", "repro.cli", "serve", "--port", "0", "--workers", "2"]

#: set-ups per run; set-up time is their median
SETUP_REPEATS = 3
#: timed passes per run, at least (more while ``--seconds`` lasts)
MIN_PASSES = 3
#: serve-mix: Poisson arrival rate (requests/s), the latency limit a
#: request must meet to count towards goodput, and the request floor
#: that leaves ten samples beyond p95
SERVE_RATE = 4.0
LATENCY_LIMIT_S = 1.0
MIN_REQUESTS = 200
#: no subprocess of a run may outlive this (seconds)
PROCESS_TIMEOUT = 150.0

class Failure(Exception):
    """The program misbehaved in a way no metric can describe."""


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Spawned:
    """One finished program run: exit code, wall time, peak RSS, output."""

    def __init__(self, argv: list[str], work: Path, tag: str, env: dict | None = None):
        out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
        env = env or program_env()
        with open(out_path, "w") as out, open(err_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([PY, *argv], stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(PROCESS_TIMEOUT, proc.kill)
            timer.start()
            try:
                # wait4, not Popen.wait: the rusage of this one child
                # carries its peak resident set
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - t0
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()

    def require_ok(self, what: str) -> "Spawned":
        if self.rc != 0:
            tail = "\n".join(self.stderr.splitlines()[-15:])
            raise Failure(f"{what} exited {self.rc}:\n{tail}")
        return self


def fresh_dir(work: Path, name: str) -> Path:
    path = work / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def import_probe(work: Path, modules: str, tag: str) -> float:
    """Start-up time of a program process that imports ``modules``."""
    return Spawned(["-c", f"import {modules}"], work, tag).require_ok("import probe").wall


def traced_argv(span_log: Path, argv: list[str]) -> list[str]:
    """Run ``python -m repro.cli ...`` through :mod:`traced` instead."""
    return [str(BENCH / "traced.py"), str(span_log), "--", *argv[2:]]


def traced_env(spawned_at: float) -> dict:
    env = program_env()
    env["PERFBENCH_SPAWNED_AT"] = repr(spawned_at)
    return env


def span_log_format():
    """The program's span-log reader and writer (:mod:`repro.obs.export`)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.obs import export

    return export


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def goldens() -> dict:
    return json.loads((BENCH / "goldens.json").read_text())


def artifact_digest(stdout: str) -> str:
    """Digest of the tables+figures text (cache summary lines excluded:
    they differ between a cold and a warm run by design)."""
    kept = [line for line in stdout.splitlines() if not line.startswith("cache:")]
    return hashlib.sha256("\n".join(kept).encode()).hexdigest()


# ----------------------------------------------------------------------
# batch workloads: sweeps and the fuzz campaign
# ----------------------------------------------------------------------


class Batch:
    """Timed passes of one command, each checked, with their walls."""

    def __init__(self):
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.correct_passes = 0
        self.attempted = 0
        self.failed = 0

    def count(self, run: Spawned, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong output (rc {run.rc}); stderr tail:\n"
                  + "\n".join(run.stderr.splitlines()[-10:]), file=sys.stderr)

    def record(self, run: Spawned, ok: bool) -> None:
        self.count(run, ok)
        self.correct_passes += ok
        self.walls.append(run.wall)
        self.rss.append(run.rss_mb)

    def end_to_end(self, setups: list[float]) -> dict:
        # a pass is one operation; fewer than 200 of them support no
        # tail percentile under the ten-beyond rule, so the tail figure
        # of a batch workload is its slowest pass
        return {
            "setup_s": median(setups),
            "wall_s": median(self.walls),
            "latency_p50_ms": median(self.walls) * 1000.0,
            "latency_p95_ms": max(self.walls) * 1000.0,
            "goodput_rps": self.correct_passes / sum(self.walls),
            "peak_rss_mb": max(self.rss),
        }


class SweepCold:
    """``experiment all`` on a fresh cache dir per pass."""

    def __init__(self, work: Path):
        self.work = work

    def setup(self, i: int, batch: Batch) -> float:
        return import_probe(self.work, "repro.cli, repro.experiments.runner", f"probe{i}")

    def command(self, i: int) -> tuple[list[str], Path]:
        cache = fresh_dir(self.work, f"cache{i}")
        return SWEEP_ARGS + ["--cache-dir", str(cache)], cache

    def check(self, run: Spawned, i: int) -> tuple[bool, dict]:
        ok = run.rc == 0 and artifact_digest(run.stdout) == goldens()["sweep_artifacts_sha256"]
        return ok, {}


class SweepWarm(SweepCold):
    """``experiment all`` on cache dirs that a cold sweep filled in set-up."""

    def __init__(self, work: Path):
        super().__init__(work)
        self.caches: list[Path] = []

    def setup(self, i: int, batch: Batch) -> float:
        t0 = time.perf_counter()
        cache = fresh_dir(self.work, f"warm{i}")
        run = Spawned(SWEEP_ARGS + ["--cache-dir", str(cache)], self.work, f"fill{i}")
        batch.count(run, self.check(run, i)[0])
        self.caches.append(cache)
        return time.perf_counter() - t0

    def command(self, i: int) -> tuple[list[str], Path]:
        cache = self.caches[i % len(self.caches)]
        return SWEEP_ARGS + ["--cache-dir", str(cache)], cache


class FuzzCampaign(SweepCold):
    """``fuzz run`` (default config) into a fresh output and cache dir."""

    def setup(self, i: int, batch: Batch) -> float:
        return import_probe(self.work, "repro.cli, repro.fuzz.campaign", f"probe{i}")

    def command(self, i: int) -> tuple[list[str], Path]:
        cache = fresh_dir(self.work, f"cache{i}")
        out = self.work / f"campaign{i}"
        return FUZZ_ARGS + ["--out", str(out), "--cache-dir", str(cache)], cache

    def check(self, run: Spawned, i: int) -> tuple[bool, dict]:
        if run.rc != 0:
            return False, {}
        manifest = json.loads((self.work / f"campaign{i}" / "campaign.json").read_text())
        stats = manifest["stats"]
        ok = manifest["digest"] == goldens()["fuzz_campaign_digest"] and stats["discrepancies"] == 0
        return ok, stats


def run_batch(args, work: Path, workload) -> dict:
    batch = Batch()
    setups = [workload.setup(i, batch) for i in range(1 if args.trace else SETUP_REPEATS)]
    if args.trace:
        return trace_batch(work, batch, workload)
    start = time.perf_counter()
    while len(batch.walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        i = len(batch.walls)
        argv, _ = workload.command(i)
        run = Spawned(argv, work, f"pass{i}")
        batch.record(run, workload.check(run, i)[0])
    return result(batch.attempted, batch.failed, batch.end_to_end(setups), {"passes": len(batch.walls)})


def trace_batch(work: Path, batch: Batch, workload) -> dict:
    """One untraced and one traced pass of a batch workload -> per-layer."""
    argv, _ = workload.command(0)
    untraced = Spawned(argv, work, "pass0")
    batch.record(untraced, workload.check(untraced, 0)[0])

    argv, cache = workload.command(1)
    span_log = work / "spans.jsonl"
    spawned_at = time.time()
    run = Spawned(traced_argv(span_log, argv), work, "traced1", env=traced_env(spawned_at))
    ok, stats = workload.check(run, 1)
    batch.record(run, ok)

    spans = span_log_format().load_span_log(span_log)
    ledger = Ledger(spans)
    metrics = span_metrics(ledger)
    metrics.update(cache_metrics(json.loads((work / "spans.jsonl.counters.json").read_text())["cache"]))
    metrics.update(campaign_metrics(stats))
    metrics["cache.disk_bytes"] = dir_bytes(cache)
    metrics["obs.trace_overhead_ratio"] = run.wall / untraced.wall
    command_end = max(s["end"] for s in spans if s["name"] == "bench.command")
    metrics["obs.attributed_frac"] = ledger.attributed(spawned_at, command_end)
    keep_trace(spans, work)
    return result(batch.attempted, batch.failed, metrics, {"ledger": layer_shares(ledger, run.wall)})


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------


class Daemon:
    """``llm4vv serve`` in a child process, ready once /healthz answers."""

    def __init__(self, argv: list[str], work: Path, env: dict):
        self.err = open(work / "daemon.err", "w")
        self.proc = subprocess.Popen([PY, *argv], stdout=subprocess.PIPE, stderr=self.err,
                                     env=env, cwd=ROOT, text=True)
        line = self.proc.stdout.readline()
        if "http://" not in line:
            self.stop()
            raise Failure(f"daemon did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + 30.0
        while True:
            try:
                http_get(self.port, "/healthz", timeout=2.0)
                break
            except OSError:
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    self.stop()
                    raise Failure("daemon never answered /healthz")
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """Largest peak RSS (VmHWM) of the daemon and its worker processes."""
        pids = [self.proc.pid]
        for entry in Path("/proc").iterdir():
            if entry.name.isdigit():
                try:
                    stat = (entry / "stat").read_text()
                except OSError:
                    continue
                if int(stat.rsplit(")", 1)[1].split()[1]) == self.proc.pid:
                    pids.append(int(entry.name))
        peak = 0
        for pid in pids:
            try:
                for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak / 1024.0

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        return rc


def serve_setup(args, work: Path, i: int, n_requests: int, daemon_argv=None, env=None):
    """Inputs plus a ready daemon; returns (requests file, daemon, seconds)."""
    t0 = time.perf_counter()
    plan = work / f"requests{i}.json"
    Spawned([str(BENCH / "inputs.py"), "--seed", str(args.seed), "--requests", str(n_requests),
             "--rate", str(SERVE_RATE), "--out", str(plan)], work, f"inputs{i}").require_ok("inputs")
    cache = fresh_dir(work, f"srvcache{i}")
    daemon = Daemon((daemon_argv or SERVE_ARGS) + ["--cache-dir", str(cache)], work, env or program_env())
    return plan, daemon, time.perf_counter() - t0


def drive(daemon: Daemon, plan: list[dict]) -> tuple[list[dict], float]:
    """Send the schedule open-loop; returns per-request records and the
    traffic window (schedule start to last answer)."""
    connections = len(os.sched_getaffinity(0))
    schedule = [
        (r["due"], json.dumps({"files": r["files"], "options": {"flavor": r["flavor"]}}).encode())
        for r in plan
    ]
    raw = run_open_loop(schedule, http_validate(daemon.port), connections)
    start = raw[0]["due"] - schedule[0][0]
    window = max(r["done"] for r in raw) - start
    records = []
    for rec, latency, lag in zip(raw, *due_latencies(raw)):
        status, body, _ = rec["result"]
        answered = status == 200 and body is not None
        records.append({
            "status": status,
            "verdicts": body["verdicts"] if answered else None,
            "latency_ms": latency * 1000.0,
            "lag_ms": lag * 1000.0,
            "wall_ms": body["timings"]["wall_ms"] if answered else 0.0,
            "batch_size": body["batch"]["size"] if answered else 0,
        })
    return records, window


def check_verdicts(plan: list[dict], records: list[dict]) -> None:
    """Mark each record ``ok``: answered 200 with every verdict
    byte-identical to the reference pass (``reference.py``)."""
    reference = json.loads((BENCH / "serve_verdicts.json").read_text())
    for request, record in zip(plan, records):
        record["ok"] = record["verdicts"] is not None and [
            verdict_digest(v) for v in record["verdicts"]
        ] == [reference.get(name) for name in request["files"]]


def serve_end_to_end(records: list[dict], window: float) -> dict:
    # a refused or wrong request misses every latency limit: it ranks
    # as slower than any answered one
    latencies = [r["latency_ms"] if r["ok"] else float("inf") for r in records]
    good = sum(1 for r in records if r["ok"] and r["latency_ms"] <= LATENCY_LIMIT_S * 1000.0)
    p50, p95 = tail_percentile(latencies, 50), tail_percentile(latencies, 95)
    if p95 == float("inf"):
        p50, p95 = min(p50, window * 1000.0), window * 1000.0
    return {"wall_s": window, "latency_p50_ms": p50, "latency_p95_ms": p95, "goodput_rps": good / window}


def input_properties(plan: list[dict], records: list[dict]) -> dict:
    verdicts = [v for r in records if r["verdicts"] for v in r["verdicts"]]
    return {
        "requests": len(plan),
        "files_sent": sum(len(r["files"]) for r in plan),
        "distinct_files": len({name for r in plan for name in r["files"]}),
        "compile_fail_share": sum(1 for v in verdicts if v["stage"] == "compile") / max(1, len(verdicts)),
        "repeat_share": sum(1 for r in plan if r["repeat_of"] is not None) / len(plan),
        "acc_share": sum(1 for r in plan if r["flavor"] == "acc") / len(plan),
    }


def run_serve(args, work: Path) -> dict:
    n_requests = max(MIN_REQUESTS, round(SERVE_RATE * args.seconds))
    if args.trace:
        return trace_serve(args, work, n_requests)
    setups, digests = [], set()
    for i in range(SETUP_REPEATS):
        plan_path, daemon, seconds = serve_setup(args, work, i, n_requests)
        setups.append(seconds)
        digests.add(hashlib.sha256(plan_path.read_bytes()).hexdigest())
        if i < SETUP_REPEATS - 1:
            daemon.stop()
    if len(digests) != 1:
        raise Failure("one seed generated different inputs")
    plan = json.loads(plan_path.read_text())
    try:
        records, window = drive(daemon, plan)
        rss = daemon.peak_rss_mb()
    finally:
        if daemon.stop() != 0:
            raise Failure("daemon did not drain cleanly")
    check_verdicts(plan, records)
    failed = sum(1 for r in records if not r["ok"])
    metrics = {"setup_s": median(setups), **serve_end_to_end(records, window), "peak_rss_mb": rss}
    return result(len(records), failed, metrics, {"inputs": input_properties(plan, records)})


def trace_serve(args, work: Path, n_requests: int) -> dict:
    """An untraced and a traced daemon serve the same schedule."""
    span_log = work / "spans.jsonl"
    service_log = work / "service-spans.jsonl"
    passes = []
    for i, traced in enumerate((False, True)):
        if traced:
            argv = traced_argv(span_log, SERVE_ARGS + ["--trace-log", str(service_log)])
            plan_path, daemon, _ = serve_setup(args, work, i, n_requests, argv, traced_env(time.time()))
        else:
            plan_path, daemon, _ = serve_setup(args, work, i, n_requests)
        plan = json.loads(plan_path.read_text())
        try:
            records, window = drive(daemon, plan)
            stats = json.loads(http_get(daemon.port, "/v1/stats"))
        finally:
            if daemon.stop() != 0:
                raise Failure("daemon did not drain cleanly")
        passes.append((records, window, stats))
    failed = 0
    for records, _, _ in passes:
        check_verdicts(plan, records)
        failed += sum(1 for r in records if not r["ok"])

    (untraced, _, _), (records, window, stats) = passes
    export = span_log_format()
    spans = export.load_span_log(span_log) + export.load_span_log(service_log)
    ledger = Ledger(spans)
    metrics = span_metrics(ledger)
    cache = (stats.get("cache") or {}).get("namespaces", {})
    metrics.update(cache_metrics(cache))
    metrics.update(service_metrics(records, stats))
    metrics["cache.disk_bytes"] = dir_bytes(work / "srvcache1")
    metrics["obs.trace_overhead_ratio"] = (
        sum(r["wall_ms"] for r in records) / sum(r["wall_ms"] for r in untraced)
    )
    # the daemon idles between arrivals: attribution covers the span
    # from the first request's arrival to the last one's answer
    requests = ledger.by_name["service.request"]
    metrics["obs.attributed_frac"] = ledger.attributed(
        min(s["start"] for s in requests), max(s["end"] for s in requests)
    )
    keep_trace(spans, work)
    return result(2 * len(plan), failed, metrics,
                  {"ledger": layer_shares(ledger, window), "inputs": input_properties(plan, records)})


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def result(attempted: int, failed: int, metrics: dict, extra: dict) -> dict:
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "extra": extra}


def layer_shares(ledger: Ledger, wall: float) -> dict:
    return {layer: {"self_s": round(s, 4), "share": round(s / wall, 4)}
            for layer, s in sorted(ledger.layers.items(), key=lambda kv: -kv[1])}


def keep_trace(spans: list[dict], work: Path) -> None:
    """Keep the span log and prove ``llm4vv trace summarize`` reads it."""
    traces = BENCH / "traces"
    traces.mkdir(exist_ok=True)
    path = traces / f"{work.name.split('.')[0]}.jsonl"
    span_log_format().write_span_log(spans, path)
    Spawned(["-m", "repro.cli", "trace", "summarize", str(path)], work, "summarize").require_ok(
        "llm4vv trace summarize")


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def append_history(args, outcome: dict, correct: bool) -> None:
    entry = {
        "time": time.time(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": git_rev(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
        **outcome["extra"],
    }
    with open(BENCH / "history.jsonl", "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def metric_units(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


RUNNERS = {
    "sweep-cold": lambda args, work: run_batch(args, work, SweepCold(work)),
    "sweep-warm": lambda args, work: run_batch(args, work, SweepWarm(work)),
    "serve-mix": run_serve,
    "fuzz-campaign": lambda args, work: run_batch(args, work, FuzzCampaign(work)),
}


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description="LLM4VV benchmark")
    parser.add_argument("--workload", choices=RUNNERS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops its daemon and removes its work dir
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}.{os.getpid()}"
    fresh_dir(work.parent, work.name)
    try:
        outcome = RUNNERS[args.workload](args, work)
    except Failure as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = metric_units(args.trace)
    metrics = outcome["metrics"]
    metrics["failed_frac"] = outcome["failed"] / outcome["attempted"]
    # per-layer metrics of a layer the workload never enters read 0
    outcome["metrics"] = {name: metrics.get(name, 0.0) if args.trace else metrics[name]
                          for name in units}
    correct = outcome["failed"] == 0
    append_history(args, outcome, correct)
    print(json.dumps(outcome["extra"], sort_keys=True), file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed} done in "
          f"{time.perf_counter() - t_start:.1f}s", file=sys.stderr)
    print(result_line(correct, outcome["attempted"], outcome["failed"], outcome["metrics"], units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
