"""BENCH-INTERP — interpreter throughput across all execution backends.

The execute stage bounds the validation pipeline's cold-cache floor
(up to 2M steps per program, per mutant, per experiment), so interpreter
steps/sec is the substrate's core performance number.  This module:

* benchmarks steps/sec per backend over five representative program
  shapes (scalar loop-heavy, 1-D array traversal, 2-D matmul,
  directive-heavy, fault path) so the perf trajectory is tracked;
* asserts the closure backend is >= 2x walk and the codegen backend is
  >= 2x closure on the scalar loop-heavy kernel (coarse CI guards with
  generous margin — locally closure/walk is 5-10x);
* asserts both fast backends are >= 5x walk on the 2-D matmul kernel,
  whose ``a[i][k]`` loads and ``c[i][j] +=`` stores take the fused
  flat-offset element path (~9x closure, ~17x codegen on a 2-CPU host);
* emits a text artifact plus machine-readable
  ``benchmarks/output/BENCH_interpreter.json`` with steps/sec per
  backend and the pairwise ratios.

The 1-D array-traversal kernel is reported but not gated: its element
loads and stores call the semantics helpers shared by closure and
codegen alike, so the codegen/closure ratio there is structurally lower
than on scalar arithmetic (observed ~1.9x vs ~2.4x).

All backends must also produce byte-identical results here — the
equivalence suite proper lives in ``tests/test_backend_equivalence.py``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.compiler.driver import Compiler
from repro.runtime.executor import Executor
from repro.runtime.interpreter import EXECUTION_BACKENDS

#: CI guard: closure must beat walk by at least this factor on the
#: loop-heavy workload (locally ~5-10x; margin absorbs CI noise)
MIN_CI_SPEEDUP = 2.0

#: CI guard: codegen must beat closure by at least this factor on the
#: scalar loop-heavy workload (locally ~2.4x)
MIN_CODEGEN_SPEEDUP = 2.0

#: The gated kernel: scalar arithmetic in a hot loop.  Every operation
#: is slot reads/writes plus folded-literal arithmetic — the shape the
#: codegen backend's batched ticks and static fast paths target.
LOOP_HEAVY = r"""
#include <stdio.h>
int main() {
    double s = 0.0;
    double t = 1.0;
    int k = 0;
    for (int rep = 0; rep < 300; rep++) {
        for (int i = 0; i < 64; i++) {
            t = t * 1.000001 + 0.5;
            s += t * 2.0 - i * 0.25;
            k = k + 1;
        }
    }
    printf("s=%f k=%d\n", s, k);
    return 0;
}
"""

#: CI guard: each fast backend must beat walk by at least this factor
#: on the 2-D matmul kernel, measured in the same run
MIN_MATMUL_2D_SPEEDUP = 5.0

#: Reported but not gated: 1-D element access pays the shared
#: _load_element/_store_* helpers in both fast backends.
ARRAY_TRAVERSAL = r"""
#include <stdio.h>
#define N 256
int main() {
    double a[N]; double b[N]; double c[N];
    double s = 0.0;
    for (int i = 0; i < N; i++) { a[i] = i * 0.5; b[i] = i + 1.0; }
    for (int rep = 0; rep < 40; rep++) {
        for (int i = 0; i < N; i++) { c[i] = a[i] * 2.0 + b[i] * 0.5; }
        for (int i = 0; i < N; i++) { s += c[i]; }
    }
    printf("s=%f\n", s);
    return 0;
}
"""

#: Gated: 2-D ``double`` arrays — the corpus's matmul shape, two fused
#: ``a[i][k] * b[k][j]`` loads per inner step plus a ``c[i][j] +=``
#: compound store per output cell.
MATMUL_2D = r"""
#include <stdio.h>
#define M 24
int main() {
    double a[M][M]; double b[M][M]; double c[M][M];
    for (int i = 0; i < M; i++) {
        for (int j = 0; j < M; j++) {
            a[i][j] = (i + j) % 7;
            b[i][j] = (i * j) % 5;
            c[i][j] = 0.0;
        }
    }
    for (int i = 0; i < M; i++) {
        for (int j = 0; j < M; j++) {
            double s = 0.0;
            for (int k = 0; k < M; k++) {
                s += a[i][k] * b[k][j];
            }
            c[i][j] += s;
        }
    }
    double t = 0.0;
    for (int i = 0; i < M; i++) {
        for (int j = 0; j < M; j++) { t += c[i][j]; }
    }
    printf("t=%f\n", t);
    return 0;
}
"""

DIRECTIVE_HEAVY = r"""
#include <stdio.h>
#include <openacc.h>
#define N 64
int main() {
    double a[N]; double b[N];
    int err = 0;
    for (int i = 0; i < N; i++) { a[i] = i; b[i] = 0.0; }
    for (int rep = 0; rep < 60; rep++) {
        #pragma acc parallel loop copyin(a[0:N]) copyout(b[0:N])
        for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0 + rep; }
        #pragma acc parallel loop reduction(+:err)
        for (int i = 0; i < N; i++) {
            if (b[i] != a[i] * 2.0 + rep) err += 1;
        }
    }
    printf("err=%d\n", err);
    return err;
}
"""

FAULT_PATH = r"""
#include <stdio.h>
#include <stdlib.h>
#define N 128
int main() {
    double *p = (double *)malloc(N * sizeof(double));
    double s = 0.0;
    for (int rep = 0; rep < 40; rep++) {
        for (int i = 0; i < N; i++) { p[i] = i * 1.5; }
        for (int i = 0; i < N; i++) { s += p[i]; }
    }
    printf("s=%f\n", s);
    return p[N * 2] > 0.0;  /* out-of-bounds: simulated segfault */
}
"""

PROGRAMS = {
    "loop_heavy": LOOP_HEAVY,
    "array_traversal": ARRAY_TRAVERSAL,
    "matmul_2d": MATMUL_2D,
    "directive_heavy": DIRECTIVE_HEAVY,
    "fault_path": FAULT_PATH,
}


@pytest.fixture(scope="module")
def compiled_programs():
    compiler = Compiler(model="acc")
    out = {}
    for name, source in PROGRAMS.items():
        compiled = compiler.compile(source, f"{name}.c")
        assert compiled.ok, compiled.stderr
        out[name] = compiled
    return out


def _time_run(executor: Executor, compiled, reps: int = 5):
    """Best-of-``reps`` wall time (after a warm-up run that also pays
    the backend's one-time lowering/translation cost)."""
    result = executor.run(compiled)
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        result = executor.run(compiled)
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("backend", EXECUTION_BACKENDS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_interpreter_throughput(benchmark, compiled_programs, program, backend):
    """Steps/sec per backend per program shape (trajectory tracking)."""
    executor = Executor(step_limit=10_000_000, backend=backend)
    compiled = compiled_programs[program]
    executor.run(compiled)  # pay one-time lowering outside the timer

    result = benchmark(lambda: executor.run(compiled))
    assert result.steps > 10_000  # the bench must actually exercise the loop
    benchmark.extra_info["steps"] = result.steps
    if benchmark.stats is not None:  # absent under --benchmark-disable
        benchmark.extra_info["steps_per_sec"] = int(
            result.steps / benchmark.stats["mean"]
        )


def test_backend_speedups(compiled_programs, emit_artifact):
    """The perf gates: closure >= 2x walk and codegen >= 2x closure on
    the scalar loop-heavy kernel, closure and codegen >= 5x walk on the
    2-D matmul kernel, with byte-identical results (step counts
    included) across every backend on every measured program.  Also
    writes the machine-readable BENCH_interpreter.json artifact."""
    executors = {b: Executor(step_limit=10_000_000, backend=b)
                 for b in EXECUTION_BACKENDS}
    lines = ["Interpreter throughput across execution backends:"]
    matrix = {}
    for name, compiled in sorted(compiled_programs.items()):
        timings = {}
        results = {}
        for backend in EXECUTION_BACKENDS:
            results[backend], timings[backend] = _time_run(executors[backend], compiled)
        walk = results["walk"]
        for backend in EXECUTION_BACKENDS:
            assert results[backend] == walk, (
                f"{name}: backends disagree\n  walk:    {walk}\n"
                f"  {backend}: {results[backend]}"
            )
        per_backend = {
            backend: {
                "seconds": timings[backend],
                "steps_per_sec": int(walk.steps / timings[backend]),
            }
            for backend in EXECUTION_BACKENDS
        }
        ratios = {
            "closure_vs_walk": timings["walk"] / timings["closure"],
            "codegen_vs_walk": timings["walk"] / timings["codegen"],
            "codegen_vs_closure": timings["closure"] / timings["codegen"],
        }
        matrix[name] = {"steps": walk.steps, "backends": per_backend, "ratios": ratios}
        cells = "   ".join(
            f"{b} {walk.steps / timings[b] / 1e6:6.2f} Msteps/s"
            for b in EXECUTION_BACKENDS
        )
        lines.append(
            f"  {name:16s} {cells}   closure/walk {ratios['closure_vs_walk']:4.1f}x"
            f"   codegen/closure {ratios['codegen_vs_closure']:4.2f}x"
        )
    emit_artifact("interpreter_throughput", "\n".join(lines))

    gates = {
        "closure_vs_walk_loop_heavy": {
            "minimum": MIN_CI_SPEEDUP,
            "measured": matrix["loop_heavy"]["ratios"]["closure_vs_walk"],
        },
        "codegen_vs_closure_loop_heavy": {
            "minimum": MIN_CODEGEN_SPEEDUP,
            "measured": matrix["loop_heavy"]["ratios"]["codegen_vs_closure"],
        },
        "closure_vs_walk_matmul_2d": {
            "minimum": MIN_MATMUL_2D_SPEEDUP,
            "measured": matrix["matmul_2d"]["ratios"]["closure_vs_walk"],
        },
        "codegen_vs_walk_matmul_2d": {
            "minimum": MIN_MATMUL_2D_SPEEDUP,
            "measured": matrix["matmul_2d"]["ratios"]["codegen_vs_walk"],
        },
    }
    payload = {
        "bench": "interpreter_throughput",
        "step_limit": 10_000_000,
        "backends": list(EXECUTION_BACKENDS),
        "programs": matrix,
        "gates": gates,
    }
    from repro.core.atomicio import atomic_write_json

    output_dir = Path(__file__).parent / "output"
    atomic_write_json(
        output_dir / "BENCH_interpreter.json", payload, indent=2, sort_keys=True
    )

    for gate, spec in gates.items():
        assert spec["measured"] >= spec["minimum"], (
            f"perf gate {gate}: measured {spec['measured']:.2f}x "
            f"< required {spec['minimum']}x"
        )
