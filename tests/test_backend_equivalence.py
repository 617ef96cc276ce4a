"""Differential suite: ALL registered backends must be byte-identical
— return code, stdout, stderr, fault AND step count — over the full
template corpus, a mutant sample, and targeted slot-resolution edge
cases.

The walk backend is the executable spec; the closure backend
(:mod:`repro.runtime.compilebody`) and the codegen backend
(:mod:`repro.runtime.codegen`) are the fast paths.  Any drift between
them silently corrupts cached results (the execute cache deliberately
does not key on the backend), so equality here is a hard invariant.
The suite derives its backend list from ``EXECUTION_BACKENDS`` — a
newly registered backend is pulled into every assertion automatically.
"""

from __future__ import annotations

import pytest

from repro.compiler.driver import Compiler
from repro.runtime import EXECUTION_BACKENDS
from repro.runtime.executor import ExecutionResult, Executor

#: every backend that must match the walker (the executable spec)
FAST_BACKENDS = tuple(b for b in EXECUTION_BACKENDS if b != "walk")


def run_each(source: str, flavor: str = "acc", filename: str = "t.c",
             step_limit: int = 2_000_000) -> dict[str, ExecutionResult]:
    compiled = Compiler(model=flavor).compile(source, filename)
    assert compiled.ok, compiled.stderr
    return {
        backend: Executor(step_limit=step_limit, backend=backend).run(compiled)
        for backend in EXECUTION_BACKENDS
    }


def run_both(source: str, flavor: str = "acc", filename: str = "t.c",
             step_limit: int = 2_000_000) -> tuple[ExecutionResult, ...]:
    """All backends' results, walk first (kept for test readability)."""
    results = run_each(source, flavor, filename, step_limit)
    return tuple(results[b] for b in EXECUTION_BACKENDS)


def assert_identical(source: str, flavor: str = "acc", filename: str = "t.c",
                     step_limit: int = 2_000_000) -> ExecutionResult:
    results = run_each(source, flavor, filename, step_limit)
    walk = results["walk"]
    for backend in FAST_BACKENDS:
        assert results[backend] == walk, (
            f"backend drift:\n  walk:    {walk}\n  {backend}: {results[backend]}"
        )
    return walk


# ----------------------------------------------------------------------
# corpus-wide equivalence
# ----------------------------------------------------------------------


class TestCorpusEquivalence:
    def _check_population(self, tests, flavor):
        compiler = Compiler(model=flavor)
        executors = {b: Executor(backend=b) for b in EXECUTION_BACKENDS}
        checked = 0
        for test in tests:
            compiled = compiler.compile(test.source, test.name)
            if not compiled.ok or compiled.unit is None:
                continue
            walk = executors["walk"].run(compiled)
            for backend in FAST_BACKENDS:
                result = executors[backend].run(compiled)
                assert result == walk, (
                    f"{test.name}:\n  walk:    {walk}\n  {backend}: {result}"
                )
            checked += 1
        assert checked > 0

    def test_acc_templates(self, acc_corpus):
        self._check_population(acc_corpus, "acc")

    def test_omp_templates(self, omp_corpus):
        self._check_population(omp_corpus, "omp")

    def test_fortran_templates(self, fortran_corpus):
        self._check_population(fortran_corpus, "acc")

    def test_acc_mutants(self, acc_probed):
        self._check_population(list(acc_probed), "acc")

    def test_omp_mutants(self, omp_probed):
        self._check_population(list(omp_probed), "omp")


# ----------------------------------------------------------------------
# slot resolution
# ----------------------------------------------------------------------


class TestSlotResolution:
    def test_block_shadowing(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int x = 1;
                { int x = 2; printf("inner=%d\n", x); x = 3; }
                printf("outer=%d\n", x);
                return 0;
            }
        """)
        assert result.stdout == "inner=2\nouter=1\n"

    def test_init_references_shadowed_outer(self):
        # `int x = x + 1;` in an inner block reads the OUTER x: the new
        # binding only exists after its own initializer runs
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int x = 5;
                { int x = x + 1; printf("%d\n", x); }
                printf("%d\n", x);
                return 0;
            }
        """)
        assert result.stdout == "6\n5\n"

    def test_for_init_scope(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int i = 99;
                int total = 0;
                for (int i = 0; i < 4; i++) { total += i; }
                printf("i=%d total=%d\n", i, total);
                return 0;
            }
        """)
        assert result.stdout == "i=99 total=6\n"

    def test_loop_body_redeclaration_each_iteration(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int total = 0;
                for (int i = 0; i < 3; i++) {
                    int fresh = 0;
                    fresh += 10;
                    total += fresh;
                }
                printf("%d\n", total);
                return 0;
            }
        """)
        assert result.stdout == "30\n"

    def test_param_shadows_global(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int g = 7;
            int probe(int g) { return g * 2; }
            int main() { printf("%d %d\n", probe(3), g); return 0; }
        """)
        assert result.stdout == "6 7\n"

    def test_global_read_write(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int counter = 0;
            void bump() { counter = counter + 2; }
            int main() { bump(); bump(); printf("%d\n", counter); return 0; }
        """)
        assert result.stdout == "4\n"

    def test_recursion(self):
        result = assert_identical(r"""
            int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
            int main() { return fib(12); }
        """)
        assert result.returncode == 144

    def test_stack_overflow_fault_identical(self):
        # the interpreter raises the host recursion limit so its own
        # depth-200 guard is the binding constraint in BOTH backends
        # (the walker burns ~15 host frames per C call)
        result = assert_identical(r"""
            #include <stdio.h>
            int deep(int n) { return n == 0 ? 0 : deep(n - 1); }
            int main() { printf("go\n"); return deep(1000); }
        """)
        assert result.returncode == 139
        assert result.fault == "stack overflow (recursion too deep)"
        assert result.stdout == "go\n"

    def test_step_limit_identical_at_timeout(self):
        results = run_each(
            "int main() { int i = 0; while (1) { i = i + 1; } return i; }",
            step_limit=5_000,
        )
        walk = results["walk"]
        for backend in FAST_BACKENDS:
            assert results[backend] == walk
        assert walk.timed_out and walk.steps == 5_001

    def test_incdec_coerces_int_in_float_slot(self):
        # a missing double argument binds as int 0; ++ must coerce the
        # stored value to float exactly like the walker does, or later
        # division flips from float to truncating-int semantics
        result = assert_identical(r"""
            #include <stdio.h>
            double half(double x) { x++; return x / 2; }
            int main() { printf("%g\n", half()); return 0; }
        """)
        assert result.stdout == "0.5\n"

    def test_missing_arguments_default_zero(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int f(int a, int b) { return a + b; }
            int main() { printf("%d\n", f(5)); return 0; }
        """)
        assert result.stdout == "5\n"


# ----------------------------------------------------------------------
# directive semantics (pre-parsed plans vs per-execution walker)
# ----------------------------------------------------------------------


class TestDirectiveEquivalence:
    def test_private_clause_on_compute_region(self):
        # acc compute regions leave private scalars writable (the
        # snapshot machinery skips them) — whatever the semantics, both
        # backends must agree byte-for-byte
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            int main() {
                double t = 42.0;
                double a[8];
                #pragma acc parallel loop private(t)
                for (int i = 0; i < 8; i++) { t = i * 2.0; a[i] = t; }
                printf("t=%g a7=%g\n", t, a[7]);
                return 0;
            }
        """)
        assert result.stdout == "t=14 a7=14\n"

    def test_reduction_var_stays_shared(self):
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            int main() {
                int s = 0;
                #pragma acc parallel loop reduction(+:s)
                for (int i = 0; i < 10; i++) { s += i; }
                printf("%d\n", s);
                return 0;
            }
        """)
        assert result.stdout == "45\n"

    def test_firstprivate_scalar_snapshot_in_compute_region(self):
        # scalars written inside an offloaded region default to
        # firstprivate: the write is not visible after the region
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            int main() {
                double scale = 1.5;
                double a[4];
                #pragma acc parallel loop copyout(a[0:4])
                for (int i = 0; i < 4; i++) { scale = 2.0; a[i] = i * scale; }
                printf("scale=%g a3=%g\n", scale, a[3]);
                return 0;
            }
        """)
        assert result.stdout == "scale=1.5 a3=6\n"

    def test_data_clause_create_yields_stale_results(self):
        # broken data movement must fail the self-check identically
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            #define N 16
            int main() {
                double a[N]; double b[N];
                int err = 0;
                for (int i = 0; i < N; i++) { a[i] = i + 1.0; b[i] = 0.0; }
                #pragma acc parallel loop create(a[0:N]) copyout(b[0:N])
                for (int i = 0; i < N; i++) { b[i] = a[i] * 2.0; }
                for (int i = 0; i < N; i++) {
                    if (b[i] != (i + 1.0) * 2.0) err++;
                }
                printf("err=%d\n", err);
                return err ? 1 : 0;
            }
        """)
        assert result.returncode == 1  # stale device data, both backends

    def test_if_clause_false_runs_on_host(self):
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            int main() {
                int use_gpu = 0;
                double x = 3.0;
                #pragma acc parallel if(use_gpu)
                { x = x * 2.0; }
                printf("%g\n", x);
                return 0;
            }
        """)
        # host execution: the write IS visible (no firstprivate snapshot)
        assert result.stdout == "6\n"

    def test_omp_target_map_tofrom(self):
        result = assert_identical(r"""
            #include <stdio.h>
            #include <omp.h>
            #define N 8
            int main() {
                double a[N];
                for (int i = 0; i < N; i++) a[i] = i;
                #pragma omp target teams distribute parallel for map(tofrom: a[0:N])
                for (int i = 0; i < N; i++) a[i] = a[i] + 0.5;
                printf("%g %g\n", a[0], a[7]);
                return 0;
            }
        """, flavor="omp")
        assert result.stdout == "0.5 7.5\n"

    def test_omp_host_parallel_private_restore(self):
        result = assert_identical(r"""
            #include <stdio.h>
            #include <omp.h>
            int main() {
                int t = 9;
                int total = 0;
                #pragma omp parallel for private(t)
                for (int i = 0; i < 4; i++) { t = i; total += t; }
                printf("t=%d total=%d\n", t, total);
                return 0;
            }
        """, flavor="omp")
        assert result.stdout == "t=9 total=6\n"

    def test_enter_exit_data(self):
        result = assert_identical(r"""
            #include <stdio.h>
            #include <openacc.h>
            #define N 8
            int main() {
                double a[N];
                for (int i = 0; i < N; i++) a[i] = i;
                #pragma acc enter data copyin(a[0:N])
                #pragma acc parallel loop present(a[0:N])
                for (int i = 0; i < N; i++) a[i] = a[i] * 3.0;
                #pragma acc exit data copyout(a[0:N])
                printf("%g\n", a[5]);
                return 0;
            }
        """)
        assert result.stdout == "15\n"


# ----------------------------------------------------------------------
# fault paths
# ----------------------------------------------------------------------


class TestFaultEquivalence:
    @pytest.mark.parametrize("source,rc", [
        ("int main() { int a[4]; return a[9]; }", 139),
        ("int main() { int *p; return *p; }", 139),
        ("int main() { int x = 1; int y = 0; return x / y; }", 136),
        ("int main() { int x = 7; return x % 0; }", 136),
        ('#include <stdlib.h>\nint main() { double *p = malloc(8); free(p); free(p); return 0; }', 139),
        ("int missing_function();\nint main() { return missing_function(); }", 127),
    ])
    def test_fault_triple_identical(self, source, rc):
        results = run_each(source)
        walk = results["walk"]
        for backend in FAST_BACKENDS:
            assert results[backend] == walk
        assert walk.returncode == rc

    def test_fault_mid_output_keeps_partial_stdout(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int a[4];
                printf("before\n");
                a[17] = 3;
                printf("after\n");
                return 0;
            }
        """)
        assert result.returncode == 139
        assert result.stdout == "before\n"


# ----------------------------------------------------------------------
# multi-dimensional subscripts (flat element targets, fused a[i][j])
# ----------------------------------------------------------------------


def _fault_of(source: str, step_limit: int = 2_000_000) -> ExecutionResult:
    result = assert_identical(source, step_limit=step_limit)
    assert result.returncode == 139, result
    return result


class TestMultiDimEquivalence:
    """Every path a subscript chain can take in the fast backends — the
    fused slot/constant ``a[i][j]`` form, the generic chain, and the
    reference form behind ``&`` — against the walker's fault text,
    fault order and step count."""

    @pytest.mark.parametrize("subscripts,fault", [
        ("[i][4]", "array index 4 out of bounds for dimension of size 4"),
        ("[3][j]", "array index 3 out of bounds for dimension of size 3"),
        ("[i][n]", "array index -1 out of bounds for dimension of size 4"),
        ("[n][j]", "array index -1 out of bounds for dimension of size 3"),
        ("[i + 2][j]", "array index 3 out of bounds for dimension of size 3"),
        ("[i][j * 5]", "array index 5 out of bounds for dimension of size 4"),
        # both out of range: the outer dimension is reported first
        ("[7][9]", "array index 7 out of bounds for dimension of size 3"),
    ])
    @pytest.mark.parametrize("access", ["load", "store", "compound"])
    def test_out_of_bounds_each_dimension(self, subscripts, fault, access):
        statement = {
            "load": f"return (int) m{subscripts};",
            "store": f"m{subscripts} = 2.0; return 0;",
            "compound": f"m{subscripts} += 2.0; return 0;",
        }[access]
        result = _fault_of(f"""
            int main() {{
                double m[3][4]; int i = 1; int j = 1; int n = -1;
                {statement}
            }}
        """)
        assert result.fault == fault

    @pytest.mark.parametrize("statement", [
        "return m[i][j][0];",
        "m[i][j][0] = 1; return 0;",
        "m[i][j][k] += 1; return 0;",
        "return m[0][0][0][0];",
    ])
    def test_too_many_subscripts(self, statement):
        result = _fault_of(f"""
            int main() {{
                int m[3][4]; int i = 1; int j = 2; int k = 0;
                {statement}
            }}
        """)
        assert result.fault == "too many subscripts for array"

    def test_too_many_subscripts_reported_before_bounds(self):
        result = _fault_of("int main() { int m[3][4]; return m[9][9][9]; }")
        assert result.fault == "too many subscripts for array"

    def test_partial_subscript_load_and_store(self):
        # a[i] on a 2-D array addresses the first element of row i
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int a[3][4]; int i = 2;
                for (int r = 0; r < 3; r++)
                    for (int c = 0; c < 4; c++) a[r][c] = r * 10 + c;
                a[1] = 99;
                a[i] += 5;
                printf("%d %d %d %d\n", a[i], a[1][0], a[2][0], a[2][1]);
                return 0;
            }
        """)
        assert result.stdout == "25 99 25 21\n"

    def test_partial_subscripts_of_a_3d_array(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int t[2][3][4]; int i = 1; int j = 2;
                for (int x = 0; x < 2; x++)
                    for (int y = 0; y < 3; y++)
                        for (int z = 0; z < 4; z++) t[x][y][z] = x * 100 + y * 10 + z;
                t[i][j][3] -= 1;
                printf("%d %d %d %d\n", t[i], t[i][j], t[1][2][3], t[0][j][1]);
                return t[i][j][4];
            }
        """)
        assert result.stdout == "100 120 122 21\n"
        assert result.fault == "array index 4 out of bounds for dimension of size 4"

    def test_pointer_base_adds_every_subscript(self):
        # the substrate's Pointer semantics: p[i][j] == p[i + j]
        result = assert_identical(r"""
            #include <stdio.h>
            #include <stdlib.h>
            int main() {
                double *p = (double *)malloc(8 * sizeof(double));
                int i = 2; int j = 3;
                for (int k = 0; k < 8; k++) p[k] = k * 1.5;
                p[i][j] = 42.0;
                p[1][i] += 0.5;
                printf("%g %g %g %g\n", p[i][j], p[5], p[3], p[0][1 + 1]);
                return (int) p[i][j + 9];
            }
        """)
        assert result.stdout == "42 42 5 3\n"
        assert result.fault.startswith("out-of-bounds read at byte 112 of 64-byte")

    def test_pointer_base_out_of_bounds_write_and_freed_block(self):
        result = _fault_of("""
            #include <stdlib.h>
            int main() {
                double *p = (double *)malloc(4 * sizeof(double));
                int i = 3; int j = 1;
                p[i][j] = 1.0;
                return 0;
            }
        """)
        assert result.fault.startswith("out-of-bounds write at byte 32 of 32-byte")
        result = _fault_of("""
            #include <stdlib.h>
            int main() {
                double *p = (double *)malloc(4 * sizeof(double));
                int i = 1; int j = 1;
                free(p);
                return (int) p[i][j];
            }
        """)
        assert result.fault == "read from freed heap block"

    @pytest.mark.parametrize("statement", [
        # 1-D fused and generic forms
        "return a[q];",
        "a[q] = 1; return 0;",
        "return a[i ? q : q];",
        # 2-D: each position, fused (slot operands) and generic
        "return m[q][j];",
        "return m[i][q];",
        "return m[q][q];",
        "m[q][j] = 1; return 0;",
        "m[i][q] = 1; return 0;",
        "m[q][j] += 1; return 0;",
        "m[i][q] += 1; return 0;",
        "return m[i ? q : q][j];",
        "return m[i][i ? q : q];",
        "return *&m[i][q];",
        # subscripts are checked before the (NULL) base
        "return z[q][j];",
    ])
    def test_uninitialized_subscript_in_each_position(self, statement):
        result = _fault_of(f"""
            int main() {{
                int a[4]; int m[3][4]; int i = 1; int j = 2; int *q; int *z = 0;
                {statement}
            }}
        """)
        assert result.fault == "array subscript is uninitialized"

    def test_null_base_of_fused_access(self):
        result = _fault_of("int main() { int *z = 0; int i = 1; int j = 2; return z[i][j]; }")
        assert result.fault == "subscript of NULL or uninitialized pointer"

    def test_compound_on_uninitialized_cell(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                double m[2][3]; int cnt[2][2]; int i = 1; int j = 2;
                m[i][j] += 2.5;
                m[0][j] *= 3.0;
                cnt[i][0] += 7;
                cnt[i][i] -= 1;
                printf("%g %g %d %d\n", m[i][j], m[0][2], cnt[1][0], cnt[1][1]);
                return 0;
            }
        """)
        assert result.stdout == "2.5 0 7 -1\n"

    def test_address_of_element_round_trips(self):
        result = assert_identical(r"""
            #include <stdio.h>
            int main() {
                int a[3][4]; int i = 1; int j = 2;
                for (int r = 0; r < 3; r++)
                    for (int c = 0; c < 4; c++) a[r][c] = r * 10 + c;
                int *p = &a[i][j];
                *p = 77;
                p[1] = 88;
                int *row = &a[2][0];
                a[i][j]++;
                printf("%d %d %d %d %d\n", a[1][2], a[1][3], *p, row[3], *(&a[0][0] + 5));
                return 0;
            }
        """)
        assert result.stdout == "78 88 78 23 11\n"

    def test_step_limit_inside_fused_access(self):
        # sweep the limit across every tick of the fused 4-tick load,
        # store and compound store (and the declarations around them):
        # the timeout must land on the same step on every backend
        source = """
            int main() {
                double m[2][3]; int i = 1; int j = 2; double x;
                m[i][j] = 1.5;
                m[i][j] += 2.0;
                x = m[i][j];
                return (int) x;
            }
        """
        clean = assert_identical(source)
        assert clean.returncode == 3
        for limit in range(1, clean.steps):
            result = assert_identical(source, step_limit=limit)
            assert result.timed_out and result.steps == limit + 1
