"""AST interpreter with simulated device semantics.

Executes the translation units produced by :class:`repro.compiler.
driver.Compiler` with the observable behaviour of a real test binary:

* ``main``'s return value becomes the process return code;
* ``printf``/``puts`` accumulate stdout, runtime faults produce the
  stderr a shell would show (``Segmentation fault``, ``Floating point
  exception``) with the matching 128+signal return codes;
* OpenACC/OpenMP compute and data constructs apply data-clause
  semantics against a :class:`~repro.runtime.device.DeviceEnv` — mapped
  aggregates are redirected to device copies for the duration of the
  region, so broken data movement yields wrong results and failing
  self-checks, exactly like a real offload target;
* a step budget bounds runaway loops (simulated timeout, rc 124).

Execution of parallel constructs is serial but semantically faithful
for the corpus' self-checking tests: reductions combine, private
variables do not leak, copyout writes back.

Three execution backends share these semantics:

* ``"walk"`` — the original tree-walking evaluator in this module, the
  executable spec;
* ``"closure"`` — :mod:`repro.runtime.compilebody` lowers each function
  body once into nested Python closures with slot-resolved locals and
  runs those instead; 5-10x faster than walk;
* ``"codegen"`` — :mod:`repro.runtime.codegen` emits each function body
  as Python source, compiles it to a real code object once per unit and
  binds it per run; 1-3x faster again (most on scalar loops).

All backends must produce byte-identical observables (return code,
stdout, stderr, *and* step counts); the arithmetic/pointer helpers are
module-level functions shared by all of them so the semantics cannot
drift.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

from repro.compiler import astnodes as ast
from repro.compiler.pragma import Directive
from repro.runtime.builtins import Builtins, ExitProgram
from repro.runtime.device import (
    ACC_CLAUSE_SEMANTICS,
    OMP_MAP_SEMANTICS,
    DataMappingError,
    DeviceEnv,
    block_of,
)
from repro.runtime.values import (
    CArray,
    HeapBlock,
    MemoryFault,
    Pointer,
    UNINIT,
    coerce_to_type,
    sizeof_type,
    truthy,
)


#: The execution backends an :class:`Interpreter` (and everything above
#: it: Executor, pipeline stages, experiments, CLI) can select.  All
#: consumers (CLI flags, service protocol, pipeline/experiment configs)
#: derive their choices from this tuple — registering a backend here is
#: the single switch that surfaces it everywhere.
EXECUTION_BACKENDS = ("walk", "closure", "codegen")

#: One-line operator-facing description per backend (CLI help, docs).
BACKEND_SUMMARIES = {
    "walk": "tree-walking reference evaluator, the executable spec",
    "closure": "lowered closures, 5-10x faster than walk",
    "codegen": "generated Python code objects, 1-3x faster than closure",
}

#: Default backend for new interpreters/executors.  The closure backend
#: is the fast path; ``"walk"`` remains available for debugging and for
#: the differential equivalence suite; ``"codegen"`` emits real Python
#: code objects (:mod:`repro.runtime.codegen`) and is gated on the
#: three-way equivalence suite before it can become the default.
DEFAULT_BACKEND = "closure"


class RuntimeFault(Exception):
    """A runtime condition that terminates the program abnormally."""

    def __init__(self, message: str, returncode: int, stderr: str):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class StepLimitExceeded(RuntimeFault):
    def __init__(self, limit: int):
        super().__init__(
            f"step limit of {limit} exceeded", 124, "killed: execution time limit exceeded\n"
        )


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value):
        super().__init__(value)
        self.value = value


@dataclass
class Environment:
    """A lexical scope chain."""

    parent: "Environment | None" = None
    vars: dict[str, object] = field(default_factory=dict)
    types: dict[str, ast.CType] = field(default_factory=dict)

    def declare(self, name: str, value, ctype: ast.CType | None = None) -> None:
        self.vars[name] = value
        if ctype is not None:
            self.types[name] = ctype

    def lookup_env(self, name: str) -> "Environment | None":
        env: Environment | None = self
        while env is not None:
            if name in env.vars:
                return env
            env = env.parent
        return None

    def get(self, name: str):
        env = self.lookup_env(name)
        if env is None:
            raise RuntimeFault(
                f"use of unknown symbol '{name}'", 139, "Segmentation fault (core dumped)\n"
            )
        return env.vars[name]

    def set(self, name: str, value) -> None:
        env = self.lookup_env(name)
        if env is None:
            raise RuntimeFault(
                f"assignment to unknown symbol '{name}'", 139, "Segmentation fault (core dumped)\n"
            )
        ctype = env.types.get(name)
        env.vars[name] = coerce_to_type(value, ctype) if ctype is not None else value

    def type_of(self, name: str) -> ast.CType | None:
        env: Environment | None = self
        while env is not None:
            if name in env.types:
                return env.types[name]
            env = env.parent
        return None


#: Values for the header-provided constants semantic analysis admits.
_RUNTIME_CONSTANTS: dict[str, object] = {
    "NULL": 0,
    "EXIT_SUCCESS": 0,
    "EXIT_FAILURE": 1,
    "RAND_MAX": 0x7FFFFFFF,
    "INT_MAX": 0x7FFFFFFF,
    "INT_MIN": -0x80000000,
    "DBL_MAX": 1.7976931348623157e308,
    "DBL_MIN": 2.2250738585072014e-308,
    "FLT_MAX": 3.4028234663852886e38,
    "FLT_MIN": 1.1754943508222875e-38,
    "DBL_EPSILON": 2.220446049250313e-16,
    "FLT_EPSILON": 1.1920928955078125e-07,
    "CLOCKS_PER_SEC": 1_000_000,
    "stdout": 1,
    "stderr": 2,
    "stdin": 0,
    "acc_device_default": 0,
    "acc_device_host": 2,
    "acc_device_not_host": 3,
    "acc_device_nvidia": 4,
    "omp_lock_t": 0,
}


# ---------------------------------------------------------------------------
# semantics shared by the walk and closure backends
# ---------------------------------------------------------------------------


def segv_fault(detail: str) -> RuntimeFault:
    """The simulated SIGSEGV every invalid access maps to."""
    return RuntimeFault(detail, 139, "Segmentation fault (core dumped)\n")


def combine_binary(op: str, left, right):
    """Apply a (non-short-circuit) C binary operator to evaluated operands."""
    if left is UNINIT or right is UNINIT:
        raise segv_fault("use of uninitialized pointer value in arithmetic")
    # pointer arithmetic
    if isinstance(left, CArray):
        left = left.pointer()
    if isinstance(right, CArray):
        right = right.pointer()
    if isinstance(left, Pointer) or isinstance(right, Pointer):
        return pointer_arith(op, left, right)
    if isinstance(left, str) or isinstance(right, str):
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        left = len(left) if isinstance(left, str) else left
        right = len(right) if isinstance(right, str) else right
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise RuntimeFault(
                        "integer division by zero", 136, "Floating point exception (core dumped)\n"
                    )
                return int(left / right)  # C truncating division
            if float(right) == 0.0:
                return float("inf") if left > 0 else (float("-inf") if left < 0 else float("nan"))
            return left / right
        if op == "%":
            lhs, rhs = int(left), int(right)
            if rhs == 0:
                raise RuntimeFault(
                    "integer modulo by zero", 136, "Floating point exception (core dumped)\n"
                )
            return int(math_fmod(lhs, rhs))
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == "<<":
            return int(left) << (int(right) & 63)
        if op == ">>":
            return int(left) >> (int(right) & 63)
    except TypeError:
        raise segv_fault(f"invalid operands to binary '{op}'") from None
    raise RuntimeFault(f"unsupported binary operator {op!r}", 1, "")


def pointer_arith(op: str, left, right):
    if op == "+" and isinstance(left, Pointer) and isinstance(right, (int, float)):
        return left.add(int(right))
    if op == "+" and isinstance(right, Pointer) and isinstance(left, (int, float)):
        return right.add(int(left))
    if op == "-" and isinstance(left, Pointer) and isinstance(right, (int, float)):
        return left.add(-int(right))
    if op == "-" and isinstance(left, Pointer) and isinstance(right, Pointer):
        return (left.byte_offset - right.byte_offset) // max(left.elem_size, 1)
    if op in ("==", "!="):
        same = (
            isinstance(left, Pointer)
            and isinstance(right, Pointer)
            and left.block is right.block
            and left.byte_offset == right.byte_offset
        )
        if isinstance(right, (int, float)) and right == 0:
            same = False
        if isinstance(left, (int, float)) and left == 0:
            same = False
        return (1 if same else 0) if op == "==" else (0 if same else 1)
    if op in ("<", "<=", ">", ">="):
        lo = left.byte_offset if isinstance(left, Pointer) else int(left)
        ro = right.byte_offset if isinstance(right, Pointer) else int(right)
        return 1 if eval(f"{lo} {op} {ro}") else 0  # noqa: S307 - two ints
    raise segv_fault(f"invalid pointer arithmetic '{op}'")


def combine_compound(op: str, left, right):
    """The combining step of ``lhs op= rhs`` (slightly different rules
    from :func:`combine_binary`, preserved exactly)."""
    if isinstance(left, CArray):
        left = left.pointer()
    if isinstance(left, Pointer) or isinstance(right, Pointer):
        return pointer_arith(op, left, right)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if isinstance(left, int) and isinstance(right, int):
            if right == 0:
                raise RuntimeFault(
                    "integer division by zero", 136, "Floating point exception (core dumped)\n"
                )
            return int(left / right)
        if float(right) == 0.0:
            return float("inf")
        return left / right
    if op == "%":
        if int(right) == 0:
            raise RuntimeFault(
                "integer modulo by zero", 136, "Floating point exception (core dumped)\n"
            )
        return int(math_fmod(int(left), int(right)))
    if op == "&":
        return int(left) & int(right)
    if op == "|":
        return int(left) | int(right)
    if op == "^":
        return int(left) ^ int(right)
    if op == "<<":
        return int(left) << (int(right) & 63)
    if op == ">>":
        return int(left) >> (int(right) & 63)
    raise RuntimeFault(f"unsupported compound assignment {op!r}=", 1, "")


def unary_value(op: str, value):
    """Apply a value-producing unary operator (``- + ! ~``)."""
    if value is UNINIT:
        raise segv_fault("use of uninitialized value")
    if op == "-":
        return -value
    if op == "+":
        return value
    if op == "!":
        return 0 if truthy(value) else 1
    if op == "~":
        return ~int(value)
    raise RuntimeFault(f"unsupported unary operator {op!r}", 1, "")


def shadow_value(value, device_block: HeapBlock):
    """Rebind an aggregate value to its device copy for a compute region."""
    if isinstance(value, CArray):
        return CArray(value.elem_type, value.dims, device_block)
    if isinstance(value, Pointer):
        return Pointer(device_block, value.byte_offset, value.pointee)
    return value


class Interpreter:
    """Interpret one translation unit. One instance per program run.

    ``backend`` selects the evaluator: ``"walk"`` is the tree-walker in
    this module, ``"closure"`` the lowered-closure backend from
    :mod:`repro.runtime.compilebody`, ``"codegen"`` the generated-code
    backend from :mod:`repro.runtime.codegen`.  All produce
    byte-identical observables including ``steps``.
    """

    def __init__(
        self,
        unit: ast.TranslationUnit,
        step_limit: int = 2_000_000,
        backend: str = DEFAULT_BACKEND,
    ):
        if backend not in EXECUTION_BACKENDS:
            raise ValueError(
                f"backend must be one of {EXECUTION_BACKENDS}, got {backend!r}"
            )
        self.unit = unit
        self.step_limit = step_limit
        self.backend = backend
        #: step counter as a one-cell list so the closure backend can
        #: capture it in cells while builtins (clock(), omp_get_wtime())
        #: still observe live values through the ``steps`` property
        self._step_state: list[int] = [0]
        self.stdout: list[str] = []
        self.stderr: list[str] = []
        self.heap: list[HeapBlock] = []
        self.device = DeviceEnv()
        self.builtins = Builtins(self)
        self.globals = Environment()
        self.in_compute_region = False
        self.in_parallel_region = False
        self.omp_num_threads = 4
        self._call_depth = 0
        for name, value in _RUNTIME_CONSTANTS.items():
            self.globals.declare(name, value)

    @property
    def steps(self) -> int:
        return self._step_state[0]

    @steps.setter
    def steps(self, value: int) -> None:
        self._step_state[0] = value

    # ------------------------------------------------------------------

    #: recursion headroom so the interpreter's own depth-200 guard — not
    #: the host's RecursionError — is what deep C recursion hits, in both
    #: backends (the walker burns ~15 host frames per C call).  Raised
    #: monotonically and never restored: a set/restore pair would race
    #: between pipeline worker threads sharing the process-global limit.
    _HOST_RECURSION_HEADROOM = 30_000

    def run(self) -> int:
        """Execute main(); return the process return code."""
        if sys.getrecursionlimit() < self._HOST_RECURSION_HEADROOM:
            sys.setrecursionlimit(self._HOST_RECURSION_HEADROOM)
        main = self.unit.function("main")
        if main is None:
            raise RuntimeFault("no main()", 127, "error: no entry point\n")
        # Globals execute through the tree-walker in both backends: they
        # run once, and the walker is the executable spec for their
        # (identical) step accounting.
        for decl in self.unit.globals:
            self._exec_declaration(decl, self.globals)
        try:
            if self.backend == "closure":
                from repro.runtime.compilebody import call_main

                result = call_main(self)
            elif self.backend == "codegen":
                from repro.runtime.codegen import call_main as codegen_main

                result = codegen_main(self)
            else:
                result = self._call_function(main, [])
        except ExitProgram as exc:
            return exc.code & 0xFF
        if result is None or isinstance(result, (CArray, Pointer)) or result is UNINIT:
            return 0
        return int(result) & 0xFF

    # ------------------------------------------------------------------

    def _tick(self) -> None:
        state = self._step_state
        state[0] += 1
        if state[0] > self.step_limit:
            raise StepLimitExceeded(self.step_limit)

    def _segv(self, detail: str) -> RuntimeFault:
        return segv_fault(detail)

    # ------------------------------------------------------------------
    # functions
    # ------------------------------------------------------------------

    def _call_function(self, fn: ast.FunctionDef, args: list):
        self._call_depth += 1
        if self._call_depth > 200:
            self._call_depth -= 1
            raise self._segv("stack overflow (recursion too deep)")
        env = Environment(parent=self.globals)
        for param, value in zip(fn.params, args):
            if param.name:
                ctype = param.ctype.pointer_to() if param.array else param.ctype
                if isinstance(value, CArray):
                    value = value.pointer()
                env.declare(param.name, coerce_to_type(value, ctype), ctype)
        # missing arguments behave as indeterminate
        for param in fn.params[len(args):]:
            if param.name:
                env.declare(param.name, 0, param.ctype)
        try:
            assert fn.body is not None
            self._exec_block(fn.body, env)
        except _ReturnSignal as ret:
            return ret.value
        finally:
            self._call_depth -= 1
        return None

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def _exec_block(self, block: ast.Compound, parent: Environment) -> None:
        env = Environment(parent=parent)
        for stmt in block.body:
            self._exec_stmt(stmt, env)

    def _exec_stmt(self, stmt: ast.Stmt, env: Environment) -> None:
        self._tick()
        if isinstance(stmt, ast.Declaration):
            self._exec_declaration(stmt, env)
        elif isinstance(stmt, ast.ExprStmt):
            if stmt.expr is not None:
                self._eval(stmt.expr, env)
        elif isinstance(stmt, ast.Compound):
            self._exec_block(stmt, env)
        elif isinstance(stmt, ast.If):
            if truthy(self._eval(stmt.cond, env)):
                self._exec_stmt(stmt.then, env)
            elif stmt.otherwise is not None:
                self._exec_stmt(stmt.otherwise, env)
        elif isinstance(stmt, ast.While):
            while truthy(self._eval(stmt.cond, env)):
                self._tick()
                try:
                    self._exec_stmt(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.DoWhile):
            while True:
                self._tick()
                try:
                    self._exec_stmt(stmt.body, env)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not truthy(self._eval(stmt.cond, env)):
                    break
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, env)
        elif isinstance(stmt, ast.Return):
            value = self._eval(stmt.value, env) if stmt.value is not None else None
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.Break):
            raise _BreakSignal()
        elif isinstance(stmt, ast.Continue):
            raise _ContinueSignal()
        elif isinstance(stmt, ast.DirectiveStmt):
            self._exec_directive(stmt, env)
        else:  # pragma: no cover - parser produces no other nodes
            raise RuntimeFault(f"unsupported statement {type(stmt).__name__}", 1, "")

    def _exec_for(self, stmt: ast.For, env: Environment) -> None:
        loop_env = Environment(parent=env)
        if stmt.init is not None:
            self._exec_stmt(stmt.init, loop_env)
        while stmt.cond is None or truthy(self._eval(stmt.cond, loop_env)):
            self._tick()
            try:
                self._exec_stmt(stmt.body, loop_env)
            except _BreakSignal:
                break
            except _ContinueSignal:
                pass
            if stmt.step is not None:
                self._eval(stmt.step, loop_env)

    def _exec_declaration(self, decl: ast.Declaration, env: Environment) -> None:
        for d in decl.declarators:
            if d.is_array:
                dims: list[int] = []
                for dim in d.array_dims:
                    if dim is None:
                        dims.append(0)
                    else:
                        dims.append(max(0, int(self._eval(dim, env))))
                arr = CArray(d.ctype, dims)
                if isinstance(d.init, ast.InitList):
                    flat = self._flatten_init(d.init, env)
                    ptr = arr.pointer()
                    for i, value in enumerate(flat[: arr.flat_length()]):
                        ptr.add(i).store(coerce_to_type(value, d.ctype))
                env.declare(d.name, arr, d.ctype.pointer_to())
            else:
                if d.init is not None:
                    value = self._eval(d.init, env)
                    value = coerce_to_type(value, d.ctype)
                elif d.ctype.is_pointer:
                    value = UNINIT
                else:
                    value = 0.0 if d.ctype.is_floating else 0
                env.declare(d.name, value, d.ctype)

    def _flatten_init(self, init: ast.InitList, env: Environment) -> list:
        flat: list = []
        for item in init.items:
            if isinstance(item, ast.InitList):
                flat.extend(self._flatten_init(item, env))
            else:
                flat.append(self._eval(item, env))
        return flat

    # ------------------------------------------------------------------
    # directives
    # ------------------------------------------------------------------

    def _exec_directive(self, stmt: ast.DirectiveStmt, env: Environment) -> None:
        directive = stmt.directive
        if not isinstance(directive, Directive):
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
            return
        if directive.model == "acc":
            self._exec_acc(stmt, directive, env)
        else:
            self._exec_omp(stmt, directive, env)

    # -- OpenACC -----------------------------------------------------------

    _ACC_COMPUTE = frozenset(
        {"parallel", "kernels", "serial", "parallel loop", "kernels loop", "serial loop"}
    )

    def _exec_acc(self, stmt: ast.DirectiveStmt, d: Directive, env: Environment) -> None:
        if d.has_clause("if"):
            cond_text = d.clause("if").argument or "1"
            if not self._eval_clause_scalar(cond_text, env):
                if stmt.construct is not None:
                    self._exec_stmt(stmt.construct, env)
                return
        if d.name in self._ACC_COMPUTE:
            self._run_mapped_region(
                stmt, d, env, model="acc", compute=True, reduction_shared=self._reduction_vars(d)
            )
        elif d.name == "data":
            self._run_mapped_region(stmt, d, env, model="acc", compute=False)
        elif d.name == "host_data":
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        elif d.name == "enter data":
            for clause in d.clauses:
                sem = ACC_CLAUSE_SEMANTICS.get(clause.name)
                if sem is None:
                    continue
                enter_copy, _, _ = sem
                for name in clause.variables():
                    block = block_of(self._lookup_aggregate(name, env))
                    if block is not None:
                        self.device.map_block(block, copyin=enter_copy)
        elif d.name == "exit data":
            finalize = d.has_clause("finalize")
            for clause in d.clauses:
                if clause.name not in ("copyout", "delete", "detach"):
                    continue
                for name in clause.variables():
                    block = block_of(self._lookup_aggregate(name, env))
                    if block is not None:
                        self.device.unmap_block(
                            block, copyout=clause.name == "copyout", finalize=finalize
                        )
        elif d.name == "update":
            for clause in d.clauses:
                if clause.name in ("self", "host"):
                    for name in clause.variables():
                        block = block_of(self._lookup_aggregate(name, env))
                        if block is not None:
                            self.device.update_host(block)
                elif clause.name == "device":
                    for name in clause.variables():
                        block = block_of(self._lookup_aggregate(name, env))
                        if block is not None:
                            self.device.update_device(block)
        elif d.name == "loop":
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        elif d.name == "atomic":
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        elif d.name in ("wait", "init", "shutdown", "set", "cache", "routine", "declare"):
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        else:
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)

    # -- OpenMP ------------------------------------------------------------

    _OMP_TARGET_COMPUTE = frozenset(
        {
            "target", "target parallel", "target parallel for",
            "target parallel for simd", "target simd", "target teams",
            "target teams distribute", "target teams distribute simd",
            "target teams distribute parallel for",
            "target teams distribute parallel for simd",
        }
    )
    _OMP_HOST_PARALLEL = frozenset(
        {
            "parallel", "parallel for", "parallel for simd", "for", "for simd",
            "sections", "section", "single", "master", "critical", "task",
            "taskloop", "taskloop simd", "simd", "teams", "distribute",
            "distribute parallel for", "distribute simd", "ordered", "taskgroup",
        }
    )

    def _exec_omp(self, stmt: ast.DirectiveStmt, d: Directive, env: Environment) -> None:
        if d.has_clause("if"):
            cond_text = d.clause("if").argument or "1"
            cond_text = cond_text.split(":")[-1]  # tolerate 'target:' modifier
            if not self._eval_clause_scalar(cond_text, env):
                if stmt.construct is not None:
                    self._exec_stmt(stmt.construct, env)
                return
        if d.name in self._OMP_TARGET_COMPUTE:
            self._run_mapped_region(
                stmt, d, env, model="omp", compute=True, reduction_shared=self._reduction_vars(d)
            )
        elif d.name == "target data":
            self._run_mapped_region(stmt, d, env, model="omp", compute=False)
        elif d.name in ("target enter data", "target exit data"):
            entering = d.name == "target enter data"
            for clause in d.clauses:
                if clause.name != "map":
                    continue
                map_type = (clause.modifier() or ("to" if entering else "from")).split(",")[-1].strip()
                enter_copy, exit_copy = OMP_MAP_SEMANTICS.get(map_type, (False, False))
                for name in clause.variables():
                    block = block_of(self._lookup_aggregate(name, env))
                    if block is None:
                        continue
                    if entering:
                        self.device.map_block(block, copyin=enter_copy)
                    else:
                        self.device.unmap_block(block, copyout=exit_copy)
        elif d.name == "target update":
            for clause in d.clauses:
                if clause.name == "to":
                    for name in clause.variables():
                        block = block_of(self._lookup_aggregate(name, env))
                        if block is not None:
                            self.device.update_device(block)
                elif clause.name == "from":
                    for name in clause.variables():
                        block = block_of(self._lookup_aggregate(name, env))
                        if block is not None:
                            self.device.update_host(block)
        elif d.name in self._OMP_HOST_PARALLEL:
            self._run_host_parallel(stmt, d, env)
        elif d.name == "atomic":
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        else:
            # barrier/taskwait/flush/threadprivate/declare target/...: no-ops
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)

    # ------------------------------------------------------------------
    # region machinery
    # ------------------------------------------------------------------

    @staticmethod
    def _reduction_vars(d: Directive) -> set[str]:
        names: set[str] = set()
        for clause in d.clauses:
            if clause.name == "reduction":
                names.update(clause.variables())
        return names

    def _lookup_aggregate(self, name: str, env: Environment):
        holder = env.lookup_env(name)
        return holder.vars[name] if holder is not None else None

    def _eval_clause_scalar(self, text: str, env: Environment) -> bool:
        """Evaluate an if-clause condition expression."""
        from repro.compiler.cparser import Parser
        from repro.compiler.diagnostics import DiagnosticEngine
        from repro.compiler.lexer import Lexer

        diags = DiagnosticEngine()
        tokens = Lexer(text, "<clause>", diags).tokenize()
        expr = Parser(tokens, diags, "<clause>").parse_expression()
        if expr is None or diags.has_errors:
            return True
        try:
            return truthy(self._eval(expr, env))
        except RuntimeFault:
            return True

    def _collect_clause_mappings(
        self, d: Directive, env: Environment, model: str
    ) -> tuple[dict[str, tuple[bool, bool, bool]], set[str]]:
        """Per-variable (enter_copy, exit_copy, require_present) + privates."""
        mappings: dict[str, tuple[bool, bool, bool]] = {}
        privates: set[str] = set()
        for clause in d.clauses:
            if model == "acc" and clause.name in ACC_CLAUSE_SEMANTICS:
                sem = ACC_CLAUSE_SEMANTICS[clause.name]
                for name in clause.variables():
                    mappings[name] = sem
            elif model == "omp" and clause.name == "map":
                map_type = (clause.modifier() or "tofrom").split(",")[-1].strip()
                enter_copy, exit_copy = OMP_MAP_SEMANTICS.get(map_type, (True, True))
                for name in clause.variables():
                    mappings[name] = (enter_copy, exit_copy, False)
            elif clause.name in ("private", "firstprivate", "lastprivate"):
                privates.update(clause.variables())
        return mappings, privates

    def _referenced_aggregates(
        self, construct: ast.Stmt | None, env: Environment, explicit: set[str]
    ) -> list[str]:
        """Aggregates referenced in the construct, minus explicit clauses."""
        if construct is None:
            return []
        names: list[str] = []
        seen: set[str] = set()
        for expr in ast.walk_expressions(construct):
            if isinstance(expr, ast.Identifier) and expr.name not in seen:
                seen.add(expr.name)
                if expr.name in explicit:
                    continue
                value = self._lookup_aggregate(expr.name, env)
                if block_of(value) is not None:
                    names.append(expr.name)
        return names

    def _shadow_value(self, value, device_block: HeapBlock):
        return shadow_value(value, device_block)

    def _run_mapped_region(
        self,
        stmt: ast.DirectiveStmt,
        d: Directive,
        env: Environment,
        model: str,
        compute: bool,
        reduction_shared: set[str] | None = None,
    ) -> None:
        mappings, privates = self._collect_clause_mappings(d, env, model)
        region_env = Environment(parent=env)
        entered: list[tuple[HeapBlock, bool]] = []
        # explicit mappings: enter the present table.  Only *compute*
        # regions rebind names to the device copy — host code between the
        # compute constructs of a data region keeps writing host memory.
        for name, (enter_copy, exit_copy, require_present) in mappings.items():
            value = self._lookup_aggregate(name, env)
            if value is None or value is UNINIT:
                raise self._segv(f"mapping of uninitialized pointer '{name}'")
            block = block_of(value)
            if block is None:
                continue  # scalar in a data clause: firstprivate-like
            if require_present:
                device_block = self.device.require_present(block, name)
            else:
                device_block = self.device.map_block(block, copyin=enter_copy)
                entered.append((block, exit_copy))
            if compute:
                region_env.declare(name, self._shadow_value(value, device_block), env.type_of(name))
        if compute:
            # aggregates referenced in the region but not in a clause:
            # already-present ones see the device copy (present-or-copy
            # semantics); absent ones get an implicit copy.
            for name in self._referenced_aggregates(stmt.construct, env, set(mappings) | privates):
                value = self._lookup_aggregate(name, env)
                block = block_of(value)
                if block is None or block.device:
                    continue
                device_block = self.device.device_block(block)
                if device_block is None:
                    device_block = self.device.map_block(block, copyin=True)
                    entered.append((block, True))  # implicit copy
                region_env.declare(name, self._shadow_value(value, device_block), env.type_of(name))
            # scalars: firstprivate by default, reduction vars stay shared
            reduction_shared = reduction_shared or set()
            snapshot = self._scalar_snapshot(stmt.construct, env, reduction_shared, set(mappings) | privates)
        else:
            snapshot = {}
        prev_compute = self.in_compute_region
        if compute:
            self.in_compute_region = True
        try:
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, region_env)
        finally:
            self.in_compute_region = prev_compute
            for block, copyout in reversed(entered):
                self.device.unmap_block(block, copyout=copyout)
            for name, (holder, value) in snapshot.items():
                holder.vars[name] = value

    def _scalar_snapshot(
        self,
        construct: ast.Stmt | None,
        env: Environment,
        shared: set[str],
        skip: set[str],
    ) -> dict[str, tuple[Environment, object]]:
        """Snapshot scalar values written in a compute region.

        OpenACC/OpenMP default scalars to firstprivate in offloaded
        regions: writes inside the region are not visible after it.
        Variables in reduction clauses keep shared semantics.
        """
        if construct is None:
            return {}
        written: set[str] = set()
        for expr in ast.walk_expressions(construct):
            if isinstance(expr, ast.Assignment) and isinstance(expr.target, ast.Identifier):
                written.add(expr.target.name)
            elif isinstance(expr, ast.UnaryOp) and expr.op in ("++", "--") and isinstance(
                expr.operand, ast.Identifier
            ):
                written.add(expr.operand.name)
        snapshot: dict[str, tuple[Environment, object]] = {}
        for name in written - shared - skip:
            holder = env.lookup_env(name)
            if holder is None:
                continue
            value = holder.vars[name]
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                # loop induction variables of region-local loops are declared
                # inside region scope; only outer scalars need the snapshot
                snapshot[name] = (holder, value)
        return snapshot

    def _run_host_parallel(self, stmt: ast.DirectiveStmt, d: Directive, env: Environment) -> None:
        privates: dict[str, tuple[Environment, object]] = {}
        fresh: list[tuple[Environment, str]] = []
        for clause in d.clauses:
            if clause.name in ("private", "firstprivate"):
                for name in clause.variables():
                    holder = env.lookup_env(name)
                    if holder is None:
                        continue
                    privates[name] = (holder, holder.vars[name])
                    if clause.name == "private":
                        value = holder.vars[name]
                        if isinstance(value, float):
                            holder.vars[name] = 0.0
                        elif isinstance(value, int):
                            holder.vars[name] = 0
        prev = self.in_parallel_region
        if d.name.startswith(("parallel", "teams")) or " parallel" in d.name:
            self.in_parallel_region = True
        try:
            if stmt.construct is not None:
                self._exec_stmt(stmt.construct, env)
        finally:
            self.in_parallel_region = prev
            lastprivate = {
                name
                for clause in d.clauses
                if clause.name == "lastprivate"
                for name in clause.variables()
            }
            for name, (holder, value) in privates.items():
                if name not in lastprivate:
                    holder.vars[name] = value
        del fresh

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Environment):
        self._tick()
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            return expr.value
        if isinstance(expr, ast.CharLiteral):
            return ord(expr.value[0]) if expr.value else 0
        if isinstance(expr, ast.Identifier):
            value = env.get(expr.name)
            return value
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, env)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, env)
        if isinstance(expr, ast.Assignment):
            return self._eval_assignment(expr, env)
        if isinstance(expr, ast.Conditional):
            if truthy(self._eval(expr.cond, env)):
                return self._eval(expr.then, env)
            return self._eval(expr.otherwise, env)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, env)
        if isinstance(expr, ast.Index):
            ref = self._resolve_index(expr, env)
            value = ref.load()
            if value is UNINIT:
                return 0
            return value
        if isinstance(expr, ast.Cast):
            value = self._eval(expr.operand, env)
            if isinstance(value, Pointer) and expr.target_type.is_pointer:
                return value.retag(expr.target_type.pointee())
            if isinstance(value, (Pointer, CArray)):
                return value
            return coerce_to_type(value, expr.target_type)
        if isinstance(expr, ast.SizeOf):
            if expr.target_type is not None:
                return sizeof_type(expr.target_type)
            value = self._eval(expr.operand, env) if expr.operand is not None else 0
            if isinstance(value, CArray):
                return value.block.size
            if isinstance(value, Pointer):
                return 8
            if isinstance(value, float):
                return 8
            return 4
        if isinstance(expr, ast.CommaExpr):
            result = 0
            for part in expr.parts:
                result = self._eval(part, env)
            return result
        if isinstance(expr, ast.Member):
            raise RuntimeFault(
                "struct member access is not supported by this substrate", 1,
                "runtime error: unsupported struct access\n",
            )
        if isinstance(expr, ast.InitList):
            return [self._eval(item, env) for item in expr.items]
        raise RuntimeFault(f"unsupported expression {type(expr).__name__}", 1, "")

    def _eval_binary(self, expr: ast.BinaryOp, env: Environment):
        op = expr.op
        if op == "&&":
            return 1 if truthy(self._eval(expr.left, env)) and truthy(self._eval(expr.right, env)) else 0
        if op == "||":
            return 1 if truthy(self._eval(expr.left, env)) or truthy(self._eval(expr.right, env)) else 0
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        return combine_binary(op, left, right)

    def _pointer_arith(self, op: str, left, right):
        return pointer_arith(op, left, right)

    def _eval_unary(self, expr: ast.UnaryOp, env: Environment):
        op = expr.op
        if op in ("++", "--"):
            ref = self._resolve_lvalue(expr.operand, env)
            old = ref.load()
            if old is UNINIT:
                old = 0
            if isinstance(old, Pointer):
                new = old.add(1 if op == "++" else -1)
            else:
                new = old + (1 if op == "++" else -1)
            ref.store(new)
            return new if expr.prefix else old
        if op == "&":
            ref = self._resolve_lvalue(expr.operand, env)
            return ref.address()
        if op == "*":
            value = self._eval(expr.operand, env)
            if value is UNINIT or value == 0 or value is None:
                raise self._segv("dereference of NULL or uninitialized pointer")
            if isinstance(value, CArray):
                value = value.pointer()
            if not isinstance(value, Pointer):
                raise self._segv("dereference of a non-pointer value")
            loaded = value.load()
            return 0 if loaded is UNINIT else loaded
        value = self._eval(expr.operand, env)
        return unary_value(op, value)

    def _eval_assignment(self, expr: ast.Assignment, env: Environment):
        ref = self._resolve_lvalue(expr.target, env)
        value = self._eval(expr.value, env)
        if expr.op == "=":
            ref.store(value)
            return value
        old = ref.load()
        if old is UNINIT:
            old = 0
        binop = expr.op[:-1]
        combined = self._apply_binop(binop, old, value)
        ref.store(combined)
        return combined

    def _apply_binop(self, op: str, left, right):
        return combine_compound(op, left, right)

    def _eval_call(self, expr: ast.Call, env: Environment):
        fn = self.unit.function(expr.callee)
        args = [self._eval(arg, env) for arg in expr.args]
        if fn is not None:
            return self._call_function(fn, args)
        builtin = self.builtins.lookup(expr.callee)
        if builtin is not None:
            try:
                return builtin(*args)
            except (TypeError, IndexError) as exc:
                raise RuntimeFault(
                    f"bad call to {expr.callee}: {exc}", 139, "Segmentation fault (core dumped)\n"
                ) from exc
        # a value bound to the name? (function pointers unsupported)
        raise RuntimeFault(
            f"call to undefined function '{expr.callee}'", 127,
            f"symbol lookup error: undefined symbol: {expr.callee}\n",
        )

    # ------------------------------------------------------------------
    # lvalues
    # ------------------------------------------------------------------

    def _resolve_lvalue(self, expr: ast.Expr, env: Environment) -> "_Ref":
        if isinstance(expr, ast.Identifier):
            holder = env.lookup_env(expr.name)
            if holder is None:
                raise self._segv(f"assignment to unknown symbol '{expr.name}'")
            return _VarRef(holder, expr.name)
        if isinstance(expr, ast.Index):
            return self._resolve_index(expr, env)
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            value = self._eval(expr.operand, env)
            if value is UNINIT or value == 0 or value is None:
                raise self._segv("dereference of NULL or uninitialized pointer")
            if isinstance(value, CArray):
                value = value.pointer()
            if not isinstance(value, Pointer):
                raise self._segv("dereference of a non-pointer value")
            return _PtrRef(value)
        raise self._segv(f"expression is not assignable ({type(expr).__name__})")

    def _resolve_index(self, expr: ast.Index, env: Environment) -> "_Ref":
        # collect the index chain down to the base expression
        indices: list[int] = []
        node: ast.Expr = expr
        while isinstance(node, ast.Index):
            idx_val = self._eval(node.index, env)
            if idx_val is UNINIT:
                raise self._segv("array subscript is uninitialized")
            indices.append(int(idx_val))
            node = node.base
        indices.reverse()
        base = self._eval(node, env)
        if base is UNINIT or base is None or base == 0:
            raise self._segv("subscript of NULL or uninitialized pointer")
        try:
            if isinstance(base, CArray):
                ptr = base.subarray_pointer(indices)
                return _PtrRef(ptr)
            if isinstance(base, Pointer):
                ptr = base
                for idx in indices:
                    ptr = ptr.index(idx)
                return _PtrRef(ptr)
        except MemoryFault as exc:
            raise self._segv(str(exc)) from exc
        raise self._segv("subscript applied to a non-array value")


def math_fmod(a: int, b: int) -> int:
    """C's % (truncated toward zero), not Python's floored %."""
    result = abs(a) % abs(b)
    return -result if a < 0 else result


class _Ref:
    def load(self):  # pragma: no cover - interface
        raise NotImplementedError

    def store(self, value) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def address(self):  # pragma: no cover - interface
        raise NotImplementedError


class _VarRef(_Ref):
    def __init__(self, env: Environment, name: str):
        self.env = env
        self.name = name

    def load(self):
        return self.env.vars[self.name]

    def store(self, value) -> None:
        ctype = self.env.types.get(self.name)
        self.env.vars[self.name] = coerce_to_type(value, ctype) if ctype is not None else value

    def address(self):
        value = self.env.vars[self.name]
        if isinstance(value, CArray):
            return value.pointer()
        # box the scalar in a one-cell block so &x works for update clauses
        ctype = self.env.types.get(self.name) or ast.DOUBLE
        block = HeapBlock(size=sizeof_type(ctype), label="addressed-scalar")
        block.cells[0] = value
        return Pointer(block, 0, ctype)


class _PtrRef(_Ref):
    def __init__(self, ptr: Pointer):
        self.ptr = ptr

    def load(self):
        try:
            return self.ptr.load()
        except MemoryFault as exc:
            raise RuntimeFault(str(exc), 139, "Segmentation fault (core dumped)\n") from exc

    def store(self, value) -> None:
        try:
            self.ptr.store(coerce_to_type(value, self.ptr.pointee))
        except MemoryFault as exc:
            raise RuntimeFault(str(exc), 139, "Segmentation fault (core dumped)\n") from exc

    def address(self):
        return self.ptr
