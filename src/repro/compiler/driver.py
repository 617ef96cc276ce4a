"""The compiler driver: source text in, (return code, stdout, stderr) out.

:class:`Compiler` wires the front-end stages together the way ``nvc`` or
``clang`` does, and produces a :class:`CompileResult` carrying exactly
the observables the validation pipeline and the agent-based LLM judge
consume: the driver's return code, stdout, and rendered stderr — plus
the analyzed AST (the "object file") for the execution stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cache.keys import compile_key
from repro.compiler import astnodes as ast
from repro.compiler.cparser import Parser
from repro.compiler.diagnostics import Diagnostic, DiagnosticEngine, TooManyErrors
from repro.compiler.fortran import FortranFrontEnd
from repro.compiler.lexer import Lexer
from repro.compiler.preprocessor import Preprocessor
from repro.compiler.semantic import SemanticAnalyzer, SemanticInfo

C_EXTENSIONS = (".c",)
CPP_EXTENSIONS = (".cpp", ".cxx", ".cc", ".C")
FORTRAN_EXTENSIONS = (".f90", ".f95", ".f03", ".F90", ".f")


def detect_language(filename: str) -> str:
    """Map a filename to 'c', 'c++' or 'fortran' (default 'c')."""
    lower = filename.lower()
    for ext in FORTRAN_EXTENSIONS:
        if lower.endswith(ext.lower()):
            return "fortran"
    if filename.endswith(".C"):  # big-C is C++, little-c is C
        return "c++"
    for ext in (".cpp", ".cxx", ".cc"):
        if lower.endswith(ext):
            return "c++"
    return "c"


def testfile_language(filename: str) -> str:
    """Map a filename to a :class:`TestFile` language ('c'|'cpp'|'f90').

    The one place the driver's language names ('c++', 'fortran') are
    translated to the corpus dialect tags; the validator and the
    service's judge endpoint both use it, so they can never diverge.
    """
    detected = detect_language(filename)
    if detected == "fortran":
        return "f90"
    return "cpp" if detected == "c++" else "c"


@dataclass
class CompileResult:
    """Everything a driver invocation produces."""

    returncode: int
    stdout: str
    stderr: str
    filename: str
    language: str
    unit: ast.TranslationUnit | None = None
    info: SemanticInfo | None = None
    diagnostic_codes: list[str] = field(default_factory=list)
    error_count: int = 0
    warning_count: int = 0
    #: content address of the program: toolchain fingerprint, language
    #: and source, but not the file name (see :meth:`Compiler.program_key`);
    #: empty for results built outside a Compiler (tests, environment
    #: substitutions) — downstream caches skip such results.
    content_key: str = ""
    #: the diagnostics ``stderr`` was rendered from
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def has_code(self, code: str) -> bool:
        return code in self.diagnostic_codes

    def renamed(self, filename: str) -> "CompileResult":
        """This result as a compile of the same program named ``filename``.

        Only ``filename``, the diagnostics' locations and the ``stderr``
        rendered from them name the file; the AST and its analysis are
        shared as they are, since nothing after compile reads their
        locations.  The language is part of the program key, so the
        caller guarantees ``filename`` maps to the same language.
        """
        if filename == self.filename:
            return self
        diagnostics = [
            replace(d, location=replace(d.location, filename=filename))
            if d.location is not None and d.location.filename == self.filename
            else d
            for d in self.diagnostics
        ]
        return replace(
            self,
            filename=filename,
            diagnostics=diagnostics,
            stderr=DiagnosticEngine(diagnostics=diagnostics).render_stderr(),
        )


class Compiler:
    """A simulated OpenACC/OpenMP toolchain driver.

    Parameters
    ----------
    model:
        ``'acc'`` (think ``nvc -acc``) or ``'omp'`` (think
        ``clang -fopenmp``).  Controls which feature-test macro is
        predefined and, for OpenMP, the maximum supported version.
    openmp_max_version:
        Directives newer than this are rejected with
        ``unsupported-feature`` — mirrors the paper's use of an
        LLVM toolchain that is fully compliant only up to 4.5.
    """

    def __init__(self, model: str = "acc", openmp_max_version: float = 4.5):
        if model not in ("acc", "omp"):
            raise ValueError(f"model must be 'acc' or 'omp', got {model!r}")
        self.model = model
        self.openmp_max_version = openmp_max_version

    @property
    def name(self) -> str:
        return "nvc (simulated)" if self.model == "acc" else "clang -fopenmp (simulated)"

    def fingerprint(self) -> str:
        """Configuration identity for content-addressed caching."""
        return f"compiler:{self.model}:{self.openmp_max_version}"

    def program_key(self, source: str, filename: str) -> str:
        """Content address of compiling ``source`` as ``filename``.

        The one place the compile key is computed: results carry it as
        :attr:`CompileResult.content_key` and the compile cache looks
        them up by it.  Only the file name's language enters the key.
        """
        return compile_key(self.fingerprint(), detect_language(filename), source)

    def language_macros(self) -> dict[str, str]:
        macros = {"__LINE__": "0", "__STDC__": "1"}
        if self.model == "acc":
            macros["_OPENACC"] = "201711"
        else:
            macros["_OPENMP"] = "201511"  # 4.5
        return macros

    # ------------------------------------------------------------------

    def compile(self, source: str, filename: str = "<input>") -> CompileResult:
        """Compile one translation unit; never raises on bad input."""
        language = detect_language(filename)
        diags = DiagnosticEngine()
        unit: ast.TranslationUnit | None = None
        info: SemanticInfo | None = None
        try:
            if language == "fortran":
                front = FortranFrontEnd(diags, filename)
                unit = front.parse(source)
            else:
                lexer = Lexer(source, filename, diags)
                tokens = lexer.tokenize()
                pp = Preprocessor(diags, self.language_macros())
                ppresult = pp.run(tokens)
                parser = Parser(ppresult.tokens, diags, filename)
                unit = parser.parse_translation_unit()
                unit.includes = ppresult.includes
                unit.defines = ppresult.defines
            if not diags.has_errors or diags.error_count < diags.error_limit:
                analyzer = SemanticAnalyzer(diags, self.openmp_max_version)
                info = analyzer.analyze(unit)
        except TooManyErrors:
            pass  # diagnostics already hold the errors
        except RecursionError:
            diags.fatal("input too deeply nested for this front-end", code="too-complex")

        stderr = diags.render_stderr()
        returncode = 0 if not diags.has_errors else (1 if diags.error_count < diags.error_limit else 2)
        return CompileResult(
            content_key=self.program_key(source, filename),
            returncode=returncode,
            stdout="",
            stderr=stderr,
            filename=filename,
            language=language,
            unit=unit if not diags.has_errors else unit,
            info=info,
            diagnostic_codes=diags.codes(),
            error_count=diags.error_count,
            warning_count=diags.warning_count,
            diagnostics=list(diags.diagnostics),
        )
