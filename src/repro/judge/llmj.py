"""Judge front-ends: prompt, generate, parse, retry.

:class:`DirectLLMJ` implements the paper's Part One judge (no tools);
:class:`AgentLLMJ` implements LLMJ 1 (``kind="direct"``) and LLMJ 2
(``kind="indirect"``).  A completion that does not contain the
contracted phrase is re-prompted up to ``max_retries`` times; if every
attempt is malformed the tolerant parse of the last attempt is used,
and the result records how the verdict was obtained.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport, ToolRunner
from repro.judge.parser import ParsedJudgment, Verdict, parse_judgment
from repro.judge.prompts import agent_direct_prompt, agent_indirect_prompt, direct_prompt
from repro.llm.model import DeepSeekCoderSim


@dataclass(frozen=True)
class JudgeResult:
    """One judged file."""

    test_name: str
    verdict: Verdict | None
    response: str
    prompt_mode: str
    attempts: int = 1
    strict_parse: bool = True
    tool_report: ToolReport | None = None
    prompt_tokens: int = 0
    completion_tokens: int = 0

    @property
    def says_valid(self) -> bool:
        return self.verdict is Verdict.VALID

    @property
    def says_invalid(self) -> bool:
        return self.verdict is Verdict.INVALID

    @property
    def simulated_seconds(self) -> float:
        """Service time of this judgment under the LLM cost model."""
        from repro.llm.model import simulated_call_seconds

        return simulated_call_seconds(self.prompt_tokens, self.completion_tokens)

    # ------------------------------------------------------------------
    # JSON round-trip (cache disk persistence)
    # ------------------------------------------------------------------

    def to_json(self) -> dict:
        report = self.tool_report
        return {
            "test_name": self.test_name,
            "verdict": self.verdict.value if self.verdict is not None else None,
            "response": self.response,
            "prompt_mode": self.prompt_mode,
            "attempts": self.attempts,
            "strict_parse": self.strict_parse,
            "tool_report": None if report is None else {
                "compile_rc": report.compile_rc,
                "compile_stderr": report.compile_stderr,
                "compile_stdout": report.compile_stdout,
                "run_rc": report.run_rc,
                "run_stderr": report.run_stderr,
                "run_stdout": report.run_stdout,
                "diagnostic_codes": list(report.diagnostic_codes),
            },
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
        }

    @classmethod
    def from_json(cls, data: dict) -> "JudgeResult":
        raw_report = data.get("tool_report")
        report = None
        if raw_report is not None:
            report = ToolReport(
                compile_rc=raw_report["compile_rc"],
                compile_stderr=raw_report["compile_stderr"],
                compile_stdout=raw_report["compile_stdout"],
                run_rc=raw_report["run_rc"],
                run_stderr=raw_report["run_stderr"],
                run_stdout=raw_report["run_stdout"],
                diagnostic_codes=tuple(raw_report["diagnostic_codes"]),
            )
        verdict = data["verdict"]
        return cls(
            test_name=data["test_name"],
            verdict=None if verdict is None else Verdict(verdict),
            response=data["response"],
            prompt_mode=data["prompt_mode"],
            attempts=data["attempts"],
            strict_parse=data["strict_parse"],
            tool_report=report,
            prompt_tokens=data["prompt_tokens"],
            completion_tokens=data["completion_tokens"],
        )


class _JudgeBase:
    def __init__(self, model: DeepSeekCoderSim, flavor: str, max_retries: int = 2):
        if flavor not in ("acc", "omp"):
            raise ValueError(f"flavor must be 'acc' or 'omp', got {flavor!r}")
        self.model = model
        self.flavor = flavor
        self.max_retries = max_retries

    def _generate_and_parse(self, prompt: str) -> tuple[ParsedJudgment, str, int, int, int]:
        parsed = ParsedJudgment(None, strict=False)
        response = ""
        attempts = 0
        prompt_tokens = 0
        completion_tokens = 0
        for attempt in range(self.max_retries + 1):
            attempts = attempt + 1
            completion = self.model.generate(prompt, attempt=attempt)
            prompt_tokens += completion.prompt_tokens
            completion_tokens += completion.completion_tokens
            response = str(completion)
            parsed = parse_judgment(response)
            if parsed.ok and parsed.strict:
                break
        return parsed, response, attempts, prompt_tokens, completion_tokens


class DirectLLMJ(_JudgeBase):
    """Part One's tool-less judge (direct-analysis prompt, Listing 3)."""

    mode = "direct"

    def fingerprint(self) -> str:
        """Configuration identity for content-addressed caching."""
        return (
            f"direct:{self.flavor}:{self.model.seed}"
            f":{self.model.max_context_tokens}:{self.max_retries}"
        )

    def judge(self, test: TestFile) -> JudgeResult:
        prompt = direct_prompt(test.source, self.flavor)
        parsed, response, attempts, ptok, ctok = self._generate_and_parse(prompt)
        return JudgeResult(
            test_name=test.name,
            verdict=parsed.verdict,
            response=response,
            prompt_mode=self.mode,
            attempts=attempts,
            strict_parse=parsed.strict,
            prompt_tokens=ptok,
            completion_tokens=ctok,
        )


class AgentLLMJ(_JudgeBase):
    """Agent-based judge: tool outputs embedded in the prompt.

    ``kind="direct"`` is the paper's LLMJ 1, ``kind="indirect"`` LLMJ 2.
    """

    def __init__(
        self,
        model: DeepSeekCoderSim,
        flavor: str,
        kind: str = "direct",
        tools: ToolRunner | None = None,
        max_retries: int = 2,
        execution_backend: str = "closure",
    ):
        super().__init__(model, flavor, max_retries)
        if kind not in ("direct", "indirect"):
            raise ValueError(f"kind must be 'direct' or 'indirect', got {kind!r}")
        self.kind = kind
        self.tools = tools or ToolRunner(flavor, execution_backend=execution_backend)

    @property
    def mode(self) -> str:
        return f"agent-{self.kind}"

    def fingerprint(self) -> str:
        """Configuration identity for content-addressed caching."""
        return (
            f"agent:{self.kind}:{self.flavor}:{self.model.seed}"
            f":{self.model.max_context_tokens}:{self.max_retries}"
        )

    def build_prompt(self, test: TestFile, report: ToolReport) -> str:
        builder = agent_direct_prompt if self.kind == "direct" else agent_indirect_prompt
        return builder(
            code=test.source,
            flavor=self.flavor,
            compile_rc=report.compile_rc,
            compile_stderr=report.compile_stderr,
            compile_stdout=report.compile_stdout,
            run_rc=report.run_rc,
            run_stderr=report.run_stderr,
            run_stdout=report.run_stdout,
        )

    def judge(self, test: TestFile, report: ToolReport | None = None) -> JudgeResult:
        """Judge one file, collecting tool info if not supplied."""
        if report is None:
            report = self.tools.collect(test)
        prompt = self.build_prompt(test, report)
        parsed, response, attempts, ptok, ctok = self._generate_and_parse(prompt)
        return JudgeResult(
            test_name=test.name,
            verdict=parsed.verdict,
            response=response,
            prompt_mode=self.mode,
            attempts=attempts,
            strict_parse=parsed.strict,
            tool_report=report,
            prompt_tokens=ptok,
            completion_tokens=ctok,
        )
