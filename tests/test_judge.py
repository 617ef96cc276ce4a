"""Unit tests for the judge layer: parser, prompts, agent, front-ends."""

import pytest

from repro.corpus.generator import TestFile
from repro.judge.agent import ToolReport, ToolRunner
from repro.judge.criteria import criteria_text
from repro.judge.llmj import AgentLLMJ, DirectLLMJ
from repro.judge.parser import Verdict, parse_judgment
from repro.judge.prompts import agent_direct_prompt, agent_indirect_prompt, direct_prompt
from repro.llm.model import DeepSeekCoderSim


class TestJudgmentParser:
    def test_strict_valid(self):
        parsed = parse_judgment("... FINAL JUDGEMENT: valid")
        assert parsed.verdict is Verdict.VALID
        assert parsed.strict

    def test_strict_invalid(self):
        parsed = parse_judgment("blah\nFINAL JUDGEMENT: invalid\n")
        assert parsed.verdict is Verdict.INVALID
        assert parsed.strict

    def test_correct_vocabulary(self):
        assert parse_judgment("FINAL JUDGEMENT: correct").verdict is Verdict.VALID
        assert parse_judgment("FINAL JUDGEMENT: incorrect").verdict is Verdict.INVALID

    def test_last_occurrence_wins(self):
        text = "FINAL JUDGEMENT: valid ... on reflection FINAL JUDGEMENT: invalid"
        assert parse_judgment(text).verdict is Verdict.INVALID

    def test_loose_case_insensitive(self):
        parsed = parse_judgment("Final judgement: Valid")
        assert parsed.verdict is Verdict.VALID
        assert not parsed.strict

    def test_loose_judgment_spelling(self):
        parsed = parse_judgment("FINAL JUDGMENT: invalid")
        assert parsed.verdict is Verdict.INVALID
        assert not parsed.strict

    def test_keyword_fallback_negative_priority(self):
        parsed = parse_judgment("In summary the test is invalid.")
        assert parsed.verdict is Verdict.INVALID

    def test_keyword_fallback_positive(self):
        parsed = parse_judgment("I conclude the test is valid.")
        assert parsed.verdict is Verdict.VALID

    def test_no_verdict(self):
        parsed = parse_judgment("I cannot decide.")
        assert parsed.verdict is None
        assert not parsed.ok

    def test_invalid_not_matched_as_valid(self):
        # 'invalid' contains 'valid': negatives must win
        assert parse_judgment("this is invalid").verdict is Verdict.INVALID

    def test_keyword_scan_limited_to_tail(self):
        text = "the valid range of inputs\n" + "x\n" * 10 + "no verdict here"
        assert parse_judgment(text).verdict is None


class TestPrompts:
    def test_criteria_parameterized_by_flavor(self):
        acc = criteria_text("acc")
        omp = criteria_text("omp")
        assert "OpenACC" in acc and "OpenACC" not in omp
        assert "OpenMP" in omp

    def test_direct_prompt_contract(self, valid_acc_source):
        prompt = direct_prompt(valid_acc_source, "acc")
        assert 'FINAL JUDGEMENT: correct' in prompt
        assert "Here is the code:" in prompt
        assert valid_acc_source.strip() in prompt

    def test_agent_direct_prompt_embeds_tool_info(self, valid_acc_source):
        prompt = agent_direct_prompt(
            valid_acc_source, "acc", 1, "an error", "out", 0, "", "PASSED"
        )
        assert "Compiler return code: 1" in prompt
        assert "Compiler STDERR: an error" in prompt
        assert "Return code: 0" in prompt
        assert '"FINAL JUDGEMENT: valid"' in prompt

    def test_agent_prompt_handles_not_run(self, valid_acc_source):
        prompt = agent_direct_prompt(
            valid_acc_source, "acc", 1, "err", "", None, None, None
        )
        assert "could not be run" in prompt

    def test_indirect_prompt_starts_with_describe(self, valid_omp_source):
        prompt = agent_indirect_prompt(
            valid_omp_source, "omp", 0, "", "", 0, "", ""
        )
        assert prompt.startswith("Describe what the below OpenMP program")
        assert "Here is the code for you to analyze:" in prompt


class TestToolRunner:
    def test_collect_valid(self, valid_acc_source):
        runner = ToolRunner("acc")
        report = runner.collect(TestFile("t.c", "c", "acc", valid_acc_source, "x"))
        assert report.compiled
        assert report.ran_clean
        assert "PASSED" in report.run_stdout

    def test_collect_compile_failure_skips_run(self, valid_acc_source):
        broken = valid_acc_source.replace("{", "", 1)
        runner = ToolRunner("acc")
        report = runner.collect(TestFile("t.c", "c", "acc", broken, "x"))
        assert not report.compiled
        assert report.run_rc is None

    def test_output_capped(self, valid_acc_source):
        src = valid_acc_source.replace('printf("PASSED\\n");', 'for (int k = 0; k < 500; k++) { printf("a very long line of output text\\n"); }')
        runner = ToolRunner("acc")
        report = runner.collect(TestFile("t.c", "c", "acc", src, "x"))
        assert len(report.run_stdout) <= 2100

    def test_diagnostic_codes_propagated(self, valid_acc_source):
        broken = valid_acc_source.replace("parallel loop", "paralel loop")
        report = ToolRunner("acc").collect(TestFile("t.c", "c", "acc", broken, "x"))
        assert "bad-directive" in report.diagnostic_codes


class TestJudges:
    def test_direct_judge_returns_result(self, model, valid_acc_source):
        judge = DirectLLMJ(model, "acc")
        result = judge.judge(TestFile("t.c", "c", "acc", valid_acc_source, "x"))
        assert result.verdict is not None
        assert result.prompt_mode == "direct"
        assert result.prompt_tokens > 0

    def test_agent_judge_collects_tools(self, model, valid_acc_source):
        judge = AgentLLMJ(model, "acc", kind="direct")
        result = judge.judge(TestFile("t.c", "c", "acc", valid_acc_source, "x"))
        assert result.tool_report is not None
        assert result.prompt_mode == "agent-direct"

    def test_agent_judge_accepts_prebuilt_report(self, model, valid_acc_source):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        report = ToolRunner("acc").collect(test)
        judge = AgentLLMJ(model, "acc", kind="indirect")
        result = judge.judge(test, report)
        assert result.prompt_mode == "agent-indirect"

    def test_invalid_flavor_rejected(self, model):
        with pytest.raises(ValueError):
            DirectLLMJ(model, "cuda")

    def test_invalid_kind_rejected(self, model):
        with pytest.raises(ValueError):
            AgentLLMJ(model, "acc", kind="sideways")

    def test_retry_on_malformed(self, model, valid_acc_source):
        """Across many files, some first attempts are malformed and the
        judge must retry to a strict parse."""
        judge = DirectLLMJ(model, "acc", max_retries=2)
        retried = 0
        for i in range(60):
            source = valid_acc_source.replace("3.0", f"{i + 2}.0")
            result = judge.judge(TestFile(f"t{i}.c", "c", "acc", source, "x"))
            assert result.verdict is not None
            if result.attempts > 1:
                retried += 1
        assert retried >= 1

    def test_token_counts_cover_every_attempt(self, model, valid_acc_source):
        judge = DirectLLMJ(model, "acc", max_retries=2)
        tok = model.tokenizer
        for i in range(30):
            source = valid_acc_source.replace("3.0", f"{i + 2}.0")
            result = judge.judge(TestFile(f"t{i}.c", "c", "acc", source, "x"))
            prompt = direct_prompt(source, "acc")
            assert result.prompt_tokens == result.attempts * len(tok.tokenize(prompt))
            assert type(result.response) is str
            if result.attempts == 1:
                assert result.completion_tokens == len(tok.tokenize(result.response))

    def test_deterministic_verdicts(self, valid_acc_source):
        test = TestFile("t.c", "c", "acc", valid_acc_source, "x")
        r1 = DirectLLMJ(DeepSeekCoderSim(seed=9), "acc").judge(test)
        r2 = DirectLLMJ(DeepSeekCoderSim(seed=9), "acc").judge(test)
        assert r1.verdict == r2.verdict
        assert r1.response == r2.response

    def test_simulated_seconds_positive(self, model, valid_acc_source):
        result = DirectLLMJ(model, "acc").judge(
            TestFile("t.c", "c", "acc", valid_acc_source, "x")
        )
        assert result.simulated_seconds > 0
