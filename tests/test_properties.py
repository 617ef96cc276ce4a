"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.diagnostics import DiagnosticEngine
from repro.compiler.driver import Compiler
from repro.compiler.lexer import Lexer, TokenKind
from repro.judge.parser import Verdict, parse_judgment
from repro.llm.knowledge import edit_distance
from repro.llm.tokenizer import SimTokenizer
from repro.metrics.accuracy import EvaluationSet, bias, overall_accuracy
from repro.probing.randomcode import RandomCodeGenerator
from repro.runtime.builtins import format_printf
from repro.runtime.values import CArray, HeapBlock, MemoryFault, coerce_to_type
from repro.compiler.astnodes import INT, DOUBLE

import pytest
import random
import re


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=300))
@settings(max_examples=150, deadline=None)
def test_lexer_always_terminates_and_ends_with_eof(text):
    """The lexer must terminate on arbitrary printable input."""
    tokens = Lexer(text, "fuzz.c", DiagnosticEngine(error_limit=10_000)).tokenize()
    assert tokens[-1].kind is TokenKind.EOF


@given(st.integers(min_value=0, max_value=2**63 - 1))
@settings(max_examples=100, deadline=None)
def test_lexer_integer_roundtrip(value):
    tokens = Lexer(str(value), "t.c").tokenize()
    assert tokens[0].kind is TokenKind.INT_LIT
    assert tokens[0].text == str(value)


@given(st.lists(st.sampled_from(["a", "+", "1", "(", ")", "{", "}", ";", '"s"', "1.5"]), max_size=40))
@settings(max_examples=100, deadline=None)
def test_lexer_token_count_bounded_by_input(parts):
    text = " ".join(parts)
    tokens = Lexer(text, "t.c").tokenize()
    assert len(tokens) <= len(parts) + 1


# ---------------------------------------------------------------------------
# compiler totality
# ---------------------------------------------------------------------------


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=200))
@settings(max_examples=60, deadline=None)
def test_compiler_never_crashes_on_fuzz(text):
    result = Compiler(model="acc").compile(text, "fuzz.c")
    assert isinstance(result.returncode, int)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


@given(st.text(max_size=500))
@settings(max_examples=100, deadline=None)
def test_tokenizer_truncate_is_bounded(text):
    tok = SimTokenizer()
    for budget in (1, 10, 100):
        assert tok.count(tok.truncate(text, budget)) <= budget


@given(st.text(max_size=300), st.text(max_size=300))
@settings(max_examples=100, deadline=None)
def test_tokenizer_count_subadditive(a, b):
    tok = SimTokenizer()
    assert tok.count(a + b) <= tok.count(a) + tok.count(b) + 1


#: prompt-like text: identifier and number runs of any length (ASCII and
#: Unicode digits), non-ASCII letters, whitespace, punctuation, anything
_TOKENIZER_TEXT = st.lists(
    st.one_of(
        st.text(alphabet="abzXY_", min_size=1, max_size=20),
        st.text(alphabet="0789\u0663\u096d\uff11", min_size=1, max_size=20),
        st.text(alphabet="\u00e9\u00df\u03bb\u0436\u00b2", min_size=1, max_size=3),
        st.text(alphabet=" \t\n", min_size=1, max_size=3),
        st.sampled_from(list("{}();,+-*/#[]<>=!&|\"'")),
        st.characters(),
    ),
    max_size=60,
).map("".join)


def _reference_truncate(text, max_tokens, max_piece):
    """Chunk-by-chunk truncation, the way ``SimTokenizer.truncate``
    defines it: whole chunks while the budget lasts, in order."""
    kept, total = [], 0
    for chunk in re.findall(r"[A-Za-z_]+|\d+|\s+|[^\w\s]", text):
        n = 1 if chunk.isspace() else -(-len(chunk) // max_piece)
        if total + n > max_tokens:
            break
        total += n
        kept.append(chunk)
    return "".join(kept)


@given(_TOKENIZER_TEXT, st.integers(min_value=1, max_value=9))
@settings(max_examples=300, deadline=None)
def test_tokenizer_count_equals_len_of_tokenize(text, max_piece):
    tok = SimTokenizer(max_piece=max_piece)
    assert tok.count(text) == len(tok.tokenize(text))


@given(_TOKENIZER_TEXT, st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=400))
@settings(max_examples=300, deadline=None)
def test_tokenizer_truncate_matches_the_chunk_loop(text, max_piece, budget):
    tok = SimTokenizer(max_piece=max_piece)
    assert tok.truncate(text, budget) == _reference_truncate(text, budget, max_piece)


# ---------------------------------------------------------------------------
# edit distance
# ---------------------------------------------------------------------------


@given(st.text(alphabet="abcdef", max_size=10), st.text(alphabet="abcdef", max_size=10))
@settings(max_examples=150, deadline=None)
def test_edit_distance_symmetric_and_identity(a, b):
    cap = 20
    assert edit_distance(a, a, cap) == 0
    assert edit_distance(a, b, cap) == edit_distance(b, a, cap)


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8),
       st.text(alphabet="abc", max_size=8))
@settings(max_examples=100, deadline=None)
def test_edit_distance_triangle_inequality(a, b, c):
    cap = 50
    assert edit_distance(a, c, cap) <= edit_distance(a, b, cap) + edit_distance(b, c, cap)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


verdict_arrays = st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
    )
)


@given(verdict_arrays)
@settings(max_examples=150, deadline=None)
def test_bias_in_range_and_accuracy_bounded(data):
    issues, judged = data
    truth = [i == 5 for i in issues]
    evals = EvaluationSet(np.array(issues), np.array(truth), np.array(judged))
    assert 0.0 <= overall_accuracy(evals) <= 1.0
    assert -1.0 <= bias(evals) <= 1.0


@given(verdict_arrays)
@settings(max_examples=100, deadline=None)
def test_perfect_judge_has_perfect_metrics(data):
    issues, _ = data
    truth = [i == 5 for i in issues]
    evals = EvaluationSet(np.array(issues), np.array(truth), np.array(truth))
    assert overall_accuracy(evals) == 1.0
    assert bias(evals) == 0.0


@given(verdict_arrays)
@settings(max_examples=100, deadline=None)
def test_bias_sign_matches_mistake_composition(data):
    issues, judged = data
    truth = [i == 5 for i in issues]
    evals = EvaluationSet(np.array(issues), np.array(truth), np.array(judged))
    permissive = sum(1 for t, j in zip(truth, judged) if not t and j)
    restrictive = sum(1 for t, j in zip(truth, judged) if t and not j)
    value = bias(evals)
    if permissive > restrictive:
        assert value > 0
    elif restrictive > permissive:
        assert value < 0
    else:
        assert value == 0.0


# ---------------------------------------------------------------------------
# judgment parser
# ---------------------------------------------------------------------------


@given(st.text(max_size=200), st.sampled_from(["valid", "invalid", "correct", "incorrect"]))
@settings(max_examples=150, deadline=None)
def test_strict_phrase_always_parsed(prefix, word):
    if "FINAL JUDGEMENT" in prefix:
        prefix = prefix.replace("FINAL JUDGEMENT", "")
    text = prefix + f"\nFINAL JUDGEMENT: {word}"
    parsed = parse_judgment(text)
    assert parsed.ok and parsed.strict
    expected = Verdict.VALID if word in ("valid", "correct") else Verdict.INVALID
    assert parsed.verdict is expected


# ---------------------------------------------------------------------------
# values
# ---------------------------------------------------------------------------


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=200))
@settings(max_examples=150, deadline=None)
def test_heap_block_bounds_invariant(size, offset):
    block = HeapBlock(size=size)
    if offset + 8 <= size:
        block.store(offset, 8, 1.0)
        assert block.load(offset, 8) == 1.0
    else:
        with pytest.raises(MemoryFault):
            block.store(offset, 8, 1.0)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_carray_full_indexing_in_bounds_never_faults(dims):
    arr = CArray(DOUBLE, dims)
    rng = random.Random(0)
    for _ in range(10):
        idx = [rng.randrange(d) for d in dims]
        ptr = arr.subarray_pointer(idx)
        ptr.store(1.0)
        assert ptr.load() == 1.0


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=100, deadline=None)
def test_coerce_int_truncates_toward_zero(value):
    result = coerce_to_type(float(value), INT)
    assert isinstance(result, int)


# ---------------------------------------------------------------------------
# printf
# ---------------------------------------------------------------------------


@given(st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=100, deadline=None)
def test_printf_d_roundtrip(value):
    assert format_printf("%d", [value]) == str(value)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
@settings(max_examples=100, deadline=None)
def test_printf_never_crashes(fmt):
    out = format_printf(fmt, [1, 2.0, "x", 0])
    assert isinstance(out, str)


# ---------------------------------------------------------------------------
# random-code generator
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=40, deadline=None)
def test_random_valid_code_always_compiles_and_runs(seed):
    generator = RandomCodeGenerator.with_seed(seed, valid_fraction=1.0)
    source = generator.generate()
    compiled = Compiler(model="acc").compile(source, "r.c")
    assert compiled.ok, compiled.stderr
    from repro.runtime.executor import Executor

    assert Executor(step_limit=500_000).run(compiled).returncode == 0
