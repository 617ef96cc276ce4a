"""A deterministic tokenizer for prompt/response accounting.

Real LLM serving is budgeted in tokens; the simulator needs the same
accounting for its cost model (pipeline throughput, prompt-size
statistics).  The tokenizer is a BPE-shaped approximation: words split
into sub-word chunks of at most ``max_piece`` characters, punctuation
and whitespace runs tokenized separately.  It is stable across runs and
close to the ~3.5 chars/token ratio code models exhibit.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

_TOKEN_RE = re.compile(r"[A-Za-z_]+|\d+|\s+|[^\w\s]")


@functools.lru_cache(maxsize=None)
def _long_run_re(max_piece: int) -> re.Pattern[str]:
    """Letter and digit runs that split into more than one piece.

    A run of either class is always one whole chunk of ``_TOKEN_RE``
    (nothing before it can consume part of it), so these matches are
    exactly the chunks longer than ``max_piece``.
    """
    longer = max_piece + 1
    return re.compile(rf"[A-Za-z_]{{{longer},}}|\d{{{longer},}}")


@dataclass(frozen=True)
class SimTokenizer:
    """Deterministic sub-word tokenizer.

    :meth:`tokenize` is the reference; :meth:`count` matches it without
    building the pieces.
    """

    max_piece: int = 6

    def tokenize(self, text: str) -> list[str]:
        pieces: list[str] = []
        for match in _TOKEN_RE.finditer(text):
            chunk = match.group(0)
            if chunk.isspace():
                # whitespace folds into a single token per run
                pieces.append(" ")
                continue
            for i in range(0, len(chunk), self.max_piece):
                pieces.append(chunk[i : i + self.max_piece])
        return pieces

    def count(self, text: str) -> int:
        """``len(self.tokenize(text))``: one token per chunk, plus one
        per further ``max_piece`` characters of a long letter or digit run."""
        total = len(_TOKEN_RE.findall(text))
        for run in _long_run_re(self.max_piece).findall(text):
            total += (len(run) - 1) // self.max_piece
        return total

    def truncate(self, text: str, max_tokens: int) -> str:
        """Keep at most ``max_tokens`` tokens (context-window model).

        Characters outside every token (non-ASCII word characters other
        than digits, such as accented letters) are dropped.
        """
        if len(text) <= max_tokens and text.isascii():
            # every ASCII character lies in a token and every token holds
            # at least one, so nothing is cut and nothing is dropped
            return text
        pieces = []
        total = 0
        for match in _TOKEN_RE.finditer(text):
            chunk = match.group(0)
            n = 1 if chunk.isspace() else (len(chunk) + self.max_piece - 1) // self.max_piece
            if total + n > max_tokens:
                break
            total += n
            pieces.append(chunk)
        return "".join(pieces)
