"""Lexicographic comparison of rational words.

Transfinite comparisons run the synchronized product of the two compiled
automata; the trace position at divergence is the ordinal position of the
first differing letter.  Purely finite expressions take a direct string
path."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automaton import compile_expr
from .expr import Alphabet, DEFAULT_ALPHABET, RatExpr, as_finite_word, expr_length
from .ordinal import Ordinal
from .runner import BothEnded, Diverged, LeftEnded, RightEnded, run_to_divergence


class Rel(enum.Enum):
    LESS = "<"
    GREATER = ">"
    EQUAL = "="
    LEFT_PREFIX = "< (prefix)"
    RIGHT_PREFIX = "> (prefix)"


@dataclass(frozen=True)
class CompareOutcome:
    rel: Rel
    position: Ordinal | None = None          # first difference, when letters differ
    letters: tuple[str, str] | None = None

    @property
    def is_equal(self) -> bool:
        return self.rel is Rel.EQUAL

    @property
    def left_le(self) -> bool:
        """Left word <=lex right word (a proper prefix is smaller)."""
        return self.rel in (Rel.LESS, Rel.EQUAL, Rel.LEFT_PREFIX)

    @property
    def left_lt(self) -> bool:
        return self.rel in (Rel.LESS, Rel.LEFT_PREFIX)


def _compare_finite(u: str, v: str, alphabet: Alphabet) -> CompareOutcome:
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            rel = Rel.LESS if alphabet.lt(a, b) else Rel.GREATER
            return CompareOutcome(rel, Ordinal.from_int(i), (a, b))
    if len(u) == len(v):
        return CompareOutcome(Rel.EQUAL)
    if len(u) < len(v):
        return CompareOutcome(Rel.LEFT_PREFIX, Ordinal.from_int(len(u)))
    return CompareOutcome(Rel.RIGHT_PREFIX, Ordinal.from_int(len(v)))


def compare(x: RatExpr, y: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET) -> CompareOutcome:
    u, v = as_finite_word(x), as_finite_word(y)
    if u is not None and v is not None:
        return _compare_finite(u, v, alphabet)
    return compare_via_automata(x, y, alphabet)


def compare_via_automata(x: RatExpr, y: RatExpr,
                         alphabet: Alphabet = DEFAULT_ALPHABET) -> CompareOutcome:
    """The product-run path of compare, without its finite fast path (tests
    cross-check the two on finite words)."""
    trace, outcome = run_to_divergence(compile_expr(x), compile_expr(y))
    if isinstance(outcome, Diverged):
        a, b = outcome.left_letter, outcome.right_letter
        rel = Rel.LESS if alphabet.lt(a, b) else Rel.GREATER
        return CompareOutcome(rel, trace.last.position, (a, b))
    if isinstance(outcome, LeftEnded):
        return CompareOutcome(Rel.LEFT_PREFIX, expr_length(x))
    if isinstance(outcome, RightEnded):
        return CompareOutcome(Rel.RIGHT_PREFIX, expr_length(y))
    assert isinstance(outcome, BothEnded)
    return CompareOutcome(Rel.EQUAL)


def word_equal(x: RatExpr, y: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET) -> bool:
    return compare(x, y, alphabet).is_equal
