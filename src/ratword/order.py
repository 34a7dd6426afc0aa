"""Lexicographic comparison of rational words.

A finite word, given as an expression without w-power or as a plain str,
is compared as a string.  Against a transfinite word it is compared with
that word's first len(u) + 1 letters: the transfinite word is longer than
any finite one, so the outcome (relation, position, letters) is the same as
a comparison of the whole words, and no automaton is built.  Only two
transfinite words run the synchronized product of their compiled automata;
the trace position at divergence is the ordinal position of the first
differing letter."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .automaton import compile_expr
from .expr import (Alphabet, DEFAULT_ALPHABET, RatExpr, as_finite_word, expr_length,
                   first_letters)
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
    if u == v:
        return CompareOutcome(Rel.EQUAL)
    if v.startswith(u):
        return CompareOutcome(Rel.LEFT_PREFIX, Ordinal.from_int(len(u)))
    if u.startswith(v):
        return CompareOutcome(Rel.RIGHT_PREFIX, Ordinal.from_int(len(v)))
    # binary search for the first mismatch: u[:lo] == v[:lo], u[:hi] != v[:hi]
    lo, hi = 0, min(len(u), len(v))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid
    a, b = u[lo], v[lo]
    rel = Rel.LESS if alphabet.lt(a, b) else Rel.GREATER
    return CompareOutcome(rel, Ordinal.from_int(lo), (a, b))


def compare(x: RatExpr | str, y: RatExpr | str,
            alphabet: Alphabet = DEFAULT_ALPHABET) -> CompareOutcome:
    """Compare two words; either may be a finite word given as a str."""
    u = x if type(x) is str else as_finite_word(x)
    v = y if type(y) is str else as_finite_word(y)
    if u is not None:
        return _compare_finite(u, v if v is not None else first_letters(y, len(u) + 1),
                               alphabet)
    if v is not None:
        return _compare_finite(first_letters(x, len(v) + 1), v, alphabet)
    return compare_via_automata(x, y, alphabet)


def compare_via_automata(x: RatExpr, y: RatExpr,
                         alphabet: Alphabet = DEFAULT_ALPHABET) -> CompareOutcome:
    """The product-run path of compare, taken for any two expressions, finite
    or not (tests cross-check it against compare's string paths)."""
    trace, outcome = run_to_divergence(compile_expr(x), compile_expr(y))
    if isinstance(outcome, Diverged):
        a, b = outcome.left_letter, outcome.right_letter
        rel = Rel.LESS if alphabet.lt(a, b) else Rel.GREATER
        return CompareOutcome(rel, trace.position(-1), (a, b))
    if isinstance(outcome, LeftEnded):
        return CompareOutcome(Rel.LEFT_PREFIX, expr_length(x))
    if isinstance(outcome, RightEnded):
        return CompareOutcome(Rel.RIGHT_PREFIX, expr_length(y))
    assert isinstance(outcome, BothEnded)
    return CompareOutcome(Rel.EQUAL)


def word_equal(x: RatExpr | str, y: RatExpr | str, alphabet: Alphabet = DEFAULT_ALPHABET) -> bool:
    return compare(x, y, alphabet).is_equal
