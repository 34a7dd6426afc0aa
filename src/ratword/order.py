"""Lexicographic comparison of rational words.

A finite word, given as an expression without w-power or as a plain str,
is compared as a string.  Against a transfinite word it is compared with
that word's first len(u) + 1 letters: the transfinite word is longer than
any finite one, so the outcome (relation, position, letters) is the same as
a comparison of the whole words, and no automaton is built.

Two transfinite words are first compared on their w-prefixes u1 p1^w and
u2 p2^w (`expr.omega_prefix`).  By Fine and Wilf's theorem two such words
that differ at all differ within max(|u1|, |u2|) + |p1| + |p2| letters, so
a string compare of that many letters finds the first difference of any two
words whose first w letters differ.  Only two words that agree on their
first w letters and are not one node (equal expressions are one node, see
`expr.RatExpr`) run the synchronized product of their compiled automata;
the trace position at divergence is the ordinal position of the first
differing letter.

The structural engine merges two finite primes by Python's str order, which
is the order this module gives finite words, and calls `compare` for every
other pair.  A string compare allocates little beyond the string work: one
outcome tuple and one Ordinal, and none for equal words, which share one
outcome."""

from __future__ import annotations

import enum
from operator import itemgetter

from .automaton import compile_expr
from .expr import RatExpr, as_finite_word, expr_length, first_letters, omega_prefix
from .ordinal import Ordinal
from .runner import run_to_divergence


class Rel(enum.Enum):
    LESS = "<"
    GREATER = ">"
    EQUAL = "="
    LEFT_PREFIX = "< (prefix)"
    RIGHT_PREFIX = "> (prefix)"


# Each Rel.X is an attribute lookup on the enum class; these are read once.
_LESS, _GREATER, _EQUAL = Rel.LESS, Rel.GREATER, Rel.EQUAL
_LEFT_PREFIX, _RIGHT_PREFIX = Rel.LEFT_PREFIX, Rel.RIGHT_PREFIX


class CompareOutcome(tuple):
    """The outcome of a comparison: rel, and for words that differ the
    position of the first difference and, when letters differ there, the
    pair (left letter, right letter).

    An immutable value of (rel, position, letters): equality, hash, repr,
    pickling and copying go by those three fields.  It is a tuple that also
    holds the flags is_equal, left_le (left word <=lex right word; a proper
    prefix is smaller) and left_lt, worked out once when it is built, so
    reading any field runs no Python function."""
    __slots__ = ()

    def __new__(cls, rel: Rel, position: Ordinal | None = None,
                letters: tuple[str, str] | None = None) -> CompareOutcome:
        return tuple.__new__(cls, (rel, position, letters, rel is _EQUAL,
                                   rel is _LESS or rel is _EQUAL or rel is _LEFT_PREFIX,
                                   rel is _LESS or rel is _LEFT_PREFIX))

    rel = property(itemgetter(0))
    position = property(itemgetter(1))
    letters = property(itemgetter(2))
    is_equal = property(itemgetter(3))
    left_le = property(itemgetter(4))
    left_lt = property(itemgetter(5))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple.__ne__(self, other)

    def __hash__(self) -> int:
        return hash(self[:3])

    def __reduce__(self):
        return CompareOutcome, self[:3]

    def __repr__(self) -> str:
        return (f"CompareOutcome(rel={self[0]!r}, position={self[1]!r}, "
                f"letters={self[2]!r})")


_EQUAL_OUTCOME = CompareOutcome(_EQUAL)


def _compare_finite(u: str, v: str) -> CompareOutcome:
    if u == v:
        return _EQUAL_OUTCOME
    if v.startswith(u):
        return CompareOutcome(_LEFT_PREFIX, Ordinal.from_int(len(u)))
    if u.startswith(v):
        return CompareOutcome(_RIGHT_PREFIX, Ordinal.from_int(len(v)))
    # binary search for the first mismatch: u[:lo] == v[:lo], u[:hi] != v[:hi]
    lo, hi = 0, min(len(u), len(v))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if u[lo:mid] == v[lo:mid]:
            lo = mid
        else:
            hi = mid
    a, b = u[lo], v[lo]
    return CompareOutcome(_LESS if a < b else _GREATER, Ordinal.from_int(lo), (a, b))


def compare(x: RatExpr | str, y: RatExpr | str) -> CompareOutcome:
    """Compare two words; either may be a finite word given as a str."""
    u = x if type(x) is str else as_finite_word(x)
    v = y if type(y) is str else as_finite_word(y)
    if u is not None:
        return _compare_finite(u, v if v is not None else first_letters(y, len(u) + 1))
    if v is not None:
        return _compare_finite(first_letters(x, len(v) + 1), v)
    if x is y:
        return _EQUAL_OUTCOME
    (u1, p1), (u2, p2) = omega_prefix(x), omega_prefix(y)
    n = max(len(u1), len(u2)) + len(p1) + len(p2)
    u, v = (u1 + p1 * (n // len(p1) + 1))[:n], (u2 + p2 * (n // len(p2) + 1))[:n]
    if u != v:
        return _compare_finite(u, v)
    return compare_via_automata(x, y)


def compare_via_automata(x: RatExpr, y: RatExpr) -> CompareOutcome:
    """The product-run path of compare, taken for any two expressions, finite
    or not (tests cross-check it against compare's string paths)."""
    trace, (a, b) = run_to_divergence(compile_expr(x), compile_expr(y))
    if a is None:
        return _EQUAL_OUTCOME if b is None else CompareOutcome(_LEFT_PREFIX, expr_length(x))
    if b is None:
        return CompareOutcome(_RIGHT_PREFIX, expr_length(y))
    return CompareOutcome(_LESS if a < b else _GREATER, trace.position(-1), (a, b))


def word_equal(x: RatExpr | str, y: RatExpr | str) -> bool:
    return compare(x, y).is_equal
