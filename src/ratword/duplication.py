"""Duplication rewrites e^w into e e^w so that every w-power group in the
compiled automaton is entered after a full linear pass over its body.  The
rewrite preserves the denoted word, and each level of w-nesting can double
the number of tokens, so tau refuses a result past TAU_TOKENS."""

from __future__ import annotations

from .expr import Concat, ExprError, Letter, Omega, RatExpr, concat, fold

TAU_TOKENS = 2 ** 18


class TokenBudgetError(ExprError):
    """The duplicated expression would pass TAU_TOKENS tokens."""


def tau(e: RatExpr) -> RatExpr:
    """The duplicated expression, which shares each duplicated body.  Its
    tokens are counted in the same walk, so a blow-up stops at the level
    that passes TAU_TOKENS, with a TokenBudgetError.  A word with no
    w-power is its own duplicate, and its tokens are its letters; it is
    told by the types of its parts, without spelling it."""
    kind = type(e)
    if kind is Letter or kind is Concat and Omega not in map(type, e.parts):
        if kind is Concat and len(e.parts) > TAU_TOKENS:
            raise TokenBudgetError(f"duplicated expression exceeds {TAU_TOKENS} tokens")
        return e

    def visit(node: RatExpr, kids: list[tuple[RatExpr, int]]) -> tuple[RatExpr, int]:
        kind = type(node)
        if kind is Letter:
            return node, 1
        if kind is Omega:
            (body, tokens), = kids
            dup, tokens = concat([body, Omega(body)]), 2 * tokens + 1
        else:
            dups, counts = zip(*kids)
            dup, tokens = concat(dups), sum(counts)
        if tokens > TAU_TOKENS:
            raise TokenBudgetError(f"duplicated expression exceeds {TAU_TOKENS} tokens")
        return dup, tokens

    return fold(e, visit)[0]


def size(e: RatExpr) -> int:
    """Number of tokens: letters count 1, each w-power adds 1."""
    return fold(e, lambda node, kids: sum(kids) + (type(node) is not Concat))


def depth(e: RatExpr) -> int:
    """Nesting depth of w-powers."""
    return fold(e, lambda node, kids: max(kids, default=0) + (type(node) is Omega))
