"""Structural prime factorization, computed bottom-up over the expression.

Factorizations of subexpressions are merged at their boundary (adjacent
non-decreasing prime powers always combine into one), and an w-power is
factorized by rotating its body's prime powers until one prime covers the
whole cycle; as the body's blocks are a factorization, the rotation merges
only at the front and across the wrap.  It never runs the marking
algorithm, which it cross-checks.  A compare of two transfinite primes reads their w-prefixes, which every
w-power keeps once found; only primes that agree on their first w letters
and are not one node run the product of their compiled automata in
`runner`, as the marking algorithm's steps do.

Inside `factorize_structural` a prime is a plain str exactly when it has no
w-power: every letter enters as its symbol, and u^a v^b with two str primes
and finite a and b is the str u*a + v*b.  Two str primes merge by Python's
str order, which is `compare`'s order on finite words, so merging finite
primes is string work that calls no `compare`.  A str becomes an
expression only where a merge meets a transfinite exponent or operand, and
at the end, where every prime returned is a shared Letter, a flat Concat of
them, or a transfinite expression.  The helpers below take primes in either
form; given expressions only, they return expressions only."""

from __future__ import annotations

from .expr import (Concat, Letter, Omega, RatExpr, as_finite_word, concat, fold,
                   format_expr, power)
from .factorizer import Factorization
from .order import CompareOutcome, compare, word_equal
from .ordinal import ONE, OMEGA, Ordinal

Prime = RatExpr | str


class StructuralError(RuntimeError):
    pass


def _expr(p: Prime) -> RatExpr:
    return concat(map(Letter, p)) if type(p) is str else p


def concat_pp(u: Prime, alpha: Ordinal, v: Prime, beta: Ordinal,
              out: CompareOutcome | None = None) -> tuple[Prime, Ordinal]:
    """Combine u^alpha v^beta (u, v prime, u <=lex v) into a single prime power.
    `out` is compare(u, v) when the caller already has it."""
    if out is None:
        out = compare(u, v)
    if out.is_equal:
        return v, alpha + beta
    if not out.left_lt:
        raise StructuralError(
            f"concat_pp needs {format_expr(_expr(u))} <=lex {format_expr(_expr(v))}")
    u, v = _expr(u), _expr(v)
    # u^alpha is absorbed by v when u^alpha v = v: the result is v^beta.  A
    # finite v never absorbs, since |u^alpha v| > |v|.
    if as_finite_word(v) is None and word_equal(concat([power(u, alpha), v]), v):
        return v, beta
    return concat([power(u, alpha), power(v, beta)]), ONE


def _merge(x: tuple[Prime, Ordinal], y: tuple[Prime, Ordinal]) -> tuple[Prime, Ordinal] | None:
    """The prime powers x y as one block, or None when x's prime is greater
    than y's.  Two str primes go by str order, which is compare's order on
    finite words, and give a str when both exponents are finite; every
    other pair goes through compare and concat_pp."""
    (u, alpha), (v, beta) = x, y
    if type(u) is str and type(v) is str:
        if u > v:
            return None
        if u == v:
            return v, alpha + beta
        # exponents are >= 1; one is finite when its leading term is w^0 * c
        (ea, ca), (eb, cb) = alpha.terms[0], beta.terms[0]
        if ea == eb == 0:
            return u * ca + v * cb, ONE
    out = compare(u, v)
    return concat_pp(u, alpha, v, beta, out) if out.left_le else None


def fact_product(left: list[tuple[Prime, Ordinal]],
                 right: list[tuple[Prime, Ordinal]]) -> list[tuple[Prime, Ordinal]]:
    """Factorization of a product from factorizations of the parts; only
    boundary blocks can merge, repeatedly."""
    blocks = list(left)
    for block in right:
        while blocks:
            merged = _merge(blocks[-1], block)
            if merged is None:
                break
            blocks.pop()
            block = merged
        blocks.append(block)
    return blocks


def circular_fact(blocks: list[tuple[Prime, Ordinal]]) -> tuple[int, Prime, Ordinal]:
    """Rotate a cyclic sequence of prime powers into a single prime power.

    Returns (k, v, beta) with v^beta the product of blocks k+1..n, 1..k;
    v <=lex the k-th prime, which fact_omega checks.  The blocks must be a
    factorization: then no two neighbours merge, so only the front block,
    which grows by each merge, can merge, with the block after it or, across
    the wrap, with the block before it.  Each step takes up one block, with
    at most two merge decisions.  The first step tries only blocks n and 1
    across the wrap, since blocks 1 and 2 are neighbours: at most 2n - 3
    decisions in all for n >= 2 blocks.
    """
    if not blocks:
        raise StructuralError("no blocks to rotate")
    # the front is blocks hi+1..n, 1..lo (1-based), so k = hi at the end; it
    # starts as block n, whose block after it is block 1 across the wrap
    front, lo, hi = blocks[-1], 0, len(blocks) - 1
    while lo < hi:
        merged = _merge(front, blocks[lo])
        if merged is not None:
            lo += 1
        else:
            hi -= 1
            merged = _merge(blocks[hi], front)
            if merged is None:
                raise StructuralError("strictly decreasing cycle is impossible")
        front = merged
    v, beta = front
    # a single block is the whole cycle, k = n
    return hi or len(blocks), v, beta


def fact_omega(blocks: list[tuple[Prime, Ordinal]]) -> list[tuple[Prime, Ordinal]]:
    """Factorization of x^w from the factorization of x."""
    if len(blocks) == 1:
        u, alpha = blocks[0]
        return [(u, alpha * OMEGA)]
    k, v, beta = circular_fact(blocks)
    u_k, alpha_k = blocks[k - 1]
    out = compare(v, u_k)
    if not out.left_le:
        raise StructuralError("rotated prime exceeds its pivot")
    if k == len(blocks):
        raise StructuralError("rotation covered the whole cycle twice")
    if out.is_equal:
        return blocks[:k - 1] + [(v, alpha_k + beta * OMEGA)]
    return blocks[:k] + [(v, beta * OMEGA)]


# Levels of an expression that factorize_structural walks by recursion, which
# costs least on the shallow expressions that make up most inputs, before it
# hands deeper subtrees to fold, which walks from an explicit stack.
RECURSION_LEVELS = 50


def factorize_structural(e: RatExpr) -> Factorization:
    def visit(node: RatExpr, kids: list) -> list[tuple[Prime, Ordinal]]:
        if type(node) is Letter:
            return [(node.sym, ONE)]
        if type(node) is Omega:
            return fact_omega(kids[0])
        # one product of all the parts' blocks: fact_product folds over them
        return fact_product([], [b for blocks in kids for b in blocks])

    def go(node: RatExpr, levels: int) -> list[tuple[Prime, Ordinal]]:
        # visit over a recursion; a letter is answered here, as a call of
        # visit per letter costs more than the engine's own work on it
        kind = type(node)
        if kind is Letter:
            return [(node.sym, ONE)]
        if not levels:
            return fold(node, visit)
        return visit(node, [go(p, levels - 1)
                            for p in (node.parts if kind is Concat else (node.body,))])

    return Factorization(tuple((_expr(p), alpha) for p, alpha in go(e, RECURSION_LEVELS)))
