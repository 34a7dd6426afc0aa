"""Structural prime factorization, computed bottom-up over the expression.

Factorizations of subexpressions are merged at their boundary (adjacent
non-decreasing prime powers always combine into one), and an w-power is
factorized by rotating its body's prime powers until one prime covers the
whole cycle; as the body's blocks are a factorization, the rotation merges
only at the front and across the wrap.  It never runs the marking
algorithm, which it cross-checks.  A compare of two transfinite primes
reads their w-prefixes, which every w-power keeps once found, and then
their expressions (`order.compare`); only a pair decided by neither runs
the product of their compiled automata in `runner`, as the marking
algorithm's steps do.  Whether u^a is absorbed by v, u^a v = v, is read
off v's left spine when a is finite and an w-power of u lies there, and
is otherwise a compare.

Inside `factorize_structural` a prime is a plain str exactly when it has no
w-power, and u^a v^b with two str primes and finite a and b is the str
u*a + v*b.  Two str primes merge by Python's str order, which is
`compare`'s order on finite words, so merging finite primes is string work
that calls no `compare`.  Each maximal run of letters in a concatenation
(all of it, when it has no w-power) is read as one string and factorized
by one loop over it, which applies that merge rule inline on a stack of
(str, int) blocks.  Without w-power those blocks are the factorization;
otherwise they meet the other parts' blocks in `fact_product`.  A str
becomes an expression only where a merge meets a transfinite exponent or
operand, and at the end, where every prime returned is a shared Letter, a
flat Concat of them, or a transfinite expression.  The helpers below take
primes in either form; given expressions only, they return expressions
only."""

from __future__ import annotations

from .expr import (_SHARED, Letter, Omega, RatExpr, as_finite_word, concat, fold,
                   format_expr, left_spine, power)
from .factorizer import Factorization
from .order import CompareOutcome, compare, word_equal
from .ordinal import ONE, OMEGA, Ordinal

Prime = RatExpr | str


class StructuralError(RuntimeError):
    pass


def _expr(p: Prime) -> RatExpr:
    return concat(map(_SHARED.__getitem__, p)) if type(p) is str else p


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
    # finite v never absorbs, since |u^alpha v| > |v|.  A v that starts with
    # u^w, an w-power of u on its left spine, absorbs every finite u^alpha.
    if alpha.is_finite and any(type(node) is Omega and node.body is u
                               for node in left_spine(v)):
        return v, beta
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


def _letter_blocks(word: str) -> list[tuple[str, Ordinal]]:
    """Factorization of a non-empty finite word, read one letter at a time
    as fact_product reads one-letter blocks, with _merge's rule for two str
    primes inline: u > v stops the merge, u == v adds the exponents, and
    otherwise u^a v^b is the str u*a + v*b.  The top block is held in u and
    a, the blocks below it in primes and exps.  Each decision merges two
    blocks or stops the incoming one, so a word of n letters takes at most
    2(n - 1) of them."""
    if len(word) == 1:
        return [(word, ONE)]
    primes: list[str] = []
    exps: list[int] = []
    u, a = None, 0
    for v in word:
        b = 1
        while u is not None:
            if u > v:
                primes.append(u)
                exps.append(a)
                break
            if u == v:
                b += a
            else:
                v, b = u * a + v * b, 1
            if primes:
                u, a = primes.pop(), exps.pop()
            else:
                u = None
        u, a = v, b
    primes.append(u)
    exps.append(a)
    return [(u, ONE if a == 1 else Ordinal.from_int(a)) for u, a in zip(primes, exps)]


def _product(kids: list) -> list[tuple[Prime, Ordinal]]:
    """Factorization of a concatenation from its parts' results: a str for
    a letter, so that each maximal run of letters is factorized as one
    word, and a block list for any other part."""
    blocks: list[tuple[Prime, Ordinal]] = []
    run: list[str] = []
    for kid in kids:
        if type(kid) is str:
            run.append(kid)
            continue
        if run:
            blocks += _letter_blocks("".join(run))
            run = []
        blocks += kid
    if run:
        blocks += _letter_blocks("".join(run))
    return fact_product([], blocks)


def _blocks(result: str | list) -> list[tuple[Prime, Ordinal]]:
    return [(result, ONE)] if type(result) is str else result


# Levels of an expression that factorize_structural walks by recursion, which
# costs least on the shallow expressions that make up most inputs, before it
# hands deeper subtrees to fold, which walks from an explicit stack.
RECURSION_LEVELS = 50


def factorize_structural(e: RatExpr) -> Factorization:
    # A letter answers its symbol and any other node its blocks.  An w-free
    # Concat is one run of letters, whose string finite_word joins at once.
    def visit(node: RatExpr, kids: list) -> str | list[tuple[Prime, Ordinal]]:
        if type(node) is Letter:
            return node.sym
        if type(node) is Omega:
            return fact_omega(_blocks(kids[0]))
        word = node.finite_word
        if word is not None:
            return _letter_blocks(word)
        return _product(kids)

    def go(node: RatExpr, levels: int) -> str | list[tuple[Prime, Ordinal]]:
        # visit over a recursion; a letter part of a Concat is answered
        # here, with no call
        kind = type(node)
        if kind is Letter:
            return node.sym
        if not levels:
            return fold(node, visit)
        if kind is Omega:
            return fact_omega(_blocks(go(node.body, levels - 1)))
        word = node.finite_word
        if word is not None:
            return _letter_blocks(word)
        return _product([p.sym if type(p) is Letter else go(p, levels - 1) for p in node.parts])

    return Factorization(tuple((_expr(p), alpha)
                               for p, alpha in _blocks(go(e, RECURSION_LEVELS))))
