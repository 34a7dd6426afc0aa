"""Structural prime factorization, computed by recursion on the expression.

Factorizations of subexpressions are merged at their boundary (adjacent
non-decreasing prime powers always combine into one), and an w-power is
factorized by rotating its body's prime powers until one prime covers the
whole cycle.  Entirely independent of the marking algorithm, which it
cross-checks."""

from __future__ import annotations

from .expr import (Alphabet, DEFAULT_ALPHABET, Letter, Omega, RatExpr,
                   as_finite_word, concat, format_expr, power)
from .factorizer import Factorization
from .order import CompareOutcome, compare, word_equal
from .ordinal import ONE, OMEGA, Ordinal


class StructuralError(RuntimeError):
    pass


def concat_pp(u: RatExpr, alpha: Ordinal, v: RatExpr, beta: Ordinal,
              alphabet: Alphabet = DEFAULT_ALPHABET,
              out: CompareOutcome | None = None) -> tuple[RatExpr, Ordinal]:
    """Combine u^alpha v^beta (u, v prime, u <=lex v) into a single prime power.
    `out` is compare(u, v) when the caller already has it."""
    if out is None:
        out = compare(u, v, alphabet)
    if out.is_equal:
        return v, alpha + beta
    if not out.left_lt:
        raise StructuralError(
            f"concat_pp needs {format_expr(u)} <=lex {format_expr(v)}")
    # u^alpha is absorbed by v when u^alpha v = v: the result is v^beta.  A
    # finite v never absorbs, since |u^alpha v| > |v|.
    if as_finite_word(v) is None and word_equal(concat([power(u, alpha), v]), v, alphabet):
        return v, beta
    return concat([power(u, alpha), power(v, beta)]), ONE


def fact_product(left: list[tuple[RatExpr, Ordinal]],
                 right: list[tuple[RatExpr, Ordinal]],
                 alphabet: Alphabet = DEFAULT_ALPHABET) -> list[tuple[RatExpr, Ordinal]]:
    """Factorization of a product from factorizations of the parts; only
    boundary blocks can merge, repeatedly."""
    blocks = list(left)
    for v, beta in right:
        while blocks:
            out = compare(blocks[-1][0], v, alphabet)
            if not out.left_le:
                break
            u, alpha = blocks.pop()
            v, beta = concat_pp(u, alpha, v, beta, alphabet, out)
        blocks.append((v, beta))
    return blocks


def circular_fact(blocks: list[tuple[RatExpr, Ordinal]],
                  alphabet: Alphabet = DEFAULT_ALPHABET
                  ) -> tuple[int, RatExpr, Ordinal]:
    """Rotate a cyclic sequence of prime powers into a single prime power.

    Returns (k, v, beta) with v^beta the product of blocks k+1..n, 1..k and
    v <=lex the k-th prime.  Cyclically adjacent non-decreasing neighbours are
    merged until one block remains; merging across the wrap moves the start.
    """
    n = len(blocks)
    if n == 0:
        raise StructuralError("no blocks to rotate")
    # carry original 1-based start positions so k can be recovered at the end
    ring: list[tuple[int, RatExpr, Ordinal]] = [
        (idx + 1, p, a) for idx, (p, a) in enumerate(blocks)]
    guard = n * n + n + 1
    while len(ring) > 1:
        guard -= 1
        if guard < 0:
            raise StructuralError("rotation failed to converge")
        for pos in range(len(ring)):
            nxt = (pos + 1) % len(ring)
            s1, u, alpha = ring[pos]
            _, v, beta = ring[nxt]
            out = compare(u, v, alphabet)
            if out.left_le:
                w, gamma = concat_pp(u, alpha, v, beta, alphabet, out)
                if nxt == 0:
                    # merged across the wrap: the merged block now leads
                    ring = [(s1, w, gamma)] + ring[1:pos]
                else:
                    ring[pos:nxt + 1] = [(s1, w, gamma)]
                break
        else:
            raise StructuralError("strictly decreasing cycle is impossible")
    start, v, beta = ring[0]
    k = start - 1 if start > 1 else n
    if not compare(v, blocks[k - 1][0], alphabet).left_le:
        raise StructuralError("rotated prime exceeds its pivot")
    return k, v, beta


def fact_omega(blocks: list[tuple[RatExpr, Ordinal]],
               alphabet: Alphabet = DEFAULT_ALPHABET) -> list[tuple[RatExpr, Ordinal]]:
    """Factorization of x^w from the factorization of x."""
    if len(blocks) == 1:
        u, alpha = blocks[0]
        return [(u, alpha * OMEGA)]
    k, v, beta = circular_fact(blocks, alphabet)
    if k == len(blocks):
        raise StructuralError("rotation covered the whole cycle twice")
    u_k, alpha_k = blocks[k - 1]
    if word_equal(v, u_k, alphabet):
        return blocks[:k - 1] + [(v, alpha_k + beta * OMEGA)]
    return blocks[:k] + [(v, beta * OMEGA)]


def factorize_structural(e: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET) -> Factorization:
    def go(node: RatExpr) -> list[tuple[RatExpr, Ordinal]]:
        if isinstance(node, Letter):
            return [(node, ONE)]
        if isinstance(node, Omega):
            return fact_omega(go(node.body), alphabet)
        out: list[tuple[RatExpr, Ordinal]] = []
        for p in node.parts:
            out = fact_product(out, go(p), alphabet)
        return out

    return Factorization(tuple(go(e)))
