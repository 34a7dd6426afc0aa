"""Independent oracles: classical finite-word algorithms and definition-level
primality checks used to cross-validate both factorization engines."""

from __future__ import annotations

from .automaton import compile_expr, first_visit_prefix, suffix_word
from .expr import (Alphabet, DEFAULT_ALPHABET, RatExpr, as_finite_word,
                   expr_length, power, prefix_to)
from .order import Rel, compare, word_equal
from .ordinal import ONE, Ordinal, div_left


def duval_factorize(word: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> list[str]:
    """Chen-Fox-Lyndon factorization of a finite word into non-increasing
    primes (each prime listed once per occurrence)."""
    out = []
    i = 0
    n = len(word)
    while i < n:
        j, k = i + 1, i
        while j < n and alphabet.rank(word[k]) <= alphabet.rank(word[j]):
            k = i if alphabet.lt(word[k], word[j]) else k + 1
            j += 1
        while i <= k:
            out.append(word[i:i + j - k])
            i += j - k
    return out


def is_prime_finite(word: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> bool:
    """A finite word is prime iff it is strictly smaller than each of its
    proper suffixes."""
    rank = alphabet.rank
    return all([rank(c) for c in word] < [rank(c) for c in word[i:]]
               for i in range(1, len(word)))


def brute_force_factorize(word: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> list[str]:
    """Search all decompositions into non-increasing primes and insist there
    is exactly one.  Exponential; keep the input short."""
    n = len(word)
    prime = [[False] * (n + 1) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            prime[i][j] = is_prime_finite(word[i:j], alphabet)

    solutions: list[list[str]] = []

    def search(i: int, acc: list[str]) -> None:
        if i == n:
            solutions.append(list(acc))
            return
        for j in range(i + 1, n + 1):
            piece = word[i:j]
            if prime[i][j] and (not acc or not _str_lt(acc[-1], piece, alphabet)):
                acc.append(piece)
                search(j, acc)
                acc.pop()

    search(0, [])
    if len(solutions) != 1:
        raise AssertionError(
            f"{word!r} has {len(solutions)} non-increasing prime decompositions")
    return solutions[0]


def _str_lt(u: str, v: str, alphabet: Alphabet) -> bool:
    ru = [alphabet.rank(c) for c in u]
    rv = [alphabet.rank(c) for c in v]
    return ru < rv


def longest_prime_prefix_finite(word: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> str:
    """The first factor of the factorization is the longest prime prefix."""
    return duval_factorize(word, alphabet)[0]


def primitive_root(e: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET
                   ) -> tuple[RatExpr, Ordinal]:
    """Shortest y with y^alpha the same word as e, together with alpha.

    Candidate roots are prefixes whose length divides |e| on the left:
    finite divisors of the leading coefficient, plus every first-visit prefix
    of the compiled automaton."""
    length = expr_length(e)
    candidates: list[Ordinal] = []
    lead_exp, lead_coeff = length.terms[0]
    for d in range(2, lead_coeff + 1):
        if lead_coeff % d == 0:
            if lead_exp == 0 and len(length.terms) > 1:
                continue
            candidates.append(Ordinal(((lead_exp, lead_coeff // d),) + length.terms[1:]))
    auto = compile_expr(e)
    for s in range(1, auto.n):
        pos, _ = first_visit_prefix(auto, s)
        candidates.append(pos)

    best: tuple[Ordinal, RatExpr, Ordinal] | None = None
    for cand in candidates:
        if cand.is_zero or cand >= length:
            continue
        alpha, rest = div_left(length, cand)
        if not rest.is_zero or alpha < Ordinal.from_int(2):
            continue
        root = prefix_to(e, cand)
        if word_equal(power(root, alpha), e, alphabet):
            if best is None or cand < best[0]:
                best = (cand, root, alpha)
    if best is None:
        return e, ONE
    return best[1], best[2]


def prime_witness(e: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET) -> tuple | None:
    """None when e is prime: primitive, and <=lex every proper suffix (a
    proper suffix may equal the whole word).  Otherwise the reason it is not:
    ("root", y, alpha) with e = y^alpha and alpha > 1, or ("suffix", q,
    suffix) for the first state q whose suffix is smaller than e."""
    word = as_finite_word(e)
    if word is not None and is_prime_finite(word, alphabet):
        return None
    root, alpha = primitive_root(e, alphabet)
    if alpha != ONE:
        return ("root", root, alpha)
    auto = compile_expr(e)
    for q in range(1, auto.n):
        suffix = suffix_word(auto, q)
        if compare(e, suffix, alphabet).rel not in (Rel.LESS, Rel.EQUAL):
            return ("suffix", q, suffix)
    return None


def is_prime_rational(e: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET) -> bool:
    """Definition-level primality: prime_witness finds no reason against."""
    return prime_witness(e, alphabet) is None
