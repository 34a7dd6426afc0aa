"""Independent oracles: classical finite-word algorithms and definition-level
primality checks used to cross-validate both factorization engines."""

from __future__ import annotations

from .automaton import compile_expr, suffix_word
from .expr import RatExpr, as_finite_word, expr_length, power, prefix_to
from .order import word_equal
from .ordinal import ONE, Ordinal, div_left
from .runner import Trace, run_to_divergence, sync_step


def duval_factorize(word: str) -> list[str]:
    """Chen-Fox-Lyndon factorization of a finite word into non-increasing
    primes (each prime listed once per occurrence)."""
    out = []
    i = 0
    n = len(word)
    while i < n:
        j, k = i + 1, i
        while j < n and word[k] <= word[j]:
            k = i if word[k] < word[j] else k + 1
            j += 1
        while i <= k:
            out.append(word[i:i + j - k])
            i += j - k
    return out


def is_prime_finite(word: str) -> bool:
    """A finite word is prime iff it is strictly smaller than each of its
    proper suffixes."""
    return all(word < word[i:] for i in range(1, len(word)))


def primitive_root(e: RatExpr) -> tuple[RatExpr, Ordinal]:
    """Shortest y with y^alpha the same word as e, together with alpha.

    Candidate roots are prefixes whose length divides |e| on the left:
    finite divisors of the leading coefficient, plus the length of the
    prefix read until the compiled automaton first reaches each state: the
    position of (s, s) in one run of the automaton against itself.  They
    are tried shortest first, so the first that works is the root."""
    length = expr_length(e)
    lead_exp, lead_coeff = length.terms[0]
    candidates = {Ordinal(((lead_exp, lead_coeff // d),) + length.terms[1:])
                  for d in range(2, lead_coeff + 1) if lead_coeff % d == 0}
    auto = compile_expr(e)
    trace, _ = run_to_divergence(auto, auto)
    candidates.update(trace.position(trace.entry((s, s))) for s in range(1, auto.n))
    # every candidate is a proper prefix's length, so a division with no
    # remainder has alpha >= 2
    for cand in sorted(candidates):
        alpha, rest = div_left(length, cand)
        if rest.is_zero:
            root = prefix_to(e, cand)
            if word_equal(power(root, alpha), e):
                return root, alpha
    return e, ONE


def prime_witness(e: RatExpr) -> tuple | None:
    """None when e is prime: primitive, and <=lex every proper suffix (a
    proper suffix may equal the whole word).  Otherwise the reason it is not:
    ("root", y, alpha) with e = y^alpha and alpha > 1, or ("suffix", q,
    suffix) for the first state q whose suffix is smaller than e.

    Each suffix is compared with e by one run of the automaton against
    itself from (0, q), all on one trace reset at each q; only the witness's
    suffix is written out."""
    word = as_finite_word(e)
    if word is not None and is_prime_finite(word):
        return None
    root, alpha = primitive_root(e)
    if alpha != ONE:
        return ("root", root, alpha)
    auto = compile_expr(e)
    trace = Trace((0, 0))
    for q in range(1, auto.n):
        trace.reset((0, q))
        a, b = sync_step(auto, auto, trace)
        if a is None or b is not None and a < b:
            continue
        return ("suffix", q, suffix_word(auto, q))
    return None

