"""Independent baseline algorithms and primality predicates."""

import itertools
import random
from collections import Counter

import pytest

from ratword import (
    duval_factorize,
    factorize,
    factorize_structural,
    is_prime_finite,
    parse_expr,
    prime_witness,
    primitive_root,
    word_equal,
)
from ratword.automaton import compile_expr, expr_of_range, suffix_word
from ratword.duplication import tau
from ratword.expr import as_finite_word, expr_length, format_expr
from ratword.order import Rel, compare
from ratword.ordinal import ONE, OMEGA, Ordinal
from ratword.gen import random_expr
from ratword.runner import Trace, sync_step

from helpers import brute_force_factorize, random_finite_word

E = parse_expr


def test_duval_examples():
    assert duval_factorize("aabab") == ["aabab"]
    assert duval_factorize("abaab") == ["ab", "aab"]
    assert duval_factorize("bbb") == ["b", "b", "b"]
    assert duval_factorize("abab") == ["ab", "ab"]
    assert duval_factorize("a") == ["a"]


def test_duval_matches_brute_force_exhaustive():
    for n in range(1, 10):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            assert duval_factorize(word) == brute_force_factorize(word)


def test_prime_finite_examples():
    assert is_prime_finite("aabab")
    assert is_prime_finite("aab")
    assert not is_prime_finite("aba")
    assert not is_prime_finite("abab")
    assert not is_prime_finite("ba")


def test_prime_rational_table():
    prime = ["aab", "aabab", "ab^w", "a^wb", "(a^wb)^wb"]
    not_prime = ["aba", "abab", "ba^w", "(ab)^w", "a^w"]
    for text in prime:
        assert prime_witness(E(text)) is None, text
    for text in not_prime:
        assert prime_witness(E(text)) is not None, text


def test_primitive_root_examples():
    root, alpha = primitive_root(E("a^w"))
    assert word_equal(root, E("a")) and alpha == OMEGA
    root, alpha = primitive_root(E("(ab)^w"))
    assert word_equal(root, E("ab")) and alpha == OMEGA
    root, alpha = primitive_root(E("abab"))
    assert word_equal(root, E("ab")) and alpha == Ordinal.from_int(2)
    root, alpha = primitive_root(E("(aa)^w"))
    assert word_equal(root, E("a")) and alpha == OMEGA
    root, alpha = primitive_root(E("aabab"))
    assert word_equal(root, E("aabab")) and alpha == ONE


def test_primitive_root_is_the_shortest_root_that_works():
    """Candidate order is not length order: the divisor candidates of
    abababab come as lengths 4, 2, 1, and (ab)^w(ab)^w's divisor w comes
    before its self-run lengths 1, 2, ...  The root is the shortest."""
    root, alpha = primitive_root(E("abababab"))
    assert (format_expr(root), alpha) == ("ab", Ordinal.from_int(4))
    root, alpha = primitive_root(E("(ab)^w(ab)^w"))
    assert (format_expr(root), alpha) == ("ab", Ordinal.omega(1, 2))


# Proper powers whose root is transfinite and ends after an inner limit; the
# primitive root search misses the root and prime_witness calls them prime.
ROOT_MISSED = ["a((ba)^w)^w", "a((acabcba)^w)^w", "a(b(acdab)^wd^w)^w",
               "a((b^wb^wbba)^w)^w"]


@pytest.mark.parametrize("text", ROOT_MISSED)
def test_engines_factorize_as_a_power_of_one_prime(text):
    fact = factorize(E(text))[0]
    assert len(fact.blocks) == 1 and fact.blocks[0][1] == OMEGA
    assert fact.same_as(factorize_structural(E(text)))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 11")
@pytest.mark.parametrize("text", ROOT_MISSED)
def test_prime_witness_finds_a_transfinite_root(text):
    witness = prime_witness(E(text))
    assert witness is not None and witness[0] == "root"


def test_primitive_root_reconstructs():
    rng = random.Random(17)
    from ratword import power
    from ratword.gen import random_expr
    for _ in range(200):
        e = random_expr(rng, max_size=8, max_depth=2, letters="ab")
        root, alpha = primitive_root(e)
        assert word_equal(power(root, alpha), e)


def test_primitive_root_candidates_are_the_prefix_lengths():
    """The position at which one run of the automaton against itself first
    reaches (s, s), a candidate root length of primitive_root, is the
    length of the token range [0, s) read back, on 500 draws, their tau
    and a 60-deep nesting."""
    rng = random.Random(23)
    draws = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(500)]
    draws += [tau(e) for e in draws]
    draws.append(E("(" * 60 + "ab" + ")^wb" * 60))
    for e in draws:
        auto = compile_expr(e)
        trace = Trace((0, 0))
        sync_step(auto, auto, trace)
        for s in range(1, auto.n):
            assert trace.position(trace.entry((s, s))) == \
                expr_length(expr_of_range(auto, 0, s))


def reference_prime_witness(e):
    """prime_witness as written before each suffix took one product run:
    the suffix of every state is written out and compared with e."""
    word = as_finite_word(e)
    if word is not None and is_prime_finite(word):
        return None
    root, alpha = primitive_root(e)
    if alpha != ONE:
        return ("root", root, alpha)
    auto = compile_expr(e)
    for q in range(1, auto.n):
        suffix = suffix_word(auto, q)
        if compare(e, suffix).rel not in (Rel.LESS, Rel.EQUAL):
            return ("suffix", q, suffix)
    return None


def test_prime_witness_matches_a_compare_of_every_suffix():
    """On 1,500 draws, 500 of their tau and the 40-deep nesting with and
    without a leading b, prime_witness gives the reference's answer, the
    suffix text included."""
    rng = random.Random(5)
    draws = [random_expr(rng, max_size=16, max_depth=4, letters="abc") for _ in range(1500)]
    draws += [tau(e) for e in draws[:500]]
    nest = "(" * 40 + "ab" + ")^wb" * 40
    draws += [E(nest), E("b" + nest)]
    kinds = Counter()
    for e in draws:
        got = prime_witness(e)
        assert repr(got) == repr(reference_prime_witness(e)), e
        kinds[got and got[0]] += 1
    assert kinds[None] > 200 and kinds["root"] > 100 and kinds["suffix"] > 400
    compile_expr.cache_clear()


def test_longest_prime_prefix():
    assert duval_factorize("abaab")[0] == "ab"
    assert duval_factorize("aabab")[0] == "aabab"
    assert duval_factorize("ba")[0] == "b"
    rng = random.Random(19)
    for _ in range(300):
        word = random_finite_word(rng, 12, "ab") or "a"
        best = max((word[:i] for i in range(1, len(word) + 1)
                    if is_prime_finite(word[:i])), key=len)
        assert duval_factorize(word)[0] == best
