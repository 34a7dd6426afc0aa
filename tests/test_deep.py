"""Deep w-nesting: no walk over an expression recurses, and the only input
that the library refuses for its size is one whose duplicated expression
passes the token budget."""

import time

import pytest
from hypothesis import given, settings, strategies as st

from ratword.automaton import compile_expr
from ratword.duplication import TAU_TOKENS, depth, size, tau
from ratword.expr import (ExprError, expr_length, first_letters, format_expr, parse_expr,
                          prefix_to, suffix_from)
from ratword.factorizer import factorize
from ratword.oracles import prime_witness
from ratword.order import Rel, compare
from ratword.ordinal import Ordinal
from ratword.structural import factorize_structural

fin = Ordinal.from_int


def nest(d: int, letters: str = "") -> str:
    """(...(a)^w...)^w, d deep; with letters, (...(ab)^w x1...)^w xd."""
    if not letters:
        return "(" * d + "a" + ")^w" * d
    return "(" * d + "ab" + "".join(f")^w{x}" for x in letters)


def tower(d: int) -> str:
    return "(" * d + "ab" + ")^w" * d


def lettered_tower(d: int) -> str:
    """(...((ab)^w c)^w b...)^w: the duplicated tower has 2^(d+2) - 2 tokens."""
    return nest(d, ("cb" * d)[:d])


DEEP = 10_000
SHAPES = {"a": nest(DEEP), "ab": nest(DEEP, "b" * DEEP)}


@pytest.mark.parametrize("text", SHAPES.values(), ids=SHAPES.keys())
def test_hash_and_equality_of_separately_parsed_deep_nestings(text):
    e, f = parse_expr(text), parse_expr(text)
    assert e is f
    assert hash(e) == hash(f) and e == f and not e != f
    g = parse_expr(text.replace("a", "b", 1))
    assert e != g and g != e


def test_compile_cache_hits_an_equal_deep_expression():
    e, f = parse_expr(SHAPES["a"]), parse_expr(SHAPES["a"])
    compile_expr.cache_clear()
    auto = compile_expr(e)
    assert compile_expr(f) is auto
    assert compile_expr.cache_info().hits == 1
    assert auto.n == DEEP + 1
    compile_expr.cache_clear()


@pytest.mark.parametrize("shape", SHAPES)
def test_no_walk_recurses_on_deep_nesting(shape):
    text = SHAPES[shape]
    e = parse_expr(text)
    assert format_expr(e) == text.replace("(a)^w", "a^w")
    assert depth(e) == DEEP
    assert size(e) == compile_expr(e).n == (DEEP + 1 if shape == "a" else 2 * DEEP + 2)
    length = expr_length(e)
    assert length == Ordinal(((DEEP, 1),) if shape == "a" else ((DEEP, 1), (0, 1)))
    assert expr_length(suffix_from(e, fin(3))) == length
    assert first_letters(suffix_from(e, fin(3)), 1) == shape[-1]
    assert format_expr(prefix_to(e, fin(3))) == ("aaa" if shape == "a" else "aba")
    assert compare(e, "abb").rel is compare(e, "b").rel is Rel.LESS
    assert compare("b", e).rel is Rel.GREATER
    with pytest.raises(ExprError):
        tau(e)
    with pytest.raises(ExprError):
        factorize(e)
    compile_expr.cache_clear()


def test_structural_engine_answers_deep_nesting_fast():
    e = parse_expr(nest(3000))
    start = time.perf_counter()
    fact = factorize_structural(e)
    assert time.perf_counter() - start < 1
    assert str(fact) == "a^[w^3000]"
    # deeper than the default recursion limit; this word is prime
    e = parse_expr(nest(1200, "b" * 1200))
    fact = factorize_structural(e)
    assert len(fact.blocks) == 1 and fact.blocks[0][0] == e


def test_structural_engine_is_linear_on_a_lettered_nesting():
    """Each level compares the growing transfinite prime with the letter b,
    which reads the prime's first letters from its stored w-prefix."""
    e = parse_expr(nest(3000, "b" * 3000))
    start = time.perf_counter()
    fact = factorize_structural(e)
    assert time.perf_counter() - start < 1
    assert fact.blocks == ((e, Ordinal.from_int(1)),)


@pytest.mark.parametrize("text", [nest(999), nest(999, "b" * 999)], ids=["a", "ab"])
def test_separately_parsed_equal_nestings_compare_fast(text):
    """Two equal words that agree on their first w letters are equal
    expressions, so no product run is made."""
    x, y = parse_expr(text), parse_expr(text)
    start = time.perf_counter()
    out = compare(x, y)
    assert time.perf_counter() - start < 1
    assert out.rel is Rel.EQUAL


def test_unequal_nestings_that_agree_on_their_first_w_letters_compare_fast():
    """The product run closes 999 nested loops, each carrying its states as
    an interval, before the words differ at w^999."""
    text = nest(999, "b" * 999)
    x, y = parse_expr(text), parse_expr(text[:-1] + "c")
    start = time.perf_counter()
    out = compare(x, y)
    assert time.perf_counter() - start < 1
    assert (out.rel, out.position, out.letters) == \
        (Rel.LESS, Ordinal(((999, 1),)), ("b", "c"))


def test_prime_witness_answers_a_100_deep_nesting_fast():
    """One product run per state decides every suffix; only a witness's
    suffix would be written out, and this word has none."""
    e = parse_expr(nest(100, "b" * 100))
    start = time.perf_counter()
    assert prime_witness(e) is None
    assert time.perf_counter() - start < 1
    compile_expr.cache_clear()


@pytest.mark.parametrize("text", [tower(30), nest(800)], ids=["tower30", "nest800"])
def test_factorize_refuses_the_token_budget_fast(text):
    e = parse_expr(text)
    start = time.perf_counter()
    with pytest.raises(ExprError, match=f"exceeds {TAU_TOKENS} tokens"):
        factorize(e)
    assert time.perf_counter() - start < 1


def test_token_budget_bounds_a_tower():
    assert size(tau(parse_expr(lettered_tower(16)))) == 2 ** 18 - 2 <= TAU_TOKENS
    with pytest.raises(ExprError):
        tau(parse_expr(lettered_tower(17)))


@settings(deadline=None, max_examples=10)
@given(st.lists(st.sampled_from(["", "a", "b", "ba"]), min_size=1000, max_size=3000),
       st.sampled_from(["ab", "ba", "abb"]))
def test_drawn_deep_nestings(suffixes, core):
    """A nesting 1000 to 3000 deep, each level followed by a drawn word."""
    text = "(" * len(suffixes) + core + "".join(f")^w{x}" for x in suffixes)
    e = parse_expr(text)
    assert format_expr(e) == text and parse_expr(text) == e
    assert hash(parse_expr(text)) == hash(e)
    assert depth(e) == len(suffixes)
    assert compile_expr(e).n == size(e)
    length = expr_length(e)
    for gamma in (fin(0), fin(5), Ordinal(((1, 1),))):
        if gamma < length:
            first_letters(suffix_from(e, gamma), 1)
            assert expr_length(suffix_from(e, gamma)) == length
            if not gamma.is_zero:
                assert expr_length(prefix_to(e, gamma)) == gamma
    compare(e, "abab")
    with pytest.raises(ExprError):
        factorize(e)
    compile_expr.cache_clear()
