import random

import pytest
from hypothesis import given, settings, strategies as st

from ratword.automaton import (AutomatonError, MissingLimitError, SharpAutomaton,
                               compile_expr, expr_of_range, first_visit_prefix,
                               numbered_word, read_word, suffix_word, to_dot,
                               validate)
from ratword.duplication import tau
from ratword.expr import expr_length, format_expr, parse_expr, suffix_from
from ratword.gen import random_expr
from ratword.order import word_equal
from ratword.ordinal import Ordinal

W = Ordinal.omega
fin = Ordinal.from_int


def test_seven_state_automaton():
    # (a^w b)^w a^w: six tokens, states 0..6
    auto = compile_expr(parse_expr("(a^wb)^wa^w"))
    assert auto.n == 6
    assert list(auto.succ) == [("a", 1), ("a", 1), ("b", 3), ("a", 1),
                               ("a", 5), ("a", 5)]
    assert auto.limits == {(1, 1): 2, (1, 3): 4, (5, 5): 6}


def test_thirteen_state_automaton():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    assert auto.n == 12
    assert list(auto.succ) == [("a", 1), ("a", 2), ("a", 2), ("b", 4),
                               ("a", 5), ("a", 6), ("a", 6), ("b", 8),
                               ("a", 5), ("a", 10), ("a", 11), ("a", 11)]
    assert auto.limits == {(2, 2): 3, (6, 6): 7, (5, 8): 9, (11, 11): 12}


def test_numbered_word():
    assert numbered_word(parse_expr("(a^wb)^wa^w")) == "(0a1w2b)3w4a5w6"
    assert numbered_word(parse_expr("(bba)^w")) == "(0b1b2a)3w4"


def test_validate_clean():
    for text in ["a", "ab^w", "(a^wb)^wa^w", "((ab)^wc)^wd"]:
        assert validate(compile_expr(parse_expr(text))) == []


def test_validate_towers():
    # the benchmark's tower shape (...((ac)^w x1)^w x2 ...)^w xd, duplicated
    for d in range(2, 9):
        text = "ac"
        for x in "bcabcabc"[:d]:
            text = f"({text})^w{x}"
        auto = compile_expr(tau(parse_expr(text)))
        assert auto.n == 2 ** (d + 2) - 2
        assert validate(auto) == []


def test_sharp_range_checks():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    assert word_equal(expr_of_range(auto, 0, 4), parse_expr("aa^wb"))
    with pytest.raises(AutomatonError):
        SharpAutomaton(auto, 6, 9)  # 6 lies inside a loop
    for i, j in [(4, 4), (5, 4), (-1, 4), (0, 13)]:
        with pytest.raises(AutomatonError):
            SharpAutomaton(auto, i, j)


def test_sharp_shape():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    sharp = SharpAutomaton(auto, 0, 4)
    assert sharp.leaving(4) == ("a", 1)           # added back edge labeled like 0->1
    assert sharp.limit_target({1, 2, 3, 4}) == 4  # added limit
    assert sharp.limit_target({2}) == 3           # inherited limit
    with pytest.raises(MissingLimitError):
        sharp.limit_target({6})                   # inherited, but leaves [0, 4]
    # degenerate j = i+1: one-letter loop
    one = SharpAutomaton(auto, 0, 1)
    assert one.leaving(1) == ("a", 1)
    assert one.limit_target({1}) == 1


def test_first_visit_prefix():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    pos, pref = first_visit_prefix(auto, 4)
    assert pos == W() + fin(1)
    assert word_equal(pref, parse_expr("aa^wb"))
    pos, _ = first_visit_prefix(auto, 9)
    assert pos == W(2)
    pos, _ = first_visit_prefix(auto, 12)
    assert pos == W(2) + W()


def test_expr_of_range_rejects_crossing_group():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    with pytest.raises(AutomatonError):
        expr_of_range(auto, 5, 9)  # token 8's group starts at token 4


def test_suffix_word_examples():
    auto = compile_expr(parse_expr("(a^wb)^wa^w"))
    assert word_equal(suffix_word(auto, 2), parse_expr("b(a^wb)^wa^w"))
    assert word_equal(suffix_word(auto, 4), parse_expr("a^w"))
    assert suffix_word(auto, 6) is None


def test_to_dot():
    dot = to_dot(compile_expr(parse_expr("(ab)^w")))
    assert "digraph" in dot and '0 -> 1 [label="a"]' in dot and "lim" in dot


def test_roundtrip_read_word():
    for text in ["a", "abc", "a^w", "(ab)^w", "(a^wb)^wa^w", "((ab)^wc)^wd"]:
        e = parse_expr(text)
        assert word_equal(read_word(compile_expr(e)), e)


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_random_roundtrip_and_suffixes(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_size=8, max_depth=2, letters="abc")
    auto = compile_expr(e)
    assert validate(auto) == []
    assert validate(compile_expr(tau(e))) == []
    assert word_equal(read_word(auto), e)
    # the word read from any state matches the positional suffix
    for q in range(1, auto.n):
        pos, pref = first_visit_prefix(auto, q)
        assert expr_length(pref) == pos
        if pos < expr_length(e):
            assert word_equal(suffix_word(auto, q), suffix_from(e, pos))
