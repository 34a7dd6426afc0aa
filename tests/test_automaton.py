import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ratword.automaton import (AutomatonError, MissingLimitError, SharpAutomaton,
                               SingleWordAutomaton, compile_expr, expr_of_range,
                               numbered_word, suffix_word, to_dot, validate)
from ratword.duplication import tau
from ratword.expr import (Concat, Letter, Omega, concat, expr_length, format_expr,
                          parse_expr, prefix_to, suffix_from)
from ratword.factorizer import factorize, marked_expression
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


def test_numbered_word_nested_groups():
    assert numbered_word(parse_expr("((a^wb)^wc)^w")) == "((0a1w2b)3w4c)5w6"
    assert numbered_word(parse_expr("(a^w)^w")) == "(0a1w)2w3"
    assert numbered_word(parse_expr("((ab)^w)^w")) == "((0a1b)2w)3w4"


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_renderings_spell_the_expression(seed):
    # without numbers (and with w written ^w) the numbering is the
    # expression's own text; with no marks the marked expression is too
    rng = random.Random(seed)
    e = random_expr(rng, max_size=20, max_depth=4, letters="abcd")
    for x in (e, tau(e)):
        numbered = numbered_word(x)
        assert re.sub(r"\d+", "", numbered).replace("w", "^w") == format_expr(x)
        numbers = [int(k) for k in re.findall(r"\d+", numbered)]
        assert numbers == list(range(compile_expr(x).n + 1))
        assert marked_expression(x, set(), set()) == format_expr(x)


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


def _looped(limits):
    """Hand-built automaton over 'a' with the limit transition {lo..hi} -> hi+1
    and the backward transition hi -> lo for each given interval.  It has no
    nodes: it is compiled from no expression, and validate reads none."""
    n = max(hi for _, hi in limits) + 1
    succ = [("a", s + 1) for s in range(n)]
    for lo, hi in limits:
        succ[hi] = ("a", lo)
    return SingleWordAutomaton(succ, {(lo, hi): hi + 1 for lo, hi in limits}, ())


@pytest.mark.parametrize("succ, limits, message", [
    ([("a", 1), ("a", 3), ("a", 3)], {}, "successor 1->3 skips ahead"),
    ([("a", 1), ("a", 1), ("b", 3)], {(1, 1): 3}, "limit {1..1}->3 does not leave to 2"),
    ([("a", 1), ("a", 2), ("a", 1), ("b", 4)], {(1, 2): 2}, "limit {1..2}->2 does not leave to 3"),
])
def test_construction_refuses_transitions_that_skip_ahead(succ, limits, message):
    """The product run carries a loop's states as an interval, which holds
    only while no transition skips ahead; construction checks it."""
    with pytest.raises(AutomatonError, match=re.escape(message)):
        SingleWordAutomaton(succ, limits, ())


@pytest.mark.parametrize("limits, crossing", [
    ([(1, 4), (3, 6)], "[1,4] and [3,6]"),
    ([(1, 8), (2, 3), (5, 9)], "[1,8] and [5,9]"),
    ([(1, 2), (2, 5), (6, 7)], "[1,2] and [2,5]"),
])
def test_validate_crossing_limits(limits, crossing):
    overlaps = [p for p in validate(_looped(limits)) if "overlap" in p]
    assert overlaps == [f"limit intervals {crossing} overlap"]


@pytest.mark.parametrize("limits", [
    [(1, 6), (2, 3), (5, 5)],          # two nested in one
    [(1, 4), (1, 2)],                  # nested with a shared start
    [(1, 2), (4, 5)],                  # disjoint
    [(1, 8), (2, 5), (3, 3), (7, 7)],  # nested three deep, then disjoint
])
def test_validate_nested_or_disjoint_limits(limits):
    assert validate(_looped(limits)) == []


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
    assert sharp.table is auto.table              # the base's transitions, shared
    assert (sharp.jump, sharp.back) == (4, ("a", 1))  # added back edge labeled like 0->1
    assert sharp.limit_target(1, 4) == 4          # added limit
    assert sharp.limit_target(2, 2) == 3          # inherited limit
    with pytest.raises(MissingLimitError):
        sharp.limit_target(6, 6)                  # inherited, but leaves [0, 4]
    for lo, hi in [(1, 3), (2, 4)]:
        with pytest.raises(MissingLimitError):
            sharp.limit_target(lo, hi)            # intervals that are no limit
    # degenerate j = i+1: one-letter loop
    one = SharpAutomaton(auto, 0, 1)
    assert (one.jump, one.back) == (1, ("a", 1))
    assert one.limit_target(1, 1) == 1


def test_first_visit_prefix():
    """The prefix read until the run first reaches state s is the token
    range [0, s)."""
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    pref = expr_of_range(auto, 0, 4)
    assert expr_length(pref) == W() + fin(1)
    assert word_equal(pref, parse_expr("aa^wb"))
    assert expr_length(expr_of_range(auto, 0, 9)) == W(2)
    assert expr_length(expr_of_range(auto, 0, 12)) == W(2) + W()


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
        assert word_equal(suffix_word(compile_expr(e), 0), e)


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_random_roundtrip_and_suffixes(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_size=8, max_depth=2, letters="abc")
    auto = compile_expr(e)
    assert validate(auto) == []
    assert validate(compile_expr(tau(e))) == []
    assert word_equal(suffix_word(auto, 0), e)
    # the words read up to and from any state match the positional prefix
    # and suffix
    for q in range(1, auto.n):
        pref = expr_of_range(auto, 0, q)
        pos = expr_length(pref)
        assert word_equal(pref, prefix_to(e, pos))
        if pos < expr_length(e):
            assert word_equal(suffix_word(auto, q), suffix_from(e, pos))


# -- reading token ranges back as the expression's own nodes -----------------

def _reference_tokens(e):
    """The token numbering by a recursive walk: ("letter", a) or
    ("omega", body_start)."""
    tokens = []

    def emit(node):
        if isinstance(node, Letter):
            tokens.append(("letter", node.sym))
        elif isinstance(node, Omega):
            start = len(tokens)
            emit(node.body)
            tokens.append(("omega", start))
        else:
            for p in node.parts:
                emit(p)

    emit(e)
    return tokens


def _reference_range(tokens, lo, hi):
    """Tokens [lo, hi) rebuilt letter by letter, reading forwards."""
    if lo >= hi:
        raise AutomatonError("empty token range")
    parts = []  # (start token, expr)
    for t in range(lo, hi):
        kind, val = tokens[t]
        if kind == "letter":
            parts.append((t, Letter(val)))
            continue
        if val < lo:
            raise AutomatonError(f"w-power body at token {val} crosses range start {lo}")
        body = []
        while parts and parts[-1][0] >= val:
            body.append(parts.pop()[1])
        parts.append((val, Omega(concat(body[::-1]))))
    return concat([p for _, p in parts])


def _outcome(read, *args):
    try:
        return repr(read(*args))
    except AutomatonError as err:
        return f"AutomatonError: {err}"


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_expr_of_range_matches_a_letter_by_letter_rebuild(seed):
    """On every range, ends inside a body included, expr_of_range gives what
    a forward rebuild gives, and raises the same error on the same ranges
    whose start cuts through a body."""
    rng = random.Random(seed)
    e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
    for x in (e, tau(e)):
        auto = compile_expr(x)
        tokens = _reference_tokens(x)
        assert list(auto.tokens) == tokens
        for lo in range(auto.n + 1):
            for hi in range(lo, auto.n + 1):
                expected = _outcome(_reference_range, tokens, lo, hi)
                assert _outcome(expr_of_range, auto, lo, hi) == expected


def test_factorize_primes_are_nodes_of_the_duplicated_expression():
    """On a depth-10 tower, every w-power in the primes is a node of tau(e)
    itself, not a copy.  compile_expr's cache matches expressions by
    equality, so it is cleared first: a hit would hand back the nodes of an
    equal expression compiled earlier."""
    compile_expr.cache_clear()
    text = "ac"
    for x in "bcabcabcab":
        text = f"({text})^w{x}"
    fact, _, dup = factorize(parse_expr(text))
    dup_nodes = set()
    stack = [dup]
    while stack:
        node = stack.pop()
        if id(node) not in dup_nodes:
            dup_nodes.add(id(node))
            stack.extend(node.parts if isinstance(node, Concat) else
                         [node.body] if isinstance(node, Omega) else [])
    omegas = 0
    stack = [prime for prime, _ in fact.blocks]
    while stack:
        node = stack.pop()
        if isinstance(node, Omega):
            omegas += 1
            assert id(node) in dup_nodes
            stack.append(node.body)
        elif isinstance(node, Concat):
            stack.extend(node.parts)
    assert omegas >= 10
