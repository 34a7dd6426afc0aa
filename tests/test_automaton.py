import functools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ratword.automaton import (AutomatonError, MissingLimitError, SharpAutomaton,
                               compile_expr, expr_of_range, numbered_word, suffix_word,
                               to_dot, validate)
from ratword.duplication import tau
from ratword.expr import (Concat, Letter, Omega, concat, expr_length, format_expr,
                          parse_expr, prefix_to, split_at, suffix_from)
from ratword.factorizer import factorize, marked_expression
from ratword.gen import random_expr
from ratword.order import word_equal
from ratword.ordinal import OMEGA, ONE, ZERO, Ordinal, sub_left

from helpers import hand_built, random_finite_word, reference_compile, targets
from test_order import interval_limit

W = Ordinal.omega
fin = Ordinal.from_int


def test_seven_state_automaton():
    # (a^w b)^w a^w: six tokens, states 0..6
    auto = compile_expr(parse_expr("(a^wb)^wa^w"))
    assert auto.n == 6
    assert targets(auto) == [("a", 1), ("a", 1), ("b", 3), ("a", 1),
                             ("a", 5), ("a", 5)]
    assert auto.table == (("a", 1), ("a", 0), ("b", 1), ("a", -2),
                          ("a", 1), ("a", 0), None)
    assert auto.limits == {(1, 1): 2, (1, 3): 4, (5, 5): 6}


def test_thirteen_state_automaton():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    assert auto.n == 12
    assert targets(auto) == [("a", 1), ("a", 2), ("a", 2), ("b", 4),
                             ("a", 5), ("a", 6), ("a", 6), ("b", 8),
                             ("a", 5), ("a", 10), ("a", 11), ("a", 11)]
    # tau's copy of a^w b, tokens 4..7, repeats the steps of tokens 0..3
    assert auto.table[4:8] == auto.table[0:4]
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
    auto = hand_built(succ)
    assert targets(auto) == succ
    assert auto.limits == {(lo, hi): hi + 1 for lo, hi in limits}
    return auto


def test_construction_refuses_transitions_that_skip_ahead():
    """The product run names a loop by the greatest state of its window,
    which holds only while no transition skips ahead; construction checks
    it."""
    with pytest.raises(AutomatonError, match=re.escape("successor 1->3 skips ahead")):
        hand_built([("a", 1), ("a", 3), ("a", 3)])


def test_construction_refuses_targets_below_state_zero():
    """A negative target would leave the states; before construction
    refused it, the in-loop table read [0, 0] for the interval [-1, 0]
    that a back edge 0 -> -1 names."""
    with pytest.raises(AutomatonError, match=re.escape("successor 0->-1 leaves the states")):
        hand_built([("a", -1)])
    with pytest.raises(AutomatonError, match=re.escape("successor 2->-3 leaves the states")):
        hand_built([("a", 1), ("b", 2), ("a", -3)])


def test_validate_reports_a_transition_into_state_zero_once():
    """State 0 is a state: a transition into it is reported once, as
    entering state 0, and not as leaving the states."""
    assert validate(hand_built([("a", 0), ("b", 2)])) == \
        ["state 0 is entered by a transition"]


CROSSING = [
    ([(1, 4), (3, 6)], "[1,4] and [3,6]"),
    ([(1, 8), (2, 3), (5, 9)], "[1,8] and [5,9]"),
    ([(1, 2), (2, 5), (6, 7)], "[1,2] and [2,5]"),
]
NESTED_OR_DISJOINT = [
    [(1, 6), (2, 3), (5, 5)],          # two nested in one
    [(1, 4), (1, 2)],                  # nested with a shared start
    [(1, 2), (4, 5)],                  # disjoint
    [(1, 8), (2, 5), (3, 3), (7, 7)],  # nested three deep, then disjoint
]


@pytest.mark.parametrize("limits, crossing", CROSSING)
def test_validate_crossing_limits(limits, crossing):
    overlaps = [p for p in validate(_looped(limits)) if "overlap" in p]
    assert overlaps == [f"limit intervals {crossing} overlap"]


@pytest.mark.parametrize("limits", NESTED_OR_DISJOINT)
def test_validate_nested_or_disjoint_limits(limits):
    assert validate(_looped(limits)) == []


def test_sharp_range_checks():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    assert word_equal(expr_of_range(auto, 0, 4), parse_expr("aa^wb"))
    refused = [((6, 9), "state 6 lies inside a loop")]
    refused += [((i, j), f"bad state range [{i}, {j}]")
                for i, j in [(4, 4), (5, 4), (-1, 4), (0, 13)]]
    sharp = SharpAutomaton(auto, 0, 4)
    for (i, j), message in refused:
        with pytest.raises(AutomatonError, match=re.escape(message)):
            SharpAutomaton(auto, i, j)
        # retarget makes the same checks, and a refused one changes nothing
        with pytest.raises(AutomatonError, match=re.escape(message)):
            sharp.retarget(i, j)
        assert (sharp.i, sharp.initial, sharp.jump, sharp.back) == (0, 0, 4, ("a", 1 - 4))
    sharp.retarget(4, 12)
    fresh = SharpAutomaton(auto, 4, 12)
    assert (sharp.i, sharp.initial, sharp.jump, sharp.back, sharp.table) == \
        (fresh.i, fresh.initial, fresh.jump, fresh.back, fresh.table)


def test_sharp_shape():
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    sharp = SharpAutomaton(auto, 0, 4)
    assert sharp.table is auto.table              # the base's transitions, shared
    # added back edge 4 -> 1, labeled like 0->1, as the step back 3 states
    assert (sharp.jump, sharp.back) == (4, ("a", 1 - 4))
    assert sharp.limit_target(4) == 4             # added limit, on the loop topped by j
    assert sharp.limit_target(2) == 3             # inherited limit
    with pytest.raises(MissingLimitError, match=re.escape("limit target 7 escapes sharp [0,4]")):
        sharp.limit_target(6)                     # inherited, but leaves [0, 4]
    with pytest.raises(MissingLimitError, match=re.escape("state 3 ends no loop")):
        sharp.limit_target(3)                     # a letter token tops no loop
    # degenerate j = i+1: one-letter loop
    one = SharpAutomaton(auto, 0, 1)
    assert (one.jump, one.back) == (1, ("a", 0))
    assert one.limit_target(1) == 1


def test_base_refuses_a_top_state_that_ends_no_loop():
    """Only an w-token tops a loop: every other state, the final one
    included, has no limit transition."""
    auto = compile_expr(tau(parse_expr("(a^wb)^wa^w")))
    tops = [2, 6, 8, 11]
    assert [auto.limit_target(hi) for hi in tops] == [3, 7, 9, 12]
    for hi in sorted(set(range(auto.n + 1)) - set(tops)):
        with pytest.raises(MissingLimitError, match=re.escape(f"state {hi} ends no loop")):
            auto.limit_target(hi)


def reference_limits(e):
    """The limit transitions of e by a recursive walk of the expression:
    (start + 1, s) -> s + 1 for each w-token s whose body starts at token
    start."""
    limits, tokens = {}, [0]

    def walk(node):
        if isinstance(node, Letter):
            tokens[0] += 1
        elif isinstance(node, Omega):
            start = tokens[0]
            walk(node.body)
            s = tokens[0]
            limits[(start + 1, s)] = s + 1
            tokens[0] += 1
        else:
            for part in node.parts:
                walk(part)

    walk(e)
    return limits


def test_limits_are_the_back_edges():
    """The limits read off the back edges are those the expression's
    w-tokens make, on 2,000 random_expr draws and their tau, and each of
    those automata validates clean."""
    rng = random.Random(20)
    draws = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(2000)]
    omegas = 0
    for e in draws + [tau(e) for e in draws]:
        auto = compile_expr(e)
        assert auto.limits == reference_limits(e), format_expr(e)
        assert validate(auto) == []
        omegas += len(auto.limits)
    assert omegas > 4000
    compile_expr.cache_clear()


def test_in_loop_and_limits_match_the_back_edges():
    """in_loop and limits against their definitions, read off the absolute
    targets: state s is inside a loop when lo <= s <= hi for some back edge
    hi -> lo, and each back edge gives the limit (lo, hi) -> hi + 1.  On
    1,000 random_expr draws and their tau, on 300 random finite words, no
    state of which is inside a loop, and on the hand-built automata above."""
    rng = random.Random(24)
    draws = [random_expr(rng, max_size=16, max_depth=4, letters="abcd") for _ in range(1000)]
    autos = [compile_expr(x) for e in draws for x in (e, tau(e))]
    autos += map(_looped, [limits for limits, _ in CROSSING] + NESTED_OR_DISJOINT)
    for _ in range(300):
        auto = compile_expr(parse_expr(random_finite_word(rng, 60, "abc")))
        assert not any(map(auto.in_loop, range(auto.n + 1))) and auto.limits == {}
        autos.append(auto)
    inside = 0
    for auto in autos:
        spans = [(lo, hi) for hi, (_, lo) in enumerate(targets(auto)) if lo <= hi]
        assert auto.limits == {(lo, hi): hi + 1 for lo, hi in spans}
        expected = [any(lo <= s <= hi for lo, hi in spans) for s in range(auto.n + 1)]
        assert list(map(auto.in_loop, range(auto.n + 1))) == expected
        inside += sum(expected)
    assert inside > 10_000
    compile_expr.cache_clear()


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_compile_matches_the_token_by_token_walk(seed):
    """compile_expr, which copies the block of each w-power met again,
    against the walk that emits one token at a time with absolute
    targets, on a random_expr draw and its tau: the targets s + d, the
    nodes and the back edges are the reference's, and in_loop(s) holds
    exactly when s lies in some [lo, hi]."""
    rng = random.Random(seed)
    e = random_expr(rng, max_size=16, max_depth=4, letters="abc")
    for x in (e, tau(e)):
        auto = compile_expr(x)
        succ, nodes, tops, lows = reference_compile(x)
        assert targets(auto) == succ
        assert auto.nodes == tuple(nodes)
        assert (auto.loop_tops, auto.loop_lows) == (tops, lows)
        assert [auto.in_loop(s) for s in range(auto.n + 1)] == \
            [any(lo <= s <= hi for lo, hi in zip(lows, tops)) for s in range(auto.n + 1)]


def test_depth_16_tower_compiles_by_copying():
    """The depth-16 tower at the token budget: its tau has 262,142 tokens
    and 65,535 back edges, the same as the token-by-token walk's, and
    its table holds one step object per letter and per distinct w-power,
    19 in all, shared by every copy."""
    text = functools.reduce(lambda t, c: f"({t})^w{c}", "abcabcabcabcabca", "ac")
    dup = tau(parse_expr(text))
    auto = compile_expr(dup)
    assert (auto.n, len(auto.loop_tops)) == (262_142, 65_535)
    assert len(set(map(id, auto.table[:auto.n]))) == 19
    succ, nodes, tops, lows = reference_compile(dup)
    assert targets(auto) == succ and auto.nodes == tuple(nodes)
    assert (auto.loop_tops, auto.loop_lows) == (tops, lows)
    compile_expr.cache_clear()


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


def reference_suffix_word(auto, q):
    """suffix_word as first written, with a walk of its own: a repeated
    state closes a loop, whose states are the visits since the state's
    first visit, re-appended in order on each closure so that an enclosing
    loop sees them again; positions of first visits are kept as ordinals."""
    if not 0 <= q <= auto.n:
        raise AutomatonError(f"state {q} out of range")
    if q == auto.n:
        return None
    s = q
    seq = [s]                    # visit order, entry states re-appended on closure
    first = {s: 0}               # state -> first index in seq
    first_pos = {s: ZERO}        # state -> ordinal position of first visit
    parts = []
    pos = ZERO
    budget = (auto.n + 2) * (auto.n + 2)
    succ = targets(auto)
    while s != auto.n:
        if budget < 0:
            raise AutomatonError("runaway walk; automaton is corrupt")
        budget -= 1
        letter, target = succ[s]
        piece = Letter(letter)
        pos = pos + ONE
        while target in first:
            entry = target
            cofinal = set(seq[first[entry]:]) | {entry}
            seq.extend(sorted(cofinal))  # every loop state is visited again
            # pos is the length of parts and piece: the word read so far
            entry_pos = first_pos[entry]
            parts, body = split_at(concat(parts + [piece]), entry_pos)
            piece = Omega(concat(body))
            pos = entry_pos + sub_left(entry_pos, pos) * OMEGA
            target = interval_limit(auto, min(cofinal), max(cofinal))
        parts.append(piece)
        seq.append(target)
        first[target] = len(seq) - 1
        first_pos[target] = pos
        s = target
    return concat(parts)


def nesting(depth):
    """(...(ab)^wb...)^wb, w-powers nested depth deep."""
    return parse_expr("(" * depth + "ab" + ")^wb" * depth)


def test_suffix_word_matches_its_own_walk():
    """suffix_word, read off a runner trace, gives the same text and the
    same expression as the walk it replaced, from every state (mid-loop
    starts included) of 1,000 random_expr draws and their tau, of the
    carried-state pairs of tests/test_order.py and of 20- and 40-deep
    nestings."""
    rng = random.Random(17)
    draws = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(1000)]
    exprs = draws + [tau(e) for e in draws]
    exprs += [parse_expr(text) for text in [
        "b((bb)^w)^w(abbb)^w", "(b(bb)^w)^wa", "((aaa)^wa)^w", "a(a^w)^wab^w",
        "(b^wb(b^w)^wa)^w", "(((bbbb)^w)^w)^w", "(b(bbb)^wb)^w", "bb(b^w)^w(abbb)^w"]]
    exprs += [nesting(20), nesting(40)]
    mid_loop = 0
    for e in exprs:
        auto = compile_expr(e)
        for q in range(auto.n + 1):
            got, expected = suffix_word(auto, q), reference_suffix_word(auto, q)
            if q == auto.n:
                assert got is None and expected is None
                continue
            assert format_expr(got) == format_expr(expected), (format_expr(e), q)
            assert got == expected
            mid_loop += auto.in_loop(q)
    assert mid_loop > 1000


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
        # a letter token leads to s + 1; an w-token's body starts at target - 1
        assert [("letter", a) if target == s + 1 else ("omega", target - 1)
                for s, (a, target) in enumerate(targets(auto))] == tokens
        for lo in range(auto.n + 1):
            for hi in range(lo, auto.n + 1):
                expected = _outcome(_reference_range, tokens, lo, hi)
                assert _outcome(expr_of_range, auto, lo, hi) == expected


def test_factorize_primes_are_nodes_of_the_duplicated_expression():
    """On a depth-10 tower, every w-power in the primes is a node of tau(e)
    itself, not a copy.  Equal expressions are one node, so a hit in
    compile_expr's cache hands back the same nodes; the cache is cleared
    first all the same, so the primes come from this compile."""
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
