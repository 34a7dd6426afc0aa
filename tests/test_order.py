import copy
import pickle
import random
import sys
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from ratword import factorizer, order, runner
from ratword.automaton import compile_expr
from ratword.duplication import tau
from ratword.expr import (Alphabet, Letter, Omega, as_finite_word, concat, first_letters,
                          format_expr, letter_at, parse_expr, prefix_to)
from ratword.gen import random_expr, random_finite_word
from ratword.order import (CompareOutcome, Rel, _compare_finite, compare, compare_via_automata,
                           word_equal)
from ratword.ordinal import Ordinal, parse_ordinal
from ratword.runner import (Advanced, LoopClosed, RightEnded, Trace, run_to_divergence,
                            sync_step)

W = Ordinal.omega
fin = Ordinal.from_int


def cmp(a, b):
    return compare(parse_expr(a), parse_expr(b))


def test_equal_words_different_expressions():
    assert cmp("(ab)^w", "ab(ab)^w").rel is Rel.EQUAL
    assert cmp("a^w", "aa^w").rel is Rel.EQUAL
    assert cmp("a^w", "(aa)^w").rel is Rel.EQUAL
    assert cmp("(a^wb)^wa^w", "aa^wb(aa^wb)^waa^w").rel is Rel.EQUAL


def test_strict_comparisons_with_positions():
    out = cmp("a^wb", "a^wa")
    assert out.rel is Rel.GREATER and out.position == W() and out.letters == ("b", "a")
    out = cmp("ab", "aa")
    assert out.rel is Rel.GREATER and out.position == fin(1)
    out = cmp("a^wba", "a^wbb")
    assert out.rel is Rel.LESS and out.position == W() + fin(1)


def test_prefix_outcomes():
    assert cmp("a", "ab").rel is Rel.LEFT_PREFIX
    assert cmp("ab", "a").rel is Rel.RIGHT_PREFIX
    out = cmp("ab", "ab^w")
    assert out.rel is Rel.LEFT_PREFIX and out.position == fin(2)
    assert cmp("a^w", "a^wb").rel is Rel.LEFT_PREFIX
    assert cmp("a^wb", "a^w").rel is Rel.RIGHT_PREFIX


def test_outcome_helpers():
    assert cmp("a", "b").left_lt and cmp("a", "ab").left_lt
    assert cmp("a", "a").left_le and not cmp("b", "a").left_le


REL_REPRS = {Rel.LESS: "<Rel.LESS: '<'>", Rel.GREATER: "<Rel.GREATER: '>'>",
             Rel.EQUAL: "<Rel.EQUAL: '='>", Rel.LEFT_PREFIX: "<Rel.LEFT_PREFIX: '< (prefix)'>",
             Rel.RIGHT_PREFIX: "<Rel.RIGHT_PREFIX: '> (prefix)'>"}
OUTCOME_FIELDS = [
    ((), "position=None, letters=None"),
    ((fin(3), ("a", "b")), "position=Ordinal(terms=((0, 3),)), letters=('a', 'b')"),
    ((W(2, 3) + fin(1),), "position=Ordinal(terms=((2, 3), (0, 1))), letters=None"),
]


@pytest.mark.parametrize("rel", list(Rel), ids=lambda r: r.name)
def test_compare_outcome_value_semantics(rel):
    """An outcome is an immutable value of (rel, position, letters): flags,
    equality, hash, repr, pickling and copying all go by those three."""
    for args, fields_text in OUTCOME_FIELDS:
        out = CompareOutcome(rel, *args)
        position, letters = (args + (None, None))[:2]
        key = (rel, position, letters)
        assert (out.rel, out.position, out.letters) == key
        assert out.is_equal == (rel is Rel.EQUAL)
        assert out.left_le == (rel in (Rel.LESS, Rel.EQUAL, Rel.LEFT_PREFIX))
        assert out.left_lt == (rel in (Rel.LESS, Rel.LEFT_PREFIX))
        assert out == CompareOutcome(rel, position=position, letters=letters)
        assert hash(out) == hash(CompareOutcome(rel, position, letters)) == hash(key)
        assert out != key and key != out
        for other in Rel:
            if other is not rel:
                assert out != CompareOutcome(other, position, letters)
        assert out != CompareOutcome(rel, fin(4), letters)
        assert out != CompareOutcome(rel, position, ("b", "a"))
        assert repr(out) == f"CompareOutcome(rel={REL_REPRS[rel]}, {fields_text})"
        for name in ("rel", "position", "letters", "is_equal", "left_le", "left_lt", "extra"):
            with pytest.raises(AttributeError):
                setattr(out, name, None)
            with pytest.raises(AttributeError):
                delattr(out, name)
        assert (out.rel, out.position, out.letters) == key
        copies = [pickle.loads(pickle.dumps(out, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in copies + [copy.copy(out), copy.deepcopy(out)]:
            assert type(twin) is CompareOutcome and twin == out and hash(twin) == hash(out)
            assert repr(twin) == repr(out)
            assert (twin.is_equal, twin.left_le, twin.left_lt) == \
                (out.is_equal, out.left_le, out.left_lt)


def test_outcome_flags_are_read_without_a_call():
    """The flags are stored when the outcome is built: reading one runs no
    Python function, and equal words share one outcome."""
    out = compare("ab", "b")
    calls = []

    def hook(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        flags = (out.is_equal, out.left_le, out.left_lt)
    finally:
        sys.setprofile(None)
    assert flags == (False, True, True) and calls == []
    assert compare("ab", "ab") is compare("b", "b") is compare(parse_expr("a"), "a")
    assert compare_via_automata(parse_expr("a^w"), parse_expr("aa^w")) is compare("a", "a")


def test_trace_budget():
    x, y = parse_expr("(a^wb)^wa^w"), parse_expr("aa^wb(aa^wb)^waa^w")
    trace, _ = run_to_divergence(compile_expr(x), compile_expr(y))
    ax, ay = compile_expr(x), compile_expr(y)
    assert len(trace) <= (ax.n + 1) * (ay.n + 1)


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_finite_agreement_with_plain_strings(seed):
    rng = random.Random(seed)
    u = random_finite_word(rng, 12, "abc")
    v = random_finite_word(rng, 12, "abc")
    eu, ev = parse_expr(u), parse_expr(v)
    fast = compare(eu, ev)
    slow = compare_via_automata(eu, ev)
    assert fast.rel is slow.rel
    assert fast.position == slow.position
    assert fast.letters == slow.letters


def transfinite_expr(rng):
    x = random_expr(rng, max_size=10, max_depth=3, letters="abc")
    if as_finite_word(x) is not None:
        x = concat([x, Omega(random_expr(rng, max_size=4, max_depth=1, letters="abc"))])
    return x


def finite_and_transfinite(rng, as_prefix):
    """(u, x): a finite expression u and a transfinite expression x.  With
    as_prefix, u is x's prefix of a random finite length, perhaps followed
    by one random letter, so both prefix outcomes and a divergence right
    after the prefix come up."""
    x = transfinite_expr(rng)
    if not as_prefix:
        return parse_expr(random_finite_word(rng, 12, "abc")), x
    u = prefix_to(x, fin(rng.randint(1, 14)))
    if rng.random() < 0.5:
        u = concat([u, Letter(rng.choice("abc"))])
    return u, x


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 10**6), st.booleans())
def test_finite_against_transfinite_agrees_with_automata(seed, as_prefix):
    """A finite side, as an expression or as a str, against a transfinite
    side, in both orders: the string path of compare gives the product run's
    relation, position and letters."""
    u, x = finite_and_transfinite(random.Random(seed), as_prefix)
    word = as_finite_word(u)
    for left, right, left_word, right_word in ((u, x, word, x), (x, u, x, word)):
        slow = compare_via_automata(left, right)
        for fast in (compare(left, right), compare(left_word, right_word)):
            assert (fast.rel, fast.position, fast.letters) == \
                (slow.rel, slow.position, slow.letters)


def test_finite_against_transfinite_examples():
    out = compare("aab", parse_expr("a^w"))
    assert (out.rel, out.position, out.letters) == (Rel.GREATER, fin(2), ("b", "a"))
    out = compare(parse_expr("(ab)^w"), "aba")
    assert (out.rel, out.position) == (Rel.RIGHT_PREFIX, fin(3))
    out = compare("abab", parse_expr("(ab)^wc"))
    assert (out.rel, out.position) == (Rel.LEFT_PREFIX, fin(4))


def compare_finite_reference(u, v, alphabet):
    """(rel, position, letters) by a scan of the letters one at a time."""
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            rel = Rel.LESS if alphabet.rank(a) < alphabet.rank(b) else Rel.GREATER
            return rel, fin(i), (a, b)
    if len(u) == len(v):
        return Rel.EQUAL, None, None
    if len(u) < len(v):
        return Rel.LEFT_PREFIX, fin(len(u)), None
    return Rel.RIGHT_PREFIX, fin(len(v)), None


@pytest.mark.parametrize("letters", ["abc", "cba"])
def test_compare_finite_matches_letter_scan(letters):
    alphabet = Alphabet(letters)
    rng = random.Random(17)
    for _ in range(3000):
        u = random_finite_word(rng, rng.choice([8, 40, 300]), "abc")
        roll = rng.random()
        if roll < 0.2:
            v = u
        elif roll < 0.4:  # u is a proper prefix of v
            v = u + random_finite_word(rng, 5, "abc")
        elif roll < 0.7:
            v = u[:rng.randint(0, len(u))] + random_finite_word(rng, 40, "abc")
        else:
            v = random_finite_word(rng, 40, "abc")
        if rng.random() < 0.5:
            u, v = v, u
        out = _compare_finite(u, v, alphabet)
        assert (out.rel, out.position, out.letters) == compare_finite_reference(u, v, alphabet)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_total_order_properties(seed):
    rng = random.Random(seed)
    es = [random_expr(rng, max_size=6, max_depth=2, letters="ab") for _ in range(3)]
    x, y, z = es
    oxy, oyx = compare(x, y), compare(y, x)
    flip = {Rel.LESS: Rel.GREATER, Rel.GREATER: Rel.LESS, Rel.EQUAL: Rel.EQUAL,
            Rel.LEFT_PREFIX: Rel.RIGHT_PREFIX, Rel.RIGHT_PREFIX: Rel.LEFT_PREFIX}
    assert oyx.rel is flip[oxy.rel]
    assert word_equal(x, x)
    if oxy.left_le and compare(y, z).left_le:
        assert compare(x, z).left_le


def test_long_closure_chain():
    """Eleven nested loops close one after another before the runs diverge
    at w^11; deriving that position must not recurse once per closure."""
    body = "ac"
    for letter in "abcabcabca":
        body = f"({body})^w{letter}"
    x, y = parse_expr(f"({body})^wb"), parse_expr(f"({body})^wc")
    out = compare_via_automata(tau(x), y)
    assert out.rel is Rel.LESS and out.position == W(11) and out.letters == ("b", "c")


class CountingLimits:
    """An automaton that counts its limit transitions."""

    def __init__(self, auto):
        self.auto, self.calls = auto, 0

    def __getattr__(self, name):
        return getattr(self.auto, name)

    def limit_target(self, lo, hi):
        self.calls += 1
        return self.auto.limit_target(lo, hi)


def test_cascading_closure_positions():
    """One step closes a loop whose limit target is already in the trace, so
    a second loop closes in the same step.  Positions pinned entry by entry."""
    x, y = parse_expr("b((bb)^w)^w(abbb)^w"), parse_expr("(b(bb)^w)^wa")
    left, right = CountingLimits(compile_expr(x)), compile_expr(y)
    trace = Trace((left.initial, right.initial))
    closures = 0
    while isinstance(out := sync_step(left, right, trace), (Advanced, LoopClosed)):
        closures += isinstance(out, LoopClosed)
    assert isinstance(out, RightEnded)
    assert left.calls > closures
    assert trace.pairs() == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 2),
                             (2, 3), (5, 5), (6, 6)]
    expected = ["0", "1", "2", "3", "w", "w+1", "w+2", "w+3", "w^2", "w^2+1"]
    assert [trace.position(i) for i in range(len(trace))] == \
        [parse_ordinal(p) for p in expected]
    assert trace.position(-1) == parse_ordinal("w^2+1")
    out = compare(x, y)
    assert out.rel is Rel.RIGHT_PREFIX and out.position == parse_ordinal("w^2+1")


class SetTrace:
    """The trace of a product run as kept with sets: a limit entry carries
    the component states its closures collapsed as two sets, and a closure
    unions its window's states and the sets carried after it."""

    def __init__(self, first):
        self.pairs = [first]
        self.index = {first: 0}
        self.limit_at = [0]
        self.carried = [(set(), set())]
        self.cascades = 0        # steps that closed more than one loop
        self.widened = 0         # closures whose carried sets added states

    def add(self, pair):
        self.index[pair] = len(self.pairs)
        self.pairs.append(pair)


def interval(states):
    """(lo, hi) of states, which must be every state from lo to hi."""
    lo, hi = min(states), max(states)
    assert states == set(range(lo, hi + 1)), sorted(states)
    return lo, hi


def set_step(left, right, t):
    """One step of the product run on a SetTrace, the reference for
    runner.sync_step: None when the run stops, the pair reached by a letter,
    or (pair, lefts, rights) for a loop closure."""
    step_l, step_r = left.leaving(t.pairs[-1][0]), right.leaving(t.pairs[-1][1])
    if step_l is None or step_r is None or step_l[0] != step_r[0]:
        return None
    pair = (step_l[1], step_r[1])
    if pair not in t.index:
        t.add(pair)
        return pair
    lefts, rights = set(), set()
    closures = 0
    while pair in t.index:
        idx = t.index[pair]
        closures += 1
        lefts.update(l for l, _ in t.pairs[idx:])
        rights.update(r for _, r in t.pairs[idx:])
        window = len(lefts) + len(rights)
        for carried_l, carried_r in t.carried[bisect_right(t.limit_at, idx):]:
            lefts |= carried_l
            rights |= carried_r
        t.widened += len(lefts) + len(rights) > window
        pair = (left.limit_target(*interval(lefts)), right.limit_target(*interval(rights)))
    t.cascades += closures > 1
    t.limit_at.append(len(t.pairs))
    t.carried.append((lefts, rights))
    t.add(pair)
    return pair, lefts, rights


class StepsAgainstSets:
    """A stand-in for sync_step that runs the set-based reference on a
    shadow of each trace and checks that the spans are its sets.  It sums
    over finished runs the loop closures, the steps that closed more than
    one loop, and the closures whose carried sets added states."""

    def __init__(self):
        self.shadows = {}
        self.closures = self.cascades = self.widened = 0

    def __call__(self, left, right, trace):
        if trace not in self.shadows:
            assert len(trace) == 1
            self.shadows[trace] = SetTrace(trace.last_pair)
        shadow = self.shadows[trace]
        expected = set_step(left, right, shadow)
        out = sync_step(left, right, trace)
        if isinstance(out, LoopClosed):
            pair, lefts, rights = expected
            llo, lhi, rlo, rhi = out.span
            assert out.pair == pair
            assert (lefts, rights) == (set(range(llo, lhi + 1)), set(range(rlo, rhi + 1)))
            self.closures += 1
        elif isinstance(out, Advanced):
            assert out.pair == expected
        else:
            assert expected is None
        # one entry per step, so equal lengths and last pairs keep the traces equal
        assert len(trace) == len(shadow.pairs) and trace.last_pair == shadow.pairs[-1]
        return out

    def finish(self):
        for trace, shadow in self.shadows.items():
            assert trace.pairs() == shadow.pairs
            self.cascades += shadow.cascades
            self.widened += shadow.widened
        self.shadows.clear()

    def run(self, pairs):
        """Product runs of each pair, and of each with one side duplicated."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "sync_step", self)
            for x, y in pairs:
                for left, right in [(x, y), (tau(x), y), (x, tau(y))]:
                    runner.run_to_divergence(compile_expr(left), compile_expr(right))
                    self.finish()


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**6), st.booleans())
def test_closure_spans_are_the_sets_on_drawn_pairs(seed, shared):
    """On drawn pairs of words, some sharing a drawn prefix, every loop
    closure's spans are the sets that the set-based closure collapses, and
    the traces are the same."""
    rng = random.Random(seed)
    if shared:
        common = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        x = concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")])
        y = concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")])
    else:
        x, y = (random_expr(rng, max_size=10, max_depth=3) for _ in range(2))
    StepsAgainstSets().run([(x, y)])


def test_closure_spans_are_the_sets_where_carried_states_count():
    """The cascade pair, and three pairs (found among 20,000 draws) where a
    limit entry after the loop's entry carries states its window lacks."""
    check = StepsAgainstSets()
    check.run([(parse_expr(x), parse_expr(y)) for x, y in [
        ("b((bb)^w)^w(abbb)^w", "(b(bb)^w)^wa"),
        ("((aaa)^wa)^w", "a(a^w)^wab^w"),
        ("(b^wb(b^w)^wa)^w", "(((bbbb)^w)^w)^w"),
        ("(b(bbb)^wb)^w", "bb(b^w)^w(abbb)^w"),
    ]])
    assert check.cascades >= 1 and check.widened >= 3
    compile_expr.cache_clear()


def test_closure_spans_are_the_sets_in_the_factorizer(monkeypatch):
    """The same check on the marking runs of 400 random_expr draws and of
    two towers."""
    check = StepsAgainstSets()
    monkeypatch.setattr(factorizer, "sync_step", check)
    rng = random.Random(13)
    inputs = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(400)]
    inputs += [parse_expr("(((ac)^wb)^wc)^wa"), parse_expr("((((ac)^wb)^wc)^wa)^wb")]
    for e in inputs:
        factorizer.factorize(e)
        check.finish()
    assert check.closures > 600
    compile_expr.cache_clear()


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10_000))
def test_divergence_position_reads_the_letters(seed):
    """Where the product run reports differing letters (a, b) at p, the two
    words carry a and b at p and agree before it."""
    rng = random.Random(seed)
    common = random_expr(rng, max_size=8, max_depth=2, letters="abc")
    x = concat([common, random_expr(rng, max_size=8, max_depth=2, letters="abc")])
    y = concat([common, random_expr(rng, max_size=8, max_depth=2, letters="abc")])
    out = compare_via_automata(x, y)
    if out.letters is None:
        return
    a, b = out.letters
    p = out.position
    assert letter_at(x, p) == a and letter_at(y, p) == b
    if not p.is_zero:
        assert word_equal(prefix_to(x, p), prefix_to(y, p))


def transfinite_pairs(rng, count):
    """count pairs of transfinite words.  Every second pair shares a drawn
    transfinite prefix, so the two agree on their first w letters."""
    for i in range(count):
        if i % 2:
            common = transfinite_expr(rng)
            yield (concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")]),
                   concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")]))
        else:
            yield transfinite_expr(rng), transfinite_expr(rng)


def test_transfinite_compare_agrees_with_the_product_run(monkeypatch):
    """On 10k pairs of transfinite words, compare (w-prefixes first, the
    product run only past them) gives the product run's relation, position
    and letters."""
    product = compare_via_automata
    calls = []

    def counted(x, y, alphabet):
        # only words that agree on their first w letters reach the product run
        assert first_letters(x, 100) == first_letters(y, 100)
        calls.append(x)
        return product(x, y, alphabet)

    monkeypatch.setattr(order, "compare_via_automata", counted)
    pairs = [(parse_expr("b((bb)^w)^w(abbb)^w"), parse_expr("(b(bb)^w)^wa"))]
    pairs += transfinite_pairs(random.Random(12), 10_000)
    for x, y in pairs:
        fast, slow = compare(x, y), product(x, y)
        assert (fast.rel, fast.position, fast.letters) == \
            (slow.rel, slow.position, slow.letters), (format_expr(x), format_expr(y))
    # the pairs that share a prefix reach the product run, unless equal
    assert len(calls) > len(pairs) // 4
    compile_expr.cache_clear()

