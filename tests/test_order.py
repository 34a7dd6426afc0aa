import copy
import pickle
import random
import sys
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ratword import factorizer, order, runner
from ratword.automaton import SharpAutomaton, compile_expr
from ratword.duplication import tau
from ratword.expr import (DEFAULT_ALPHABET, Alphabet, Letter, Omega, as_finite_word, concat,
                          first_letters, format_expr, letter_at, parse_expr, prefix_to)
from ratword.factorizer import FactorizeError, FactorizerState, StepRecord
from ratword.gen import random_expr, random_finite_word
from ratword.order import (CompareOutcome, Rel, _compare_finite, compare, compare_via_automata,
                           word_equal)
from ratword.ordinal import Ordinal, parse_ordinal
from ratword.runner import RightEnded, Trace, run_to_divergence, sync_step

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


# -- the step-by-step reference ----------------------------------------------
#
# runner.sync_step runs the product to its next stop in one loop.  The
# reference below is the run as first written, one step per call: it
# returns the pair that a letter reached (Advanced) or that a cascade of
# loop closures reached (LoopClosed), and stores the same entries, limit
# entries, cascades and carried spans in a runner.Trace.

class Advanced:
    def __init__(self, pair):
        self.pair = pair


class LoopClosed:
    """A repeated pair (`entry`) closed a loop; the cascade of limit
    transitions reached `pair` and collapsed the states llo..lhi of the
    left component and rlo..rhi of the right, span = [llo, lhi, rlo, rhi]."""

    def __init__(self, pair, entry, span):
        self.pair, self.entry, self.span = pair, entry, span


def leaving(auto, s):
    """(letter, target) of the transition leaving s, None at the final state."""
    return auto.back if s == auto.jump else auto.table[s]


def collect_loop(trace, idx, span):
    """Widen span to the component states of the loop that entry idx opens:
    the pairs from idx on, and the spans carried by the limit entries after
    idx."""
    k = 2 * (bisect_right(trace._limit_at, idx) - 1)
    lefts = trace._lefts[idx:] + trace._carried_l[k:] + span[:2]
    rights = trace._rights[idx:] + trace._carried_r[k:] + span[2:]
    span[:] = min(lefts), max(lefts), min(rights), max(rights)


def append_limit(trace, pair, cascade, span):
    assert pair not in trace._index
    trace._index[pair] = len(trace._lefts)
    trace._limit_at.append(len(trace._lefts))
    trace._lefts.append(pair[0])
    trace._rights.append(pair[1])
    trace._cascades.append(cascade)
    trace._carried_l += span[:2]
    trace._carried_r += span[2:]


def reference_step(left, right, trace):
    """Advance the product run by one letter (or one limit resolution)."""
    step_l = leaving(left, trace._lefts[-1])
    step_r = leaving(right, trace._rights[-1])
    if step_l is None and step_r is None:
        return runner.BothEnded()
    if step_l is None:
        return runner.LeftEnded(step_r[0])
    if step_r is None:
        return runner.RightEnded(step_l[0])
    (a, target_l), (b, target_r) = step_l, step_r
    if a != b:
        return runner.Diverged(a, b)
    pair = (target_l, target_r)
    if pair not in trace._index:
        trace._index[pair] = len(trace._lefts)
        trace._lefts.append(target_l)
        trace._rights.append(target_r)
        return Advanced(pair)
    first_entry = pair
    span = [target_l, target_l, target_r, target_r]
    cascade = []
    while pair in trace._index:
        idx = trace._index[pair]
        cascade.append(idx)
        collect_loop(trace, idx, span)
        pair = (left.limit_target(span[0], span[1]), right.limit_target(span[2], span[3]))
    append_limit(trace, pair, tuple(cascade), span)
    return LoopClosed(pair, first_entry, span)


def reference_run(left, right, trace):
    """reference_step until the run stops; returns the stop."""
    while isinstance(out := reference_step(left, right, trace), (Advanced, LoopClosed)):
        pass
    return out


def stop_fields(out):
    return type(out), [getattr(out, name) for name in type(out).__slots__]


TRACE_FIELDS = ("_lefts", "_rights", "_index", "_limit_at", "_cascades", "_carried_l",
                "_carried_r")


def test_cascading_closure_positions():
    """One step closes a loop whose limit target is already in the trace, so
    a second loop closes in the same step.  Positions pinned entry by entry."""
    x, y = parse_expr("b((bb)^w)^w(abbb)^w"), parse_expr("(b(bb)^w)^wa")
    left, right = CountingLimits(compile_expr(x)), compile_expr(y)
    trace = Trace((left.initial, right.initial))
    out = sync_step(left, right, trace)
    assert isinstance(out, RightEnded)
    closures = len(trace._limit_at) - 1      # the limit entries after the first
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
    """One step of the product run on a SetTrace: None when the run stops,
    the pair reached by a letter, or (pair, lefts, rights) for a loop
    closure."""
    step_l, step_r = leaving(left, t.pairs[-1][0]), leaving(right, t.pairs[-1][1])
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


class RunsAgainstReference:
    """A stand-in for sync_step.  It runs runner.sync_step, replays the same
    run step by step with reference_step on a second Trace and with the
    set-based closure on a SetTrace, and checks the finished traces: every
    field equal to the reference's, the same stop, the SetTrace's pairs and
    limit entries, and every carried span the sets that the set-based
    closure collapsed.  It sums the loop closures, the steps that closed
    more than one loop, and the closures whose carried sets added states."""

    def __init__(self):
        self.closures = self.cascades = self.widened = 0

    def __call__(self, left, right, trace):
        assert len(trace) == 1        # one call per run, on a fresh trace
        first = trace.last_pair
        out = sync_step(left, right, trace)
        reference, shadow = Trace(first), SetTrace(first)
        assert stop_fields(out) == stop_fields(reference_run(left, right, reference))
        for name in TRACE_FIELDS:
            assert getattr(trace, name) == getattr(reference, name), name
        while set_step(left, right, shadow) is not None:
            pass
        assert trace.pairs() == shadow.pairs and trace._limit_at == shadow.limit_at
        lefts, rights = trace._carried_l, trace._carried_r
        spans = list(zip(lefts[::2], lefts[1::2], rights[::2], rights[1::2]))
        assert len(spans) == len(shadow.carried) - 1
        for (llo, lhi, rlo, rhi), sets in zip(spans, shadow.carried[1:]):
            assert sets == (set(range(llo, lhi + 1)), set(range(rlo, rhi + 1)))
        self.closures += len(spans)
        self.cascades += shadow.cascades
        self.widened += shadow.widened
        return out

    def run(self, pairs):
        """Product runs of each pair, and of each with one side duplicated."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "sync_step", self)
            for x, y in pairs:
                for left, right in [(x, y), (tau(x), y), (x, tau(y))]:
                    runner.run_to_divergence(compile_expr(left), compile_expr(right))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**6), st.booleans())
def test_closure_spans_are_the_sets_on_drawn_pairs(seed, shared):
    """On drawn pairs of words, some sharing a drawn prefix, each run's trace
    is the step-by-step reference's, and every loop closure's spans are the
    sets that the set-based closure collapses."""
    rng = random.Random(seed)
    if shared:
        common = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        x = concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")])
        y = concat([common, random_expr(rng, max_size=6, max_depth=2, letters="abc")])
    else:
        x, y = (random_expr(rng, max_size=10, max_depth=3) for _ in range(2))
    RunsAgainstReference().run([(x, y)])


def test_closure_spans_are_the_sets_where_carried_states_count():
    """The cascade pair, and three pairs (found among 20,000 draws) where a
    limit entry after the loop's entry carries states its window lacks."""
    check = RunsAgainstReference()
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
    check = RunsAgainstReference()
    monkeypatch.setattr(factorizer, "sync_step", check)
    rng = random.Random(13)
    inputs = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(400)]
    inputs += [parse_expr("(((ac)^wb)^wc)^wa"), parse_expr("((((ac)^wb)^wc)^wa)^wb")]
    for e in inputs:
        factorizer.factorize(e)
    assert check.closures > 600
    compile_expr.cache_clear()


def reference_marking(auto, alphabet=DEFAULT_ALPHABET):
    """The marking loop as written before a candidate's run took one
    sync_step call: one reference_step per iteration, the n^3 budget checked
    before each step, and the log kept step by step.  Returns the state and
    the number of steps that closed more than one loop."""
    n = auto.n
    q_main, q_secondary = {0}, set()
    log = []
    steps, cascaded = 0, 0
    budget = n * n * n
    i = 0
    _, start = auto.succ[0]
    j = start
    history = Trace((start, 0))
    sharp = SharpAutomaton(auto, 0, start)
    seen_left = {0, start}
    log.append(StepRecord("init", tuple(history.pairs())))
    while True:
        steps += 1
        if steps > budget:
            raise FactorizeError(f"exceeded step budget n^3 = {budget}")
        outcome = reference_step(auto, sharp, history)
        if isinstance(outcome, Advanced):
            case = "1a"
            seen_left.add(outcome.pair[0])
        elif isinstance(outcome, LoopClosed):
            span = outcome.span
            case = "1c" if span[2] <= j <= span[3] else "1b"
            seen_left.add(outcome.pair[0])
            cascaded += len(history._cascades[-1]) > 1
        elif isinstance(outcome, RightEnded):
            raise FactorizeError("sharp automaton has no final state; cannot end")
        else:
            k = history.last_pair[0]
            if isinstance(outcome, runner.Diverged) and \
                    alphabet.rank(outcome.left_letter) > alphabet.rank(outcome.right_letter):
                _, target = auto.succ[k]
                if target not in seen_left:
                    case = "2a"
                    j = target
                else:
                    case = "2b"
                    j = max(seen_left) + 1
                seen_left.add(j)
                history = Trace((j, i))
                sharp = SharpAutomaton(auto, i, j)
            else:
                case = "3"
                added = history.lefts_paired_with(j)
                added.add(j)
                top = max(added)
                q_secondary |= added - {top}
                q_main.add(top)
                i = top
                log.append(StepRecord(case, tuple(history.pairs())))
                if i == n:
                    break
                _, target = auto.succ[i]
                j = target
                seen_left = {i, j}
                history = Trace((j, i))
                sharp = SharpAutomaton(auto, i, j)
                log.append(StepRecord("init", tuple(history.pairs())))
                continue
        log.append(StepRecord(case, tuple(history.pairs())))
    return FactorizerState(auto, q_main, q_secondary, steps, log), cascaded


def marking_automata():
    """The automata of tau(e) for 1,200 random_expr draws, for towers of
    depth 4-9 in three shapes and for the worked examples; then the
    automata of two words as written, not duplicated, on which the
    candidate run closes two loops in one step (found among 40,000 draws:
    no marking run on a duplicated draw did)."""
    rng = random.Random(31)
    inputs = [random_expr(rng, max_size=12, max_depth=3, letters="abc") for _ in range(1200)]
    for depth in range(4, 10):
        for base in ("ac", "ab", "ba"):
            text = base
            for _ in range(depth):
                text = f"({text})^w{rng.choice('abc')}"
            inputs.append(parse_expr(text))
    inputs += [parse_expr(text) for text in [
        "(a^wb)^wa^w", "(bba)^w", "abaab", "(((ac)^wb)^wc)^wa", "(((ac)^wa)^wb)^wc",
        "b((bb)^w)^w(abbb)^w", "(b(bb)^w)^wa", "((aaa)^wa)^w", "a(a^w)^wab^w",
        "(b(bbb)^wb)^w", "bb(b^w)^w(abbb)^w"]]
    autos = [compile_expr(tau(e)) for e in inputs]
    return autos + [compile_expr(parse_expr(text)) for text in
                    ["(((aa)^wbaaa)^w)^w", "((aa(aa)^w)^wabaaaaba)^w"]]


def test_marking_matches_the_step_by_step_loop():
    """factorize_states, one sync_step call per candidate with the log
    rebuilt from each finished trace, gives the step-by-step loop's steps,
    marked states and log records on every automaton, with and without the
    log."""
    cases = Counter()
    cascaded = 0
    for auto in marking_automata():
        expected, cascades = reference_marking(auto)
        marks = (expected.steps, expected.q_main, expected.q_secondary)
        got = factorizer.factorize_states(auto)
        assert (got.steps, got.q_main, got.q_secondary, got.log) == marks + ([],)
        got = factorizer.factorize_states(auto, keep_log=True)
        assert (got.steps, got.q_main, got.q_secondary) == marks
        assert [(r.case, r.history) for r in got.log] == \
            [(r.case, r.history) for r in expected.log]
        cases.update(r.case for r in got.log)
        cascaded += cascades
    assert all(cases[case] for case in ("1a", "1b", "1c", "2a", "2b", "3"))
    assert cascaded >= 2
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

