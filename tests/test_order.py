import copy
import pickle
import random
import sys
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ratword import factorizer, order, runner
from ratword.automaton import MissingLimitError, SharpAutomaton, compile_expr
from ratword.duplication import tau
from ratword.expr import (Letter, Omega, as_finite_word, concat, first_letters, format_expr,
                          parse_expr, prefix_to, suffix_from)
from ratword.factorizer import FactorizeError, FactorizerState, StepRecord
from ratword.gen import random_expr
from ratword.order import (CompareOutcome, Rel, _compare_finite, compare, compare_via_automata,
                           word_equal)
from ratword.ordinal import Ordinal, format_ordinal
from ratword.runner import Trace, run_to_divergence, sync_step

from helpers import random_finite_word

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


def compare_finite_reference(u, v):
    """(rel, position, letters) by a scan of the letters one at a time."""
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            rel = Rel.LESS if a < b else Rel.GREATER
            return rel, fin(i), (a, b)
    if len(u) == len(v):
        return Rel.EQUAL, None, None
    if len(u) < len(v):
        return Rel.LEFT_PREFIX, fin(len(u)), None
    return Rel.RIGHT_PREFIX, fin(len(v)), None


@pytest.mark.parametrize("letters", ["abc", "cba"])
def test_compare_finite_matches_letter_scan(letters):
    """Under the letter order `letters`: each pair is relabelled by the map
    that takes `letters` onto abc, so the relabelled pair compares under
    the one letter order as the drawn pair does under `letters`."""
    relabel = str.maketrans(letters, "abc")
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
        u, v = u.translate(relabel), v.translate(relabel)
        out = _compare_finite(u, v)
        assert (out.rel, out.position, out.letters) == compare_finite_reference(u, v)


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


def interval_limit(auto, lo, hi):
    """The limit transition taken when the states lo..hi repeat cofinally,
    looked up by the whole interval, as the product run did before it named
    a loop by its top state: the base automaton's limits[(lo, hi)], or a
    sharp's added limit on (i+1, j), or the base's limit if it stays
    within [i, j]."""
    if isinstance(auto, SharpAutomaton):
        j = auto.jump
        if (lo, hi) == (auto.i + 1, j):
            return j
        target = interval_limit(auto.base, lo, hi)
        if target > j:
            raise MissingLimitError(f"limit target {target} escapes sharp [{auto.i},{j}]")
        return target
    try:
        return auto.limits[(lo, hi)]
    except KeyError:
        raise MissingLimitError(f"no limit transition for cofinal interval [{lo}, {hi}]") from None


def loop_start(auto, top):
    """The least state of the loop topped by `top`: i + 1 for a sharp's j,
    and the target of top's back edge otherwise."""
    if top == auto.jump:
        return auto.i + 1
    return top + auto.table[top][1]


class CountingLimits:
    """An automaton that counts its limit transitions, and checks each one
    against the lookup of the loop's whole interval."""

    def __init__(self, auto):
        self.auto, self.calls = auto, 0

    def __getattr__(self, name):
        return getattr(self.auto, name)

    def limit_target(self, hi):
        self.calls += 1
        target = self.auto.limit_target(hi)
        assert target == interval_limit(self.auto, loop_start(self.auto, hi), hi)
        return target


# -- the step-by-step reference ----------------------------------------------
#
# runner.sync_step runs the product to its next stop in one loop, and a
# closure collapses the loop named by the greatest state of its own window.
# The reference below is the run as first written, one step per call: it
# returns the pair that a letter reached (Advanced) or that a cascade of
# loop closures reached (LoopClosed), stores the same entries, limit
# entries and cascades, and carries the states each cascade collapsed as
# spans on a ReferenceTrace.  A closure there widens the span so far with
# its window and with the spans carried by the limit entries after its
# entry, and looks the limit up by the whole span (`interval_limit`).

class ReferenceTrace(Trace):
    """A runner.Trace that also carries, by component, lo and hi of the
    states collapsed by the cascade of each limit entry after the first."""

    def __init__(self, first):
        super().__init__(first)
        self._carried_l = []
        self._carried_r = []


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
    """(letter, target) of the transition leaving s, None at the final state:
    its step (letter, d) with the target s + d."""
    step = auto.back if s == auto.jump else auto.table[s]
    return step and (step[0], s + step[1])


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
    """Advance the product run by one letter (or one limit resolution).  A
    stop is the pair of letters read there, None for an ended component."""
    step_l = leaving(left, trace._lefts[-1])
    step_r = leaving(right, trace._rights[-1])
    if step_l is None or step_r is None:
        return (step_l and step_l[0], step_r and step_r[0])
    (a, target_l), (b, target_r) = step_l, step_r
    if a != b:
        return a, b
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
        pair = (interval_limit(left, span[0], span[1]), interval_limit(right, span[2], span[3]))
    append_limit(trace, pair, tuple(cascade), span)
    return LoopClosed(pair, first_entry, span)


def reference_run(left, right, trace):
    """reference_step until the run stops; returns the stop."""
    while isinstance(out := reference_step(left, right, trace), (Advanced, LoopClosed)):
        pass
    return out


TRACE_FIELDS = ("_lefts", "_rights", "_limit_at", "_cascades")


def assert_same_trace(trace, reference):
    """trace holds the reference's entries, limit entries and cascades, and
    its one entry lookup gives the reference's index on every pair the
    reference holds.  Its step-by-step index and its stretches together
    hold as many pairs as the reference's index, so no other pair."""
    for name in TRACE_FIELDS:
        assert getattr(trace, name) == getattr(reference, name), name
    for pair, idx in reference._index.items():
        assert trace.entry(pair) == idx, pair
    assert len(trace._index) + stretched(trace) == len(reference._index)


def stretched(trace):
    """The number of entries a trace holds in its stretches."""
    return sum(hi - lo + 1 for segments in trace._segments.values() for lo, hi, _ in segments)


def test_cascading_closure_positions():
    """One step closes a loop whose limit target is already in the trace, so
    a second loop closes in the same step.  Positions pinned entry by entry."""
    x, y = parse_expr("b((bb)^w)^w(abbb)^w"), parse_expr("(b(bb)^w)^wa")
    left, right = CountingLimits(compile_expr(x)), compile_expr(y)
    trace = Trace((left.initial, right.initial))
    out = sync_step(left, right, trace)
    assert out == ("b", None)
    closures = len(trace._limit_at) - 1      # the limit entries after the first
    assert left.calls > closures
    assert trace.pairs() == [(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (2, 1), (3, 2),
                             (2, 3), (5, 5), (6, 6)]
    expected = ["0", "1", "2", "3", "w", "w+1", "w+2", "w+3", "w^2", "w^2+1"]
    assert [format_ordinal(trace.position(i)) for i in range(len(trace))] == expected
    assert format_ordinal(trace.position(-1)) == "w^2+1"
    out = compare(x, y)
    assert out.rel is Rel.RIGHT_PREFIX and format_ordinal(out.position) == "w^2+1"


def test_reset_trace_reruns_as_a_fresh_one():
    """A trace that closed a cascade and derived its positions, reset and
    run again from another pair, holds what a fresh trace holds, positions
    included: none is read from the earlier run."""
    cascade = compile_expr(parse_expr("b((bb)^w)^w(abbb)^w")), \
        compile_expr(parse_expr("(b(bb)^w)^wa"))
    twice = compile_expr(parse_expr("a^wa^wb"))
    nest = compile_expr(parse_expr("((ab)^wb)^wa"))
    runs = [(cascade, (0, 0)), (cascade, (1, 1)), ((twice, twice), (0, 0)),
            (cascade, (2, 3)), ((nest, nest), (2, 0)), ((nest, nest), (5, 0)),
            ((twice, twice), (1, 1))]
    trace, cascaded = Trace((0, 0)), 0
    for (left, right), first in runs:
        trace.reset(first)
        fresh = Trace(first)
        assert sync_step(left, right, trace) == sync_step(left, right, fresh)
        for name in TRACE_FIELDS + ("_index", "_segments"):
            assert getattr(trace, name) == getattr(fresh, name), name
        assert [trace.position(i) for i in range(len(trace))] == \
            [fresh.position(i) for i in range(len(fresh))]
        assert trace._limit_pos == fresh._limit_pos
        cascaded += max(map(len, trace._cascades)) > 1
    assert cascaded == 2 and trace._limit_at == [0, 1, 3]


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
        pair = (interval_limit(left, *interval(lefts)), interval_limit(right, *interval(rights)))
    t.cascades += closures > 1
    t.limit_at.append(len(t.pairs))
    t.carried.append((lefts, rights))
    t.add(pair)
    return pair, lefts, rights


class RunsAgainstReference:
    """A stand-in for sync_step.  It runs runner.sync_step, replays the same
    run step by step with reference_step on a ReferenceTrace and with the
    set-based closure on a SetTrace, and checks the finished traces: every
    field equal to the reference's, the same stop, the SetTrace's pairs and
    limit entries, and every carried span the sets that the set-based
    closure collapsed.  The carried spans are also those that the window
    rule reads: closures() gives the tops of the right ones, and the window
    of each cascade's last closure spans the left ones.  Every closure's
    window, in each component, is the whole loop its top names.  It sums
    the loop closures, the steps that closed more than one loop, the
    closures whose carried sets added states, and the entries made by
    crossing a diagonal stretch."""

    def __init__(self):
        self.closures = self.cascades = self.widened = self.stretched = 0

    def __call__(self, left, right, trace):
        assert len(trace) == 1        # one call per run, on a fresh trace
        first = trace.pairs()[0]
        out = sync_step(left, right, trace)
        reference, shadow = ReferenceTrace(first), SetTrace(first)
        assert out == reference_run(left, right, reference)
        assert_same_trace(trace, reference)
        while set_step(left, right, shadow) is not None:
            pass
        assert trace.pairs() == shadow.pairs and trace._limit_at == shadow.limit_at
        lefts, rights = reference._carried_l, reference._carried_r
        spans = list(zip(lefts[::2], lefts[1::2], rights[::2], rights[1::2]))
        assert len(spans) == len(shadow.carried) - 1
        for (llo, lhi, rlo, rhi), sets in zip(spans, shadow.carried[1:]):
            assert sets == (set(range(llo, lhi + 1)), set(range(rlo, rhi + 1)))
        limits = trace._limit_at[1:]
        assert list(trace.closures()) == [(m, rhi) for m, (_, _, _, rhi)
                                          in zip(limits, spans)]
        for m, cascade, span in zip(limits, trace._cascades[1:], spans):
            window = trace._lefts[cascade[-1]:m]
            assert (min(window), max(window)) == span[:2]
            for idx in cascade:
                for auto, states in ((left, trace._lefts), (right, trace._rights)):
                    window = states[idx:m]
                    assert min(window) == loop_start(auto, max(window))
        self.closures += len(spans)
        self.stretched += stretched(trace)
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


def tower_text(rng, depth):
    """(...((ac)^w x1)^w x2 ...)^w x_depth for drawn letters x1..x_depth."""
    text = "ac"
    for _ in range(depth):
        text = f"({text})^w{rng.choice('abc')}"
    return text


@pytest.mark.parametrize("least", [32, 1])
def test_stretches_in_the_factorizer_are_the_step_by_step_run(monkeypatch, least):
    """Every marking run's trace, with each diagonal stretch of at least
    `least` tokens crossed in one step, is the step-by-step reference's,
    on towers of depth 4-11 with drawn letters and on 300 random_expr
    draws.  Most of the towers' entries are crossed in stretches."""
    monkeypatch.setattr(runner, "STRETCH_MIN", least)
    check = RunsAgainstReference()
    monkeypatch.setattr(factorizer, "sync_step", check)
    rng = random.Random(41)
    for depth in range(4, 12):
        factorizer.factorize(parse_expr(tower_text(rng, depth)))
    closures, stretched_in_towers = check.closures, check.stretched
    for _ in range(300):
        factorizer.factorize(random_expr(rng, max_size=12, max_depth=3, letters="abc"))
    assert closures > 3000 and stretched_in_towers > 5000
    if least == 1:
        assert check.stretched > stretched_in_towers + 300
    compile_expr.cache_clear()


def test_stretches_of_a_word_against_itself_are_the_step_by_step_run(monkeypatch):
    """The runs of a word's automaton against itself, from (0, q) and (q, 0)
    for every state q, as prime_witness and suffix_word make them, with
    every stretch crossed in one step: the step-by-step reference's trace,
    on 150 random_expr draws and their tau.  On each finished trace,
    Trace._unseen counts the pairs before the first one the trace holds,
    from the few pairs just below each stretch on its diagonal.  On a tower
    run from (0, 0), the entry lookup finds every (s, s)."""
    monkeypatch.setattr(runner, "STRETCH_MIN", 1)
    check = RunsAgainstReference()
    rng = random.Random(43)
    draws = [random_expr(rng, max_size=10, max_depth=3, letters="ab") for _ in range(150)]
    counted = 0
    for e in draws + [tau(e) for e in draws]:
        auto = compile_expr(e)
        for q in range(auto.n):
            for first in ((0, q), (q, 0)):
                trace = Trace(first)
                check(auto, auto, trace)
                for d, segments in list(trace._segments.items()):
                    for lo, _, _ in segments:
                        for s in range(max(0, lo - 4, d), lo):
                            t, k = s - d, auto.n - max(s, s - d)
                            # the stretch lies ahead, so some pair is held
                            unseen = [trace.entry((s + q, t + q)) is not None
                                      for q in range(1, k + 1)].index(True)
                            assert trace._unseen(s, t, k) == unseen
                            counted += unseen > 0
    assert check.stretched > 1000 and counted > 100
    auto = compile_expr(tau(parse_expr(tower_text(rng, 5))))
    trace = Trace((0, 0))
    check(auto, auto, trace)
    assert [trace.entry((s, s)) for s in range(auto.n + 1)] == list(range(auto.n + 1))
    assert stretched(trace) > auto.n // 2
    compile_expr.cache_clear()


def cross_then_run(left, right, first):
    """Cross the stretch from the pair `first` (whose first tokens agree),
    run on to the stop, and check the trace against the step-by-step
    reference run from `first`.  Returns the stretch's length and the trace."""
    trace = Trace(first)
    k = runner._cross_stretch(left, right, trace)
    stop = sync_step(left, right, trace)
    reference = ReferenceTrace(first)
    assert stop == reference_run(left, right, reference)
    assert_same_trace(trace, reference)
    return k, trace


@pytest.mark.parametrize("text, first, k", [
    ("abcabd", (3, 0), 2),                   # a letter mismatch: d against c
    ("(aa)^wa(a)^w", (3, 0), 2),             # a^w against (aa)^w: one letter, two offsets
    ("c(abab)^wc(abab)^w", (9, 3), 2),       # token 11's back edge lands at 8, before 9
])
def test_stretch_stops_before_tokens_that_differ_or_leave(monkeypatch, text, first, k):
    """A stretch stops before two tokens whose steps differ, and before an
    w-token whose back edge lands before the stretch's start."""
    monkeypatch.setattr(runner, "STRETCH_MIN", 1)
    auto = compile_expr(parse_expr(text))
    got, trace = cross_then_run(auto, auto, first)
    s, t = first
    assert got == k
    assert trace.pairs()[:k + 1] == [(s + q, t + q) for q in range(k + 1)]
    assert trace._segments == {s - t: [(s + 1, s + k, 1)]}


def test_stretch_stops_before_the_jump_state(monkeypatch):
    """The sharp's jump state redirects its transition, so a stretch stops
    there though the base's tokens go on agreeing."""
    monkeypatch.setattr(runner, "STRETCH_MIN", 1)
    auto = compile_expr(parse_expr("ab" * 4))
    sharp = SharpAutomaton(auto, 0, 2)
    k, trace = cross_then_run(auto, sharp, (2, 0))
    assert k == 2 and trace.pairs()[:3] == [(2, 0), (3, 1), (4, 2)]
    assert cross_then_run(auto, auto, (2, 0))[0] == 6


def test_stretch_stops_before_a_pair_the_run_holds(monkeypatch):
    """On (a^wa(a^w)^w)^w from (0, 2), the stretch after the closure that
    reaches (2, 2) crosses one token: the next pair, (4, 4), was reached
    before.  On a^wa^w(aa)^wa from (0, 2), a stretch holds (3, 5), and a
    later back edge lands on it: the closure finds it by the entry lookup,
    though the step-by-step index lacks it."""
    monkeypatch.setattr(runner, "STRETCH_MIN", 1)
    crossed = []
    cross = runner._cross_stretch

    def recording(left, right, trace):
        k = cross(left, right, trace)
        crossed.append((trace.pairs()[-1 - k], k))
        return k

    monkeypatch.setattr(runner, "_cross_stretch", recording)
    check = RunsAgainstReference()
    auto = compile_expr(parse_expr("(a^wa(a^w)^w)^w"))
    trace = Trace((0, 2))
    check(auto, auto, trace)
    assert ((2, 2), 1) in crossed and trace.entry((4, 4)) == 5
    auto = compile_expr(parse_expr("a^wa^w(aa)^wa"))
    trace = Trace((0, 2))
    check(auto, auto, trace)
    assert (3, 5) not in trace._index and trace.entry((3, 5)) == 3
    assert trace._cascades[-1] == (3,)
    compile_expr.cache_clear()


def reference_marking(auto):
    """The marking loop as written before a candidate's run took one
    sync_step call: one reference_step per iteration, the n^3 budget checked
    before each step, the log kept step by step, and a fresh trace and sharp
    built for every candidate.  It keeps the set of states the main run has
    visited since the main cut i, and checks at every stop the premise of
    factorize_states, which keeps none: the set is every state from i to
    its greatest, and a 2a target is one past that.  Returns the state and
    the number of steps that closed more than one loop."""
    n = auto.n
    q_main, q_secondary = {0}, set()
    log = []
    steps, cascaded = 0, 0
    budget = n * n * n
    i = 0
    _, start = leaving(auto, 0)
    j = start
    history = ReferenceTrace((start, 0))
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
        elif outcome[1] is None:
            raise FactorizeError("sharp automaton has no final state; cannot end")
        else:
            assert seen_left == set(range(i, max(seen_left) + 1))
            k = history._lefts[-1]
            a, b = outcome
            if a is not None and a > b:
                _, target = leaving(auto, k)
                if target not in seen_left:
                    assert target == max(seen_left) + 1
                    case = "2a"
                    j = target
                else:
                    case = "2b"
                    j = max(seen_left) + 1
                seen_left.add(j)
                history = ReferenceTrace((j, i))
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
                _, target = leaving(auto, i)
                j = target
                seen_left = {i, j}
                history = ReferenceTrace((j, i))
                sharp = SharpAutomaton(auto, i, j)
                log.append(StepRecord("init", tuple(history.pairs())))
                continue
        log.append(StepRecord(case, tuple(history.pairs())))
    return FactorizerState(auto, q_main, q_secondary, steps, log), cascaded


def marking_automata():
    """The automata of tau(e) for 1,200 random_expr draws, for towers of
    depth 4-9 in three shapes and for the worked examples; for 40 random
    abc words of 100-400 letters, ab^300 and (ab)^150, whose many
    candidates run on one reused trace and sharp, as the benchmark's
    finite words do; for two words that restart with 2b 18 and 31 times;
    then the automata of two words as written, not duplicated, on which
    the candidate run closes two loops in one step (found among 40,000
    draws: no marking run on a duplicated draw did)."""
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
    inputs += [parse_expr("".join(rng.choice("abc") for _ in range(rng.randint(100, 400))))
               for _ in range(40)]
    inputs += [parse_expr(text) for text in [
        "a" + "b" * 300, "ab" * 150, "b" + "(c^w)^w" * 6, "a^wb((((c^w)^w)^w)^w)^w"]]
    autos = [compile_expr(tau(e)) for e in inputs]
    return autos + [compile_expr(parse_expr(text)) for text in
                    ["(((aa)^wbaaa)^w)^w", "((aa(aa)^w)^wabaaaaba)^w"]]


def test_marking_matches_the_step_by_step_loop():
    """factorize_states, which decides a candidate whose first letters
    differ at once and makes one sync_step call for each other candidate,
    on one trace and sharp reset at each restart, with the log rebuilt from
    each finished trace, gives the step-by-step loop's steps, marked states
    and log records on every automaton, with and without the log."""
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


def test_marking_runs_only_candidates_whose_first_letters_agree(monkeypatch):
    """factorize_states decides a candidate whose first letters differ
    without a product run: no sync_step call on ab^300, whose candidates all
    restart with 2a, nor on a strictly descending word, whose candidates all
    cut.  On 40 random abc words it makes one call per candidate whose
    first step is an equal-letter step of the step-by-step loop, the step
    whose record holds two pairs."""
    calls = 0

    def counting(left, right, trace):
        nonlocal calls
        calls += 1
        return sync_step(left, right, trace)

    monkeypatch.setattr(factorizer, "sync_step", counting)
    for text in ["a" + "b" * 300, "dcba"]:
        factorizer.factorize_states(compile_expr(tau(parse_expr(text))))
        assert calls == 0, text
    rng = random.Random(23)
    agreeing = 0
    for _ in range(40):
        auto = compile_expr(parse_expr(random_finite_word(rng, 400, "abc")))
        expected, _ = reference_marking(auto)
        first = sum(r.case in ("1a", "1b", "1c") and len(r.history) == 2 for r in expected.log)
        calls = 0
        assert factorizer.factorize_states(auto).steps == expected.steps
        assert calls == first
        agreeing += first
    assert agreeing > 1000
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
    assert first_letters(suffix_from(x, p), 1) == a
    assert first_letters(suffix_from(y, p), 1) == b
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

    def counted(x, y):
        # only words that agree on their first w letters reach the product run
        assert first_letters(x, 100) == first_letters(y, 100)
        calls.append(x)
        return product(x, y)

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

