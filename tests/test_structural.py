"""Structural factorization combinators: examples and algebraic checks."""

import inspect
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import example, given, settings, strategies as st

from ratword import (
    Factorization,
    circular_fact,
    compare,
    concat,
    concat_pp,
    duval_factorize,
    fact_omega,
    fact_product,
    factorize,
    factorize_structural,
    format_expr,
    parse_expr,
    power,
    word_equal,
)
from ratword.expr import Concat, Letter, Omega, RatExpr, as_finite_word, expr_length, fold
from ratword.ordinal import ONE, OMEGA, Ordinal
import ratword.order as order
import ratword.structural as structural
from ratword.structural import StructuralError
from ratword.gen import random_expr

from helpers import letter_run, random_finite_word, with_letter_runs

E = parse_expr


def test_concat_pp_trichotomy():
    # distinct primes, not absorbed: one longer prime
    w, g = concat_pp(E("a"), Ordinal.from_int(2), E("b"), ONE)
    assert format_expr(w) == "aab" and g == ONE
    # u^alpha absorbed on the left of v
    w, g = concat_pp(E("a"), ONE, E("a^wb"), ONE)
    assert format_expr(w) == "a^wb" and g == ONE
    # equal primes: exponents add
    w, g = concat_pp(E("b"), ONE, E("b"), Ordinal.from_int(2))
    assert format_expr(w) == "b" and g == Ordinal.from_int(3)
    # omega exponent absorption
    w, g = concat_pp(E("a"), OMEGA, E("a"), ONE)
    assert format_expr(w) == "a" and g == OMEGA + ONE


def test_concat_pp_rejects_decreasing():
    with pytest.raises(StructuralError):
        concat_pp(E("b"), ONE, E("a"), ONE)


def test_concat_pp_uses_the_callers_outcome(monkeypatch):
    """Given the caller's compare(u, v), concat_pp does not compare u with v
    again, and gives the same result."""
    cases = [("a", "b"), ("ab", "abb"), ("b", "b"), ("a", "a^wb")]
    outcomes = {(u, v): compare(E(u), E(v)) for u, v in cases}
    expected = {(u, v): concat_pp(E(u), ONE, E(v), ONE) for u, v in cases}

    def no_compare(*args):
        raise AssertionError("compared again")

    monkeypatch.setattr(structural, "compare", no_compare)
    for u, v in cases:
        assert concat_pp(E(u), ONE, E(v), ONE, out=outcomes[u, v]) == expected[u, v]


def test_concat_pp_word_identity():
    rng = random.Random(3)
    for _ in range(200):
        u = duval_factorize(random_finite_word(rng, 6) or "a")[0]
        v = duval_factorize(random_finite_word(rng, 6) or "b")[0]
        if not compare(E(u), E(v)).left_le:
            u, v = v, u
        a = Ordinal.from_int(rng.randint(1, 3))
        b = Ordinal.from_int(rng.randint(1, 3))
        w, g = concat_pp(E(u), a, E(v), b)
        assert word_equal(power(w, g),
                          concat([power(E(u), a), power(E(v), b)]))


def starting_with_omega_power(rng, u):
    """A drawn word whose left spine holds u^w: u^w itself, or u^w put one to
    three times in front of a drawn part, in front of it inside an w-power,
    or under an w-power."""
    v = Omega(u)
    for _ in range(rng.randint(0, 3)):
        r = random_expr(rng, max_size=5, max_depth=1, letters="abc")
        v = rng.choice([concat([v, r]), Omega(concat([v, r])), Omega(v)])
    return v


def test_absorption_by_a_leading_omega_power_matches_the_full_test(monkeypatch):
    """For v with u^w on its left spine and a finite, concat_pp(u, a, v, b)
    is (v, b) without a word_equal call, as the full test u^a v = v, run by
    the product run, finds; with a transfinite, it gives what that test
    decides.  u comes as a str too when finite."""
    full = word_equal
    calls = []
    monkeypatch.setattr(structural, "word_equal", lambda x, y: calls.append(x) or full(x, y))
    rng = random.Random(30)
    for _ in range(2_000):
        u = random_expr(rng, max_size=6, max_depth=1, letters="abc")
        v = starting_with_omega_power(rng, u)
        alpha = Ordinal.from_int(rng.randint(1, 4)) if rng.random() < 0.75 else \
            rng.choice([OMEGA, OMEGA + ONE, Ordinal.omega(2)])
        beta = rng.choice([ONE, Ordinal.from_int(3), OMEGA])
        absorbed = order.compare_via_automata(concat([power(u, alpha), v]), v).is_equal
        assert absorbed or not alpha.is_finite
        for prime in {u, as_finite_word(u) or u}:
            calls.clear()
            want = (v, beta) if absorbed else (concat([power(u, alpha), power(v, beta)]), ONE)
            assert concat_pp(prime, alpha, v, beta) == want, (format_expr(u), format_expr(v))
            assert bool(calls) is not alpha.is_finite


def test_fact_product_examples():
    ab = [(E("ab"), ONE)]
    aab = [(E("aab"), ONE)]
    assert fact_product(ab, aab) == [(E("ab"), ONE), (E("aab"), ONE)]
    merged = fact_product([(E("a"), ONE)], [(E("b"), ONE)])
    assert len(merged) == 1 and format_expr(merged[0][0]) == "ab"
    assert fact_product([(E("b"), Ordinal.from_int(2))], [(E("a"), ONE)]) == \
        [(E("b"), Ordinal.from_int(2)), (E("a"), ONE)]


def test_circular_fact_examples():
    k, v, beta = circular_fact([(E("b"), Ordinal.from_int(2)), (E("a"), ONE)])
    assert (k, format_expr(v), beta) == (1, "abb", ONE)
    k, v, beta = circular_fact([(E("a"), ONE)])
    assert (k, format_expr(v), beta) == (1, "a", ONE)
    k, v, beta = circular_fact([(E("a^wb"), OMEGA)])
    assert k == 1 and word_equal(v, E("a^wb")) and beta == OMEGA


def test_circular_fact_postcondition():
    rng = random.Random(5)
    for _ in range(200):
        word = random_finite_word(rng, 10, "abc") or "a"
        blocks = factorize_structural(E(word)).blocks
        k, v, beta = circular_fact(list(blocks))
        assert compare(v, blocks[k - 1][0]).left_le


def test_fact_omega_examples():
    bba = [(E("b"), Ordinal.from_int(2)), (E("a"), ONE)]
    out = fact_omega(bba)
    assert [(format_expr(p), a) for p, a in out] == \
        [("b", Ordinal.from_int(2)), ("abb", OMEGA)]
    assert fact_omega([(E("a"), ONE)]) == [(E("a"), OMEGA)]
    out = fact_omega([(E("a^wb"), ONE)])
    assert len(out) == 1 and word_equal(out[0][0], E("a^wb")) \
        and out[0][1] == OMEGA


def test_factorize_structural_examples():
    f = factorize_structural(E("(a^wb)^wa^w"))
    assert str(f) == "(a^wb)^[w] * a^[w]"
    assert str(factorize_structural(E("(ab)^w"))) == "(ab)^[w]"
    assert str(factorize_structural(E("bba"))) == "b^[2] * a^[1]"


def test_matches_duval_on_finite_words():
    rng = random.Random(9)
    for _ in range(300):
        word = random_finite_word(rng, 12, "ab") or "a"
        flat = []
        for p, a in factorize_structural(E(word)).blocks:
            flat.extend([format_expr(p)] * a.to_int())
        assert flat == duval_factorize(word)


@pytest.mark.parametrize("order", ["abc", "cba"], ids=["default", "cba"])
def test_matches_duval_on_long_finite_words(order):
    """Each word is relabelled by the map that takes `order` onto abc, so
    the relabelled words compare under the one letter order as the drawn
    words do under `order`."""
    relabel = str.maketrans(order, "abc")
    rng = random.Random(29)
    for _ in range(6):
        word = "".join(rng.choice("abc") for _ in range(rng.randint(800, 1600)))
        word = word.translate(relabel)
        flat = []
        for p, a in factorize_structural(E(word)).blocks:
            flat.extend([format_expr(p)] * a.to_int())
        assert flat == duval_factorize(word)


def test_blocks_strictly_decreasing():
    rng = random.Random(13)
    for _ in range(200):
        e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        blocks = factorize_structural(e).blocks
        for (u, _), (v, _) in zip(blocks, blocks[1:]):
            out = compare(u, v)
            assert not out.left_le or out.rel.name in ("GREATER",)
        assert word_equal(Factorization(blocks).reconstruct(), e)


@pytest.mark.parametrize("text, blocks", [
    ("a" + "b" * 12800, [(12801, ONE)]),
    ("(a" + "b" * 3200 + ")^w", [(3201, OMEGA)]),
], ids=["ab^12800", "(ab^3200)^w"])
def test_long_finite_primes_merge_in_linear_time(text, blocks):
    """Merging finite primes is string work.  When each merge rebuilt its
    prime as an expression of letters, these took 15.5 s and 1.1 s."""
    e = E(text)
    start = perf_counter()
    f = factorize_structural(e)
    assert perf_counter() - start < 2.0
    assert [(expr_length(p), a) for p, a in f.blocks] == \
        [(Ordinal.from_int(n), a) for n, a in blocks]
    assert "".join(as_finite_word(p) for p, _ in f.blocks) == text.strip("()^w")


def assert_expression_prime(p):
    """p is an expression; a finite one is a shared Letter or a flat Concat
    of shared Letters."""
    assert isinstance(p, RatExpr)
    word = as_finite_word(p)
    if word is None:
        return
    if len(word) == 1:
        assert p is Letter(word)
    else:
        assert type(p) is Concat and all(q is Letter(q.sym) for q in p.parts)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10**6), st.booleans())
def test_primes_are_expressions(seed, finite):
    """Whatever the engine holds as strings while it works, every prime it
    returns is an expression, and the public helpers given expressions
    return expressions."""
    rng = random.Random(seed)
    if finite:
        x, y = (E(random_finite_word(rng, 30, "abc")) for _ in range(2))
    else:
        x, y = (random_expr(rng, max_size=10, max_depth=3, letters="abc") for _ in range(2))
    fx, fy = factorize_structural(x).blocks, factorize_structural(y).blocks
    for p, _ in fx + fy:
        assert_expression_prime(p)
    for p, _ in fact_product(list(fx), list(fy)):
        assert_expression_prime(p)
    for p, _ in fact_omega(list(fx)):
        assert_expression_prime(p)
    _, v, _ = circular_fact(list(fx))
    assert_expression_prime(v)
    if len(fx) > 1:
        (v, beta), (u, alpha) = fx[0], fx[1]
        w, _ = concat_pp(u, alpha, v, beta)
        assert_expression_prime(w)


def test_fact_omega_rejects_a_rotation_above_its_pivot(monkeypatch):
    """fact_omega checks circular_fact's postcondition, v <=lex the k-th
    prime, with the one compare it also reads the equal case from."""
    monkeypatch.setattr(structural, "circular_fact", lambda blocks: (1, "c", ONE))
    with pytest.raises(StructuralError, match="exceeds its pivot"):
        fact_omega([("b", Ordinal.from_int(2)), ("a", ONE)])


@settings(deadline=None, max_examples=150)
@given(st.integers(0, 10**6), st.booleans())
def test_a_prime_is_a_str_exactly_when_it_is_finite(seed, finite):
    """Every block _letter_blocks gives and fact_product and fact_omega take
    or give inside factorize_structural holds a str prime when the prime has
    no w-power, and an expression with an w-power otherwise."""
    seen: list[tuple] = []

    def recording(f):
        def wrapper(*args):
            result = f(*args)
            for blocks in [a for a in args if type(a) is list] + [result]:
                seen.extend(blocks)
            return result
        return wrapper

    rng = random.Random(seed)
    if finite:
        e = E("".join(rng.choice("abc") for _ in range(rng.randint(1, 400))))
    else:
        e = random_expr(rng, max_size=12, max_depth=3, letters="abc")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_letter_blocks", "fact_product", "fact_omega"):
            mp.setattr(structural, name, recording(getattr(structural, name)))
        blocks = factorize_structural(e).blocks
    assert seen or len(blocks) == 1
    for p, _ in seen:
        assert type(p) is str or as_finite_word(p) is None, p



@st.composite
def finite_words(draw):
    """Words of 1-800 letters on ab, abc or abcd: random, or a random block
    of up to 8 letters repeated, so runs and periodic words come up."""
    letters = draw(st.sampled_from(["ab", "abc", "abcd"]))
    n, period = draw(st.integers(1, 800)), draw(st.integers(0, 8))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if period:
        return ("".join(rng.choice(letters) for _ in range(period)) * n)[:n]
    return "".join(rng.choice(letters) for _ in range(n))


def count_run_decisions(f, *args):
    """f(*args), and how many merge decisions the run loop made meanwhile:
    the times a line trace saw `_letter_blocks` reach its one decision
    line, `if u > v:`.  Every pass of its inner loop makes one decision."""
    code = structural._letter_blocks.__code__
    source, first = inspect.getsourcelines(structural._letter_blocks)
    lines = [first + i for i, line in enumerate(source) if line.strip() == "if u > v:"]
    assert len(lines) == 1, "the run loop's decision line is not `if u > v:`"
    decisions = 0

    def local(frame, event, arg):
        nonlocal decisions
        if event == "line" and frame.f_lineno == lines[0]:
            decisions += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = f(*args)
    finally:
        sys.settrace(previous)
    return result, decisions


@settings(deadline=None, max_examples=120)
@given(finite_words())
@example("ba" * 250)  # 996 merge decisions against the bound 2n - F - 1 = 996
def test_finite_word_costs_at_most_two_compares_per_letter(word):
    """Cost law on a finite word of n letters and F blocks:
    factorize_structural decides at most 2n - F - 1 merges, by str order,
    all of them in the run loop, and makes no _merge call, no compare and no
    product run.  In the loop each decision either merges two blocks, n - F
    times in all, or stops an incoming block, at most once per letter after
    the first."""
    calls = {"_merge": 0, "compare": 0, "compare_via_automata": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structural, "_merge", counting(structural, "_merge"))
        mp.setattr(structural, "compare", counting(structural, "compare"))
        mp.setattr(order, "compare_via_automata", counting(order, "compare_via_automata"))
        fact, decisions = count_run_decisions(factorize_structural, E(word))
    blocks = fact.blocks
    assert decisions <= 2 * len(word) - len(blocks) - 1
    if word == "ba" * 250:
        assert decisions == 996
    assert calls["_merge"] == calls["compare"] == calls["compare_via_automata"] == 0
    assert "".join(as_finite_word(p) * a.to_int() for p, a in blocks) == word


@st.composite
def expression_texts(draw):
    """The text of a random_expr draw of size up to 16 and depth up to 4."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    return format_expr(random_expr(rng, max_size=16, max_depth=4,
                                   letters=draw(st.sampled_from(["ab", "abc", "abcd"]))))


@settings(deadline=None, max_examples=300)
@given(expression_texts())
@example("cabcbbccaaccccbabcaacabbaaca")  # 7 decisions against the bound 9
def test_rotation_costs_at_most_two_merge_decisions_per_block(text):
    """Cost law of the rotation: on a factorization of k >= 2 blocks,
    circular_fact decides at most 2k - 3 merges, and none on one block.  No
    two neighbours of a factorization merge, so each step tries only the
    front block with the block after it and the block before it across the
    wrap, and takes up one of them; the first step tries only the wrap.  A
    rescan of every pair after each merge made 15 decisions on the 6 blocks
    of the example, and a first step that tried blocks 1 and 2 made 8."""
    blocks = factorize_structural(E(text)).blocks
    merge, calls = structural._merge, 0

    def counting(x, y):
        nonlocal calls
        calls += 1
        return merge(x, y)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structural, "_merge", counting)
        circular_fact(list(blocks))
    assert calls <= max(2 * len(blocks) - 3, 0)
    if text == "cabcbbccaaccccbabcaacabbaaca":
        assert (len(blocks), calls) == (6, 7)


@st.composite
def str_pairs(draw):
    """Two non-empty strs over ab, abc or any characters; the second is
    often the first extended, or a proper prefix of it, or equal to it."""
    letters = draw(st.sampled_from(["ab", "abc", st.characters()]))
    words = st.text(letters, min_size=1, max_size=12)
    u, w = draw(words), draw(words)
    return draw(st.sampled_from([(u, w), (u, u + w), (u + w, u), (u, u)]))


@settings(max_examples=300)
@given(str_pairs())
@example(("ab", "abb"))
@example(("abb", "ab"))
@example(("b", "ab"))
def test_str_order_is_compares_order_on_finite_words(pair):
    """Merges of two str primes go by Python's str order in place of
    compare; the two agree on every pair, proper prefixes included."""
    u, v = pair
    out = compare(u, v)
    assert (u <= v, u == v, u < v) == (out.left_le, out.is_equal, out.left_lt)


# References: fact_product and circular_fact as they were while every merge
# decision called compare, and concat_pp with its str branch.

def reference_concat_pp(u, alpha, v, beta, out):
    if out.left_lt and type(u) is str and type(v) is str:
        (ea, ca), (eb, cb) = alpha.terms[0], beta.terms[0]
        if ea == eb == 0:
            return u * ca + v * cb, ONE
    return concat_pp(u, alpha, v, beta, out)


def reference_fact_product(left, right):
    blocks = list(left)
    for v, beta in right:
        while blocks:
            out = compare(blocks[-1][0], v)
            if not out.left_le:
                break
            u, alpha = blocks.pop()
            v, beta = reference_concat_pp(u, alpha, v, beta, out)
        blocks.append((v, beta))
    return blocks


def reference_circular_fact(blocks):
    n = len(blocks)
    ring = [(idx + 1, p, a) for idx, (p, a) in enumerate(blocks)]
    while len(ring) > 1:
        for pos in range(len(ring)):
            nxt = (pos + 1) % len(ring)
            s1, u, alpha = ring[pos]
            _, v, beta = ring[nxt]
            out = compare(u, v)
            if out.left_le:
                w, gamma = reference_concat_pp(u, alpha, v, beta, out)
                if nxt == 0:
                    ring = [(s1, w, gamma)] + ring[1:pos]
                else:
                    ring[pos:nxt + 1] = [(s1, w, gamma)]
                break
        else:
            raise AssertionError("strictly decreasing cycle")
    start, v, beta = ring[0]
    return (start - 1 if start > 1 else n), v, beta


def assert_matches_the_reference(exprs):
    """factorize_structural's block reprs equal those it builds with the
    reference fact_product and circular_fact in place of its own."""
    exprs = list(exprs)
    got = [repr(factorize_structural(e).blocks) for e in exprs]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structural, "fact_product", reference_fact_product)
        mp.setattr(structural, "circular_fact", reference_circular_fact)
        want = [repr(factorize_structural(e).blocks) for e in exprs]
    for e, g, w in zip(exprs, got, want):
        assert g == w, format_expr(e)


def test_matches_the_compare_based_reference_on_random_expressions():
    rng = random.Random(18)
    assert_matches_the_reference(
        random_expr(rng, max_size=rng.randint(2, 16), max_depth=rng.randint(0, 4),
                    letters=rng.choice(["ab", "abc", "abcd"]))
        for _ in range(10_000))


def test_matches_the_compare_based_reference_on_long_finite_words():
    rng = random.Random(181)
    assert_matches_the_reference(
        E("".join(rng.choice("abc") for _ in range(rng.randint(100, 1600))))
        for _ in range(40))


def test_matches_the_compare_based_reference_on_periodic_words():
    rng = random.Random(182)
    words = [("".join(rng.choice("abc") for _ in range(period)) * n)[:n]
             for period in range(1, 9) for n in (1, 2, 7, 50, 333) for _ in range(4)]
    words += ["a" + "b" * n for n in (1, 2, 3, 10, 100, 1000)]
    words += [text * n for text in ("ab", "ba") for n in (1, 2, 3, 10, 100, 500)]
    short = [w for w in words if len(w) <= 60]
    assert_matches_the_reference(
        [E(w) for w in words] + [E(f"({w})^w") for w in short] + [E(f"a^w{w}") for w in short])


# Reference: every letter a one-letter block, and each concatenation one
# fact_product over its parts' blocks, as the engine ran before it read a
# run of letters in one loop.

def letter_by_letter(e):
    def visit(node, kids):
        if type(node) is Letter:
            return [(node.sym, ONE)]
        if type(node) is Omega:
            return fact_omega(kids[0])
        return fact_product([], [b for blocks in kids for b in blocks])

    return tuple((concat(map(Letter, p)) if type(p) is str else p, alpha)
                 for p, alpha in fold(e, visit))


def assert_matches_letter_by_letter(e):
    blocks = factorize_structural(e).blocks
    assert repr(blocks) == repr(letter_by_letter(e)), format_expr(e)
    for p, _ in blocks:
        assert_expression_prime(p)


def test_letter_runs_match_the_letter_by_letter_reference():
    rng = random.Random(29)
    for _ in range(400):
        letters = rng.choice(["ab", "abc"])
        e = random_expr(rng, max_size=rng.randint(2, 12), max_depth=rng.randint(0, 3),
                        letters=letters)
        assert_matches_letter_by_letter(with_letter_runs(rng, e, letters))


@settings(deadline=None, max_examples=100)
@given(finite_words())
def test_finite_words_match_the_letter_by_letter_reference(word):
    assert_matches_letter_by_letter(E(word))


def test_a_nesting_past_the_recursion_levels_matches_the_letter_by_letter_reference():
    """A letter run on both sides of every level of a nesting deeper than
    RECURSION_LEVELS, so that fold reads the runs below them."""
    rng = random.Random(291)
    e = concat(letter_run(rng))
    for _ in range(structural.RECURSION_LEVELS + 10):
        e = concat(letter_run(rng) + [Omega(e)] + letter_run(rng))
    assert_matches_letter_by_letter(e)


def ladder(n):
    """The word a^w b a^w b^2 ... a^w b^n."""
    return "".join("a^w" + "b" * k for k in range(1, n + 1))


PEAK_PROBE = """
import resource, sys, time
from ratword import factorize_structural, order, parse_expr
runs = []
product = order.compare_via_automata
order.compare_via_automata = lambda x, y: runs.append(x) or product(x, y)
e = parse_expr(sys.argv[1])
start = time.perf_counter()
fact = factorize_structural(e)
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(len(fact.blocks), seconds, peak / (2**20 if sys.platform == "darwin" else 2**10), len(runs))
"""

# On Linux a process's peak RSS starts from that of the process it was
# forked from, so the probe is started from a bare interpreter, not from
# the test's process.
LAUNCHER = "import subprocess, sys; subprocess.run([sys.executable, *sys.argv[1:]], check=True)"


def peak_probe(text):
    """PEAK_PROBE's figures for text: blocks, seconds, peak RSS in MB and
    product runs."""
    src = Path(structural.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", LAUNCHER, "-c", PEAK_PROBE, text], env=env,
                         capture_output=True, text=True, timeout=10, check=True).stdout
    return out.split()


def test_a_run_after_an_omega_power_merges_once():
    """A run of letters is one block before it meets the w-power; merged
    letter by letter, a^w b^12800 took 7.1 s."""
    e = E("a^w" + "b" * 12800)
    start = perf_counter()
    blocks = factorize_structural(e).blocks
    assert perf_counter() - start < 0.5
    assert blocks == ((e, ONE),)


def test_ladder_of_omega_powers_and_runs_in_time_and_memory():
    """a^w b ... a^w b^200 in a fresh process: under 1 s and 100 MB peak
    RSS (20 s and 92 MB merged letter by letter); one prime, as the
    automaton engine finds on n = 80."""
    assert factorize(E(ladder(80)))[0].same_as(factorize_structural(E(ladder(80))))
    blocks, seconds, peak_mb, _ = peak_probe(ladder(200))
    assert int(blocks) == 1
    assert float(seconds) < 1.0 and float(peak_mb) < 100, (seconds, peak_mb)


def test_towers_and_the_ladder_run_no_product():
    """A compare of two primes that agree on their first w letters is read
    off the expressions on drawn towers of depth 4-11 and on the ladder at
    n = 400, which stays under 60 MB peak RSS in a fresh process (283 MB,
    after 798 product runs, when those compares ran them)."""
    rng = random.Random(30)
    runs = []
    product = order.compare_via_automata
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(order, "compare_via_automata", lambda x, y: runs.append(x) or product(x, y))
        for depth in range(4, 12):
            for _ in range(12):
                text = "ac"
                for _ in range(depth):
                    text = f"({text})^w{rng.choice('abc')}"
                factorize_structural(E(text))
    assert not runs
    blocks, seconds, peak_mb, runs = peak_probe(ladder(400))
    assert int(blocks) == 1 and int(runs) == 0, (blocks, runs)
    assert float(peak_mb) < 60, peak_mb
