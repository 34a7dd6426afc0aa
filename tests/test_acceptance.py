"""Acceptance suite: one check per release criterion, one line of output each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines."""

import itertools
import random
import time

from ratword import (
    circular_fact,
    compare,
    concat,
    concat_pp,
    depth,
    duval_factorize,
    factorize,
    factorize_structural,
    format_expr,
    is_prime_finite,
    marked_expression,
    parse_expr,
    power,
    prime_witness,
    size,
    tau,
    word_equal,
)
from ratword.expr import Letter, Omega
from ratword.gen import random_expr
from ratword.ordinal import ONE, OMEGA, Ordinal, div_left, sub_left
from ratword.order import Rel

from helpers import brute_force_factorize, random_finite_word, random_ordinal

E = parse_expr


def report(num, text):
    print(f"PASS criterion {num}: {text}")


# ---------------------------------------------------------------- corpus ----

_CORPUS = None


def corpus():
    """1000 random rational expressions with both engines' results."""
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(2024)
        rows = []
        while len(rows) < 1000:
            e = random_expr(rng, max_size=12, max_depth=3, letters="abc")
            fact, state, _ = factorize(e)
            rows.append((e, fact, state, factorize_structural(e)))
        _CORPUS = rows
    return _CORPUS


def flatten(fact):
    out = []
    for p, a in fact.blocks:
        out.extend([format_expr(p)] * a.to_int())
    return out


def random_prime(rng, max_len=6, letters="ab"):
    while True:
        w = random_finite_word(rng, max_len, letters)
        if w and is_prime_finite(w):
            return E(w)


# -------------------------------------------------------------- criteria ----

def test_criterion_1_worked_example():
    e = E("(a^wb)^wa^w")
    factorize(e, keep_log=True)  # warm caches before timing
    t0 = time.perf_counter()
    fact, state, _ = factorize(e, keep_log=True)
    elapsed = time.perf_counter() - t0
    assert state.automaton.n == 12
    assert state.q_main == {0, 9, 12}
    assert state.q_secondary == {4, 8, 10, 11}
    snapshots = [r.history for r in state.log if r.case != "init"]
    assert snapshots[0] == ((1, 0), (2, 1))
    assert snapshots[1] == ((1, 0), (2, 1), (3, 1))
    assert snapshots[2] == ((4, 0),)
    assert snapshots[-1] == ((10, 9), (11, 10), (12, 10))
    full = [
        ((1, 0), (2, 1)),
        ((1, 0), (2, 1), (3, 1)),
        ((4, 0),),
        ((4, 0), (5, 1)),
        ((4, 0), (5, 1), (6, 2)),
        ((4, 0), (5, 1), (6, 2), (7, 3)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2), (12, 3)),
        ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2), (12, 3)),
        ((10, 9), (11, 10)),
        ((10, 9), (11, 10), (12, 10)),
        ((10, 9), (11, 10), (12, 10)),
    ]
    assert snapshots == full
    assert str(fact) == "(aa^wb)^[w] * a^[w]"
    assert elapsed < 0.010
    report(1, f"(a^wb)^wa^w states and full history exact, {elapsed * 1000:.2f} ms")


def test_criterion_2_marked_expression():
    fact, state, dup = factorize(E("(bba)^w"))
    marked = marked_expression(dup, state.q_main, state.q_secondary)
    assert marked == "||b|b||a(bb|a)^w||"
    assert str(fact) == "b^[2] * (abb)^[w]"
    report(2, f'(bba)^w marked "{marked}", factorization "{fact}"')


def test_criterion_3_finite_oracle_sweep():
    t0 = time.perf_counter()
    count = 0
    for n in range(1, 13):
        for tup in itertools.product("ab", repeat=n):
            word = "".join(tup)
            expected = duval_factorize(word)
            assert brute_force_factorize(word) == expected
            assert flatten(factorize(E(word))[0]) == expected
            assert flatten(factorize_structural(E(word))) == expected
            count += 1
    assert count == 8190
    rng = random.Random(42)
    for _ in range(10000):
        word = random_finite_word(rng, 50, "abc") or "a"
        expected = duval_factorize(word)
        assert flatten(factorize(E(word))[0]) == expected
        assert flatten(factorize_structural(E(word))) == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    report(3, f"8190 exhaustive + 10000 random finite words, four-way "
              f"agreement, {elapsed:.1f} s")


def test_criterion_4_engine_differential():
    for e, fact, _, structural in corpus():
        assert fact.same_as(structural), format_expr(e)
    report(4, f"{len(corpus())} random expressions, engines identical")


def test_criterion_5_factorization_validity():
    omega_omega_bound = 10  # any exponent term has finite degree, so < w^w
    for e, fact, _, _ in corpus():
        primes = [p for p, _ in fact.blocks]
        for u, v in zip(primes, primes[1:]):
            # a prefix is strictly smaller, so RIGHT_PREFIX also counts
            assert compare(u, v).rel in (Rel.GREATER, Rel.RIGHT_PREFIX), \
                format_expr(e)
        for p, a in fact.blocks:
            assert prime_witness(p) is None, format_expr(p)
            assert ONE <= a and a.terms[0][0] < omega_omega_bound
        assert word_equal(fact.reconstruct(), e)
    report(5, f"{len(corpus())} factorizations: decreasing, prime, "
              f"exponents in [1, w^w), reconstruct")


def test_criterion_6_step_bound():
    for e, _, state, _ in corpus():
        assert state.steps <= state.automaton.n ** 3, format_expr(e)
    report(6, f"step count <= n^3 on all {len(corpus())} runs")


def test_criterion_7_duplication_bound():
    rng = random.Random(7)
    for _ in range(10000):
        e = random_expr(rng, max_size=12, max_depth=3, letters="abc")
        assert size(tau(e)) <= 2 ** depth(e) * size(e)
    e = Letter("a")
    expected = 1
    for n in range(11):
        assert size(tau(e)) == expected
        e = Omega(e)
        expected = 2 * expected + 1
    report(7, "size(tau(e)) <= 2^depth * size on 10000 expressions; "
              "tower family follows t' = 2t + 1")


def test_criterion_8_property_suites():
    rng = random.Random(88)
    N = 500
    exps = [ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA, OMEGA * OMEGA]

    def prime_pair():
        while True:
            u, v = random_prime(rng), random_prime(rng)
            out = compare(u, v)
            if out.is_equal:
                continue
            if not out.left_lt:
                u, v = v, u
            return u, v

    # power prefix ordering: u^a < u^a v and u^a v <= v
    for _ in range(N):
        u, v = prime_pair()
        a = rng.choice(exps)
        left = concat([power(u, a), v])
        assert compare(power(u, a), left).rel in (Rel.LESS, Rel.LEFT_PREFIX)
        assert compare(left, v).rel in (Rel.LESS, Rel.EQUAL, Rel.LEFT_PREFIX)

    # u^a v is prime for primes u < v
    for _ in range(N):
        u, v = prime_pair()
        a = rng.choice(exps)
        assert prime_witness(concat([power(u, a), v])) is None

    # when u^a v < v, also u^a v^b is prime
    checked = 0
    while checked < N:
        u, v = prime_pair()
        a = rng.choice(exps)
        if compare(concat([power(u, a), v]), v).rel is not Rel.LESS:
            continue
        b = rng.choice([ONE, Ordinal.from_int(2), OMEGA])
        assert prime_witness(concat([power(u, a), power(v, b)])) is None
        checked += 1

    # combine trichotomy: one prime power with the same word
    for _ in range(N):
        u, v = random_prime(rng), random_prime(rng)
        if not compare(u, v).left_le:
            u, v = v, u
        a = Ordinal.from_int(rng.randint(1, 3))
        b = Ordinal.from_int(rng.randint(1, 3))
        w, g = concat_pp(u, a, v, b)
        assert word_equal(power(w, g), concat([power(u, a), power(v, b)]))
        assert prime_witness(w) is None
        if word_equal(u, v):
            assert g == a + b
        else:
            assert g in (b, ONE)

    # a word prime with a squared tail stays prime with an omega tail
    checked = 0
    while checked < N:
        x = random_finite_word(rng, 5) or "a"
        y = random_finite_word(rng, 4) or "b"
        if not is_prime_finite(x + y + y):
            continue
        assert prime_witness(concat([E(x), Omega(E(y))])) is None
        checked += 1

    # a product of >= 2 decreasing prime powers is never prime
    checked = 0
    while checked < N:
        word = random_finite_word(rng, 12, "ab") or "ab"
        fact = factorize_structural(E(word))
        if len(fact.blocks) < 2:
            continue
        assert prime_witness(E(word)) is not None
        checked += 1

    # bumping a letter after a power of a prime keeps it prime
    checked = 0
    while checked < N:
        u = random_prime(rng, 6, "ab")
        word = format_expr(u)
        cut = rng.randrange(len(word))
        if word[cut] != "a":
            continue
        a = rng.choice([ONE, Ordinal.from_int(2), OMEGA])
        bumped = concat([power(u, a), E(word[:cut] + "b")]) \
            if cut else concat([power(u, a), E("b")])
        assert prime_witness(bumped) is None
        checked += 1

    # a leading prime power above the rest peels off unchanged
    checked = 0
    while checked < N:
        u = random_prime(rng)
        x = E(random_finite_word(rng, 8) or "a")
        if compare(x, u).rel is not Rel.LESS:
            continue
        a = rng.choice([ONE, Ordinal.from_int(2), OMEGA])
        whole = factorize_structural(concat([power(u, a), x])).blocks
        tail = factorize_structural(x).blocks
        assert len(whole) == len(tail) + 1
        assert word_equal(whole[0][0], u) and whole[0][1] == a
        for (p1, a1), (p2, a2) in zip(whole[1:], tail):
            assert word_equal(p1, p2) and a1 == a2
        checked += 1

    # the first factor is the longest prime prefix
    for _ in range(N):
        word = random_finite_word(rng, 12) or "a"
        best = max((word[:i] for i in range(1, len(word) + 1)
                    if is_prime_finite(word[:i])), key=len)
        assert duval_factorize(word)[0] == best

    # rotating a block cycle lands at or below its pivot
    for _ in range(N):
        word = random_finite_word(rng, 10, "abc") or "a"
        blocks = factorize_structural(E(word)).blocks
        k, v, beta = circular_fact(list(blocks))
        assert compare(v, blocks[k - 1][0]).left_le
        rotated = concat([power(p, a) for p, a in
                          list(blocks[k:]) + list(blocks[:k])])
        assert word_equal(power(v, beta), rotated)

    report(8, f"10 property suites x {N} cases")


def test_criterion_9_ordinal_arithmetic():
    rng = random.Random(9)
    for _ in range(10000):
        a = random_ordinal(rng)
        b = random_ordinal(rng)
        c = random_ordinal(rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if a <= b:
            assert a + sub_left(a, b) == b
        if not b.is_zero:
            q, r = div_left(a, b)
            assert b * q + r == a and r < b
    # independent positional model below w^3
    def enc(o):
        t = {e: c for e, c in o.terms}
        return (t.get(2, 0), t.get(1, 0), t.get(0, 0))

    def t_add(x, y):
        if y[0]:
            return (x[0] + y[0], y[1], y[2])
        if y[1]:
            return (x[0], x[1] + y[1], y[2])
        return (x[0], x[1], x[2] + y[2])

    small = [random_ordinal(rng, max_exp=2, max_coeff=4) for _ in range(2000)]
    for a, b in zip(small, small[1:]):
        assert enc(a + b) == t_add(enc(a), enc(b))
        assert (a < b) == (enc(a) < enc(b))
    report(9, "10000 triples: associativity, distributivity, subtraction, "
              "division; positional model agrees below w^3")


def test_criterion_10_primality_table():
    prime = ["aab", "aabab", "ab^w", "a^wb", "(a^wb)^wb"]
    not_prime = ["aba", "abab", "ba^w", "(ab)^w", "a^w"]
    for text in prime:
        assert prime_witness(E(text)) is None, text
    for text in not_prime:
        assert prime_witness(E(text)) is not None, text
    report(10, "primality table of 10 reference words exact")
