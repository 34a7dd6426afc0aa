import pytest
from hypothesis import given, strategies as st

from ratword.ordinal import (Ordinal, OrdinalError, div_left, format_ordinal,
                             ordinal_sum, sub_left)

W = Ordinal.omega


def fin(n):
    return Ordinal.from_int(n)


# -- independent model: ordinals below w^3 as lexicographic triples ----------
# (c2, c1, c0) stands for w^2*c2 + w*c1 + c0, with arithmetic written out
# case by case rather than via CNF terms.

class Overflow(Exception):
    pass


def t_add(x, y):
    if y[0] > 0:
        return (x[0] + y[0], y[1], y[2])
    if y[1] > 0:
        return (x[0], x[1] + y[1], y[2])
    return (x[0], x[1], x[2] + y[2])


def t_deg(x):
    if x[0]:
        return 2
    if x[1]:
        return 1
    return 0


def t_mul(x, y):
    if x == (0, 0, 0) or y == (0, 0, 0):
        return (0, 0, 0)
    out = (0, 0, 0)
    for exp, coeff in ((2, y[0]), (1, y[1])):
        if coeff:
            d = t_deg(x) + exp
            if d > 2:
                raise Overflow
            out = t_add(out, (coeff, 0, 0) if d == 2 else (0, coeff, 0))
    if y[2]:
        if t_deg(x) == 2:
            scaled = (x[0] * y[2], x[1], x[2])
        elif t_deg(x) == 1:
            scaled = (0, x[1] * y[2], x[2])
        else:
            scaled = (0, 0, x[2] * y[2])
        out = t_add(out, scaled)
    return out


def to_triple(a):
    t = {2: 0, 1: 0, 0: 0}
    for exp, coeff in a.terms:
        assert exp <= 2
        t[exp] = coeff
    return (t[2], t[1], t[0])


def from_triple(t):
    terms = tuple((e, c) for e, c in zip((2, 1, 0), t) if c)
    return Ordinal(terms)


triples = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))

small_ordinals = st.builds(
    lambda pairs: Ordinal(tuple(sorted({e: c for e, c in pairs}.items(), reverse=True))),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 9)), max_size=4))


# -- frozen examples ---------------------------------------------------------

def test_construction_rejects_bad_cnf():
    with pytest.raises(OrdinalError):
        Ordinal(((1, 0),))
    with pytest.raises(OrdinalError):
        Ordinal(((1, 1), (1, 2)))
    with pytest.raises(OrdinalError):
        Ordinal(((0, 1), (1, 1)))


@pytest.mark.parametrize("n", [0, 1, 1600, 10**30])
def test_from_int_matches_the_checked_constructor(n):
    """from_int skips the CNF check on its one term, and its result is the
    same value the validating constructor gives."""
    expected = Ordinal(((0, n),)) if n else Ordinal()
    got = Ordinal.from_int(n)
    assert got == expected and got.terms == expected.terms
    assert hash(got) == hash(expected) and repr(got) == repr(expected)
    assert got.to_int() == n and got.is_finite


# any ordinal below w^6 in Cantor normal form, built by the checked constructor
cnf_ordinals = st.dictionaries(st.integers(0, 5), st.integers(1, 10**12), max_size=4).map(
    lambda terms: Ordinal(tuple(sorted(terms.items(), reverse=True))))


@given(cnf_ordinals, cnf_ordinals)
def test_arithmetic_matches_the_checked_constructor(x, y):
    """+, * and sub_left build their results past the CNF check (and
    div_left from them); each result is the value the validating
    constructor gives for its terms."""
    results = [x + y, x * y, sub_left(min(x, y), max(x, y))]
    if not y.is_zero:
        results += div_left(x, y)
    for got in results:
        expected = Ordinal(got.terms)
        assert type(got) is Ordinal
        assert got == expected and got.terms == expected.terms
        assert hash(got) == hash(expected) and repr(got) == repr(expected)


def test_from_int_rejects_negatives():
    with pytest.raises(OrdinalError):
        Ordinal.from_int(-1)


def test_addition_absorption():
    # (w*2+1)*w + w = w^2 + w
    assert (W(1, 2) + fin(1)) * W() + W() == W(2) + W()
    assert fin(1) + W() == W()
    assert W() + fin(1) == W(1, 1) + fin(1)
    assert fin(2) + fin(3) == fin(5)


def test_multiplication_examples():
    assert fin(2) * W() == W()
    assert W() * fin(2) == W(1, 2)
    assert (W() + fin(1)) * W() == W(2)
    for n in range(1, 5):
        # (w^n + 1) * w + 1 == w^(n+1) + 1
        assert (W(n) + fin(1)) * W() + fin(1) == W(n + 1) + fin(1)
    assert (W(2) + W(1, 3)) * fin(2) == W(2, 2) + W(1, 3)


def test_order_examples():
    assert fin(0) < fin(1) < W() < W() + fin(1) < W(1, 2) < W(2)
    assert not W() < W()


def test_sub_left_examples():
    assert sub_left(fin(3), fin(10)) == fin(7)
    assert sub_left(fin(3), W()) == W()
    assert sub_left(W(), W() + fin(4)) == fin(4)
    assert sub_left(W() + fin(1), W(2)) == W(2)
    with pytest.raises(OrdinalError):
        sub_left(W(), fin(3))


def test_div_left_examples():
    assert div_left(W(2), W() + fin(1)) == (W(), fin(0))
    assert div_left(W(), fin(3)) == (W(), fin(0))
    assert div_left(fin(17), fin(5)) == (fin(3), fin(2))
    assert div_left(W(2, 3) + W() + fin(2), W()) == (W(1, 3) + fin(1), fin(2))
    # (w+2)*2 = w*2+2 exceeds w*2+1, so the quotient steps down once
    assert div_left(W(1, 2) + fin(1), W() + fin(2)) == (fin(1), W() + fin(1))
    with pytest.raises(OrdinalError):
        div_left(W(), fin(0))


def test_format_ordinal():
    for a, text in [(fin(0), "0"), (fin(1), "1"), (W(), "w"), (W(1, 2), "w*2"),
                    (W(2), "w^2"), (W(2, 3) + W() + fin(4), "w^2*3+w+4"),
                    (W(5, 2) + W(2) + fin(1), "w^5*2+w^2+1")]:
        assert format_ordinal(a) == text


# -- properties --------------------------------------------------------------

@given(small_ordinals, small_ordinals, small_ordinals)
def test_associativity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@given(small_ordinals, small_ordinals, small_ordinals)
def test_left_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_ordinals, small_ordinals)
def test_subtraction_inverts_addition(a, b):
    assert sub_left(a, a + b) == b


@given(small_ordinals, small_ordinals)
def test_division_identity(a, b):
    if b.is_zero:
        return
    q, r = div_left(a, b)
    assert b * q + r == a
    assert r < b


@given(small_ordinals, small_ordinals)
def test_additive_monotonicity(a, b):
    assert a <= a + b
    assert (a + b >= b)


@given(triples, triples)
def test_triple_model_add(x, y):
    assert to_triple(from_triple(x) + from_triple(y)) == t_add(x, y)


@given(st.lists(triples, max_size=6))
def test_triple_model_sum(xs):
    """ordinal_sum adds in one pass what the model adds left to right."""
    expected = (0, 0, 0)
    for x in xs:
        expected = t_add(expected, x)
    assert to_triple(ordinal_sum(map(from_triple, xs))) == expected


@given(triples, triples)
def test_triple_model_mul(x, y):
    try:
        expected = t_mul(x, y)
    except Overflow:
        return
    assert to_triple(from_triple(x) * from_triple(y)) == expected


@given(triples, triples)
def test_triple_model_order(x, y):
    assert (from_triple(x) < from_triple(y)) == (x < y)
