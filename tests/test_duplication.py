import random

import pytest
from hypothesis import given, strategies as st

from ratword.duplication import TokenBudgetError, depth, size, tau
from ratword.expr import Concat, Letter, Omega, format_expr, parse_expr
from ratword.gen import random_expr
from ratword.order import word_equal


def test_tau_examples():
    assert format_expr(tau(parse_expr("(ab)^w"))) == "ab(ab)^w"
    assert format_expr(tau(parse_expr("(a^wb)^wa^w"))) == "aa^wb(aa^wb)^waa^w"
    assert format_expr(tau(parse_expr("a"))) == "a"
    assert format_expr(tau(parse_expr("(bba)^w"))) == "bba(bba)^w"


def test_size_and_depth():
    e = parse_expr("(a^wb)^wa^w")
    assert size(e) == 6
    assert depth(e) == 2
    assert size(tau(e)) == 12
    assert depth(tau(e)) == 2


def test_nested_power_family_sizes():
    # e_0 = a, e_{n+1} = e_n^w: duplicated size obeys t_{n+1} = 2 t_n + 1,
    # so |tau(e_n)| = 2^(n+1) - 1
    e = parse_expr("a")
    expected = 1
    for n in range(11):
        assert size(tau(e)) == expected == 2 ** (n + 1) - 1
        e = Omega(e)
        expected = 2 * expected + 1


@given(st.integers(0, 10_000))
def test_duplication_bound_and_meaning(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
    assert size(tau(e)) <= 2 ** depth(e) * size(e)
    assert depth(tau(e)) == depth(e)


@given(st.integers(0, 2_000))
def test_tau_preserves_word(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_size=7, max_depth=2, letters="ab")
    assert word_equal(tau(e), e)


def test_tau_passes_an_omega_free_word_through(monkeypatch):
    """An w-free word is its own duplicate: tau returns the node itself, up
    to TAU_TOKENS letters, and refuses one letter more, as the fold does.
    It tells such a word by the types of its parts, without spelling it."""
    monkeypatch.setattr(Concat, "finite_word", property(lambda e: pytest.fail("spelled")))
    rng = random.Random(3)
    words = [random_expr(rng, max_size=12, max_depth=0, letters="abc") for _ in range(200)]
    for e in words + [Letter("a")]:
        assert tau(e) is e
    e = parse_expr("ab" * 2 ** 17)
    assert tau(e) is e
    with pytest.raises(TokenBudgetError, match="exceeds 262144 tokens"):
        tau(parse_expr("ab" * 2 ** 17 + "a"))
