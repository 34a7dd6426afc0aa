"""State-marking factorizer: frozen worked examples and invariants."""

import functools
import random

import pytest

from ratword import factorizer, runner
from ratword import (
    compile_expr,
    extract_factorization,
    factorize,
    factorize_structural,
    marked_expression,
    parse_expr,
    word_equal,
)
from ratword.automaton import AutomatonError
from ratword.duplication import tau
from ratword.factorizer import FactorizeError, factorize_states
from ratword.gen import random_expr


def run(text, keep_log=False):
    return factorize(parse_expr(text), keep_log=keep_log)


def test_worked_example_states():
    fact, state, dup = run("(a^wb)^wa^w")
    assert state.automaton.n == 12  # 13 states
    assert state.q_main == {0, 9, 12}
    assert state.q_secondary == {4, 8, 10, 11}
    assert str(fact) == "(aa^wb)^[w] * a^[w]"
    assert word_equal(fact.reconstruct(), parse_expr("(a^wb)^wa^w"))


def test_worked_example_trace():
    _, state, _ = run("(a^wb)^wa^w", keep_log=True)
    expected = [
        ("init", ((1, 0),)),
        ("1a", ((1, 0), (2, 1))),
        ("1c", ((1, 0), (2, 1), (3, 1))),
        ("2a", ((4, 0),)),
        ("1a", ((4, 0), (5, 1))),
        ("1a", ((4, 0), (5, 1), (6, 2))),
        ("1b", ((4, 0), (5, 1), (6, 2), (7, 3))),
        ("1a", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4))),
        ("1c", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4))),
        ("1a", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1))),
        ("1a", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2))),
        ("1b", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2),
                (12, 3))),
        ("3", ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (9, 4), (10, 1), (11, 2),
               (12, 3))),
        ("init", ((10, 9),)),
        ("1a", ((10, 9), (11, 10))),
        ("1c", ((10, 9), (11, 10), (12, 10))),
        ("3", ((10, 9), (11, 10), (12, 10))),
    ]
    assert [(r.case, r.history) for r in state.log] == expected


def test_bba_omega():
    fact, state, dup = run("(bba)^w")
    assert state.automaton.n == 7  # 8 states
    assert state.q_main == {0, 2, 7}
    assert state.q_secondary == {1, 5}
    assert str(fact) == "b^[2] * (abb)^[w]"
    assert marked_expression(dup, state.q_main, state.q_secondary) == \
        "||b|b||a(bb|a)^w||"


def test_single_letter():
    fact, state, _ = run("a")
    assert str(fact) == "a^[1]"
    assert state.q_main == {0, 1}


def test_finite_words():
    assert str(run("abab")[0]) == "(ab)^[2]"
    assert str(run("aabab")[0]) == "(aabab)^[1]"
    assert str(run("bba")[0]) == "b^[2] * a^[1]"
    assert str(run("abaab")[0]) == "(ab)^[1] * (aab)^[1]"


def test_marked_worked_example():
    _, state, dup = run("(a^wb)^wa^w")
    assert marked_expression(dup, state.q_main, state.q_secondary) == \
        "||aa^wb(|aa^wb)|^w||a|a|^w||"


def test_step_budget_cubic():
    rng = random.Random(7)
    for _ in range(100):
        e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        _, state, _ = factorize(e)
        assert state.steps <= state.automaton.n ** 3


def test_main_cut_inside_a_loop_is_refused():
    """A main cut must lie outside every loop, as the sharp on it requires.
    On the automaton of (ba)^w, not duplicated, the first candidate reads a
    against b and cuts at state 1, inside the loop, with no product run:
    the cut itself refuses it."""
    with pytest.raises(AutomatonError, match="state 1 lies inside a loop"):
        factorize_states(compile_expr(parse_expr("(ba)^w")))


def test_extract_requires_exact_division():
    auto = compile_expr(parse_expr("aba"))
    with pytest.raises((FactorizeError, AssertionError)):
        # claiming prime ab for the whole of aba leaves remainder a
        extract_factorization(auto, {0, 3}, {2})


def test_reconstruction_random():
    rng = random.Random(11)
    for _ in range(200):
        e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        fact, _, _ = factorize(e)
        assert word_equal(fact.reconstruct(), e)
        assert fact == factorize_structural(e) or all(
            word_equal(p1, p2) and a1 == a2
            for (p1, a1), (p2, a2) in zip(fact.blocks,
                                          factorize_structural(e).blocks))


def test_depth_16_tower_marks_on_few_trace_items(monkeypatch):
    """Cost law of the marking run on the depth-16 tower
    ((...((ac)^wa)^wb...)^wc)^wa, n = 262,142: 262,210 steps, counted from
    the stretches' lengths with no stretch written out, while no run's
    trace holds more than 128 items, each diagonal stretch being one."""
    items = []

    def counting(left, right, trace):
        stop = runner.sync_step(left, right, trace)
        items.append(len(trace._lefts))
        return stop

    def written(trace, states):
        raise AssertionError("the marking run wrote a stretch out")

    monkeypatch.setattr(factorizer, "sync_step", counting)
    monkeypatch.setattr(runner.Trace, "_written", written)
    text = functools.reduce(lambda t, c: f"({t})^w{c}", "abcabcabcabcabca", "ac")
    auto = compile_expr(tau(parse_expr(text)))
    state = factorize_states(auto)
    assert (auto.n, state.steps) == (262_142, 262_210)
    assert max(items) <= 128
    compile_expr.cache_clear()
