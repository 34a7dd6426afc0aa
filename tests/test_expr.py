import copy
import gc
import pickle
import random
import re
import sys
import threading
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import ratword.expr as expr_module
from ratword.automaton import compile_expr, expr_of_range
from ratword.duplication import tau
from ratword.expr import (LETTERS, Concat, ExprError, Letter, Omega, as_finite_word, concat,
                          expr_length, first_letters, format_expr, omega_prefix,
                          parse_expr, power, prefix_to, suffix_from)
from ratword.factorizer import factorize
from ratword.gen import random_expr
from ratword.order import word_equal
from ratword.ordinal import Ordinal, ZERO
from ratword.structural import factorize_structural

from helpers import random_ordinal

W = Ordinal.omega
fin = Ordinal.from_int


def test_parse_format_roundtrip():
    for text in ["a", "ab", "a^w", "(ab)^w", "(a^wb)^wa^w", "aa^wb(aa^wb)^waa^w",
                 "((ab)^wc)^w"]:
        assert format_expr(parse_expr(text)) == text


def test_parse_accepts_unicode_omega_and_spaces():
    assert parse_expr("(a^ω b)^ω a^ω") == parse_expr("(a^wb)^wa^w")


def test_parse_errors():
    for text in ["", "()", "(a", "a)", "a^", "a^b", "a+b", "A"]:
        with pytest.raises(ExprError):
            parse_expr(text)
    with pytest.raises(ExprError, match=r"^'A': unexpected character 'A' at position 0$"):
        parse_expr("A")


def reference_parse_expr(text):
    """parse_expr as written before it read a run of letters in one scan:
    one letter per turn of the loop."""
    def error(msg, pos):
        return ExprError(f"{text!r}: {msg} at position {pos}")

    s = text.replace("ω", "w")
    end = len(s)
    pos = 0
    parts, outer = [], []
    while True:
        while pos < end and s[pos].isspace():
            pos += 1
        if pos < end and s[pos] == "(":
            pos += 1
            outer.append(parts)
            parts = []
            continue
        if pos == end or s[pos] == ")":
            if not parts:
                raise error("empty group" if outer else "empty expression", pos)
            if not outer:
                break
            if pos == end:
                raise error("unclosed parenthesis", pos)
            pos += 1
            atom = concat(parts)
            parts = outer.pop()
        elif s[pos] in LETTERS:
            atom = Letter(s[pos])
            pos += 1
        else:
            raise error(f"unexpected character {s[pos]!r}", pos)
        while pos < end and s[pos].isspace():
            pos += 1
        if pos < end and s[pos] == "^":
            pos += 1
            while pos < end and s[pos].isspace():
                pos += 1
            if pos == end or s[pos] != "w":
                raise error("expected w after ^", pos)
            pos += 1
            atom = Omega(atom)
        parts.append(atom)
    if pos != end:
        raise error(f"trailing input {s[pos]!r}", pos)
    return concat(parts)


def parse_result(parse, text):
    """The repr of what parse makes of text, or the text of its ExprError."""
    try:
        return repr(parse(text))
    except ExprError as err:
        return f"ExprError: {err}"


@settings(max_examples=1000)
@given(st.text("ab()^wω #A", max_size=14))
def test_parse_matches_the_letter_by_letter_parser(text):
    assert parse_result(parse_expr, text) == parse_result(reference_parse_expr, text)


def test_parse_letter_runs_examples():
    """A run of letters is read in one scan; the last letter alone may carry
    ^w, and errors name the same position as the letter-by-letter parser."""
    assert parse_expr("a b ^ w") == concat([Letter("a"), Omega(Letter("b"))])
    assert parse_expr("abc^w") == concat([Letter("a"), Letter("b"), Omega(Letter("c"))])
    for text, message in [("ab)", "trailing input ')' at position 2"),
                          ("ab^", "expected w after ^ at position 3"),
                          ("abA", "unexpected character 'A' at position 2")]:
        with pytest.raises(ExprError, match=re.escape(f"{text!r}: {message}")):
            parse_expr(text)
    rng = random.Random(101)
    words = ["".join(rng.choice("abc") for _ in range(n)) for n in (100, 200, 400, 800, 1600)]
    words += ["a" + "b" * 1600, "ab" * 800, words[-1] + "^w", f"({words[-1]})^w{words[0]}"]
    for text in words:
        assert parse_result(parse_expr, text) == parse_result(reference_parse_expr, text)
    assert format_expr(parse_expr(words[-1])) == words[-1]


def test_w_is_a_plain_letter_outside_powers():
    e = parse_expr("w^w")
    assert e == Omega(Letter("w"))


def test_concat_flattens():
    e = concat([parse_expr("ab"), parse_expr("cd")])
    assert format_expr(e) == "abcd"
    with pytest.raises(ExprError):
        concat([])


def test_concat_builds_what_the_constructor_builds():
    """concat builds its node past Concat's check of the parts: the node is
    the one Concat(...) builds on the flattened parts.  A direct Concat(...)
    call still refuses parts that are not flat, or fewer than two."""
    a, b, c = Letter("a"), Letter("b"), Letter("c")
    ab = Concat((a, b))
    cases = [([ab, c], (a, b, c)), ([c, ab, Omega(ab)], (c, a, b, Omega(ab))),
             (iter([a, ab]), (a, a, b)), ([a, Omega(b)], (a, Omega(b)))]
    for parts, flat in cases:
        e, direct = concat(parts), Concat(flat)
        assert type(e) is Concat and e.parts == flat
        assert e == direct and hash(e) == hash(direct) and repr(e) == repr(direct)
    assert concat([ab]) == ab and concat(iter([c])) is c
    with pytest.raises(ExprError, match="must be flattened"):
        Concat((ab, c))
    with pytest.raises(ExprError, match="at least two parts"):
        Concat((a,))


def test_lengths():
    assert expr_length(parse_expr("abc")) == fin(3)
    assert expr_length(parse_expr("a^w")) == W()
    assert expr_length(parse_expr("(ab)^w")) == W()
    assert expr_length(parse_expr("a^wb")) == W() + fin(1)
    assert expr_length(parse_expr("(a^wb)^wa^w")) == W(2) + W()
    assert expr_length(parse_expr("((ab)^wc)^w")) == W(2)


def test_power():
    a = parse_expr("ab")
    assert format_expr(power(a, fin(3))) == "ababab"
    assert format_expr(power(a, W())) == "(ab)^w"
    assert format_expr(power(a, W(2))) == "((ab)^w)^w"
    assert format_expr(power(a, W() + fin(2))) == "(ab)^wabab"
    assert expr_length(power(a, W(1, 2) + fin(1))) == W(1, 2) + fin(2)
    with pytest.raises(ExprError):
        power(a, ZERO)


def test_letter_at():
    """The letter at a position is the first letter of the suffix there."""
    e = parse_expr("(a^wb)^wa^w")
    for gamma, letter in [(ZERO, "a"), (fin(7), "a"), (W(), "b"), (W() + fin(1), "a"),
                          (W(1, 2), "b"), (W(2), "a")]:
        assert first_letters(suffix_from(e, gamma), 1) == letter
    with pytest.raises(ExprError):
        suffix_from(e, W(3))


def test_prefix_suffix_examples():
    e = parse_expr("(a^wb)^wa^w")
    assert word_equal(prefix_to(e, W() + fin(1)), parse_expr("a^wb"))
    assert word_equal(suffix_from(e, W() + fin(1)), e)
    assert word_equal(suffix_from(e, W(2)), parse_expr("a^w"))
    assert word_equal(prefix_to(e, fin(3)), parse_expr("aaa"))
    with pytest.raises(ExprError):
        prefix_to(e, ZERO)
    with pytest.raises(ExprError):
        suffix_from(e, expr_length(e))


def test_as_finite_word():
    assert as_finite_word(parse_expr("abba")) == "abba"
    assert as_finite_word(parse_expr("ab^wa")) is None


def finite_word_reference(e):
    """The projection by recursive walk: the string e denotes, or None when
    e contains an w-power."""
    if isinstance(e, Letter):
        return e.sym
    if isinstance(e, Omega):
        return None
    out = []
    for p in e.parts:
        w = finite_word_reference(p)
        if w is None:
            return None
        out.append(w)
    return "".join(out)


def derived_exprs(seed):
    """A random expression and the expressions the library derives from it:
    concatenations, tau, powers, prefixes, suffixes, automaton ranges."""
    rng = random.Random(seed)
    e = random_expr(rng, max_size=10, max_depth=2, letters="abc")
    f = random_expr(rng, max_size=8, max_depth=0, letters="abc")  # finite
    alpha = random_ordinal(rng, max_exp=2, max_coeff=3)
    derived = [e, f, concat([e, f]), concat([f, e, f]), concat([f, f]), tau(e),
               power(f, fin(rng.randint(1, 4))), power(e, fin(1) if alpha.is_zero else alpha)]
    total = expr_length(e)
    for gamma in [random_position(rng, total)] + [fin(cut) for cut in range(1, 6)]:
        if not gamma.is_zero and gamma < total:
            derived += [prefix_to(e, gamma), suffix_from(e, gamma)]
    auto = compile_expr(tau(e))
    derived += [expr_of_range(auto, 0, hi) for hi in {1, rng.randint(1, auto.n), auto.n}]
    return derived


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_cached_projection_matches_recursive_walk(seed):
    for x in derived_exprs(seed):
        text, h, r = format_expr(x), hash(x), repr(x)
        assert as_finite_word(x) == finite_word_reference(x)
        assert as_finite_word(x) == finite_word_reference(x)  # a second read
        # the projection is not a field: hash, equality and repr ignore it
        assert hash(x) == h and repr(x) == r
        assert x == parse_expr(text) and hash(parse_expr(text)) == h


FIELDS = {Letter: "sym", Concat: "parts", Omega: "body"}


def subtrees(e):
    yield e
    if isinstance(e, Omega):
        yield from subtrees(e.body)
    elif isinstance(e, Concat):
        for p in e.parts:
            yield from subtrees(p)


def rebuild(e):
    """The tree rebuilt node by node through the constructors, from the
    leaves up."""
    if isinstance(e, Letter):
        return Letter(e.sym)
    if isinstance(e, Omega):
        return Omega(rebuild(e.body))
    return Concat(tuple(rebuild(p) for p in e.parts))


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_node_semantics(seed):
    for root in derived_exprs(seed):
        for x in subtrees(root):
            field = FIELDS[type(x)]
            value = getattr(x, field)
            twin = rebuild(x)
            assert twin == x and x == twin and not twin != x
            assert hash(twin) == hash(x) == hash(x)
            assert rebuild(x) is x
            assert pickle.loads(pickle.dumps(x)) is x
            assert copy.deepcopy(x) is x and copy.copy(x) is x
            assert x != Omega(x) and Omega(x) != x
            if isinstance(x, Letter):
                assert x is Letter(x.sym) is twin
            assert not hasattr(x, "__dict__")
            with pytest.raises(AttributeError):
                setattr(x, field, value)
            with pytest.raises(AttributeError):
                delattr(x, field)
            assert getattr(x, field) is value


def reference_equal(x, y):
    """Structural equality, node by node from an explicit stack: the
    equality that nodes had before they were canonical, with no identity
    shortcut, so it trusts no table."""
    pairs = [(x, y)]
    while pairs:
        x, y = pairs.pop()
        kind = type(x)
        if kind is not type(y):
            return False
        if kind is Letter:
            if x.sym != y.sym:
                return False
        elif kind is Omega:
            pairs.append((x.body, y.body))
        elif len(x.parts) != len(y.parts):
            return False
        else:
            pairs += zip(x.parts, y.parts)
    return True


def mutants(rng, e):
    """e's text with one letter changed, and once with the same letter put
    back, parsed afresh."""
    text = format_expr(e)
    i = rng.choice([i for i, c in enumerate(text) if c in "abcd"])
    return [parse_expr(text[:i] + c + text[i + 1:]) for c in (rng.choice("abcd"), text[i])]


def rebuilds(rng, e):
    """e built again through the library's constructions, each one denoting
    e by the same expression."""
    auto = compile_expr(e)
    out = [parse_expr(format_expr(e)), rebuild(e), concat([e]), power(e, fin(1)),
           expr_of_range(auto, 0, auto.n), suffix_from(e, ZERO), prefix_to(e, expr_length(e))]
    if type(e) is Concat:
        cut = rng.randint(1, len(e.parts) - 1)
        out.append(concat([concat(e.parts[:cut]), concat(e.parts[cut:])]))
    if type(e) is Omega:
        out.append(Omega(rebuild(e.body)))
    return out


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_one_node_per_expression(seed):
    """Two nodes are one object exactly when they are equal expressions, on
    random draws, one-letter mutants and nodes built again through parse,
    concat, power, tau, expr_of_range, prefix_to and suffix_from."""
    rng = random.Random(seed)
    draws = [random_expr(rng, max_size=rng.randint(1, 12), max_depth=rng.randint(0, 3),
                         letters=rng.choice(["ab", "abcd"])) for _ in range(4)]
    pool = list(draws)
    for e in draws:
        pool += mutants(rng, e) + rebuilds(rng, e)
        pool += [power(e, fin(2)), concat([e, e]), power(e, W()), Omega(e), tau(e),
                 tau(parse_expr(format_expr(e)))]
        total = expr_length(e)
        for gamma in {fin(1), fin(2), random_position(rng, total)}:
            if not gamma.is_zero and gamma < total:
                pool += [prefix_to(e, gamma), suffix_from(e, gamma)]
        auto = compile_expr(tau(e))
        pool += [expr_of_range(auto, 0, hi) for hi in {1, rng.randint(1, auto.n), auto.n}]
    for x in pool:
        assert parse_expr(format_expr(x)) is x
        for y in pool:
            assert (x is y) == reference_equal(x, y)
    for e in draws:
        assert all(x is e for x in rebuilds(rng, e))
        assert power(e, fin(2)) is concat([e, e]) and power(e, W()) is Omega(e)


def test_dropped_nodes_are_released():
    """Nothing keeps a node alive but its own references: once the node and
    the caches that held it are gone, every node of it is freed and its
    table entry with it."""
    e = parse_expr("(xy^w(yx)^wz)^wxz(zy)^w(x(yz)^w)^w")
    factorize(e)
    factorize_structural(e)
    refs = [weakref.ref(x) for x in subtrees(e) if type(x) is not Letter]
    assert len(refs) == 12
    del e
    compile_expr.cache_clear()
    expr_length.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    for table in (expr_module._CONCATS, expr_module._OMEGAS):
        assert all(ref() is not None for ref in table.values())


def test_threads_that_build_one_expression_get_one_node():
    """Threads that build and drop the same expressions at once, switching
    every microsecond: a text parsed twice by one thread, while the other
    threads race to build and free its nodes, gives one node both times."""
    rng = random.Random(1)
    texts = [format_expr(random_expr(rng, max_size=12, max_depth=3, letters="ab"))
             for _ in range(60)]
    mismatches = []

    def work():
        for _ in range(40):
            for i, text in enumerate(texts):
                first = parse_expr(text)
                parse_expr(texts[i - 1])
                if parse_expr(text) is not first:
                    mismatches.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_a_late_callback_leaves_a_newer_node_in_place():
    """A node's weakref callback takes its table entry out only while the
    entry's node is dead, so a newer node's entry stays."""
    body = parse_expr("zyx")
    for table, build, key in ((expr_module._OMEGAS, Omega, body),
                              (expr_module._CONCATS, Concat, tuple(map(Letter, "qzq")))):
        old = build(key)
        ref = table[key]
        callback = ref.__callback__
        del old
        gc.collect()
        assert key not in table
        new = build(key)
        assert table[key] is not ref
        callback(ref)     # late: the entry is the newer node's by now
        assert table[key]() is new and build(key) is new


@settings(deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 40))
def test_first_letters_reads_letter_by_letter(seed, n):
    """first_letters(e, n) is the first n letters of e, read one position at
    a time as the first letter of the suffix there; all of e when e is a
    shorter finite word."""
    e = random_expr(random.Random(seed), max_size=10, max_depth=3, letters="abc")
    length = expr_length(e)
    expected = "".join(first_letters(suffix_from(e, fin(i)), 1)
                       for i in range(n) if fin(i) < length)
    assert first_letters(e, n) == expected


def test_first_letters_examples():
    assert first_letters(parse_expr("(ab)^wc"), 5) == "ababa"
    assert first_letters(parse_expr("((a^wb)^w)^w"), 3) == "aaa"
    assert first_letters(parse_expr("abc"), 10) == "abc"
    assert first_letters(parse_expr("a^w"), 0) == ""
    deep = parse_expr("(" * 5000 + "ab" + ")^w" * 5000)
    assert first_letters(deep, 3) == "aba"


def first_letters_by_stack(e, n):
    """The first n letters of e, read by a walk of the tree from an explicit
    stack: the oracle for the w-prefix path of first_letters."""
    out = []
    stack = [e]
    while stack and n > 0:
        node = stack.pop()
        word = node.finite_word
        if word is None:
            if type(node) is not Omega:
                stack.extend(reversed(node.parts))
                continue
            word = node.body.finite_word
            if word is None:
                stack.append(node.body)
                continue
            word *= n // len(word) + 1
        out.append(word[:n])
        n -= len(word)
    return "".join(out)


EXPRS = st.recursive(
    st.sampled_from("abc").map(Letter),
    lambda kids: st.one_of(kids.map(Omega), st.lists(kids, min_size=2, max_size=4).map(concat)),
    max_leaves=20)


@settings(deadline=None, max_examples=300)
@given(EXPRS, st.integers(0, 50))
def test_first_letters_matches_the_stack_walk(e, n):
    expected = first_letters_by_stack(e, n)
    for node in subtrees(e):
        first_letters(node, n)      # fills the memos below e
    assert first_letters(e, n) == expected
    assert first_letters(rebuild(e), n) == expected


def test_omega_prefix_examples():
    for text, prefix in [("a^w", ("", "a")), ("ba(ab)^wc", ("ba", "ab")),
                         ("c((ab)^wb)^w", ("c", "ab")), ("(b(c(a)^w)^w)^w", ("bc", "a")),
                         ("(" * 5000 + "ab" + ")^w" * 5000, ("", "ab"))]:
        e = parse_expr(text)
        assert omega_prefix(e) == omega_prefix(e) == prefix
    nested = parse_expr("(b(c(a)^w)^w)^w")
    omega_prefix(nested)
    # every Omega passed keeps its own answer, as a start in one shared u;
    # the innermost, with a finite body, keeps none
    memos = [x._omega_prefix for x in subtrees(nested) if type(x) is Omega]
    assert memos == [("bc", 0, "a"), ("bc", 1, "a"), None]
    assert memos[0][0] is memos[1][0]
    for finite in (parse_expr("abc"), Letter("a")):
        with pytest.raises(ExprError, match="no w-power"):
            omega_prefix(finite)


@settings(deadline=None)
@given(st.integers(0, 10_000))
def test_omega_prefix_memo_is_not_a_field(seed):
    """Filling the memo leaves equality, hash, repr and pickling as they were."""
    for root in derived_exprs(seed):
        nodes = list(subtrees(root))
        before = [(hash(x), repr(x), pickle.dumps(x)) for x in nodes]
        for x in nodes:
            if as_finite_word(x) is None:
                omega_prefix(x)
        assert [(hash(x), repr(x), pickle.dumps(x)) for x in nodes] == before
        for x in nodes:
            fresh = rebuild(x)
            assert fresh == x and x == fresh and hash(fresh) == hash(x)
            assert pickle.loads(pickle.dumps(x)) == x
            if as_finite_word(x) is None:
                assert omega_prefix(fresh) == omega_prefix(x)


def test_concat_of_letters_builds_the_parsed_word():
    for word in ["a", "ab", "bba", "abcabc"]:
        e = concat(map(Letter, word))
        assert e is parse_expr(word) and repr(e) == repr(parse_expr(word))
        parts = (e,) if len(word) == 1 else e.parts
        assert all(p is Letter(p.sym) for p in parts)


def test_letters_are_shared():
    assert Letter("a") is Letter("a")
    assert parse_expr("ab^wa").parts[0] is parse_expr("a") is Letter("a")
    # the parser reads a run of letters through the table of shared nodes,
    # which holds every letter an expression may be written with
    assert all(expr_module._SHARED[a] is Letter(a) for a in LETTERS)
    e = parse_expr(LETTERS + "(" + LETTERS[::-1] + ")^w" + LETTERS[3:5] + "^w")
    letters = [*e.parts[:26], *e.parts[26].body.parts, e.parts[27], e.parts[28].body]
    assert [p.sym for p in letters] == list(LETTERS + LETTERS[::-1] + LETTERS[3:5])
    assert all(p is Letter(p.sym) for p in letters)


def test_repr_pins_the_tree():
    assert repr(parse_expr("ab^wa")) == \
        "Concat(parts=(Letter(sym='a'), Omega(body=Letter(sym='b')), Letter(sym='a')))"
    assert repr(parse_expr("(a^wb)^wa^w")) == (
        "Concat(parts=(Omega(body=Concat(parts=(Omega(body=Letter(sym='a')), "
        "Letter(sym='b')))), Omega(body=Letter(sym='a'))))")
    assert repr(parse_expr("((ab)^wc)^w")) == (
        "Omega(body=Concat(parts=(Omega(body=Concat(parts=(Letter(sym='a'), "
        "Letter(sym='b')))), Letter(sym='c'))))")


@given(st.integers(0, 10_000))
def test_random_slicing_identity(seed):
    rng = random.Random(seed)
    e = random_expr(rng, max_size=8, max_depth=2, letters="abc")
    total = expr_length(e)
    gamma = random_position(rng, total)
    if gamma.is_zero or gamma >= total:
        return
    # prefix + suffix at any cut reassembles the word
    left = prefix_to(e, gamma)
    right = suffix_from(e, gamma)
    assert expr_length(left) == gamma
    assert word_equal(concat([left, right]), e)
    # the letter at a finite cut n, read without a suffix, is the suffix's first
    if gamma.is_finite:
        assert first_letters(right, 1) == first_letters(e, gamma.to_int() + 1)[-1]


def random_position(rng, total):
    for _ in range(10):
        gamma = random_ordinal(rng, max_exp=3, max_coeff=5)
        if gamma < total:
            return gamma
    return ZERO
