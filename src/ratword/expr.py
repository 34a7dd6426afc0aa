"""Rational transfinite words, denoted by expressions over letters, concatenation
and w-power.  Every expression denotes a non-empty word of ordinal length
below w^w; distinct expressions may denote the same word (no normalization
is performed beyond flattening nested concatenations)."""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from functools import lru_cache, partial
from operator import attrgetter, indexOf
from typing import Callable

from .ordinal import Ordinal, div_left, ordinal_sum, sub_left, ONE, OMEGA


class ExprError(ValueError):
    pass


# The letters an expression may be written with.  Letters compare as Python
# strings, so their order is the order of this string.
LETTERS = "abcdefghijklmnopqrstuvwxyz"
_LETTER_RUN = re.compile(f"[{LETTERS}]+")


class RatExpr:
    """Base of the expression nodes: immutable, with slots and no instance
    __dict__, and one node per structure: a Letter is shared per symbol, and
    a Concat or Omega is looked up by its children in a weak table before
    one is built (hash-consing), so equal expressions are one object, and
    `==` and `hash` go by identity.  Each node's `finite_word` is the string
    it denotes when it contains no w-power, else None; it is worked out on
    every read and kept nowhere."""
    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the one field is the first slot of every node class
        return type(self), (getattr(self, self.__slots__[0]),)

    def __str__(self) -> str:
        return format_expr(self)


_SHARED: dict[str, Letter] = {}


class Letter(RatExpr):
    """One shared node per symbol: `Letter("a") is Letter("a")`."""
    __slots__ = ("sym",)

    def __new__(cls, sym: str) -> Letter:
        try:
            return _SHARED[sym]
        except KeyError:
            node = _SHARED[sym] = object.__new__(cls)
            _set_sym(node, sym)
            return node

    finite_word = property(attrgetter("sym"))

    def __repr__(self) -> str:
        return f"Letter(sym={self.sym!r})"


class Concat(RatExpr):
    __slots__ = ("parts",)

    def __new__(cls, parts: tuple[RatExpr, ...]) -> Concat:
        if len(parts) < 2:
            raise ExprError("concatenation needs at least two parts")
        if Concat in map(type, parts):
            raise ExprError("concatenation parts must be flattened")
        return _canonical(_CONCATS, parts, Concat, _set_parts)

    @property
    def finite_word(self) -> str | None:
        # flattened parts: without an w-power, every part is a Letter
        if Omega in map(type, self.parts):
            return None
        return "".join(map(attrgetter("sym"), self.parts))

    def __repr__(self) -> str:
        return f"Concat(parts={self.parts!r})"


class Omega(RatExpr):
    """An w-power.  Its second slot keeps what `omega_prefix` found for it,
    as (u, start, p) for the prefix u[start:] p^w: a memo and not a field,
    which repr and pickling ignore.  Every use of the node shares it."""
    __slots__ = ("body", "_omega_prefix")

    def __new__(cls, body: RatExpr) -> Omega:
        return _canonical(_OMEGAS, body, Omega, _set_body_and_memo)

    finite_word = None

    def __repr__(self) -> str:
        return f"Omega(body={self.body!r})"


# Each fills one slot past the immutability guard; a slot's own setter costs
# about a quarter of object.__setattr__, and every node is made through them.
_set_sym, _set_parts = Letter.sym.__set__, Concat.parts.__set__
_set_body, _set_omega_prefix = Omega.body.__set__, Omega._omega_prefix.__set__

# the shared node of each letter an expression may be written with, which
# `parse_expr` reads from the table
for _sym in LETTERS:
    Letter(_sym)
del _sym


def _set_body_and_memo(node: Omega, body: RatExpr) -> None:
    _set_body(node, body)
    _set_omega_prefix(node, None)


# The live Concat of each parts tuple and Omega of each body, by a weak
# reference whose callback takes the entry out when the node goes.  Keys
# hash and compare in C, so each dict call below is atomic, and threads that
# build one node at once all get the one that entered the table first.
_CONCATS: dict[tuple[RatExpr, ...], weakref.ref] = {}
_OMEGAS: dict[RatExpr, weakref.ref] = {}


def _forget(table: dict, key, ref: weakref.ref, remove=_remove_dead_weakref) -> None:
    """A node's callback: take its entry out while the entry's node is dead,
    so a late callback never evicts a newer node (the atomic removal that
    weakref.WeakValueDictionary uses).  `remove` is bound here, since
    callbacks may run at exit, after the module's names are cleared."""
    remove(table, key)


def _canonical(table: dict, key, cls: type, fill: Callable) -> RatExpr:
    """The live node of cls for key in table, else a new one filled from key."""
    while True:
        ref = table.get(key)
        if ref is None:
            node = object.__new__(cls)
            fill(node, key)
            ref = table.setdefault(key, weakref.ref(node, partial(_forget, table, key)))
        node = ref()
        if node is not None:
            return node
        _remove_dead_weakref(table, key)    # its callback has yet to run


def concat(parts) -> RatExpr:
    """Concatenation that flattens nested Concat nodes; one part passes through.
    The parts are flat once flattened, so the node is looked up past Concat's
    check of them."""
    parts = tuple(parts)
    if Concat in map(type, parts):
        # a Concat's parts are copied as one slice, not part by part
        flat: list[RatExpr] = []
        for p in parts:
            if type(p) is Concat:
                flat += p.parts
            else:
                flat.append(p)
        parts = tuple(flat)
    if len(parts) < 2:
        if not parts:
            raise ExprError("empty concatenation")
        return parts[0]
    return _canonical(_CONCATS, parts, Concat, _set_parts)


# -- walks ------------------------------------------------------------------

def fold(e: RatExpr, visit: Callable[[RatExpr, list], object]):
    """visit(e, kids), where kids holds the results of the same fold over
    e's children: a Concat's parts in order, an Omega's body, none for a
    Letter.  Post-order from an explicit stack, so any nesting depth
    answers; each node is visited once (equal subexpressions are one node),
    so a shared sub-DAG costs one visit."""
    done: dict[RatExpr, object] = {}
    result = done.__getitem__
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is tuple:
            # (node, kids) lies under node's children, which are done by now
            node, kids = node
            done[node] = visit(node, [*map(result, kids)])
        elif node not in done:
            if kind is Letter:
                done[node] = visit(node, [])
            else:
                kids = node.parts if kind is Concat else (node.body,)
                stack.append((node, kids))
                for kid in reversed(kids):
                    # a Letter is visited here, once, rather than stacked
                    if type(kid) is not Letter:
                        stack.append(kid)
                    elif kid not in done:
                        done[kid] = visit(kid, [])
    return done[e]


def format_expr(e: RatExpr) -> str:
    """The text form of e.  It spells every copy of a shared node, so it is
    written left to right from an explicit stack, with no memo."""
    out: list[str] = []
    stack: list = [e]
    while stack:
        node = stack.pop()
        if type(node) is Letter:
            out.append(node.sym)
        elif type(node) is Concat:
            stack.extend(reversed(node.parts))
        elif type(node) is str:
            out.append(node)
        elif type(node.body) is Letter:
            out.append(node.body.sym + "^w")
        else:
            stack += (")^w", node.body, "(")
    return "".join(out)


def parse_expr(text: str) -> RatExpr:
    """Parse the surface grammar: juxtaposition concatenates, ^w (or ^ω) is
    w-power, parentheses group.  Iterative, so any nesting depth parses; a
    run of letters is read with one match of `_LETTER_RUN` and mapped
    through the table of shared Letter nodes."""
    s = text.replace("ω", "w")
    end = len(s)
    pos = 0
    parts: list[RatExpr] = []           # of the innermost open group
    outer: list[list[RatExpr]] = []     # of the groups around it
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
                raise _parse_error(text, "empty group" if outer else "empty expression", pos)
            if not outer:
                break
            if pos == end:
                raise _parse_error(text, "unclosed parenthesis", pos)
            pos += 1
            atom = concat(parts)
            parts = outer.pop()
        elif s[pos] in LETTERS:
            if pos + 1 < end and s[pos + 1] in LETTERS:
                # a run of letters: all but the last are parts as they
                # stand, and the last may carry ^w
                last = _LETTER_RUN.match(s, pos).end() - 1
                parts += map(_SHARED.__getitem__, s[pos:last])
                pos = last
            atom = _SHARED[s[pos]]
            pos += 1
        else:
            raise _parse_error(text, f"unexpected character {s[pos]!r}", pos)
        while pos < end and s[pos].isspace():
            pos += 1
        if pos < end and s[pos] == "^":
            pos += 1
            while pos < end and s[pos].isspace():
                pos += 1
            if pos == end or s[pos] != "w":
                raise _parse_error(text, "expected w after ^", pos)
            pos += 1
            atom = Omega(atom)
        parts.append(atom)
    if pos != end:
        raise _parse_error(text, f"trailing input {s[pos]!r}", pos)
    return concat(parts)


def _parse_error(text: str, msg: str, pos: int) -> ExprError:
    return ExprError(f"{text!r}: {msg} at position {pos}")


# -- length and positional operations ---------------------------------------

def _length(node: RatExpr, kids: list[Ordinal]) -> Ordinal:
    kind = type(node)
    return ONE if kind is Letter else kids[0] * OMEGA if kind is Omega else ordinal_sum(kids)


@lru_cache(maxsize=65536)
def expr_length(e: RatExpr) -> Ordinal:
    """The ordinal length of e; a miss is one fold."""
    return fold(e, _length)


def power(e: RatExpr, alpha: Ordinal) -> RatExpr:
    """e repeated alpha times, alpha >= 1.  Uses e^(b+g) = e^b e^g and
    e^(w^k) = k nested w-powers."""
    if alpha.is_zero:
        raise ExprError("power exponent must be >= 1")
    parts: list[RatExpr] = []
    for exp, coeff in alpha.terms:
        base = e
        for _ in range(exp):
            base = Omega(base)
        parts.extend([base] * coeff)
    return concat(parts)


def split_at(e: RatExpr, gamma: Ordinal) -> tuple[list[RatExpr], list[RatExpr]]:
    """The parts of e before position gamma and the parts from it on, for
    0 <= gamma <= |e|: read down the one part that the cut falls inside,
    where at each level the parts before that part join the prefix and the
    parts after it the suffix.  One fold of e gives every length read."""
    lengths: dict[RatExpr, Ordinal] = {}

    def measure(node: RatExpr, kids: list[Ordinal]) -> Ordinal:
        lengths[node] = length = _length(node, kids)
        return length

    length = fold(e, measure)
    if gamma >= length:
        if gamma == length:
            return [e], []
        raise ExprError(f"position {gamma} out of range for {format_expr(e)}")
    before: list[RatExpr] = []
    tails: list[tuple[RatExpr, ...]] = []
    while not gamma.is_zero:
        if type(e) is Omega:
            # u^w = u^q (suffix of u) u^w, so the cut falls inside a copy of
            # u, or before the copies that follow the first q
            q, gamma = div_left(gamma, lengths[e.body])
            if not q.is_zero:
                before.append(power(e.body, q))
            if not gamma.is_zero:
                tails.append((e,))
                e = e.body
        else:
            parts, idx = e.parts, 0
            while lengths[parts[idx]] <= gamma:
                gamma = sub_left(lengths[parts[idx]], gamma)
                idx += 1
            before += parts[:idx]
            tails.append(parts[idx + 1:])
            e = parts[idx]
    return before, [e] + [p for tail in reversed(tails) for p in tail]


def prefix_to(e: RatExpr, gamma: Ordinal) -> RatExpr:
    """The prefix of length gamma, 0 < gamma <= |e|."""
    if gamma.is_zero:
        raise ExprError("empty prefix")
    return concat(split_at(e, gamma)[0])


def suffix_from(e: RatExpr, gamma: Ordinal) -> RatExpr:
    """The suffix starting at position gamma, 0 <= gamma < |e|."""
    after = split_at(e, gamma)[1]
    if not after:
        raise ExprError(f"position {gamma} out of range for {format_expr(e)}")
    return concat(after)


def as_finite_word(e: RatExpr) -> str | None:
    """The underlying string if e contains no w-power, else None."""
    return e.finite_word


def omega_prefix(e: RatExpr) -> tuple[str, str]:
    """(u, p) with u p^w the first w letters of e, for e containing an
    w-power.  A loop down the left spine: the letters before a Concat's
    first w-power join u, and the first w-power with a finite body gives p.
    Every Omega passed on the way there keeps its own answer, so a later
    call stops at the first Omega it meets; an Omega with a finite body
    keeps none, since it answers at once."""
    read: list[str] = []        # the letters before node
    passed: list[tuple[Omega, int]] = []     # each with len(read) there
    node = e
    while True:
        if type(node) is Concat:
            try:
                i = indexOf(map(type, node.parts), Omega)
            except ValueError:
                raise ExprError(f"{format_expr(e)} has no w-power") from None
            read += map(attrgetter("sym"), node.parts[:i])
            node = node.parts[i]
        elif type(node) is not Omega:
            raise ExprError(f"{format_expr(e)} has no w-power")
        elif node._omega_prefix is not None:
            u, start, p = node._omega_prefix
            u = u[start:]
            break
        else:
            u, p = "", node.body.finite_word
            if p is not None:
                break
            passed.append((node, len(read)))
            node = node.body
    u = "".join(read) + u
    for node, start in passed:
        # an Omega's u is u[start:]; sharing u keeps a deep spine linear
        _set_omega_prefix(node, (u, start, p))
    return u, p


def left_spine(e: RatExpr):
    """e and the nodes below it on its left spine: from a Concat its first
    part, from an Omega its body, down to a Letter.  Each is a prefix of e,
    and each one below e is a proper prefix, so strictly shorter."""
    node = e
    while True:
        yield node
        kind = type(node)
        if kind is Concat:
            node = node.parts[0]
        elif kind is Omega:
            node = node.body
        else:
            return


def first_letters(e: RatExpr, n: int) -> str:
    """The first n letters of e, or all of e when it is shorter: a slice of
    the string of a finite e, else of e's w-prefix u p^w."""
    word = e.finite_word
    if word is None:
        u, p = omega_prefix(e)
        word = u + p * (n // len(p) + 1)
    return word[:n]
