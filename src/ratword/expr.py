"""Rational transfinite words, denoted by expressions over letters, concatenation
and w-power.  Every expression denotes a non-empty word of ordinal length
below w^w; distinct expressions may denote the same word (no normalization
is performed beyond flattening nested concatenations)."""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter

from .ordinal import Ordinal, div_left, sub_left, OMEGA, ZERO


class ExprError(ValueError):
    pass


class Alphabet:
    """Finite ordered alphabet of single-character letters."""

    def __init__(self, letters: str = "abcdefghijklmnopqrstuvwxyz"):
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise ExprError("duplicate letters in alphabet")
        self._rank = {a: i for i, a in enumerate(self.letters)}

    def __contains__(self, a: str) -> bool:
        return a in self._rank

    def rank(self, a: str) -> int:
        try:
            return self._rank[a]
        except KeyError:
            raise ExprError(f"letter {a!r} not in alphabet") from None

    def lt(self, a: str, b: str) -> bool:
        rank = self._rank
        try:
            return rank[a] < rank[b]
        except KeyError as missing:
            raise ExprError(f"letter {missing.args[0]!r} not in alphabet") from None


DEFAULT_ALPHABET = Alphabet()


class RatExpr:
    """Base of the expression nodes: immutable, with slots and no instance
    __dict__.  A Concat or Omega node works out its hash on the first
    `hash()`, from its children's stored hashes, and keeps it; a Letter is
    made, and hashed, once per symbol.  Each node's `finite_word` is the
    string it denotes when it contains no w-power, else None; it is worked
    out on every read and kept nowhere, so equality, hashing and repr
    ignore it."""
    __slots__ = ("_hash",)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the one field is the first slot of every node class
        return type(self), (getattr(self, self.__slots__[0]),)

    def __str__(self) -> str:
        return format_expr(self)


_set = object.__setattr__     # fills a slot past the immutability guard
_LETTERS: dict[str, Letter] = {}


class Letter(RatExpr):
    """One shared node per symbol: `Letter("a") is Letter("a")`."""
    __slots__ = ("sym",)

    def __new__(cls, sym: str) -> Letter:
        try:
            return _LETTERS[sym]
        except KeyError:
            node = _LETTERS[sym] = object.__new__(cls)
            _set(node, "sym", sym)
            _set(node, "_hash", hash((sym,)))
            return node

    finite_word = property(attrgetter("sym"))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Letter:
            return NotImplemented
        return self.sym == other.sym

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Letter(sym={self.sym!r})"


class Concat(RatExpr):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[RatExpr, ...]) -> None:
        if len(parts) < 2:
            raise ExprError("concatenation needs at least two parts")
        if Concat in map(type, parts):
            raise ExprError("concatenation parts must be flattened")
        _set(self, "parts", parts)

    @property
    def finite_word(self) -> str | None:
        # flattened parts: without an w-power, every part is a Letter
        if Omega in map(type, self.parts):
            return None
        return "".join(map(attrgetter("sym"), self.parts))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Concat:
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.parts,))
            _set(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Concat(parts={self.parts!r})"


class Omega(RatExpr):
    __slots__ = ("body",)

    def __init__(self, body: RatExpr) -> None:
        _set(self, "body", body)

    finite_word = None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not Omega:
            return NotImplemented
        return self.body == other.body

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.body,))
            _set(self, "_hash", h)
            return h

    def __repr__(self) -> str:
        return f"Omega(body={self.body!r})"


def concat(parts) -> RatExpr:
    """Concatenation that flattens nested Concat nodes; one part passes through."""
    flat: list[RatExpr] = []
    for p in parts:
        if isinstance(p, Concat):
            flat.extend(p.parts)
        else:
            flat.append(p)
    if not flat:
        raise ExprError("empty concatenation")
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


# -- text form ---------------------------------------------------------------

def format_expr(e: RatExpr) -> str:
    if isinstance(e, Letter):
        return e.sym
    if isinstance(e, Omega):
        if isinstance(e.body, Letter):
            return f"{e.body.sym}^w"
        return f"({format_expr(e.body)})^w"
    return "".join(format_expr(p) for p in e.parts)


def parse_expr(text: str, alphabet: Alphabet = DEFAULT_ALPHABET) -> RatExpr:
    """Parse the surface grammar: juxtaposition concatenates, ^w (or ^ω) is
    w-power, parentheses group.  Iterative, so any nesting depth parses."""
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
        elif s[pos] in alphabet:
            atom = Letter(s[pos])
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

@lru_cache(maxsize=65536)
def expr_length(e: RatExpr) -> Ordinal:
    if isinstance(e, Letter):
        return Ordinal.from_int(1)
    if isinstance(e, Omega):
        return expr_length(e.body) * OMEGA
    total = ZERO
    for p in e.parts:
        total = total + expr_length(p)
    return total


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


def _check_position(e: RatExpr, gamma: Ordinal) -> None:
    if gamma >= expr_length(e):
        raise ExprError(f"position {gamma} out of range for {format_expr(e)}")


def letter_at(e: RatExpr, gamma: Ordinal) -> str:
    """Letter at ordinal position gamma (0-based)."""
    _check_position(e, gamma)
    while True:
        if isinstance(e, Letter):
            return e.sym
        if isinstance(e, Omega):
            _, gamma = div_left(gamma, expr_length(e.body))
            e = e.body
            continue
        for p in e.parts:
            size = expr_length(p)
            if gamma < size:
                e = p
                break
            gamma = sub_left(size, gamma)


def prefix_to(e: RatExpr, gamma: Ordinal) -> RatExpr:
    """The prefix of length gamma, 0 < gamma <= |e|."""
    if gamma.is_zero:
        raise ExprError("empty prefix")
    if gamma > expr_length(e):
        raise ExprError(f"prefix length {gamma} exceeds |{format_expr(e)}|")
    return _prefix(e, gamma)


def _prefix(e: RatExpr, gamma: Ordinal) -> RatExpr:
    if isinstance(e, Letter):
        return e
    if isinstance(e, Omega):
        q, r = div_left(gamma, expr_length(e.body))
        parts = [] if q.is_zero else [power(e.body, q)]
        if not r.is_zero:
            parts.append(_prefix(e.body, r))
        return concat(parts)
    out: list[RatExpr] = []
    rest = gamma
    for p in e.parts:
        if rest.is_zero:
            break
        size = expr_length(p)
        if size <= rest:
            out.append(p)
            rest = sub_left(size, rest)
        else:
            out.append(_prefix(p, rest))
            rest = ZERO
    return concat(out)


def suffix_from(e: RatExpr, gamma: Ordinal) -> RatExpr:
    """The suffix starting at position gamma, 0 <= gamma < |e|."""
    _check_position(e, gamma)
    return _suffix(e, gamma)


def _suffix(e: RatExpr, gamma: Ordinal) -> RatExpr:
    if gamma.is_zero:
        return e
    if isinstance(e, Omega):
        _, r = div_left(gamma, expr_length(e.body))
        # u^w = (suffix of u) u^w: the remaining copies absorb the quotient.
        if r.is_zero:
            return e
        return concat([_suffix(e.body, r), e])
    assert isinstance(e, Concat)
    for idx, p in enumerate(e.parts):
        size = expr_length(p)
        if gamma < size:
            return concat([_suffix(p, gamma)] + list(e.parts[idx + 1:]))
        gamma = sub_left(size, gamma)
        if gamma.is_zero:
            return concat(e.parts[idx + 1:])
    raise AssertionError("position out of range")


def as_finite_word(e: RatExpr) -> str | None:
    """The underlying string if e contains no w-power, else None."""
    return e.finite_word


def word_expr(word: str) -> RatExpr:
    """The expression of a non-empty finite word: its shared Letter, or a
    flat Concat of shared Letters, as `concat` and `power` build it."""
    if len(word) == 1:
        return Letter(word)
    return Concat(tuple(map(Letter, word)))


def first_letters(e: RatExpr, n: int) -> str:
    """The first n letters of e, or all of e when it is shorter.  Iterative,
    and reads no further than it must: an w-power's first copy of a body
    containing an w-power is already longer than any n."""
    out: list[str] = []
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
