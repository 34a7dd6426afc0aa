"""Rational transfinite words, denoted by expressions over letters, concatenation
and w-power.  Every expression denotes a non-empty word of ordinal length
below w^w; distinct expressions may denote the same word (no normalization
is performed beyond flattening nested concatenations)."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
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
        return self.rank(a) < self.rank(b)


DEFAULT_ALPHABET = Alphabet()


class RatExpr:
    """Base of the expression nodes.  Each node's `finite_word` is the string
    it denotes when it contains no w-power, else None; it is not a field, so
    equality, hashing and repr ignore it."""
    __slots__ = ()


@dataclass(frozen=True)
class Letter(RatExpr):
    sym: str

    finite_word = property(attrgetter("sym"))

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Concat(RatExpr):
    parts: tuple[RatExpr, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ExprError("concatenation needs at least two parts")
        if Concat in map(type, self.parts):
            raise ExprError("concatenation parts must be flattened")

    @cached_property
    def finite_word(self) -> str | None:
        # flattened parts: without an w-power, every part is a Letter
        if Omega in map(type, self.parts):
            return None
        return "".join(map(attrgetter("sym"), self.parts))

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Omega(RatExpr):
    body: RatExpr

    finite_word = None

    def __str__(self) -> str:
        return format_expr(self)


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
    w-power, parentheses group."""
    s = text.replace("ω", "w")
    pos = 0

    def error(msg: str):
        raise ExprError(f"{text!r}: {msg} at position {pos}")

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def parse_seq(depth: int) -> RatExpr:
        nonlocal pos
        parts: list[RatExpr] = []
        while True:
            skip_ws()
            if pos >= len(s) or s[pos] == ")":
                break
            if s[pos] == "(":
                pos += 1
                inner = parse_seq(depth + 1)
                skip_ws()
                if pos >= len(s) or s[pos] != ")":
                    error("unclosed parenthesis")
                pos += 1
                parts.append(maybe_power(inner))
            elif s[pos] in alphabet:
                atom: RatExpr = Letter(s[pos])
                pos += 1
                parts.append(maybe_power(atom))
            else:
                error(f"unexpected character {s[pos]!r}")
        if not parts:
            error("empty expression" if depth == 0 else "empty group")
        return concat(parts)

    def maybe_power(atom: RatExpr) -> RatExpr:
        nonlocal pos
        skip_ws()
        if pos < len(s) and s[pos] == "^":
            pos += 1
            skip_ws()
            if pos >= len(s) or s[pos] != "w":
                error("expected w after ^")
            pos += 1
            return Omega(atom)
        return atom

    result = parse_seq(0)
    skip_ws()
    if pos != len(s):
        error(f"trailing input {s[pos]!r}")
    return result


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
