"""Exact arithmetic for countable ordinals below w^w, kept in Cantor normal form.

An ordinal is a finite sum  w^k1*c1 + ... + w^km*cm  with k1 > ... > km >= 0
and all ci >= 1.  Exponents are machine ints (word lengths never reach w^w);
coefficients are arbitrary-precision ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering


class OrdinalError(ArithmeticError):
    pass


_new, _set = object.__new__, object.__setattr__    # build past __init__'s check


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: tuple of (exponent, coefficient) terms.

    The empty tuple is 0.  Construction validates canonicity, so equal
    ordinals always carry identical term tuples.  from_int, whose one term
    is canonical for any n > 0, and the arithmetic, whose results are
    canonical whenever its operands are, build past the check.
    """

    terms: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if exp < 0 or coeff < 1:
                raise OrdinalError(f"invalid CNF term ({exp}, {coeff})")
            if prev is not None and exp >= prev:
                raise OrdinalError("CNF exponents must strictly decrease")
            prev = exp

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise OrdinalError("ordinals are non-negative")
        return _cnf(((0, n),) if n else ())

    @staticmethod
    def omega(exp: int = 1, coeff: int = 1) -> "Ordinal":
        """w^exp * coeff (exp may be 0, giving the finite ordinal coeff)."""
        if coeff == 0:
            return Ordinal()
        return Ordinal(((exp, coeff),))

    # -- basic predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_finite(self) -> bool:
        return not self.terms or self.terms[0][0] == 0

    def to_int(self) -> int:
        if not self.is_finite:
            raise OrdinalError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    # -- order -------------------------------------------------------------

    def __lt__(self, other: "Ordinal") -> bool:
        # Term tuples ordered lexicographically realize the ordinal order:
        # higher exponent wins, then coefficient, and a proper prefix is smaller.
        return self.terms < other.terms

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Ordinal") -> "Ordinal":
        return ordinal_sum((self, other))

    def __mul__(self, other: "Ordinal") -> "Ordinal":
        if not self.terms or not other.terms:
            return ZERO
        lead_exp, lead_coeff = self.terms[0]
        out = ZERO
        for exp, coeff in other.terms:
            if exp == 0:
                part = _cnf(((lead_exp, lead_coeff * coeff),) + self.terms[1:])
            else:
                part = _cnf(((lead_exp + exp, coeff),))
            out = out + part
        return out

    def __str__(self) -> str:
        return format_ordinal(self)


def _cnf(terms: tuple[tuple[int, int], ...]) -> Ordinal:
    """The ordinal of terms already in Cantor normal form, unchecked."""
    if not terms:
        return ZERO
    a = _new(Ordinal)
    _set(a, "terms", terms)
    return a


def ordinal_sum(items) -> Ordinal:
    """items[0] + items[1] + ... in one pass, with no Ordinal made on the way:
    each item drops the trailing terms of the sum so far whose exponent is
    below its lead's, and its lead absorbs a term of the same exponent."""
    terms: list[tuple[int, int]] = []
    for item in items:
        if not item.terms:
            continue
        lead, coeff = item.terms[0]
        while terms and terms[-1][0] < lead:
            terms.pop()
        if terms and terms[-1][0] == lead:
            coeff += terms.pop()[1]
        terms.append((lead, coeff))
        terms += item.terms[1:]
    return _cnf(tuple(terms))


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega()


def sub_left(gamma: Ordinal, gamma_prime: Ordinal) -> Ordinal:
    """The unique delta with gamma + delta = gamma_prime; requires gamma <= gamma_prime."""
    a, b = gamma.terms, gamma_prime.terms
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    if i == len(a):
        return _cnf(b[i:])
    if i == len(b):
        raise OrdinalError(f"underflow: {gamma} > {gamma_prime}")
    (e, c), (e2, c2) = a[i], b[i]
    if e < e2:
        return _cnf(b[i:])
    if e == e2 and c < c2:
        return _cnf(((e, c2 - c),) + b[i + 1:])
    raise OrdinalError(f"underflow: {gamma} > {gamma_prime}")


def div_left(lam: Ordinal, mu: Ordinal) -> tuple[Ordinal, Ordinal]:
    """Quotient and remainder: lam = mu * alpha + rho with rho < mu.  With
    w^m*c leading mu, mu * w^k = w^(m+k) for k >= 1, so the terms of lam
    above w^m divide exactly.  The rest takes mu d times, d = cl // c for
    its term w^m*cl, once fewer when c * d = cl and mu's tail is larger."""
    if mu.is_zero:
        raise OrdinalError("division by zero")
    m, c = mu.terms[0]
    high = tuple((l - m, cl) for l, cl in lam.terms if l > m)
    low = lam.terms[len(high):]
    d = low[0][1] // c if low and low[0][0] == m else 0
    if d and c * d == low[0][1] and mu.terms[1:] > low[1:]:
        d -= 1
    if not d:
        return _cnf(high), _cnf(low)
    return _cnf(high + ((0, d),)), sub_left(_cnf(((m, c * d),) + mu.terms[1:]), _cnf(low))


# -- text form ---------------------------------------------------------------

def format_ordinal(a: Ordinal) -> str:
    if a.is_zero:
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp == 0:
            parts.append(str(coeff))
        else:
            head = "w" if exp == 1 else f"w^{exp}"
            parts.append(head if coeff == 1 else f"{head}*{coeff}")
    return "+".join(parts)
