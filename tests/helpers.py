"""Test-only inputs and oracles: random finite words and ordinals, and the
brute-force factorization of a finite word."""

from __future__ import annotations

import random

from ratword.oracles import is_prime_finite
from ratword.ordinal import Ordinal


def random_finite_word(rng: random.Random, max_len: int, letters: str = "ab") -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))


def random_ordinal(rng: random.Random, max_exp: int = 3, max_coeff: int = 5) -> Ordinal:
    terms = []
    for exp in range(rng.randint(0, max_exp), -1, -1):
        if rng.random() < 0.5:
            terms.append((exp, rng.randint(1, max_coeff)))
    return Ordinal(tuple(terms))


def brute_force_factorize(word: str) -> list[str]:
    """Search all decompositions into non-increasing primes and insist there
    is exactly one.  Exponential; keep the input short."""
    n = len(word)
    prime = [[False] * (n + 1) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n + 1):
            prime[i][j] = is_prime_finite(word[i:j])

    solutions: list[list[str]] = []

    def search(i: int, acc: list[str]) -> None:
        if i == n:
            solutions.append(list(acc))
            return
        for j in range(i + 1, n + 1):
            piece = word[i:j]
            if prime[i][j] and (not acc or acc[-1] >= piece):
                acc.append(piece)
                search(j, acc)
                acc.pop()

    search(0, [])
    if len(solutions) != 1:
        raise AssertionError(
            f"{word!r} has {len(solutions)} non-increasing prime decompositions")
    return solutions[0]
