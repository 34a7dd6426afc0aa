"""Random inputs for differential testing and the CLI selftest."""

from __future__ import annotations

import random

from .expr import Letter, Omega, RatExpr, concat


def random_expr(rng: random.Random, max_size: int = 12, max_depth: int = 3,
                letters: str = "ab") -> RatExpr:
    """Random expression with at most max_size tokens and w-nesting depth
    at most max_depth."""

    def go(size: int, depth: int) -> tuple[RatExpr, int]:
        if size <= 1:
            return Letter(rng.choice(letters)), 1
        roll = rng.random()
        if roll < 0.35:
            return Letter(rng.choice(letters)), 1
        if roll < 0.65 and depth > 0:
            body, used = go(size - 1, depth - 1)
            return Omega(body), used + 1
        parts: list[RatExpr] = []
        used = 0
        pieces = rng.randint(2, 4)
        for _ in range(pieces):
            if used >= size:
                break
            sub, n = go((size - used) // max(1, pieces - len(parts)) or 1, depth)
            parts.append(sub)
            used += n
        if len(parts) == 1:
            return parts[0], used
        return concat(parts), used

    expr, _ = go(max_size, max_depth)
    return expr
