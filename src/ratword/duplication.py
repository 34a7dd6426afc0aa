"""Duplication rewrites e^w into e e^w so that every w-power group in the
compiled automaton is entered after a full linear pass over its body.  The
rewrite preserves the denoted word."""

from __future__ import annotations

from .expr import Letter, Omega, RatExpr, concat


def tau(e: RatExpr) -> RatExpr:
    if isinstance(e, Letter):
        return e
    if isinstance(e, Omega):
        body = tau(e.body)
        return concat([body, Omega(body)])
    return concat([tau(p) for p in e.parts])


def size(e: RatExpr) -> int:
    """Number of tokens: letters count 1, each w-power adds 1."""
    if isinstance(e, Letter):
        return 1
    if isinstance(e, Omega):
        return 1 + size(e.body)
    return sum(size(p) for p in e.parts)


def depth(e: RatExpr) -> int:
    """Nesting depth of w-powers.  Iterative, so any nesting depth answers."""
    deepest = 0
    stack = [(e, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Omega):
            stack.append((node.body, d + 1))
        elif isinstance(node, Letter):
            deepest = max(deepest, d)
        else:
            stack.extend((p, d) for p in node.parts)
    return deepest
