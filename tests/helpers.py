"""Test-only inputs and oracles: random finite words and ordinals, the
brute-force factorization of a finite word, and the token-by-token compiler
with absolute targets."""

from __future__ import annotations

import random

from ratword.automaton import COPY_MIN, SingleWordAutomaton
from ratword.expr import Concat, Letter, Omega, concat, fold
from ratword.oracles import is_prime_finite
from ratword.ordinal import Ordinal


def random_finite_word(rng: random.Random, max_len: int, letters: str = "ab") -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(1, max_len)))


def letter_run(rng: random.Random, letters: str = "ab") -> list[Letter]:
    """COPY_MIN to 2 * COPY_MIN drawn letters: a run that `compile_expr`
    and `expr_of_range` take in one slice."""
    return [Letter(rng.choice(letters)) for _ in range(rng.randint(COPY_MIN, 2 * COPY_MIN))]


def with_letter_runs(rng: random.Random, e, letters: str = "ab"):
    """e with a letter run in front of the whole word and of each w-power's
    body, and each letter replaced by one, one time in two: runs outside
    and inside w-bodies, and, in a body that holds no w-power, a Concat of
    letters alone."""

    def visit(node, kids):
        if type(node) is Letter:
            return concat(letter_run(rng, letters)) if rng.random() < 0.5 else node
        if type(node) is Omega:
            return Omega(concat(letter_run(rng, letters) + kids))
        return concat(kids)

    return concat(letter_run(rng, letters) + [fold(e, visit)])


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


def reference_compile(e):
    """compile_expr as first written: one iterative walk that emits one
    token at a time, with absolute targets.  Returns succ, with succ[s] =
    (letter, target) for s in 0..n-1, the token nodes, and the back edges
    hi -> lo as loop_tops and loop_lows, by increasing hi."""
    succ, nodes = [], []
    stack = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Letter:
            nodes.append(node)
            succ.append((node.sym, len(nodes)))
        elif kind is Concat:
            stack.extend(reversed(node.parts))
        elif kind is Omega:
            stack.append((node, len(nodes)))    # its w-token, once the body is out
            stack.append(node.body)
        else:
            node, start = node
            nodes.append(node)
            # back to just after the body's first token, a letter
            succ.append((succ[start][0], start + 1))
    tops = [s for s, (_, target) in enumerate(succ) if target <= s]
    return succ, nodes, tops, [succ[s][1] for s in tops]


def targets(auto):
    """The transitions of a compiled automaton with absolute targets:
    (letter, s + d) for the step (letter, d) leaving each state s < n."""
    return [(a, s + d) for s, (a, d) in enumerate(auto.table[:auto.n])]


def hand_built(succ):
    """The automaton with the transitions s -letter-> target given in succ,
    its back edges read off them, and no nodes: it is compiled from no
    expression."""
    tops = [s for s, (_, target) in enumerate(succ) if target <= s]
    return SingleWordAutomaton([(a, target - s) for s, (a, target) in enumerate(succ)], (),
                               tops, [succ[s][1] for s in tops])
