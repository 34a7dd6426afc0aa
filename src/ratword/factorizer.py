"""Prime factorization of rational words by marking automaton states.

The driver runs the duplicated expression's automaton against the sharp
closure of one of its own factors, Duval-style.  Each step compares the
letter leaving the main state k with the letter leaving the candidate state
k' and either extends the history of pairs (equal letters), restarts with a
longer candidate prefix (k reads the larger letter), or closes a block of
prime copies (k reads the smaller letter, or the word ends).  Main cuts end
up in q_main, boundaries between copies of one prime in q_secondary.

The equal-letter steps (1a, and the loop closures 1b/1c) of one candidate
are one product run: a single `sync_step` call per candidate, the start
and each 2a/2b/3 restart, runs them to the step that decides.  With
keep_log the records of those steps are rebuilt from the finished trace."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .automaton import (SharpAutomaton, SingleWordAutomaton, compile_expr,
                        expr_of_range, render_tokens)
from .duplication import tau
from .expr import (Alphabet, DEFAULT_ALPHABET, Letter, RatExpr, concat,
                   expr_length, format_expr, power)
from .order import word_equal
from .ordinal import ONE, Ordinal, div_left, format_ordinal
from .runner import Diverged, RightEnded, Trace, sync_step


class FactorizeError(RuntimeError):
    pass


@dataclass
class StepRecord:
    case: str                       # 1a, 1b, 1c, 2a, 2b, 3
    history: tuple[tuple[int, int], ...]


@dataclass
class FactorizerState:
    automaton: SingleWordAutomaton
    q_main: set[int]
    q_secondary: set[int]
    steps: int
    log: list[StepRecord] = field(default_factory=list)


@dataclass(frozen=True)
class Factorization:
    """Prime powers in strictly decreasing prime order; the product of the
    blocks denotes the factorized word."""

    blocks: tuple[tuple[RatExpr, Ordinal], ...]

    def reconstruct(self) -> RatExpr:
        return concat([power(p, a) for p, a in self.blocks])

    def same_as(self, other: Factorization) -> bool:
        """Block by block the same exponents and primes denoting the same
        words; the engine-agreement check."""
        return len(self.blocks) == len(other.blocks) and all(
            a1 == a2 and word_equal(p1, p2)
            for (p1, a1), (p2, a2) in zip(self.blocks, other.blocks))

    def __str__(self) -> str:
        out = []
        for prime, alpha in self.blocks:
            text = format_expr(prime)
            if not isinstance(prime, Letter):
                text = f"({text})"
            out.append(f"{text}^[{format_ordinal(alpha)}]")
        return " * ".join(out)


def factorize_states(auto: SingleWordAutomaton, alphabet: Alphabet = DEFAULT_ALPHABET,
                     keep_log: bool = False) -> FactorizerState:
    """Run the marking algorithm on a compiled (already duplicated) word
    automaton and return the marked state sets."""
    n = auto.n
    q_main = {0}
    q_secondary: set[int] = set()
    log: list[StepRecord] = []
    steps = 0
    budget = n * n * n

    i = 0
    _, j = auto.succ[0]
    seen_left = {0, j}  # states visited by the main run since i
    case = "init"
    while True:
        history = Trace((j, i))
        sharp = SharpAutomaton(auto, i, j)
        if keep_log:
            log.append(StepRecord(case, tuple(history.pairs())))
        outcome = sync_step(auto, sharp, history)
        # every entry after the first is one 1a/1b/1c step, and one more
        # step read the stop.  Every letter adds a new pair, so every run
        # ends, and a budget checked after each run refuses the same inputs
        # as one checked before each step.
        steps += len(history)
        if steps > budget:
            raise FactorizeError(f"exceeded step budget n^3 = {budget}")
        seen_left.update(history._lefts)
        if keep_log:
            log += _run_records(history, j)
        if isinstance(outcome, RightEnded):
            raise FactorizeError("sharp automaton has no final state; cannot end")
        k = history.last_pair[0]
        if isinstance(outcome, Diverged) and \
                alphabet.rank(outcome.left_letter) > alphabet.rank(outcome.right_letter):
            # the suffix at j is larger: extend the candidate prefix past k.
            # The check is against the whole main run since i: a revisited
            # target means the main run is inside a loop, and the cut moves
            # beyond the loop's largest state via its limit transition.
            _, target = auto.succ[k]
            if target not in seen_left:
                case = "2a"
                j = target
            else:
                case = "2b"
                j = max(seen_left) + 1
            seen_left.add(j)
            continue
        # smaller letter (or end of word): close the block of copies of the
        # prime cut at j
        added = history.lefts_paired_with(j)
        added.add(j)
        top = max(added)
        q_secondary |= added - {top}
        q_main.add(top)
        i = top
        if keep_log:
            log.append(StepRecord("3", tuple(history.pairs())))
        if i == n:
            break
        _, j = auto.succ[i]
        seen_left = {i, j}
        case = "init"

    return FactorizerState(auto, q_main, q_secondary, steps, log)


def _run_records(history: Trace, j: int) -> list[StepRecord]:
    """The records of the 1a/1b/1c steps that built a finished run's trace:
    entry m was reached by a letter (1a) or by a loop closure, 1c when the
    closure collapsed j in the candidate and 1b otherwise.  Its history is
    the first m + 1 pairs."""
    pairs = history.pairs()
    cases = ["1a"] * len(pairs)
    for m, rlo, rhi in history.closures():
        cases[m] = "1c" if rlo <= j <= rhi else "1b"
    return [StepRecord(cases[m], tuple(pairs[:m + 1])) for m in range(1, len(pairs))]


def extract_factorization(auto: SingleWordAutomaton, q_main: set[int],
                          q_secondary: set[int]) -> Factorization:
    """Turn marked states into prime powers.  Each block runs between
    consecutive main cuts; its prime is the prefix up to the block's first
    secondary cut, and the exponent divides the block length exactly."""
    mains = sorted(q_main)
    if mains[0] != 0 or mains[-1] != auto.n:
        raise FactorizeError(f"main cuts {mains} do not span the word")
    secondaries = sorted(q_secondary)
    blocks: list[tuple[RatExpr, Ordinal]] = []
    for lo, hi in zip(mains, mains[1:]):
        # the block's first secondary cut, if it has one
        k = bisect_right(secondaries, lo)
        if k == len(secondaries) or secondaries[k] >= hi:
            blocks.append((expr_of_range(auto, lo, hi), ONE))
            continue
        prime = expr_of_range(auto, lo, secondaries[k])
        # both ranges are made of the expression's own, shared subtrees,
        # whose lengths expr_length has cached
        block_len = expr_length(expr_of_range(auto, lo, hi))
        alpha, rest = div_left(block_len, expr_length(prime))
        if not rest.is_zero:
            raise FactorizeError(
                f"block [{lo},{hi}] length {block_len} not a multiple of its prime")
        blocks.append((prime, alpha))
    return Factorization(tuple(blocks))


def factorize(e: RatExpr, alphabet: Alphabet = DEFAULT_ALPHABET,
              keep_log: bool = False) -> tuple[Factorization, FactorizerState, RatExpr]:
    """Full pipeline: duplicate, compile, mark, extract.  Returns the
    factorization together with the marked state sets and the duplicated
    expression the automaton was built from."""
    dup = tau(e)
    auto = compile_expr(dup)
    state = factorize_states(auto, alphabet, keep_log=keep_log)
    return extract_factorization(auto, state.q_main, state.q_secondary), state, dup


def marked_expression(dup: RatExpr, q_main: set[int], q_secondary: set[int]) -> str:
    """Duplicated expression with cut markers inserted before each marked
    token (and at the end for the final state): || for a main cut, | for a
    secondary one."""

    def mark(s: int) -> str:
        return "||" if s in q_main else "|" if s in q_secondary else ""

    return render_tokens(compile_expr(dup), mark, "^w")
