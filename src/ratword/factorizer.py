"""Prime factorization of rational words by marking automaton states.

The driver runs the duplicated expression's automaton against the sharp
closure of one of its own factors, Duval-style.  Each step compares the
letter leaving the main state k with the letter leaving the candidate state
k' and either extends the history of pairs (equal letters), restarts the
candidate one past the furthest state the main run has reached since the
last main cut (k reads the larger letter: 2a or 2b, which differ only in
their label), or closes a block of prime copies (k reads the smaller letter,
or the word ends).  As in Duval's algorithm, no record of the visited
states is kept.  Main cuts end up in q_main, boundaries between copies of
one prime in q_secondary.

A candidate (the start and each 2a/2b/3 restart) at (j, i) first reads its
letter-only prefix: the letters leaving j + q and i + q, while both are
letter tokens and i + q + 1 < j, so that the sharp's jump is not reached.
The pairs on the way are new, so a candidate that stops there, on letters
that differ or at the end of the word, is decided without a trace or a
sharp: on a finite word that is Duval's comparison, and most candidates end
so.  The equal-letter steps (1a, and the loop closures 1b/1c) of any other
candidate are one product run from (j, i): a single `sync_step` call runs
them to the step that decides.  One trace and one sharp serve every such run
of an input, reset and retargeted in place before it.  With keep_log the
records of the steps are written from the prefix's pairs or rebuilt from
the finished trace."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .automaton import (AutomatonError, SharpAutomaton, SingleWordAutomaton,
                        compile_expr, expr_of_range, render_tokens)
from .duplication import tau
from .expr import Letter, RatExpr, concat, expr_length, format_expr, power
from .order import word_equal
from .ordinal import ONE, Ordinal, div_left, format_ordinal
from .runner import Trace, sync_step


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


def factorize_states(auto: SingleWordAutomaton, keep_log: bool = False) -> FactorizerState:
    """Run the marking algorithm on a compiled (already duplicated) word
    automaton and return the marked state sets."""
    n = auto.n
    q_main = {0}
    q_secondary: set[int] = set()
    log: list[StepRecord] = []
    steps = 0
    budget = n * n * n

    # The main run has visited exactly the states i..top since the main cut
    # i, and every run starts at top + 1:
    # - i lies outside every loop (each main cut refuses any other i, as
    #   `SharpAutomaton.retarget` does), so token i is a letter, since an
    #   w-token tops its own loop, and no back edge taken after i lands at
    #   or below i;
    # - a successor goes at most one state up, and a limit at most one past
    #   the states it collapsed.
    # So when a run ends, top = max(lefts).  A 2a target, the successor of
    # k, that the main run has not visited is top + 1, the state 2b takes:
    # the two cases differ only in their label.
    i = top = 0
    j = top + 1
    case = "init"
    history = Trace((j, i))
    lefts = history._lefts
    sharp = SharpAutomaton(auto, i, j)
    table = auto.table
    while True:
        if keep_log:
            log.append(StepRecord(case, ((j, i),)))
        # the letter-only prefix: the step leaving s = j + q (None at n)
        # against the one leaving t = i + q, while both are letters and
        # t + 1 < j.  Its pairs (s, t) are new and none has the right state
        # j, so a stop on it needs no trace; any other run is sync_step's.
        s, t = j, i
        while True:
            step, (b, d) = table[s], table[t]
            a = None if step is None else step[0]
            if a != b or step[1] != 1 or d != 1 or t + 1 == j:
                break
            s += 1
            t += 1
        ran = a == b
        if ran:
            history.reset((j, i))
            sharp.retarget(i, j)
            a, b = sync_step(auto, sharp, history)
            # every entry after the first, a stretch's hidden ones too, is
            # one 1a/1b/1c step, and one more step read the stop.  Every
            # letter adds a new pair, so every run ends, and a budget checked
            # after each run refuses the same inputs as one before each step.
            steps += len(lefts) + history._hidden
            if keep_log:
                log += _run_records(history, j)
            k, top = lefts[-1], max(lefts)
        else:
            steps += s - j + 1
            k = top = s
            if keep_log:
                pairs = list(zip(range(j, s + 1), range(i, t + 1)))
                log += _records(pairs, ["1a"] * len(pairs))
        if steps > budget:
            raise FactorizeError(f"exceeded step budget n^3 = {budget}")
        if b is None:
            raise FactorizeError("sharp automaton has no final state; cannot end")
        if a is not None and a > b:
            # the suffix at j is larger: extend the candidate prefix past
            # the furthest state the main run has reached
            case = "2a" if k + table[k][1] > top else "2b"
        else:
            # smaller letter (or end of word): close the block of copies of
            # the prime cut at j
            added = history.lefts_paired_with(j) if ran else set()
            added.add(j)
            if keep_log:
                log.append(StepRecord("3", tuple(history.pairs() if ran else pairs)))
            i = top = max(added)
            q_secondary |= added - {top}
            q_main.add(top)
            if i == n:
                break
            if auto.in_loop(i):
                raise AutomatonError(f"state {i} lies inside a loop")
            case = "init"
        j = top + 1

    return FactorizerState(auto, q_main, q_secondary, steps, log)


def _run_records(history: Trace, j: int) -> list[StepRecord]:
    """The records of the 1a/1b/1c steps that built a finished run's trace:
    entry m was reached by a letter (1a) or by a loop closure, 1c when the
    closure collapsed the candidate's loop, topped by j, and 1b otherwise."""
    pairs = history.pairs()
    cases = ["1a"] * len(pairs)
    for m, top in history.closures():
        cases[m] = "1c" if top == j else "1b"
    return _records(pairs, cases)


def _records(pairs: list[tuple[int, int]], cases: list[str]) -> list[StepRecord]:
    """The record of the step into each entry m after the first: its case
    and, as its history, the first m + 1 pairs."""
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
        # an expr_length miss folds the whole range; only a range asked
        # for before is a hit
        block_len = expr_length(expr_of_range(auto, lo, hi))
        alpha, rest = div_left(block_len, expr_length(prime))
        if not rest.is_zero:
            raise FactorizeError(
                f"block [{lo},{hi}] length {block_len} not a multiple of its prime")
        blocks.append((prime, alpha))
    return Factorization(tuple(blocks))


def factorize(e: RatExpr,
              keep_log: bool = False) -> tuple[Factorization, FactorizerState, RatExpr]:
    """Full pipeline: duplicate, compile, mark, extract.  Returns the
    factorization together with the marked state sets and the duplicated
    expression the automaton was built from."""
    dup = tau(e)
    auto = compile_expr(dup)
    state = factorize_states(auto, keep_log=keep_log)
    return extract_factorization(auto, state.q_main, state.q_secondary), state, dup


def marked_expression(dup: RatExpr, q_main: set[int], q_secondary: set[int]) -> str:
    """Duplicated expression with cut markers inserted before each marked
    token (and at the end for the final state): || for a main cut, | for a
    secondary one."""

    def mark(s: int) -> str:
        return "||" if s in q_main else "|" if s in q_secondary else ""

    return render_tokens(compile_expr(dup), mark, "^w")
