"""Deterministic single-word automata with limit transitions.

Compiling an expression numbers its tokens 0..n-1 (a token is a letter or a
w-power) and takes states 0..n, where state s sits just before token s and n
is final.  A letter token s yields the successor transition s -a-> s+1.  A
w-power token s whose body starts at token b yields the backward transition
s -a-> b+1 (a the body's first letter) together with the limit transition
{b+1,...,s} -> s+1, taken when exactly those states repeat cofinally.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate

from .expr import Concat, Letter, Omega, RatExpr, concat, expr_length
from .ordinal import Ordinal


class AutomatonError(RuntimeError):
    pass


class MissingLimitError(AutomatonError):
    """No limit transition matches the cofinally repeated state set."""


class SingleWordAutomaton:
    def __init__(self, tokens, succ, limits, initial=0, final=None):
        self.tokens = tuple(tokens)      # ("letter", a) or ("omega", body_start)
        self.n = len(self.tokens)
        self.succ = tuple(succ)          # succ[s] = (letter, target), s in 0..n-1
        self.limits = dict(limits)       # (lo, hi) -> target
        self.initial = initial
        self.final = self.n if final is None else final

    @cached_property
    def in_loop(self) -> bytes:
        """in_loop[s] is nonzero when state s lies in some limit interval."""
        depth = [0] * (self.n + 2)
        for lo, hi in self.limits:
            depth[lo] += 1
            depth[hi + 1] -= 1
        return bytes(d > 0 for d in accumulate(depth[:-1]))

    def leaving(self, s: int):
        """(letter, target) of the transition leaving s, or None at the final state."""
        if s == self.final:
            return None
        return self.succ[s]

    def limit_target(self, states) -> int:
        lo, hi = min(states), max(states)
        if len(states) == hi - lo + 1 and (lo, hi) in self.limits:
            return self.limits[(lo, hi)]
        raise MissingLimitError(f"no limit transition for cofinal set {sorted(states)}")


@lru_cache(maxsize=65536)
def compile_expr(e: RatExpr) -> SingleWordAutomaton:
    tokens: list[tuple] = []

    def emit(node: RatExpr) -> None:
        if isinstance(node, Letter):
            tokens.append(("letter", node.sym))
        elif isinstance(node, Omega):
            start = len(tokens)
            emit(node.body)
            tokens.append(("omega", start))
        else:
            for p in node.parts:
                emit(p)

    emit(e)
    succ = []
    limits = {}
    for s, (kind, val) in enumerate(tokens):
        if kind == "letter":
            succ.append((val, s + 1))
        else:
            first = tokens[val]
            assert first[0] == "letter"  # flattening puts a letter first
            succ.append((first[1], val + 1))
            limits[(val + 1, s)] = s + 1
    return SingleWordAutomaton(tokens, succ, limits)


def validate(auto: SingleWordAutomaton) -> list[str]:
    """Structural sanity report; empty list means well-formed.  A debug
    check: compile_expr does not run it."""
    problems = []
    n = auto.n
    entering: dict[int, list[tuple[str, str]]] = {}
    for s, (letter, target) in enumerate(auto.succ):
        if not 1 <= target <= s + 1:
            problems.append(f"successor {s}->{target} skips ahead")
        entering.setdefault(target, []).append(("succ", letter))
        if target <= s and (target, s) not in auto.limits:
            problems.append(f"backward transition {s}->{target} lacks a limit transition")
    for (lo, hi), target in auto.limits.items():
        if not (0 < lo <= hi < target <= n):
            problems.append(f"limit {{{lo}..{hi}}}->{target} malformed")
        if target != hi + 1:
            problems.append(f"limit {{{lo}..{hi}}}->{target} does not leave its interval")
        entering.setdefault(target, []).append(("limit", ""))
    spans = sorted(auto.limits)
    for i, (lo1, hi1) in enumerate(spans):
        for lo2, hi2 in spans[i + 1:]:
            if lo1 < lo2 <= hi1 < hi2 or lo2 < lo1 <= hi2 < hi1:
                problems.append(f"limit intervals [{lo1},{hi1}] and [{lo2},{hi2}] overlap")
    if 0 in entering:
        problems.append("state 0 is entered by a transition")
    for s in range(1, n + 1):
        ways = entering.get(s, [])
        if not ways:
            problems.append(f"state {s} unreachable")
        kinds = {k for k, _ in ways}
        if kinds == {"succ", "limit"}:
            problems.append(f"state {s} entered by both successor and limit transitions")
        labels = {a for k, a in ways if k == "succ"}
        if len(labels) > 1:
            problems.append(f"state {s} entered with distinct labels {sorted(labels)}")
    return problems


class SharpAutomaton:
    """Closure of a sub-automaton under ordinal powers: to states [i, j] add
    the successor j -a-> i+1 (a the label leaving i) and the limit transition
    {i+1,...,j} -> j.  With j = i+1 this degenerates to the one-letter loop.
    Requires i outside every loop."""

    def __init__(self, base: SingleWordAutomaton, i: int, j: int):
        if not 0 <= i < j <= base.n:
            raise AutomatonError(f"bad state range [{i}, {j}]")
        if base.in_loop[i]:
            raise AutomatonError(f"state {i} lies inside a loop")
        self.base = base
        self.i = i
        self.j = j
        self.initial = i
        self.n = base.n

    def leaving(self, s: int):
        if s == self.j:
            letter, _ = self.base.succ[self.i]
            return (letter, self.i + 1)
        return self.base.succ[s]

    def limit_target(self, states) -> int:
        if min(states) == self.i + 1 and max(states) == self.j \
                and len(states) == self.j - self.i:
            return self.j
        target = self.base.limit_target(states)
        if target > self.j:
            raise MissingLimitError(f"limit target {target} escapes sharp [{self.i},{self.j}]")
        return target


# -- reading words back out of automata --------------------------------------

def expr_of_range(auto: SingleWordAutomaton, lo: int, hi: int) -> RatExpr:
    """Expression denoted by tokens [lo, hi); w-power bodies must not cross lo."""
    if lo >= hi:
        raise AutomatonError("empty token range")
    parts: list[tuple[int, RatExpr]] = []  # (start token, expr)
    for t in range(lo, hi):
        kind, val = auto.tokens[t]
        if kind == "letter":
            parts.append((t, Letter(val)))
        else:
            if val < lo:
                raise AutomatonError(f"w-power body at token {val} crosses range start {lo}")
            body: list[RatExpr] = []
            while parts and parts[-1][0] >= val:
                body.append(parts.pop()[1])
            body.reverse()
            parts.append((val, Omega(concat(body))))
    return concat([p for _, p in parts])


def first_visit_prefix(auto: SingleWordAutomaton, s: int) -> tuple[Ordinal, RatExpr]:
    """Position at which the accepting run first reaches state s (1 <= s <= n),
    together with the prefix read up to that point."""
    if not 1 <= s <= auto.n:
        raise AutomatonError(f"state {s} out of range")
    prefix = expr_of_range(auto, 0, s)
    return expr_length(prefix), prefix


def read_word(view, start: int | None = None) -> RatExpr | None:
    """Word accepted by a single-word automaton from the given start state;
    None when the start is already final.

    A repeated state closes a loop: the continuation from its first visit
    repeats forever, so the label read since then recurs w times and the
    matching limit transition fires.  Closures can cascade, and a walk that
    begins mid-loop may close a loop containing states first seen before the
    entry, so the visit order (with returns) and ordinal read positions are
    tracked explicitly."""
    from .ordinal import OMEGA, ZERO, sub_left
    from .expr import prefix_to, suffix_from

    s = view.initial if start is None else start
    if s == view.final:
        return None
    seq = [s]                    # visit order, entry states re-appended on closure
    first = {s: 0}               # state -> first index in seq
    first_pos = {s: ZERO}        # state -> ordinal position of first visit
    parts: list[RatExpr] = []
    pos = ZERO
    budget = (view.n + 2) * (view.n + 2)
    while s != view.final:
        if budget < 0:
            raise AutomatonError("runaway walk; automaton is corrupt")
        budget -= 1
        step = view.leaving(s)
        if step is None:
            raise AutomatonError(f"stuck at non-final state {s}")
        letter, target = step
        piece: RatExpr = Letter(letter)
        pos = pos + expr_length(piece)
        while target in first:
            entry = target
            cofinal = set(seq[first[entry]:]) | {entry}
            seq.extend(sorted(cofinal))  # every loop state is visited again
            whole = concat(parts + [piece])
            entry_pos = first_pos[entry]
            body = suffix_from(whole, entry_pos)
            parts = [] if entry_pos.is_zero else [prefix_to(whole, entry_pos)]
            piece = Omega(body)
            pos = entry_pos + expr_length(body) * OMEGA
            target = view.limit_target(cofinal)
        parts.append(piece)
        seq.append(target)
        first[target] = len(seq) - 1
        first_pos[target] = pos
        s = target
    return concat(parts)


def suffix_word(auto: SingleWordAutomaton, q: int) -> RatExpr | None:
    """The suffix of the accepted word read from state q; None for q = n."""
    if not 0 <= q <= auto.n:
        raise AutomatonError(f"state {q} out of range")
    return read_word(auto, q)


# -- renderings --------------------------------------------------------------

def _walk_tokens(e: RatExpr, visit_letter, visit_omega) -> None:
    counter = [0]

    def go(node: RatExpr) -> None:
        if isinstance(node, Letter):
            visit_letter(counter[0], node.sym)
            counter[0] += 1
        elif isinstance(node, Omega):
            grouped = not isinstance(node.body, Letter)
            visit_omega(node, grouped, counter, go)
        else:
            for p in node.parts:
                go(p)

    go(e)


def numbered_word(e: RatExpr) -> str:
    """Token numbering of an expression, e.g. (0a1w2b)3w4a5w6."""
    out: list[str] = []

    def letter(s: int, a: str) -> None:
        out.append(f"{s}{a}")

    def omega(node, grouped, counter, go) -> None:
        if grouped:
            out.append("(")
            go(node.body)
            out.append(")")
        else:
            go(node.body)
        out.append(f"{counter[0]}w")
        counter[0] += 1

    _walk_tokens(e, letter, omega)
    auto = compile_expr(e)
    out.append(str(auto.n))
    return "".join(out)


def to_dot(auto: SingleWordAutomaton, name: str = "word") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];",
             f"  {auto.n} [shape=doublecircle];"]
    for s, (letter, target) in enumerate(auto.succ):
        lines.append(f'  {s} -> {target} [label="{letter}"];')
    for (lo, hi), target in sorted(auto.limits.items()):
        lines.append(f'  {lo} -> {target} [label="lim {{{lo}..{hi}}}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)
