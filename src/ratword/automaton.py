"""Deterministic single-word automata with limit transitions.

Compiling an expression numbers its tokens 0..n-1 (a token is a letter or a
w-power) and takes states 0..n, where state s sits just before token s and n
is final.  A letter token s yields the successor transition s -a-> s+1.  A
w-power token s whose body starts at token b yields the backward transition
s -a-> b+1 (a the body's first letter) together with the limit transition
{b+1,...,s} -> s+1, taken when exactly those states repeat cofinally.

Each token also keeps its node, the Letter or w-power of the expression it
was compiled from.  A token range is read back from those nodes: an
w-power inside the range is its token's node, shared with the expression,
so reading a factor back costs its number of top-level parts and copies
nothing.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import accumulate

from .expr import Concat, Letter, Omega, RatExpr, concat, split_at
from .ordinal import ONE, OMEGA, ZERO, sub_left


class AutomatonError(RuntimeError):
    pass


class MissingLimitError(AutomatonError):
    """No limit transition matches the cofinally repeated state set."""


class SingleWordAutomaton:
    """The transitions are the one source of the token structure, and
    nodes[s] is the Letter or Omega node that token s was compiled from.

    No transition skips ahead: the successor of s goes to at most s + 1 and
    the limit on (lo, hi) goes to hi + 1.  The product run relies on this to
    carry the states a loop collapses as an interval (see `runner.Trace`),
    so construction checks it and raises AutomatonError otherwise.

    The product run reads transitions from `table`, succ with None for the
    final state, a tuple that every `SharpAutomaton` on this automaton
    shares.  A sharp redirects its state `jump` to the edge `back`; here no
    state is redirected."""
    initial = 0
    jump = -1
    back = None

    def __init__(self, succ, limits, nodes):
        self.succ = tuple(succ)          # succ[s] = (letter, target), s in 0..n-1
        self.n = len(self.succ)
        self.limits = dict(limits)       # (lo, hi) -> target
        self.nodes = tuple(nodes)
        self.table = self.succ + (None,)
        for s, (_, target) in enumerate(self.succ):
            if target > s + 1:
                raise AutomatonError(f"successor {s}->{target} skips ahead")
        for (lo, hi), target in self.limits.items():
            if target != hi + 1:
                raise AutomatonError(f"limit {{{lo}..{hi}}}->{target} does not leave to {hi + 1}")

    @cached_property
    def tokens(self) -> tuple[tuple, ...]:
        """("letter", a) or ("omega", body_start) for each token: a letter
        token's transition leads to the next state, a w-token's to the state
        after its body's start."""
        return tuple(("letter", a) if target == s + 1 else ("omega", target - 1)
                     for s, (a, target) in enumerate(self.succ))

    @cached_property
    def in_loop(self) -> bytes:
        """in_loop[s] is nonzero when state s lies in some limit interval."""
        depth = [0] * (self.n + 2)
        for lo, hi in self.limits:
            depth[lo] += 1
            depth[hi + 1] -= 1
        return bytes(d > 0 for d in accumulate(depth[:-1]))

    def limit_target(self, lo: int, hi: int) -> int:
        """The target of the limit transition taken when the states lo..hi
        repeat cofinally.  The run only ever collapses a whole interval (see
        `runner.Trace`), so lo and hi name the set."""
        try:
            return self.limits[(lo, hi)]
        except KeyError:
            raise MissingLimitError(
                f"no limit transition for cofinal interval [{lo}, {hi}]") from None


@lru_cache(maxsize=65536)
def compile_expr(e: RatExpr) -> SingleWordAutomaton:
    """The automaton of e, built in one iterative walk that numbers the
    tokens and records each token's transition, node and limit."""
    succ: list[tuple[str, int]] = []
    nodes: list[RatExpr] = []
    limits: dict[tuple[int, int], int] = {}
    stack: list = [e]
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
            s = len(nodes)
            nodes.append(node)
            # back to just after the body's first token, a letter
            succ.append((succ[start][0], start + 1))
            limits[(start + 1, s)] = s + 1
    return SingleWordAutomaton(succ, limits, nodes)


def validate(auto: SingleWordAutomaton) -> list[str]:
    """Structural sanity report; empty list means well-formed.  A debug
    check: compile_expr does not run it.  That no transition skips ahead is
    checked when the automaton is built."""
    problems = []
    n = auto.n
    entering: dict[int, list[tuple[str, str]]] = {}
    for s, (letter, target) in enumerate(auto.succ):
        if target < 1:
            problems.append(f"successor {s}->{target} leaves the states")
        entering.setdefault(target, []).append(("succ", letter))
        if target <= s and (target, s) not in auto.limits:
            problems.append(f"backward transition {s}->{target} lacks a limit transition")
    for (lo, hi), target in auto.limits.items():
        if not (0 < lo <= hi < target <= n):
            problems.append(f"limit {{{lo}..{hi}}}->{target} malformed")
        entering.setdefault(target, []).append(("limit", ""))
    # Limit intervals must nest or be disjoint.  Sweep them by start, outer
    # first, keeping the chain of intervals that enclose the current start.
    enclosing: list[tuple[int, int]] = []
    for lo, hi in sorted(auto.limits, key=lambda span: (span[0], -span[1])):
        while enclosing and enclosing[-1][1] < lo:
            enclosing.pop()
        if enclosing and enclosing[-1][1] < hi:
            lo1, hi1 = enclosing[-1]
            problems.append(f"limit intervals [{lo1},{hi1}] and [{lo},{hi}] overlap")
        else:
            enclosing.append((lo, hi))
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
    Requires i outside every loop.  The transitions are the base's `table`,
    shared, with state j redirected (`jump`) to the added edge (`back`)."""

    def __init__(self, base: SingleWordAutomaton, i: int, j: int):
        if not 0 <= i < j <= base.n:
            raise AutomatonError(f"bad state range [{i}, {j}]")
        if base.in_loop[i]:
            raise AutomatonError(f"state {i} lies inside a loop")
        self.base = base
        self.i = i
        self.initial = i
        self.n = base.n
        self.table = base.table
        self.jump = j
        self.back = (base.succ[i][0], i + 1)     # the added j -a-> i+1

    def limit_target(self, lo: int, hi: int) -> int:
        """The added limit on the interval i+1..j, or the base automaton's
        limit on lo..hi if it stays within [i, j]."""
        j = self.jump
        if lo == self.i + 1 and hi == j:
            return j
        target = self.base.limit_target(lo, hi)
        if target > j:
            raise MissingLimitError(f"limit target {target} escapes sharp [{self.i},{j}]")
        return target


# -- reading words back out of automata --------------------------------------

def expr_of_range(auto: SingleWordAutomaton, lo: int, hi: int) -> RatExpr:
    """Expression denoted by tokens [lo, hi); w-power bodies must not cross lo.

    Its parts are the automaton's own token nodes, so a range costs the
    number of its top-level parts: the walk runs back from hi, and a w-token
    whose body starts at or after lo stands for its whole body."""
    if lo >= hi:
        raise AutomatonError("empty token range")
    succ = auto.succ
    # the body of token t starts at succ[t][1] - 1 (t itself for a letter)
    parts: list[RatExpr] = []
    t = hi - 1
    while t >= lo:
        start = succ[t][1] - 1
        if start < lo:
            # name the innermost crossing body, the first one reading forwards
            start = next(target - 1 for _, target in succ[lo:hi] if target <= lo)
            raise AutomatonError(f"w-power body at token {start} crosses range start {lo}")
        parts.append(auto.nodes[t])
        t = start - 1
    parts.reverse()
    return concat(parts)


def suffix_word(auto: SingleWordAutomaton, q: int) -> RatExpr | None:
    """The suffix of the accepted word read from state q; None for q = n.

    A repeated state closes a loop: the continuation from its first visit
    repeats forever, so the label read since then recurs w times and the
    matching limit transition fires.  Closures can cascade, and a walk that
    begins mid-loop may close a loop containing states first seen before the
    entry, so the visit order (with returns) and ordinal read positions are
    tracked explicitly."""
    if not 0 <= q <= auto.n:
        raise AutomatonError(f"state {q} out of range")
    if q == auto.n:
        return None
    s = q
    seq = [s]                    # visit order, entry states re-appended on closure
    first = {s: 0}               # state -> first index in seq
    first_pos = {s: ZERO}        # state -> ordinal position of first visit
    parts: list[RatExpr] = []
    pos = ZERO
    budget = (auto.n + 2) * (auto.n + 2)
    while s != auto.n:
        if budget < 0:
            raise AutomatonError("runaway walk; automaton is corrupt")
        budget -= 1
        letter, target = auto.succ[s]
        piece: RatExpr = Letter(letter)
        pos = pos + ONE
        while target in first:
            entry = target
            cofinal = set(seq[first[entry]:]) | {entry}
            seq.extend(sorted(cofinal))  # every loop state is visited again
            # pos is the length of parts and piece: the word read so far
            entry_pos = first_pos[entry]
            parts, body = split_at(concat(parts + [piece]), entry_pos)
            piece = Omega(concat(body))
            pos = entry_pos + sub_left(entry_pos, pos) * OMEGA
            target = auto.limit_target(min(cofinal), max(cofinal))
        parts.append(piece)
        seq.append(target)
        first[target] = len(seq) - 1
        first_pos[target] = pos
        s = target
    return concat(parts)


# -- renderings --------------------------------------------------------------

def render_tokens(auto: SingleWordAutomaton, mark, omega: str) -> str:
    """The compiled word as text: mark(s) before token s and mark(n) at the
    end, each w-token written as omega, and a body of more than one token
    in parentheses."""
    opens = [0] * auto.n
    for s, (kind, start) in enumerate(auto.tokens):
        if kind == "omega" and s - start > 1:
            opens[start] += 1
    out: list[str] = []
    for s, (kind, val) in enumerate(auto.tokens):
        if kind == "letter":
            out += ("(" * opens[s], mark(s), val)
        else:
            out += (")" if s - val > 1 else "", mark(s), omega)
    out.append(mark(auto.n))
    return "".join(out)


def numbered_word(e: RatExpr) -> str:
    """Token numbering of an expression, e.g. (0a1w2b)3w4a5w6."""
    return render_tokens(compile_expr(e), str, "w")


def to_dot(auto: SingleWordAutomaton) -> str:
    lines = ["digraph word {", "  rankdir=LR;", "  node [shape=circle];",
             f"  {auto.n} [shape=doublecircle];"]
    for s, (letter, target) in enumerate(auto.succ):
        lines.append(f'  {s} -> {target} [label="{letter}"];')
    for (lo, hi), target in sorted(auto.limits.items()):
        lines.append(f'  {lo} -> {target} [label="lim {{{lo}..{hi}}}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)
