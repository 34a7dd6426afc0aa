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
from .runner import Trace, sync_step


class AutomatonError(RuntimeError):
    pass


class MissingLimitError(AutomatonError):
    """No limit transition matches the cofinally repeated state set."""


class SingleWordAutomaton:
    """The transitions are the one source of the token structure, and
    nodes[s] is the Letter or Omega node that token s was compiled from.
    The limit transitions are read off the back edges: an w-token hi with
    the back edge hi -> lo has the limit {lo..hi} -> hi + 1, and no other
    state tops a loop.

    No transition skips ahead: the successor of s goes to at most s + 1,
    and a limit leaves its interval to the next state.  The product run
    relies on this to name the loop a closure collapses by the greatest
    state of its window (see `runner.Trace`), so construction checks it
    and raises AutomatonError otherwise.

    The product run reads transitions from `table`, succ with None for the
    final state, a tuple that every `SharpAutomaton` on this automaton
    shares.  A sharp redirects its state `jump` to the edge `back`; here no
    state is redirected.

    A run of this automaton against itself, or against a sharp on it,
    crosses a diagonal stretch in one step (see `runner.Trace`).  It
    compares tokens by their nodes: expressions are hash-consed, so two
    tokens that are one node read one letter and lead alike, a letter one
    state up and an w-token back by its body's token count less one.  It
    reads the back edges hi -> lo, by increasing hi, from `loop_tops` and
    `loop_lows`."""
    initial = 0
    jump = -1
    back = None

    def __init__(self, succ, nodes):
        self.succ = tuple(succ)          # succ[s] = (letter, target), s in 0..n-1
        self.n = len(self.succ)
        self.nodes = tuple(nodes)
        self.table = self.succ + (None,)
        self.loop_tops = tops = []       # hi, for each back edge hi -> lo
        self.loop_lows = lows = []       # its lo
        for s, (_, target) in enumerate(self.succ):
            if target <= s:
                if target < 0:
                    raise AutomatonError(f"successor {s}->{target} leaves the states")
                tops.append(s)
                lows.append(target)
            elif target > s + 1:
                raise AutomatonError(f"successor {s}->{target} skips ahead")

    @cached_property
    def limits(self) -> dict[tuple[int, int], int]:
        """(lo, hi) -> hi + 1 for each back edge hi -> lo."""
        return {(lo, hi): hi + 1 for lo, hi in zip(self.loop_lows, self.loop_tops)}

    @cached_property
    def in_loop(self) -> bytes:
        """in_loop[s] is nonzero when state s lies in some limit interval."""
        depth = [0] * (self.n + 2)
        for lo, hi in zip(self.loop_lows, self.loop_tops):
            depth[lo] += 1
            depth[hi + 1] -= 1
        return bytes(map((0).__lt__, accumulate(depth[:-1])))

    def limit_target(self, hi: int) -> int:
        """The target of the limit transition taken when the loop topped by
        state hi repeats cofinally: hi + 1, if hi is an w-token.  The
        greatest state of a closure's window names its loop (see
        `runner.Trace`)."""
        if hi < self.n and self.succ[hi][1] <= hi:
            return hi + 1
        raise MissingLimitError(f"state {hi} ends no loop")


@lru_cache(maxsize=65536)
def compile_expr(e: RatExpr) -> SingleWordAutomaton:
    """The automaton of e, built in one iterative walk that numbers the
    tokens and records each token's transition and node."""
    succ: list[tuple[str, int]] = []
    nodes: list[RatExpr] = []
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
    return SingleWordAutomaton(succ, nodes)


def validate(auto: SingleWordAutomaton) -> list[str]:
    """Structural sanity report; empty list means well-formed.  A debug
    check: compile_expr does not run it.  That no transition skips ahead or
    leaves the states is checked when the automaton is built, and the limits
    are read off the back edges, so each is well-formed."""
    problems = []
    n = auto.n
    entering: dict[int, list[tuple[str, str]]] = {}
    for s, (letter, target) in enumerate(auto.succ):
        entering.setdefault(target, []).append(("succ", letter))
    for target in auto.limits.values():
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
    # token s - 1 steps to s or, an w-token, has the limit that enters s
    for s in range(1, n + 1):
        ways = entering[s]
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
    Requires i outside every loop, so that a loop through j is the whole
    interval i+1..j.  The transitions are the base's `table`, shared, with
    state j redirected (`jump`) to the added edge (`back`).  A diagonal
    stretch stops before j, so it reads the base's nodes and back edges."""

    def __init__(self, base: SingleWordAutomaton, i: int, j: int):
        self.base = base
        self.table = base.table
        self.nodes, self.loop_tops, self.loop_lows = base.nodes, base.loop_tops, base.loop_lows
        self.retarget(i, j)

    def retarget(self, i: int, j: int) -> None:
        """Make this the sharp on [i, j] of the same base, in place.  A
        refused range leaves it as it was."""
        base = self.base
        if not 0 <= i < j <= base.n:
            raise AutomatonError(f"bad state range [{i}, {j}]")
        if base.in_loop[i]:
            raise AutomatonError(f"state {i} lies inside a loop")
        self.i = self.initial = i
        self.jump = j
        self.back = (base.succ[i][0], i + 1)     # the added j -a-> i+1

    def limit_target(self, hi: int) -> int:
        """The added limit, for the loop topped by j, or the base's limit
        for the loop topped by hi if it stays within [i, j]."""
        j = self.jump
        if hi == j:
            return j
        target = self.base.limit_target(hi)
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

    It is read off the trace of the automaton run against itself from
    (q, q) by `runner.sync_step`: each entry adds the letter read into it,
    and each loop closure of a cascade turns what was read since its loop
    entry's position into an w-power.  A walk that begins mid-loop writes
    that loop's body as read from q, not as the expression writes it."""
    if not 0 <= q <= auto.n:
        raise AutomatonError(f"state {q} out of range")
    if q == auto.n:
        return None
    trace = Trace((q, q))
    sync_step(auto, auto, trace)
    lefts, succ = trace._lefts, auto.succ
    cascades = dict(zip(trace._limit_at, trace._cascades))
    parts: list[RatExpr] = []
    for m in range(1, len(lefts)):
        piece = Letter(succ[lefts[m - 1]][0])
        for idx in cascades.get(m, ()):
            parts, body = split_at(concat(parts + [piece]), trace.position(idx))
            piece = Omega(concat(body))
        parts.append(piece)
    return concat(parts)


# -- renderings --------------------------------------------------------------

def render_tokens(auto: SingleWordAutomaton, mark, omega: str) -> str:
    """The compiled word as text: mark(s) before token s and mark(n) at the
    end, each w-token written as omega, and a body of more than one token
    in parentheses."""
    # a letter token leads to s + 1, and an w-token s to its body's start
    # plus one, which is s only for a body of one token
    opens = [0] * auto.n
    for s, (_, target) in enumerate(auto.succ):
        if target < s:
            opens[target - 1] += 1
    out: list[str] = []
    for s, (a, target) in enumerate(auto.succ):
        if target == s + 1:
            out += ("(" * opens[s], mark(s), a)
        else:
            out += (")" if target < s else "", mark(s), omega)
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
