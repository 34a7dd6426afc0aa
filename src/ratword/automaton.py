"""Deterministic single-word automata with limit transitions.

Compiling an expression numbers its tokens 0..n-1 (a token is a letter or a
w-power) and takes states 0..n, where state s sits just before token s and n
is final.  A letter token s yields the successor transition s -a-> s+1.  A
w-power token s whose body starts at token b yields the backward transition
s -a-> b+1 (a the body's first letter) together with the limit transition
{b+1,...,s} -> s+1, taken when exactly those states repeat cofinally.  The
transition leaving s is kept as its step (a, target - s), so the copies that
`tau` makes of a body are identical slices of the table, compiled by copying.

Each token also keeps its node, the Letter or w-power of the expression it
was compiled from.  A token range is read back from those nodes: an
w-power inside the range is its token's node, shared with the expression,
so reading a factor back costs its number of top-level parts, and a range
of letters alone is one slice of the nodes.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property, lru_cache
from operator import itemgetter

from .expr import Concat, Letter, Omega, RatExpr, concat, split_at
from .runner import Trace, sync_step


class AutomatonError(RuntimeError):
    pass


class MissingLimitError(AutomatonError):
    """No limit transition matches the cofinally repeated state set."""


class SingleWordAutomaton:
    """The transitions are the one source of the token structure: table[s]
    is the step (letter, d) of the transition s -letter-> s + d, and None
    for the final state n.  nodes[s] is the Letter or Omega node that token
    s was compiled from.  The limit transitions are read off the back
    edges: an w-token hi with the back edge hi -> lo has the limit
    {lo..hi} -> hi + 1, and no other state tops a loop.  The back edges,
    which `compile_expr` collects, are given by increasing hi in
    `loop_tops`, with their lo in `loop_lows`.

    No transition skips ahead: the successor of s goes to at most s + 1,
    and a limit leaves its interval to the next state.  The product run
    relies on this to name the loop a closure collapses by the greatest
    state of its window (see `runner.Trace`), so construction checks it
    and raises AutomatonError otherwise.

    Every `SharpAutomaton` on this automaton shares its `table`.  A sharp
    redirects its state `jump` to the step `back`; here none is."""
    initial = 0
    jump = -1
    back = None

    def __init__(self, steps, nodes, loop_tops, loop_lows):
        self.table = (*steps, None)
        self.n = len(steps)
        self.nodes = tuple(nodes)
        self.loop_tops, self.loop_lows = loop_tops, loop_lows
        if steps and max(map(itemgetter(1), steps)) > 1 or loop_lows and min(loop_lows) < 0:
            for s, (_, d) in enumerate(steps):
                if s + d < 0:
                    raise AutomatonError(f"successor {s}->{s + d} leaves the states")
                if d > 1:
                    raise AutomatonError(f"successor {s}->{s + d} skips ahead")

    @cached_property
    def limits(self) -> dict[tuple[int, int], int]:
        """(lo, hi) -> hi + 1 for each back edge hi -> lo."""
        return {(lo, hi): hi + 1 for lo, hi in zip(self.loop_lows, self.loop_tops)}

    @cached_property
    def _sorted_lows(self) -> list[int]:
        return sorted(self.loop_lows)

    def in_loop(self, s: int) -> bool:
        """Whether some back edge hi -> lo has lo <= s <= hi: more loops
        start at or before s than end before it, since each that ends
        before s starts before it too."""
        return bisect_right(self._sorted_lows, s) > bisect_left(self.loop_tops, s)

    def limit_target(self, hi: int) -> int:
        """The target of the limit transition taken when the loop topped by
        state hi repeats cofinally: hi + 1, if hi is an w-token.  The
        greatest state of a closure's window names its loop (see
        `runner.Trace`)."""
        if hi < self.n and self.table[hi][1] <= 0:
            return hi + 1
        raise MissingLimitError(f"state {hi} ends no loop")


# the least block `compile_expr` copies, and the least run of letters that it
# and `expr_of_range` take in one slice: a shorter one costs less to walk
COPY_MIN = 8


class _LetterSteps(dict):
    """The step (a, 1) of each Letter a, one object for every automaton."""
    def __missing__(self, letter: Letter) -> tuple[str, int]:
        step = self[letter] = (letter.sym, 1)
        return step


_LETTER_STEPS = _LetterSteps()


@lru_cache(maxsize=65536)
def compile_expr(e: RatExpr) -> SingleWordAutomaton:
    """The automaton of e, built in one iterative walk that numbers the
    tokens and records each token's step and node, and each back edge.  An
    w-power met again, as `tau` copies every body, copies its first block's
    steps and nodes by slices, and its back edges shifted, if the block
    holds at least COPY_MIN tokens.  A Concat is e or the body of its one
    w-power, so no other block repeats.  A Concat of at least COPY_MIN
    letters and no w-power is taken whole.  Equal steps are one object."""
    steps: list[tuple[str, int]] = []
    nodes: list[RatExpr] = []
    tops: list[int] = []
    lows: list[int] = []
    blocks: dict[Omega, tuple[int, int, int, int]] = {}   # its tokens and back edges
    intern = {}.setdefault
    stack: list = [e]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Letter:
            nodes.append(node)
            steps.append(_LETTER_STEPS[node])
        elif kind is Concat:
            parts = node.parts
            if len(parts) >= COPY_MIN and Omega not in map(type, parts):
                # flattened parts with no w-power are letters, taken at once
                nodes += parts
                steps += map(_LETTER_STEPS.__getitem__, parts)
            else:
                stack.extend(reversed(parts))
        elif kind is Omega:
            block = blocks.get(node)
            if block is None:
                stack.append((node, len(nodes), len(tops)))    # its w-token, once the body is out
                stack.append(node.body)
                continue
            start, end, first, last = block
            shift = len(nodes) - start
            steps += steps[start:end]
            nodes += nodes[start:end]
            tops += map(shift.__add__, tops[first:last])
            lows += map(shift.__add__, lows[first:last])
        else:
            node, start, first = node
            s = len(nodes)
            nodes.append(node)
            # back to just after the body's first token, a letter
            step = (steps[start][0], start + 1 - s)
            steps.append(intern(step, step))
            tops.append(s)
            lows.append(start + 1)
            if s + 1 - start >= COPY_MIN:
                blocks[node] = (start, s + 1, first, len(tops))
    return SingleWordAutomaton(steps, nodes, tops, lows)


def validate(auto: SingleWordAutomaton) -> list[str]:
    """Structural sanity report; empty list means well-formed.  A debug
    check: compile_expr does not run it.  That no transition skips ahead or
    leaves the states is checked when the automaton is built, and the limits
    are read off the back edges, so each is well-formed."""
    problems = []
    n = auto.n
    entering: dict[int, list[tuple[str, str]]] = {}
    for s, (letter, d) in enumerate(auto.table[:n]):
        entering.setdefault(s + d, []).append(("succ", letter))
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
    state j redirected (`jump`) to the added step (`back`).  A diagonal
    stretch stops before j, so it reads the base's steps and back edges."""

    def __init__(self, base: SingleWordAutomaton, i: int, j: int):
        self.base = base
        self.table = base.table
        self.loop_tops, self.loop_lows = base.loop_tops, base.loop_lows
        self.i = None
        self.retarget(i, j)

    def retarget(self, i: int, j: int) -> None:
        """Make this the sharp on [i, j] of the same base, in place.  A
        refused range leaves it as it was."""
        base = self.base
        if not 0 <= i < j <= base.n:
            raise AutomatonError(f"bad state range [{i}, {j}]")
        if i != self.i and base.in_loop(i):     # the current i was checked
            raise AutomatonError(f"state {i} lies inside a loop")
        self.i = self.initial = i
        self.jump = j
        self.back = (base.table[i][0], i + 1 - j)     # the added j -a-> i+1

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
    whose body starts at or after lo stands for its whole body.  A range of
    at least COPY_MIN tokens that holds no w-token is the slice of its
    letters."""
    if lo >= hi:
        raise AutomatonError("empty token range")
    tops = auto.loop_tops
    if hi - lo >= COPY_MIN and bisect_left(tops, lo) == bisect_left(tops, hi):
        # no w-token in the range: its tokens are its letters
        return concat(auto.nodes[lo:hi])
    table = auto.table
    # the body of token t starts at t + table[t][1] - 1 (t itself for a letter)
    parts: list[RatExpr] = []
    t = hi - 1
    while t >= lo:
        start = t + table[t][1] - 1
        if start < lo:
            # name the innermost crossing body, the first one reading forwards
            start = next(s + d - 1 for s, (_, d) in enumerate(table[lo:hi], lo) if s + d <= lo)
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
    pairs, table = trace.pairs(), auto.table
    cascades = dict(zip(*trace._limits()))
    parts: list[RatExpr] = []
    for m in range(1, len(pairs)):
        piece = Letter(table[pairs[m - 1][0]][0])
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
    # a letter token steps 1 up, and an w-token s back to its body's start
    # plus one, which is s only for a body of one token
    opens = [0] * auto.n
    for s, (_, d) in enumerate(auto.table[:auto.n]):
        if d < 0:
            opens[s + d - 1] += 1
    out: list[str] = []
    for s, (a, d) in enumerate(auto.table[:auto.n]):
        if d == 1:
            out += ("(" * opens[s], mark(s), a)
        else:
            out += (")" if d < 0 else "", mark(s), omega)
    out.append(mark(auto.n))
    return "".join(out)


def numbered_word(e: RatExpr) -> str:
    """Token numbering of an expression, e.g. (0a1w2b)3w4a5w6."""
    return render_tokens(compile_expr(e), str, "w")


def to_dot(auto: SingleWordAutomaton) -> str:
    lines = ["digraph word {", "  rankdir=LR;", "  node [shape=circle];",
             f"  {auto.n} [shape=doublecircle];"]
    for s, (letter, d) in enumerate(auto.table[:auto.n]):
        lines.append(f'  {s} -> {s + d} [label="{letter}"];')
    for (lo, hi), target in sorted(auto.limits.items()):
        lines.append(f'  {lo} -> {target} [label="lim {{{lo}..{hi}}}", style=dashed];')
    lines.append("}")
    return "\n".join(lines)
