"""Synchronized run of two word automata.

The product run reads one letter at a time while both components agree.  Its
trace is the repetition-free list of state pairs in first-visit order; when a
pair repeats, the loop just closed is resolved component-wise through limit
transitions.  The trace does not store the ordinal position at which each
pair was first reached: a pair reached by a letter sits one past the pair
before it, and a pair reached by limit transitions keeps the loop entries of
the cascade that reached it, so `Trace.position` derives a position only
when asked.  The component states that a closure collapses are carried as
intervals `(lo, hi)`: see `Trace`."""

from __future__ import annotations

from bisect import bisect_right
from itertools import compress

from .ordinal import Ordinal, sub_left, OMEGA, ONE, ZERO


class TraceError(RuntimeError):
    pass


class Trace:
    """The pairs of a product run in first-visit order.

    The first entry and every entry reached by a loop closure are limit
    entries; every other entry was reached by a letter from the entry before
    it.  A limit entry records the indices of the loop entries its cascade
    closed on, and the component states those closures collapsed; the
    states recur in any later loop whose window contains the entry.

    The collapsed states of each component are kept as their interval: a
    closure widens one span [llo, lhi, rlo, rhi] from the minimum and
    maximum of its window and of the spans carried after it.  The interval
    is exactly the set of collapsed states, because the states that a
    component repeats cofinally in a loop are every state from the lowest
    to the highest of them.  Take a stretch of the loop from a visit of its
    lowest state to a later visit of its highest, and let m be the highest
    state visited so far in the stretch.  No transition goes past m + 1:
    - a successor from s goes to at most s + 1 (`SingleWordAutomaton`
      refuses any other when it is built);
    - a limit transition on (lo, hi) goes to hi + 1, and hi, repeated
      cofinally before the limit, was visited within the stretch;
    - the edges that `SharpAutomaton` adds go back (j -> i+1) or stay
      inside ({i+1..j} -> j).
    So m climbs one state at a time, and the stretch visits every state on
    the way."""

    def __init__(self, first: tuple[int, int]):
        self._lefts: list[int] = [first[0]]              # the pairs, by component
        self._rights: list[int] = [first[1]]
        self._index: dict[tuple[int, int], int] = {first: 0}
        self._limit_at: list[int] = [0]                  # limit entry indices, increasing
        self._cascades: list[tuple[int, ...]] = [()]
        # lo, hi of the collapsed states of limit entries 1, 2, ... by component
        self._carried_l: list[int] = []
        self._carried_r: list[int] = []
        self._limit_pos: list[Ordinal] = [ZERO]          # of the first limit entries

    def __len__(self) -> int:
        return len(self._lefts)

    @property
    def last_pair(self) -> tuple[int, int]:
        return self._lefts[-1], self._rights[-1]

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._lefts, self._rights))

    def lefts_paired_with(self, right: int) -> set[int]:
        """The left states of the pairs whose right state is `right`."""
        return set(compress(self._lefts, map(right.__eq__, self._rights)))

    def collect_loop(self, idx: int, span: list[int]) -> None:
        """Widen span, [llo, lhi, rlo, rhi], to the component states of the
        loop that entry idx opens: the pairs from idx on, and the spans
        carried by the limit entries after idx."""
        k = 2 * (bisect_right(self._limit_at, idx) - 1)
        lefts = self._lefts[idx:]
        lefts += self._carried_l[k:]
        lefts += span[:2]
        rights = self._rights[idx:]
        rights += self._carried_r[k:]
        rights += span[2:]
        span[:] = min(lefts), max(lefts), min(rights), max(rights)

    def append_limit(self, pair, cascade: tuple[int, ...], span: list[int]) -> None:
        if pair in self._index:
            raise TraceError(f"pair {pair} repeated in trace")
        self._index[pair] = len(self._lefts)
        self._limit_at.append(len(self._lefts))
        self._lefts.append(pair[0])
        self._rights.append(pair[1])
        self._cascades.append(cascade)
        self._carried_l += span[:2]
        self._carried_r += span[2:]

    def position(self, i: int) -> Ordinal:
        """Ordinal position at which the run first reached entry i (negative
        i counts from the end).  A limit entry's position depends only on
        earlier entries, so the missing ones are derived in order and kept."""
        if i < 0:
            i += len(self._lefts)
        if not 0 <= i < len(self._lefts):
            raise IndexError(f"trace entry {i} out of range")
        for k in range(len(self._limit_pos), bisect_right(self._limit_at, i)):
            pos = self._derived(self._limit_at[k] - 1) + ONE
            for entry in self._cascades[k]:
                entry_pos = self._derived(entry)
                pos = entry_pos + sub_left(entry_pos, pos) * OMEGA
            self._limit_pos.append(pos)
        return self._derived(i)

    def _derived(self, i: int) -> Ordinal:
        """Position of entry i, once the limit entry at or before it is known."""
        k = bisect_right(self._limit_at, i) - 1
        return self._limit_pos[k] + Ordinal.from_int(i - self._limit_at[k])


# The outcomes of a step are plain slotted classes: a frozen dataclass's
# __init__ costs about twice as much, once per letter or divergence.

class Advanced:
    __slots__ = ("pair",)

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair


class LoopClosed:
    """A repeated pair (`entry`) closed a loop; the cascade of limit
    transitions reached `pair` and collapsed the states llo..lhi of the
    left component and rlo..rhi of the right, span = [llo, lhi, rlo, rhi]."""
    __slots__ = ("pair", "entry", "span")

    def __init__(self, pair: tuple[int, int], entry: tuple[int, int], span: list[int]):
        self.pair = pair
        self.entry = entry
        self.span = span


class Diverged:
    __slots__ = ("left_letter", "right_letter")

    def __init__(self, left_letter: str, right_letter: str):
        self.left_letter = left_letter
        self.right_letter = right_letter


class LeftEnded:
    __slots__ = ("right_letter",)

    def __init__(self, right_letter: str):
        self.right_letter = right_letter


class RightEnded:
    __slots__ = ("left_letter",)

    def __init__(self, left_letter: str):
        self.left_letter = left_letter


class BothEnded:
    __slots__ = ()


def sync_step(left, right, trace: Trace):
    """Advance the product run by one letter (or one limit resolution)."""
    trace_lefts = trace._lefts
    step_l = left.leaving(trace_lefts[-1])
    step_r = right.leaving(trace._rights[-1])
    if step_l is None and step_r is None:
        return BothEnded()
    if step_l is None:
        return LeftEnded(step_r[0])
    if step_r is None:
        return RightEnded(step_l[0])
    (a, target_l), (b, target_r) = step_l, step_r
    if a != b:
        return Diverged(a, b)
    pair = (target_l, target_r)
    index = trace._index
    if pair not in index:
        index[pair] = len(trace_lefts)
        trace_lefts.append(target_l)
        trace._rights.append(target_r)
        return Advanced(pair)
    # a repeated pair closes a loop; nested loops may cascade when the run
    # entered an outer loop mid-cycle.  Each closure's states include those
    # of the closures before it.  The repeated pair lies in the first
    # window, so its states start the span.
    first_entry = pair
    span = [target_l, target_l, target_r, target_r]
    cascade: list[int] = []
    while pair in index:
        idx = index[pair]
        cascade.append(idx)
        trace.collect_loop(idx, span)
        pair = (left.limit_target(span[0], span[1]), right.limit_target(span[2], span[3]))
    trace.append_limit(pair, tuple(cascade), span)
    return LoopClosed(pair, first_entry, span)


def run_to_divergence(left, right):
    """Run the product from the two initial states until the components read
    different letters or at least one ends.  Returns (trace, outcome)."""
    trace = Trace((left.initial, right.initial))
    budget = (left.n + 1) * (right.n + 1) + 1
    while True:
        if budget < 0:
            raise TraceError("product run exceeded its step budget")
        budget -= 1
        outcome = sync_step(left, right, trace)
        if isinstance(outcome, (Advanced, LoopClosed)):
            continue
        return trace, outcome
