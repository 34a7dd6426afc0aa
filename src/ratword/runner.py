"""Synchronized run of two word automata.

The product run reads one letter at a time while both components agree.  Its
trace is the repetition-free list of state pairs in first-visit order; when a
pair repeats, the loop just closed is resolved component-wise through limit
transitions.  `sync_step` runs the product from the trace's last pair to its
next stop, where the components read different letters or one or both end,
in one loop that resolves every loop closure on the way.  Its name is kept
because the benchmark's layer trace (`perfbench/layertrace.py`) wraps
`runner.sync_step` by name.

The trace does not store the ordinal position at which each pair was first
reached: a pair reached by a letter sits one past the pair before it, and a
pair reached by limit transitions keeps the loop entries of the cascade that
reached it, so `Trace.position` derives a position only when asked.  The
component states that a closure collapses are carried as intervals
`(lo, hi)`: see `Trace`."""

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
    Each letter and each loop closure of the run adds one entry.

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

    def closures(self):
        """(entry, rlo, rhi) for each limit entry after the first: its index
        and the interval of right states its cascade collapsed."""
        carried = self._carried_r
        return zip(self._limit_at[1:], carried[::2], carried[1::2])

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


# The stops of a run are plain slotted classes: a frozen dataclass's
# __init__ costs about twice as much.

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
    """Run the product from the trace's last pair to its next stop and
    return it: Diverged, LeftEnded, RightEnded or BothEnded, read from the
    trace's new last pair.  A transition leaving s is the automaton's
    `back` when s is its `jump` state and `table[s]` otherwise (None at the
    final state), so a letter costs no Python call."""
    lefts, rights, index = trace._lefts, trace._rights, trace._index
    ltable, ljump, lback = left.table, left.jump, left.back
    rtable, rjump, rback = right.table, right.jump, right.back
    s, t = lefts[-1], rights[-1]
    while True:
        step_l = lback if s == ljump else ltable[s]
        step_r = rback if t == rjump else rtable[t]
        if step_l is None:
            return BothEnded() if step_r is None else LeftEnded(step_r[0])
        if step_r is None:
            return RightEnded(step_l[0])
        a, s = step_l
        b, t = step_r
        if a != b:
            return Diverged(a, b)
        pair = (s, t)
        if pair not in index:
            index[pair] = len(lefts)
            lefts.append(s)
            rights.append(t)
            continue
        # a repeated pair closes a loop; nested loops may cascade when the
        # run entered an outer loop mid-cycle.  Each closure widens the span
        # of collapsed states with its window (the pairs from its entry on)
        # and the spans carried by the limit entries after the entry, so it
        # includes the states of the closures before it.  The repeated pair
        # lies in the first window, so its states start the span.
        limit_at, carried_l, carried_r = trace._limit_at, trace._carried_l, trace._carried_r
        llo = lhi = s
        rlo = rhi = t
        cascade = []
        while pair in index:
            idx = index[pair]
            cascade.append(idx)
            k = 2 * (bisect_right(limit_at, idx) - 1)
            states = lefts[idx:]
            states += carried_l[k:]
            states += (llo, lhi)
            llo, lhi = min(states), max(states)
            states = rights[idx:]
            states += carried_r[k:]
            states += (rlo, rhi)
            rlo, rhi = min(states), max(states)
            pair = (left.limit_target(llo, lhi), right.limit_target(rlo, rhi))
        s, t = pair
        index[pair] = len(lefts)
        limit_at.append(len(lefts))
        lefts.append(s)
        rights.append(t)
        trace._cascades.append(tuple(cascade))
        carried_l += (llo, lhi)
        carried_r += (rlo, rhi)


def run_to_divergence(left, right):
    """Run the product from the two initial states until the components read
    different letters or at least one ends.  Returns (trace, outcome).

    The run cannot go on for ever: each letter adds a pair the trace has
    not seen, and a cascade of closures ends, because on a
    `SingleWordAutomaton` a closure's limit target hi + 1 lies past every
    state of its window, so each closure of a cascade opens an earlier
    loop.  So the trace never holds more than the (left.n + 1) *
    (right.n + 1) pairs of the product, the bound checked below."""
    trace = Trace((left.initial, right.initial))
    outcome = sync_step(left, right, trace)
    if len(trace) > (left.n + 1) * (right.n + 1):
        raise TraceError("product run outgrew the pairs of the product")
    return trace, outcome
