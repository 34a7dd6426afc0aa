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
reached it, so `Trace.position` derives a position only when asked.  Nor
does it store the states that a closure collapses: in each component they
are the loop named by the greatest state of the closure's own window (see
`Trace`).

`sync_step` is the package's one walk along transitions: `suffix_word` and
`primitive_root` read a word's suffixes and prefix lengths off the trace of
its automaton run against itself, and `prime_witness` compares each suffix
with the word by such a run."""

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
    closed on.  Each letter and each loop closure of the run adds one entry.

    A closure on entry idx collapses, in each component, the states of its
    window, the entries from idx on: every state from the least to the
    greatest of them, and no other.  Below, for the left component (the
    right one is the same).

    The interval has no gaps, because the states that a component repeats
    cofinally in a loop are every state from the lowest to the highest of
    them.  Take a stretch of the loop from a visit of its lowest state to a
    later visit of its highest, and let h be the highest state visited so
    far in the stretch.  No transition goes past h + 1:
    - a successor from s goes to at most s + 1 (`SingleWordAutomaton`
      refuses any other when it is built);
    - a limit transition on (lo, hi) goes to hi + 1, and hi, repeated
      cofinally before the limit, was visited within the stretch;
    - the edges that `SharpAutomaton` adds go back (j -> i+1) or stay
      inside ({i+1..j} -> j).
    So h climbs one state at a time, and the stretch visits every state on
    the way.

    The window alone holds both ends, though a limit entry m after idx
    stands for the states [lo_m, hi_m] that its own closures collapsed,
    which recur in the loop too.  If m's last closure opened at idx_m >=
    idx, its window lies in ours.  Otherwise idx_m < idx < m, so lefts[idx]
    lies in [lo_m, hi_m], and lefts[m] = hi_m + 1 lies in our window: that
    is the upper end.  For the lower end: to repeat the pair at idx, the
    run must first step from above hi_m to at most hi_m.  A limit
    transition cannot do that, so the step is a back edge s -> b+1 of an
    w-body, with b+1 <= hi_m < s.  That body's interval [b+1, s] meets
    [lo_m, hi_m], and limit intervals nest, so b+1 <= lo_m; the sharp's own
    back edge goes to i+1, its least state.  The state the edge lands on is
    in our window, so the window's minimum is at most lo_m.

    `sync_step` relies on the upper end alone: it reads each closure's loop
    off the greatest state of its window.  In a `SingleWordAutomaton` each
    w-token hi tops exactly one loop interval, [succ[hi][1], hi], and no
    other state tops one; in a sharp, a window topped by j is [i+1, j],
    because `retarget` refuses an i inside a loop.  The lower end and the
    absence of gaps make the window that loop's whole interval; the tests
    check both against a lookup of the whole interval.

    The last closure of a cascade opens its earliest loop, so its window
    holds every other window of the cascade, and `closures` reads the top
    of each limit entry's collapsed states from it."""

    def __init__(self, first: tuple[int, int]):
        self._lefts: list[int] = [first[0]]              # the pairs, by component
        self._rights: list[int] = [first[1]]
        self._index: dict[tuple[int, int], int] = {first: 0}
        self._limit_at: list[int] = [0]                  # limit entry indices, increasing
        self._cascades: list[tuple[int, ...]] = [()]
        self._limit_pos: list[Ordinal] = [ZERO]          # of the first limit entries

    def reset(self, first: tuple[int, int]) -> None:
        """Start the trace over from the pair `first`, in place, holding
        what a new Trace(first) holds: no position derived on the earlier
        run is kept.  The first entry is a limit entry with an empty cascade
        at position 0 in every trace, so each list keeps its first item."""
        del self._lefts[1:], self._rights[1:]
        self._lefts[0], self._rights[0] = first
        self._index.clear()
        self._index[first] = 0
        del self._limit_at[1:], self._cascades[1:], self._limit_pos[1:]

    def __len__(self) -> int:
        return len(self._lefts)

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self._lefts, self._rights))

    def lefts_paired_with(self, right: int) -> set[int]:
        """The left states of the pairs whose right state is `right`."""
        return set(compress(self._lefts, map(right.__eq__, self._rights)))

    def closures(self):
        """(entry, top) for each limit entry after the first: its index and
        the greatest right state its cascade collapsed, the top of its last
        closure's window."""
        rights = self._rights
        for m, cascade in zip(self._limit_at[1:], self._cascades[1:]):
            yield m, max(rights[cascade[-1]:m])

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


def sync_step(left, right, trace: Trace):
    """Run the product from the trace's last pair to its next stop and
    return it as the pair (left letter, right letter) read there: two
    letters that differ, or None for a component at its final state.  A
    transition leaving s is the automaton's `back` when s is its `jump`
    state and `table[s]` otherwise (None at the final state), so a letter
    costs no Python call."""
    lefts, rights, index = trace._lefts, trace._rights, trace._index
    ltable, ljump, lback = left.table, left.jump, left.back
    rtable, rjump, rback = right.table, right.jump, right.back
    s, t = lefts[-1], rights[-1]
    while True:
        step_l = lback if s == ljump else ltable[s]
        step_r = rback if t == rjump else rtable[t]
        if step_l is None or step_r is None:
            return (None if step_l is None else step_l[0],
                    None if step_r is None else step_r[0])
        a, s = step_l
        b, t = step_r
        if a != b:
            return a, b
        pair = (s, t)
        if pair not in index:
            index[pair] = len(lefts)
            lefts.append(s)
            rights.append(t)
            continue
        # a repeated pair closes a loop; nested loops may cascade when the
        # run entered an outer loop mid-cycle.  Each closure collapses the
        # loop named by the greatest state of its window, the pairs from
        # its entry on.
        cascade = []
        while pair in index:
            idx = index[pair]
            cascade.append(idx)
            s = left.limit_target(max(lefts[idx:]))
            t = right.limit_target(max(rights[idx:]))
            pair = (s, t)
        index[pair] = len(lefts)
        trace._limit_at.append(len(lefts))
        lefts.append(s)
        rights.append(t)
        trace._cascades.append(tuple(cascade))


def run_to_divergence(left, right):
    """Run the product from the two initial states until the components read
    different letters or at least one ends.  Returns the trace and the
    stop, the pair of letters read there (see `sync_step`).

    The run cannot go on for ever: each letter adds a pair the trace has
    not seen, and a cascade of closures ends, because on a
    `SingleWordAutomaton` a closure's limit target hi + 1 lies past every
    state of its window, so each closure of a cascade opens an earlier
    loop.  So the trace never holds more than the (left.n + 1) *
    (right.n + 1) pairs of the product, the bound checked below."""
    trace = Trace((left.initial, right.initial))
    stop = sync_step(left, right, trace)
    if len(trace) > (left.n + 1) * (right.n + 1):
        raise TraceError("product run outgrew the pairs of the product")
    return trace, stop
