"""Synchronized run of two word automata.

The product run reads one letter at a time while both components agree.  Its
trace is the repetition-free list of state pairs in first-visit order; when a
pair repeats, the loop just closed is resolved component-wise through limit
transitions.  `sync_step` runs the product from the trace's last pair to its
next stop, where the components read different letters or one or both end,
in one loop that resolves every loop closure on the way, and crosses each
diagonal stretch of tau's copies in one step (see `Trace`), as the Lyndon
factorization of compressed text crosses a repeated factor at once (I,
Nakashima, Inenaga, Bannai and Takeda, TCS 2016).  Its name is kept because
the benchmark's layer trace (`perfbench/layertrace.py`) wraps
`runner.sync_step` by name.

The trace stores neither the ordinal position at which each pair was first
reached, which `Trace.position` derives when asked, nor the states that a
closure collapses (see `Trace`).

`sync_step` is the package's one walk along transitions: `suffix_word` and
`primitive_root` read a word's suffixes and prefix lengths off the trace of
its automaton run against itself, and `prime_witness` compares each suffix
with the word by such a run."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import compress, count
from operator import ne

from .ordinal import Ordinal, sub_left, OMEGA, ONE, ZERO


# the least stretch `sync_step` crosses in one step: below about this many
# tokens the letter-by-letter loop costs less than setting a stretch up
STRETCH_MIN = 32


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
    w-token hi, with the step (a, d), tops exactly one loop interval,
    [hi + d, hi], and no other state tops one; in a sharp, a window topped
    by j is [i+1, j], because `retarget` refuses an i inside a loop.  The
    lower end and the absence of gaps make the window that loop's whole
    interval; the tests check both against a lookup of the whole interval.

    The last closure of a cascade opens its earliest loop, so its window
    holds every other window of the cascade, and `closures` reads the top
    of each limit entry's collapsed states from it.

    The entries' pairs are listed by component in `_lefts` and `_rights`.
    A pair the run reached step by step is indexed in the dict `_index`;
    the pairs (s + 1, t + 1)..(s + k, t + k) of a diagonal stretch from the
    pair (s, t) at entry e, at the entries e + 1..e + k, are kept as the
    one segment (s + 1, s + k, e + 1) of the diagonal s - t in
    `_segments`.  `entry` looks a pair up in both.

    When both components read one word's steps (the marking run, and a
    word's run against itself), tau's copies make long diagonal stretches.
    After each loop closure `sync_step` crosses one of at least STRETCH_MIN
    steps at once, by slices and list operations; a shorter one is left to
    the letter-by-letter run.  From the pair (s, t) at entry e, a stretch
    of k steps takes the step from (s + q, t + q) for q = 0..k-1 while:
    - the steps s + q and t + q are equal, so they read one letter and lead
      alike: a letter one state up, an w-token back by its body's token
      count less one;
    - neither s + q nor t + q is its component's jump state or final state;
    - the back edge of an w-token s + q lands at or after s;
    - the pair reached, (s + q + 1, t + q + 1), is not in the trace yet.
    The letter-by-letter run makes the same entries, by induction on q.  At
    (s + q, t + q), the entry e + q, a letter leads to the new pair
    (s + q + 1, t + q + 1).  An w-token whose back edge goes d <= 0 states
    back, the same d in both components, with q + d >= 0, leads to
    (s + q + d, t + q + d), the entry e + q + d, so a loop closes.  Its
    window, the entries e + q + d..e + q, has the greatest states s + q and
    t + q, both w-tokens, so each component takes the limit to the next
    state: for a sharp, t + q < j, and the limit to t + q + 1 <= j stays
    inside it.  That pair is new, so the cascade is the one entry
    e + q + d, and the limit entry is (s + q + 1, t + q + 1).  So a stretch
    appends k consecutive pairs, and for each w-token s + r with back edge
    s + r -> lo the limit entry e + r + 1 with the cascade (e + lo - s,)."""

    def __init__(self, first: tuple[int, int]):
        self._lefts: list[int] = [first[0]]              # the pairs, by component
        self._rights: list[int] = [first[1]]
        self._index: dict[tuple[int, int], int] = {first: 0}
        # the stretches, by diagonal s - t: (s_lo, s_hi, entry of s_lo), by s_lo
        self._segments: dict[int, list[tuple[int, int, int]]] = {}
        self._indexed_top = -1       # the greatest left state of _index ...
        self._indexed_upto = 0       # ... among the entries before this one
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
        if self._indexed_upto:       # a stretch was looked for
            self._segments.clear()
            self._indexed_top, self._indexed_upto = -1, 0
        del self._limit_at[1:], self._cascades[1:], self._limit_pos[1:]

    def __len__(self) -> int:
        return len(self._lefts)

    def entry(self, pair: tuple[int, int]) -> int | None:
        """The index of the entry holding `pair`, None if the run has not
        reached it: looked up among the entries the run made step by step,
        then among the stretches on the pair's diagonal."""
        idx = self._index.get(pair)
        if idx is None and self._segments:
            s, t = pair
            segments = self._segments.get(s - t)
            if segments:
                k = bisect_left(segments, (s + 1,))
                if k:
                    lo, hi, first = segments[k - 1]
                    if s <= hi:
                        return first + s - lo
        return idx

    def _unseen(self, s: int, t: int, k: int) -> int:
        """How many of the pairs (s + q, t + q), q = 1..k, come before the
        first one the trace holds."""
        segments = self._segments.get(s - t)
        if segments:
            pos = bisect_left(segments, (s + 1,))
            if pos and segments[pos - 1][1] > s:
                return 0
            if pos < len(segments):
                k = min(k, segments[pos][0] - s - 1)
        # every entry since the last stretch is in _index
        lefts = self._lefts
        top = self._indexed_top = max(self._indexed_top,
                                      max(lefts[self._indexed_upto:], default=-1))
        self._indexed_upto = len(lefts)
        if top > s:
            end = min(s + k, top)
            held = map(self._index.__contains__, zip(range(s + 1, end + 1), count(t + 1)))
            k = next(compress(count(), held), k)
        return k

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
    letters that differ, or None for a component at its final state.  The
    step (a, d) leaving s, to s + d, is the automaton's `back` when s is its
    `jump` state and `table[s]` otherwise (None at the final state), so a
    letter costs no Python call.  After each loop closure the run crosses the
    diagonal stretch that follows, if any, in one step (see `Trace`)."""
    lefts, rights, index = trace._lefts, trace._rights, trace._index
    segments = trace._segments
    ltable, ljump, lback = left.table, left.jump, left.back
    rtable, rjump, rback = right.table, right.jump, right.back
    s, t = lefts[-1], rights[-1]
    while True:
        step_l = lback if s == ljump else ltable[s]
        step_r = rback if t == rjump else rtable[t]
        if step_l is None or step_r is None:
            return (None if step_l is None else step_l[0],
                    None if step_r is None else step_r[0])
        a, d = step_l
        b, e = step_r
        if a != b:
            return a, b
        s, t = s + d, t + e
        pair = (s, t)
        if pair not in index and not (segments and trace.entry(pair) is not None):
            index[pair] = len(lefts)
            lefts.append(s)
            rights.append(t)
            continue
        # a repeated pair closes a loop; nested loops may cascade when the
        # run entered an outer loop mid-cycle.  Each closure collapses the
        # loop named by the greatest state of its window, the pairs from
        # its entry on.
        # until the run crosses a stretch, every pair is in the dict
        find = trace.entry if segments else index.get
        cascade = []
        while (idx := find(pair)) is not None:
            cascade.append(idx)
            s = left.limit_target(max(lefts[idx:]))
            t = right.limit_target(max(rights[idx:]))
            pair = (s, t)
        index[pair] = len(lefts)
        trace._limit_at.append(len(lefts))
        lefts.append(s)
        rights.append(t)
        trace._cascades.append(tuple(cascade))
        # a stretch is looked for when both components read one word's
        # steps, and one shorter than STRETCH_MIN is left to the loop above
        if ltable is rtable and ltable[s:s + STRETCH_MIN] == ltable[t:t + STRETCH_MIN]:
            k = _cross_stretch(left, right, trace)
            s += k
            t += k


def _cross_stretch(left, right, trace: Trace) -> int:
    """Cross the diagonal stretch from the trace's last pair (s, t), append
    its entries and return its length k, 0 if there is none (see `Trace`).
    Both components read the same `table`, whose first STRETCH_MIN steps
    from s and from t agree."""
    lefts, rights = trace._lefts, trace._rights
    base = len(lefts) - 1
    s, t = lefts[base], rights[base]
    final = len(left.table) - 1
    k = min(_end(left.jump, final) - s, _end(right.jump, final) - t)
    if k < STRETCH_MIN:
        return 0
    k = STRETCH_MIN + _agreeing(left.table, s + STRETCH_MIN, t + STRETCH_MIN, k - STRETCH_MIN)
    tops, lows = left.loop_tops, left.loop_lows
    first = bisect_left(tops, s)
    end = bisect_left(tops, s + k, first)
    # the first back edge landing before s ends the stretch before its token
    cut = next(compress(range(first, end), map(s.__gt__, lows[first:end])), None)
    if cut is not None:
        k, end = tops[cut] - s, cut
    k = trace._unseen(s, t, k)
    if not k:
        return 0
    end = bisect_left(tops, s + k, first, end)
    lefts.extend(range(s + 1, s + k + 1))
    rights.extend(range(t + 1, t + k + 1))
    trace._indexed_upto = len(lefts)
    # w-token s + r closes its loop at once, on the entry its back edge
    # lands on, and reaches the limit entry s + r + 1
    trace._limit_at.extend(map((base + 1 - s).__add__, tops[first:end]))
    trace._cascades.extend(zip(map((base - s).__add__, lows[first:end])))
    insort(trace._segments.setdefault(s - t, []), (s + 1, s + k, base + 1))
    return k


def _end(jump: int, final: int) -> int:
    """The state before which a stretch stops: the jump state, if any, and
    the final state."""
    return min(jump, final) if jump >= 0 else final


def _agreeing(table: tuple, s: int, t: int, k: int) -> int:
    """The length of the common prefix of table[s:s+k] and table[t:t+k]:
    slices that double in length are compared until one differs, and
    that one is scanned for the first step that differs."""
    lo, step = 0, 32
    while lo < k:
        hi = min(lo + step, k)
        if table[s + lo:s + hi] != table[t + lo:t + hi]:
            return next(compress(count(lo), map(ne, table[s + lo:s + hi],
                                                table[t + lo:t + hi])))
        lo, step = hi, 2 * step
    return k


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
