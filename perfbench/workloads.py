"""Seeded inputs of the benchmark workloads.

Each workload is a list of batches of expression texts, made from the seed
alone; the program under test receives only these texts.  Why each workload exists:

- corpus: many small mixed inputs (the distribution of acceptance criterion 4),
  so per-call overhead, compile/extract and the transfinite product runs of
  `compare` lead; about half the inputs repeat earlier ones, so the
  `lru_cache` hit path does real work.
- finite: long finite words; the structural engine's `compare`/`concat_pp`
  path dominates and grows about quadratically, while `tau`, limits and the
  overlap scan of `validate` are bypassed.  No input repeats.
- tower: omega-towers of depth 6-11, so `tau` blow-up, `compile_expr` with
  `validate`, and marking dominate the automaton engine while the structural
  engine does almost nothing.  No input repeats.
"""

from __future__ import annotations

import random

CORPUS_BATCH = 3000
CORPUS_GROUPS = 12
FINITE_LENGTHS = (100, 200, 400, 800, 1600)   # the count halves as the length doubles
FINITE_GROUPS = 24
TOWER_DEPTHS = tuple(range(6, 12))
TOWER_GROUPS = 24
LETTERS = "abc"


def tower(letters: str) -> str:
    """(...((ac)^w x1)^w x2 ...)^w xd for the letters x1..xd."""
    text = "ac"
    for x in letters:
        text = f"({text})^w{x}"
    return text


def random_word(rng: random.Random, length: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(length))


# Each maker returns batches of inputs.  A batch is the unit an engine pass
# runs with cold caches.  Batches of one workload have the same make-up, so
# a run that stops part way through a cycle of batches still measures the
# workload's mix.

def corpus(rw, rng: random.Random) -> list[list[str]]:
    """CORPUS_GROUPS batches of CORPUS_BATCH draws; repeats within a batch
    hit the caches, about 51% of the draws.  The structural engine's median
    latency sits where its latency distribution climbs steeply, about 13%
    per percentile point, so it moves with the share of cheap inputs a seed
    draws; 36000 draws in all, and the smoothed median of run.py, keep that
    seed-to-seed movement small."""
    return [[rw.expr.format_expr(rw.gen.random_expr(rng, max_size=12, max_depth=3,
                                                    letters=LETTERS))
             for _ in range(CORPUS_BATCH)]
            for _ in range(CORPUS_GROUPS)]


def finite(rw, rng: random.Random) -> list[list[str]]:
    """FINITE_GROUPS batches of 31 words: 16 of length 100 down to 1 of 1600.
    The structural engine's cost on a word grows with the square of its
    longest Lyndon factor, which varies about threefold between random words
    of one length, so the few longest words of a seed set its figures; 24
    groups rather than 12 cut the seed-to-seed spread of the tail by about
    a third."""
    batches = []
    for _ in range(FINITE_GROUPS):
        words = [random_word(rng, length)
                 for step, length in enumerate(FINITE_LENGTHS)
                 for _ in range(1 << (len(FINITE_LENGTHS) - 1 - step))]
        rng.shuffle(words)
        batches.append(words)
    return batches


def towers(rw, rng: random.Random) -> list[list[str]]:
    """TOWER_GROUPS batches with one tower of each depth.  The cost of a
    tower depends mostly on how many of its letters are the least one, a,
    and where they stand: over all depth-6 towers the structural engine's
    time varies by 46% (coefficient of variation), 32% among towers with
    two letters of each kind.  So the letters of one depth are laid out
    balanced both ways: each tower has a, b and c equally often (up to
    one), and so has each letter position across the batches.  Towers come
    in threes that share a seed-drawn order of positions, letter i of the
    j-th of them being LETTERS[(order[i] + j) % 3]; the batches take them
    in a seed-drawn order.  Over five seeds this cut the spread of the
    structural engine's median from about 0.12 to about 0.07."""
    letters = {}
    for depth in TOWER_DEPTHS:
        rows = []
        while len(rows) < TOWER_GROUPS:
            order = list(range(depth))
            rng.shuffle(order)
            rows += ["".join(LETTERS[(i + j) % len(LETTERS)] for i in order)
                     for j in range(len(LETTERS))]
        rows = rows[:TOWER_GROUPS]
        rng.shuffle(rows)
        letters[depth] = rows
    return [[tower(letters[depth][k]) for depth in TOWER_DEPTHS]
            for k in range(TOWER_GROUPS)]


MAKERS = {"corpus": corpus, "finite": finite, "tower": towers}


def make(name: str, rw, seed: int) -> list[list[str]]:
    return MAKERS[name](rw, random.Random(f"{name}:{seed}"))


# Inputs outside the timed workloads.  Each robustness row runs once per
# engine under a wall-clock limit; `expected` is the known answer, and an
# engine that answers must give exactly it.
ROBUSTNESS_ROWS = (
    ("paren3000", "(" * 3000 + "a" + ")" * 3000, "a^[1]"),
    ("tower30", "(" * 30 + "ab" + ")^w" * 30, "(ab)^[w^30]"),
)

SCALING_FINITE_LENGTHS = (100, 200, 400, 800, 1600, 3200)
SCALING_TOWER_DEPTHS = tuple(range(4, 13))


def scaling_points(seed: int) -> list[tuple[str, int, str]]:
    """(curve, x, text) for the scaling curves: one random finite word per
    length, one tower per depth."""
    rng = random.Random(f"scaling:{seed}")
    points = [("finite_length", n, random_word(rng, n)) for n in SCALING_FINITE_LENGTHS]
    points += [("tower_depth", d, tower(random_word(rng, d))) for d in SCALING_TOWER_DEPTHS]
    return points
