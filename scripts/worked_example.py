#!/usr/bin/env python3
"""Walk through the factorization of a rational word step by step.

Prints the duplicated expression, the compiled automaton, every history
snapshot of the marking run with its case label, the marked expression, and
the resulting prime factorization.

Usage: python3 scripts/worked_example.py ["(a^wb)^wa^w" ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ratword import factorize, format_expr, marked_expression, numbered_word, parse_expr


def show(text: str) -> None:
    e = parse_expr(text)
    fact, state, dup = factorize(e, keep_log=True)
    auto = state.automaton
    print(f"input:       {text}")
    print(f"duplicated:  {format_expr(dup)}")
    print(f"numbered:    {numbered_word(dup)}")
    print(f"states:      {auto.n + 1}")
    for s, (letter, target) in enumerate(auto.succ):
        print(f"  {s} -{letter}-> {target}")
    for (lo, hi), target in sorted(auto.limits.items()):
        print(f"  {{{lo}..{hi}}} -> {target}")
    print("run:")
    for rec in state.log:
        pairs = ",".join(f"({k},{k2})" for k, k2 in rec.history)
        print(f"  case {rec.case:<4} <{pairs}>")
    print(f"steps:       {state.steps} (budget n^3 = {auto.n ** 3})")
    print(f"main cuts:   {sorted(state.q_main)}")
    print(f"secondary:   {sorted(state.q_secondary)}")
    print(f"marked:      {marked_expression(dup, state.q_main, state.q_secondary)}")
    print(f"factors:     {fact}")
    print()


def main() -> int:
    inputs = sys.argv[1:] or ["(a^wb)^wa^w", "(bba)^w", "abaab"]
    for text in inputs:
        show(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
