"""Command-line surface.

Exit codes: 0 success, 1 input error, 2 internal invariant failure or
engine disagreement.  An input error is a malformed expression, w-powers
nested MAX_NESTING deep or deeper, a duplicated expression past the
TAU_TOKENS budget of `duplication` (any command that runs the marking
engine), or an unreadable file or bad option value."""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from .automaton import AutomatonError, compile_expr, numbered_word, to_dot
from .duplication import TokenBudgetError, depth, tau
from .expr import ExprError, format_expr, parse_expr
from .factorizer import FactorizeError, factorize, marked_expression
from .gen import random_expr
from .oracles import prime_witness
from .order import Rel, compare, word_equal
from .ordinal import OrdinalError, format_ordinal
from .runner import TraceError
from .structural import StructuralError, factorize_structural


# A cost guard, not a recursion guard: at this w-nesting, prime_witness takes
# over half a minute (39 s on the 1000-deep (...(ab)^wb...)^wb, Python 3.11
# on 2 vCPUs), in the max that each loop closure of its product run from
# (0, q) takes over its window in each component, for every state q.
MAX_NESTING = 1000


class CliInputError(ValueError):
    pass


def _parse(text: str):
    try:
        e = parse_expr(text)
    except ExprError as err:
        raise CliInputError(str(err)) from None
    if depth(e) >= MAX_NESTING:
        raise CliInputError("expression nested too deeply")
    return e


def _factors_json(fact) -> list[dict]:
    return [{"prime": format_expr(p), "exponent": format_ordinal(a)} for p, a in fact.blocks]


def _factorization_json(text, dup, state, fact) -> dict:
    return {
        "input": text,
        "tau": format_expr(dup),
        "states": state.automaton.n + 1,
        "q_main": sorted(state.q_main),
        "q_secondary": sorted(state.q_secondary),
        "factors": _factors_json(fact),
        "steps": state.steps,
    }


def cmd_factorize(args) -> int:
    e = _parse(args.expr)
    fact = state = dup = None
    if args.engine in ("automaton", "both"):
        fact, state, dup = factorize(e, keep_log=args.trace)
    structural = None
    if args.engine in ("structural", "both"):
        structural = factorize_structural(e)
    if args.engine == "both" and not fact.same_as(structural):
        print(f"engine disagreement:\n  automaton:  {fact}\n  structural: {structural}",
              file=sys.stderr)
        return 2
    shown = fact if fact is not None else structural
    if args.json:
        if state is not None:
            print(json.dumps(_factorization_json(args.expr, dup, state, fact)))
        else:
            print(json.dumps({"input": args.expr, "factors": _factors_json(structural)}))
    else:
        print(shown)
    if args.marked:
        if state is None:
            fact, state, dup = factorize(e)
        print(marked_expression(dup, state.q_main, state.q_secondary))
    if args.trace and state is not None:
        for rec in state.log:
            pairs = ",".join(f"({k},{k2})" for k, k2 in rec.history)
            print(f"<{pairs}> case={rec.case}")
    return 0


def cmd_tau(args) -> int:
    print(format_expr(tau(_parse(args.expr))))
    return 0


def cmd_compile(args) -> int:
    e = _parse(args.expr)
    auto = compile_expr(e)
    if args.dot:
        print(to_dot(auto))
    else:
        print(numbered_word(e))
        print(f"states: {auto.n + 1}")
        for s, (letter, d) in enumerate(auto.table[:auto.n]):
            print(f"  {s} -{letter}-> {s + d}")
        for (lo, hi), target in sorted(auto.limits.items()):
            print(f"  {{{lo}..{hi}}} -> {target}")
    return 0


def cmd_compare(args) -> int:
    out = compare(_parse(args.left), _parse(args.right))
    if out.rel is Rel.EQUAL:
        print("=")
    elif out.letters is not None:
        print(f"{out.rel.value} at position {format_ordinal(out.position)} "
              f"({out.letters[0]} vs {out.letters[1]})")
    else:
        print(out.rel.value)
    return 0


def cmd_prime(args) -> int:
    witness = prime_witness(_parse(args.expr))
    if witness is None:
        print("prime")
    elif witness[0] == "root":
        _, root, alpha = witness
        print(f"not prime: equals ({format_expr(root)})^[{format_ordinal(alpha)}]")
    else:
        _, q, suffix = witness
        print(f"not prime: suffix at state {q} ({format_expr(suffix)}) is smaller")
    return 0


def cmd_batch(args) -> int:
    try:
        lines = Path(args.file).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as err:
        raise CliInputError(str(err)) from None
    for line in lines:
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        t0 = time.perf_counter()
        record: dict = {"input": text}
        try:
            fact, state, dup = factorize(_parse(text))
            record.update(_factorization_json(text, dup, state, fact))
            record["ok"] = True
        except Exception as err:  # noqa: BLE001 - errors never abort the batch
            record["ok"] = False
            record["error"] = str(err)
        record["ms"] = round((time.perf_counter() - t0) * 1000, 3)
        print(json.dumps(record))
    return 0


def cmd_selftest(args) -> int:
    if args.cases < 0:
        raise CliInputError(f"--cases must be non-negative, got {args.cases}")
    rng = random.Random(args.seed)
    bad = 0
    for case in range(args.cases):
        e = random_expr(rng, max_size=10, max_depth=3, letters="abc")
        try:
            fact, _, _ = factorize(e)
            structural = factorize_structural(e)
            if not fact.same_as(structural):
                bad += 1
                print(f"DISAGREE {format_expr(e)}: {fact} vs {structural}")
            elif not word_equal(fact.reconstruct(), e):
                bad += 1
                print(f"BAD RECONSTRUCTION {format_expr(e)}: {fact}")
        except Exception as err:  # noqa: BLE001
            bad += 1
            print(f"ERROR {format_expr(e)}: {err}")
    print(f"selftest: {args.cases - bad}/{args.cases} ok (seed {args.seed})")
    return 0 if bad == 0 else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratword",
        description="Prime (Lyndon) factorization of transfinite rational words.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factorize", help="factorize an expression")
    p.add_argument("expr")
    p.add_argument("--engine", choices=("automaton", "structural", "both"),
                   default="automaton")
    p.add_argument("--json", action="store_true")
    p.add_argument("--marked", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("tau", help="print the duplicated expression")
    p.add_argument("expr")
    p.set_defaults(func=cmd_tau)

    p = sub.add_parser("compile", help="show the compiled word automaton")
    p.add_argument("expr")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("compare", help="compare two words lexicographically")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("prime", help="test primality of a word")
    p.add_argument("expr")
    p.set_defaults(func=cmd_prime)

    p = sub.add_parser("batch", help="factorize expressions from a file, JSON lines out")
    p.add_argument("file")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("selftest", help="random differential test of both engines")
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliInputError, TokenBudgetError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (FactorizeError, StructuralError, AutomatonError, TraceError, OrdinalError,
            AssertionError) as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
