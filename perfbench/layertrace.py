"""Per-layer spans and counters for the traced benchmark run.

The wrappers replace the module-level names that each ratword layer exports,
in every ratword module that binds them, so calls between layers pass
through a span.  Nothing in the program's sources changes; `restore` puts
every original back before an untraced run.

A span records its duration; a layer's self time is the duration of its
spans minus the part covered by their child spans (spans opened inside
them).  Spans are aggregated in memory by name rather than kept one by one:
the tower workload makes millions of `sync_step` calls.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("expr", "duplication", "automaton", "factorizer", "runner", "order",
          "structural")


class Tracer:
    def __init__(self, modules):
        self.modules = list(modules)
        self.calls: Counter[str] = Counter()
        self.span_s: defaultdict[str, float] = defaultdict(float)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, name: str, after=None, recursive: bool = False) -> None:
        """Trace calls to `owner.name` as span "<layer>.<name>", the layer
        being the owner's module.  `after(args, result)` may add counts; its
        cost is kept out of every layer's self time.  For a recursive
        function the owner's own binding stays unwrapped, so one span covers
        a whole recursion."""
        original = getattr(owner, name)
        layer = owner.__name__.rsplit(".", 1)[-1]
        key = f"{layer}.{name}"
        calls, span_s, self_s, stack = self.calls, self.span_s, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            calls[key] += 1
            child = [0.0]
            stack.append(child)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                span_s[key] += elapsed
                self_s[layer] += elapsed - child[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                start = perf_counter()
                after(args, result)
                if stack:
                    stack[-1][0] += perf_counter() - start
            return result

        wrapper.__wrapped__ = original
        wrapper.layertrace_wrapper = True
        for module in self.modules:
            if recursive and module is owner:
                continue
            if vars(module).get(name) is original:
                setattr(module, name, wrapper)
                self._patched.append((module, name, original))

    def restore(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def leftovers(self) -> list[str]:
        """Names still bound to a wrapper; empty after a complete restore."""
        return [f"{module.__name__}.{name}" for module in self.modules
                for name, value in vars(module).items()
                if getattr(value, "layertrace_wrapper", False)]


def install(tracer: Tracer, rw) -> None:
    """Span every layer boundary the per-layer metrics need."""
    size = rw.duplication.size

    def count_tau(args, dup):
        tracer.counts["expr_tokens"] += size(args[0])
        tracer.counts["tau_tokens"] += size(dup)

    def count_marking(args, state):
        tracer.counts["states"] += args[0].n
        tracer.counts["steps"] += state.steps

    def count_loop(args, outcome):
        if type(outcome).__name__ == "LoopClosed":
            tracer.counts["loop_closures"] += 1

    tracer.wrap(rw.expr, "parse_expr")
    tracer.wrap(rw.expr, "as_finite_word", recursive=True)
    tracer.wrap(rw.duplication, "tau", after=count_tau, recursive=True)
    tracer.wrap(rw.automaton, "compile_expr")
    tracer.wrap(rw.automaton, "validate")
    tracer.wrap(rw.automaton, "SharpAutomaton")
    tracer.wrap(rw.automaton, "expr_of_range")
    tracer.wrap(rw.factorizer, "factorize")
    tracer.wrap(rw.factorizer, "factorize_states", after=count_marking)
    tracer.wrap(rw.factorizer, "extract_factorization")
    tracer.wrap(rw.runner, "sync_step", after=count_loop)
    tracer.wrap(rw.runner, "run_to_divergence")
    tracer.wrap(rw.order, "compare")
    tracer.wrap(rw.structural, "factorize_structural")
    tracer.wrap(rw.structural, "fact_product")
    tracer.wrap(rw.structural, "concat_pp")
    tracer.wrap(rw.structural, "fact_omega")
    tracer.wrap(rw.structural, "circular_fact")


def count_cases(rw, texts) -> Counter:
    """Marking-case counts (1a ... 3) over one pass of the automaton engine,
    taken from `keep_log=True`.  Each log record is counted and dropped at
    once, so the log costs time but no memory.  Inputs that raise were
    already counted as failures by the timed passes and are skipped."""
    cases: Counter[str] = Counter()
    original = rw.factorizer.StepRecord

    def record(case, history):
        cases[case] += 1

    rw.factorizer.StepRecord = record
    try:
        for text in texts:
            try:
                rw.factorizer.factorize(rw.expr.parse_expr(text), keep_log=True)
            except Exception:  # noqa: BLE001
                continue
    finally:
        rw.factorizer.StepRecord = original
    return cases


def profiled_calls(function, call) -> int:
    """Independent call count of `function`, from the interpreter's profile
    hook instead of a wrapper."""
    code = function.__code__
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(hook)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count
