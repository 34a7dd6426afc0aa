#!/usr/bin/env python3
"""Benchmark of the two ratword factorization engines.

    python3 perfbench/run.py --workload {corpus,finite,tower} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout: the program is imported from
./src.  The load is a closed loop with one client, the shape of
`ratword batch`.  An engine pass runs parse_expr -> factorize (or
parse_expr -> factorize_structural) on every input of the workload, one
after another, starting with cleared caches as every CLI call and every fresh
batch does.  The workload's batches are run in turn, each by one pass of
each engine, until --seconds of measuring are spent and every batch ran at
least once.  Outputs are checked after the timed passes.  Every time
reported is scaled to one host speed by the gauge in gauge.py, read between
engine calls.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics of one run in which every layer boundary is a span (see
layertrace.py), its overhead against an untraced segment of the same run,
marking-case counts and scaling curves.  Lines before the last one give the
run context; the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gauge
import layertrace
import workloads

ROOT = Path(__file__).resolve().parent.parent
ENGINES = ("automaton", "structural")
MODULES = ("expr", "gen", "duplication", "automaton", "runner", "order",
           "factorizer", "structural", "oracles")
SETUP_REPEATS = 5
# p99.9 is left out: on the corpus it is set by the few heaviest expressions
# a seed happens to draw, and one seed in five doubled it.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
WALL_LIMIT_S = 2.0
SCALING_LIMIT_S = 30.0
SELF_CHECK_INPUT = "(ab)^wb(ab)^wa^wc(ba)^w"

END_TO_END = {
    "automaton_inputs_per_s": "1/s",
    "structural_inputs_per_s": "1/s",
    "automaton_p50_ms": "ms",
    "automaton_tail_ms": "ms",
    "structural_p50_ms": "ms",
    "structural_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WallLimit(BaseException):
    """Raised by SIGALRM; a BaseException so that no `except Exception` in
    the program under test swallows it."""


# -- loading the program ------------------------------------------------------

def load_program():
    """Import ratword afresh from ./src and return its modules by name."""
    src = ROOT / "src"
    if not (src / "ratword" / "__init__.py").is_file():
        raise SystemExit(f"error: no ratword sources under {src}; "
                         "run from the root of a source checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "ratword" or n.startswith("ratword.")]:
        del sys.modules[name]
    package = importlib.import_module("ratword")
    if Path(package.__file__).resolve().parent != (src / "ratword").resolve():
        raise SystemExit(f"error: imported ratword from {package.__file__}, not {src}")
    rw = argparse.Namespace(package=package)
    for name in MODULES:
        setattr(rw, name, importlib.import_module(f"ratword.{name}"))
    return rw


def set_up(workload: str, seed: int, meter: gauge.Gauge):
    """Import plus input generation, SETUP_REPEATS times; the last set-up is
    the one used.  Returns (modules, batches, median set-up seconds, each
    set-up scaled by the gauge readings around it)."""
    spans = []
    for _ in range(SETUP_REPEATS):
        meter.read()
        start = perf_counter()
        rw = load_program()
        batches = workloads.make(workload, rw, seed)
        spans.append((start, perf_counter()))
    meter.read()
    scales = meter.scales([(start + end) / 2 for start, end in spans])
    return rw, batches, statistics.median(
        (end - start) * scale for (start, end), scale in zip(spans, scales))


def engine_functions(rw):
    """The two pipelines, bound to whatever the modules hold right now (the
    tracing wrappers, when installed)."""
    parse, factorize = rw.expr.parse_expr, rw.factorizer.factorize
    factorize_structural = rw.structural.factorize_structural

    def automaton(text):
        fact, state, _ = factorize(parse(text))
        return fact, state.steps, state.automaton.n

    def structural(text):
        return factorize_structural(parse(text))

    return {"automaton": automaton, "structural": structural}


# -- timed passes -------------------------------------------------------------

@dataclass
class Answers:
    """Every timed call of one engine: the first answer at each input
    position, and per position the calls that matched it or did not."""
    size: int
    first: list = field(init=False)
    ok: list = field(init=False)
    bad: list = field(init=False)
    errors: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.first = [None] * self.size
        self.ok = [0] * self.size
        self.bad = [0] * self.size


@dataclass
class Pass:
    """One engine pass over one batch: when each call started, its measured
    latency in seconds (None where it raised), and the gauge factor that
    scales it to the reference host speed."""
    starts: list
    latencies: list
    cache_info: dict
    scales: list = field(default_factory=list)

    def timed(self, scaled: bool = True) -> list:
        scales = self.scales if scaled else [1.0] * len(self.latencies)
        return [t * f for t, f in zip(self.latencies, scales) if t is not None]


def clear(caches) -> None:
    for cache in caches.values():
        cache.cache_clear()


def run_pass(fn, texts, batch: range, answers: Answers, caches, meter: gauge.Gauge) -> Pass:
    """One pass of `fn` over `batch`, reading the gauge between calls."""
    clear(caches)
    gc.collect()
    starts, latencies = [], []
    for pos in batch:
        meter.tick()
        text = texts[pos]
        start = perf_counter()
        starts.append(start)
        try:
            answer = fn(text)
        except Exception as err:  # noqa: BLE001 - a failing input is counted, not fatal
            latencies.append(None)
            answers.bad[pos] += 1
            answers.errors.append(f"{text[:60]}: {type(err).__name__}: {err}"[:200])
            continue
        latencies.append(perf_counter() - start)
        if answers.first[pos] is None:
            answers.first[pos] = answer
            answers.ok[pos] += 1
        elif answer == answers.first[pos]:
            answers.ok[pos] += 1
        else:
            answers.bad[pos] += 1
            answers.errors.append(f"{text[:60]}: answer differs between passes")
    info = {name: cache.cache_info()._asdict() for name, cache in caches.items()}
    return Pass(starts, latencies, info)


def measure(fns, texts, batches, answers, caches, meter, seconds: float):
    """Run the batches in turn, each by one pass of each engine, until
    `seconds` are spent and every batch ran once.  Returns each engine's
    passes, their calls scaled by the gauge."""
    passes = {engine: [] for engine in ENGINES}
    deadline = perf_counter() + seconds
    step = 0
    while step < len(batches) or perf_counter() < deadline:
        batch = batches[step % len(batches)]
        for engine in ENGINES:
            passes[engine].append(
                run_pass(fns[engine], texts, batch, answers[engine], caches, meter))
        step += 1
    meter.read()
    for p in (p for ps in passes.values() for p in ps):
        p.scales = meter.scales(p.starts)
    return passes


def ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


def throughput(passes, scaled: bool = True) -> float:
    """Completed calls per second of engine time, over every call."""
    times = [t for p in passes for t in p.timed(scaled)]
    return ratio(len(times), sum(times))


def tail_percentile(inputs: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it among
    the fewest samples a run has (one pass over every input), so it is fixed
    per workload."""
    return next(p for p in TAIL_LADDER if inputs * (100 - p) / 100 >= 10)


def percentile(values, p: float) -> float:
    if len(values) < 2:  # every call failed; the run reports incorrect
        return 0.0
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def smoothed_median(values) -> float:
    """Mean of the samples from the 45th to the 55th percentile.  A plain
    median jumps where the latency distribution does: on the corpus the
    structural engine's latency climbs about 13% per percentile point at the
    median, and on the tower the median falls between the depth-8 and the
    depth-9 towers.  Averaging the middle tenth follows the distribution
    there smoothly."""
    ordered = sorted(values)
    if not ordered:  # every call failed; the run reports incorrect
        return 0.0
    low, high = int(len(ordered) * 0.45), -(-len(ordered) * 55 // 100)
    return statistics.fmean(ordered[low:max(high, low + 1)])


# -- checks -------------------------------------------------------------------

def same_blocks(rw, f1, f2) -> bool:
    return len(f1.blocks) == len(f2.blocks) and all(
        a1 == a2 and rw.order.word_equal(p1, p2)
        for (p1, a1), (p2, a2) in zip(f1.blocks, f2.blocks))


def flatten(rw, fact) -> list[str]:
    out = []
    for prime, alpha in fact.blocks:
        out.extend([rw.expr.format_expr(prime)] * alpha.to_int())
    return out


def check_answers(rw, text, auto, structural, timing) -> list[str]:
    """Every check on one input: engines agree block by block, the
    reconstruction is the input word, finite inputs match Duval, and the
    marking run stays within n^3 steps.  Only the structural engine's
    reconstruction is compared with the input: block agreement makes the
    automaton engine's the same word, and its primes, read off the automaton
    of tau(e), are far larger."""
    e = rw.expr.parse_expr(text)
    fact, steps, n = auto
    problems = []
    if not same_blocks(rw, fact, structural):
        problems.append("engines disagree")
    if not rw.order.word_equal(structural.reconstruct(), e):
        problems.append("reconstruction differs from the input")
    word = rw.expr.as_finite_word(e)
    if word is not None:
        start = perf_counter()
        expected = rw.oracles.duval_factorize(word)
        timing["duval_s"] += perf_counter() - start
        for engine, f in (("automaton", fact), ("structural", structural)):
            if flatten(rw, f) != expected:
                problems.append(f"{engine} differs from duval_factorize")
    if steps > n ** 3:
        problems.append(f"{steps} marking steps exceed n^3 = {n ** 3}")
    return problems


def check_all(rw, texts, answers, timing):
    """Check each distinct input once; a repeated input must have the same
    answers as its first occurrence.  Returns {position: problems}."""
    problems = {}
    verified = {}
    for pos, text in enumerate(texts):
        auto, structural = answers["automaton"].first[pos], answers["structural"].first[pos]
        if auto is None or structural is None:
            problems[pos] = ["an engine gave no answer"]
            continue
        if text in verified:
            if verified[text] != (auto, structural):
                problems[pos] = ["answer differs from the same input's earlier answer"]
            continue
        try:
            found = check_answers(rw, text, auto, structural, timing)
        except Exception as err:  # noqa: BLE001 - e.g. a transfinite exponent on a finite word
            found = [f"check raised {type(err).__name__}: {err}"]
        if found:
            problems[pos] = found
        verified[text] = (auto, structural)
    return problems


def tally(answers, problems) -> tuple[int, int]:
    """(attempted, failed) engine calls; every call on an input that failed
    a check counts as failed."""
    attempted = failed = 0
    for record in answers.values():
        attempted += sum(record.ok) + sum(record.bad)
        failed += sum(record.bad) + sum(record.ok[pos] for pos in problems)
    return attempted, failed


# -- rows outside the timed passes --------------------------------------------

def _raise_wall_limit(signum, frame):
    raise WallLimit


def with_wall_limit(call, seconds: float):
    """Run `call` under a wall-clock limit enforced from outside the program
    by SIGALRM; raises WallLimit when it runs out."""
    previous = signal.signal(signal.SIGALRM, _raise_wall_limit)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def robustness_rows(fns, caches) -> list[dict]:
    """Each robustness row once per engine, cold, under WALL_LIMIT_S.  A row
    fails when it raises or runs out of time; an answer must be the known one."""
    rows = []
    for name, text, expected in workloads.ROBUSTNESS_ROWS:
        for engine in ENGINES:
            clear(caches)
            start = perf_counter()
            try:
                answer = with_wall_limit(lambda: fns[engine](text), WALL_LIMIT_S)
            except WallLimit:
                outcome = f"timeout after {WALL_LIMIT_S} s"
            except Exception as err:  # noqa: BLE001 - the failure is what is recorded
                outcome = type(err).__name__
            else:
                fact = answer[0] if engine == "automaton" else answer
                outcome = "answered" if str(fact) == expected else f"wrong answer {fact}"
            rows.append({"row": name, "engine": engine, "outcome": outcome,
                         "ms": round((perf_counter() - start) * 1000, 3)})
    return rows


def scaling_curves(rw, fns, caches, seed: int) -> list[dict]:
    """Per-point engine time, with n and marking steps for the automaton
    engine, along finite length and tower depth.  Reported, not gated."""
    points = []
    for curve, x, text in workloads.scaling_points(seed):
        point = {"curve": curve, "x": x}
        for engine in ENGINES:
            clear(caches)
            start = perf_counter()
            try:
                answer = with_wall_limit(lambda: fns[engine](text), SCALING_LIMIT_S)
            except (WallLimit, Exception) as err:  # noqa: BLE001 - recorded, not gated
                point[f"{engine}_error"] = type(err).__name__
                continue
            point[f"{engine}_ms"] = round((perf_counter() - start) * 1000, 3)
            if engine == "automaton":
                _, point["steps"], point["n"] = answer
        points.append(point)
    return points


# -- metrics ------------------------------------------------------------------

def end_to_end_metrics(passes, tail_p: float, setup_s: float, peak_rss_mb: float):
    """Over the pooled latencies of all passes, each scaled by the gauge: the
    p50 is their smoothed median, the tail their tail_p percentile."""
    values = {}
    for engine in ENGINES:
        pooled = [t * 1000 for p in passes[engine] for t in p.timed()]
        values[f"{engine}_inputs_per_s"] = throughput(passes[engine])
        values[f"{engine}_p50_ms"] = smoothed_median(pooled)
        values[f"{engine}_tail_ms"] = percentile(pooled, tail_p)
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = peak_rss_mb
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def hit_ratio(passes, cache: str) -> float:
    hits = sum(p.cache_info[cache]["hits"] for ps in passes.values() for p in ps)
    misses = sum(p.cache_info[cache]["misses"] for ps in passes.values() for p in ps)
    return ratio(hits, hits + misses)


def layer_metrics(tracer, traced, untraced, cases, duval_s, robustness_failed):
    """Per-layer metrics for one cycle, i.e. one pass of each engine over
    every input of the workload: times in seconds of span, counts of calls
    or events.  The case counts come from one automaton pass; duval_s is
    the oracle's time in the checks."""
    span, calls, counts, self_s = (Counter(table) for table in (
        tracer.span_s, tracer.calls, tracer.counts, tracer.self_s))
    s, c, r = "s", "count", "ratio"
    rows = [
        ("expr.parse_s", span["expr.parse_expr"], s),
        ("expr.as_finite_word_s", span["expr.as_finite_word"], s),
        ("expr.expr_length_hit_ratio", hit_ratio(traced, "expr_length"), r),
        ("duplication.tau_s", span["duplication.tau"], s),
        ("duplication.tau_tokens", counts["tau_tokens"], c),
        ("duplication.blowup", ratio(counts["tau_tokens"], counts["expr_tokens"]), r),
        ("automaton.compile_s", span["automaton.compile_expr"], s),
        ("automaton.validate_s", span["automaton.validate"], s),
        ("automaton.compile_hit_ratio", hit_ratio(traced, "compile_expr"), r),
        ("automaton.states", counts["states"], c),
        ("automaton.sharp_restarts", calls["automaton.SharpAutomaton"], c),
        ("automaton.expr_of_range_s", span["automaton.expr_of_range"], s),
        ("factorizer.mark_s", span["factorizer.factorize_states"], s),
        ("factorizer.steps", counts["steps"], c),
        ("factorizer.steps_per_state", ratio(counts["steps"], counts["states"]), r),
        ("factorizer.extract_s", span["factorizer.extract_factorization"], s),
    ]
    rows += [(f"factorizer.case_{case}", float(cases[case]), c)
             for case in ("1a", "1b", "1c", "2a", "2b", "3")]
    rows += [
        ("runner.sync_step_calls", calls["runner.sync_step"], c),
        ("runner.sync_step_s", span["runner.sync_step"], s),
        ("runner.loop_closures", counts["loop_closures"], c),
        ("runner.run_to_divergence_calls", calls["runner.run_to_divergence"], c),
        ("order.compare_calls", calls["order.compare"], c),
        ("order.compare_s", span["order.compare"], s),
        ("order.product_run_share",
         ratio(calls["runner.run_to_divergence"], calls["order.compare"]), r),
        ("structural.fact_product_s", span["structural.fact_product"], s),
        ("structural.concat_pp_calls", calls["structural.concat_pp"], c),
        ("structural.concat_pp_s", span["structural.concat_pp"], s),
        ("structural.fact_omega_s", span["structural.fact_omega"], s),
        ("structural.circular_fact_calls", calls["structural.circular_fact"], c),
    ]
    rows += [(f"{layer}.self_s", self_s[layer], s) for layer in layertrace.LAYERS]
    rows.append(("oracles.duval_s", duval_s, s))
    rows += [(f"trace.{engine}_overhead",
              ratio(throughput(untraced[engine]), throughput(traced[engine])), r)
             for engine in ENGINES]
    rows.append(("robustness.failed", float(robustness_failed), c))
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def declared_metrics(trace: bool):
    """{name: unit} that BENCHMARK.json declares for this mode, or None when
    the file is absent."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_lines() -> int:
    files = list((ROOT / "src").rglob("*.py")) + list((ROOT / "scripts").glob("*.py"))
    return sum(len(f.read_text().splitlines()) for f in files)


# -- main ---------------------------------------------------------------------

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def compare_count_check(rw, modules, caches) -> dict:
    """order.compare calls on SELF_CHECK_INPUT counted by a tracing wrapper
    and, independently, by the interpreter's profile hook."""
    counter = layertrace.Tracer(modules)
    counter.wrap(rw.order, "compare")
    try:
        clear(caches)
        engine_functions(rw)["structural"](SELF_CHECK_INPUT)
    finally:
        counter.restore()
    clear(caches)
    profiled = layertrace.profiled_calls(
        rw.order.compare, lambda: engine_functions(rw)["structural"](SELF_CHECK_INPUT))
    return {"input": SELF_CHECK_INPUT, "wrapper": counter.calls["order.compare"],
            "profile_hook": profiled}


def traced_run(rw, texts, batches, answers, caches, meter, seconds, context, harness_errors):
    """Untraced passes for half the time, then one traced cycle (one pass of
    each engine over every batch); then the marking-case counts, the harness
    self-check and the scaling curves.  Returns the per-layer metrics'
    inputs."""
    modules = [rw.package] + [getattr(rw, name) for name in MODULES]
    untraced = measure(engine_functions(rw), texts, batches, answers, caches, meter,
                       seconds / 2)
    tracer = layertrace.Tracer(modules)
    layertrace.install(tracer, rw)
    try:
        traced = measure(engine_functions(rw), texts, batches, answers, caches, meter, 0)
    finally:
        tracer.restore()
    if tracer.leftovers():
        harness_errors.append(f"wrappers left after restore: {tracer.leftovers()}")
    cases = layertrace.count_cases(rw, texts)
    check = compare_count_check(rw, modules, caches)
    if check["wrapper"] != check["profile_hook"] or not check["wrapper"]:
        harness_errors.append(f"order.compare counted {check['wrapper']} by the wrapper, "
                              f"{check['profile_hook']} by the profile hook")
    context["compare_count_check"] = check
    context["spans"] = {key: {"calls": tracer.calls[key], "s": tracer.span_s[key]}
                        for key in sorted(tracer.calls)}
    context["scaling"] = scaling_curves(rw, engine_functions(rw), caches, context["seed"])
    return tracer, untraced, traced, cases


def main(argv=None) -> int:
    args = parse_args(argv)
    meter = gauge.Gauge()
    clock = perf_counter()
    rw, batch_texts, setup_s = set_up(args.workload, args.seed, meter)
    texts = [text for batch in batch_texts for text in batch]
    batches, start = [], 0
    for batch in batch_texts:
        batches.append(range(start, start + len(batch)))
        start += len(batch)
    caches = {"compile_expr": rw.automaton.compile_expr, "expr_length": rw.expr.expr_length}
    answers = {engine: Answers(len(texts)) for engine in ENGINES}
    tail_p = tail_percentile(len(texts))
    harness_errors = []
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "inputs": len(texts),
        "batches": len(batches), "distinct_inputs": len(set(texts)),
        "repeat_share": statistics.mean(1 - len(set(batch)) / len(batch)
                                        for batch in batch_texts),
        "src_scripts_lines": source_lines(),
        "loop": "closed, one client, cold caches at the start of each pass",
    }
    phases = {"setup": perf_counter() - clock}

    clock = perf_counter()
    if args.trace:
        tracer, untraced, passes, cases = traced_run(
            rw, texts, batches, answers, caches, meter, args.seconds, context, harness_errors)
    else:
        passes = measure(engine_functions(rw), texts, batches, answers, caches, meter,
                         args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phases["measure"] = perf_counter() - clock

    clock = perf_counter()
    rows = robustness_rows(engine_functions(rw), caches) if args.workload == "tower" else []
    harness_errors += [f"robustness row {row['row']}/{row['engine']}: {row['outcome']}"
                       for row in rows if row["outcome"].startswith("wrong answer")]
    phases["robustness"] = perf_counter() - clock

    clock = perf_counter()
    timing = {"duval_s": 0.0}
    problems = check_all(rw, texts, answers, timing)
    attempted, failed = tally(answers, problems)
    phases["checks"] = perf_counter() - clock

    if args.trace:
        metrics = layer_metrics(tracer, passes, untraced, cases,
                                timing["duval_s"], sum(r["outcome"] != "answered" for r in rows))
    else:
        metrics = end_to_end_metrics(passes, tail_p, setup_s, peak_rss_mb)
    declared = declared_metrics(bool(args.trace))
    printed = {name: m["unit"] for name, m in metrics.items()}
    if declared is not None and declared != printed:
        harness_errors.append("metrics differ from BENCHMARK.json: "
                              f"{sorted(set(declared.items()) ^ set(printed.items()))}")

    context["passes"] = {engine: len(passes[engine]) for engine in ENGINES}
    context["cache_info"] = {engine: [p.cache_info for p in passes[engine]] for engine in ENGINES}
    context["tail"] = {"percentile": tail_p,
                       "samples": {e: sum(len(p.timed()) for p in passes[e])
                                   for e in ENGINES}}
    context["failure_share"] = {"failed": failed, "attempted": attempted,
                                "share": failed / attempted}
    if rows:
        context["robustness"] = rows
    context["problems"] = {texts[pos][:80]: found for pos, found in list(problems.items())[:10]}
    context["errors"] = {e: answers[e].errors[:5] for e in ENGINES if answers[e].errors}
    context["phase_s"] = phases
    context["gauge"] = meter.summary()
    context["unscaled_inputs_per_s"] = {e: throughput(passes[e], scaled=False)
                                        for e in ENGINES}
    context["harness_errors"] = harness_errors

    correct = failed == 0 and not harness_errors
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
