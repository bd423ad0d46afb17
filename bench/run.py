#!/usr/bin/env python3
"""Seeded benchmark of the nlp2dlp compiler and its answer-set/HT oracle.

Usage, from the root of a checkout::

    python3 bench/run.py --workload compile_bulk --seed 0 --seconds 20 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json and
bench/layers.json):

* ``compile_bulk``  thousands of short random rules, as text, through
  parse -> translate_structural -> print_dlv;
* ``compile_deep``  single-rule programs with 50..400 body conjuncts;
* ``verify_corpus`` the acceptance corpus through every ``verify`` check;
* ``oracle_ht``     8- and 9-atom programs through ``ht_equivalent``.

A run builds its inputs from ``--seed`` (set-up, timed as ``setup_s``),
runs a *checked pass* whose every output is checked, untimed, without
trusting the compiler, then repeats the pass until about ``--seconds``
seconds of operation time are measured, comparing each output with the
checked pass's.  An operation is one program compiled or one program
judged by all of the workload's oracle checks; its cost is the median
of its runs, and the end-to-end times are taken over those costs.

End-to-end times are CPU times in *reference seconds*: each is scaled by
REFERENCE_S over the time a fixed pure-Python task took around it, so
that the figures do not follow the speed of a shared machine (see
REFERENCE_S).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a separate
invocation that wraps the package's public functions, keeps spans in
memory and prints the per-layer metrics.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; a human-readable summary goes to standard error, and the
full record (with spans, when traced) to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
# Every time is CPU time of the benchmark's one thread, so time spent
# descheduled on a shared machine is not counted.  The process clock is
# not used: inside a SIGPROF handler it does not advance.
from time import thread_time as clock
from typing import Any, Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 0
# set-up repeats at least this often and for at least this long, and
# reports the median, so that a fast set-up is not a handful of samples
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
# the tail percentile is the highest one with this many samples beyond it
TAIL_BEYOND = 10
# A shared machine's speed swings by 1.3-1.6x for minutes at a time, so
# every end-to-end time is scaled by REFERENCE_S over the time a fixed
# reference task took around it.  The task runs every PROBE_EVERY_S of CPU
# time from a SIGPROF handler, and a time is scaled by the runs taken
# during it and the PROBE_NEAR runs on either side.  REFERENCE_S is about
# the least time of such a run on the 2-vCPU x86-64 host, Python 3.11.7,
# that the benchmark was written on, so scaled times there are about the
# times of a machine with no other load.
REFERENCE_S = 1.0e-3
PROBE_EVERY_S = 0.025
PROBE_NEAR = 3
# bodies this long crash with RecursionError at the seed commit (492-496
# conjuncts); they are only probed, outside the timed region
DEEP_PROBES = (400, 500, 1_000, 10_000)
DEEP_PROBE_BUDGET_S = 20.0


class BenchSetupError(Exception):
    """The package under test cannot be imported from this checkout."""


# ---------------------------------------------------------------- set-up

def fresh_import():
    """Import ``nlp2dlp`` from ``src/`` of this checkout, discarding any
    copy already loaded, so that every set-up repetition pays the import."""
    for name in [m for m in sys.modules
                 if m == "nlp2dlp" or m.startswith("nlp2dlp.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        nl = importlib.import_module("nlp2dlp")
    except ImportError as exc:
        raise BenchSetupError(f"cannot import nlp2dlp from {SRC}: {exc}") from exc
    origin = Path(nl.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchSetupError(f"nlp2dlp was imported from {origin}, not {SRC}")
    return nl


@dataclass
class Op:
    """One operation: ``run`` does the timed work and returns its output;
    ``check`` judges that output and returns (ok, counters)."""

    run: Callable[[], Any]
    check: Callable[[Any], tuple[bool, Counter]]
    kb: float
    verdicts: int = 0


@dataclass
class Workload:
    name: str
    ops: list[Op]
    sizes: dict[str, Any]
    # passes always run, the checked one included; each op's cost is the
    # median of its runs
    min_passes: int
    extra: dict[str, Any] = field(default_factory=dict)


def _kb(text: str) -> float:
    return len(text.encode()) / 1024


def _compile_op(nl, text: str, atoms: frozenset) -> Op:
    disjunctive = nl.syntax.ProgramClass.DISJUNCTIVE

    def run():
        program = nl.textio.parse(text)
        translated, report = nl.translate.translate_structural(program)
        return nl.textio.print_dlv(translated), report

    def check(out):
        dlv, report = out
        back = nl.textio.parse(dlv, allow_internal=True)
        ok = (nl.syntax.classify(back) is disjunctive
              and atoms <= back.var()
              and len(back.rules) == report.rules_out
              and nl.syntax.program_size(back) == report.output_size)
        return ok, Counter(rules_out=report.rules_out,
                           output_size=report.output_size,
                           labels=report.labels_created,
                           bars=report.bars_created,
                           output_bytes=len(dlv.encode()))

    return Op(run, check, _kb(text))


def compile_bulk(nl, seed: int, files: int = 50, rules: int = 160) -> Workload:
    """``files`` texts of ``rules`` random rules over 200 atoms, depth 4."""
    rng = random.Random(seed)
    atoms = tuple(nl.syntax.user_atom(n) for n in nl.verify._atom_names(200))
    ops = []
    for _ in range(files):
        program = nl.syntax.Program(tuple(
            r for _ in range(rules)
            for r in nl.verify._random_rules(rng, atoms, 4, 1)))
        ops.append(_compile_op(nl, nl.textio.print_nested(program),
                               program.var()))
    return Workload("compile_bulk", ops, {"files": files, "rules": rules},
                    min_passes=3)


def deep_rule_text(rng: random.Random, length: int) -> str:
    """``h :- c_1, ..., c_length.`` with the conjuncts split evenly between
    ``not not a``, ``(a v not b)`` and ``not a`` over fresh atoms."""
    kinds = [i % 3 for i in range(length)]
    rng.shuffle(kinds)
    parts = []
    for kind in kinds:
        a, b = (f"a{rng.randrange(100_000):05d}" for _ in range(2))
        parts.append((f"not not {a}", f"({a} v not {b})", f"not {a}")[kind])
    return "h :- " + ", ".join(parts) + ".\n"


# three programs share each short length so that the median and the tail
# fall inside a length with many samples, not on one program
DEEP_LENGTHS = (50, 50, 50, 100, 100, 100, 200, 200, 400)


def compile_deep(nl, seed: int, lengths: tuple = DEEP_LENGTHS,
                 probes: tuple = DEEP_PROBES) -> Workload:
    rng = random.Random(seed)
    ops, nodes = [], []
    for length in lengths:
        text = deep_rule_text(rng, length)
        program = nl.textio.parse(text)
        ops.append(_compile_op(nl, text, program.var()))
        nodes.append(nl.syntax.program_size(program))
    return Workload("compile_deep", ops, {"lengths": list(lengths)},
                    min_passes=4, extra={"nodes": nodes, "probes": probes})


def _renamed(nl, program, rng: random.Random, pool: str):
    """The program with its alphabet mapped onto distinct letters of
    ``pool`` chosen by ``rng``, in the same order: an isomorphic copy,
    same cost, same verdicts, and the same contexts drawn over its
    sorted alphabet by ``check_strongly_faithful``."""
    S = nl.syntax
    old = sorted(program.alphabet)
    new = sorted(rng.sample(pool, len(old)))
    names = dict(zip(old, (S.user_atom(c) for c in new)))

    def go(e):
        if isinstance(e, S.Var):
            return S.Var(names[e.atom])
        if isinstance(e, S.Not):
            return S.Not(go(e.child))
        if isinstance(e, (S.And, S.Or)):
            return type(e)(go(e.left), go(e.right))
        return e

    return S.Program(tuple(S.Rule(go(r.head), go(r.body)) for r in program.rules),
                     frozenset(names.values()))


# 'v' is left out: it is the infix disjunction keyword
LETTERS = "abcdefghijklmnopqrstuwxyz"


def acceptance_corpus(nl, count: int):
    """The first ``count`` generated programs (<= 4 atoms, depth 3, <= 3
    rules) whose structural translation has at most 22 atoms: the corpus
    of the repository's acceptance tests."""
    kept, gen_seed = [], 0
    while len(kept) < count:
        program = nl.verify.generate_program(nl.verify.GeneratorConfig(
            seed=gen_seed, max_atoms=4, max_depth=3, max_rules=3))
        translated, _ = nl.translate.translate_structural(program)
        if len(translated.var() | program.alphabet) <= 22:
            kept.append(program)
        gen_seed += 1
    return kept


def _verify_op(nl, program, neighbour, context_seed: int, contexts: int) -> Op:
    V, M = nl.verify, nl.semantics

    def run():
        structural = V.check_faithful(program, mode="structural")
        polarity = V.check_faithful(program, mode="polarity")
        sets = M.answer_sets(program, program.alphabet)
        same = sets == M.equilibrium_models(program, program.alphabet)
        strong = V.check_strongly_faithful(
            program, contexts, V.GeneratorConfig(seed=context_seed))
        modular = V.check_modular(program, neighbour)
        return (structural.equal, polarity.equal, same,
                all(v.equal for v in strong), modular, len(sets))

    def check(out):
        structural, polarity, same, strong, modular, _ = out
        return (structural and same and strong and modular,
                Counter(polarity_unfaithful=int(not polarity), contexts=contexts))

    return Op(run, check, _kb(nl.textio.print_nested(program)), verdicts=5)


def verify_corpus(nl, seed: int, programs: int = 200, contexts: int = 3
                  ) -> Workload:
    """The acceptance corpus, renamed and reordered by ``seed``.

    The corpus itself, each program's contexts and its modular neighbour
    do not depend on the seed: the cost is heavy tailed (one program can
    take a quarter of the pass), so corpora drawn from other generator
    seeds differ in cost by up to half, and contexts drawn by the seed
    moved op_tail_ms by 0.1 of itself.
    """
    rng = random.Random(seed)
    corpus = [_renamed(nl, p, rng, LETTERS)
              for p in acceptance_corpus(nl, programs)]
    ops = [_verify_op(nl, p, corpus[(i + 1) % len(corpus)], i, contexts)
           for i, p in enumerate(corpus)]
    rng.shuffle(ops)
    return Workload("verify_corpus", ops,
                    {"programs": programs, "contexts": contexts}, min_passes=3)


def _ht_op(nl, program) -> Op:
    M = nl.semantics

    def run():
        strong = M.ht_equivalent(program, nl.translate.tr1(program),
                                 program.alphabet)
        models = M.equilibrium_models(program, program.alphabet)
        return strong, models == M.answer_sets(program, program.alphabet), \
            len(models)

    def check(out):
        strong, same, models = out
        return strong and same, Counter(equilibrium_models=models)

    return Op(run, check, _kb(nl.textio.print_nested(program)), verdicts=2)


def oracle_ht(nl, seed: int, atoms8: int = 28, atoms9: int = 12) -> Workload:
    """Generated programs over 8 and 9 atoms (depth 3, <= 3 rules), renamed
    and reordered by ``seed``; generator seeds are fixed for the same
    reason as in ``verify_corpus``."""
    rng = random.Random(seed)
    programs = [
        _renamed(nl, nl.verify.generate_program(nl.verify.GeneratorConfig(
            seed=i, max_atoms=n, max_depth=3, max_rules=3)), rng, LETTERS)
        for n, count in ((8, atoms8), (9, atoms9)) for i in range(count)]
    rng.shuffle(programs)
    return Workload("oracle_ht", [_ht_op(nl, p) for p in programs],
                    {"atoms8": atoms8, "atoms9": atoms9}, min_passes=2)


WORKLOADS = {w.__name__: w
             for w in (compile_bulk, compile_deep, verify_corpus, oracle_ht)}


def reference_task() -> int:
    """Fixed pure-Python work, about REFERENCE_S on an idle core, of the
    tuple, frozenset, dict and hash operations the package is made of."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + len(frozenset((i % 7, i % 11, i % 5)))
        acc += hash(key) & 0xFF
    return acc + len(table)


class SpeedProbe:
    """Runs the reference task from a SIGPROF handler every PROBE_EVERY_S
    of CPU time; ``samples`` holds (start, seconds) of each run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.busy = False

    def _sample(self, signum, frame):
        if not self.busy:
            self.busy = True
            start = clock()
            reference_task()
            self.samples.append((start, clock() - start))
            self.busy = False

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)

    def scaled(self, times: list[float],
               intervals: list[tuple[float, float]]) -> list[float]:
        """``times``, taken over ``intervals``, in reference seconds."""
        starts = [t for t, _ in self.samples]
        out = []
        for seconds, (start, end) in zip(times, intervals):
            lo = max(0, bisect.bisect_left(starts, start) - PROBE_NEAR)
            hi = bisect.bisect_right(starts, end) + PROBE_NEAR
            near = [s for _, s in self.samples[lo:hi]]
            out.append(seconds * REFERENCE_S / statistics.fmean(near))
        return out


def timed(fn: Callable[[], Any], speed: SpeedProbe | None = None
          ) -> tuple[float, Any, tuple[float, float]]:
    """(CPU seconds, result, (start, end)) of ``fn()``; the reference
    runs of ``speed`` during it are not counted in the seconds."""
    first = len(speed.samples) if speed else 0
    start = clock()
    result = fn()
    end = clock()
    stolen = sum(s for t, s in speed.samples[first:] if start <= t <= end) \
        if speed else 0.0
    return end - start - stolen, result, (start, end)


def setup(name: str, seed: int):
    """Import plus input generation, repeated; the last copy is used.
    Returns (median reference seconds, package, workload)."""
    def once():
        nl = fresh_import()
        return nl, WORKLOADS[name](nl, seed)

    speed = SpeedProbe()
    times: list[float] = []
    intervals: list[tuple[float, float]] = []
    with speed.running():
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            # the previous copy is garbage: keep it out of peak_rss_mb
            gc.collect()
            seconds, (nl, workload), interval = timed(once, speed)
            times.append(seconds)
            intervals.append(interval)
    return statistics.median(speed.scaled(times, intervals)), nl, workload


# --------------------------------------------------------------- tracing

class Tracer:
    """Spans kept in memory as [name, start, end, parent, run id, probe].

    Counters the benchmark computes between calls (probes) are timed, and
    that time is subtracted from every span open around them, so it counts
    in no layer and not in the traced operation time.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.probe_at: list[tuple[float, float]] = []
        self.open: list[int] = []
        self.run = 0
        self.probe_s = 0.0
        self.in_probe = False
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self.open[-1] if self.open else -1
        record = [name, 0.0, 0.0, parent, self.run, self.in_probe]
        self.spans.append(record)
        self.probe_at.append((self.probe_s, 0.0))
        self.open.append(index)
        record[1] = clock()
        try:
            yield
        finally:
            record[2] = clock()
            self.probe_at[index] = (self.probe_at[index][0], self.probe_s)
            self.open.pop()

    @contextmanager
    def probe(self):
        start = clock()
        self.in_probe = True
        try:
            yield
        finally:
            self.in_probe = False
            self.probe_s += clock() - start

    def duration(self, index: int) -> float:
        _, start, end, *_ = self.spans[index]
        before, after = self.probe_at[index]
        return (end - start) - (after - before)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                with self.probe():
                    after(args, result)
            return result
        return traced


@contextmanager
def traced_calls(nl, tracer: Tracer):
    """Wrap the public functions the benchmark and ``verify`` call, for
    the duration of the block."""
    S, M, T = nl.syntax, nl.semantics, nl.translate
    c, mx = tracer.counts, tracer.maxima

    def widen(alphabet):
        mx["semantics.alphabet_width_max"] = max(
            mx["semantics.alphabet_width_max"], len(frozenset(alphabet)))

    def parsed(args, program):
        c["textio.parse.nodes"] += S.program_size(program)

    def printed(args, text):
        c["textio.print_dlv.bytes"] += len(text.encode())

    def stage(k):
        def after(args, out):
            c[f"translate.tr{k}.rules_out"] += len(out.rules)
            c[f"translate.tr{k}.size_out"] += S.program_size(out)
            if k == 2:
                c["translate.tr2.labels"] += args[1].next_label_index
            if k == 4:
                c["translate.tr4.bars"] += len(args[1].bars)
            with tracer.span("syntax.program"):
                rebuilt = S.Program(out.rules, out.alphabet)
            with tracer.span("syntax.classify"):
                S.classify(rebuilt)
        return after

    def solved(args, sets):
        program, alphabet = args[0], args[1]
        c["semantics.answer_sets.calls"] += 1
        width = len(frozenset(alphabet))
        c["semantics.candidates"] += len(M.classical_models(
            program, alphabet, cap=width))
        c["semantics.answer_sets.found"] += len(sets)
        widen(alphabet)

    def equilibrium(args, models):
        widen(args[1])

    def ht(args, equivalent):
        c["semantics.ht_pairs"] += 3 ** len(frozenset(args[2]))
        widen(args[2])

    def strong(args, verdicts):
        c["verify.contexts"] += len(verdicts)

    plan = [(nl.textio, "parse", "textio.parse", parsed),
            (nl.textio, "print_dlv", "textio.print_dlv", printed),
            (T, "translate_structural", "translate.translate_structural", None),
            (nl.verify, "translate_structural", "translate.translate_structural",
             None),
            (nl.verify, "translate_polarity_variant",
             "translate.translate_polarity_variant", None),
            (M, "answer_sets", "semantics.answer_sets", solved),
            (nl.verify, "answer_sets", "semantics.answer_sets", solved),
            (M, "equilibrium_models", "semantics.equilibrium_models",
             equilibrium),
            (M, "ht_equivalent", "semantics.ht_equivalent", ht),
            (nl.verify, "check_faithful", "verify.check_faithful", None),
            (nl.verify, "check_strongly_faithful",
             "verify.check_strongly_faithful", strong),
            (nl.verify, "check_modular", "verify.check_modular", None)]
    plan += [(T, f"tr{k}", f"translate.tr{k}", stage(k)) for k in range(1, 5)]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in plan]
    for module, attr, name, after in plan:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), after))
    try:
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


# ---------------------------------------------------------------- passes

_RAISED = object()


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reported: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.reported < 3:
            self.reported += 1
            print(f"bench: {what}", file=sys.stderr)


def run_pass(workload: Workload, tally: Tally, reference: list | None = None,
             tracer: Tracer | None = None, speed: SpeedProbe | None = None):
    """Run every op once, timing each.  Without ``reference`` this is the
    checked pass: each output is checked, untimed, and the counters are
    summed.  With it, an output that differs from the checked pass's
    counts as failed.  Returns (seconds per op, (start, end) per op,
    outputs, counters)."""
    times, intervals, outputs, counters = [], [], [], Counter()
    for index, op in enumerate(workload.ops):
        tally.attempted += 1
        if tracer is not None:
            tracer.run += 1
            probe_before = tracer.probe_s
        # every op starts from the same collector state and pays for the
        # collections its own garbage causes, not for earlier ops' garbage
        gc.collect()
        elapsed, out, interval = timed(
            lambda: _run_op(op, index, tally, tracer), speed)
        if tracer is not None:
            elapsed -= tracer.probe_s - probe_before
        times.append(elapsed)
        intervals.append(interval)
        outputs.append(out)
        if out is _RAISED:
            continue
        if reference is not None:
            if out != reference[index]:
                tally.fail(f"op {index} differs from the checked pass")
            continue
        try:
            ok, counts = op.check(out)
        except Exception:  # so does an output the checks cannot read
            ok, counts = False, Counter()
            traceback.print_exc()
        counters.update(counts)
        if not ok:
            tally.fail(f"op {index} failed its output check")
    return times, intervals, outputs, counters


def _run_op(op: Op, index: int, tally: Tally, tracer: Tracer | None):
    with tracer.span("op") if tracer is not None else nullcontext():
        try:
            return op.run()
        except Exception:  # an op that raises counts as failed
            tally.fail(f"op {index} raised\n{traceback.format_exc()}")
            return _RAISED


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_level(samples: int) -> float:
    """Highest percentile with TAIL_BEYOND of ``samples`` beyond it."""
    return 1.0 - TAIL_BEYOND / samples if samples > TAIL_BEYOND else 1.0


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    var = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var if var else 0.0


def deep_limit(nl, probes: tuple) -> int:
    """Largest probed body length that parses, translates and prints."""
    rng = random.Random(DEFAULT_SEED)
    best, best_s = 0, 0.0
    for length in probes:
        if best and best_s * (length / best) ** 2 > DEEP_PROBE_BUDGET_S:
            break  # a quadratic translation would not finish in time
        text = deep_rule_text(rng, length)
        start = clock()
        try:
            program = nl.textio.parse(text)
            translated, _ = nl.translate.translate_structural(program)
            nl.textio.print_dlv(translated)
        except (RecursionError, nl.errors.Nlp2DlpError):
            break
        best, best_s = length, clock() - start
    return best


# --------------------------------------------------------------- metrics

def end_to_end(workload: Workload, costs: list[float],
               setup_s: float) -> dict[str, float]:
    """Metrics of one cost per op, in reference seconds."""
    busy = sum(costs)
    return {
        "setup_s": setup_s,
        "input_kb_per_s": sum(op.kb for op in workload.ops) / busy,
        "ops_per_s": len(costs) / busy,
        "op_p50_ms": 1000 * quantile(costs, 0.5),
        "op_tail_ms": 1000 * quantile(costs, tail_level(len(costs))),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(nl, workload: Workload, tracer: Tracer, passes: int,
              counters: Counter, traced_s: float, plain_s: float
              ) -> dict[str, float]:
    total: Counter = Counter()
    child: Counter = Counter()
    durations = [tracer.duration(i) for i in range(len(tracer.spans))]
    for i, (name, _, _, parent, _, probe) in enumerate(tracer.spans):
        total[name] += durations[i]
        if parent >= 0 and not probe:
            child[parent] += durations[i]
    own: Counter = Counter()
    for i, (name, *_) in enumerate(tracer.spans):
        own[name] += durations[i] - child[i]
    c = tracer.counts
    m: dict[str, float] = {}
    m["textio.parse.s"] = total["textio.parse"] / passes
    m["textio.parse.nodes_per_s"] = \
        c["textio.parse.nodes"] / total["textio.parse"] if total["textio.parse"] else 0.0
    m["textio.print_dlv.s"] = total["textio.print_dlv"] / passes
    m["textio.print_dlv.kb_per_s"] = \
        c["textio.print_dlv.bytes"] / 1024 / total["textio.print_dlv"] \
        if total["textio.print_dlv"] else 0.0
    m["translate.translate_structural.s"] = \
        total["translate.translate_structural"] / passes
    for k in range(1, 5):
        m[f"translate.tr{k}.s"] = total[f"translate.tr{k}"] / passes
        m[f"translate.tr{k}.rules_out"] = c[f"translate.tr{k}.rules_out"] / passes
        m[f"translate.tr{k}.size_out"] = c[f"translate.tr{k}.size_out"] / passes
    m["translate.tr2.labels"] = c["translate.tr2.labels"] / passes
    m["translate.tr4.bars"] = c["translate.tr4.bars"] / passes
    m["translate.scaling_exponent"] = 0.0
    m["translate.deep_limit"] = 0.0
    if workload.name == "compile_deep":
        per_op: dict[int, list[float]] = {}
        for i, (name, _, _, _, run, _) in enumerate(tracer.spans):
            if name == "translate.translate_structural":
                per_op.setdefault((run - 1) % len(workload.ops),
                                  []).append(durations[i])
        nodes = workload.extra["nodes"]
        m["translate.scaling_exponent"] = slope(
            [nodes[i] for i in sorted(per_op)],
            [statistics.median(per_op[i]) for i in sorted(per_op)])
        m["translate.deep_limit"] = float(
            deep_limit(nl, workload.extra["probes"]))
    m["syntax.program.s"] = total["syntax.program"] / passes
    m["syntax.classify.s"] = total["syntax.classify"] / passes
    m["semantics.answer_sets.s"] = total["semantics.answer_sets"] / passes
    m["semantics.answer_sets.calls"] = c["semantics.answer_sets.calls"] / passes
    m["semantics.candidates"] = c["semantics.candidates"] / passes
    m["semantics.stable_ratio"] = \
        c["semantics.answer_sets.found"] / c["semantics.candidates"] \
        if c["semantics.candidates"] else 0.0
    m["semantics.ht_equivalent.s"] = total["semantics.ht_equivalent"] / passes
    m["semantics.equilibrium_models.s"] = \
        total["semantics.equilibrium_models"] / passes
    m["semantics.ht_pairs"] = c["semantics.ht_pairs"] / passes
    m["semantics.alphabet_width_max"] = \
        float(tracer.maxima["semantics.alphabet_width_max"])
    m["verify.check_faithful.self_s"] = own["verify.check_faithful"] / passes
    m["verify.check_strongly_faithful.self_s"] = \
        own["verify.check_strongly_faithful"] / passes
    m["verify.check_modular.s"] = total["verify.check_modular"] / passes
    m["verify.contexts"] = c["verify.contexts"] / passes
    m["verify.polarity_unfaithful"] = float(counters["polarity_unfaithful"])
    m["output_kb"] = counters["output_bytes"] / 1024
    m["trace.overhead_ratio"] = traced_s / plain_s
    return m


# ------------------------------------------------------------------ main

def check_pins(workload: Workload, seed: int, counters: Counter,
               tally: Tally) -> dict[str, Any]:
    """Compare the checked pass's counters with those stored for the
    default seed; each pinned counter is one attempted check."""
    pins = json.loads((BENCH_DIR / "expected.json").read_text())[workload.name]
    if seed != DEFAULT_SEED or pins["sizes"] != workload.sizes:
        return {}
    wrong = {k: {"expected": v, "got": counters[k]}
             for k, v in pins["counters"].items() if counters[k] != v}
    tally.attempted += len(pins["counters"])
    for key in wrong:
        tally.fail(f"counter {key}: {wrong[key]}")
    return wrong


def measure(nl, workload: Workload, seed: int, seconds: float, trace: bool,
            setup_s: float) -> dict[str, Any]:
    """The checked pass, then more passes until about ``seconds`` of op
    time; returns the full record.  Each op's cost is the median of its
    runs in reference seconds."""
    speed = None if trace else SpeedProbe()
    with speed.running() if speed else nullcontext():
        return _measure(nl, workload, seed, seconds, setup_s, speed)


def _measure(nl, workload: Workload, seed: int, seconds: float,
             setup_s: float, speed: SpeedProbe | None) -> dict[str, Any]:
    tally = Tally()
    times, intervals, reference, counters = run_pass(workload, tally,
                                                     speed=speed)
    wrong_pins = check_pins(workload, seed, counters, tally)
    busy = sum(times)
    record: dict[str, Any] = {"counters": dict(counters),
                              "pin_mismatches": wrong_pins}
    if speed is not None:
        passes = max(workload.min_passes, int(seconds / busy) if busy else 1)
        runs = [(times, intervals)] + [
            run_pass(workload, tally, reference, speed=speed)[:2]
            for _ in range(passes - 1)]
        costs = [statistics.median(op_runs)
                 for op_runs in zip(*(speed.scaled(*run) for run in runs))]
        metrics = end_to_end(workload, costs, setup_s)
        record["tail_level"] = tail_level(len(costs))
        record["verdicts_per_s"] = sum(op.verdicts for op in workload.ops) \
            / sum(costs)
        record["probe_samples"] = len(speed.samples)
    else:
        # untraced and traced passes alternate, so that drift in the
        # machine's speed falls on both alike
        passes = max(1, int(seconds / (2 * busy)) if busy else 1)
        tracer = Tracer()
        plain_s = traced_s = 0.0
        for _ in range(passes):
            plain_s += sum(run_pass(workload, tally, reference)[0])
            with traced_calls(nl, tracer):
                traced_s += sum(run_pass(workload, tally, reference, tracer)[0])
        metrics = per_layer(nl, workload, tracer, passes, counters,
                            traced_s, plain_s)
        record["spans"] = [
            {"name": n, "start": s, "end": e, "parent": p, "run": r,
             "probe": pr, "seconds": tracer.duration(i)}
            for i, (n, s, e, p, r, pr) in enumerate(tracer.spans)]
    record.update(passes=passes, ops=len(workload.ops),
                  attempted=tally.attempted, failed=tally.failed,
                  failed_ratio=tally.failed / tally.attempted,
                  correct=tally.failed == 0, metrics=metrics)
    return record


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        setup_s, nl, workload = setup(args.workload, args.seed)
    except BenchSetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    gc.collect()
    gc.freeze()  # inputs live for the whole run; keep them out of collections

    record = measure(nl, workload, args.seed, args.seconds, bool(args.trace),
                     setup_s)
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = record["metrics"]
    if set(metrics) != {m["name"] for m in group}:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {m['name'] for m in group})}")
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, git_sha=git_sha(),
                  python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                  sizes=workload.sizes)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    units = {m["name"]: m["unit"] for m in group}
    summary = {k: v for k, v in record.items()
               if k not in ("spans", "metrics")}
    print(json.dumps(summary), file=sys.stderr)
    for name in sorted(metrics):
        print(f"  {name} = {metrics[name]:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
