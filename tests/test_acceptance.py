"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``)
and then asserts, so the suite both reports and gates.
"""

import time

from nlp2dlp import (
    BOT, TOP, And, AtomTable, GeneratorConfig, HTInterpretation, Not, Or,
    Program, ProgramClass, Rule, Var, answer_sets, check_faithful,
    check_modular, check_strongly_faithful, classify, equilibrium_models,
    ht_models, measure_growth, parse, tr1, tr2, tr3, tr4,
    translate_polarity_variant, translate_structural, user_atom,
)

pa, qa, ra = user_atom("p"), user_atom("q"), user_atom("r")
p, q, r = Var(pa), Var(qa), Var(ra)
CLOSING = "p. q. r v (p, q)."


def report(number, name, ok):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def _project(program, translated, cap=24):
    sets = answer_sets(translated, translated.var() | program.alphabet, cap)
    return frozenset(i & program.alphabet for i in sets)


def test_criterion_1_end_to_end_example():
    program = parse(CLOSING)
    start = time.perf_counter()
    translated, _ = translate_structural(program)
    projected = _project(program, translated)
    elapsed = time.perf_counter() - start
    ok = projected == frozenset({frozenset({pa, qa})}) and elapsed < 1.0
    report(1, "structural end-to-end example", ok)


def test_criterion_2_polarity_negative_control():
    program = parse(CLOSING)
    translated, _ = translate_polarity_variant(program)
    projected = _project(program, translated)
    expected = frozenset({frozenset({pa, qa}), frozenset({pa, qa, ra})})
    report(2, "polarity counterexample", projected == expected)


def test_criterion_3_answer_sets_equal_equilibrium_models(corpus):
    start = time.perf_counter()
    mismatches = sum(
        1 for program in corpus
        if answer_sets(program, program.alphabet)
        != equilibrium_models(program, program.alphabet))
    elapsed = time.perf_counter() - start
    ok = len(corpus) >= 200 and mismatches == 0 and elapsed < 60.0
    report(3, "answer sets = equilibrium models on corpus", ok)


def test_criterion_4_faithfulness_suite(corpus):
    failures = sum(1 for program in corpus
                   if not check_faithful(program, mode="structural").equal)
    report(4, "structural faithfulness on corpus", failures == 0)


def test_criterion_5_strong_faithfulness_sampling(corpus):
    failures = 0
    for index, program in enumerate(corpus[:50]):
        verdicts = check_strongly_faithful(
            program, 25, GeneratorConfig(seed=index))
        failures += sum(1 for v in verdicts if not v.equal)
    report(5, "strong faithfulness, 50 programs x 25 contexts",
           failures == 0)


def test_criterion_6_modularity(corpus):
    pairs = [(corpus[2 * i], corpus[2 * i + 1]) for i in range(100)]
    failures = sum(1 for p1, p2 in pairs if not check_modular(p1, p2))
    report(6, "modularity on 100 corpus pairs", failures == 0)


def test_criterion_7_blow_up_separation():
    rows = measure_growth("dnf_head", range(1, 11))
    exponential = all(row.distributive_rules == 2 ** row.n for row in rows)
    c1 = rows[1].structural_size - rows[0].structural_size
    c0 = rows[0].structural_size - c1
    linear = all(row.structural_size == c1 * row.n + c0 for row in rows)
    report(7, "exponential vs linear growth", exponential and linear)


def _all_expressions(depth, atoms):
    if depth == 1:
        return [TOP, BOT] + [Var(a) for a in atoms]
    smaller = _all_expressions(depth - 1, atoms)
    out = list(smaller)
    out.extend(Not(e) for e in smaller)
    out.extend(And(l, r) for l in smaller for r in smaller)
    out.extend(Or(l, r) for l in smaller for r in smaller)
    return out


def _all_ht_interps(atoms):
    import itertools
    for t_size in range(len(atoms) + 1):
        for there in itertools.combinations(atoms, t_size):
            for h_size in range(len(there) + 1):
                for here in itertools.combinations(there, h_size):
                    yield HTInterpretation(frozenset(here), frozenset(there))


def _hereditary(e, atoms, s):
    """e holds at H of no <H, T> where it fails at T.  Its truth is read
    through the rule s :- e, s a fresh atom: e holds at H of <H, T> iff
    <H, T + s> is no HT-model, and at T iff <T, T> is none."""
    models = ht_models(Program((Rule(Var(s), e),)), atoms + (s,))
    return all(HTInterpretation(g.here, g.there | {s}) in models
               for g in _all_ht_interps(atoms)
               if HTInterpretation(g.there, g.there) in models)


def test_criterion_8_ht_anchors_and_heredity():
    f = HTInterpretation(frozenset(), frozenset({pa}))
    anchor1 = f not in ht_models(parse("p v not p."), {pa})
    # not not p -> p as the rule p :- not not p, checked at H
    anchor2 = f not in ht_models(Program((Rule(p, Not(Not(p))),)), {pa})
    atoms = (pa, qa, ra)
    s = user_atom("s")
    heredity = all(_hereditary(e, atoms, s)
                   for e in _all_expressions(3, atoms))
    report(8, "HT anchors and heredity", anchor1 and anchor2 and heredity)


def test_criterion_9_stage_typing(corpus):
    failures = 0
    for program in corpus:
        table = AtomTable()
        s1 = tr1(program)
        s2 = tr2(s1, table)
        s3 = tr3(s2)
        s4 = tr4(s3, table)
        stages = ((s1, ProgramClass.NNF), (s2, ProgramClass.GDLP_HT),
                  (s3, ProgramClass.GENERALIZED_DISJUNCTIVE),
                  (s4, ProgramClass.DISJUNCTIVE))
        if not all(classify(s).value <= cls.value for s, cls in stages):
            failures += 1
    report(9, "stage typing across the pipeline", failures == 0)
