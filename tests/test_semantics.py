import random
import tracemalloc

import pytest

from nlp2dlp import (
    BOT, TOP, And, GeneratorConfig, HTInterpretation, Not, Or, Program,
    ResourceLimitError, Rule, Var, World, answer_sets, classical_models,
    equilibrium_models, eval_classical, eval_ht, format_expr,
    generate_program, ht_equivalent, ht_models, is_ht_model, minimal_models,
    parse, parse_expression, reduct, semantics, subformulas,
    translate_structural, user_atom,
)
from nlp2dlp.syntax import negation_free

from naive_oracle import (
    is_model, naive_answer_sets, naive_equilibrium_models, naive_ht_models,
    naive_minimal_models, subsets,
)

pa, qa, ra = user_atom("p"), user_atom("q"), user_atom("r")
p, q, r = Var(pa), Var(qa), Var(ra)
EMPTY = frozenset()


def test_eval_classical_examples():
    assert eval_classical(Or(p, Not(p)), EMPTY)
    assert eval_classical(Not(And(p, q)), frozenset({pa}))
    assert not eval_classical(BOT, EMPTY)
    assert eval_classical(TOP, EMPTY)


def test_reduct_examples():
    prog = Program((Rule(p, Not(q)),))
    assert reduct(prog, frozenset({pa})).rules == (Rule(p, TOP),)
    assert reduct(prog, frozenset({pa, qa})).rules == (Rule(p, BOT),)
    # only the maximal negation is replaced: not not q with q true
    doubled = Program((Rule(p, Not(Not(q))),))
    assert reduct(doubled, frozenset({qa})).rules == (Rule(p, TOP),)
    basic = Program((Rule(Or(p, q), r),))
    assert reduct(basic, frozenset({ra})).rules == basic.rules


def test_reduct_is_negation_free_and_idempotent(corpus):
    for program in corpus:
        for interp in (EMPTY, program.alphabet):
            red = reduct(program, interp)
            assert all(negation_free(r.head) and negation_free(r.body)
                       for r in red.rules)
            assert reduct(red, interp).rules == red.rules


def test_minimal_models_examples():
    alphabet = frozenset({pa, qa})
    assert minimal_models(Program((Rule(Or(p, q), TOP),)), alphabet) == \
        frozenset({frozenset({pa}), frozenset({qa})})
    assert minimal_models(Program(), frozenset({pa})) == frozenset({EMPTY})
    contra = Program((Rule(p, TOP), Rule(BOT, p)))
    assert minimal_models(contra, frozenset({pa})) == frozenset()
    with pytest.raises(ValueError):
        minimal_models(Program((Rule(p, Not(q)),)), alphabet)


def test_answer_sets_examples():
    closing = parse("p. q. r v (p, q).")
    assert answer_sets(closing, frozenset({pa, qa, ra})) == \
        frozenset({frozenset({pa, qa})})
    assert answer_sets(parse("p :- not q."), frozenset({pa, qa})) == \
        frozenset({frozenset({pa})})
    assert answer_sets(parse("p :- p."), frozenset({pa})) == \
        frozenset({EMPTY})


def test_answer_sets_match_naive_oracle(corpus):
    for program in corpus:
        alphabet = program.alphabet
        assert answer_sets(program, alphabet) == \
            naive_answer_sets(program, alphabet)


def test_minimal_models_match_naive_oracle(corpus):
    for program in corpus:
        red = reduct(program, EMPTY)
        alphabet = program.alphabet
        assert minimal_models(red, alphabet) == \
            naive_minimal_models(red, alphabet)


def test_classical_models_match_eval(corpus):
    for program in corpus[:60]:
        alphabet = program.alphabet
        models = classical_models(program, alphabet)
        for interp in subsets(alphabet):
            expected = all(
                (not eval_classical(r.body, interp)) or
                eval_classical(r.head, interp)
                for r in program.rules)
            assert (interp in models) == expected


def test_eval_ht_paper_anchors():
    f = HTInterpretation(EMPTY, frozenset({pa}))
    assert not eval_ht(Or(p, Not(p)), f, World.H)
    # not not p -> p, with the implication clause unfolded by hand:
    # it fails at H because not not p holds here while p does not
    assert eval_ht(Not(Not(p)), f, World.H)
    assert not eval_ht(p, f, World.H)
    assert eval_ht(TOP, f, World.H) and eval_ht(TOP, f, World.T)


def test_is_ht_model_examples():
    prog = Program((Rule(p, Not(q)),))
    assert is_ht_model(prog, HTInterpretation(frozenset({pa}), frozenset({pa})))
    fact = Program((Rule(p, TOP),))
    assert not is_ht_model(fact, HTInterpretation(EMPTY, frozenset({pa})))
    assert is_ht_model(Program(), HTInterpretation(EMPTY, frozenset({pa, qa})))


def test_heredity_for_arrow_free_expressions(corpus):
    for program in corpus[:60]:
        atoms = sorted(program.alphabet)
        for there in subsets(atoms):
            for here in subsets(there):
                f = HTInterpretation(here, there)
                for rule in program.rules:
                    for e in (rule.head, rule.body):
                        if eval_ht(e, f, World.H):
                            assert eval_ht(e, f, World.T)


def test_total_ht_equals_classical(corpus):
    for program in corpus[:60]:
        for interp in subsets(program.alphabet):
            f = HTInterpretation(interp, interp)
            for rule in program.rules:
                for e in (rule.head, rule.body):
                    assert eval_ht(e, f, World.T) == eval_classical(e, interp)


def test_ht_interpretation_validates_containment():
    with pytest.raises(ValueError):
        HTInterpretation(frozenset({pa}), EMPTY)
    assert HTInterpretation(frozenset({pa}), frozenset({pa})).is_total()


def test_ht_equivalent_examples():
    assert ht_equivalent(parse("p."), parse("p. p :- p."), {pa})
    assert ht_equivalent(parse(":- p."), parse(":- p. :- p, q."), {pa, qa})
    assert not ht_equivalent(parse("p :- not not p."), Program(), {pa})
    with pytest.raises(ValueError):
        ht_equivalent(parse("p."), Program(), frozenset())


def test_ht_models_distinguishes_double_negation():
    # <{}, {p}> satisfies p :- not not p vacuously at H but not its absence
    prog = parse("p :- not not p.")
    f = HTInterpretation(EMPTY, frozenset({pa}))
    assert not is_ht_model(prog, f)
    models = ht_models(prog, {pa})
    assert f not in models
    assert HTInterpretation(EMPTY, EMPTY) in models


def test_equilibrium_models_examples():
    assert equilibrium_models(parse("p :- not q."), {pa, qa}) == \
        frozenset({frozenset({pa})})
    assert equilibrium_models(Program(), {pa}) == frozenset({EMPTY})
    closing = parse("p. q. r v (p, q).")
    assert equilibrium_models(closing, {pa, qa, ra}) == \
        frozenset({frozenset({pa, qa})})


def test_ht_models_and_equilibria_match_naive_oracle(corpus):
    for program in corpus[:60]:
        alphabet = program.alphabet
        assert {(f.here, f.there) for f in ht_models(program, alphabet)} == \
            naive_ht_models(program, alphabet)
        assert equilibrium_models(program, alphabet) == \
            naive_equilibrium_models(program, alphabet)


def test_proposition_1_on_corpus(corpus):
    for program in corpus:
        alphabet = program.alphabet
        assert answer_sets(program, alphabet) == \
            equilibrium_models(program, alphabet)


def _with_shared_subtrees(program, rng):
    """The program plus rules that reuse its subformulas, both as the same
    objects and as structurally equal copies, inside and outside ``not``."""
    subs = [s for r in program.rules for e in (r.head, r.body)
            for s in subformulas(e)]
    rules = list(program.rules)
    for _ in range(2):
        s, t = rng.choice(subs), rng.choice(subs)
        copy = parse_expression(format_expr(s))
        rules.append(Rule(s, And(Not(copy), t)))
        rules.append(Rule(Or(parse_expression(format_expr(t)), Not(s)),
                          Not(Not(t))))
    return Program(tuple(rules), program.alphabet)


def test_shared_subtrees_match_naive_oracle(corpus):
    rng = random.Random(4)
    for program in corpus[:60]:
        shared = _with_shared_subtrees(program, rng)
        alphabet = shared.alphabet
        rules = [(r.head, r.body) for r in shared.rules]
        assert classical_models(shared, alphabet) == frozenset(
            i for i in subsets(alphabet) if is_model(rules, i))
        assert answer_sets(shared, alphabet) == \
            naive_answer_sets(shared, alphabet)
        assert {(f.here, f.there) for f in ht_models(shared, alphabet)} == \
            naive_ht_models(shared, alphabet)
        assert equilibrium_models(shared, alphabet) == \
            naive_equilibrium_models(shared, alphabet)


def test_plan_has_one_step_per_distinct_subformula(corpus):
    rng = random.Random(5)
    for program in corpus:
        translated, _ = translate_structural(program)
        shared = _with_shared_subtrees(program, rng)
        for rules in (program.rules, translated.rules, shared.rules):
            distinct = {s for r in rules for e in (r.head, r.body)
                        for s in subformulas(e)}
            assert len(semantics._compile(rules).steps) == len(distinct)


def test_evaluators_on_deep_negation_chain():
    chain = p
    for _ in range(10_000):
        chain = Not(chain)
    assert eval_classical(chain, frozenset({pa}))
    assert not eval_classical(Not(chain), frozenset({pa}))
    f = HTInterpretation(EMPTY, frozenset({pa}))
    # an even chain is not not p: true at H because p holds at T
    assert eval_ht(chain, f, World.H) and not eval_ht(p, f, World.H)
    assert not eval_ht(Not(chain), f, World.T)


def test_enumeration_cap_is_enforced():
    atoms = frozenset(user_atom(f"x{i}") for i in range(21))
    with pytest.raises(ResourceLimitError):
        answer_sets(Program(), atoms)
    with pytest.raises(ResourceLimitError):
        classical_models(Program(), atoms, cap=20)
    pinned = Program(tuple(Rule(BOT, Var(a)) for a in atoms), atoms)
    assert answer_sets(pinned, atoms, cap=21) == frozenset({EMPTY})


ABSENT = frozenset(user_atom(f"z{i}") for i in range(2))


def _window_cases():
    """Seeded programs over 0-8 atoms, some over an alphabet widened by
    atoms absent from them, the empty program, and one made so that a
    stability check fails on its own window's top bit and constants.

    In the last, d, e and f are chosen freely and c is never supported:
    the answer sets are {a, b} with any of d, e, f.  A candidate I with
    c in it is refuted by I minus c, which with windows of 2 atoms is
    the top bit of another window; a candidate without c is stable only
    with every ``not`` fixed by I, not by the top bit of its window."""
    cases = [(Program(), EMPTY), (Program(), ABSENT)]
    for seed in range(27):
        n = seed % 9
        program = generate_program(GeneratorConfig(
            seed=seed, max_atoms=n, max_depth=3, max_rules=4))
        widen = seed % 2 and n <= 6
        alphabet = program.alphabet | (ABSENT if widen else EMPTY)
        cases.append((program, alphabet))
    crafted = parse("a. b. c :- c. d :- not not d. e :- not not e. "
                    "f :- not not f.")
    return cases + [(crafted, crafted.alphabet)]


def _oracle_results(program, alphabet):
    """Every windowed evaluator's answer on one program, in one tuple."""
    others = Program(program.rules[1:], alphabet)
    positive = reduct(program, alphabet)
    return (answer_sets(program, alphabet),
            classical_models(program, alphabet),
            minimal_models(positive, alphabet),
            {(f.here, f.there) for f in ht_models(program, alphabet)},
            equilibrium_models(program, alphabet),
            ht_equivalent(program, others, alphabet))


def _naive_results(program, alphabet):
    others = Program(program.rules[1:], alphabet)
    positive = reduct(program, alphabet)
    rules = [(r.head, r.body) for r in program.rules]
    ht = naive_ht_models(program, alphabet)
    return (naive_answer_sets(program, alphabet),
            frozenset(i for i in subsets(alphabet) if is_model(rules, i)),
            naive_minimal_models(positive, alphabet),
            ht,
            naive_equilibrium_models(program, alphabet),
            ht == naive_ht_models(others, alphabet))


def test_windows_across_boundaries_match_naive_oracle(monkeypatch):
    """With windows of 2 and 3 atoms every alphabet here spans several,
    so a candidate's stability check and the HT blocks cross window
    boundaries; the results must not change."""
    cases = [(program, alphabet, _oracle_results(program, alphabet))
             for program, alphabet in _window_cases()]
    for window in (2, 3):
        monkeypatch.setattr(semantics, "_WINDOW", window)
        for program, alphabet, unwindowed in cases:
            windowed = _oracle_results(program, alphabet)
            assert windowed == unwindowed, (window, program.rules)
            assert windowed == _naive_results(program, alphabet), \
                (window, program.rules)


def test_oracle_memory_is_bounded_by_the_window(corpus):
    wide = next((program, translated) for program in corpus
                for translated in (translate_structural(program)[0],)
                if len(translated.var() | program.alphabet) == 22)
    program, translated = wide
    # the full-window patterns (0.25 MB) are cached for the process: fill
    # them first, so that the peak measures the evaluator whatever ran
    # before
    semantics._atom_patterns(semantics._WINDOW)
    tracemalloc.start()
    try:
        answer_sets(translated, translated.var() | program.alphabet, cap=24)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    atoms = frozenset(user_atom(f"x{i}") for i in range(17))
    facts = Program(tuple(Rule(Var(a), TOP) for a in atoms))
    assert ht_models(facts, atoms) == {HTInterpretation(atoms, atoms)}
    assert classical_models(facts, atoms | ABSENT) == \
        {atoms | extra for extra in subsets(ABSENT)}
    # patterns are cached by width, and no width beyond the window
    assert semantics._atom_patterns.cache_info().currsize <= \
        semantics._WINDOW + 1


def _traced_peak(evaluate) -> int:
    tracemalloc.start()
    try:
        evaluate()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_per_window_is_one_bitmap_per_slot():
    """An evaluator keeps each slot's bitmap to the end of its loop: one
    window holds at most one 2^_WINDOW-bit integer per step, two under
    HT.  Every rule here holds everywhere, so no loop stops early."""
    atoms = [user_atom(f"x{i}") for i in range(17)]
    rng = random.Random(12)
    rules = []
    for _ in range(200):
        a, b, c = (Var(rng.choice(atoms)) for _ in range(3))
        rules.append(Rule(TOP, Or(And(a, Not(b)), c)))
    plan = semantics._compile(rules)
    assert 300 <= len(plan.steps) <= 500
    bits = semantics._atom_bits(plan, atoms)
    everything = (1 << len(atoms)) - 1
    _, full, table = semantics._windows(bits, everything)[0]
    _, _, pairs = semantics._windows(bits, everything, ht=True)[0]
    bound = len(plan.steps) * 2 ** semantics._WINDOW // 8
    slack = 1 << 16
    assert _traced_peak(
        lambda: semantics._models_bitmap(plan, table, full)) <= bound + slack
    assert _traced_peak(
        lambda: semantics._ht_holds(plan, pairs, full)) <= 2 * bound + slack


def test_answer_sets_enumerate_only_positive_atoms(monkeypatch):
    """An atom that occurs only under ``not`` is in no answer set, so no
    candidate holds one: here only {p} and {} are candidates, not the
    2^11 interpretations of the alphabet."""
    program = parse("p :- " + ", ".join(f"not q{i}" for i in range(1, 11))
                    + ".")
    yielded = []
    models = semantics._models

    def counted(*args):
        for index in models(*args):
            yielded.append(index)
            yield index

    monkeypatch.setattr(semantics, "_models", counted)
    assert answer_sets(program, program.alphabet) == {frozenset({pa})}
    assert len(yielded) <= 2


def _count_ht_holds(monkeypatch) -> list[int]:
    calls = [0]
    holds = semantics._ht_holds

    def counted(*args):
        calls[0] += 1
        return holds(*args)

    monkeypatch.setattr(semantics, "_ht_holds", counted)
    return calls


def test_equilibrium_models_skip_a_decided_there_world(monkeypatch):
    """With windows of 2 atoms each there-world T of this 8-atom program
    spans several windows; once T's first window rejects T, or a later
    one holds a model, the rest of T is not evaluated."""
    program = parse("a. b :- not c. c :- not b. d v e. f :- a, not g. "
                    "g :- h. h :- not f.")
    monkeypatch.setattr(semantics, "_WINDOW", 2)
    calls = _count_ht_holds(monkeypatch)
    models = equilibrium_models(program, program.alphabet)
    assert calls[0] <= 520
    assert models == answer_sets(program, program.alphabet) == \
        naive_equilibrium_models(program, program.alphabet)


EIGHT = [user_atom(f"a{i}") for i in range(1, 9)]


@pytest.mark.parametrize("window, limit", [(16, 2), (2, 128)])
def test_equilibrium_models_visit_only_total_models(window, limit,
                                                    monkeypatch):
    """<H, T> is an HT-model only if <T, T> is one: of the 256
    there-worlds of the 8 facts only the whole alphabet is visited."""
    facts = parse("a1. a2. a3. a4. a5. a6. a7. a8.")
    monkeypatch.setattr(semantics, "_WINDOW", window)
    calls = _count_ht_holds(monkeypatch)
    assert equilibrium_models(facts, EIGHT) == {frozenset(EIGHT)}
    assert calls[0] <= limit


@pytest.mark.parametrize("window, limit", [(16, 2), (2, 128)])
def test_ht_equivalent_differs_on_total_models(window, limit, monkeypatch):
    """The constraint rules out <T, T> for T the whole alphabet only, so
    the diagonal passes alone tell the programs apart."""
    constraint = parse(":- a1, a2, a3, a4, a5, a6, a7, a8.")
    monkeypatch.setattr(semantics, "_WINDOW", window)
    calls = _count_ht_holds(monkeypatch)
    assert not ht_equivalent(constraint, Program(()), EIGHT)
    assert calls[0] <= limit


def test_ht_equivalent_compares_blocks_of_shared_total_models():
    """p v not p and the empty program have the same total models over
    {p}; only <{}, {p}> tells them apart."""
    assert not ht_equivalent(parse("p v not p."), Program(()), {pa})
