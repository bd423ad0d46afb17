import itertools
import random
import tracemalloc

import pytest

from nlp2dlp import (
    BOT, TOP, And, GeneratorConfig, HTInterpretation, Not, Or, Program,
    ResourceLimitError, Rule, Var, answer_sets, classical_models,
    equilibrium_models, format_expr, generate_program, ht_equivalent,
    ht_models, parse, semantics, subformulas, tr1,
    translate_structural, user_atom,
)

from naive_oracle import (
    is_model, naive_answer_sets, naive_equilibrium_models, naive_ht_models,
    naive_minimal_models, reduce_expr, subsets,
)

pa, qa, ra = user_atom("p"), user_atom("q"), user_atom("r")
p, q, r = Var(pa), Var(qa), Var(ra)
EMPTY = frozenset()
P = frozenset({pa})


def _fact(expr):
    """The one-rule program ``expr.``: its classical models are where
    ``expr`` is true, its HT-models the pairs where it holds at H."""
    return Program((Rule(expr, TOP),))


def _positive(program, interp):
    """The program with each outermost ``not`` fixed to its value under
    ``interp``, by the naive oracle: negation-free, so its answer sets
    are its minimal models."""
    return Program(tuple(Rule(reduce_expr(r.head, interp),
                              reduce_expr(r.body, interp))
                         for r in program.rules), program.alphabet)


def test_eval_classical_examples():
    """Classical truth of e, read as membership in the classical models
    of the program ``e.``."""
    assert classical_models(_fact(Or(p, Not(p))), P) == {EMPTY, P}
    assert classical_models(_fact(Not(And(p, q))), {pa, qa}) == \
        {EMPTY, P, frozenset({qa})}
    assert classical_models(_fact(BOT), EMPTY) == frozenset()
    assert classical_models(_fact(TOP), EMPTY) == {EMPTY}


def test_minimal_models_examples():
    alphabet = frozenset({pa, qa})
    assert answer_sets(Program((Rule(Or(p, q), TOP),)), alphabet) == \
        frozenset({P, frozenset({qa})})
    assert answer_sets(Program(), P) == frozenset({EMPTY})
    contra = Program((Rule(p, TOP), Rule(BOT, p)))
    assert answer_sets(contra, P) == frozenset()
    basic = Program((Rule(Or(p, q), r), Rule(r, TOP)))
    assert answer_sets(basic, {pa, qa, ra}) == \
        {frozenset({pa, ra}), frozenset({qa, ra})}


def test_answer_sets_examples():
    closing = parse("p. q. r v (p, q).")
    assert answer_sets(closing, frozenset({pa, qa, ra})) == \
        frozenset({frozenset({pa, qa})})
    assert answer_sets(parse("p :- not q."), frozenset({pa, qa})) == \
        frozenset({P})
    assert answer_sets(parse("p :- p."), P) == frozenset({EMPTY})
    # only the outermost ``not`` is fixed by the candidate: with q true,
    # not not q is true and p is supported
    assert answer_sets(parse("p :- not not q. q."), {pa, qa}) == \
        {frozenset({pa, qa})}
    # so not not p is no p: {p} fixes it to true, {} to false
    assert answer_sets(parse("p :- not not p."), P) == {EMPTY, P}
    # {p, q} is a classical model of p :- not q, but its reduct p :- false
    # has a smaller one
    assert frozenset({pa, qa}) in classical_models(parse("p :- not q."),
                                                   {pa, qa})


def test_answer_sets_match_naive_oracle(corpus):
    for program in corpus:
        alphabet = program.alphabet
        assert answer_sets(program, alphabet) == \
            naive_answer_sets(program, alphabet)


def test_minimal_models_match_naive_oracle(corpus):
    for program in corpus:
        red = _positive(program, EMPTY)
        alphabet = program.alphabet
        assert answer_sets(red, alphabet) == \
            naive_minimal_models(red, alphabet)


def test_classical_models_match_eval(corpus):
    for program in corpus[:60]:
        alphabet = program.alphabet
        rules = [(r.head, r.body) for r in program.rules]
        assert classical_models(program, alphabet) == frozenset(
            i for i in subsets(alphabet) if is_model(rules, i))


def test_eval_ht_paper_anchors():
    """HT truth of e at H, read as membership in the HT-models of the
    program ``e.``."""
    f = HTInterpretation(EMPTY, P)
    assert f not in ht_models(_fact(Or(p, Not(p))), P)
    # not not p -> p fails at H because not not p holds here while p
    # does not
    assert f in ht_models(_fact(Not(Not(p))), P)
    assert f not in ht_models(_fact(p), P)
    assert f not in ht_models(Program((Rule(p, Not(Not(p))),)), P)
    assert ht_models(_fact(TOP), P) == \
        {HTInterpretation(EMPTY, EMPTY), f, HTInterpretation(P, P)}


def test_is_ht_model_examples():
    assert HTInterpretation(P, P) in ht_models(parse("p :- not q."), {pa, qa})
    assert HTInterpretation(EMPTY, P) not in ht_models(parse("p."), P)
    assert HTInterpretation(EMPTY, frozenset({pa, qa})) in \
        ht_models(Program(), {pa, qa})


def test_heredity_for_arrow_free_expressions(corpus):
    """Heredity of each head and body e, read through the rule s :- e,
    with s a fresh atom: e holds at H of <H, T> iff <H, T + s> is no
    HT-model, and at T iff <T, T> is none.  Programs are hereditary
    too: <H, T> is an HT-model only if <T, T> is one."""
    s = Var(user_atom("s"))
    for program in corpus[:60]:
        alphabet = program.alphabet
        assert s.atom not in alphabet
        models = ht_models(program, alphabet)
        assert all(HTInterpretation(f.there, f.there) in models
                   for f in models)
        for e in (e for rule in program.rules for e in (rule.head, rule.body)):
            reads = ht_models(Program((Rule(s, e),)), alphabet | {s.atom})
            for there in subsets(alphabet):
                if HTInterpretation(there, there) not in reads:
                    continue
                # e fails at T, so it must fail at every H below T
                assert all(HTInterpretation(here, there | {s.atom}) in reads
                           for here in subsets(there))


def test_total_ht_equals_classical(corpus):
    for program in corpus[:60]:
        alphabet = program.alphabet
        assert {f.there for f in ht_models(program, alphabet)
                if f.here == f.there} == classical_models(program, alphabet)


def test_ht_interpretation_validates_containment():
    with pytest.raises(ValueError):
        HTInterpretation(frozenset({pa}), EMPTY)
    assert HTInterpretation({pa}, {pa}) == HTInterpretation(P, P)


def test_ht_equivalent_examples():
    assert ht_equivalent(parse("p."), parse("p. p :- p."), {pa})
    assert ht_equivalent(parse(":- p."), parse(":- p. :- p, q."), {pa, qa})
    assert not ht_equivalent(parse("p :- not not p."), Program(), {pa})
    # one program object on both sides is two programs of one plan
    same = parse("p :- not not p. :- q.")
    assert ht_equivalent(same, same, {pa, qa})
    with pytest.raises(ValueError):
        ht_equivalent(parse("p."), Program(), frozenset())


def test_ht_models_distinguishes_double_negation():
    # <{}, {p}> satisfies p :- not not p vacuously at H but not its absence
    prog = parse("p :- not not p.")
    f = HTInterpretation(EMPTY, P)
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


def _reparsed(e):
    """A structurally equal copy of ``e``, built apart by the parser."""
    return parse(format_expr(e) + ".").rules[0].head


def _with_shared_subtrees(program, rng):
    """The program plus rules that reuse its subformulas, both as the same
    objects and as structurally equal copies, inside and outside ``not``."""
    subs = [s for r in program.rules for e in (r.head, r.body)
            for s in subformulas((e,))]
    rules = list(program.rules)
    for _ in range(2):
        s, t = rng.choice(subs), rng.choice(subs)
        copy = _reparsed(s)
        rules.append(Rule(s, And(Not(copy), t)))
        rules.append(Rule(Or(_reparsed(t), Not(s)), Not(Not(t))))
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
                        for s in subformulas((e,))}
            assert len(semantics._compile(rules).steps) == len(distinct)


def test_evaluators_on_deep_negation_chain():
    chain = p
    for _ in range(10_000):
        chain = Not(chain)
    # an even chain is not not p, and not chain is not p
    even, odd = _fact(chain), _fact(Not(chain))
    assert classical_models(even, P) == {P}
    assert classical_models(odd, P) == {EMPTY}
    # not not p is true at H of <{}, {p}> because p holds at T
    assert ht_models(even, P) == {HTInterpretation(EMPTY, P),
                                  HTInterpretation(P, P)}
    assert ht_models(odd, P) == {HTInterpretation(EMPTY, EMPTY)}
    # {p} is refuted by <{}, {p}>, and p is under ``not`` only
    assert answer_sets(even, P) == equilibrium_models(even, P) == frozenset()
    assert answer_sets(odd, P) == equilibrium_models(odd, P) == {EMPTY}
    assert ht_equivalent(even, _fact(Not(Not(p))), P)
    assert ht_equivalent(odd, _fact(Not(p)), P)
    assert not ht_equivalent(even, odd, P)


def test_enumeration_cap_is_enforced():
    atoms = frozenset(user_atom(f"x{i}") for i in range(21))
    with pytest.raises(ResourceLimitError):
        answer_sets(Program(), atoms)
    with pytest.raises(ResourceLimitError):
        classical_models(Program(), atoms, cap=20)
    pinned = Program(tuple(Rule(BOT, Var(a)) for a in atoms), atoms)
    assert answer_sets(pinned, atoms, cap=21) == frozenset({EMPTY})


def test_alphabet_must_cover_the_program():
    """The entry that checks the cap also refuses an alphabet that misses
    an atom, which every function would otherwise read as false; an
    alphabet wider than the program's atoms is accepted."""
    fact = parse("p.")

    def both(program, alphabet):
        return ht_equivalent(program, program, alphabet)

    for oracle in (classical_models, answer_sets, ht_models, both,
                   equilibrium_models):
        with pytest.raises(ValueError, match="from the alphabet: p$"):
            oracle(fact, EMPTY)
    with pytest.raises(ValueError, match="from the alphabet: q, r$"):
        ht_equivalent(parse("r :- q."), parse("p."), P)
    wide = frozenset({pa, qa})
    assert classical_models(fact, wide) == {P, wide}
    assert answer_sets(fact, wide) == equilibrium_models(fact, wide) == {P}
    assert ht_models(fact, wide) == {HTInterpretation(P, P),
                                     HTInterpretation(P, wide),
                                     HTInterpretation(wide, wide)}
    assert ht_equivalent(fact, parse("p. p :- q."), wide)
    assert not ht_equivalent(fact, parse("p. :- q."), wide)


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
    positive = _positive(program, alphabet)
    return (answer_sets(program, alphabet),
            classical_models(program, alphabet),
            answer_sets(positive, alphabet),
            {(f.here, f.there) for f in ht_models(program, alphabet)},
            equilibrium_models(program, alphabet),
            ht_equivalent(program, others, alphabet))


def _naive_results(program, alphabet):
    others = Program(program.rules[1:], alphabet)
    positive = _positive(program, alphabet)
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


@pytest.mark.parametrize("ht", [False, True])
def test_windows_list_every_subset_once_at_the_boundary(ht, monkeypatch):
    """With windows of 3 atoms, picking 2, 3, 4 or 5 of 6 atoms runs both
    sides of the k <= _WINDOW fork: each subset of the picked atoms is
    bit i of exactly one window, numbered base + i by the bits of the
    picked atoms in order, and an atom's entry has bit i set exactly when
    the atom is in that subset; an atom not picked reads false."""
    monkeypatch.setattr(semantics, "_WINDOW", 3)
    bits = [1 << j for j in range(6)]
    for k in (2, 3, 4, 5):
        for picked in itertools.combinations(range(6), k):
            index = sum(bits[j] for j in picked)
            numbers = []
            for base, full, table in semantics._windows(bits, index, ht):
                assert full == (1 << (1 << min(k, 3))) - 1
                for j, entry in enumerate(table):
                    if ht:
                        # T is the whole picked set, in every subset
                        assert entry[1] == (full if j in picked else 0)
                        entry = entry[0]
                    rank = picked.index(j) if j in picked else None
                    for i in range(full.bit_length()):
                        inside = rank is not None and (base + i) >> rank & 1
                        assert (entry >> i & 1) == inside, (k, picked, j)
                numbers += [base + i for i in range(full.bit_length())]
            assert sorted(numbers) == list(range(1 << k)), (k, picked)


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


@pytest.mark.parametrize("window", [16, 2])
def test_ht_equivalent_differs_on_total_models(window, monkeypatch):
    """The constraint rules out <T, T> for T the whole alphabet only, so
    the first window of the one diagonal pass, which holds that T, tells
    the programs apart."""
    constraint = parse(":- a1, a2, a3, a4, a5, a6, a7, a8.")
    monkeypatch.setattr(semantics, "_WINDOW", window)
    calls = _count_ht_holds(monkeypatch)
    assert not ht_equivalent(constraint, Program(()), EIGHT)
    assert calls[0] == 1


@pytest.mark.parametrize("window, windows", [(16, 2), (2, 128)])
def test_ht_equivalent_evaluates_each_window_once(window, windows,
                                                  monkeypatch):
    """Both programs are compiled into one plan, so each window is one
    ``_ht_holds`` call for the two of them: the diagonal pass over the
    256 there-worlds, then the windows of the one T with a total model,
    the whole alphabet (1 + 1 windows of 16 atoms, 64 + 64 of 2)."""
    facts = parse("a1. a2. a3. a4. a5. a6. a7. a8.")
    reversed_facts = Program(facts.rules[::-1])
    monkeypatch.setattr(semantics, "_WINDOW", window)
    calls = _count_ht_holds(monkeypatch)
    assert ht_equivalent(facts, reversed_facts, EIGHT)
    assert calls[0] == windows


def _equivalent_pairs(corpus):
    """Pairs whose rules fold at different steps of their one plan: each
    program with its tr1 translation and with its rules reversed, which
    have its HT-models, and two pairs that differ only in the rule
    folded last, x :- not not x against x v not x (the same HT-models)
    and against x :- x (which no longer rules out <{}, {x}>)."""
    pairs = []
    for program in corpus:
        reversed_rules = Program(program.rules[::-1], program.alphabet)
        pairs.append((program, tr1(program)))
        pairs.append((program, reversed_rules))
    base = "a. b :- not c. c :- not b. d v e. x :- not not x."
    for last in ("x v not x.", "x :- x."):
        pairs.append((parse(base), parse(base.replace("x :- not not x.",
                                                       last))))
    return pairs


def test_equivalent_pairs_across_windows_match_naive_oracle(corpus,
                                                            monkeypatch):
    """Each program's bitmap is compared with the other's only after the
    last fold of the plan, in every window: a comparison made while one
    program's rules are still folding would tell an equivalent pair
    apart."""
    cases = []
    for p1, p2 in _equivalent_pairs(corpus):
        alphabet = p1.var() | p2.var() | p1.alphabet
        same = naive_ht_models(p1, alphabet) == naive_ht_models(p2, alphabet)
        cases.append((p1, p2, alphabet, same))
    assert sum(same for *_, same in cases) == len(cases) - 1
    for window in (16, 2):
        monkeypatch.setattr(semantics, "_WINDOW", window)
        for p1, p2, alphabet, same in cases:
            assert ht_equivalent(p1, p2, alphabet) == same, \
                (window, p1.rules, p2.rules)


def test_ht_equivalent_compares_blocks_of_shared_total_models():
    """p v not p and the empty program have the same total models over
    {p}; only <{}, {p}> tells them apart."""
    assert not ht_equivalent(parse("p v not p."), Program(()), {pa})
