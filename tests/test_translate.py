import math
import re
import statistics
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from nlp2dlp import (
    BOT, TOP, And, AtomTable, GeneratorConfig, Not, Or, Program, ProgramClass,
    ResourceLimitError, Rule, StageInputError, Var, answer_sets, bar_atom,
    classify, family_program, generate_program, ht_equivalent, label_atom,
    normalize_nnf, parse, print_dlv, print_nested, program_size, tr1, tr2,
    tr3, tr4,
    translate_distributive, translate_polarity_variant, translate_structural,
    user_atom,
)
import reference_tr2
from nlp2dlp import semantics, syntax, translate
from nlp2dlp.syntax import is_ht_nnf, subformulas
from nlp2dlp.translate import _structural_pipeline

pa, qa, ra = user_atom("p"), user_atom("q"), user_atom("r")
p, q, r = Var(pa), Var(qa), Var(ra)
a, b = Var(user_atom("a")), Var(user_atom("b"))
s = Var(user_atom("s"))


def test_normalize_nnf_examples():
    assert normalize_nnf(Not(Not(p))) == Not(Not(p))
    assert normalize_nnf(Not(And(p, q))) == Or(Not(p), Not(q))
    assert normalize_nnf(Not(Not(Not(p)))) == Not(p)
    assert normalize_nnf(Not(Not(Or(p, q)))) == Or(Not(Not(p)), Not(Not(q)))
    assert normalize_nnf(Not(Or(p, q))) == And(Not(p), Not(q))


def _single_rule_ht_equivalent(e1, e2):
    alphabet = Program((Rule(e1, TOP), Rule(e2, TOP))).var()
    return ht_equivalent(Program((Rule(e1, TOP),)),
                         Program((Rule(e2, TOP),)), alphabet or {pa})


def test_normalize_nnf_preserves_ht_models(corpus):
    for program in corpus:
        for rule in program.rules:
            for e in (rule.head, rule.body):
                normalized = normalize_nnf(e)
                assert is_ht_nnf(normalized)
                assert _single_rule_ht_equivalent(e, normalized)


_names = st.sampled_from(["a", "b", "c", "d"])


def _exprs():
    leaves = st.one_of(st.just(TOP), st.just(BOT),
                       _names.map(lambda n: Var(user_atom(n))))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t))),
        max_leaves=10)


@settings(max_examples=100, deadline=None)
@given(expr=_exprs())
def test_normalize_nnf_property(expr):
    normalized = normalize_nnf(expr)
    assert is_ht_nnf(normalized)
    assert _single_rule_ht_equivalent(expr, normalized)


def test_normalize_nnf_keeps_ht_nnf_trees(corpus):
    for program in corpus:
        for rule in tr1(program).rules:
            for e in (rule.head, rule.body):
                assert normalize_nnf(e) is e
    # a triple negation is not HT-NNF, and still rewrites, also inside
    triple = Not(Not(Not(p)))
    assert normalize_nnf(triple) == Not(p)
    assert normalize_nnf(And(q, triple)) == And(q, Not(p))


def test_tr1_examples():
    prog = parse("p :- not (q v r).")
    assert tr1(prog).rules == (Rule(p, And(Not(q), Not(r))),)
    fix = parse("p v not q :- r.")
    assert tr1(fix).rules == fix.rules
    assert tr1(Program()).rules == ()


def test_tr1_passes_nnf_rules_through():
    # the last rule is NNF but not GDLP-HT, a disjunction under a
    # conjunction: the highest rank tr1 passes on unchanged
    program = parse("p v not q :- r, not not s. p :- not (q v r). :- q. "
                    "p :- (q v r), s.")
    out = tr1(program)
    assert out.rules[0] is program.rules[0]
    assert out.rules[2] is program.rules[2]
    assert out.rules[1] == Rule(p, And(Not(q), Not(r)))
    assert classify(Program(program.rules[3:])) is ProgramClass.NNF
    assert out.rules[3] is program.rules[3]


def test_tr2_golden_single_negated_body():
    l0, l1 = Var(label_atom(0)), Var(label_atom(1))
    out = tr2(parse("p :- not q."), AtomTable())
    assert out.rules == (
        Rule(l0, l1),
        Rule(l0, p), Rule(p, l0),
        Rule(l1, Not(q)), Rule(Not(q), l1),
    )


def test_tr2_rule_count_formula():
    # 1 main rule + 2 per literal (r, p, q, true) + 3 per binary connective
    out = tr2(tr1(parse("r v (p, q).")), AtomTable())
    assert len(out.rules) == 1 + 2 * 4 + 3 * 2 == 15
    assert classify(out).value <= ProgramClass.GDLP_HT.value
    assert tr2(Program(), AtomTable()).rules == ()


def test_tr2_shares_labels_across_rules():
    table = AtomTable()
    out = tr2(parse("p :- not q. r :- not q."), table)
    assert table.next_label_index == 3  # p, not q, r and nothing else
    assert table.labels[Not(q)] is label_atom(1)
    assert len(out.rules) == 2 + 2 * 3


def test_tr2_emits_each_subformula_in_its_first_occurrence_slot():
    # p v q is first met in a head, then inside a body; its atoms are a
    # subtree shared by both positions, and r recurs in two bodies
    program = parse("p v q :- r. s :- (p v q), r.")
    l0, l1, l2, l3, l4, l5 = (Var(label_atom(i)) for i in range(6))
    main = (Rule(l2, l3), Rule(l4, l5))
    assert tr2(program, AtomTable(), polarity=True).rules == main + (
        Rule(l0, p), Rule(p, l0),
        Rule(l1, q), Rule(q, l1),
        Rule(l2, l0), Rule(l2, l1), Rule(Or(l0, l1), l2),
        Rule(l3, r),
        Rule(s, l4),
        Rule(l5, And(l2, l3)),
    )
    # structural: both directions, an Or's elimination first
    assert tr2(program, AtomTable()).rules == main + (
        Rule(l0, p), Rule(p, l0),
        Rule(l1, q), Rule(q, l1),
        Rule(Or(l0, l1), l2), Rule(l2, l0), Rule(l2, l1),
        Rule(l3, r), Rule(r, l3),
        Rule(l4, s), Rule(s, l4),
        Rule(l5, And(l2, l3)), Rule(l2, l5), Rule(l3, l5),
    )
    # a second translation over the same table reuses l_2 for p v q and
    # counts only the label it adds
    table = AtomTable()
    _, first = _structural_pipeline(program, table)
    again, second = _structural_pipeline(parse("u :- p v q."), table)
    assert first.labels_created == 6
    assert second.labels_created == 1
    assert again.rules[0] == Rule(Var(label_atom(6)), l2)


def test_tr2_matches_the_per_position_reference():
    # deeper and longer than the golden digests' programs, so that one
    # subformula recurs in heads and bodies at many depths
    for seed in range(300):
        program = tr1(generate_program(GeneratorConfig(
            seed=seed, max_atoms=6, max_depth=5, max_rules=8)))
        for polarity in (False, True):
            for simplify in (False, True):
                table, expected_table = AtomTable(), AtomTable()
                out = tr2(program, table, polarity=polarity,
                          simplify=simplify)
                expected = reference_tr2.tr2(program, expected_table,
                                             polarity=polarity,
                                             simplify=simplify)
                assert out.rules == expected, (seed, polarity, simplify)
                assert table.labels == expected_table.labels


def test_tr2_and_the_oracle_walk_each_program_once(monkeypatch):
    program = tr1(parse("p v not q :- not not (r, s), not (p v q)."
                        " :- not not t. not r v (s, not p). s :- r, s."))
    calls = []

    def counted(module):
        walk = module.subformulas

        def call(roots, ht_atomic=False):
            calls.append(module.__name__)
            return walk(roots, ht_atomic)
        monkeypatch.setattr(module, "subformulas", call)

    counted(translate)
    counted(semantics)
    for polarity in (False, True):
        for simplify in (False, True):
            tr2(program, AtomTable(), polarity=polarity, simplify=simplify)
    semantics._compile(program.rules)
    assert calls == ["nlp2dlp.translate"] * 4 + ["nlp2dlp.semantics"]


def test_tr2_rejects_non_nnf_input():
    with pytest.raises(StageInputError, match=re.escape(
            "tr2 expects a program in class nnf; rule 1: p :- not (q, r).")):
        tr2(parse("q. p :- not (q, r)."), AtomTable())


def test_tr3_paper_examples():
    moved = tr3(parse("a v not not p :- b."))
    assert moved.rules == (Rule(a, And(b, Not(p))),)
    moved = tr3(parse("a :- b, not not q."))
    assert moved.rules == (Rule(Or(a, Not(q)), b),)
    both = tr3(parse("not not p :- not not q."))
    assert both.rules == (Rule(Not(q), Not(p)),)


def _random_ht_literal(rng, atoms):
    lit = Var(rng.choice(atoms))
    return rng.choice([lit, Not(lit), Not(Not(lit))])


def test_tr3_is_ht_equivalent_to_input():
    # small gdlp_ht programs keep the 3^n HT enumeration cheap
    import random

    from nlp2dlp.syntax import conjunction, disjunction

    atoms = (pa, qa, ra)
    rng = random.Random(7)
    for _ in range(150):
        rules = []
        for _ in range(rng.randint(1, 3)):
            head = disjunction([_random_ht_literal(rng, atoms)
                                for _ in range(rng.randint(0, 2))])
            body = conjunction([_random_ht_literal(rng, atoms)
                                for _ in range(rng.randint(0, 2))])
            rules.append(Rule(head, body))
        staged = Program(tuple(rules))
        out = tr3(staged)
        assert ht_equivalent(staged, out, staged.var() | out.var() | {pa})


def test_tr3_leaves_clean_rules_untouched():
    prog = parse("p v not q :- r, not p.")
    assert tr3(prog).rules == prog.rules
    with pytest.raises(StageInputError, match=re.escape(
            "tr3 expects a program in class gdlp_ht; rule 0: p :- q v r.")):
        tr3(parse("p :- q v r."))


def test_tr4_examples():
    n_q = Var(bar_atom(qa))
    out = tr4(parse("not q :- r."), AtomTable())
    assert out.rules == (
        Rule(n_q, r),
        Rule(BOT, And(q, n_q)),
        Rule(n_q, Not(q)),
    )
    clean = parse("p v q :- not r.")
    assert tr4(clean, AtomTable()).rules == clean.rules
    twice = tr4(parse("not q :- r. not q :- p."), AtomTable())
    assert len(twice.rules) == 4  # bar rules appended once


def test_tr4_rejects_gdlp_ht_input():
    with pytest.raises(StageInputError, match=re.escape(
            "tr4 expects a program in class generalized_disjunctive; "
            "rule 1: p :- not not q.")):
        tr4(parse("q. p :- not not q."), AtomTable())


def test_pipeline_rejects_output_that_is_not_disjunctive(monkeypatch):
    """A tr4 that passes its input on leaves the negated head atom in
    the output, and the pipeline's own check names the rule that tr2
    made of it."""
    monkeypatch.setattr(translate, "tr4", lambda program, table: program)
    with pytest.raises(StageInputError, match=re.escape(
            "pipeline output expects a program in class disjunctive; "
            "rule 2: not q :- l_0.")):
        translate_structural(parse("not q :- r."))


def test_structural_end_to_end_closing_example():
    program = parse("p. q. r v (p, q).")
    translated, report = translate_structural(program)
    assert classify(translated).value <= ProgramClass.DISJUNCTIVE.value
    sets = answer_sets(translated, translated.var() | program.alphabet, cap=24)
    projected = frozenset(i & program.alphabet for i in sets)
    assert projected == frozenset({frozenset({pa, qa})})
    assert report.mode == "structural"
    assert report.rules_in == 3
    assert report.output_size == program_size(translated)


def test_structural_on_empty_program():
    translated, report = translate_structural(Program())
    assert translated.rules == ()
    assert report.output_size == 0 and report.labels_created == 0


def test_polarity_variant_reproduces_counterexample():
    program = parse("p. q. r v (p, q).")
    translated, report = translate_polarity_variant(program)
    assert report.mode == "polarity"
    assert len(translated.rules) < len(translate_structural(program)[0].rules)
    sets = answer_sets(translated, translated.var() | program.alphabet, cap=24)
    projected = frozenset(i & program.alphabet for i in sets)
    assert projected == frozenset({frozenset({pa, qa}),
                                   frozenset({pa, qa, ra})})


def test_polarity_variant_fine_on_plain_fact():
    program = parse("p.")
    translated, _ = translate_polarity_variant(program)
    sets = answer_sets(translated, translated.var() | program.alphabet)
    assert frozenset(i & program.alphabet for i in sets) == \
        frozenset({frozenset({pa})})


def test_distributive_examples():
    out, report = translate_distributive(parse("r v (p, q)."))
    assert set(out.rules) == {Rule(Or(r, p), TOP), Rule(Or(r, q), TOP)}
    assert report.mode == "distributive" and report.labels_created == 0
    out, _ = translate_distributive(parse("a :- (b, p) v (q, r)."))
    assert set(out.rules) == {Rule(a, And(b, p)), Rule(a, And(q, r))}


def test_distributive_guard_trips():
    from nlp2dlp import family_program
    with pytest.raises(ResourceLimitError):
        translate_distributive(family_program("dnf_head", 10), max_nodes=100)


def test_stage_typing_over_corpus(corpus):
    for program in corpus:
        s1 = tr1(program)
        assert classify(s1).value <= ProgramClass.NNF.value
        table = AtomTable()
        s2 = tr2(s1, table)
        assert classify(s2).value <= ProgramClass.GDLP_HT.value
        s3 = tr3(s2)
        assert classify(s3).value <= ProgramClass.GENERALIZED_DISJUNCTIVE.value
        s4 = tr4(s3, table)
        assert classify(s4).value <= ProgramClass.DISJUNCTIVE.value


def test_simplify_elides_constant_labels():
    program = parse("p.")
    plain, _ = translate_structural(program)
    slim, report = translate_structural(program, simplify=True)
    assert len(slim.rules) < len(plain.rules)
    assert report.labels_created == 1  # only L_p
    sets = answer_sets(slim, slim.var() | program.alphabet)
    assert frozenset(i & program.alphabet for i in sets) == \
        frozenset({frozenset({pa})})


def test_report_counts_are_consistent(corpus):
    for program in corpus[:60]:
        translated, report = translate_structural(program)
        assert report.input_size == program_size(program)
        assert report.output_size == program_size(translated)
        assert report.rules_out == len(translated.rules)
        assert report.bars_created >= 0 and report.labels_created >= 0


def test_report_counts_only_the_labels_and_bars_it_adds():
    """Over a table that already holds n_q and the labels of not q and r,
    the second translation reuses them and counts only the label of p,
    the label of not r and the bar n_r."""
    table = AtomTable()
    _, first = _structural_pipeline(parse("not q :- r."), table)
    assert (first.labels_created, first.bars_created) == (2, 1)
    _, second = _structural_pipeline(parse("not q :- p. not r :- p."), table)
    assert (second.labels_created, second.bars_created) == (2, 1)
    assert list(table.bars) == [qa, ra]
    assert len(table.labels) == 4


def _walked_atoms(program):
    return frozenset(
        s.atom for s in subformulas([e for rule in program.rules
                                     for e in (rule.head, rule.body)])
        if isinstance(s, Var))


def _check_atoms(out, alphabet):
    assert out.var() == _walked_atoms(out)
    assert out.alphabet == alphabet | out.var()


def test_stages_carry_their_atoms_forward(corpus):
    randoms = [generate_program(GeneratorConfig(
        seed=seed, max_atoms=6, max_depth=4, max_rules=6))
        for seed in range(100)]
    programs = corpus + randoms
    for program, other in zip(programs, programs[1:] + programs[:1]):
        reread = parse(print_nested(program))
        _check_atoms(reread, frozenset())
        _check_atoms(program.union(other), program.alphabet | other.alphabet)
        for polarity in (False, True):
            for simplify in (False, True):
                table = AtomTable()
                s1 = tr1(program)
                _check_atoms(s1, program.alphabet)
                s2 = tr2(s1, table, polarity=polarity, simplify=simplify)
                _check_atoms(s2, s1.alphabet)
                s3 = tr3(s2)
                _check_atoms(s3, s2.alphabet)
                s4 = tr4(s3, table)
                _check_atoms(s4, s3.alphabet)
                _check_atoms(s4.union(other), s4.alphabet | other.alphabet)
        _check_atoms(translate_distributive(program)[0], program.alphabet)


def test_translation_walks_no_rules_for_atoms(monkeypatch):
    program = parse("p v not q :- not not (r, s), not (p v q). :- not not t."
                    " not r v (s, not p).")
    calls = []
    walk_atoms = syntax._atoms

    def counted(exprs):
        calls.append(1)
        return walk_atoms(exprs)

    monkeypatch.setattr(syntax, "_atoms", counted)
    for simplify in (False, True):
        translate_structural(program, simplify=simplify)
        translate_polarity_variant(program, simplify=simplify)
    translate_distributive(program)
    assert calls == []
    # the counter sees a walk where one is made
    Program(program.rules)
    assert calls == [1]


# texts of size about n for the linear-time gate, each with the stages
# it stresses; every family also runs parse and print_dlv on its text
LINEAR_FAMILIES = {
    # one long body of mixed literals: tr1, tr2 and the parser's loop
    "long_body": lambda n: "h :- " + ", ".join(
        (f"not not a{i}", f"(a{i} v not b{i})", f"not a{i}")[i % 3]
        for i in range(n)) + ".\n",
    # one wide disjunctive head, one wide conjunctive body: tr2's labels
    # and, after it, tr3 and tr4 over n short rules
    "dnf_head": lambda n: print_nested(family_program("dnf_head", n)),
    "cnf_body": lambda n: print_nested(family_program("cnf_body", n)),
    # one deep chain: tr1's triple-negation rewrite and the parser's
    # operator stack
    "stacked_not": lambda n: "p :- " + "not " * n + "q.\n",
    # one deep nesting: the parser's groups and tr2's walk
    "nested_parens": lambda n: "p :- " + "".join(
        f"(not a{i} {'v' if i % 2 else ','} " for i in range(n))
    + "q" + ")" * n + ".\n",
    # n short rules: the per-rule cost of every stage and of the printer
    "short_rules": lambda n: "".join(
        f"a{i} :- not b{i}, (c{i} v not not d{i}).\n" for i in range(n)),
}
LINEAR_SIZES = (16, 32, 64, 128, 256)


def _compile_text(text):
    print_dlv(translate_structural(parse(text))[0])


def _opcodes_run(text):
    """Bytecode instructions run inside the package to compile ``text``.

    C-level work, such as a list concatenation or a tuple search, is
    not counted; the bench's scaling exponent covers it end to end."""
    package = str(Path(translate.__file__).parent)
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def enter(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        _compile_text(text)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("family", sorted(LINEAR_FAMILIES))
def test_compile_runs_in_linear_opcode_count(family):
    """parse, translate_structural and print_dlv run a number of
    bytecode instructions linear in the input: the log-log slope of the
    count over n is at most 1.1.  The gate is on the slope only, as the
    counts themselves differ between Python versions.  Fixed costs that
    dominate at small n keep some slopes well under 1."""
    make = LINEAR_FAMILIES[family]
    # the atoms of every size interned first, so that no run pays for
    # names that another made before it
    _compile_text(make(LINEAR_SIZES[-1]))
    xs = [math.log(n) for n in LINEAR_SIZES]
    ys = [math.log(_opcodes_run(make(n))) for n in LINEAR_SIZES]
    x_mean, y_mean = statistics.fmean(xs), statistics.fmean(ys)
    slope = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)) \
        / sum((x - x_mean) ** 2 for x in xs)
    assert slope <= 1.1, (family, round(slope, 3))


def _stage_programs(program, max_nodes=translate.DEFAULT_GUARD):
    """Each program that a stage of the structural, polarity and
    distributive modes, with and without ``simplify``, takes or makes
    from ``program``: every stage's input and output, and each mode's
    result.  A distributive expansion over ``max_nodes`` is left out."""
    programs = []
    with pytest.MonkeyPatch.context() as mp:
        for k in range(1, 5):
            def recorded(staged, *args, stage=getattr(translate, f"tr{k}"),
                         **kwargs):
                out = stage(staged, *args, **kwargs)
                programs.extend((staged, out))
                return out
            mp.setattr(translate, f"tr{k}", recorded)
        for polarity in (False, True):
            for simplify in (False, True):
                programs.append(_structural_pipeline(
                    program, AtomTable(), polarity=polarity,
                    simplify=simplify)[0])
        try:
            programs.append(translate_distributive(program, max_nodes)[0])
        except ResourceLimitError:
            pass
    return programs


def _check_carried(program):
    """The size, class, alphabet and atoms that ``program`` carries are
    those of the same rules walked afresh."""
    fresh = Program(program.rules, program.alphabet)
    assert program_size(program) == program_size(fresh)
    assert classify(program) is classify(fresh)
    assert program.alphabet == fresh.alphabet
    assert program.var() == fresh.var()


def test_stages_carry_what_a_fresh_walk_finds(corpus):
    for program in corpus:
        for staged in _stage_programs(program):
            _check_carried(staged)


@pytest.mark.parametrize("family", sorted(LINEAR_FAMILIES))
def test_stages_carry_what_a_fresh_walk_finds_at_scale(family):
    for n in LINEAR_SIZES:
        program = parse(LINEAR_FAMILIES[family](n))
        for staged in _stage_programs(program, max_nodes=20_000):
            _check_carried(staged)


@seed(2003)
@settings(max_examples=100, deadline=None)
@given(rules=st.lists(st.tuples(_exprs(), _exprs()), min_size=1, max_size=3))
def test_stages_carry_what_a_fresh_walk_finds_property(rules):
    program = Program(tuple(Rule(head, body) for head, body in rules))
    for staged in _stage_programs(program):
        _check_carried(staged)
