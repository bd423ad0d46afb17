import pytest

from nlp2dlp import (
    BOT, And, GeneratorConfig, Not, Or, Program, ProgramClass, Rule, TOP, Var,
    check_faithful, check_modular, check_strongly_faithful, classify,
    family_program, generate_program, growth_csv, measure_growth, parse,
    label_atom, translate, translate_mode, translate_structural, user_atom,
    verify,
)
from nlp2dlp.cli import main
import small_scope

_TR2, _TR4 = translate.tr2, translate.tr4

pa, qa, ra = user_atom("p"), user_atom("q"), user_atom("r")
CLOSING = "p. q. r v (p, q)."


def test_check_faithful_structural_closing_example():
    verdict = check_faithful(parse(CLOSING))
    assert verdict.equal and verdict.witness is None
    assert verdict.input_answer_sets == frozenset({frozenset({pa, qa})})
    assert verdict.projected_translated_sets == verdict.input_answer_sets


def test_check_faithful_polarity_negative_control():
    verdict = check_faithful(parse(CLOSING), mode="polarity")
    assert not verdict.equal
    assert verdict.witness == frozenset({pa, qa, ra})
    assert verdict.projected_translated_sets == frozenset(
        {frozenset({pa, qa}), frozenset({pa, qa, ra})})


def test_verdict_flags_answer_sets_that_collapse_onto_one_projection():
    a, b = user_atom("a"), user_atom("b")
    l0, l1 = label_atom(0), label_atom(1)
    inputs = frozenset({frozenset({a}), frozenset({b})})
    # {a} has one translated answer set, {b} has two
    outputs = frozenset({frozenset({a, l0}), frozenset({b, l0}),
                         frozenset({b, l1})})
    verdict = verify._verdict(inputs, outputs, frozenset({a, b}))
    assert verdict.projected_translated_sets == inputs
    assert not verdict.equal
    assert verdict.witness == frozenset({b})


def test_check_faithful_on_empty_program():
    verdict = check_faithful(Program())
    assert verdict.equal
    assert verdict.input_answer_sets == frozenset({frozenset()})


def test_check_faithful_distributive(corpus):
    for program in corpus[:25]:
        assert check_faithful(program, mode="distributive").equal


def test_every_program_of_five_nodes_translates_faithfully():
    """Bounded-exhaustive: all 1,440 one-rule programs over a and b whose
    head and body have at most 5 nodes together, with and without
    ``--simplify``.  The polarity variant is the negative control, so it
    must fail on some of them either way."""
    count, found = small_scope.unfaithful(5)
    assert count == 1440
    assert found["structural"] == found["distributive"] == \
        found["structural --simplify"] == []
    assert found["polarity"] and found["polarity --simplify"]
    # a kept constant needs no label, so this one is caught without
    # --simplify only
    assert parse("a v true :- not b.") in found["polarity"]
    assert parse("a v true :- not b.") not in found["polarity --simplify"]
    assert parse("not (a, b).") in found["polarity --simplify"]


def test_check_faithful_rejects_unknown_mode():
    with pytest.raises(ValueError):
        check_faithful(Program(), mode="magic")


def test_translate_mode_leaves_simplify_off_by_default():
    """With ``true`` in the program, simplify drops the rules of its
    label, so only the unsimplified translation equals the default."""
    program = parse("p :- true. q v not r :- p, true.")
    assert translate_mode(program, "structural") == \
        translate_structural(program)
    assert translate_mode(program, "structural") != \
        translate_structural(program, simplify=True)


def test_check_strongly_faithful_examples():
    config = GeneratorConfig(seed=1)
    verdicts = check_strongly_faithful(parse("p :- not q."), 10, config)
    assert len(verdicts) == 10
    assert all(v.equal for v in verdicts)
    assert check_strongly_faithful(parse("p."), 0, config) == []


def test_strong_faithfulness_specific_context():
    # the closing example decomposed as program + context
    program = parse("r v (p, q).")
    context = parse("p. q.")
    from nlp2dlp import answer_sets, translate_structural
    combined = answer_sets(program.union(context), program.alphabet)
    assert combined == frozenset({frozenset({pa, qa})})
    translated, _ = translate_structural(program)
    merged = translated.union(context)
    outputs = answer_sets(merged, merged.var() | program.alphabet, cap=24)
    assert frozenset(i & program.alphabet for i in outputs) == combined


def test_check_modular_examples():
    p1, p2 = parse("p :- not q."), parse("q :- not p.")
    assert check_modular(p1, p2)
    assert check_modular(p1, Program())
    assert check_modular(p1, p1)


def test_check_modular_with_shared_subformulas():
    # both halves label the same subformula; union must still agree
    p1 = parse("a :- not (b, c).")
    p2 = parse("d :- not (b, c).")
    assert check_modular(p1, p2)


def _tr4_first_bar_only(program, table):
    """tr4 keeping the ``:- p, n_p`` / ``n_p :- not p`` pair of the first
    barred atom only."""
    out = _TR4(program, table)
    every_pair = {rule for atom, bar in table.bars.items()
                  for rule in (Rule(BOT, And(Var(atom), Var(bar))),
                               Rule(Var(bar), Not(Var(atom))))}
    pairs = [r for r in out.rules if r in every_pair]
    return Program(tuple(r for r in out.rules if r not in pairs[2:]),
                   out.alphabet)


def _tr2_without_last_aux(program, table, **options):
    out = _TR2(program, table, **options)
    return Program(out.rules[:-1], out.alphabet)


@pytest.mark.parametrize("stage, mutant", [("tr4", _tr4_first_bar_only),
                                           ("tr2", _tr2_without_last_aux)])
def test_check_modular_fails_on_a_non_modular_stage(stage, mutant, tmp_path,
                                                    capsys, monkeypatch):
    one, two = "not p :- q.\n", "not q :- p.\n"
    assert check_modular(parse(one), parse(two))
    monkeypatch.setattr(translate, stage, mutant)
    assert not check_modular(parse(one), parse(two))
    (tmp_path / "one.lp").write_text(one)
    (tmp_path / "two.lp").write_text(two)
    code = main(["check", "modular", "-i", str(tmp_path / "one.lp"),
                 "-j", str(tmp_path / "two.lp")])
    assert code == 1
    assert capsys.readouterr().out == "modular: no\n"


def test_family_program_shapes():
    dnf = family_program("dnf_head", 2)
    assert len(dnf.rules) == 1 and dnf.rules[0].body == TOP
    cnf = family_program("cnf_body", 2)
    assert cnf.rules[0].head == Var(user_atom("p"))
    a1, b1, a2, b2 = (Var(user_atom(n)) for n in ("a1", "b1", "a2", "b2"))
    assert cnf.rules[0].body == And(Or(a1, b1), Or(a2, b2))
    with pytest.raises(ValueError):
        family_program("nope", 2)
    with pytest.raises(ValueError):
        family_program("dnf_head", 0)


def test_measure_growth_dnf_head():
    rows = measure_growth("dnf_head", range(1, 5))
    assert [row.distributive_rules for row in rows] == [2, 4, 8, 16]
    assert all(not row.overflow for row in rows)
    # structural size grows along a line measured at n = 1, 2
    c1 = rows[1].structural_size - rows[0].structural_size
    c0 = rows[0].structural_size - c1
    assert all(row.structural_size == c1 * row.n + c0 for row in rows)


def test_measure_growth_records_overflow():
    rows = measure_growth("dnf_head", [1, 12], guard=500)
    assert not rows[0].overflow
    assert rows[1].overflow
    assert rows[1].distributive_size is None
    assert rows[1].structural_size > 0


def test_growth_csv_format():
    rows = measure_growth("cnf_body", [1, 2])
    text = growth_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "n,structural_size,distributive_size,distributive_overflow"
    assert len(lines) == 3 and text.endswith("\n")
    assert lines[1].startswith("1,") and lines[1].endswith(",0")
    overflow = growth_csv(measure_growth("dnf_head", [12], guard=500))
    assert overflow.splitlines()[1] == \
        f"12,{measure_growth('dnf_head', [12], guard=500)[0].structural_size},,1"


def test_generator_is_deterministic():
    config = GeneratorConfig(seed=1, max_atoms=3, max_depth=2, max_rules=2)
    first = generate_program(config)
    second = generate_program(config)
    assert first.rules == second.rules
    assert generate_program(GeneratorConfig(seed=2, max_atoms=3, max_depth=2,
                                            max_rules=2)).rules != first.rules


def test_generator_respects_bounds(corpus):
    for program in corpus:
        assert classify(program).value <= ProgramClass.NESTED.value
        assert len(program.alphabet) <= 4
        assert 1 <= len(program.rules) <= 3


def test_generator_family_dispatch():
    config = GeneratorConfig(seed=0, family="dnf_head", max_rules=3)
    assert generate_program(config).rules == family_program("dnf_head", 3).rules


def test_generator_rejects_unknown_family():
    with pytest.raises(ValueError, match="bogus"):
        generate_program(GeneratorConfig(seed=0, family="bogus"))
