import hashlib

import pytest
from hypothesis import given, seed, settings, strategies as st

from nlp2dlp import (
    BOT, TOP, And, GeneratorConfig, Not, Or, ParseError, Program, Rule,
    StageInputError, Var, bar_atom, classify, format_expr, generate_program,
    parse, print_dlv, print_nested, translate_mode, user_atom,
)
from nlp2dlp.textio import _TOKEN_RE
import reference_tokenizer

p, q, r = Var(user_atom("p")), Var(user_atom("q")), Var(user_atom("r"))


def test_parse_examples():
    prog = parse("r v (p, q).")
    assert prog.rules == (Rule(Or(r, And(p, q)), TOP),)
    prog = parse("a :- not not b.")
    a, b = Var(user_atom("a")), Var(user_atom("b"))
    assert prog.rules == (Rule(a, Not(Not(b))),)


def test_parse_fact_and_constraint_forms():
    assert parse("p.").rules == (Rule(p, TOP),)
    assert parse(":- p, q.").rules == (Rule(BOT, And(p, q)),)
    assert parse("p :- true.").rules == (Rule(p, TOP),)
    assert parse("- p :- q.").rules == (Rule(Not(p), q),)


def test_parse_rejects_reserved_prefixes():
    with pytest.raises(ParseError):
        parse(":- p, n_p.")
    with pytest.raises(ParseError):
        parse("l_0 :- p.")
    # re-reading translated output is allowed explicitly
    prog = parse("n_p :- not p.", allow_internal=True)
    assert prog.rules == (Rule(Var(bar_atom(user_atom("p"))), Not(p)),)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("p :- q\nr ::.", origin="bad.lp")
    err = info.value
    assert err.origin == "bad.lp"
    assert err.line == 2
    with pytest.raises(ParseError, match="empty rule"):
        parse(".")
    with pytest.raises(ParseError):
        parse("p :- ?.")
    with pytest.raises(ParseError):
        parse("p :- q")  # missing final dot


@pytest.mark.parametrize("text, message, line, col", [
    ("p :- q\nr ::.", "unexpected character ':'", 2, 3),
    ("p :-\tq.\n\tr :-\t?.", "unexpected character '?'", 2, 7),
    ("p :- q.\r\nr :- s.\r\n  t :- #.", "unexpected character '#'", 3, 8),
    ("p.\r\n\t% note\r\n\tq :- r s.", "expected '.', found 's'", 3, 9),
    ("% a comment, then\np. % more\nq :- r ::.", "unexpected character ':'",
     3, 8),
    ("p.\n$q.", "unexpected character '$'", 2, 1),
    ("p.\nq :- (r, (s v t)", "expected ')', found ''", 2, 17),
    ("p :- (\t", "expected an expression, found ''", 1, 8),
    ("p :- n_q.", "atom 'n_q' uses a reserved prefix", 1, 6),
    ("p.\n  q :- r", "expected '.', found ''", 2, 9),
    ("p :- (q, r)).", "expected '.', found ')'", 1, 12),
    ("p :- q, , r.", "expected an expression, found ','", 1, 9),
    ("p :- q, ?, , r.", "unexpected character '?'", 1, 9),
], ids=["lexer", "tabs", "crlf", "crlf_parser", "comment", "line_start",
        "unclosed_paren", "open_paren_at_end", "reserved_prefix",
        "missing_final_dot", "unmatched_rparen", "two_operators",
        "bad_character_as_operand"])
def test_parse_error_line_and_column(text, message, line, col):
    with pytest.raises(ParseError) as info:
        parse(text, origin="in.lp")
    err = info.value
    assert (err.message, err.line, err.col) == (message, line, col)
    assert str(err) == f"in.lp:{line}:{col}: {message}"


def test_v_is_disjunction_only_in_infix_position():
    assert parse("v.").rules == (Rule(Var(user_atom("v")), TOP),)
    assert parse("p v q.").rules == (Rule(Or(p, q), TOP),)
    assert parse("v v v.").rules == (
        Rule(Or(Var(user_atom("v")), Var(user_atom("v"))), TOP),)


def test_precedence_and_comments():
    prog = parse("p v q, not r. % trailing comment\n% full-line comment\n")
    assert prog.rules == (Rule(Or(p, And(q, Not(r))), TOP),)
    assert parse("(p v q), r.").rules[0].head == And(Or(p, q), r)
    assert parse("not (p, q).").rules[0].head == Not(And(p, q))


def test_print_nested_examples():
    assert print_nested(Program((Rule(Not(Not(p)), TOP),))) == "not not p.\n"
    assert print_nested(Program((Rule(BOT, And(p, q)),))) == ":- p, q.\n"
    assert print_nested(Program()) == ""


def test_format_expr_parenthesizes_to_preserve_structure():
    assert format_expr(Or(p, And(q, r))) == "p v q, r"
    assert format_expr(And(Or(p, q), r)) == "(p v q), r"
    assert format_expr(Not(Or(p, q))) == "not (p v q)"
    assert format_expr(And(p, And(q, r))) == "p, (q, r)"


def test_round_trip_over_corpus(corpus):
    for program in corpus:
        assert parse(print_nested(program)).rules == program.rules


_atom_names = st.sampled_from(["a", "b", "c", "d"])


def _exprs():
    leaves = st.one_of(
        st.just(TOP), st.just(BOT),
        _atom_names.map(lambda n: Var(user_atom(n))))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(*t)),
            st.tuples(kids, kids).map(lambda t: Or(*t))),
        max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(head=_exprs(), body=_exprs())
def test_round_trip_property(head, body):
    program = Program((Rule(head, body),))
    assert parse(print_nested(program)).rules == program.rules


def test_print_dlv_examples():
    n_p = Var(bar_atom(user_atom("p")))
    assert print_dlv(Program((Rule(n_p, Not(p)),))) == "n_p :- not p.\n"
    assert print_dlv(Program((Rule(BOT, And(p, n_p)),))) == ":- p, n_p.\n"
    assert print_dlv(Program((Rule(Or(p, q), And(r, Not(q))),))) == \
        "p v q :- r, not q.\n"
    assert print_dlv(Program((Rule(p, TOP),))) == "p.\n"
    assert print_dlv(Program((Rule(Or(p, Not(TOP)), And(Not(BOT), TOP)),))) \
        == "p v not true :- not false, true.\n"
    # three or more literals on a side are printed through the flat list
    assert print_dlv(parse("a v (b v c) :- d, (e, f).")) == \
        "a v b v c :- d, e, f.\n"


def test_print_dlv_rejects_nested_programs():
    nested = Program((Rule(Or(r, And(p, q)), TOP),))
    with pytest.raises(StageInputError, match="print_dlv expects a program "
                       "in class disjunctive; rule 0"):
        print_dlv(nested)


def test_print_dlv_output_reparses_disjunctive(corpus):
    from nlp2dlp import ProgramClass, translate_structural
    for program in corpus[:40]:
        translated, _ = translate_structural(program)
        back = parse(print_dlv(translated), allow_internal=True)
        assert classify(back).value <= ProgramClass.DISJUNCTIVE.value
    translated, _ = translate_mode(
        parse("(a, b) v c v not d :- e, not (f v g)."), "distributive")
    text = print_dlv(translated)
    assert text.splitlines()[:2] == ["a v c v n_d :- e, not f, not g.",
                                     "b v c v n_d :- e, not f, not g."]
    back = parse(text, allow_internal=True)
    assert back.rules == translated.rules
    assert classify(back).value <= ProgramClass.DISJUNCTIVE.value


def _golden_text(mode, simplify):
    """``print_dlv`` of 300 seeded programs over 1-6 atoms, one after
    another."""
    texts = []
    for seed in range(300):
        program = generate_program(GeneratorConfig(seed=seed,
                                                   max_atoms=1 + seed % 6))
        translated, _ = translate_mode(program, mode, simplify=simplify)
        texts.append(print_dlv(translated))
    return "%\n".join(texts)


# SHA-256 of ``_golden_text``, taken before atoms were interned and
# rules printed by shape: the printed output must not change
GOLDEN_DLV = {
    ("structural", False):
        "7c0aa4e9383ffa218c694484aee0c301cb578ac483662be9781416e0ee46614a",
    ("structural", True):
        "8724fcc8406ed40207716d8d6d547c818831c5171c5cee32ed2b0a069fd62e78",
    ("polarity", False):
        "91265b268deb0af17bbaa6f76ab6cd3d612ad75353922513f284d2e4a2b9ffe4",
    ("polarity", True):
        "dc6ee30bec7f823d1c214e94f2e505910a504adc9cde7a3ecaeb3f1eae56333b",
}


@pytest.mark.parametrize("mode, simplify", sorted(GOLDEN_DLV))
def test_print_dlv_golden_digest(mode, simplify):
    digest = hashlib.sha256(_golden_text(mode, simplify).encode()).hexdigest()
    assert digest == GOLDEN_DLV[mode, simplify]


def _scale_text(mode, simplify):
    """``print_dlv`` of one generated program of 2,000 rules over 40
    atoms at depth 6 (seed 992 draws the full rule count)."""
    program = generate_program(GeneratorConfig(
        seed=992, max_atoms=40, max_depth=6, max_rules=2000))
    assert len(program.rules) == 2000
    translated, _ = translate_mode(program, mode, simplify=simplify)
    return print_dlv(translated)


# SHA-256 of ``_scale_text``, taken before the labelling stage walked
# all heads and bodies at once: the printed output must not change at a
# scale where one subformula recurs across many rules
SCALE_DLV = {
    ("structural", False):
        "87d98cefdc7e633f02fa00c9ab0a76a3ded5c4d3d3353b31039cff05496c2da3",
    ("structural", True):
        "46355faba4981419e9265170f0c7fec1a63a3cb57d8c2fb9181ed7ca8c377ff7",
    ("polarity", False):
        "56c42adc2057c81e7b79f1ce19cbf1ced083793cfcfe69e1f2477b44e4c1d1e3",
    ("polarity", True):
        "7f6a3a856a59a8e80cf0b98199af55dabbd38ec32bc4b609a8bd73bbe71b5d2d",
}


@pytest.mark.parametrize("mode, simplify", sorted(SCALE_DLV))
def test_print_dlv_scale_digest(mode, simplify):
    digest = hashlib.sha256(_scale_text(mode, simplify).encode()).hexdigest()
    assert digest == SCALE_DLV[mode, simplify]


def _golden_nested_text():
    """``print_nested`` of the programs behind ``_golden_text``."""
    return "".join(
        print_nested(generate_program(GeneratorConfig(seed=seed,
                                                      max_atoms=1 + seed % 6)))
        for seed in range(300))


# SHA-256 of ``repr`` of the rules parsed from the nested text of the
# ``_golden_text`` programs and, with internal atoms allowed, from their
# ``print_dlv`` text, taken before the parser read plain lexemes: the
# parsed trees must not change
GOLDEN_PARSE = {
    "nested":
        "ca72f7b18212bc398d36d9b12f77166a62b40d02a57072ed011437698b3db0f0",
    "structural-False":
        "a3ee2294ca6f9f116a0660150eb1de72d3ff94ba226b7a7562efcd37a1854b7b",
    "structural-True":
        "699a9fc956b20b7a5336a56377987aeeb995705c0270549f982a80db92ba2e6a",
    "polarity-False":
        "2b5acbb243a525261736c8ebfd2872d39872e93ba95467bef786a2e1643d83d9",
    "polarity-True":
        "bac0550f13aa674469f885dab1ec60d4f1ce2c7c6b6df35857235d6d868510cc",
}


@pytest.mark.parametrize("source", sorted(GOLDEN_PARSE))
def test_parse_golden_digest(source):
    if source == "nested":
        rules = parse(_golden_nested_text()).rules
    else:
        mode, simplify = source.split("-")
        rules = parse(_golden_text(mode, simplify == "True"),
                      allow_internal=True).rules
    digest = hashlib.sha256(repr(rules).encode()).hexdigest()
    assert digest == GOLDEN_PARSE[source]


def _lexemes(pattern, text):
    return [(m.start(1), m[1]) for m in pattern.finditer(text)]


@pytest.mark.parametrize("text", [
    "p :- q.\r\nr :- not s.\r\n",
    "p\t:-\tq,\t\tr.\t\n\tt.",
    "\n\np.\n\n\nq.\n\n",
    "p. % a comment at the end, no newline",
    "p.%c\n%d\nq.",
    "%",
    "% a comment first\np.",
    "",
    " \r\n\t",
], ids=["crlf", "tabs", "blank_lines", "comment_at_end", "comment_lines",
        "lone_percent", "comment_first", "empty", "whitespace_only"])
def test_tokenizer_matches_the_reference_on_edge_cases(text):
    assert _lexemes(_TOKEN_RE, text) == \
        _lexemes(reference_tokenizer.TOKEN_RE, text)


def test_tokenizer_matches_the_reference_on_golden_texts():
    texts = [_golden_nested_text()] + [
        _golden_text(mode, simplify) for mode, simplify in sorted(GOLDEN_DLV)]
    for text in texts:
        assert _lexemes(_TOKEN_RE, text) == \
            _lexemes(reference_tokenizer.TOKEN_RE, text)


def _programs():
    return st.lists(st.tuples(_exprs(), _exprs()), min_size=1,
                    max_size=3).map(
        lambda rules: Program(tuple(Rule(h, b) for h, b in rules)))


@seed(2002)
@settings(max_examples=200, deadline=None)
@given(program=_programs())
def test_dlv_round_trip_property(program):
    """The DLV text of a translation reads back into a program that
    prints as the same text, in every mode."""
    for mode, simplify in [("structural", False), ("structural", True),
                           ("polarity", False), ("polarity", True),
                           ("distributive", False)]:
        translated, _ = translate_mode(program, mode, simplify=simplify)
        text = print_dlv(translated)
        assert print_dlv(parse(text, allow_internal=True)) == text
