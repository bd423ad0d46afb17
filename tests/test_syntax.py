import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_classifier as reference
from nlp2dlp import (
    TOP, And, Atom, AtomKind, AtomTable, Bot, GeneratorConfig, Not, Or,
    Program, ProgramClass, ResourceLimitError, Rule, Top, Var, bar_atom,
    classify, format_expr, generate_program, is_ht_nnf, label_atom,
    program_size, subformulas, tr1, tr2, tr3, tr4, translate_distributive,
    user_atom,
)
from nlp2dlp.syntax import _first_out_of_class, _rule_rank
from nlp2dlp.textio import parse

p, q, r = Var(user_atom("p")), Var(user_atom("q")), Var(user_atom("r"))


def test_atom_kinds_and_validation():
    assert user_atom("p").kind is AtomKind.USER
    assert label_atom(3).name == "l_3"
    assert bar_atom(user_atom("p")).name == "n_p"
    # the name fixes the kind
    assert Atom("p").kind is AtomKind.USER
    assert Atom("l_3").kind is AtomKind.LABEL
    assert Atom("n_p").kind is AtomKind.BAR
    for name in ("l_0", "n_p", "l_x"):
        with pytest.raises(ValueError, match="uses a reserved prefix"):
            user_atom(name)
    with pytest.raises(ValueError):
        user_atom("Pascal")
    for name in ("l_x", "l_01", "n_l_0", "n_n_p", "n_Pascal", "Pascal", "_p"):
        with pytest.raises(ValueError):
            Atom(name)
    # a bar over a label or over a bar atom fails the bar-name rule
    with pytest.raises(ValueError, match="invalid bar atom name 'n_l_0'"):
        bar_atom(label_atom(0))
    with pytest.raises(ValueError, match="invalid bar atom name 'n_n_p'"):
        bar_atom(bar_atom(user_atom("p")))
    with pytest.raises(ValueError):
        label_atom(-1)
    # one instance per name, however it was made
    assert label_atom(3) is label_atom(3)
    assert Atom("l_3") is label_atom(3)
    assert Atom("n_p") is bar_atom(user_atom("p"))
    assert Atom("p") is user_atom("p")
    for atom in (user_atom("p"), label_atom(3), bar_atom(user_atom("p"))):
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
    atom = user_atom("p")
    with pytest.raises(AttributeError):
        atom.name = "q"
    with pytest.raises(AttributeError):
        atom.kind = AtomKind.LABEL
    with pytest.raises(AttributeError):
        del atom.name
    assert (atom.name, atom.kind) == ("p", AtomKind.USER)
    assert sorted([user_atom("q"), atom]) == [atom, user_atom("q")]
    assert repr(atom) == "Atom(name='p', kind=<AtomKind.USER: 'user'>)"


def test_atom_carries_its_one_var():
    for atom in (user_atom("p"), label_atom(7), bar_atom(user_atom("q")),
                 Atom("l_8")):
        assert isinstance(atom.var, Var) and atom.var.atom is atom
        assert Var(atom) == atom.var
        assert copy.deepcopy(atom).var is atom.var
        assert pickle.loads(pickle.dumps(atom)).var is atom.var
        with pytest.raises(AttributeError):
            atom.var = Var(atom)
        with pytest.raises(AttributeError):
            del atom.var
    # the parser and the stages emit the atom's own node
    rule = parse("n_q :- p, not l_8.", allow_internal=True).rules[0]
    assert rule.head is bar_atom(user_atom("q")).var
    assert rule.body.left is user_atom("p").var
    assert rule.body.right.child is label_atom(8).var
    labelled = tr2(parse("p."), AtomTable())
    assert labelled.rules[0].head is label_atom(0).var
    barred = tr4(parse("not q :- r."), AtomTable())
    assert barred.rules[0].head is bar_atom(user_atom("q")).var


def test_classify_examples():
    # {p :- not q} satisfies the generalized-disjunctive shape; with no
    # negated head it is already disjunctive, the more specific class
    neg_body = Program((Rule(p, Not(q)),))
    assert _first_out_of_class(
        neg_body.rules, ProgramClass.GENERALIZED_DISJUNCTIVE) is None
    assert classify(neg_body) is ProgramClass.DISJUNCTIVE
    nested_head = Program((Rule(Or(r, And(p, q)), TOP),))
    assert classify(nested_head) is ProgramClass.NNF
    assert classify(Program((Rule(Or(p, q), r),))) is ProgramClass.BASIC


def test_classify_chain_is_monotone(corpus):
    order = list(ProgramClass)
    for program in corpus:
        cls = classify(program)
        for larger in order[order.index(cls):]:
            assert _first_out_of_class(program.rules, larger) is None


def test_classify_ht_literal_heads():
    doubled = Program((Rule(Or(p, Not(Not(q))), TOP),))
    assert classify(doubled) is ProgramClass.GDLP_HT
    neg_head = Program((Rule(Not(q), r),))
    assert classify(neg_head) is ProgramClass.GENERALIZED_DISJUNCTIVE


def test_subformulas_order_and_dedup():
    e = Or(r, And(p, q))
    assert subformulas((e,)) == [r, p, q, And(p, q), e]
    assert subformulas((Not(Not(p)),), ht_atomic=True) == [Not(Not(p))]
    assert subformulas((And(p, p),)) == [p, And(p, p)]
    assert subformulas((e, And(p, q), Not(r))) == [r, p, q, And(p, q), e,
                                                    Not(r)]


def test_walk_over_several_roots_is_the_per_root_walks_in_turn(corpus):
    for program in corpus:
        for staged in (program, tr1(program)):
            roots = [e for r in staged.rules for e in (r.head, r.body)]
            for ht_atomic in (False, True):
                # each node first met in a later root is listed there
                in_turn = list(dict.fromkeys(
                    s for root in roots
                    for s in subformulas((root,), ht_atomic)))
                walked = subformulas(roots, ht_atomic)
                assert walked == in_turn
                reference_walk = []
                for root in roots:
                    for s in _reference_subformulas(root, ht_atomic):
                        if s not in reference_walk:
                            reference_walk.append(s)
                assert walked == reference_walk


def test_subformulas_bounded_by_node_count(corpus):
    for program in corpus:
        for rule in program.rules:
            for e in (rule.head, rule.body):
                subs = subformulas((e,))
                assert len(subs) <= e._size
                nodes = set(_reference_subformulas(e, False))
                assert all(s in nodes for s in subs)


def test_program_size_examples():
    assert program_size(Program()) == 0
    assert program_size(Program((Rule(p, TOP),))) == 3
    assert program_size(Program((Rule(Or(r, And(p, q)), TOP),))) == 7


def test_program_union_deduplicates():
    one = Program((Rule(p, TOP),))
    two = Program((Rule(p, TOP), Rule(q, TOP)))
    assert one.union(two).rules == (Rule(p, TOP), Rule(q, TOP))
    assert one.union(one).rules == one.rules


def test_alphabet_covers_occurring_atoms():
    prog = Program((Rule(p, q),), alphabet=frozenset({user_atom("z")}))
    assert prog.var() == {p.atom, q.atom}
    assert prog.var() | {user_atom("z")} == prog.alphabet


# expression blueprints: nested tuples, so that each draw can be built into
# trees that share no node
_blueprints = st.recursive(
    st.sampled_from([("top",), ("bot",), ("var", "a"), ("var", "b")]),
    lambda kids: st.one_of(
        st.tuples(st.just("not"), kids),
        st.tuples(st.sampled_from(["and", "or"]), kids, kids)),
    max_leaves=6)


def _build(blueprint):
    kind, *args = blueprint
    if kind == "top":
        return Top()
    if kind == "bot":
        return Bot()
    if kind == "var":
        return Var(user_atom(args[0]))
    if kind == "not":
        return Not(_build(args[0]))
    return (And if kind == "and" else Or)(*map(_build, args))


@settings(max_examples=300, deadline=None)
@given(x=_blueprints, y=_blueprints)
def test_equality_and_hash_are_structural(x, y):
    a, b = _build(x), _build(x)
    assert a is not b
    assert a == b and hash(a) == hash(b) and not a != b
    c = _build(y)
    assert (a == c) == (format_expr(a) == format_expr(c))
    if a == c:
        assert hash(a) == hash(c)
    assert a != format_expr(a)


def _counted_nodes(expr):
    count = 0
    stack = [expr]
    while stack:
        e = stack.pop()
        count += 1
        if isinstance(e, Not):
            stack.append(e.child)
        elif isinstance(e, (And, Or)):
            stack += (e.left, e.right)
    return count


@settings(max_examples=300, deadline=None)
@given(x=_blueprints, y=_blueprints)
def test_stored_size_is_the_node_count(x, y):
    a, c = _build(x), _build(y)
    shared = And(a, Or(a, Not(c)))
    for e in (a, c, shared):
        assert e._size == _counted_nodes(e)
    program = Program((Rule(a, c), Rule(shared, TOP)))
    assert program_size(program) == sum(
        _counted_nodes(e) for e in (a, c, shared, TOP)) + 2


@settings(max_examples=300, deadline=None)
@given(x=_blueprints, y=_blueprints)
def test_stored_ranks_match_the_reference_walk(x, y):
    a, c = _build(x), _build(y)
    for e in (a, c, And(a, c), Or(a, Not(c))):
        assert is_ht_nnf(e) == reference.is_ht_nnf(e)
    for rule in (Rule(a, c), Rule(Or(a, c), And(c, a))):
        assert _rule_rank(rule) == reference.rule_rank(rule)


def _reference_subformulas(expr, ht_atomic):
    """Distinct subexpressions, left-to-right and bottom-up: a plain
    recursive walk that keeps HT-literals whole by the reference test."""
    out = []

    def visit(e):
        if e in out:
            return
        if not (ht_atomic and reference.is_ht_literal(e)):
            if isinstance(e, Not):
                visit(e.child)
            elif isinstance(e, (And, Or)):
                visit(e.left)
                visit(e.right)
        out.append(e)

    visit(expr)
    return out


@settings(max_examples=300, deadline=None)
@given(x=_blueprints, y=_blueprints)
@example(x=("not", ("not", ("not", ("var", "a")))),
         y=("not", ("and", ("var", "a"), ("var", "b"))))
@example(x=("not", ("top",)), y=("not", ("not", ("bot",))))
def test_subformulas_match_the_reference_walk(x, y):
    a, c = _build(x), _build(y)
    # repeated subtrees, both shared and built apart
    for e in (a, c, And(a, _build(x)), Or(Not(c), And(c, a)), Not(Not(a)),
              Not(Not(Not(c)))):
        for ht_atomic in (False, True):
            assert subformulas((e,), ht_atomic=ht_atomic) == \
                _reference_subformulas(e, ht_atomic)


def _stages(program):
    """The program, and what each stage of every translation makes of it."""
    yield program
    nnf = tr1(program)
    yield nnf
    for options in ({}, {"polarity": True}, {"simplify": True}):
        table = AtomTable()
        labelled = tr2(nnf, table, **options)
        literal = tr3(labelled)
        yield from (labelled, literal, tr4(literal, table))
    try:
        yield translate_distributive(program, max_nodes=20_000)[0]
    except ResourceLimitError:
        pass


def test_rule_rank_matches_the_reference_on_every_stage(corpus):
    golden = [generate_program(GeneratorConfig(seed=seed,
                                               max_atoms=1 + seed % 6))
              for seed in range(300)]
    seeded = [generate_program(GeneratorConfig(
        seed=seed, max_atoms=6, max_depth=4, max_rules=5))
        for seed in range(300)]
    reached = set()
    for program in corpus + golden + seeded:
        for staged in _stages(program):
            for rule in staged.rules:
                rank = _rule_rank(rule)
                assert rank == reference.rule_rank(rule), rule
                reached.add(rank)
    assert reached == {c.value for c in ProgramClass}
