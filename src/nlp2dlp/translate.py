"""Translation pipeline from nested to disjunctive logic programs.

The structural translation composes four passes:

1. rewrite heads and bodies into HT negational normal form;
2. abbreviate every subformula by a fresh label atom, keeping programs
   polynomial in the input size;
3. eliminate doubly negated literals by moving them across the arrow;
4. replace negated head atoms by bar atoms guarded by a constraint.

Each pass first checks that its input is in the class it expects.  Every
``Rule`` stores its rank when it is built, so a check is one C-level
``max`` over the rules, taken at most once per program and kept on it;
only a failing check walks them, to name the first rule outside the
class.  Each pass hands its output's size and atoms on with it,
computed from what it builds: tr2 from a fixed cost per subformula, and
tr1, tr3 and tr4 from the rules they rebuild.  tr4 also hands on its
output's class, so the pipeline's check of its output and the printer's
read it without a scan.

Also provided: the exponential distributivity-based translation, and a
polarity-optimized labeling variant that is deliberately unsound for
answer-set projection (a negative control).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import ResourceLimitError
from .syntax import (
    BOT, TOP, And, Atom, Bot, Expr, Not, Or, Program, ProgramClass, Rule,
    Top, Var, _program_rank, bar_atom, conjuncts, disjunction, disjuncts,
    conjunction, is_ht_literal, is_ht_nnf, label_atom, program_size,
    subformulas,
)
from .textio import _require


@dataclass
class AtomTable:
    """Bookkeeping for the generated alphabets.

    Labels are keyed by structural equality, so identical subformulas
    share one label, the L_phi of the subformula phi: a table shared by
    several translations names each subformula alike in all of them.
    The first occurrence receives the lowest index.  ``bars`` maps each
    user atom to its bar atom.
    """

    labels: dict[Expr, Atom] = field(default_factory=dict)
    bars: dict[Atom, Atom] = field(default_factory=dict)

    @property
    def next_label_index(self) -> int:
        return len(self.labels)

    def label(self, expr: Expr) -> Atom:
        atom = self.labels.get(expr)
        if atom is None:
            atom = self.labels[expr] = label_atom(len(self.labels))
        return atom

    def bar(self, atom: Atom) -> Atom:
        barred = self.bars.get(atom)
        if barred is None:
            barred = bar_atom(atom)
            self.bars[atom] = barred
        return barred


@dataclass(frozen=True)
class TranslationReport:
    mode: str
    input_size: int
    output_size: int
    rules_in: int
    rules_out: int
    labels_created: int
    bars_created: int


def normalize_nnf(expr: Expr) -> Expr:
    """HT negational normal form of an expression.

    The result is built from HT-literals, conjunctions and disjunctions,
    and has the same HT-models as the input.  A subtree already in that
    form is kept as it is, not rebuilt.
    """
    done: list[Expr] = []
    # inputs still to normalize, last first, and the connective that
    # joins the last two results
    todo: list[Expr | type[Expr]] = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, type):
            right = done.pop()
            done.append(e(done.pop(), right))
            continue
        # not not not x has the HT-models of not x
        while isinstance(e, Not) and isinstance(e.child, Not) \
                and isinstance(e.child.child, Not):
            e = Not(e.child.child.child)
        if is_ht_nnf(e):
            done.append(e)
            continue
        if isinstance(e, (And, Or)):
            op, left, right = type(e), e.left, e.right
        elif isinstance(e.child, (And, Or)):
            # De Morgan
            inner = e.child
            op = Or if isinstance(inner, And) else And
            left, right = Not(inner.left), Not(inner.right)
        else:
            # not not distributes over a compound x
            x = e.child.child
            op, left, right = type(x), Not(Not(x.left)), Not(Not(x.right))
        todo += (op, right, left)
    return done.pop()


def tr1(program: Program) -> Program:
    """Normalize every head and body into HT-NNF; a rule already in
    HT-NNF is passed on as the same object."""
    nnf = ProgramClass.NNF.value
    size = program_size(program)
    rules = []
    append = rules.append
    for rule in program.rules:
        if rule._rank > nnf:
            old = rule.head._size + rule.body._size
            rule = Rule(normalize_nnf(rule.head), normalize_nnf(rule.body))
            size += rule.head._size + rule.body._size - old
        append(rule)
    # the rewrites keep every atom
    return Program._derived(tuple(rules), program.alphabet, program.var(),
                            size)


# occurrence positions, as bits
_HEAD, _BODY = 1, 2


def _positions(program: Program, subs: list[Expr]) -> dict[Expr, int]:
    """The positions each of ``subs``, the subformulas of an HT-NNF
    program, occurs in.  The roots seed their own position, and a
    reverse pass hands each conjunction's or disjunction's bits to its
    children: reversed, the list puts each node after all the nodes
    that contain it.  In HT-NNF every ``not`` is an HT-literal, with no
    subformula below it in the list."""
    where = dict.fromkeys(subs, 0)
    for r in program.rules:
        where[r.head] |= _HEAD
        where[r.body] |= _BODY
    for sub in reversed(subs):
        kind = type(sub)
        if kind is And or kind is Or:
            bits = where[sub]
            where[sub.left] |= bits
            where[sub.right] |= bits
    return where


def tr2(program: Program, table: AtomTable, *, polarity: bool = False,
        simplify: bool = False) -> Program:
    """Label every subformula, flattening rules to label-level shape.

    The heads and bodies are walked once, in rule order, head before
    body, so new labels are numbered in order of first occurrence.
    With ``polarity`` set, only the direction needed for the position of
    each occurrence is emitted (body: introduction, head: elimination);
    this optimization is unsound for answer-set projection and exists as
    a negative control.  With ``simplify``, the truth constants keep
    their own place instead of receiving labels.
    """
    _require(program, ProgramClass.NNF, "tr2")

    subs = subformulas([e for r in program.rules for e in (r.head, r.body)],
                       True)
    # each subformula's label node; a kept constant stands for itself
    node_of: dict[Expr, Expr] = {}
    label = table.label
    created = []
    for sub in subs:
        if simplify and (type(sub) is Top or type(sub) is Bot):
            node_of[sub] = sub
        else:
            atom = label(sub)
            created.append(atom)
            node_of[sub] = atom.var
    if polarity:
        where = _positions(program, subs)

    rules = [Rule(node_of[r.head], node_of[r.body]) for r in program.rules]
    append = rules.append
    # each rule's size is fixed by its shape: a main rule ``L :- L'`` is
    # 3, and the rules of a connective's label are 5 for ``L :- a, b``
    # or ``a v b :- L`` and 3 each for ``a :- L`` or ``L :- a``
    size = 3 * len(rules)
    intro = elim = True
    for sub, lv in node_of.items():
        if lv is sub:
            # a constant kept in place needs no rule
            continue
        if polarity:
            bits = where[sub]
            intro, elim = bits & _BODY, bits & _HEAD
        kind = type(sub)
        if kind is And:
            left, right = node_of[sub.left], node_of[sub.right]
            if intro:
                append(Rule(lv, And(left, right)))
                size += 5
            if elim:
                append(Rule(left, lv))
                append(Rule(right, lv))
                size += 6
        elif kind is Or:
            left, right = node_of[sub.left], node_of[sub.right]
            # both directions: an Or's elimination comes first
            if elim and not polarity:
                append(Rule(Or(left, right), lv))
                size += 5
            if intro:
                append(Rule(lv, left))
                append(Rule(lv, right))
                size += 6
            if elim and polarity:
                append(Rule(Or(left, right), lv))
                size += 5
        else:
            # in HT-NNF, a node that is no connective is an HT-literal;
            # ``L :- φ`` and ``φ :- L`` are |φ| + 2 each
            if intro:
                append(Rule(lv, sub))
                size += sub._size + 2
            if elim:
                append(Rule(sub, lv))
                size += sub._size + 2

    # every atom sits in an HT-literal, which is kept in its intro or
    # elim rule, and every label made here occurs in those rules
    return Program._derived(tuple(rules), program.alphabet.union(created),
                            program.var().union(created), size)


def _negate(expr: Expr) -> Expr:
    # literal-level negation with constant folding, for moved literals
    if isinstance(expr, Top):
        return BOT
    if isinstance(expr, Bot):
        return TOP
    return Not(expr)


def _is_double_negation(expr: Expr) -> bool:
    return isinstance(expr, Not) and isinstance(expr.child, Not)


def tr3(program: Program) -> Program:
    """Eliminate doubly negated literals from heads and bodies.

    A head literal ``not not p`` becomes a body literal ``not p``; a
    body literal ``not not q`` becomes a head literal ``not q``.  Head
    occurrences are removed left-to-right before body occurrences.
    """
    _require(program, ProgramClass.GDLP_HT, "tr3")
    ht = ProgramClass.GDLP_HT.value
    size = program_size(program)
    out = []
    for rule in program.rules:
        if rule._rank < ht:
            # a rule of literals only: no double negation to move
            out.append(rule)
            continue
        size -= rule.head._size + rule.body._size
        head_lits = disjuncts(rule.head)
        body_lits = conjuncts(rule.body)
        new_body = list(body_lits)
        new_head = []
        for lit in head_lits:
            if _is_double_negation(lit):
                new_body.append(_negate(lit.child.child))
            else:
                new_head.append(lit)
        final_body = []
        for lit in new_body:
            if _is_double_negation(lit):
                new_head.append(_negate(lit.child.child))
            else:
                final_body.append(lit)
        # neutral elements introduced by moving literals are dropped
        head_parts = [l for l in new_head if not isinstance(l, Bot)]
        body_parts = [l for l in final_body if not isinstance(l, Top)]
        rule = Rule(disjunction(head_parts), conjunction(body_parts))
        size += rule.head._size + rule.body._size
        out.append(rule)
    # literals move and constants drop; no atom is lost
    return Program._derived(tuple(out), program.alphabet, program.var(),
                            size)


def tr4(program: Program, table: AtomTable) -> Program:
    """Replace negated head atoms by bar atoms.

    For every atom p with ``not p`` in some head, each such occurrence
    becomes the bar atom of p, and the constraint ``:- p, n_p`` plus the
    rule ``n_p :- not p`` are appended once.
    """
    _require(program, ProgramClass.GENERALIZED_DISJUNCTIVE, "tr4")
    generalized = ProgramClass.GENERALIZED_DISJUNCTIVE.value
    size = program_size(program)
    # insertion-ordered, so the bar rules follow the first occurrences
    barred: dict[Atom, Var] = {}
    rules = []
    for rule in program.rules:
        if rule._rank < generalized:
            # disjunctive already: no negated head atom
            rules.append(rule)
            continue
        new_lits = []
        for lit in disjuncts(rule.head):
            if isinstance(lit, Not) and isinstance(lit.child, Var):
                atom = lit.child.atom
                if atom not in barred:
                    barred[atom] = table.bar(atom).var
                new_lits.append(barred[atom])
            else:
                new_lits.append(lit)
        head = disjunction(new_lits)
        size += head._size - rule.head._size
        rules.append(Rule(head, rule.body))
    for atom, bar in barred.items():
        rules.append(Rule(BOT, And(atom.var, bar)))
        rules.append(Rule(bar, Not(atom.var)))
    # ``:- p, n_p`` is 5 and ``n_p :- not p`` is 4
    size += 9 * len(barred)
    # ``:- p, n_p`` keeps each barred atom
    created = [bar.atom for bar in barred.values()]
    # a rule of rank generalized disjunctive has a negated head atom, so
    # the rules are the input's unless an atom was barred; then the
    # disjunctive ``n_p :- not p`` is the most specific class
    rank = ProgramClass.DISJUNCTIVE.value if barred \
        else _program_rank(program)
    return Program._derived(tuple(rules), program.alphabet.union(created),
                            program.var().union(created), size, rank)


def _pipeline(program: Program, table: AtomTable, mode: str,
              middle: Callable[[Program], Program]
              ) -> tuple[Program, TranslationReport]:
    """tr1, then ``middle`` from HT-NNF to a program that tr3 accepts,
    then tr3 and tr4; the report counts the labels and bars that the
    stages added to ``table``."""
    labels_before, bars_before = len(table.labels), len(table.bars)
    staged = tr4(tr3(middle(tr1(program))), table)
    _require(staged, ProgramClass.DISJUNCTIVE, "pipeline output")
    # both sizes are carried, the input's from tr1's one walk
    report = TranslationReport(
        mode=mode,
        input_size=program_size(program),
        output_size=program_size(staged),
        rules_in=len(program.rules),
        rules_out=len(staged.rules),
        labels_created=len(table.labels) - labels_before,
        bars_created=len(table.bars) - bars_before,
    )
    return staged, report


def _structural_pipeline(program: Program, table: AtomTable, *,
                         polarity: bool = False, simplify: bool = False
                         ) -> tuple[Program, TranslationReport]:
    # tr2 is looked up when the stage runs, so that a wrapper set on
    # ``translate.tr2`` sees each call, as it does for the other stages
    return _pipeline(
        program, table, "polarity" if polarity else "structural",
        lambda staged: tr2(staged, table, polarity=polarity,
                           simplify=simplify))


def translate_structural(program: Program, simplify: bool = False
                         ) -> tuple[Program, TranslationReport]:
    """Polynomial, strongly faithful, modular translation into a
    disjunctive program over user, label and bar atoms."""
    return _structural_pipeline(program, AtomTable(), simplify=simplify)


def translate_polarity_variant(program: Program, simplify: bool = False
                               ) -> tuple[Program, TranslationReport]:
    """Polarity-reduced labeling: smaller output, unsound projection."""
    return _structural_pipeline(program, AtomTable(), polarity=True,
                                simplify=simplify)


# the node budget of the distributive expansion, unless one is given
DEFAULT_GUARD = 1_000_000


class _NodeBudget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def charge(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise ResourceLimitError(
                f"distributive expansion exceeded {self.limit} nodes")


def _normal_form(expr: Expr, outer: type[Expr],
                 budget: _NodeBudget) -> list[list[Expr]]:
    """Literal lists joined by ``outer`` at the top and by its dual
    inside: DNF terms for ``Or``, CNF clauses for ``And``."""
    done: list[list[list[Expr]]] = []
    # inputs still to expand, last first, and the connective that joins
    # the last two results
    todo: list[Expr | type[Expr]] = [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, type):
            right = done.pop()
            left = done.pop()
            if e is outer:
                done.append(left + right)
            else:
                budget.charge(sum(len(a) + len(b) for a in left for b in right))
                done.append([a + b for a in left for b in right])
        elif is_ht_literal(e):
            budget.charge(1)
            done.append([[e]])
        else:
            todo += (type(e), e.right, e.left)
    return done.pop()


def translate_distributive(program: Program, max_nodes: int = DEFAULT_GUARD
                           ) -> tuple[Program, TranslationReport]:
    """Exponential label-free translation via distributivity.

    Bodies expand to disjunctive normal form, heads to conjunctive
    normal form, and every rule splits into one rule per (clause, term)
    pair.  The expansion is guarded by ``max_nodes``.
    """
    def expand(staged: Program) -> Program:
        budget = _NodeBudget(max_nodes)
        rules = []
        for rule in staged.rules:
            clauses = _normal_form(rule.head, And, budget)
            terms = _normal_form(rule.body, Or, budget)
            for term in terms:
                for clause in clauses:
                    rules.append(Rule(disjunction(clause), conjunction(term)))
        # every literal of a clause or a term lands in some rule
        return Program._derived(tuple(rules), staged.alphabet, staged.var())

    return _pipeline(program, AtomTable(), "distributive", expand)
