"""Abstract syntax for logic programs with nested expressions.

Expressions are trees over truth constants, atoms, negation, conjunction
and disjunction.  Rules pair a head and a body expression; facts carry
body ``true`` and constraints carry head ``false``.  The alphabet is
partitioned into user atoms, generated labels (``l_<index>``) and bar
atoms (``n_<atom>``) standing for negated heads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator

LABEL_PREFIX = "l_"
BAR_PREFIX = "n_"

_USER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_LABEL_NAME = re.compile(r"l_(0|[1-9][0-9]*)\Z")


class AtomKind(Enum):
    USER = "user"
    LABEL = "label"
    BAR = "bar"


@dataclass(frozen=True, slots=True)
class Atom:
    name: str
    kind: AtomKind = AtomKind.USER

    def __post_init__(self):
        if self.kind is AtomKind.USER:
            if not _USER_NAME.match(self.name):
                raise ValueError(f"invalid atom name {self.name!r}")
            if self.name.startswith((LABEL_PREFIX, BAR_PREFIX)):
                raise ValueError(
                    f"user atom {self.name!r} uses a reserved prefix"
                )
        elif self.kind is AtomKind.LABEL:
            if not _LABEL_NAME.match(self.name):
                raise ValueError(f"invalid label atom name {self.name!r}")
        else:
            base = self.name[len(BAR_PREFIX):]
            if not self.name.startswith(BAR_PREFIX) or not _USER_NAME.match(base) \
                    or base.startswith((LABEL_PREFIX, BAR_PREFIX)):
                raise ValueError(f"invalid bar atom name {self.name!r}")

    def __lt__(self, other: "Atom") -> bool:
        return self.name < other.name

    def __str__(self) -> str:
        return self.name


def user_atom(name: str) -> Atom:
    return Atom(name, AtomKind.USER)


def label_atom(index: int) -> Atom:
    return Atom(f"{LABEL_PREFIX}{index}", AtomKind.LABEL)


def bar_atom(atom: Atom) -> Atom:
    if atom.kind is not AtomKind.USER:
        raise ValueError(f"cannot form a bar atom over {atom.name!r}")
    return Atom(f"{BAR_PREFIX}{atom.name}", AtomKind.BAR)


class Expr:
    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Top(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Bot(Expr):
    pass


@dataclass(frozen=True, slots=True)
class Var(Expr):
    atom: Atom


@dataclass(frozen=True, slots=True)
class Not(Expr):
    child: Expr


@dataclass(frozen=True, slots=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Or(Expr):
    left: Expr
    right: Expr


TOP = Top()
BOT = Bot()


def conjunction(parts: Iterable[Expr]) -> Expr:
    """Left-associated conjunction; the empty conjunction is ``true``."""
    parts = list(parts)
    if not parts:
        return TOP
    expr = parts[0]
    for p in parts[1:]:
        expr = And(expr, p)
    return expr


def disjunction(parts: Iterable[Expr]) -> Expr:
    """Left-associated disjunction; the empty disjunction is ``false``."""
    parts = list(parts)
    if not parts:
        return BOT
    expr = parts[0]
    for p in parts[1:]:
        expr = Or(expr, p)
    return expr


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a conjunction tree into its non-conjunction leaves."""
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def disjuncts(expr: Expr) -> list[Expr]:
    if isinstance(expr, Or):
        return disjuncts(expr.left) + disjuncts(expr.right)
    return [expr]


def walk(expr: Expr) -> Iterator[Expr]:
    """Post-order traversal of every node (with repetitions)."""
    if isinstance(expr, Not):
        yield from walk(expr.child)
    elif isinstance(expr, (And, Or)):
        yield from walk(expr.left)
        yield from walk(expr.right)
    yield expr


def expr_size(expr: Expr) -> int:
    if isinstance(expr, Not):
        return 1 + expr_size(expr.child)
    if isinstance(expr, (And, Or)):
        return 1 + expr_size(expr.left) + expr_size(expr.right)
    return 1


def expr_atoms(expr: Expr) -> frozenset[Atom]:
    return frozenset(n.atom for n in walk(expr) if isinstance(n, Var))


def is_literal(expr: Expr) -> bool:
    """v or ``not`` v, with v an atom or a truth constant."""
    if isinstance(expr, Not):
        expr = expr.child
    return isinstance(expr, (Var, Top, Bot))


def is_ht_literal(expr: Expr) -> bool:
    """v, ``not`` v, or ``not not`` v, with v an atom or a truth constant."""
    if isinstance(expr, Not) and isinstance(expr.child, Not):
        expr = expr.child.child
    elif isinstance(expr, Not):
        expr = expr.child
    return isinstance(expr, (Var, Top, Bot))


def negation_free(expr: Expr) -> bool:
    return not any(isinstance(n, Not) for n in walk(expr))


def is_ht_nnf(expr: Expr) -> bool:
    """Built from HT-literals, conjunction and disjunction only."""
    if is_ht_literal(expr):
        return True
    if isinstance(expr, (And, Or)):
        return is_ht_nnf(expr.left) and is_ht_nnf(expr.right)
    return False


@dataclass(frozen=True, slots=True)
class Rule:
    head: Expr
    body: Expr


@dataclass(frozen=True)
class Program:
    rules: tuple[Rule, ...] = ()
    alphabet: frozenset[Atom] = frozenset()

    def __post_init__(self):
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
        occurring = frozenset(
            a for r in rules for e in (r.head, r.body) for a in expr_atoms(e)
        )
        object.__setattr__(self, "alphabet", frozenset(self.alphabet) | occurring)

    def var(self) -> frozenset[Atom]:
        """Atoms actually occurring in the rules."""
        return frozenset(
            a for r in self.rules for e in (r.head, r.body) for a in expr_atoms(e)
        )

    def union(self, other: "Program") -> "Program":
        seen = set(self.rules)
        extra = tuple(r for r in other.rules if r not in seen)
        return Program(self.rules + extra, self.alphabet | other.alphabet)

    def __len__(self) -> int:
        return len(self.rules)


class ProgramClass(Enum):
    """Syntactic program classes, nested by inclusion (small to large)."""

    BASIC = 0
    DISJUNCTIVE = 1
    GENERALIZED_DISJUNCTIVE = 2
    GDLP_HT = 3
    NNF = 4
    NESTED = 5


def _is_disj_of(pred: Callable[[Expr], bool], expr: Expr) -> bool:
    if isinstance(expr, Or):
        return _is_disj_of(pred, expr.left) and _is_disj_of(pred, expr.right)
    return pred(expr)


def _is_conj_of(pred: Callable[[Expr], bool], expr: Expr) -> bool:
    if isinstance(expr, And):
        return _is_conj_of(pred, expr.left) and _is_conj_of(pred, expr.right)
    return pred(expr)


def _no_negated_atom(expr: Expr) -> bool:
    return not (isinstance(expr, Not) and isinstance(expr.child, Var))


def _rule_in_class(rule: Rule, cls: ProgramClass) -> bool:
    if cls is ProgramClass.NESTED:
        return True
    if cls is ProgramClass.NNF:
        return is_ht_nnf(rule.head) and is_ht_nnf(rule.body)
    if cls is ProgramClass.GDLP_HT:
        return (_is_disj_of(is_ht_literal, rule.head)
                and _is_conj_of(is_ht_literal, rule.body))
    gd = (_is_disj_of(is_literal, rule.head)
          and _is_conj_of(is_literal, rule.body))
    if cls is ProgramClass.GENERALIZED_DISJUNCTIVE:
        return gd
    disj = gd and all(_no_negated_atom(d) for d in disjuncts(rule.head))
    if cls is ProgramClass.DISJUNCTIVE:
        return disj
    return disj and negation_free(rule.head) and negation_free(rule.body)


def program_in_class(program: Program, cls: ProgramClass) -> bool:
    return all(_rule_in_class(r, cls) for r in program.rules)


def classify(program: Program) -> ProgramClass:
    """Most specific syntactic class containing the program."""
    for cls in ProgramClass:
        if program_in_class(program, cls):
            return cls
    return ProgramClass.NESTED


def subformulas(expr: Expr, ht_atomic: bool = False) -> list[Expr]:
    """Distinct subexpressions, left-to-right and bottom-up.

    With ``ht_atomic`` set, HT-literals are kept as atomic units, so
    ``not not p`` contributes itself rather than ``p`` and ``not p``.
    """
    seen: set[Expr] = set()
    out: list[Expr] = []

    def visit(e: Expr) -> None:
        if e in seen:
            return
        if not (ht_atomic and is_ht_literal(e)):
            if isinstance(e, Not):
                visit(e.child)
            elif isinstance(e, (And, Or)):
                visit(e.left)
                visit(e.right)
        seen.add(e)
        out.append(e)

    visit(expr)
    return out


def program_size(program: Program) -> int:
    """Total node count over all heads and bodies, plus the rule count."""
    return sum(expr_size(r.head) + expr_size(r.body) for r in program.rules) \
        + len(program.rules)
