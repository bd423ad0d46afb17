"""Abstract syntax for logic programs with nested expressions.

Expressions are trees over truth constants, atoms, negation, conjunction
and disjunction.  Rules pair a head and a body expression; facts carry
body ``true`` and constraints carry head ``false``.  The alphabet is
partitioned into user atoms, generated labels (``l_<index>``) and bar
atoms (``n_<atom>``) standing for negated heads.

Every node stores its structural hash, its node count and two class
ranks, so hashing, unequal comparisons, sizes and the syntactic class of
a rule cost O(1) whatever the size of the tree.  Each rule stores its
own rank when it is built, so classifying a whole program is one C-level
``max`` over its rules; a program keeps its rank once it is computed,
and keeps its size and its atoms, which the stage that built it passes
on where it can.
Every traversal keeps an explicit stack instead of recursing, so a long
rule body or a deep nesting costs time linear in its size and never
meets Python's recursion limit.  ``subformulas`` is the one walk over
subformulas: tr2 and the oracle's compiler each make one over all the
heads and bodies of a program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Sequence

LABEL_PREFIX = "l_"
BAR_PREFIX = "n_"

_USER_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")
_LABEL_NAME = re.compile(r"l_(0|[1-9][0-9]*)\Z")


class AtomKind(Enum):
    USER = "user"
    LABEL = "label"
    BAR = "bar"


class Atom:
    """An atom of the alphabet, interned: there is one instance per name.

    The name fixes the kind: ``l_<index>`` is a label, ``n_`` before a
    user name is a bar atom, and any other valid name is a user atom.
    Equality and hashing are therefore the inherited identity defaults.
    A name is checked once, when its instance is first made;
    ``Atom(name)`` raises ``ValueError`` for a name that is no valid atom
    of any kind.  Instances are immutable.

    ``var`` is the atom's one ``Var`` node, made with the instance, so
    the parser and the stages that emit an atom share one leaf for it
    instead of building a new one each time.
    """

    __slots__ = ("name", "kind", "var")
    name: str
    kind: AtomKind
    var: "Var"

    def __new__(cls, name: str) -> "Atom":
        atom = _ATOMS.get(name)
        if atom is not None:
            return atom
        kind = _kind_of(name)
        atom = object.__new__(cls)
        object.__setattr__(atom, "name", name)
        object.__setattr__(atom, "kind", kind)
        object.__setattr__(atom, "var", Var(atom))
        # atomic, should two threads make the same new name at once
        return _ATOMS.setdefault(name, atom)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Atom")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an Atom")

    def __reduce__(self):
        # copies and unpickled atoms are the interned instance
        return Atom, (self.name,)

    def __lt__(self, other: "Atom") -> bool:
        return self.name < other.name

    def __repr__(self) -> str:
        return f"Atom(name={self.name!r}, kind={self.kind!r})"

    def __str__(self) -> str:
        return self.name


_ATOMS: dict[str, Atom] = {}
_RESERVED = (LABEL_PREFIX, BAR_PREFIX)


def _kind_of(name: str) -> AtomKind:
    """The kind that the prefix of ``name`` gives it; ``ValueError`` if
    the name is not valid for that kind."""
    if name.startswith(LABEL_PREFIX):
        if not _LABEL_NAME.match(name):
            raise ValueError(f"invalid label atom name {name!r}")
        return AtomKind.LABEL
    if name.startswith(BAR_PREFIX):
        base = name[len(BAR_PREFIX):]
        if not _USER_NAME.match(base) or base.startswith(_RESERVED):
            raise ValueError(f"invalid bar atom name {name!r}")
        return AtomKind.BAR
    if not _USER_NAME.match(name):
        raise ValueError(f"invalid atom name {name!r}")
    return AtomKind.USER


def user_atom(name: str) -> Atom:
    if name.startswith(_RESERVED):
        raise ValueError(f"atom {name!r} uses a reserved prefix")
    return Atom(name)


# the probe before Atom(name), with three other compile fast paths, makes a
# compile_bulk pass 0.29-0.40 s, against 0.41-0.54 s without them
def label_atom(index: int) -> Atom:
    name = f"{LABEL_PREFIX}{index}"
    return _ATOMS.get(name) or Atom(name)


def bar_atom(atom: Atom) -> Atom:
    # over a label or a bar atom, the name fails the bar-name rule
    name = BAR_PREFIX + atom.name
    return _ATOMS.get(name) or Atom(name)


class ProgramClass(Enum):
    """Syntactic program classes, nested by inclusion (small to large)."""

    BASIC = 0
    DISJUNCTIVE = 1
    GENERALIZED_DISJUNCTIVE = 2
    GDLP_HT = 3
    NNF = 4
    NESTED = 5


_CLASSES = tuple(ProgramClass)
_BASIC, _DISJ, _GDISJ, _GDLP_HT, _NNF, _NESTED = (c.value for c in _CLASSES)


class Expr:
    """Base of the expression nodes.

    Nodes are immutable once built.  Each stores its structural hash, its
    node count and two class ranks, computed once in ``__init__`` from
    what its children already store, so hashing and sizing are O(1) and
    unequal hashes settle ``==`` at once; only equal-looking trees are
    compared field by field.

    The ranks are the ``ProgramClass`` value of the most specific class
    of the rule ``e :- true`` (``_hrank``, the node as a head disjunct)
    and of the rule ``false :- e`` (``_brank``, the node as a body
    conjunct).  Either is at most ``NNF`` exactly when the node is in HT
    negational normal form.  The leaves are ``BASIC`` in both, as class
    constants; ``Not``, ``And`` and ``Or`` store theirs.
    """

    __slots__ = ("_hash", "_size")
    _hrank = _brank = _BASIC

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if type(a) is not type(b) or a._hash != b._hash:
                return False
            if isinstance(a, Var):
                if a.atom != b.atom:
                    return False
            elif isinstance(a, Not):
                stack.append((a.child, b.child))
            elif isinstance(a, (And, Or)):
                stack.append((a.right, b.right))
                stack.append((a.left, b.left))
        return True

    def __repr__(self) -> str:
        out: list[str] = []
        stack: list[Expr | str] = [self]
        while stack:
            e = stack.pop()
            if isinstance(e, str):
                out.append(e)
            elif isinstance(e, Var):
                out.append(f"Var(atom={e.atom!r})")
            elif isinstance(e, Not):
                stack += (")", e.child, "Not(child=")
            elif isinstance(e, (And, Or)):
                stack += (")", e.right, ", right=", e.left,
                          f"{type(e).__name__}(left=")
            else:
                out.append(f"{type(e).__name__}()")
        return "".join(out)


# hash tags, one per node type
_TOP, _BOT, _VAR, _NOT, _AND, _OR = range(6)


class Top(Expr):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((_TOP,))
        self._size = 1


class Bot(Expr):
    __slots__ = ()

    def __init__(self):
        self._hash = hash((_BOT,))
        self._size = 1


class Var(Expr):
    __slots__ = ("atom",)

    def __init__(self, atom: Atom):
        self.atom = atom
        self._hash = hash((_VAR, atom.name))
        self._size = 1


class Not(Expr):
    __slots__ = ("child", "_hrank", "_brank")

    def __init__(self, child: Expr):
        self.child = child
        self._hash = hash((_NOT, child._hash))
        size = self._size = child._size + 1
        # a child of one node is an atom or a truth constant, and a
        # child of two is a ``not`` over one
        if size == 2:
            self._hrank = _GDISJ if type(child) is Var else _DISJ
            self._brank = _DISJ
        elif size == 3:
            self._hrank = self._brank = _GDLP_HT
        else:
            self._hrank = self._brank = _NESTED


class And(Expr):
    __slots__ = ("left", "right", "_hrank", "_brank")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash((_AND, left._hash, right._hash))
        self._size = left._size + right._size + 1
        rank = self._brank = left._brank if left._brank > right._brank \
            else right._brank
        # a conjunction in a head is NNF at best
        self._hrank = rank if rank > _NNF else _NNF


class Or(Expr):
    __slots__ = ("left", "right", "_hrank", "_brank")

    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right
        self._hash = hash((_OR, left._hash, right._hash))
        self._size = left._size + right._size + 1
        rank = self._hrank = left._hrank if left._hrank > right._hrank \
            else right._hrank
        # a disjunction in a body is NNF at best
        self._brank = rank if rank > _NNF else _NNF


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


def _leaves(expr: Expr, op: type[Expr]) -> list[Expr]:
    """Left-to-right leaves of the ``op``-tree at the root of ``expr``."""
    out: list[Expr] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, op):
            stack.append(e.right)
            stack.append(e.left)
        else:
            out.append(e)
    return out


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a conjunction tree into its non-conjunction leaves."""
    return _leaves(expr, And) if isinstance(expr, And) else [expr]


def disjuncts(expr: Expr) -> list[Expr]:
    return _leaves(expr, Or) if isinstance(expr, Or) else [expr]


def _atoms(exprs: Iterable[Expr]) -> frozenset[Atom]:
    # runs in every Program(...): 18 ms a compile_bulk pass, 33 via subformulas
    atoms: set[Atom] = set()
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Var):
            atoms.add(e.atom)
        elif isinstance(e, Not):
            stack.append(e.child)
        elif isinstance(e, (And, Or)):
            stack.append(e.left)
            stack.append(e.right)
    return frozenset(atoms)


def is_ht_literal(expr: Expr) -> bool:
    """v, ``not`` v, or ``not not`` v, with v an atom or a truth constant."""
    if isinstance(expr, Not) and isinstance(expr.child, Not):
        expr = expr.child.child
    elif isinstance(expr, Not):
        expr = expr.child
    return isinstance(expr, (Var, Top, Bot))


def is_ht_nnf(expr: Expr) -> bool:
    """Built from HT-literals, conjunction and disjunction only."""
    return expr._brank <= _NNF


class Rule:
    """``head :- body``; immutable once built, like its expressions.

    ``_rank`` is the ``ProgramClass`` value of the most specific class of
    the one-rule program, stored when the rule is built.
    """

    __slots__ = ("head", "body", "_rank")

    def __init__(self, head: Expr, body: Expr):
        self.head = head
        self.body = body
        rank = head._hrank
        self._rank = rank if rank > body._brank else body._brank

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.head == other.head and self.body == other.body

    def __hash__(self) -> int:
        return hash((self.head, self.body))

    def __repr__(self) -> str:
        return f"Rule(head={self.head!r}, body={self.body!r})"


@dataclass(frozen=True)
class Program:
    """Rules over an alphabet that holds at least their atoms.

    A program keeps its occurring atoms, its size and its class rank
    once they are known: the atoms and, where its stage can count it,
    the size are handed over when it is built, and the rest is computed
    by one walk over its rules the first time it is asked for.
    """

    rules: tuple[Rule, ...] = ()
    alphabet: frozenset[Atom] = frozenset()
    _var: frozenset[Atom] = field(init=False, compare=False, repr=False)
    _size: int | None = field(init=False, compare=False, repr=False)
    _rank: int | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rules = tuple(self.rules)
        object.__setattr__(self, "rules", rules)
        occurring = _atoms(e for r in rules for e in (r.head, r.body))
        object.__setattr__(self, "_var", occurring)
        object.__setattr__(self, "alphabet", frozenset(self.alphabet) | occurring)
        object.__setattr__(self, "_size", None)
        object.__setattr__(self, "_rank", None)

    @classmethod
    def _derived(cls, rules: tuple[Rule, ...], alphabet: frozenset[Atom],
                 occurring: frozenset[Atom], size: int | None = None,
                 rank: int | None = None) -> "Program":
        """A program whose occurring atoms are already known to be exactly
        ``occurring``, a subset of ``alphabet``, and whose size and class
        rank are ``size`` and ``rank`` where given, built without walking
        its rules."""
        program = object.__new__(cls)
        object.__setattr__(program, "rules", rules)
        object.__setattr__(program, "alphabet", alphabet)
        object.__setattr__(program, "_var", occurring)
        object.__setattr__(program, "_size", size)
        object.__setattr__(program, "_rank", rank)
        return program

    def var(self) -> frozenset[Atom]:
        """Atoms actually occurring in the rules."""
        return self._var

    def union(self, other: "Program") -> "Program":
        seen = set(self.rules)
        extra = tuple(r for r in other.rules if r not in seen)
        # a rule left out equals one kept, so it adds no atom
        return Program._derived(self.rules + extra,
                                self.alphabet | other.alphabet,
                                self._var | other._var)


_rule_rank = attrgetter("_rank")


def _program_rank(program: Program) -> int:
    """Value of the most specific class of the program: one C-level
    ``max`` over its rules' stored ranks, taken once and kept on it."""
    rank = program._rank
    if rank is None:
        rank = max(map(_rule_rank, program.rules), default=_BASIC)
        object.__setattr__(program, "_rank", rank)
    return rank


def _first_out_of_class(program: Program, cls: ProgramClass) -> int | None:
    """Index of the first rule outside ``cls``, or None; the rules are
    walked one by one only when one of them is outside."""
    limit = cls.value
    if _program_rank(program) <= limit:
        return None
    return next(i for i, rule in enumerate(program.rules)
                if rule._rank > limit)


def classify(program: Program) -> ProgramClass:
    """Most specific syntactic class containing the program."""
    return _CLASSES[_program_rank(program)]


def subformulas(roots: Sequence[Expr], ht_atomic: bool = False) -> list[Expr]:
    """Distinct subexpressions of the roots, walked in order on one
    stack, left-to-right and bottom-up: each is listed once, after every
    subexpression of it.

    With ``ht_atomic`` set, HT-literals are kept as atomic units, so
    ``not not p`` contributes itself rather than ``p`` and ``not p``.
    """
    seen: set[Expr] = set()
    out: list[Expr] = []
    stack: list[tuple[Expr, bool]] = [(e, False) for e in reversed(roots)]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            seen.add(e)
            out.append(e)
            continue
        if e in seen:
            continue
        stack.append((e, True))
        kind = type(e)
        if kind is And or kind is Or:
            stack.append((e.right, False))
            stack.append((e.left, False))
        # a ``not`` of at most three nodes is over an atom or a truth
        # constant, or over a ``not`` over one: an HT-literal
        elif kind is Not and not (ht_atomic and e._size <= 3):
            stack.append((e.child, False))
    return out


def program_size(program: Program) -> int:
    """Total node count over all heads and bodies, plus the rule count:
    the size the program carries, or one walk over its rules, kept."""
    size = program._size
    if size is None:
        rules = program.rules
        size = sum(r.head._size + r.body._size for r in rules) + len(rules)
        object.__setattr__(program, "_size", size)
    return size
