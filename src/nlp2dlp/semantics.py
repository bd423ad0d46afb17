"""Brute-force semantics engine: classical models, reducts, answer sets,
here-and-there (HT) valuation, HT-models and equilibrium models.

Everything works by explicit enumeration over a caller-supplied alphabet
and is intended as a desk-scale oracle, not a solver.  Both engines are
bit-parallel: classical truth over all 2^n interpretations is one big
integer, and HT truth is a pair of them, the truth at H and at T, with
one bit per subset H of a there-world T.  Answer sets come from reducts,
equilibrium models from the HT engine alone, so each checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import ResourceLimitError
from .syntax import (
    BOT, TOP, And, Atom, Expr, Not, Or, Program, Rule, Top, Var,
    negation_free, walk,
)

DEFAULT_CAP = 20

Interpretation = frozenset[Atom]


class World(Enum):
    H = "H"
    T = "T"


@dataclass(frozen=True)
class HTInterpretation:
    here: Interpretation
    there: Interpretation

    def __post_init__(self):
        object.__setattr__(self, "here", frozenset(self.here))
        object.__setattr__(self, "there", frozenset(self.there))
        if not self.here <= self.there:
            raise ValueError("the 'here' world must be contained in 'there'")

    def is_total(self) -> bool:
        return self.here == self.there


def _check_cap(alphabet: Iterable[Atom], cap: int) -> list[Atom]:
    atoms = sorted(set(alphabet))
    if len(atoms) > cap:
        raise ResourceLimitError(
            f"alphabet of {len(atoms)} atoms exceeds the enumeration cap {cap}")
    return atoms


def eval_classical(expr: Expr, interp: Interpretation) -> bool:
    """Two-valued truth of an expression under a set of atoms."""
    if isinstance(expr, Var):
        return expr.atom in interp
    if isinstance(expr, Not):
        return not eval_classical(expr.child, interp)
    if isinstance(expr, And):
        return eval_classical(expr.left, interp) and \
            eval_classical(expr.right, interp)
    if isinstance(expr, Or):
        return eval_classical(expr.left, interp) or \
            eval_classical(expr.right, interp)
    return isinstance(expr, Top)


def _reduce_expr(expr: Expr, interp: Interpretation) -> Expr:
    if isinstance(expr, Not):
        # maximal negated subexpression: nested negations are untouched
        return BOT if eval_classical(expr.child, interp) else TOP
    if isinstance(expr, And):
        return And(_reduce_expr(expr.left, interp),
                   _reduce_expr(expr.right, interp))
    if isinstance(expr, Or):
        return Or(_reduce_expr(expr.left, interp),
                  _reduce_expr(expr.right, interp))
    return expr


def _reduce_rules(rules: Iterable[Rule],
                  interp: Interpretation) -> tuple[Rule, ...]:
    return tuple(Rule(_reduce_expr(r.head, interp), _reduce_expr(r.body, interp))
                 for r in rules)


def reduct(program: Program, interp: Interpretation) -> Program:
    """Negation-free program obtained by fixing negated subexpressions
    to their classical truth value under ``interp``."""
    return Program(_reduce_rules(program.rules, interp), program.alphabet)


@lru_cache(maxsize=None)
def _atom_pattern(n: int, j: int) -> int:
    """Bitmap over 2^n interpretation indices: bit i is (i >> j) & 1."""
    block = 1 << j
    pat = ((1 << block) - 1) << block
    width = block << 1
    total = 1 << n
    while width < total:
        pat |= pat << width
        width <<= 1
    return pat


def _expr_bitmap(expr: Expr, table: dict[Atom, int], full: int) -> int:
    if isinstance(expr, Var):
        return table.get(expr.atom, 0)
    if isinstance(expr, Not):
        return full ^ _expr_bitmap(expr.child, table, full)
    if isinstance(expr, And):
        return _expr_bitmap(expr.left, table, full) & \
            _expr_bitmap(expr.right, table, full)
    if isinstance(expr, Or):
        return _expr_bitmap(expr.left, table, full) | \
            _expr_bitmap(expr.right, table, full)
    return full if isinstance(expr, Top) else 0


def _models_bitmap(rules: Iterable[Rule], atoms: list[Atom]) -> int:
    """Bitmap of classical models of {B(r) -> H(r)} over the atom list."""
    n = len(atoms)
    full = (1 << (1 << n)) - 1
    table = {atom: _atom_pattern(n, j) for j, atom in enumerate(atoms)}
    bm = full
    for r in rules:
        bm &= (full ^ _expr_bitmap(r.body, table, full)) | \
            _expr_bitmap(r.head, table, full)
        if not bm:
            break
    return bm


def _iter_bits(bm: int) -> Iterator[int]:
    while bm:
        low = bm & -bm
        yield low.bit_length() - 1
        bm ^= low


def _index_to_interp(index: int, atoms: list[Atom]) -> Interpretation:
    return frozenset(a for j, a in enumerate(atoms) if (index >> j) & 1)


def classical_models(program: Program, alphabet: Iterable[Atom],
                     cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    atoms = _check_cap(alphabet, cap)
    bm = _models_bitmap(program.rules, atoms)
    return frozenset(_index_to_interp(i, atoms) for i in _iter_bits(bm))


def minimal_models(program: Program, alphabet: Iterable[Atom],
                   cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    """All subset-minimal classical models of a negation-free program."""
    if not all(negation_free(r.head) and negation_free(r.body)
               for r in program.rules):
        raise ValueError("minimal_models requires a negation-free program")
    atoms = _check_cap(alphabet, cap)
    bm = _models_bitmap(program.rules, atoms)
    indices = sorted(_iter_bits(bm), key=lambda i: (i.bit_count(), i))
    minimal: list[int] = []
    for i in indices:
        if not any(m & i == m for m in minimal):
            minimal.append(i)
    return frozenset(_index_to_interp(i, atoms) for i in minimal)


def _is_stable(program: Program, interp: Interpretation) -> bool:
    rules = _reduce_rules(program.rules, interp)
    used = {n.atom for r in rules for e in (r.head, r.body) for n in walk(e)
            if isinstance(n, Var)}
    if not interp <= used:
        # an atom unused by the reduct can be dropped: not minimal
        return False
    atoms = sorted(interp)
    bm = _models_bitmap(rules, atoms)
    # interp is the all-true index; stable iff no proper subset is a model
    return bm & ((1 << ((1 << len(atoms)) - 1)) - 1) == 0


def answer_sets(program: Program, alphabet: Iterable[Atom],
                cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    """All I within the alphabet that are minimal models of the reduct
    of the program with respect to I."""
    atoms = _check_cap(alphabet, cap)
    # only classical models of the rule implications are candidates
    bm = _models_bitmap(program.rules, atoms)
    candidates = (_index_to_interp(i, atoms) for i in _iter_bits(bm))
    return frozenset(c for c in candidates if _is_stable(program, c))


def _ht_bits(expr: Expr, table: dict[Atom, tuple[int, int]],
             full: int) -> tuple[int, int]:
    """Truth at H and at T of an expression over a batch of HT pairs
    sharing one there-world; ``table`` maps atoms to their (H, T) bits."""
    if isinstance(expr, Var):
        return table.get(expr.atom, (0, 0))
    if isinstance(expr, Not):
        # not f holds at H iff f fails at H and at T
        h, t = _ht_bits(expr.child, table, full)
        return full ^ (h | t), full ^ t
    if isinstance(expr, (And, Or)):
        lh, lt = _ht_bits(expr.left, table, full)
        rh, rt = _ht_bits(expr.right, table, full)
        if isinstance(expr, And):
            return lh & rh, lt & rt
        return lh | rh, lt | rt
    return (full, full) if isinstance(expr, Top) else (0, 0)


def _ht_holds(rules: Iterable[Rule], table: dict[Atom, tuple[int, int]],
              full: int) -> int:
    """Bitmap of the pairs whose H world satisfies every B(r) -> H(r)."""
    bm = full
    for r in rules:
        bh, bt = _ht_bits(r.body, table, full)
        hh, ht = _ht_bits(r.head, table, full)
        # clause for ->: true at H iff it holds at H and at T
        bm &= ((full ^ bh) | hh) & ((full ^ bt) | ht)
        if not bm:
            break
    return bm


def _ht_blocks(rules: tuple[Rule, ...], atoms: list[Atom]
               ) -> Iterator[tuple[list[Atom], int]]:
    """For each there-world T: its atoms and the bitmap of HT-models <H, T>,
    bit i for the H picked from T by the bits of i; <T, T> is the top bit."""
    for t in range(1 << len(atoms)):
        there = [a for j, a in enumerate(atoms) if (t >> j) & 1]
        k = len(there)
        full = (1 << (1 << k)) - 1
        table = {a: (_atom_pattern(k, j), full) for j, a in enumerate(there)}
        yield there, _ht_holds(rules, table, full)


def _pair_table(f: HTInterpretation) -> dict[Atom, tuple[int, int]]:
    return {a: (int(a in f.here), 1) for a in f.there}


def eval_ht(expr: Expr, f: HTInterpretation, w: World) -> bool:
    """Truth of an expression at a world of an HT-interpretation."""
    h, t = _ht_bits(expr, _pair_table(f), 1)
    return bool(h if w is World.H else t)


def is_ht_model(program: Program, f: HTInterpretation) -> bool:
    """F satisfies B(r) -> H(r) at H for every rule."""
    return _ht_holds(program.rules, _pair_table(f), 1) == 1


def ht_models(program: Program, alphabet: Iterable[Atom],
              cap: int = DEFAULT_CAP) -> frozenset[HTInterpretation]:
    atoms = _check_cap(alphabet, cap)
    return frozenset(
        HTInterpretation(_index_to_interp(i, there), frozenset(there))
        for there, bm in _ht_blocks(program.rules, atoms)
        for i in _iter_bits(bm))


def ht_equivalent(p1: Program, p2: Program, alphabet: Iterable[Atom],
                  cap: int = DEFAULT_CAP) -> bool:
    """Same HT-models over the alphabet; decides strong equivalence."""
    atoms = frozenset(alphabet)
    if not (p1.var() | p2.var()) <= atoms:
        raise ValueError("alphabet must cover both programs")
    atom_list = _check_cap(atoms, cap)
    return all(bm1 == bm2 for (_, bm1), (_, bm2) in zip(
        _ht_blocks(p1.rules, atom_list), _ht_blocks(p2.rules, atom_list)))


def equilibrium_models(program: Program, alphabet: Iterable[Atom],
                       cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    """Total HT-models <I,I> with no <J,I>, J a proper subset, a model."""
    atoms = _check_cap(alphabet, cap)
    return frozenset(
        frozenset(there) for there, bm in _ht_blocks(program.rules, atoms)
        if bm == 1 << ((1 << len(there)) - 1))
