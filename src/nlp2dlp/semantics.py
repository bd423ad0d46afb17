"""Brute-force oracle over whole programs: classical models, answer sets,
here-and-there (HT) models, HT equivalence and equilibrium models.

Everything works by explicit enumeration over a caller-supplied alphabet
and is intended as a desk-scale oracle, not a solver.  Every function
raises ``ValueError``, naming them, if the alphabet misses atoms of the
program.

Each call compiles the rules once into a flat plan: the distinct
subformulas in post-order, as one ``syntax.subformulas`` walk over all
the heads and bodies lists them, one slot each, so structurally equal
subtrees share a slot and each step reads only earlier slots;
``ht_equivalent`` compiles the rules of both its programs into one plan,
in which each rule's fold names its program.  Every evaluator is a loop
over that plan, so none recurses, and each is bit-parallel.
Interpretations are numbered by the bits of an index and evaluated in
windows of at most 2^_WINDOW at a time: in a window the lowest _WINDOW
atoms vary and every higher one is a constant, all-ones or 0.  Classical
truth over a window is one integer per slot; HT truth is a pair of them,
the truth at H and at T, with one bit per subset H of a there-world T.
A rule is folded into the window's model bitmap as soon as its head and
body slots are ready.  So a call holds one 2^_WINDOW-bit integer per
slot, two under HT: it grows with the number of distinct subformulas,
not with the size of the alphabet, and the cap on the alphabet bounds
its time only.  The HT loops visit only the there-worlds T whose <T, T>
is an HT-model, found a window at a time by one pass of the HT engine
over all the total pairs; ``ht_equivalent`` makes that pass and each
window of each T once for both programs, with one model bitmap each,
compared after the window's last fold.

Answer sets come from the classical engine, equilibrium models from the
HT engine alone, so each checks the other.  The stability check of a
candidate I runs the classical loop over the subsets of I with every
``not`` fixed to the constant its child's value at I gives it: that is
the reduct by I, evaluated without building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import ResourceLimitError
from .syntax import (
    And, Atom, Expr, Not, Or, Program, Rule, Top, Var, subformulas,
)

DEFAULT_CAP = 20

Interpretation = frozenset[Atom]


@dataclass(frozen=True)
class HTInterpretation:
    here: Interpretation
    there: Interpretation

    def __post_init__(self):
        object.__setattr__(self, "here", frozenset(self.here))
        object.__setattr__(self, "there", frozenset(self.there))
        if not self.here <= self.there:
            raise ValueError("the 'here' world must be contained in 'there'")


def _check_cap(alphabet: Iterable[Atom], cap: int, *programs: Program
               ) -> list[Atom]:
    atoms = sorted(set(alphabet))
    missing = set().union(*(p.var() for p in programs)).difference(atoms)
    if missing:
        raise ValueError("atoms missing from the alphabet: "
                         + ", ".join(a.name for a in sorted(missing)))
    if len(atoms) > cap:
        raise ResourceLimitError(
            f"alphabet of {len(atoms)} atoms exceeds the enumeration cap {cap}")
    return atoms


# plan step operators; the binary ones come last
_VAR, _TOP, _BOT, _NOT, _AND, _OR = range(6)


class _Plan:
    """Rules compiled for the evaluators, those of one program or, when
    ``paired``, of two.

    ``steps`` holds one ``(op, a, b, folds)`` per slot, in post-order:
    ``a`` is the index in ``atoms`` of a ``_VAR`` step's atom and the
    first child slot otherwise, ``b`` the second child slot; ``folds``
    lists the (head, body, second) triples of the rules ready at this
    step, ``second`` 1 for a rule of the second program and 0 otherwise;
    a subformula the two programs share has one slot.  An evaluator
    keeps every slot's value to the end of its loop, one window-sized
    integer per step, or two under HT: at 8 KB each, a plan of a few
    hundred slots holds a few MB, and the loop does no bookkeeping to
    release a slot sooner.  The evaluators take the atoms' values as a
    table in the order of ``atoms``.  ``positive`` holds the atoms that
    occur outside every ``not``.
    """

    __slots__ = ("steps", "atoms", "positive", "paired")

    def __init__(self, steps: list[tuple], atoms: list[Atom],
                 positive: frozenset[Atom], paired: bool):
        self.steps = steps
        self.atoms = atoms
        self.positive = positive
        self.paired = paired


def _compile(rules: Sequence[Rule], second: Sequence[Rule] | None = None
             ) -> _Plan:
    programs = (rules,) if second is None else (rules, second)
    slot_of: dict[Expr, int] = {}
    atom_index: dict[Atom, int] = {}
    ops: list[tuple[int, int, int]] = []
    for e in subformulas([root for program in programs for rule in program
                          for root in (rule.head, rule.body)]):
        if isinstance(e, Var):
            index = atom_index.setdefault(e.atom, len(atom_index))
            op = (_VAR, index, 0)
        elif isinstance(e, Not):
            op = (_NOT, slot_of[e.child], 0)
        elif isinstance(e, (And, Or)):
            binary = _AND if isinstance(e, And) else _OR
            op = (binary, slot_of[e.left], slot_of[e.right])
        else:
            op = (_TOP if isinstance(e, Top) else _BOT, 0, 0)
        slot_of[e] = len(ops)
        ops.append(op)
    roots = [(slot_of[rule.head], slot_of[rule.body], in_second)
             for in_second, program in enumerate(programs)
             for rule in program]

    n = len(ops)
    folds: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for head, body, in_second in roots:
        folds[max(head, body)].append((head, body, in_second))

    # slots reached from a head or body through conjunction and
    # disjunction only; children precede their parents
    outside = [False] * n
    for head, body, _ in roots:
        outside[head] = outside[body] = True
    atoms = list(atom_index)
    positive = set()
    for k in range(n - 1, -1, -1):
        if outside[k]:
            op, a, b = ops[k]
            if op == _VAR:
                positive.add(atoms[a])
            elif op >= _AND:
                outside[a] = outside[b] = True

    steps = [(op, a, b, tuple(folds[k])) for k, (op, a, b) in enumerate(ops)]
    return _Plan(steps, atoms, frozenset(positive), second is not None)


@lru_cache(maxsize=None)
def _atom_patterns(n: int) -> tuple[int, ...]:
    """Bitmaps over 2^n interpretation indices, the j-th with bit i set
    to (i >> j) & 1.  Only n <= _WINDOW is asked for, so the cache holds
    at most _WINDOW + 1 entries, 0.25 MB."""
    patterns = []
    total = 1 << n
    for j in range(n):
        block = 1 << j
        pat = ((1 << block) - 1) << block
        width = block << 1
        while width < total:
            pat |= pat << width
            width <<= 1
        patterns.append(pat)
    return tuple(patterns)


def _full(n: int) -> int:
    """Bitmap of all 2^n interpretations of n atoms."""
    return (1 << (1 << n)) - 1


def _atom_bits(plan: _Plan, atoms: list[Atom]) -> list[int]:
    """The bit of each atom of the plan in an index over ``atoms``, 0 if
    absent."""
    position = {atom: j for j, atom in enumerate(atoms)}
    return [1 << position[atom] if atom in position else 0
            for atom in plan.atoms]


# Interpretations evaluated at a time: 2^_WINDOW bits, 8 KB per bitmap.
# Measured by window size on the verify_corpus bench (alphabets of up to
# 22 atoms), ops_per_s: 12 -> 192, 14 -> 240, 16 -> 256, 18 -> 253,
# 20 -> 220, none -> 195; peak_rss_mb is 22 up to 18, 28 at 20, 48 with
# none.
_WINDOW = 16

# HT tables fuse H and T per atom: split per there-world, 8-10% slower
_FALSE_HT = (0, 0)


def _windows(bits: list[int], index: int, ht: bool = False
             ) -> list[tuple[int, int, list]]:
    """The subsets of the alphabet atoms picked by ``index``, at most
    2^_WINDOW at a time, the window holding the whole set first: per
    window its base, the bitmap of all its subsets and the table of a
    plan's atoms over them.  ``bits`` are the atoms' bits in an index.
    An atom's entry is its bitmap, 0 if not picked; with ``ht`` it is
    its truth at H and at T, with the picked atoms as the there-world.

    A subset is numbered by the bits of the picked atoms in order, and is
    bit ``i - base`` of the window of base ``i >> _WINDOW << _WINDOW``:
    the _WINDOW lowest picked atoms follow ``_atom_patterns`` there, and
    every higher one is all-ones or 0."""
    k = index.bit_count()
    if k <= _WINDOW:
        # 2.4 us a call, 6.2 on the general path: run per candidate and T
        patterns = _atom_patterns(k)
        full = _full(k)
        if ht:
            return [(0, full, [(patterns[(index & (b - 1)).bit_count()], full)
                               if index & b else _FALSE_HT for b in bits])]
        return [(0, full, [patterns[(index & (b - 1)).bit_count()]
                           if index & b else 0 for b in bits])]
    ranks = [(index & (b - 1)).bit_count() if index & b else -1
             for b in bits]
    patterns = _atom_patterns(_WINDOW)
    full = _full(_WINDOW)
    low = [patterns[r] if 0 <= r < _WINDOW else 0 for r in ranks]
    windows = []
    for block in range((1 << (k - _WINDOW)) - 1, -1, -1):
        table = [pat if r < _WINDOW else full if (block >> (r - _WINDOW)) & 1
                 else 0 for r, pat in zip(ranks, low)]
        if ht:
            table = [(v, full) if r >= 0 else _FALSE_HT
                     for r, v in zip(ranks, table)]
        windows.append((block << _WINDOW, full, table))
    return windows


def _models_bitmap(plan: _Plan, table: list[int], full: int,
                   top: int = 0, nots: dict[int, int] | None = None) -> int:
    """Bitmap of the classical models of {B(r) -> H(r)}; ``table``
    holds the bitmaps of the plan's atoms.

    With ``top`` set to the bit of I, over a table of the subsets of I,
    each ``not`` takes the constant that its child's value at I, the top
    bit of the child's bitmap, gives it: the rules are then the reduct
    by I, and the bitmap is that of its models among the proper subsets
    of I.  When the subsets of I span more than this window, ``nots``
    carries those constants, by slot, to the other windows: the window
    of I stores them there, running to the end, and any other, with
    ``top`` 0, reads them.
    """
    vals: list[int] = []
    bm = full ^ top
    if not bm:
        return 0
    storing = top and nots is not None
    for op, a, b, folds in plan.steps:
        if op == _VAR:
            v = table[a]
        elif op == _AND:
            v = vals[a] & vals[b]
        elif op == _OR:
            v = vals[a] | vals[b]
        elif op == _NOT:
            if top:
                v = 0 if vals[a] >= top else full
                if nots is not None:
                    nots[len(vals)] = v
            elif nots is not None:
                v = nots[len(vals)]
            else:
                v = full ^ vals[a]
        else:
            v = full if op == _TOP else 0
        vals.append(v)
        if folds:
            for head, body, _ in folds:
                bm &= (full ^ vals[body]) | vals[head]
            if not bm and not storing:
                return 0
    return bm


_WORD = 1 << 12


def _iter_bits(bm: int, offset: int = 0) -> Iterator[int]:
    """Indices of the set bits plus ``offset``, ascending, word by word:
    each step costs the size of a word, not of the bitmap."""
    data = bm.to_bytes((bm.bit_length() + 7) // 8, "little")
    size = _WORD // 8
    for start in range(0, len(data), size):
        word = int.from_bytes(data[start:start + size], "little")
        base = offset + start * 8
        while word:
            low = word & -word
            yield base + low.bit_length() - 1
            word ^= low


def _picked(index: int, atoms: list[Atom]) -> list[Atom]:
    return [a for j, a in enumerate(atoms) if (index >> j) & 1]


def _index_to_interp(index: int, atoms: list[Atom]) -> Interpretation:
    return frozenset(_picked(index, atoms))


def _models(plan: _Plan, bits: list[int], n: int) -> Iterator[int]:
    """Indices of the classical models of the rules over n atoms."""
    return chain.from_iterable(
        _iter_bits(_models_bitmap(plan, table, full), base)
        for base, full, table in _windows(bits, (1 << n) - 1))


def classical_models(program: Program, alphabet: Iterable[Atom],
                     cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    atoms = _check_cap(alphabet, cap, program)
    plan = _compile(program.rules)
    return frozenset(_index_to_interp(i, atoms) for i in _models(
        plan, _atom_bits(plan, atoms), len(atoms)))


def _is_stable(plan: _Plan, bits: list[int], index: int) -> bool:
    """No proper subset of the candidate I picked by ``index`` is a model
    of the reduct by I; I itself is one, as it is a classical model of
    the rules."""
    # the first window holds I as its top bit and gives the constants
    (_, full, table), *rest = _windows(bits, index)
    nots = {} if rest else None
    if _models_bitmap(plan, table, full, (full + 1) >> 1, nots):
        return False
    return not any(_models_bitmap(plan, table, full, 0, nots)
                   for _, full, table in rest)


def answer_sets(program: Program, alphabet: Iterable[Atom],
                cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    """All I within the alphabet that are minimal models of the reduct
    of the program with respect to I."""
    atoms = _check_cap(alphabet, cap, program)
    plan = _compile(program.rules)
    # an atom that occurs only under ``not`` can be dropped from any
    # candidate I, so it is in no answer set
    atoms = [a for a in atoms if a in plan.positive]
    bits = _atom_bits(plan, atoms)
    # only classical models of the rule implications are candidates
    return frozenset(_index_to_interp(i, atoms)
                     for i in _models(plan, bits, len(atoms))
                     if _is_stable(plan, bits, i))


def _ht_holds(plan: _Plan, table: list[tuple[int, int]], full: int
              ) -> tuple[int, int]:
    """For the first program of the plan and the second, the bitmap of
    the pairs whose H world satisfies every B(r) -> H(r) of its rules,
    over a batch of HT pairs sharing one there-world; ``table`` holds the
    (H, T) bits of the plan's atoms.  Without a second program the second
    bitmap is 0, so the loop stops once the first one is."""
    hs: list[int] = []
    ts: list[int] = []
    bm, bm2 = full, full if plan.paired else 0
    for op, a, b, folds in plan.steps:
        if op == _VAR:
            h, t = table[a]
        elif op == _AND:
            h, t = hs[a] & hs[b], ts[a] & ts[b]
        elif op == _OR:
            h, t = hs[a] | hs[b], ts[a] | ts[b]
        elif op == _NOT:
            # not f holds at H iff f fails at H and at T
            h, t = full ^ (hs[a] | ts[a]), full ^ ts[a]
        else:
            h = t = full if op == _TOP else 0
        hs.append(h)
        ts.append(t)
        if folds:
            for head, body, in_second in folds:
                # clause for ->: true at H iff it holds at H and at T
                clause = ((full ^ hs[body]) | hs[head]) & \
                    ((full ^ ts[body]) | ts[head])
                if in_second:
                    bm2 &= clause
                else:
                    bm &= clause
            if not (bm or bm2):
                return 0, 0
    return bm, bm2


def _total_models(plan: _Plan, bits: list[int], n: int
                  ) -> Iterator[tuple[int, tuple[int, int]]]:
    """Per window of the 2^n there-worlds T: its base and, per program,
    the bitmap of the T for which <T, T> is an HT-model, in one pass over
    the diagonal pairs.  No other T has an HT-model: each rule's clause
    at T is the same for every H, and false in some rule unless <T, T>
    holds."""
    for base, full, table in _windows(bits, (1 << n) - 1):
        yield base, _ht_holds(plan, [(v, v) for v in table], full)


def _ht_blocks(plan: _Plan, bits: list[int], t: int
               ) -> Iterator[tuple[int, tuple[int, int]]]:
    """For the there-world T picked by the bits of t, per window of its
    subsets: the window's base and, per program, the bitmap of the
    HT-models <H, T> in it, bit i for the H picked from T by the bits of
    base + i."""
    for base, full, table in _windows(bits, t, ht=True):
        yield base, _ht_holds(plan, table, full)


def ht_models(program: Program, alphabet: Iterable[Atom],
              cap: int = DEFAULT_CAP) -> frozenset[HTInterpretation]:
    atoms = _check_cap(alphabet, cap, program)
    plan = _compile(program.rules)
    bits = _atom_bits(plan, atoms)
    models = set()
    for base, (totals, _) in _total_models(plan, bits, len(atoms)):
        for t in _iter_bits(totals, base):
            there = _picked(t, atoms)
            for h_base, (bm, _) in _ht_blocks(plan, bits, t):
                models.update(
                    HTInterpretation(_index_to_interp(i, there), there)
                    for i in _iter_bits(bm, h_base))
    return frozenset(models)


def ht_equivalent(p1: Program, p2: Program, alphabet: Iterable[Atom],
                  cap: int = DEFAULT_CAP) -> bool:
    """Same HT-models over the alphabet; decides strong equivalence.

    Both programs are compiled into one plan, so each window is
    evaluated once for the two of them."""
    atom_list = _check_cap(alphabet, cap, p1, p2)
    plan = _compile(p1.rules, second=p2.rules)
    bits = _atom_bits(plan, atom_list)
    # a T where <T, T> is a model of one program only tells them apart
    for base, (totals1, totals2) in _total_models(plan, bits, len(atom_list)):
        if totals1 != totals2:
            return False
        for t in _iter_bits(totals1, base):
            if any(bm1 != bm2 for _, (bm1, bm2) in _ht_blocks(plan, bits, t)):
                return False
    return True


def equilibrium_models(program: Program, alphabet: Iterable[Atom],
                       cap: int = DEFAULT_CAP) -> frozenset[Interpretation]:
    """Total HT-models <I,I> with no <J,I>, J a proper subset, a model."""
    atoms = _check_cap(alphabet, cap, program)
    plan = _compile(program.rules)
    bits = _atom_bits(plan, atoms)
    found = []
    for base, (totals, _) in _total_models(plan, bits, len(atoms)):
        for t in _iter_bits(totals, base):
            # <T, T> holds and is the top bit of T's first window; the
            # other windows are read only while T is still accepted, and
            # only until one holds a model
            (_, full, table), *rest = _windows(bits, t, ht=True)
            holds, _ = _ht_holds(plan, table, full)
            if holds == (full + 1) >> 1 and not any(
                    _ht_holds(plan, table, full)[0]
                    for _, full, table in rest):
                found.append(t)
    return frozenset(_index_to_interp(t, atoms) for t in found)
