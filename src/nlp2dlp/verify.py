"""Empirical checks for the translation's meta-properties.

Faithfulness and strong faithfulness are validated against the
enumeration oracle on concrete programs.  Faithfulness is the strong
check with no context: one step compares the answer sets of both sides,
each over its own ``Program.alphabet``.  Modularity is checked by
comparing rule sets: the translations of two programs and of their
union share one label table, so each subformula phi is labelled L_phi
in all three, as in the paper.  Polynomiality is exhibited by measuring
growth against the distributive translation on the worst-case rule
families.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ResourceLimitError
from .semantics import Interpretation, answer_sets
from .syntax import (
    BOT, TOP, And, Atom, Expr, Not, Or, Program, Rule, conjunction,
    disjunction, user_atom,
)
from .translate import (
    DEFAULT_GUARD, AtomTable, TranslationReport, _structural_pipeline,
    translate_distributive, translate_polarity_variant, translate_structural,
)

DEFAULT_VERIFY_CAP = 24

MODES = ("structural", "distributive", "polarity")

GROWTH_FAMILIES = ("dnf_head", "cnf_body")


@dataclass(frozen=True)
class FaithfulnessVerdict:
    input_answer_sets: frozenset[Interpretation]
    projected_translated_sets: frozenset[Interpretation]
    equal: bool
    witness: Interpretation | None = None


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    max_atoms: int = 4
    max_depth: int = 3
    max_rules: int = 3
    family: str = "random"


def translate_mode(program: Program, mode: str, simplify: bool = False
                   ) -> tuple[Program, TranslationReport]:
    """Translate in the named mode; ``simplify`` applies to the labeling
    modes, as the distributive mode creates no labels."""
    if mode == "structural":
        return translate_structural(program, simplify=simplify)
    if mode == "polarity":
        return translate_polarity_variant(program, simplify=simplify)
    if mode == "distributive":
        return translate_distributive(program)
    raise ValueError(f"unknown translation mode {mode!r}")


def _interp_key(interp: Interpretation) -> tuple[str, ...]:
    return tuple(sorted(a.name for a in interp))


def _verdict(inputs: frozenset[Interpretation],
             outputs: frozenset[Interpretation],
             projection: frozenset[Atom]) -> FaithfulnessVerdict:
    projected = frozenset(i & projection for i in outputs)
    one_to_one = len(projected) == len(outputs)
    equal = projected == inputs and one_to_one
    witness = None
    if projected != inputs:
        witness = min(projected ^ inputs, key=_interp_key)
    elif not one_to_one:
        # two translated answer sets collapse onto one projection
        seen: set[Interpretation] = set()
        for i in sorted(outputs, key=_interp_key):
            p = i & projection
            if p in seen:
                witness = p
                break
            seen.add(p)
    return FaithfulnessVerdict(inputs, projected, equal, witness)


def _faithful(program: Program, translated: Program,
              context: Program | None, cap: int) -> FaithfulnessVerdict:
    """Answer sets of the program against those of its translation, both
    with the context if one is given, each over its own alphabet."""
    if context is not None:
        program, translated = program.union(context), translated.union(context)
    inputs = answer_sets(program, program.alphabet, cap)
    outputs = answer_sets(translated, translated.alphabet, cap)
    return _verdict(inputs, outputs, program.alphabet)


def check_faithful(program: Program, mode: str = "structural",
                   cap: int = DEFAULT_VERIFY_CAP) -> FaithfulnessVerdict:
    """Compare answer sets of the input with the projection of the
    answer sets of its translation, including the one-to-one property:
    the strong check with no context."""
    translated, _ = translate_mode(program, mode)
    return _faithful(program, translated, None, cap)


def check_strongly_faithful(program: Program, contexts: int,
                            config: GeneratorConfig, mode: str = "structural",
                            cap: int = DEFAULT_VERIFY_CAP
                            ) -> list[FaithfulnessVerdict]:
    """Faithfulness under sampled context programs over the input
    alphabet: answer sets of program + context versus the projection of
    translation + context."""
    rng = random.Random(config.seed)
    atoms = tuple(sorted(program.alphabet))
    translated, _ = translate_mode(program, mode)
    verdicts = []
    for _ in range(contexts):
        context = Program(
            _random_rules(rng, atoms, config.max_depth, config.max_rules),
            program.alphabet)
        verdicts.append(_faithful(program, translated, context, cap))
    return verdicts


def check_modular(p1: Program, p2: Program) -> bool:
    """The structural translation commutes with program union, compared
    as rule sets.  The three translations share one label table, so each
    subformula phi has the one label L_phi in all of them."""
    table = AtomTable()
    union, _ = _structural_pipeline(p1.union(p2), table)
    t1, _ = _structural_pipeline(p1, table)
    t2, _ = _structural_pipeline(p2, table)
    return set(union.rules) == set(t1.rules) | set(t2.rules)


def family_program(family: str, n: int) -> Program:
    """Worst-case growth families.

    ``dnf_head``: one rule whose head is the disjunction over i of
    (a_i and b_i); its head CNF has 2^n clauses.  ``cnf_body``: one rule
    whose body is the conjunction over i of (a_i or b_i).
    """
    if family not in GROWTH_FAMILIES:
        raise ValueError(f"unknown growth family {family!r}")
    if n < 1:
        raise ValueError("family size must be at least 1")
    pairs = [(user_atom(f"a{i}"), user_atom(f"b{i}")) for i in range(1, n + 1)]
    if family == "dnf_head":
        head = disjunction([And(a.var, b.var) for a, b in pairs])
        return Program((Rule(head, TOP),))
    body = conjunction([Or(a.var, b.var) for a, b in pairs])
    return Program((Rule(user_atom("p").var, body),))


@dataclass(frozen=True)
class GrowthRow:
    n: int
    structural_size: int
    structural_rules: int
    distributive_size: int | None
    distributive_rules: int | None
    overflow: bool


def measure_growth(family: str, n_values: Iterable[int],
                   guard: int = DEFAULT_GUARD) -> list[GrowthRow]:
    rows = []
    for n in n_values:
        prog = family_program(family, n)
        structural, s_report = translate_structural(prog)
        try:
            distributive, d_report = translate_distributive(prog, guard)
            rows.append(GrowthRow(n, s_report.output_size, len(structural.rules),
                                  d_report.output_size, len(distributive.rules),
                                  False))
        except ResourceLimitError:
            rows.append(GrowthRow(n, s_report.output_size,
                                  len(structural.rules), None, None, True))
    return rows


def growth_csv(rows: Sequence[GrowthRow]) -> str:
    lines = ["n,structural_size,distributive_size,distributive_overflow"]
    for row in rows:
        dist = "" if row.overflow else str(row.distributive_size)
        lines.append(f"{row.n},{row.structural_size},{dist},"
                     f"{1 if row.overflow else 0}")
    return "\n".join(lines) + "\n"


def _atom_names(count: int) -> list[str]:
    names = []
    letters = "abcdefghijklmnopqrstuvwxyz"
    i = 0
    while len(names) < count:
        if i < len(letters):
            names.append(letters[i])
        else:
            names.append(f"x{i - len(letters)}")
        i += 1
    return names


def _random_expr(rng: random.Random, atoms: Sequence[Atom], depth: int) -> Expr:
    if not atoms or depth <= 1 or rng.random() < 0.35:
        roll = rng.random()
        if not atoms or roll < 0.05:
            return TOP
        if roll < 0.10:
            return BOT
        return rng.choice(atoms).var
    roll = rng.random()
    if roll < 0.30:
        return Not(_random_expr(rng, atoms, depth - 1))
    if roll < 0.65:
        return And(_random_expr(rng, atoms, depth - 1),
                   _random_expr(rng, atoms, depth - 1))
    return Or(_random_expr(rng, atoms, depth - 1),
              _random_expr(rng, atoms, depth - 1))


def _random_rules(rng: random.Random, atoms: Sequence[Atom], max_depth: int,
                  max_rules: int) -> tuple[Rule, ...]:
    rules = []
    for _ in range(rng.randint(1, max(1, max_rules))):
        head = BOT if rng.random() < 0.10 else _random_expr(rng, atoms, max_depth)
        body = TOP if rng.random() < 0.35 else _random_expr(rng, atoms, max_depth)
        rules.append(Rule(head, body))
    return tuple(rules)


def generate_program(config: GeneratorConfig) -> Program:
    """Seeded random nested program; identical configs yield identical
    programs.  The growth families delegate to ``family_program`` with
    n taken from ``max_rules``."""
    if config.family in GROWTH_FAMILIES:
        return family_program(config.family, max(1, config.max_rules))
    if config.family != "random":
        raise ValueError(f"unknown generator family {config.family!r}")
    rng = random.Random(config.seed)
    atoms = tuple(user_atom(n) for n in _atom_names(config.max_atoms))
    rules = _random_rules(rng, atoms, config.max_depth, config.max_rules)
    return Program(rules, frozenset(atoms))
