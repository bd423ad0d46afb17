"""Compile logic programs with nested expressions into disjunctive logic
programs, with a brute-force answer-set and HT-model oracle."""

from .errors import (
    Nlp2DlpError, ParseError, ResourceLimitError, StageInputError,
)
from .semantics import (
    DEFAULT_CAP, HTInterpretation, Interpretation, answer_sets,
    classical_models, equilibrium_models, ht_equivalent, ht_models,
)
from .syntax import (
    BOT, TOP, And, Atom, AtomKind, Bot, Expr, Not, Or, Program,
    ProgramClass, Rule, Top, Var, bar_atom, classify, conjunction,
    disjunction, is_ht_literal, is_ht_nnf, label_atom, program_size,
    subformulas, user_atom,
)
from .textio import format_expr, parse, print_dlv, print_nested
from .translate import (
    AtomTable, TranslationReport, normalize_nnf, tr1, tr2, tr3, tr4,
    translate_distributive, translate_polarity_variant, translate_structural,
)
from .verify import (
    FaithfulnessVerdict, GeneratorConfig, GrowthRow, check_faithful,
    check_modular, check_strongly_faithful, family_program, generate_program,
    growth_csv, measure_growth, translate_mode,
)

__version__ = "0.1.0"
