"""Command-line interface.

Subcommands: ``translate`` (compile to DLV syntax), ``solve`` (enumerate
answer sets), ``check`` (faithfulness / strong faithfulness / modularity
/ the answer-set vs. equilibrium-model cross-check), ``stats`` (growth
CSV) and ``gen`` (seeded program generation).

Exit status: 0 success, 1 check mismatch, 2 parse, flag or file errors,
each reported as one last ``error:`` line, 3 resource errors (cap or
guard), 4 any other error, an internal one, reported with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import traceback

from .errors import ParseError, ResourceLimitError, StageInputError
from .semantics import DEFAULT_CAP, Interpretation, answer_sets, equilibrium_models
from .syntax import Atom, Program
from .textio import _error, parse, print_dlv, print_nested
from .translate import DEFAULT_GUARD
from .verify import (
    DEFAULT_VERIFY_CAP, GROWTH_FAMILIES, MODES, GeneratorConfig,
    _interp_key, check_faithful, check_modular, check_strongly_faithful,
    generate_program, growth_csv, measure_growth, translate_mode,
)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a flag error as one last ``error:`` line, like every other
    error that exits 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(2, f"error: {self.prog}: {message}\n")


def _int_in_range(least: int, most: int | None = None):
    """An argparse ``type`` for an integer from ``least`` to ``most``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(
                f"must be at most {most}, got {value}")
        return value
    return convert


_NON_NEGATIVE = _int_in_range(0)
_POSITIVE = _int_in_range(1)
# a generated node has 0.65 * 1.7 = 1.105 children on average, so tree
# size grows exponentially with the depth: over seeds 0-39, 3 rules on
# 4 atoms reach 17,407 nodes at depth 48 and 139,669 at depth 64
_MAX_DEPTH = 48


def _read_text(path: str | None) -> tuple[str, str]:
    """The input as strict UTF-8 with universal newlines, and its origin;
    an invalid byte is a ``ParseError`` at its line and column."""
    if path is None or path == "-":
        data, origin = sys.stdin.buffer.read(), "<stdin>"
    else:
        with open(path, "rb") as handle:
            data, origin = handle.read(), path
    try:
        return _newlines(data.decode("utf-8")), origin
    except UnicodeDecodeError as exc:
        before = _newlines(data[:exc.start].decode("utf-8"))
        raise _error(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                     before, origin, len(before)) from None


def _newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_program(path: str | None, allow_internal: bool) -> Program:
    text, origin = _read_text(path)
    return parse(text, origin, allow_internal=allow_internal)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _parse_atom_list(spec: str) -> frozenset[Atom]:
    names = (name.strip() for name in spec.split(","))
    return frozenset(Atom(name) for name in names if name)


def _format_interp(interp: Interpretation) -> str:
    return "{" + ", ".join(_interp_key(interp)) + "}"


def _cmd_translate(args: argparse.Namespace) -> int:
    program = _read_program(args.input, allow_internal=False)
    translated, report = translate_mode(program, args.mode, args.simplify)
    _write_text(args.output, print_dlv(translated))
    for key, value in dataclasses.asdict(report).items():
        print(f"{key}={value}", file=sys.stderr)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    program = _read_program(args.input, allow_internal=True)
    alphabet = program.alphabet | _parse_atom_list(args.alphabet or "")
    sets = answer_sets(program, alphabet, cap=args.cap)
    if args.project:
        projection = _parse_atom_list(args.project)
        sets = frozenset(i & projection for i in sets)
    if not sets:
        print("0 answer sets")
        return 0
    for interp in sorted(sets, key=_interp_key):
        print(_format_interp(interp))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    program = _read_program(args.input, allow_internal=False)
    if args.kind == "faithful":
        verdict = check_faithful(program, mode=args.mode, cap=args.cap)
        if verdict.equal:
            print("faithful: yes")
            return 0
        print("faithful: no")
        if verdict.witness is not None:
            print(f"witness: {_format_interp(verdict.witness)}")
        return 1
    if args.kind == "strong":
        config = GeneratorConfig(seed=args.seed)
        verdicts = check_strongly_faithful(
            program, args.contexts, config, mode=args.mode, cap=args.cap)
        failed = False
        for index, verdict in enumerate(verdicts):
            if verdict.equal:
                print(f"context {index}: ok")
            else:
                failed = True
                line = f"context {index}: mismatch"
                if verdict.witness is not None:
                    line += f" witness {_format_interp(verdict.witness)}"
                print(line)
        return 1 if failed else 0
    if args.kind == "modular":
        if args.mode != "structural":
            raise ValueError(
                "check modular checks the structural translation only, "
                f"not --mode {args.mode}")
        if args.second is None:
            raise ValueError("check modular requires -j FILE2")
        other = _read_program(args.second, allow_internal=False)
        ok = check_modular(program, other)
        print(f"modular: {'yes' if ok else 'no'}")
        return 0 if ok else 1
    # props: answer sets coincide with equilibrium models
    stable = answer_sets(program, program.alphabet, cap=args.cap)
    equilibria = equilibrium_models(program, program.alphabet, cap=args.cap)
    ok = stable == equilibria
    print(f"answer sets match equilibrium models: {'yes' if ok else 'no'}")
    if not ok:
        for interp in sorted(stable ^ equilibria, key=_interp_key):
            print(f"witness: {_format_interp(interp)}")
    return 0 if ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    rows = measure_growth(args.family, range(1, args.n_max + 1),
                          guard=args.guard)
    _write_text(args.output, growth_csv(rows))
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    config = GeneratorConfig(seed=args.seed, max_atoms=args.atoms,
                             max_depth=args.depth, max_rules=args.rules,
                             family=args.family)
    sys.stdout.write(print_nested(generate_program(config)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nlp2dlp",
        description="Compile nested logic programs into disjunctive logic "
                    "programs, and check the translation against a "
                    "brute-force answer-set oracle.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("translate", help="compile to DLV syntax")
    p_tr.add_argument("--mode", choices=MODES, default="structural")
    p_tr.add_argument("--simplify", action="store_true",
                      help="do not label the truth constants")
    p_tr.add_argument("-i", "--input", default=None)
    p_tr.add_argument("-o", "--output", default=None)
    p_tr.set_defaults(func=_cmd_translate)

    p_solve = sub.add_parser("solve", help="enumerate answer sets")
    p_solve.add_argument("--alphabet", default=None,
                         help="comma-separated atoms added to the alphabet")
    p_solve.add_argument("--project", default=None,
                         help="comma-separated atoms to project onto")
    p_solve.add_argument("--cap", type=_NON_NEGATIVE, default=DEFAULT_CAP)
    p_solve.add_argument("-i", "--input", default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="verify translation properties")
    p_check.add_argument("kind", choices=("faithful", "strong", "modular",
                                          "props"))
    p_check.add_argument("--mode", choices=MODES, default="structural",
                         help="translation checked by faithful and strong; "
                              "modular takes structural only")
    p_check.add_argument("--contexts", type=_POSITIVE, default=25)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--cap", type=_NON_NEGATIVE, default=DEFAULT_VERIFY_CAP,
                         help="largest alphabet that faithful, strong and "
                              "props enumerate; modular enumerates nothing")
    p_check.add_argument("-i", "--input", default=None)
    p_check.add_argument("-j", "--second", default=None,
                         help="second program (check modular)")
    p_check.set_defaults(func=_cmd_check)

    p_stats = sub.add_parser("stats", help="emit the growth CSV")
    p_stats.add_argument("--family", choices=GROWTH_FAMILIES,
                         required=True)
    p_stats.add_argument("--n-max", type=_POSITIVE, required=True)
    p_stats.add_argument("--guard", type=_NON_NEGATIVE, default=DEFAULT_GUARD)
    p_stats.add_argument("-o", "--output", default=None)
    p_stats.set_defaults(func=_cmd_stats)

    p_gen = sub.add_parser("gen", help="generate a seeded random program")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--atoms", type=_POSITIVE, default=4)
    p_gen.add_argument("--rules", type=_POSITIVE, default=3)
    p_gen.add_argument("--depth", type=_int_in_range(1, _MAX_DEPTH),
                       default=3)
    p_gen.add_argument("--family", choices=("random", *GROWTH_FAMILIES),
                       default="random")
    p_gen.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return 3
    except (StageInputError, ValueError, OSError) as exc:
        # an OSError here can only come from reading the input or
        # writing the output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
