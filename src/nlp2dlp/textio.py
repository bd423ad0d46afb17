"""Surface syntax: parser and printers for nested and DLV-style programs.

Grammar (EBNF)::

    program  := { rule } ;
    rule     := [ expr ] [ ":-" expr ] "." ;
    expr     := disj ;
    disj     := conj { ("|" | ";" | "v") conj } ;
    conj     := neg { ("," | "&") neg } ;
    neg      := { "not" | "-" } prim ;
    prim     := "true" | "false" | atom | "(" expr ")" ;
    comment  := "%" to end of line ;

A rule without ":-" has body ``true``; a rule without a head has head
``false``.  ``not`` and ``-`` both denote negation; ``v`` in infix
position is disjunction, elsewhere it is an ordinary atom.

The parser reads tokens as plain lexemes and their kinds, from one
regular-expression pass, and works out a token's line and column only
when it raises a ``ParseError``.
"""

from __future__ import annotations

import re

from .errors import ParseError, StageInputError
from .syntax import (
    BOT, TOP, And, Atom, Bot, Expr, Not, Or, Program, ProgramClass, Rule, Top,
    Var, _first_out_of_class, _leaves, user_atom,
)

# whitespace and comments, then a lexeme: a token, a character that
# starts none, or the empty lexeme at the end of the text
_TOKEN_RE = re.compile(
    r"""(?: [ \t\r\n]+ | %[^\n]* )*
        ( :- | [A-Za-z_][A-Za-z0-9_]* | [().,;&|-] | . | \Z )
    """,
    re.VERBOSE,
)
_NAME_START = re.compile(r"[A-Za-z_]")

# token kind of each keyword and punctuation lexeme; an identifier, or
# a character that starts no token, has none
_KINDS = {
    "not": "not", "true": "true", "false": "false", ":-": "arrow",
    ".": "dot", "(": "lparen", ")": "rparen", ",": "and", "&": "and",
    ";": "or", "|": "or", "-": "not", "": "eof",
}


def _error(message: str, text: str, origin: str, pos: int) -> ParseError:
    """A ``ParseError`` at the offset ``pos`` of ``text``, with its 1-based
    line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, origin, text.count("\n", 0, line_start) + 1,
                      pos - line_start + 1)


def _tokenize(text: str) -> tuple[list[str], list[str | None]]:
    """The lexemes of ``text``, the empty one at its end included, and
    their kinds, from one pass of ``_TOKEN_RE``."""
    lexemes = _TOKEN_RE.findall(text)
    return lexemes, list(map(_KINDS.get, lexemes))


def _fail(message: str, text: str, origin: str, index: int) -> ParseError:
    """The ``ParseError`` for the token at ``index`` of the text's
    lexemes, its offset found by scanning the text again.  A character
    that starts no token is reported instead, the first of them wherever
    it is, so the message does not depend on where the parser stopped."""
    pos = len(text)
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        lexeme = m[1]
        if lexeme and lexeme not in _KINDS and not _NAME_START.match(lexeme):
            return _error(f"unexpected character {lexeme!r}", text, origin,
                          m.start(1))
        if k == index:
            pos = m.start(1)
    return _error(message, text, origin, pos)


def parse(text: str, origin: str = "<string>",
          allow_internal: bool = False) -> Program:
    """Parse program text; the package's one reader, so an expression
    ``e`` is read as ``parse("e.").rules[0].head``.

    ``allow_internal`` admits label (``l_``) and bar (``n_``) atoms, as
    needed to re-read translated output; user input rejects them.

    The lexemes and their kinds are read by one index.  An expression is
    read by an operator-precedence loop; parentheses open a group on the
    operator stack instead of a nested call, so nesting depth costs no
    recursion.  A character that starts no token has the kind of an
    identifier, and fails as an atom name wherever it is read.
    """
    lexemes, kinds = _tokenize(text)
    make_atom = Atom if allow_internal else user_atom
    # the atoms' nodes by name, so each name is checked once per text
    names: dict[str, Var] = {}
    rules: list[Rule] = []
    # the pending operators, innermost last, as node classes, with None
    # for an open parenthesis and for the floor; the left operand of each
    # And and Or is in ``lefts``
    ops: list[type[Expr] | None] = [None]
    lefts: list[Expr] = []
    depth = 0  # open parentheses, none between expressions
    i = 0
    while True:
        kind = kinds[i]
        if kind == "eof":
            # every node in ``names`` was placed in a rule
            return Program._derived(tuple(rules), frozenset(), frozenset(
                node.atom for node in names.values()))
        if kind == "dot":
            raise _fail("empty rule", text, origin, i)
        in_body = kind == "arrow"
        if in_body:
            head = BOT
            i += 1
        while True:
            while True:
                kind = kinds[i]
                i += 1
                if kind is None:
                    expr = names.get(lexemes[i - 1])
                    if expr is None:
                        try:
                            expr = make_atom(lexemes[i - 1]).var
                        except ValueError as exc:
                            raise _fail(str(exc), text, origin,
                                        i - 1) from None
                        names[lexemes[i - 1]] = expr
                elif kind == "not":
                    ops.append(Not)
                    continue
                elif kind == "lparen":
                    ops.append(None)
                    depth += 1
                    continue
                elif kind == "true":
                    expr = TOP
                elif kind == "false":
                    expr = BOT
                else:
                    raise _fail(
                        f"expected an expression, found {lexemes[i - 1]!r}",
                        text, origin, i - 1)
                # negations bind to the operand just read, or to the group
                # it closes; so above a parenthesis only And and Or wait
                while ops[-1] is Not:
                    ops.pop()
                    expr = Not(expr)
                while depth and kinds[i] == "rparen":
                    i += 1
                    op = ops.pop()
                    while op is not None:
                        expr = op(lefts.pop(), expr)
                        op = ops.pop()
                    depth -= 1
                    while ops[-1] is Not:
                        ops.pop()
                        expr = Not(expr)
                kind = kinds[i]
                if kind == "and":
                    op = And
                    while ops[-1] is And:
                        expr = ops.pop()(lefts.pop(), expr)
                elif kind == "or" or kind is None and lexemes[i] == "v":
                    op = Or
                    while ops[-1] is not None:
                        expr = ops.pop()(lefts.pop(), expr)
                elif depth:
                    raise _fail(f"expected ')', found {lexemes[i]!r}", text,
                                origin, i)
                else:
                    while lefts:
                        expr = ops.pop()(lefts.pop(), expr)
                    break
                ops.append(op)
                lefts.append(expr)
                i += 1
            if in_body:
                body = expr
                break
            if kinds[i] != "arrow":
                head, body = expr, TOP
                break
            head = expr
            in_body = True
            i += 1
        if kinds[i] != "dot":
            raise _fail(f"expected '.', found {lexemes[i]!r}", text, origin, i)
        i += 1
        rules.append(Rule(head, body))


_PREC_OR, _PREC_AND, _PREC_NOT = 1, 2, 3


def format_expr(expr: Expr) -> str:
    """Nested syntax for an expression; reparsing restores the tree."""
    out: list[str] = []
    # pieces still to print, last first: text, or a subexpression with
    # the least precedence it may show without parentheses
    stack: list[str | tuple[Expr, int]] = [(expr, _PREC_OR)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        e, min_prec = item
        if isinstance(e, Not):
            prec, parts = _PREC_NOT, ["not ", (e.child, _PREC_NOT)]
        elif isinstance(e, And):
            # right operand at a higher level keeps reparsing left-associative
            prec, parts = _PREC_AND, [(e.left, _PREC_AND), ", ",
                                      (e.right, _PREC_NOT)]
        elif isinstance(e, Or):
            prec, parts = _PREC_OR, [(e.left, _PREC_OR), " v ",
                                     (e.right, _PREC_AND)]
        else:
            out.append(_atomic_text(e))
            continue
        if prec < min_prec:
            parts = ["(", *parts, ")"]
        stack.extend(reversed(parts))
    return "".join(out)


def _atomic_text(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.atom.name
    return "true" if isinstance(expr, Top) else "false"


def format_rule(rule: Rule) -> str:
    if rule.head == BOT:
        return ":- " + format_expr(rule.body) + "."
    if rule.body == TOP:
        return format_expr(rule.head) + "."
    return format_expr(rule.head) + " :- " + format_expr(rule.body) + "."


def _require(program: Program, cls: ProgramClass, stage: str) -> None:
    """Raise ``StageInputError`` at the first rule outside ``cls``."""
    index = _first_out_of_class(program.rules, cls)
    if index is not None:
        raise StageInputError(
            f"{stage} expects a program in class {cls.name.lower()}; "
            f"rule {index}: {format_rule(program.rules[index])}")


def print_nested(program: Program) -> str:
    """Nested syntax, one rule per line; empty program prints nothing."""
    return "".join(format_rule(r) + "\n" for r in program.rules)


def _dlv_literal(expr: Expr) -> str:
    """An atom, a truth constant, or ``not`` before one: a literal of a
    disjunctive rule."""
    if type(expr) is Var:
        return expr.atom.name
    if type(expr) is Not:
        return "not " + _atomic_text(expr.child)
    return _atomic_text(expr)


def _dlv_literals(expr: Expr, op: type[Expr], sep: str) -> str:
    """The disjuncts of a head (``op`` Or) or the conjuncts of a body
    (``op`` And), joined by ``sep``: one or two literals directly, more
    through the flattened list."""
    if type(expr) is not op:
        return _dlv_literal(expr)
    left, right = expr.left, expr.right
    if type(left) is op or type(right) is op:
        return sep.join(map(_dlv_literal, _leaves(expr, op)))
    return _dlv_literal(left) + sep + _dlv_literal(right)


def _format_dlv_rule(rule: Rule) -> str:
    head, body = rule.head, rule.body
    # ``a :- b.``, most of what a translation prints, directly
    if type(head) is Var and type(body) is Var:
        return f"{head.atom.name} :- {body.atom.name}."
    if type(body) is Top:
        if type(head) is Bot:
            return ":- true."
        return _dlv_literals(head, Or, " v ") + "."
    body_text = _dlv_literals(body, And, ", ")
    if type(head) is Bot:
        return ":- " + body_text + "."
    return _dlv_literals(head, Or, " v ") + " :- " + body_text + "."


def print_dlv(program: Program) -> str:
    """DLV-compatible disjunctive syntax, one rule per line.

    The program must classify as disjunctive (or basic); otherwise a
    ``StageInputError`` names the first rule outside that class.
    """
    _require(program, ProgramClass.DISJUNCTIVE, "print_dlv")
    return "".join([line + "\n"
                    for line in map(_format_dlv_rule, program.rules)])
