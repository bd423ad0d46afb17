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
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import NotDisjunctiveError, ParseError
from .syntax import (
    BAR_PREFIX, BOT, LABEL_PREFIX, TOP, And, Atom, AtomKind, Bot, Expr, Not,
    Or, Program, ProgramClass, Rule, Top, Var, classify, conjuncts, disjuncts,
    _rule_rank,
)

# whitespace and comments, then a token (group 1), a character that
# starts none (group 2) or the end of the text
_TOKEN_RE = re.compile(
    r"""(?: [ \t\r\n]+ | %[^\n]* )*
        (?: ( :- | [A-Za-z_][A-Za-z0-9_]* | [().,;&|-] ) | (.) | \Z )
    """,
    re.VERBOSE,
)

# token kind of each keyword and punctuation lexeme; any other lexeme
# matched as a token is an identifier
_KINDS = {
    "not": "not", "true": "true", "false": "false", ":-": "arrow",
    ".": "dot", "(": "lparen", ")": "rparen", ",": "and", "&": "and",
    ";": "or", "|": "or", "-": "not",
}


class Token(NamedTuple):
    """A lexeme, its kind and its offset in the text; the line and the
    column are worked out from the offset only for an error message."""

    kind: str
    text: str
    pos: int


def _error(message: str, text: str, origin: str, pos: int) -> ParseError:
    """A ``ParseError`` at the offset ``pos`` of ``text``, with its 1-based
    line and column."""
    line_start = text.rfind("\n", 0, pos) + 1
    return ParseError(message, origin, text.count("\n", 0, line_start) + 1,
                      pos - line_start + 1)


def _tokenize(text: str, origin: str) -> list[Token]:
    tokens = []
    kinds = _KINDS
    for m in _TOKEN_RE.finditer(text):
        lexeme = m[1]
        if lexeme is None:
            if m[2] is not None:
                raise _error(f"unexpected character {m[2]!r}", text, origin,
                             m.start(2))
            break
        tokens.append(Token(kinds.get(lexeme, "ident"), lexeme, m.start(1)))
    tokens.append(Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, origin: str, allow_internal: bool):
        self.text = text
        self.tokens = _tokenize(text, origin)
        self.pos = 0
        self.origin = origin
        self.allow_internal = allow_internal
        # one node per atom name, made where it first occurs
        self.vars: dict[str, Var] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> ParseError:
        tok = tok or self.peek()
        return _error(message, self.text, self.origin, tok.pos)

    def expect(self, kind: str, what: str) -> Token:
        if self.peek().kind != kind:
            raise self.error(f"expected {what}, found {self.peek().text!r}")
        return self.advance()

    def program(self) -> Program:
        rules = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        # every node in ``vars`` was placed in a rule
        return Program._derived(tuple(rules), frozenset(), frozenset(
            node.atom for node in self.vars.values()))

    def rule(self) -> Rule:
        tok = self.peek()
        if tok.kind == "dot":
            raise self.error("empty rule")
        head = None
        body = None
        if tok.kind != "arrow":
            head = self.expr()
        if self.peek().kind == "arrow":
            self.advance()
            body = self.expr()
        self.expect("dot", "'.'")
        return Rule(head if head is not None else BOT,
                    body if body is not None else TOP)

    def expr(self) -> Expr:
        """Operator-precedence loop over ``neg``, ``conj`` and ``disj``;
        parentheses open a group on the operator stack instead of a
        nested call, so nesting depth costs no recursion."""
        operands: list[Expr] = []
        ops: list[str] = []  # "not", "and", "or" and "lparen"
        depth = 0  # open parentheses

        def reduce(stop: tuple[str, ...]) -> None:
            while ops and ops[-1] not in stop:
                op = ops.pop()
                if op == "not":
                    operands.append(Not(operands.pop()))
                else:
                    right = operands.pop()
                    left = operands.pop()
                    operands.append(And(left, right) if op == "and"
                                    else Or(left, right))

        while True:
            tok = self.advance()
            if tok.kind == "not":
                ops.append("not")
                continue
            if tok.kind == "lparen":
                ops.append("lparen")
                depth += 1
                continue
            if tok.kind == "true":
                operands.append(TOP)
            elif tok.kind == "false":
                operands.append(BOT)
            elif tok.kind == "ident":
                operands.append(self.var(tok))
            else:
                raise self.error(f"expected an expression, found {tok.text!r}",
                                 tok)
            # negations bind to the operand just read, or to the group it
            # closes
            reduce(("and", "or", "lparen"))
            while depth and self.peek().kind == "rparen":
                self.advance()
                reduce(("lparen",))
                ops.pop()
                depth -= 1
                reduce(("and", "or", "lparen"))
            tok = self.peek()
            if tok.kind == "and":
                reduce(("or", "lparen"))
                ops.append("and")
            elif tok.kind == "or" or (tok.kind == "ident" and tok.text == "v"):
                reduce(("lparen",))
                ops.append("or")
            elif depth:
                raise self.error(f"expected ')', found {tok.text!r}")
            else:
                reduce(())
                return operands.pop()
            self.advance()

    def var(self, tok: Token) -> Var:
        node = self.vars.get(tok.text)
        if node is None:
            try:
                node = Var(parse_atom(tok.text, self.allow_internal))
            except ValueError as exc:
                raise self.error(str(exc), tok) from None
            self.vars[tok.text] = node
        return node


def parse_atom(name: str, allow_internal: bool = False) -> Atom:
    """The atom spelled ``name``, its kind read off its prefix.

    Label (``l_``) and bar (``n_``) names are admitted only with
    ``allow_internal``; a name that is not a valid atom raises
    ``ValueError``.
    """
    if name.startswith((LABEL_PREFIX, BAR_PREFIX)):
        if not allow_internal:
            raise ValueError(f"atom {name!r} uses a reserved prefix")
        kind = AtomKind.LABEL if name.startswith(LABEL_PREFIX) else AtomKind.BAR
        return Atom(name, kind)
    return Atom(name, AtomKind.USER)


def parse(text: str, origin: str = "<string>",
          allow_internal: bool = False) -> Program:
    """Parse program text.

    ``allow_internal`` admits label (``l_``) and bar (``n_``) atoms, as
    needed to re-read translated output; user input rejects them.
    """
    return _Parser(text, origin, allow_internal).program()


def parse_expression(text: str, origin: str = "<string>",
                     allow_internal: bool = False) -> Expr:
    parser = _Parser(text, origin, allow_internal)
    e = parser.expr()
    parser.expect("eof", "end of input")
    return e


_PREC_OR, _PREC_AND, _PREC_NOT, _PREC_ATOM = 1, 2, 3, 4


def _prec(expr: Expr) -> int:
    if isinstance(expr, Or):
        return _PREC_OR
    if isinstance(expr, And):
        return _PREC_AND
    if isinstance(expr, Not):
        return _PREC_NOT
    return _PREC_ATOM


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
            parts = ["not ", (e.child, _PREC_NOT)]
        elif isinstance(e, And):
            # right operand at a higher level keeps reparsing left-associative
            parts = [(e.left, _PREC_AND), ", ", (e.right, _PREC_NOT)]
        elif isinstance(e, Or):
            parts = [(e.left, _PREC_OR), " v ", (e.right, _PREC_AND)]
        else:
            out.append(_atomic_text(e))
            continue
        if _prec(e) < min_prec:
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


def print_nested(program: Program) -> str:
    """Nested syntax, one rule per line; empty program prints nothing."""
    return "".join(format_rule(r) + "\n" for r in program.rules)


def _dlv_literal(expr: Expr) -> str:
    if isinstance(expr, Var):
        return expr.atom.name
    nots = 0
    while isinstance(expr, Not):
        nots += 1
        expr = expr.child
    return "not " * nots + _atomic_text(expr)


def format_dlv_rule(rule: Rule) -> str:
    # ``a :- b.`` and ``a.``, most of what a translation prints, directly
    if isinstance(rule.head, Var):
        if isinstance(rule.body, Var):
            return f"{rule.head.atom.name} :- {rule.body.atom.name}."
        if isinstance(rule.body, Top):
            return rule.head.atom.name + "."
    body = None if isinstance(rule.body, Top) else \
        ", ".join(map(_dlv_literal, conjuncts(rule.body)))
    if isinstance(rule.head, Bot):
        return ":- " + (body if body is not None else "true") + "."
    head = " v ".join(map(_dlv_literal, disjuncts(rule.head)))
    if body is None:
        return head + "."
    return head + " :- " + body + "."


def print_dlv(program: Program) -> str:
    """DLV-compatible disjunctive syntax, one rule per line.

    The program must classify as disjunctive (or basic); otherwise the
    first offending rule is reported.
    """
    if classify(program).value > ProgramClass.DISJUNCTIVE.value:
        bad = next(r for r in program.rules
                   if _rule_rank(r) > ProgramClass.DISJUNCTIVE.value)
        raise NotDisjunctiveError(
            f"not in disjunctive form: {format_rule(bad)}")
    return "".join(format_dlv_rule(r) + "\n" for r in program.rules)
