"""Independent syntactic classifier used to cross-check the class ranks
that expression nodes store.  Deliberately plain: it walks the head
disjuncts and body conjuncts of a rule and ranks each leaf by its shape,
with no stored values and no shortcut for common rule shapes."""

from nlp2dlp.syntax import And, Bot, Not, Or, ProgramClass, Top, Var

ATOMIC = (Var, Top, Bot)
BASIC, DISJ, GDISJ, GDLP_HT, NNF, NESTED = (c.value for c in ProgramClass)


def is_ht_literal(expr):
    if isinstance(expr, Not) and isinstance(expr.child, Not):
        expr = expr.child.child
    elif isinstance(expr, Not):
        expr = expr.child
    return isinstance(expr, ATOMIC)


def is_ht_nnf(expr):
    """Built from HT-literals, conjunction and disjunction only."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (And, Or)):
            stack.append(e.left)
            stack.append(e.right)
        elif not is_ht_literal(e):
            return False
    return True


def leaves(expr, op):
    """Left-to-right leaves of the ``op``-tree at the root of ``expr``."""
    out = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, op):
            stack.append(e.right)
            stack.append(e.left)
        else:
            out.append(e)
    return out


def rule_rank(rule):
    """Value of the most specific class of the one-rule program."""
    rank = BASIC
    for root, op in ((rule.head, Or), (rule.body, And)):
        for e in leaves(root, op):
            if isinstance(e, ATOMIC):
                continue
            child = e.child if isinstance(e, Not) else None
            if isinstance(child, Var) and op is Or:
                r = GDISJ
            elif isinstance(child, ATOMIC):
                r = DISJ
            elif isinstance(child, Not) and isinstance(child.child, ATOMIC):
                r = GDLP_HT
            else:
                r = NNF
            rank = max(rank, r)
    if rank == NNF and not (is_ht_nnf(rule.head) and is_ht_nnf(rule.body)):
        return NESTED
    return rank
