"""Independent labelling stage used to cross-check ``translate.tr2``.

Deliberately plain: each head and each body is walked on its own, with
one set of the subformulas met so far per position, so a subformula's
positions are read off the sets it was met in rather than handed down
from the roots.  The label numbering and the order of the emitted rules
are those of ``tr2``."""

from nlp2dlp.syntax import And, Bot, Not, Or, Rule, Top, Var

from reference_classifier import is_ht_literal

HEAD, BODY = 1, 2


def new_subformulas(root, seen):
    """Subformulas of ``root`` not in ``seen``, left-to-right and
    bottom-up, with HT-literals kept whole; ``seen`` gains them."""
    out = []
    stack = [(root, False)]
    while stack:
        e, expanded = stack.pop()
        if expanded:
            seen.add(e)
            out.append(e)
        elif e not in seen:
            stack.append((e, True))
            if isinstance(e, (And, Or)):
                stack.append((e.right, False))
                stack.append((e.left, False))
            elif isinstance(e, Not) and not is_ht_literal(e):
                stack.append((e.child, False))
    return out


def tr2(program, table, *, polarity=False, simplify=False):
    """The rules of ``tr2(program, table, ...)`` for an HT-NNF program."""
    # each subformula, in order of first occurrence: its label node (a
    # kept constant stands for itself) and the positions it occurs in
    entries = {}
    seen = {HEAD: set(), BODY: set()}
    for rule in program.rules:
        for position, root in ((HEAD, rule.head), (BODY, rule.body)):
            for sub in new_subformulas(root, seen[position]):
                if sub in entries:
                    entries[sub][1] |= position
                elif simplify and isinstance(sub, (Top, Bot)):
                    entries[sub] = [sub, position]
                else:
                    entries[sub] = [Var(table.label(sub)), position]

    rules = [Rule(entries[r.head][0], entries[r.body][0])
             for r in program.rules]
    for sub, (lv, where) in entries.items():
        if lv is sub:
            continue
        intro = not polarity or bool(where & BODY)
        elim = not polarity or bool(where & HEAD)
        if isinstance(sub, (And, Or)):
            left, right = entries[sub.left][0], entries[sub.right][0]
        if isinstance(sub, And):
            if intro:
                rules.append(Rule(lv, And(left, right)))
            if elim:
                rules += (Rule(left, lv), Rule(right, lv))
        elif isinstance(sub, Or):
            if elim and not polarity:
                rules.append(Rule(Or(left, right), lv))
            if intro:
                rules += (Rule(lv, left), Rule(lv, right))
            if elim and polarity:
                rules.append(Rule(Or(left, right), lv))
        else:
            if intro:
                rules.append(Rule(lv, sub))
            if elim:
                rules.append(Rule(sub, lv))
    return tuple(rules)
