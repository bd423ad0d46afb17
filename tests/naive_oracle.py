"""Independent brute-force oracle used to cross-check the semantics
engine.  Deliberately naive: plain recursion and itertools subset
enumeration, no bit-parallel tricks, its own reduct and its own
here-and-there (HT) valuation."""

from itertools import chain, combinations

from nlp2dlp.syntax import And, Bot, Not, Or, Top, Var


def subsets(atoms):
    atoms = sorted(atoms)
    return (frozenset(c) for c in
            chain.from_iterable(combinations(atoms, k)
                                for k in range(len(atoms) + 1)))


def eval_expr(expr, interp):
    if isinstance(expr, Top):
        return True
    if isinstance(expr, Bot):
        return False
    if isinstance(expr, Var):
        return expr.atom in interp
    if isinstance(expr, Not):
        return not eval_expr(expr.child, interp)
    if isinstance(expr, And):
        return eval_expr(expr.left, interp) and eval_expr(expr.right, interp)
    return eval_expr(expr.left, interp) or eval_expr(expr.right, interp)


def reduce_expr(expr, interp):
    if isinstance(expr, Not):
        return Bot() if eval_expr(expr.child, interp) else Top()
    if isinstance(expr, And):
        return And(reduce_expr(expr.left, interp), reduce_expr(expr.right, interp))
    if isinstance(expr, Or):
        return Or(reduce_expr(expr.left, interp), reduce_expr(expr.right, interp))
    return expr


def is_model(rules, interp):
    return all((not eval_expr(b, interp)) or eval_expr(h, interp)
               for h, b in rules)


def naive_answer_sets(program, alphabet):
    rules = [(r.head, r.body) for r in program.rules]
    stable = set()
    for interp in subsets(alphabet):
        reduced = [(reduce_expr(h, interp), reduce_expr(b, interp))
                   for h, b in rules]
        if not is_model(reduced, interp):
            continue
        if any(is_model(reduced, sub) for sub in subsets(interp)
               if sub != interp):
            continue
        stable.add(interp)
    return frozenset(stable)


def eval_ht(expr, here, there, at_here):
    """Truth at world H (``at_here``) or T of the HT pair <here, there>."""
    if isinstance(expr, Top):
        return True
    if isinstance(expr, Bot):
        return False
    if isinstance(expr, Var):
        return expr.atom in (here if at_here else there)
    if isinstance(expr, Not):
        # true at a world iff the child fails at every world above it
        return not eval_ht(expr.child, here, there, False) and \
            not (at_here and eval_ht(expr.child, here, there, True))
    left = eval_ht(expr.left, here, there, at_here)
    right = eval_ht(expr.right, here, there, at_here)
    return (left and right) if isinstance(expr, And) else (left or right)


def naive_ht_models(program, alphabet):
    """All pairs (here, there), here within there within the alphabet,
    at whose H world every rule B -> H holds."""
    def holds(head, body, here, there):
        return all((not eval_ht(body, here, there, w))
                   or eval_ht(head, here, there, w) for w in (True, False))

    return frozenset(
        (here, there) for there in subsets(alphabet) for here in subsets(there)
        if all(holds(r.head, r.body, here, there) for r in program.rules))


def naive_equilibrium_models(program, alphabet):
    models = naive_ht_models(program, alphabet)
    return frozenset(
        there for here, there in models
        if here == there and not any((h, there) in models
                                     for h in subsets(there) if h != there))


def naive_minimal_models(program, alphabet):
    rules = [(r.head, r.body) for r in program.rules]
    models = [i for i in subsets(alphabet) if is_model(rules, i)]
    return frozenset(m for m in models
                     if not any(o < m for o in models))
