"""Every one-rule program over the atoms a and b and the truth constants,
up to a bound on the nodes of its head and body together, checked for
faithfulness in each translation mode.

Run as ``PYTHONPATH=src python tests/small_scope.py [NODES]`` (default
5: 1,440 programs; 6 gives 9,200).  It prints the unfaithful count of
each mode, and the first unfaithful program of each, and exits 1 if the
structural translation, with or without ``--simplify``, or the
distributive one has an unfaithful program, or if the polarity variant,
the negative control, has none, with or without ``--simplify``.
"""

import sys
from itertools import product

from nlp2dlp import (
    BOT, TOP, And, Not, Or, Program, Rule, print_nested, user_atom,
)
from nlp2dlp.verify import DEFAULT_VERIFY_CAP, _faithful, translate_mode

# each mode by its CLI flags: the translation mode and ``--simplify``
MODES = {
    "structural": ("structural", False),
    "distributive": ("distributive", False),
    "polarity": ("polarity", False),
    "structural --simplify": ("structural", True),
    "polarity --simplify": ("polarity", True),
}
FAITHFUL = ("structural", "distributive", "structural --simplify")


def expressions(max_nodes):
    """``by_size[k]``, for k up to ``max_nodes``: every expression of
    exactly k nodes over a, b, true and false."""
    by_size = [[], [user_atom("a").var, user_atom("b").var, TOP, BOT]]
    for k in range(2, max_nodes + 1):
        level = [Not(e) for e in by_size[k - 1]]
        for op in (And, Or):
            for left in range(1, k - 1):
                level += [op(x, y) for x, y in
                          product(by_size[left], by_size[k - 1 - left])]
        by_size.append(level)
    return by_size


def programs(max_nodes):
    """Every one-rule program whose head and body have at most
    ``max_nodes`` nodes together."""
    by_size = expressions(max_nodes - 1)
    for total in range(2, max_nodes + 1):
        for head in range(1, total):
            for rule in product(by_size[head], by_size[total - head]):
                yield Program((Rule(*rule),))


def unfaithful(max_nodes):
    """The programs of the scope, counted, and those that each mode
    translates unfaithfully."""
    found = {mode: [] for mode in MODES}
    count = 0
    for program in programs(max_nodes):
        count += 1
        for name, (mode, simplify) in MODES.items():
            translated, _ = translate_mode(program, mode, simplify)
            if not _faithful(program, translated, None,
                             DEFAULT_VERIFY_CAP).equal:
                found[name].append(program)
    return count, found


def main(argv):
    max_nodes = int(argv[1]) if len(argv) > 1 else 5
    count, found = unfaithful(max_nodes)
    print(f"{count} programs of at most {max_nodes} nodes")
    for mode in MODES:
        first = print_nested(found[mode][0]).strip() if found[mode] else "-"
        print(f"{mode}: {len(found[mode])} unfaithful, first: {first}")
    ok = not any(found[name] for name in FAITHFUL) \
        and found["polarity"] and found["polarity --simplify"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
