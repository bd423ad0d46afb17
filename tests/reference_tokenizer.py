"""The tokenizer pattern that ``textio._TOKEN_RE`` replaced, kept to
cross-check it.

Deliberately plain: whitespace runs and comments are alternatives of
one loop, so every character they skip tries both.  The lexemes are
those of ``textio._TOKEN_RE``, at the same offsets."""

import re

TOKEN_RE = re.compile(
    r"""(?: [ \t\r\n]+ | %[^\n]* )*
        ( :- | [A-Za-z_][A-Za-z0-9_]* | [().,;&|-] | . | \Z )
    """,
    re.VERBOSE,
)
