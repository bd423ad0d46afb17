import os
from pathlib import Path

import pytest

import nlp2dlp
from nlp2dlp import GeneratorConfig, generate_program, translate_structural

CORPUS_MAX_ATOMS = 4
CORPUS_MAX_RULES = 3
CORPUS_MAX_DEPTH = 3
# keeps translated alphabets enumerable: 2^22 candidate sets at most
CORPUS_ATOM_BOUND = 22
ORACLE_CAP = 24


def build_corpus(count):
    """First `count` seeded programs whose structural translation stays
    within the enumeration bound."""
    kept = []
    seed = 0
    while len(kept) < count:
        config = GeneratorConfig(seed=seed, max_atoms=CORPUS_MAX_ATOMS,
                                 max_depth=CORPUS_MAX_DEPTH,
                                 max_rules=CORPUS_MAX_RULES)
        program = generate_program(config)
        translated, _ = translate_structural(program)
        if len(translated.var() | program.alphabet) <= CORPUS_ATOM_BOUND:
            kept.append(program)
        seed += 1
    return kept


@pytest.fixture(scope="session", autouse=True)
def package_on_subprocess_path():
    """The CLI tests run ``python -m nlp2dlp`` in a subprocess: let it
    import the same package as the tests, installed or from a checkout."""
    root = str(Path(nlp2dlp.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", root, prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def corpus():
    return build_corpus(200)
