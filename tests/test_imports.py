"""No module of the package imports a name it never uses.

``__init__.py`` is left out: its imports are the package's exports.
Names read in annotations count as used: they are expressions in the
syntax tree like any other."""

import ast
from pathlib import Path

import nlp2dlp

PACKAGE = Path(nlp2dlp.__file__).parent


def _imported(tree):
    """Name bound by each import of the module, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def test_no_module_imports_an_unused_name():
    modules = sorted(p for p in PACKAGE.glob("*.py")
                     if p.name != "__init__.py")
    assert len(modules) >= 7
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree) if name not in used]
    assert unused == []
