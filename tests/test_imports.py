"""No module of the package imports a name it never uses, and the
package exports no name that nothing uses.

``__init__.py`` is left out of the first check: its imports are the
package's exports, and the second check asks that each of them is read
by another module of the package, by the bench harness, or named in the
README.  Names read in annotations count as used: they are expressions
in the syntax tree like any other."""

import ast
import re
from pathlib import Path

import nlp2dlp

PACKAGE = Path(nlp2dlp.__file__).parent
ROOT = Path(__file__).parent.parent


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


def _read_names(tree):
    """Every name the module reads, plain or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_export_has_a_user():
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = [name for name, _ in _imported(init)]
    assert len(exported) >= 40
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources.append(ROOT / "bench" / "run.py")
    used = set()
    for path in sources:
        used.update(_read_names(ast.parse(path.read_text(encoding="utf-8"))))
    # the identifiers in the README's inline code, its fenced blocks left out
    readme = re.sub(r"```.*?```", "",
                    (ROOT / "README.md").read_text(encoding="utf-8"),
                    flags=re.S)
    for span in re.findall(r"`([^`]+)`", readme):
        used.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*", span))
    assert [name for name in exported if name not in used] == []
