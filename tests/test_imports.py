"""Every imported name in the package, tests, demos and tools is read, and
every private function, method and class of the package is named.

An import binds a name; the name counts as read where it appears as an
``ast.Name``, as a function argument (a pytest fixture taken from an
imported module) or as an entry of the module's ``__all__``. Package
``__init__.py`` files, whose imports are re-exports, and ``from __future__``
imports are not scanned.

A definition whose name starts with one underscore (dunders are exempt)
counts as named where the package names it outside its own body, as an
``ast.Name`` or an attribute.
"""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src/flowvar", "tests", "demos", "tools")


def _sources():
    return sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py")
                  if p.name != "__init__.py")


def _imported(tree):
    """(name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    return [f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imported(tree) if name not in read]


def test_every_imported_name_is_read():
    assert [u for p in _sources() for u in unused_imports(p)] == []


def _names(tree):
    """How often each name appears as an ``ast.Name`` or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def unnamed_private_defs(paths):
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    named = sum((_names(tree) for tree in trees.values()), Counter())
    return [f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}"
            for path, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and named[node.name] == _names(node)[node.name]]


def test_every_private_definition_is_named():
    assert unnamed_private_defs(sorted((ROOT / "src/flowvar").rglob(
        "*.py"))) == []
