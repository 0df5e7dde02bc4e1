import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evosteer"
BENCH = ROOT / "bench"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def _definitions(tree):
    """Module-level functions, classes and constants, and non-dunder
    methods, as (name, line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno


def _references(tree):
    """Identifiers and attribute names a module uses, plus the dotted
    strings of a ``PROBES`` table."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROBES" for t in node.targets):
            names.update(part for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant) and isinstance(c.value, str)
                         for part in c.value.split("."))
    return names


def test_every_definition_is_referenced():
    """No definition in the package exists only for the tests: each is named
    somewhere in the package or the benchmark."""
    trees = {p: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    used = set().union(*(_references(t) for t in trees.values()))
    unreferenced = sorted(f"{p.name}:{line} {name}"
                          for p, tree in trees.items() if p.parent == PACKAGE
                          for name, line in _definitions(tree)
                          if name.split(".")[-1] not in used)
    assert not unreferenced, f"definitions named nowhere: {unreferenced}"
