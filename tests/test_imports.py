"""Static checks on the package source: no import is left unused, and every
name the package exports resolves."""

import ast
from pathlib import Path

import pytest

import covereval

SOURCES = sorted(Path(covereval.__file__).parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level or nested import binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, names in string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = [n.annotation for n in ast.walk(tree)
                   if isinstance(n, (ast.arg, ast.AnnAssign)) and n.annotation]
    annotations += [n.returns for n in ast.walk(tree)
                    if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.returns]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def exported_names(tree: ast.Module) -> set[str]:
    """The strings listed in the module's `__all__`, if it has one."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree).items()
              if name not in used_names(tree) | exported_names(tree)]
    assert not unused


def test_all_names_resolve():
    assert len(set(covereval.__all__)) == len(covereval.__all__)
    missing = [name for name in covereval.__all__ if not hasattr(covereval, name)]
    assert not missing


def test_checks_catch_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nx: 'path' = 'math' + sep\n")
    names = imported_names(tree)
    assert sorted(set(names) - used_names(tree)) == ["math"]
