"""Static checks on the package source: no import is left unused, every
module-level name is read somewhere, and every name the package exports
resolves."""

import ast
from pathlib import Path

import pytest

import covereval

SOURCES = sorted(Path(covereval.__file__).parent.glob("*.py"))
# every file that may read a name of the package: itself, its tests, its
# scripts and its benchmark
READERS = SOURCES + sorted(p for d in ("tests", "scripts", "perfbench")
                           for p in (Path(covereval.__file__).parents[2] / d).glob("*.py"))


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


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Each function, class or constant the module defines at its top
    level, with its line; dunder names aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {name: line for name, line in names.items() if not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads: names loaded, attributes, names imported
    from a module, and strings (`getattr`, `monkeypatch.setattr`,
    `__all__`, string annotations)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    unused = [f"{path.name}:{line} {name}"
              for name, line in imported_names(tree).items()
              if name not in used_names(tree) | exported_names(tree)]
    assert not unused


def test_every_module_name_is_read():
    read = set().union(*(read_names(ast.parse(p.read_text())) for p in READERS))
    unread = [f"{path.name}:{line} {name}" for path in SOURCES
              for name, line in defined_names(ast.parse(path.read_text())).items()
              if name not in read]
    assert not unread


def test_all_names_resolve():
    assert len(set(covereval.__all__)) == len(covereval.__all__)
    missing = [name for name in covereval.__all__ if not hasattr(covereval, name)]
    assert not missing


def test_checks_catch_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nx: 'path' = 'math' + sep\n")
    names = imported_names(tree)
    assert sorted(set(names) - used_names(tree)) == ["math"]


def test_checks_catch_an_unread_name():
    tree = ast.parse("BLOCK = 1 << 16\nLIMIT: int = 3\nclass A: pass\n"
                     "def f(x=LIMIT):\n    A.size = x\n    return getattr(A, 'g')\n")
    assert sorted(set(defined_names(tree)) - read_names(tree)) == ["BLOCK", "f"]
