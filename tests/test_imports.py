"""No module of the package or of the tests imports a name it never uses,
and no package module defines a private name that the package never reads.

No linter runs with the tests, so these scans stand in for one: they parse
each file with ast and look for every name a module-level import binds
among the names the module reads, its string annotations included, and for
every module-level private function, class or assigned name among the
names any package module reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/symdesign/*.py"))
FILES = sorted([*PACKAGE, *ROOT.glob("tests/*.py")])


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name bound by a module-level import, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def annotation_names(tree: ast.Module) -> set[str]:
    """Every name in a string annotation."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    return {n.id for note in annotations for sub in ast.walk(note)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            for n in ast.walk(ast.parse(sub.value, mode="eval")) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere in the module, and every name in a string
    annotation."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)} | annotation_names(tree)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, "%s imports without using: %s" % (
        path.name, ", ".join("%s (line %d)" % (name, line) for line, name in unused))


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom math import comb, prod\n"
                     "def f(x: 'prod') -> int:\n    return os.sep\n")
    assert sorted(set(imported_names(tree)) - used_names(tree)) == ["comb"]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level function, class or assigned name with one leading
    underscore, with its line."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        defined.update((name, node.lineno) for name in names
                       if name.startswith("_") and not name.startswith("__"))
    return defined


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute or imports from
    another module, and every name in a string annotation."""
    read = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_no_unread_private_name_in_the_package():
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in PACKAGE}
    read = set().union(*map(read_names, trees.values()))
    unread = ["%s:%d %s" % (path.name, line, name) for path, tree in trees.items()
              for name, line in sorted(private_definitions(tree).items())
              if name not in read]
    assert not unread, "private names no package module reads: %s" % ", ".join(unread)


def test_the_scan_sees_an_unread_private_name():
    tree = ast.parse("import os as _os\n_A, _B = 1, 2\n_C: int = _A\n"
                     "def _f(): pass\nclass _K: pass\nclass _L: pass\n"
                     "def g(x: '_f') -> _K: return _os.sep\n")
    assert sorted(set(private_definitions(tree)) - read_names(tree)) == ["_B", "_C", "_L"]
