"""No module of the package or of the tests imports a name it never uses.

No linter runs with the tests, so this scan stands in for one: it parses
each file with ast and looks for every name a module-level import binds
among the names the module reads, its string annotations included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/symdesign/*.py"), *ROOT.glob("tests/*.py")])


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


def used_names(tree: ast.Module) -> set[str]:
    """Every name read anywhere in the module, and every name in a string
    annotation."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for note in annotations:
        for sub in ast.walk(note):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.update(n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                            if isinstance(n, ast.Name))
    return used


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
