"""Source checks that need only the standard library."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "shiftedq"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(tree):
    """The names a module-level import binds that no expression reads."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                name = a.asname or a.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_module_imports(path):
    assert unread_imports(ast.parse(path.read_text(), str(path))) == []


def test_unread_import_is_caught():
    tree = ast.parse("import os\nfrom sys import path, argv as a\nprint(path)\n")
    assert unread_imports(tree) == [(1, "os"), (2, "a")]


def unread_private_definitions(trees):
    """(module, line, name) of each module-level _name (a function, class or
    constant; dunders exempt) that no module of {module: tree} reads: no
    load of it in its own module and no import of it by another."""
    imported = {((n.module or "").rsplit(".", 1)[-1], a.name)
                for tree in trees.values() for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    out = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            out += [(mod, node.lineno, name) for name in names
                    if name.startswith("_") and not name.endswith("__")
                    and name not in read and (mod, name) not in imported]
    return sorted(out)


def test_no_unread_private_definitions():
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}
    assert unread_private_definitions(trees) == []


def test_unread_private_definition_is_caught():
    trees = {
        "a": ast.parse("import os\n_LIVE = 1\n_DEAD = 2\n__all__ = []\n"
                       "def _helper():\n    return _LIVE\n"
                       "def _dead():\n    return _helper()\n"
                       "class _Gone:\n    pass\n"
                       "def _shared():\n    pass\n"
                       "_X, (_Y, Z) = 1, (2, 3)\nprint(_Y)\n"),
        "b": ast.parse("from .a import _shared\nfrom .c import _DEAD\n"),
    }
    assert unread_private_definitions(trees) == [
        ("a", 3, "_DEAD"), ("a", 7, "_dead"), ("a", 9, "_Gone"), ("a", 13, "_X")]
