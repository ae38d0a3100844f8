"""Source hygiene: every name a cfree module imports is used or exported."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfree"
MODULES = sorted(PACKAGE.glob("*.py"))


def unused_imports(source):
    """Names bound by import statements that the module never reads.

    A name listed in a literal ``__all__`` counts as read: it is a
    re-export.  ``from __future__`` imports are compiler directives.
    """
    tree = ast.parse(source)
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                elt.value
                for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return sorted(
        (line, name) for name, line in imported.items() if name not in read
    )


def test_checker_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from .a import b as c, d, e\n"
        "__all__ = ['e']\n"
        "print(sys.argv, d)\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, "%s imports names it never uses: %s" % (
        path.name,
        ", ".join("%s (line %d)" % (name, line) for line, name in found),
    )
