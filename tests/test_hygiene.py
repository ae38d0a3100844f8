"""Source hygiene: every imported name is used or exported, every name a
cfree module defines has a caller outside the tests, and every helper in
tests/reference.py has a test that reads it."""

import ast
import pathlib
import re

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cfree"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    found = unused_imports(path.read_text(encoding="utf-8"))
    assert not found, "%s imports names it never uses: %s" % (
        path.name,
        ", ".join("%s (line %d)" % (name, line) for line, name in found),
    )


# -- every library name has a caller outside the tests ------------------------

ROOT = PACKAGE.parents[1]

# Names that no code in src/, perfbench/ or README.md reaches, kept on
# purpose, each with what keeps it; code that only the tests read lives in
# tests/reference.py.  Delete an entry when its name gains a caller or goes
# away; test_slow_references_are_still_only_reached_by_tests insists.
SLOW_REFERENCES = {
    "twostate.hankel_warnings": "positivity diagnostics on the marginals, "
    "waiting for the --stats report of ROADMAP item 10",
}


def definitions(tree):
    """Top-level functions and classes, and the methods of those classes.

    Dunder methods are left out: the language calls them.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield "%s.%s" % (node.name, item.name), item


def reads_in(tree):
    """(word, line, attr) for every name the code of tree reads.

    String constants, docstrings included, are not code.  attr is true
    for an attribute read ``x.word`` and for a class-body alias such as
    ``__rmul__ = word``: only these reach a method.  An attribute of the
    package itself (``cfree.series``) is a module, read as a plain name.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            package = isinstance(node.value, ast.Name) and node.value.id == "cfree"
            yield node.attr, node.lineno, not package
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and isinstance(item.value, ast.Name):
                    yield item.value.id, item.lineno, True


def dotted_reads(text):
    """(word, attr) for every dotted name in text, read as reads_in would
    read it in code: after the head (``cfree.<module>`` for the package),
    each part is an attribute read."""
    for chain in re.findall(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*", text):
        parts = chain.split(".")
        head = 2 if parts[0] == "cfree" else 1
        for k, part in enumerate(parts):
            yield part, k >= head


def code_spans(markdown):
    """The fenced blocks and inline code spans of markdown."""
    chunks = re.split(r"^```.*$", markdown, flags=re.M)
    code = chunks[1::2]
    for prose in chunks[::2]:
        code.extend(re.findall(r"`([^`\n]+)`", prose))
    return code


def outside_reads(readme, bench):
    """(word, attr) reads by code outside the library: the README's code
    spans, the code of the bench modules (name -> source), and the
    attribute paths in SPANS and COUNTS of their tracer, which patches
    each by name."""
    reads = {read for text in code_spans(readme) for read in dotted_reads(text)}
    for module, source in bench.items():
        tree = ast.parse(source)
        reads.update((word, attr) for word, _, attr in reads_in(tree))
        if module == "tracing":
            for path in tracer_paths(tree):
                reads.update(dotted_reads(path))
    return reads


def tracer_paths(tree):
    """The attribute paths in the tracer's SPANS and COUNTS tables."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTS")
            for t in node.targets
        ):
            for _, path, _ in ast.literal_eval(node.value):
                yield path


def unreferenced(modules, outside=frozenset()):
    """Definitions in modules (name -> source) that no code calls.

    outside holds the (word, attr) reads of code beyond the modules.  Any
    read of its name calls a top-level function or class; only an
    attribute read or alias (attr true) calls a method, so a local
    variable or a module that shares its name does not.  A module's reads
    inside a definition's own lines do not call it, so self-recursion
    alone is no caller.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    reads = {name: list(reads_in(tree)) for name, tree in trees.items()}
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(tree):
            bare = qualname.rpartition(".")[2]
            callers = {(bare, True)}
            if "." not in qualname:
                callers.add((bare, False))
            own = range(node.lineno, node.end_lineno + 1)
            if callers & outside or any(
                (word, attr) in callers and (other != module or line not in own)
                for other, words in reads.items()
                for word, line, attr in words
            ):
                continue
            found.append("%s.%s" % (module, qualname))
    return sorted(found)


def library_unreferenced():
    bench = {
        p.stem: p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "perfbench").glob("*.py"))
    }
    outside = outside_reads((ROOT / "README.md").read_text(encoding="utf-8"), bench)
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    return unreferenced(modules, outside)


def test_reference_checker_sees_callers_and_self_recursion():
    modules = {
        "a": (
            "def used():\n"
            "    pass\n"
            "def lonely(n):\n"
            "    return lonely(n - 1)\n"
            "class K:\n"
            "    def method(self):\n"
            "        pass\n"
            "    def __eq__(self, other):\n"
            "        return True\n"
        ),
        "b": "from .a import used\nused()\n",
    }
    assert unreferenced(modules) == ["a.K", "a.K.method", "a.lonely"]
    outside = {("K", False), ("method", True), ("lonely", False)}
    assert unreferenced(modules, outside) == []


def test_reference_checker_counts_only_code_as_a_caller():
    modules = {
        "a": (
            "class K:\n"
            "    def prose(self):\n"
            "        pass\n"
            "    def doc(self):\n"
            "        pass\n"
            "    def span(self):\n"
            "        pass\n"
            "    def local(self):\n"
            "        pass\n"
            "    def module(self):\n"
            "        pass\n"
            "    def read(self):\n"
            "        pass\n"
            "    def traced(self):\n"
            "        pass\n"
            "    def scale(self):\n"
            "        pass\n"
            "    __rmul__ = scale\n"
        ),
        "b": "from .a import K\nlocal = K()\nprint(local)\n",
    }
    readme = (
        "Call K.prose in prose, then `cfree.module` in an inline span:\n"
        "```python\nimport cfree.module\n```\n"
    )
    bench = {
        "workloads": '"""Times K.doc."""\nfrom cfree.a import K\nK().read()\n',
        "tracing": "SPANS = (('cfree.a', 'K.traced', 'k.span'),)\nCOUNTS = ()\n",
    }
    assert unreferenced(modules, outside_reads(readme, bench)) == [
        "a.K.doc", "a.K.local", "a.K.module", "a.K.prose", "a.K.span"
    ]


def test_every_library_name_has_a_caller_outside_the_tests():
    found = [n for n in library_unreferenced() if n not in SLOW_REFERENCES]
    assert not found, (
        "reached only from tests; delete these or add each to "
        "SLOW_REFERENCES with the fast path it cross-checks: %s"
        % ", ".join(found)
    )


def test_slow_references_are_still_only_reached_by_tests():
    stale = sorted(set(SLOW_REFERENCES) - set(library_unreferenced()))
    assert not stale, "drop these SLOW_REFERENCES entries: %s" % ", ".join(stale)


def test_every_reference_has_a_test_reader():
    readers = set()
    for path in TESTS:
        if path.name.startswith("test_"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers.update((word, attr) for word, _, attr in reads_in(tree))
    path = pathlib.Path(__file__).with_name("reference.py")
    source = path.read_text(encoding="utf-8")
    found = unreferenced({"reference": source}, readers)
    assert not found, "no test reads these; delete them: %s" % ", ".join(found)


# -- one immutability policy --------------------------------------------------

# Slotted classes that are mutable on purpose: tables grown in place.
MUTABLE = {"CumulantTable", "Powers"}


def immutability_forks(modules):
    """Where modules (name -> source) write their own immutability policy.

    That is every __setattr__ definition or "is immutable" string outside
    errors.Frozen, and every slotted class outside MUTABLE that derives
    from Frozen neither directly nor through other classes of the modules.
    """
    trees = {name: ast.parse(source) for name, source in modules.items()}
    classes = {
        node.name: node
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def frozen(name):
        return name == "Frozen" or name in classes and any(
            isinstance(base, ast.Name) and frozen(base.id)
            for base in classes[name].bases
        )

    policy = set()
    if "errors" in trees and "Frozen" in classes:
        policy = set(ast.walk(classes["Frozen"]))
    found = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if node in policy:
                continue
            setter = isinstance(node, ast.FunctionDef) and node.name == "__setattr__"
            message = isinstance(node, ast.Constant) and "is immutable" in str(node.value)
            if setter or message:
                found.append("%s line %d" % (module, node.lineno))
            elif (
                isinstance(node, ast.ClassDef)
                and node.name not in MUTABLE
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for item in node.body
                    if isinstance(item, ast.Assign)
                    for t in item.targets
                )
                and not frozen(node.name)
            ):
                found.append("%s.%s" % (module, node.name))
    return found


def test_immutability_checker_sees_forks():
    modules = {
        "errors": (
            "class Frozen:\n"
            "    __slots__ = ()\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError('%s is immutable' % name)\n"
        ),
        "a": (
            "from .errors import Frozen\n"
            "class Base(Frozen):\n"
            "    __slots__ = ()\n"
            "class Leaf(Base):\n"
            "    __slots__ = ('v',)\n"
            "class Powers:\n"
            "    __slots__ = ('p',)\n"
            "class Loose:\n"
            "    __slots__ = ('v',)\n"
            "class Forked(Frozen):\n"
            "    __slots__ = ('v',)\n"
            "    def __setattr__(self, name, value):\n"
            "        raise AttributeError('Forked is immutable')\n"
        ),
    }
    assert immutability_forks(modules) == [
        "a.Loose", "a line 12", "a line 13"
    ]


def test_one_immutability_policy():
    modules = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    found = immutability_forks(modules)
    assert not found, (
        "derive these from errors.Frozen instead of writing their own "
        "immutability, or add a mutable table to MUTABLE: %s" % ", ".join(found)
    )
