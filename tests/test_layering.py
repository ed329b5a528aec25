"""Layering: no module of the package imports or reads another module's
`_`-prefixed name.  A private helper stays with the module that owns it."""

import ast
from pathlib import Path

import perpetuants

SOURCES = sorted(Path(perpetuants.__file__).parent.glob("*.py"))

# The builders' constructors of an already-sorted exponent vector, of a
# Poly whose summed dict already runs in canonical order, and of a Poly that
# keeps its row over a monomial index.
EXEMPT = {("ExponentVector", "_of"), ("Poly", "_in_order"), ("Poly", "_over")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """(line, name) for each other-module private name that `source`
    imports, or reads as an attribute of an imported name."""
    tree = ast.parse(source)
    imported = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
                if _private(alias.name.split(".")[-1]):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
            and _private(node.attr)
            and (node.value.id, node.attr) not in EXEMPT
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    assert len(SOURCES) > 1
    found = {path.name: private_reads(path.read_text()) for path in SOURCES}
    assert {name: reads for name, reads in found.items() if reads} == {}


def test_private_reads_are_found():
    source = (
        "from . import linalg\n"
        "from .symfunc import _entries, e_indices\n"
        "from .polycore import ExponentVector\n"
        "def f(self):\n"
        "    ExponentVector._of(())\n"
        "    self._cache\n"
        "    return linalg._echelon\n"
    )
    assert private_reads(source) == [(2, "_entries"), (7, "linalg._echelon")]


def callers_of(attr):
    """(module, function) for each function of the package that reads
    the attribute `attr` of any object."""
    callers = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Attribute) and node.attr == attr:
                        callers.append((path.name, function.name))
    return callers


def test_only_the_expansion_builds_a_poly_in_order():
    # a Poly built by Poly._in_order is read without a sort, so its one
    # caller must be the builder whose dict is known to be canonical
    assert callers_of("_in_order") == [("symfunc.py", "_expand_forms")]


def test_only_the_monomial_index_builds_a_poly_over_a_row():
    # a Poly built by Poly._over hands its row back to the index whose
    # exponent vectors it was built over, so its one caller is that
    # index's builder, and only polycore sets or reads the memo slot
    assert callers_of("_over") == [("umbral.py", "poly")]
    assert {module for module, _ in callers_of("_row")} == {"polycore.py"}
