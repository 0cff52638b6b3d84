"""The three routes share no code path, as the package's own imports show.

Closed forms (``formulas``), the series engine (``series``) and the
brute-force oracle (``oracle``, over ``diagrams``) each import only the
shared exception types, with one exception: ``formulas`` takes the list of
forest types (the partitions of n into m parts) from ``oracle.enumerate_types``.
Every relative import is collected, at any depth of the module, so an
import inside a function counts too.
"""

import ast
from pathlib import Path

import pytest

import chordforest

PACKAGE = Path(chordforest.__file__).parent

ALLOWED = {
    "errors": set(),
    "diagrams": set(),
    "series": {"errors"},
    "oracle": {"diagrams", "errors"},
    "formulas": {"errors", "oracle"},
}


def _package_imports(module):
    """{imported package module: names taken from it} for every relative import."""
    found = {}
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if node.module:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
        else:  # from . import a, b: each name is a module
            for alias in node.names:
                found.setdefault(alias.name, set())
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_allowed_package_modules(module):
    assert set(_package_imports(module)) <= ALLOWED[module]


def test_formulas_takes_only_the_type_list_from_the_oracle():
    # imported inside type_sum_forest_count, so this also shows that the
    # collector reaches into function bodies
    assert _package_imports("formulas")["oracle"] == {"enumerate_types"}
