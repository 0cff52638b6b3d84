"""The three routes share no code path, as the package's own imports show.

Closed forms (``formulas``), the series engine (``series``) and the
brute-force oracle (``oracle``, over ``diagrams``) each import only the
shared exception types; no route imports another, and only ``cli`` joins
them.  Every relative import is collected, at any depth of the module, so
an import inside a function counts too.
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
    "formulas": {"errors"},
}


def _relative_imports(source):
    """{imported package module: names taken from it} for every relative import."""
    found = {}
    for node in ast.walk(ast.parse(source)):
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
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    assert set(_relative_imports(source)) <= ALLOWED[module]


def test_collector_reaches_into_function_bodies():
    source = (
        "from .errors import ConsistencyError\n"
        "import math\n"
        "def count(n):\n"
        "    from .oracle import enumerate_types\n"
        "    from . import series\n"
        "    return n\n"
    )
    assert _relative_imports(source) == {
        "errors": {"ConsistencyError"},
        "oracle": {"enumerate_types"},
        "series": set(),
    }
