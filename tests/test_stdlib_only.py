"""``src/lsat`` imports nothing but itself and the standard library.

Every ``import`` and ``from ... import`` statement of every module under
``src/lsat`` is parsed, nested ones included: a relative import or one of
``lsat`` itself is the package, and any other top-level name must be in
``sys.stdlib_module_names``.
"""

import ast
import sys
from pathlib import Path

import pytest

import lsat

SOURCES = sorted(Path(lsat.__file__).parent.glob("*.py"))


def foreign_imports(source):
    """Top-level names imported by ``source`` from outside the package and
    the standard library, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "lsat" and top not in sys.stdlib_module_names:
                found.append((node.lineno, top))
    return found


def test_the_scan_sees_every_import_form():
    source = (
        "import json, numpy.linalg\n"
        "from sympy import Poly\n"
        "from . import errors\n"
        "from lsat.errors import LsatError\n"
        "def f():\n"
        "    import click\n"
    )
    assert foreign_imports(source) == [(1, "numpy"), (2, "sympy"), (6, "click")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_every_module_is_scanned():
    assert {path.stem for path in SOURCES} >= {
        "__init__", "cli", "errors", "genus", "halfgrid_poly", "hfunction",
        "invariants", "patterns", "sweeps", "zcomplex",
    }
