"""The package has no runtime dependencies: every module of `src/`
imports only the standard library and the package itself.  numpy, scipy
and sympy may be installed where the tests run, so a stray import of one
would pass every other test."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))


def imported(path: Path) -> set:
    """Top-level names of the absolute imports in a source file; a
    relative import (`from .tensor import Mat`) stays inside the package."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"__init__.py", "cli.py", "tensor.py"}
    assert {"fractions", "math", "__future__"} <= set().union(*map(imported, MODULES))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_package(path):
    outside = sorted(imported(path) - set(sys.stdlib_module_names) - {"splineformer"})
    assert not outside, f"{path.name} imports {outside}, outside the standard library"
