"""The package has no runtime dependencies: every module of `src/`
imports only the standard library and the package itself.  numpy, scipy
and sympy may be installed where the tests run, so a stray import of one
would pass every other test."""

import ast
import sys
from collections import Counter
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


def test_oracles_do_not_import_the_compiler():
    # the verifier checks what the compiler emits, so it must not share its code
    modules = {node.module for node in ast.walk(parse(SRC / "splineformer" / "verifier.py"))
               if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert "compiler" not in modules


# Public definitions and methods kept although no module of the package
# and no benchmark reads them: the paper's constructions and the
# authoring API.
PAPER_SURFACE = {
    "linear_spline_to_ffn": "a linear spline is a ReLU net",
    "ffn_to_encoder_blocks": "the converse direction, a ReLU net as encoder blocks",
    "const": "lattice-expression authoring API",
    "var": "lattice-expression authoring API",
    "esum": "lattice-expression authoring API",
    "eprod": "lattice-expression authoring API",
    "escale": "lattice-expression authoring API",
    "emax": "lattice-expression authoring API",
    "emin": "lattice-expression authoring API",
    "eval_maxdef": "the expression language's independent evaluator",
    "grid_to_json": "the inverse of grid_from_json",
    "DecoderBlock": "encoder-decoder attention",
    "EncDecStage": "encoder-decoder attention",
    "eval_encdec": "encoder-decoder attention",
    "PBForm.of_rows": "max-min form authoring API",
    "Mat.from_floats": "matrix authoring API",
    "Mat.basis": "matrix authoring API",
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_read(tree) -> Counter:
    """The names that a syntax tree reads, each as often as it reads it:
    as a name, as an attribute or in an import, never in a string or a
    comment."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node) for each top-level function and class of a module and
    each method of its classes, as `Class.method`, public or private;
    dunder methods are called by the language, so they are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not dunder(node.name):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not dunder(item.name):
                    yield f"{node.name}.{item.name}", item


def test_src_defines_only_what_runs():
    bench = Path(__file__).resolve().parent.parent / "bench"
    trees = [parse(path) for path in MODULES if path.name != "__init__.py"]
    src_reads = sum(map(names_read, trees), Counter())
    outside = set().union(*(names_read(parse(path)) for path in bench.glob("*.py")))
    # a definition runs when a benchmark reads its name, or a statement of
    # the package outside the definition itself does
    unread = [where for tree in trees for where, node in definitions(tree)
              if where not in PAPER_SURFACE and node.name not in outside
              and src_reads[node.name] == names_read(node)[node.name]]
    assert not unread, f"definitions that only tests read: {unread}"
