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


def package_imports(name: str) -> set:
    """The package modules that a module of the package imports."""
    tree = parse(SRC / "splineformer" / name)
    return {node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1}


def test_oracles_do_not_import_the_compiler():
    # the verifier checks what the compiler emits, so it must not share its code
    assert "compiler" not in package_imports("verifier.py")
    # the spline and Veronese oracles check the compiled pass too, so they
    # take their own numerators instead of the pass's
    for name in ("spline.py", "veronese.py"):
        assert not {"compiler", "transformer"} & package_imports(name), name


# Public definitions and methods kept although no module of the package
# and no benchmark reads them: the paper's constructions and the
# authoring API.  A method is matched by its bare name, so one whose name
# another read method shares (`Monomial.eval`, `PBForm.eval`) counts as read.
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
    "Mat.at": "matrix entry access API",
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


def reads(tree) -> tuple:
    """(loaded, attributes): how often a syntax tree loads each bare name
    or imports it, and how often it reads each attribute.  A name that is
    only assigned, or only read as an attribute, is not loaded."""
    loaded, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            loaded.update(alias.name.split(".")[-1] for alias in node.names)
    return loaded, attributes


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, node, is_method) for each top-level function and class of a
    module and each method of its classes, a method named `Class.method`,
    public or private; dunder methods are called by the language, so they
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not dunder(node.name):
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not dunder(item.name):
                    yield f"{node.name}.{item.name}", item, True


def unread_definitions(trees, outside: set) -> list:
    """The definitions of the syntax trees that no statement outside the
    definition itself reads, and whose names are not in `outside`: a
    top-level one is read where its name is loaded or imported, a method
    only where an attribute of its name is read, so a local variable of a
    method's name does not count as a call of the method."""
    loaded, attributes = Counter(), Counter()
    for tree in trees:
        tree_loaded, tree_attributes = reads(tree)
        loaded += tree_loaded
        attributes += tree_attributes
    unread = []
    for tree in trees:
        for where, node, is_method in definitions(tree):
            own_loaded, own_attributes = reads(node)
            total, own = (attributes, own_attributes) if is_method else (loaded, own_loaded)
            if node.name not in outside and total[node.name] == own[node.name]:
                unread.append(where)
    return unread


def test_src_defines_only_what_runs():
    # a definition runs when a benchmark reads its name, or a statement of
    # the package outside the definition itself does
    bench = Path(__file__).resolve().parent.parent / "bench"
    trees = [parse(path) for path in MODULES if path.name != "__init__.py"]
    outside = set().union(*(names_read(parse(path)) for path in bench.glob("*.py")))
    # the paper surface is exactly what nothing runs: an entry that runs is stale
    assert sorted(unread_definitions(trees, outside)) == sorted(PAPER_SURFACE)


def test_scan_sees_through_a_shadowing_local():
    # `at` is bound and read as a local, and `size` read as an attribute of
    # another object: neither reads the definition of that name
    planted = ast.parse(
        "class Box:\n"
        "    def at(self):\n"
        "        return self.at()\n"
        "    def width(self):\n"
        "        return 1\n"
        "def size():\n"
        "    return 2\n"
        "def use(box, other):\n"
        "    at = box.width()\n"
        "    return at + other.size\n"
        "use(Box(), None)\n")
    assert unread_definitions([planted], set()) == ["Box.at", "size"]


def test_reference_walk_builds_its_own_rows():
    # `reference.unshared_walk` computes every stored row from the images
    # of the stored maps and forms every group's pattern; were it to read
    # the pass's plan or its factored kernel, the tests that compare the two
    # would compare the pass with itself
    reads = names_read(parse(Path(__file__).resolve().parent / "reference.py"))
    assert {"_image", "mats", "group_layout", "_pattern"} <= set(reads)
    assert not {"plan", "AttentionPlan", "_handed", "_attend", "_factored"} & set(reads)


def test_the_walk_alone_checks_backends():
    # an exact pass refuses weights that are not rational in `_carry`; a
    # caller that checked too would keep a second copy of the rule
    assert "_check_backends" not in names_read(parse(SRC / "splineformer" / "verifier.py"))
