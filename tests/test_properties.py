"""Property tests: random small grids compile and verify exactly, and
randomly mutated input documents end in a documented exit code."""

import copy
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splineformer.cli import main
from splineformer.compiler import (CompileOptions, compile_autoregressive, compile_spline,
                                   linear_spline_to_ffn)
from splineformer.spline import (ONE, FormSizeError, Monomial, PBForm, Polynomial,
                                 UnsupportedProductError, absorb, emax, emin, eprod, escale, esum,
                                 eval_maxdef, grid_from_json, normalize_to_pbform)
from splineformer.tensor import Mat
from splineformer.transformer import blocks_to_json, eval_ffn
from splineformer.verifier import (autoregressive_check, oracle_equiv, random_rational_mat,
                                   trial_rng)

from reference import per_head_json, unabsorbed_form, unshared_maxmin_ffn

# the same examples on every run, so a tier-1 result does not depend on the draw
PROPERTY = settings(deadline=None, derandomize=True)
FIXTURED = settings(PROPERTY, suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def spline_docs(draw, p_values, max_deg, masked=False):
    """A spline document with n <= 2, p drawn from p_values and polynomial
    pieces of degree <= max_deg under at most two levels of max/min; a
    masked grid reads, in column j, only columns 1..j."""
    n, p = draw(st.integers(1, 2)), draw(st.sampled_from(p_values))

    def poly(j):
        names = [f"x_{i}_{c}" for i in range(1, n + 1) for c in range(1, (j if masked else p) + 1)]
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            exps = {}
            for _ in range(draw(st.integers(0, max_deg))):
                name = draw(st.sampled_from(names))
                exps[name] = exps.get(name, 0) + 1
            coef = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
            terms.append({"coef": str(coef), "exps": exps})
        return {"op": "poly", "terms": terms}

    def cell(j, depth):
        if depth == 0 or draw(st.booleans()):
            return poly(j)
        return {"op": draw(st.sampled_from(["max", "min"])),
                "args": [cell(j, depth - 1) for _ in range(draw(st.integers(1, 2)))]}

    rows = draw(st.integers(1, 2))
    return {"n": n, "p": p, "grid": [[cell(j, 2) for j in range(1, p + 1)] for _ in range(rows)]}


def assert_compiles_exact(doc, mode, masked, seed):
    grid = grid_from_json(doc)
    compile_fn = compile_autoregressive if masked else compile_spline
    compiled = compile_fn(grid, CompileOptions(mode=mode))
    report = oracle_equiv(compiled, grid, 3, seed)
    assert report.exact, report.to_json()
    if compiled.mode == "pruned":
        # one copy pass out of the raw input, then a product pass per stage;
        # one column's raw input is the first product pass's block, so it
        # needs a copy pass only when there is no product pass
        copies = 1 if grid.p >= 2 or grid.degree <= 1 else 0
        assert sum(t.startswith("linear-copy-pass") for t in compiled.provenance) == copies
        assert len(compiled.blocks) == (1 if grid.degree <= 1 else compiled.stages + copies)
    if masked and grid.p > 1:
        assert autoregressive_check(compiled, 3, seed).passed


class TestCompileThenVerify:
    # pieces of degree 5 to 8 take three product stages
    @settings(PROPERTY, max_examples=40)
    @given(doc=st.sampled_from([3, 8]).flatmap(lambda d: spline_docs((1, 2), d)),
           mode=st.sampled_from(["pruned", "auto"]), seed=st.integers(0, 99))
    def test_pruned_and_auto(self, doc, mode, seed):
        assert_compiles_exact(doc, mode, False, seed)

    @settings(PROPERTY, max_examples=15)
    @given(doc=spline_docs((1, 2), 3, masked=True), mode=st.sampled_from(["pruned", "auto"]),
           seed=st.integers(0, 99))
    def test_masked_pruned_and_auto(self, doc, mode, seed):
        assert_compiles_exact(doc, mode, True, seed)

    # faithful 1x2 at degree 3 makes about 10k heads, so p = 2 stays at degree 2
    @settings(PROPERTY, max_examples=20)
    @given(data=st.data(), masked=st.booleans(), seed=st.integers(0, 99))
    def test_faithful(self, data, masked, seed):
        doc = data.draw(st.one_of(spline_docs((1,), 3, masked), spline_docs((2,), 2, masked)))
        assert_compiles_exact(doc, "faithful", masked, seed)


class TestOneColumnChain:
    # s <= 8 takes up to three product stages; auto is pruned from s = 3
    @settings(PROPERTY, max_examples=40)
    @given(doc=st.sampled_from([1, 2, 3, 5, 8]).flatmap(lambda d: spline_docs((1,), d)),
           mode=st.sampled_from(["pruned", "auto"]), masked=st.booleans(),
           seed=st.integers(0, 99))
    def test_no_copy_pass(self, doc, mode, masked, seed):
        grid = grid_from_json(doc)
        compile_fn = compile_autoregressive if masked else compile_spline
        compiled = compile_fn(grid, CompileOptions(mode=mode))
        assert oracle_equiv(compiled, grid, 3, seed).exact
        s = grid.degree
        assert compiled.mode == ("pruned" if mode == "pruned" or s >= 3 else "faithful")
        if compiled.mode == "pruned":
            assert len(compiled.blocks) == (math.ceil(math.log2(s)) if s >= 2 else 1)
            assert compiled.provenance[0].startswith(
                "linear-copy-pass" if s <= 1 else "quadratic-product-pass")
            # a mask on one column does nothing: the masked compile is the same chain
            plain = compile_spline(grid, CompileOptions(mode=mode))
            assert compiled.provenance == plain.provenance
            assert [blk.ffn for blk in compiled.blocks] == [blk.ffn for blk in plain.blocks]


# -- the readout net with equal units shared ---------------------------------------

def _coord(mon):
    return None if mon == ONE else mon.exps[0][0][0] - 1


@st.composite
def affine_forms(draw):
    """One to three max-min forms over a 2 x 1 input, each of one to three
    rows of one to three affine pieces with coefficients in {-1, 0, 1, 2},
    so that equal and constant rows are common."""
    mons = (ONE, Monomial.variable(1, 1), Monomial.variable(2, 1))

    def piece():
        return Polynomial.from_terms({m: draw(st.sampled_from([-1, 0, 1, 2])) for m in mons})

    def form():
        return PBForm.of_rows([[piece() for _ in range(draw(st.integers(1, 3)))]
                               for _ in range(draw(st.integers(1, 3)))])

    return [form() for _ in range(draw(st.integers(1, 3)))]


def hidden_units(net) -> list:
    return [a.rows for a, _ in net.layers[:-1]]


class TestSharedReadout:
    @settings(PROPERTY, max_examples=200)
    @given(forms=affine_forms(), seed=st.integers(0, 99))
    def test_equals_unshared_net(self, forms, seed):
        net = linear_spline_to_ffn(forms, 2)
        ref = unshared_maxmin_ffn([(f, _coord) for f in forms], 2)
        for t in range(3):
            x = random_rational_mat(trial_rng(seed, t), 2, 1)
            out = eval_ffn(net, x)
            assert out == eval_ffn(ref, x)
            assert [row[0] for row in out.data] == [f.eval(x) for f in forms]
        assert sum(hidden_units(net)) <= sum(hidden_units(ref))
        for (a, b), (after, _) in zip(net.layers, net.layers[1:]):
            rows = list(zip(a.nz, b.nz))
            assert len(set(rows)) == len(rows)  # no two equal units
            assert all(a.nz)  # no constant unit
            assert {c for row in after.nz for c, _ in row} == set(range(a.rows))  # all read

    def test_constant_row_folds_into_bias(self):
        # max(min(x, y), 2): the lone row 2 passes as relu(2) - relu(-2) in
        # the unshared net; shared, it is the next level's bias
        x, y = Polynomial.from_terms({Monomial.variable(1, 1): 1}), Polynomial.from_terms(
            {Monomial.variable(2, 1): 1})
        form = PBForm.of_rows([[x, y], [Polynomial.constant(2)]])
        net = linear_spline_to_ffn(form, 2)
        assert hidden_units(unshared_maxmin_ffn([(form, _coord)], 2)) == [5, 3]
        assert hidden_units(net) == [3, 3]
        assert net.layers[0][1] == Mat.zeros(3, 1)  # min(x, y)'s units read no constant
        assert net.layers[1][1].data == ((Fraction(2),), (Fraction(0),), (Fraction(0),))
        for pt in ([[3], [5]], [[1], [-4]], [[Fraction(5, 2)], [7]]):
            m = Mat.rational(pt)
            assert eval_ffn(net, m).data == ((max(min(m.at(0, 0), m.at(1, 0)), 2),),)

    def test_constant_form_has_no_hidden_layer(self):
        # max(min(1, 4), 3): every unit the unshared net makes is constant, so
        # the shared net folds it all into the output bias
        c = Polynomial.constant
        form = PBForm.of_rows([[c(1), c(4)], [c(3)]])
        assert hidden_units(unshared_maxmin_ffn([(form, _coord)], 1)) == [5, 3]
        net = linear_spline_to_ffn(form, 1)
        assert hidden_units(net) == []
        assert eval_ffn(net, Mat.rational([[-7]])).data == ((Fraction(3),),)
        grid = grid_from_json({"n": 1, "p": 1, "grid": [[{"op": "max", "args": [
            {"op": "min", "args": [{"op": "poly", "terms": [{"coef": str(k), "exps": {}}]}
                                   for k in (1, 4)]},
            {"op": "poly", "terms": [{"coef": "3", "exps": {}}]}]}]]})
        assert oracle_equiv(compile_spline(grid), grid, 3, 0).exact

    def test_cancelled_unit_is_dropped(self):
        # max(x, 0) = relu(-x) + relu(x) - relu(-x): relu(-x) is made once and read
        # with coefficient 0, so the net is one unit
        form = PBForm.of_rows([[Polynomial.from_terms({Monomial.variable(1, 1): 1})],
                               [Polynomial.constant(0)]])
        assert hidden_units(unshared_maxmin_ffn([(form, _coord)], 1)) == [3]
        assert hidden_units(linear_spline_to_ffn(form, 1)) == [1]


# -- max-min normal forms of lattice expressions --------------------------------

NODES = {"sum": esum, "prod": eprod, "max": emax, "min": emin}


@st.composite
def polynomials(draw):
    """A polynomial of up to two terms of degree <= 2 in the entries of a
    2 x 1 input."""
    terms = {}
    for _ in range(draw(st.integers(0, 2))):
        exps = {}
        for _ in range(draw(st.integers(0, 2))):
            v = draw(st.sampled_from([(1, 1), (2, 1)]))
            exps[v] = exps.get(v, 0) + 1
        m = Monomial.from_dict(exps)
        terms[m] = terms.get(m, 0) + Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3)))
    return Polynomial.from_terms(terms)


@st.composite
def lattice_exprs(draw, depth=3):
    """A lattice expression with `polynomials` as leaves under at most
    `depth` levels of sums, products, scalings, maxes and mins.  A max or
    min has one to three arguments, a sum or product none to three."""
    kind = "poly" if depth == 0 else draw(st.sampled_from(["poly", "scale", *NODES]))
    if kind == "poly":
        return draw(polynomials())
    if kind == "scale":
        coef = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
        return escale(coef, draw(lattice_exprs(depth - 1)))
    low = 1 if kind in ("max", "min") else 0
    return NODES[kind](*[draw(lattice_exprs(depth - 1))
                         for _ in range(draw(st.integers(low, 3)))])


class TestNormalForm:
    @settings(PROPERTY, max_examples=200)
    @given(e=lattice_exprs(), q=polynomials(), seed=st.integers(0, 99))
    def test_form_equals_expression(self, e, q, seed):
        # e and q * e: a product of two max/min factors, or a form above the cap,
        # is refused; any other expression's form has its value at every point
        for expr in (e, eprod(q, e)):
            try:
                f = normalize_to_pbform(expr)
            except (UnsupportedProductError, FormSizeError):
                continue
            for t in range(3):
                x = random_rational_mat(trial_rng(seed, t), 2, 1)
                assert f.eval(x) == eval_maxdef(expr, x)

    @settings(PROPERTY, max_examples=200)
    @given(e=lattice_exprs(), seed=st.integers(0, 99))
    def test_form_is_absorbed(self, e, seed):
        # against the form built without absorption: the same value, no more rows
        # or polynomials, no row that holds another (or a repeat), and a fixed
        # point of absorb; what is refused with absorption is refused without it
        try:
            f = normalize_to_pbform(e)
        except (UnsupportedProductError, FormSizeError) as exc:
            with pytest.raises(type(exc)):
                unabsorbed_form(e)
            return
        try:
            ref = unabsorbed_form(e)
        except FormSizeError:
            ref = None
        if ref is not None:
            assert len(f.rows) <= len(ref.rows)
            assert sum(map(len, f.rows)) <= sum(map(len, ref.rows))
            for t in range(3):
                x = random_rational_mat(trial_rng(seed, t), 2, 1)
                assert f.eval(x) == ref.eval(x)
        sets = [frozenset(row) for row in f.rows]
        assert all(len(s) == len(row) for s, row in zip(sets, f.rows))
        assert not any(a <= b for a, b in itertools.permutations(sets, 2))
        assert absorb(f.rows) == f


# -- exit codes of mutated documents ------------------------------------------------

SPLINES = [
    {"n": 1, "p": 1, "grid": [[{"op": "max", "args": [
        {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]},
        {"op": "poly", "terms": [{"coef": "-1", "exps": {"x_1_1": 1}}]}]}]]},
    {"n": 2, "p": 2, "grid": [[
        {"op": "poly", "terms": [{"coef": "1/2", "exps": {"x_1_1": 1, "x_2_1": 1}}]},
        {"op": "min", "args": [
            {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_2": 2}}]},
            {"op": "poly", "terms": [{"coef": "3", "exps": {}}]}]}]]},
]
# (spline index, weights) for the weights `compile` writes for each spline in
# its default mode, spelled in the layer form and in the per-head form
WEIGHTS = [(k, spell(compile_spline(grid_from_json(doc)).blocks))
           for k, doc in enumerate(SPLINES) for spell in (blocks_to_json, per_head_json)]
REPLACEMENTS = [0, 1, -1, 2.7, 5, True, None, "x", "1/0", "NaN", "-inf", [], {}, [[1]],
                [["1", "2"]], math.inf, math.nan, {"op": "poly", "terms": []},
                "1" + "0" * 400]


def paths(obj, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    items = (obj.items() if isinstance(obj, dict) else
             enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    """doc with one position replaced by an odd value or, in an object,
    deleted."""
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(paths(doc))))
    value = draw(st.sampled_from(REPLACEMENTS + ["<delete>"]))
    if not path:
        return doc if value == "<delete>" else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value == "<delete>" and isinstance(parent, dict):
        del parent[path[-1]]
    elif value != "<delete>":
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_with_report(argv) -> tuple:
    """`run`, also returning what the command printed on stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented(code, err):
    """Exit 1 means a failed verification, which compile and eval never
    report; any other failure is one line on stderr."""
    assert code in (0, 2, 3), (code, err)
    if code:
        assert len(err.strip().splitlines()) == 1, err


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestMutatedDocuments:
    @settings(FIXTURED, max_examples=100)
    @given(data=st.data(), flags=st.sampled_from([[], ["--masked"], ["--mode", "faithful"]]))
    def test_compile_exit_codes(self, tmp_path, data, flags):
        doc = data.draw(mutated(data.draw(st.sampled_from(SPLINES))))
        spath = write(tmp_path / "spline.json", doc)
        assert_documented(*run(["compile", spath, "-o", str(tmp_path / "w.json"), *flags]))

    @settings(FIXTURED, max_examples=100)
    @given(data=st.data(), which=st.sampled_from(["weights", "input"]),
           backend=st.sampled_from([[], ["--backend", "float"]]))
    def test_eval_exit_codes(self, tmp_path, data, which, backend):
        k, weights = data.draw(st.sampled_from(WEIGHTS))
        spline = SPLINES[k]
        x = [["1/2"] * spline["p"] for _ in range(spline["n"])]
        if which == "weights":
            weights = data.draw(mutated(weights))
        else:
            x = data.draw(mutated(x))
        argv = ["eval", write(tmp_path / "m.json", weights), write(tmp_path / "x.json", x)]
        assert_documented(*run(argv + backend))

    @settings(FIXTURED, max_examples=80)
    @given(data=st.data(), command=st.sampled_from(["verify", "degree", "smooth"]))
    def test_verify_and_degree_exit_codes(self, tmp_path, data, command):
        k, weights = data.draw(st.sampled_from(WEIGHTS))
        weights = write(tmp_path / "m.json", data.draw(mutated(weights)))
        if command == "verify":
            argv = ["verify", weights, write(tmp_path / "s.json", SPLINES[k]),
                    "--samples", "3", "--seed", "0"]
        elif command == "degree":
            argv = ["degree", weights, "--trials", "2", "--seed", "0"]
        else:
            argv = ["smooth", weights, "--samples", "1", "--seed", "0"]
        code, out, err = run_with_report(argv)
        assert code in (0, 1, 2, 3), (code, err)
        if code == 1:
            # exit 1 is a failed verification with its witness, and nothing else
            assert command == "verify", (out, err)
            report = json.loads(out)
            assert report["exact"] is False
            assert report["first_failure"]["expected"] != report["first_failure"]["got"]
        elif code:
            assert out == "" and len(err.strip().splitlines()) == 1, err
