"""Property tests: random small grids compile and verify exactly, and
randomly mutated input documents end in a documented exit code."""

import copy
import io
import itertools
import json
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splineformer.cli import main
from splineformer.compiler import (CompileOptions, compile_autoregressive, compile_spline,
                                   linear_spline_to_ffn)
from splineformer.spline import (ONE, FormSizeError, Monomial, PBForm, Polynomial,
                                 UnsupportedProductError, absorb, emax, emin, eprod, escale, esum,
                                 eval_maxdef, grid_from_json, normalize_to_pbform)
from splineformer.tensor import MAX_LITERAL_EXPONENT, Mat
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


# -- exit codes of literal spellings ------------------------------------------------

# Python's limit on the digits of an integer read from or printed to a string
DIGITS = sys.get_int_max_str_digits()


def near(centre):
    return st.integers(centre - 2, centre + 2)


# rational literals as a document may spell them: integers, a/b (b may be
# 0), decimals, exponents near the print limit and near the literal cap (on
# a mantissa "3/4", which `Fraction` refuses), an exponent of 4000 digits and
# mantissas near the digit limit
LITERALS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.builds("{}/{}".format, st.integers(-99, 99), st.integers(0, 99)),
    st.builds("{}.{}".format, st.integers(-99, 99), st.integers(0, 10 ** 6)),
    st.builds("{}e{}".format, st.sampled_from(["1", "-7", "2.5", "3/4"]),
              st.one_of(*map(near, (DIGITS, -DIGITS, MAX_LITERAL_EXPONENT,
                                    -MAX_LITERAL_EXPONENT)))),
    st.just("1e" + "9" * 4000),
    st.builds("{}{}".format, near(DIGITS).map(lambda k: "9" * k), st.sampled_from(["", "e1"])),
)


def rational_entries(doc) -> list:
    """The positions of a document's entries spelled as rational strings."""
    return [path for path in paths(doc)
            if isinstance(v := reduce(lambda obj, key: obj[key], path, doc), str)
            and re.fullmatch(r"-?\d+(/\d+)?", v)]


def put(doc, path, value):
    """A copy of doc with the value at path replaced."""
    doc = copy.deepcopy(doc)
    reduce(lambda obj, key: obj[key], path[:-1], doc)[path[-1]] = value
    return doc


class TestLiteralForms:
    """A literal in any place a document spells a rational ends in exit 0,
    2 or 3, a failure as one stderr line with nothing on stdout."""

    SETTINGS = settings(FIXTURED, max_examples=60, deadline=2000)

    @SETTINGS
    @given(data=st.data(), literal=LITERALS, which=st.sampled_from(["weights", "input"]))
    def test_eval(self, tmp_path, data, literal, which):
        k, weights = data.draw(st.sampled_from(WEIGHTS))
        spline = SPLINES[k]
        x = [["1/2"] * spline["p"] for _ in range(spline["n"])]
        if which == "weights":
            weights = put(weights, data.draw(st.sampled_from(rational_entries(weights))), literal)
        else:
            x = put(x, data.draw(st.sampled_from(rational_entries(x))), literal)
        argv = ["eval", write(tmp_path / "m.json", weights), write(tmp_path / "x.json", x)]
        code, out, err = run_with_report(argv)
        assert_documented(code, err)
        assert not code or out == ""

    @SETTINGS
    @given(data=st.data(), literal=LITERALS)
    def test_compile_then_verify(self, tmp_path, data, literal):
        doc = data.draw(st.sampled_from(SPLINES))
        coefs = [path for path in paths(doc) if path and path[-1] == "coef"]
        spath = write(tmp_path / "s.json", put(doc, data.draw(st.sampled_from(coefs)), literal))
        weights = tmp_path / "w.json"
        weights.unlink(missing_ok=True)
        code, out, err = run_with_report(["compile", spath, "-o", str(weights)])
        assert_documented(code, err)
        if code:
            assert out == "" and not weights.exists()
            return
        # weights compiled from the spline hold its values exactly
        code, out, err = run_with_report(["verify", str(weights), spath, "--samples", "3"])
        assert code in (0, 3), (code, err)
        assert_documented(code, err)
        assert not code or out == ""


# -- exit codes of mutated weight chains -------------------------------------------

# softplus betas at the ends of the float range: the least subnormal, the
# least normal and the largest float, and near them
EXTREME_BETAS = [5e-324, sys.float_info.min, 1e-300, 1e300, sys.float_info.max]
FACTORS = [Fraction(0), Fraction(-1), Fraction(2), Fraction(1, 3), Fraction(10 ** 12),
           Fraction(1, 10 ** 12)]


def objects_with(doc, key) -> list:
    """The positions of the objects of doc that hold key."""
    return [path for path in paths(doc)
            if isinstance(obj := reduce(lambda o, k: o[k], path, doc), dict) and key in obj]


@st.composite
def chain_mutations(draw, doc):
    """A weights document with one to three drawn edits, in turn: its block
    chain (of two blocks or more) cut to a nonempty part at either end, or
    repeated, all entries under a drawn
    position (one entry, a row, a matrix, a block or all of them) scaled by
    a factor, 0 and -1 among them, a group's or head's `masked` or
    `scaled` flag or a block's `residual` flag flipped, or a group's or
    head's activation made softplus with a beta at the float extremes."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["truncate", "repeat", "scale", "flag", "beta"]))
        blocks = doc["blocks"]
        if kind == "truncate":
            if len(blocks) < 2:
                continue
            k = draw(st.integers(1, len(blocks) - 1))
            doc["blocks"] = draw(st.sampled_from([blocks[:k], blocks[k:]]))
        elif kind == "repeat":
            doc["blocks"] = copy.deepcopy(blocks * draw(st.integers(2, 3)))
        elif kind == "scale":
            entries = rational_entries(doc)
            if not entries:
                continue
            path = draw(st.sampled_from(entries))
            prefix = path[:draw(st.integers(1, len(path)))]
            factor = draw(st.sampled_from(FACTORS))
            for at in entries:
                if at[:len(prefix)] == prefix:
                    value = Fraction(reduce(lambda o, k: o[k], at, doc)) * factor
                    doc = put(doc, at, str(value))
        elif kind == "flag":
            flag = draw(st.sampled_from(["masked", "scaled", "residual"]))
            holders = objects_with(doc, "activation" if flag != "residual" else "ffn")
            if not holders:
                continue
            obj = reduce(lambda o, k: o[k], draw(st.sampled_from(holders)), doc)
            obj[flag] = not obj.get(flag, False)
        else:
            holders = objects_with(doc, "activation")
            if not holders:
                continue
            obj = reduce(lambda o, k: o[k], draw(st.sampled_from(holders)), doc)
            obj["activation"], obj["beta"] = "softplus", draw(st.sampled_from(EXTREME_BETAS))
    return doc


class TestChainMutations:
    """Weights compiled from a spline, their chains truncated or repeated,
    entries scaled, flags flipped and betas pushed to the float extremes:
    every command ends in exit 0, 2 or 3, a failure as one stderr line with
    nothing on stdout.  Exit 1 comes from `verify` alone, and the input of
    its first failure gives, through `eval`, the output it reports.  A
    flipped `masked` flag sends weights the compiler never made through
    the masked branch of the exact pass."""

    @settings(FIXTURED, max_examples=60, deadline=3000)
    @given(data=st.data())
    def test_exit_codes(self, tmp_path, data):
        k, weights = data.draw(st.sampled_from(WEIGHTS))
        weights = write(tmp_path / "m.json", data.draw(chain_mutations(weights)))
        spline = SPLINES[k]
        x = write(tmp_path / "x.json", [["1/2", "-3"][:spline["p"]]] * spline["n"])
        for argv in (["eval", weights, x], ["eval", weights, x, "--backend", "float"],
                     ["degree", weights, "--trials", "2", "--max-deg", "4", "--seed", "0"],
                     ["smooth", weights, "--samples", "1", "--seed", "0"]):
            code, out, err = run_with_report(argv)
            assert_documented(code, err)
            assert not code or out == ""
        verify = ["verify", weights, write(tmp_path / "s.json", spline),
                  "--samples", "3", "--seed", "0"]
        code, out, err = run_with_report(verify)
        if code != 1:
            assert_documented(code, err)
            assert not code or out == ""
            return
        failure = json.loads(out)["first_failure"]
        assert failure["expected"] != failure["got"]
        witness = write(tmp_path / "w.json", failure["X"])
        code, out, err = run_with_report(["eval", weights, witness])
        assert code == 0, err
        assert json.loads(out) == failure["got"]
