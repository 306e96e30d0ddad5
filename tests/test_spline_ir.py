import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineformer.spline import (MAX_FORM_SIZE, FormSizeError, Monomial, PBForm,
                                 Polynomial, SplineGrid, UnsupportedProductError,
                                 VariableRangeError, absorb, const, emax, emin, eprod,
                                 escale, esum, eval_maxdef, expr_from_json, expr_to_json,
                                 grid_from_json, grid_to_json, normalize_to_pbform,
                                 pb_max, pb_min, pb_negate, pb_scale, pb_sum, var)
from splineformer.tensor import Mat
from splineformer.verifier import random_rational_mat, trial_rng

from reference import unabsorbed_form


def x(i, j=1):
    return Polynomial.variable(i, j)


def power(k, i=1):
    """x_i_1^k."""
    return Polynomial.from_terms({Monomial.from_dict({(i, 1): k}): F(1)})


def mat(rows):
    return Mat.rational(rows)


class TestEvalPoly:
    def test_constant(self):
        assert Polynomial.constant(5).eval(mat([[1], [2]])) == 5

    def test_monomial_product(self):
        p = Polynomial.from_terms({Monomial.from_dict({(1, 1): 2, (2, 1): 1}): F(1)})
        assert p.eval(mat([[2], [3]])) == 12

    def test_zero_polynomial(self):
        assert Polynomial.from_terms({}).eval(mat([[9]])) == 0

    def test_variable_out_of_range(self):
        with pytest.raises(VariableRangeError):
            x(3).eval(mat([[1], [2]]))


class TestEvalPBForm:
    def test_absolute_value(self):
        f = PBForm.of_rows([[x(1)], [x(1).neg()]])
        assert f.eval(mat([[-3]])) == 3

    def test_relu(self):
        f = PBForm.of_rows([[x(1)], [Polynomial.from_terms({})]])
        assert f.eval(mat([[-2]])) == 0

    def test_x_times_relu_y_identity(self):
        # max(min(xy, x^2 y + y), min(0, -x^2 y - y)) at (2, 3) = 2 * 3 = 6
        xy = x(1).mul(x(2))
        x2yy = x(1).mul(x(1)).mul(x(2)).add(x(2))
        zero = Polynomial.from_terms({})
        f = PBForm.of_rows([[xy, x2yy], [zero, x2yy.neg()]])
        assert f.eval(mat([[2], [3]])) == 6
        # negative side: y < 0 makes x * relu(y) = 0
        assert f.eval(mat([[2], [-3]])) == 0

    def test_each_distinct_polynomial_evaluated_once(self, monkeypatch):
        # unabsorbed: 64 rows and 256 slots, but only 9 distinct polynomials
        f = unabsorbed_form(eprod(esum(var(1, 1), var(2, 1)),
                                  emin(var(1, 1), emax(var(2, 1), const(1)))))
        assert (len(f.rows), sum(map(len, f.rows))) == (64, 256)
        assert len({p for row in f.rows for p in row}) == 9
        calls = []
        polynomial_eval = Polynomial.eval
        monkeypatch.setattr(Polynomial, "eval",
                            lambda p, x: calls.append(p) or polynomial_eval(p, x))
        x_in = mat([[F(3, 2)], [F(-1, 3)]])
        want = max(min(polynomial_eval(p, x_in) for p in row) for row in f.rows)
        assert f.eval(x_in) == want
        assert len(calls) <= 9


class TestEvalMaxdef:
    def test_x_times_relu_x(self):
        e = eprod(var(1, 1), emax(var(1, 1), const(0)))
        assert eval_maxdef(e, mat([[2]])) == 4
        assert eval_maxdef(e, mat([[-2]])) == 0

    def test_min_via_negated_max(self):
        e = escale(-1, emax(escale(-1, var(1, 1)), escale(-1, var(2, 1))))
        assert eval_maxdef(e, mat([[1], [3]])) == 1

    def test_constant_tree(self):
        assert eval_maxdef(const(F(7, 3)), mat([[0]])) == F(7, 3)


class TestNormalize:
    def brute_check(self, e, n, p, samples=500, seed=0):
        f = normalize_to_pbform(e)
        for t in range(samples):
            X = random_rational_mat(trial_rng(seed, t), n, p)
            assert f.eval(X) == eval_maxdef(e, X)

    def test_sum_of_relus_rows(self):
        e = esum(emax(var(1, 1), const(0)), emax(var(2, 1), const(0)))
        f = normalize_to_pbform(e)
        polys = {row[0] for row in f.rows if len(row) == 1}
        expected = {x(1).add(x(2)), x(1), x(2), Polynomial.from_terms({})}
        assert polys == expected
        # brute-force equality on a 5x5 grid of rational points
        for a in (-2, -1, 0, 1, 2):
            for b in (-2, -1, 0, 1, 2):
                X = mat([[a], [b]])
                assert f.eval(X) == eval_maxdef(e, X)

    def test_pure_polynomial_single_cell(self):
        f = normalize_to_pbform(eprod(var(1, 1), var(1, 1)))
        assert len(f.rows) == 1 and len(f.rows[0]) == 1

    def test_min_single_row(self):
        f = normalize_to_pbform(emin(var(1, 1), var(2, 1)))
        assert f.rows == ((x(1), x(2)),)

    def test_poly_times_relu(self):
        self.brute_check(eprod(var(1, 1), emax(var(2, 1), const(0))), 2, 1)

    def test_poly_times_nested_lattice(self):
        e = eprod(esum(var(1, 1), var(2, 1)), emin(var(1, 1), emax(var(2, 1), const(1))))
        self.brute_check(e, 2, 1, samples=300)

    def test_scaled_lattice(self):
        e = escale(F(-3, 2), emax(var(1, 1), emin(var(2, 1), const(2))))
        self.brute_check(e, 2, 1, samples=300)

    @pytest.mark.parametrize("node", [emax, emin], ids=["max", "min"])
    def test_one_argument_lattice_under_product(self, node):
        # op(a) is a; nested one-argument nodes under a product reduce to it
        self.brute_check(eprod(var(1, 1), node(node(var(2, 1)))), 2, 1, samples=100)
        self.brute_check(eprod(var(1, 1), node(var(2, 1), node(node(var(1, 1))))), 2, 1,
                         samples=100)

    @pytest.mark.parametrize("e", [
        emax(), emin(), eprod(var(1, 1), emax()), eprod(var(1, 1), emin()),
        eprod(var(1, 1), emax(var(2, 1), emin())), esum(var(1, 1), emin()),
        escale(2, emax()),
    ], ids=["max", "min", "prod-max", "prod-min", "prod-nested", "sum", "scale"])
    def test_empty_lattice_rejected(self, e):
        X = mat([[1], [2]])
        with pytest.raises(ValueError):
            eval_maxdef(e, X)
        with pytest.raises(ValueError, match="at least one nonempty row"):
            normalize_to_pbform(e)

    def test_double_lattice_product_rejected(self):
        e = eprod(emax(var(1, 1), const(0)), emax(var(2, 1), const(0)))
        with pytest.raises(UnsupportedProductError):
            normalize_to_pbform(e)


class TestSizeCap:
    """Max adds form sizes, and min, sum and negation multiply them; each is
    sized from its operands and refused above MAX_FORM_SIZE polynomials
    before it is built."""

    powers = itertools.count(1)

    @classmethod
    def tall(cls, rows, width=1):
        # each polynomial a power x_1_1^k never used before, so no two are equal,
        # no row holds another, and sums across two forms are distinct too
        return PBForm(tuple(tuple(power(next(cls.powers)) for _ in range(width))
                            for _ in range(rows)))

    def test_min_at_and_just_over_cap(self):
        half = MAX_FORM_SIZE // 2
        # one row of one polynomial against `half` rows: half rows of two each
        f = pb_min([self.tall(1), self.tall(half)])
        assert len(f.rows) == half and sum(map(len, f.rows)) == MAX_FORM_SIZE
        with pytest.raises(FormSizeError, match=str(MAX_FORM_SIZE)):
            pb_min([self.tall(1), self.tall(half + 1)])

    def test_max_at_and_just_over_cap(self):
        # a max joins its operands' rows: 2048 + 2048 is the cap, 2048 + 2049 over it
        half = MAX_FORM_SIZE // 2
        assert len(pb_max([self.tall(half), self.tall(half)]).rows) == MAX_FORM_SIZE
        with pytest.raises(FormSizeError, match=str(MAX_FORM_SIZE)):
            pb_max([self.tall(half), self.tall(half + 1)])

    def test_sum_just_over_cap(self):
        assert len(pb_sum(self.tall(1, 64), self.tall(1, 64)).rows[0]) == MAX_FORM_SIZE
        with pytest.raises(FormSizeError):
            pb_sum(self.tall(1, 64), self.tall(1, 65))  # one row of 4160
        with pytest.raises(FormSizeError):
            pb_sum(self.tall(64), self.tall(65))  # 4160 rows of one

    def test_negate_just_over_cap(self):
        # 8 rows of two negate to 256 rows of 8 (2048), 9 to 512 of 9 (4608)
        assert len(pb_negate(self.tall(8, 2)).rows) == 256
        with pytest.raises(FormSizeError):
            pb_negate(self.tall(9, 2))
        with pytest.raises(FormSizeError):
            pb_scale(self.tall(9, 2), -1)

    def test_min_of_maxes_just_over_cap(self):
        pairs = [emax(const(2 * k), const(2 * k + 1)) for k in range(9)]
        assert len(normalize_to_pbform(emin(*pairs[:8])).rows) == 256
        with pytest.raises(FormSizeError):
            normalize_to_pbform(emin(*pairs))

    def test_sum_of_mins_just_over_cap(self):
        # row widths multiply under a sum: mins of 64 and 64 make one row of 4096,
        # of 64 and 65 one row of 4160
        def row(i, width):
            return emin(*[power(k, i) for k in range(1, width + 1)])
        f = normalize_to_pbform(esum(row(1, 64), row(2, 64)))
        assert len(f.rows) == 1 and len(f.rows[0]) == MAX_FORM_SIZE
        with pytest.raises(FormSizeError):
            normalize_to_pbform(esum(row(1, 64), row(2, 65)))


class TestAbsorb:
    def test_drops_repeats_and_rows_holding_another(self):
        a, b, c = x(1), x(2), Polynomial.constant(3)
        f = absorb([[a, b, a], [c, a], [b], [c, b], [a, c], [c, a, c]])
        # of the equal rows {a, c} the first stays, in its own order
        assert f.rows == ((c, a), (b,))

    @pytest.mark.parametrize("singles, pairs", [(4096, 0), (1364, 1363)],
                             ids=["singletons", "mixed"])
    def test_distinct_rows_unchanged_and_fast(self, singles, pairs):
        # forms at the cap in which nothing absorbs; in the mixed one every
        # two-polynomial row is tested against the one-polynomial rows.  Testing
        # every pair of rows took about 1.8 s and 0.8 s on them, absorb takes
        # about 0.01 s (2-vCPU Xeon VM, Python 3.11)
        c = [Polynomial.constant(k) for k in range(singles + 2 * pairs)]
        rows = tuple((p,) for p in c[:singles]) + tuple(zip(c[singles::2], c[singles + 1::2]))
        assert len(rows) == singles + pairs
        start = time.perf_counter()
        assert absorb(rows) == PBForm(rows)
        assert time.perf_counter() - start < 1


class TestDegree:
    def test_abs(self):
        assert normalize_to_pbform(emax(var(1, 1), escale(-1, var(1, 1)))).degree == 1

    def test_x_times_relu_y_is_cubic(self):
        f = normalize_to_pbform(eprod(var(1, 1), emax(var(2, 1), const(0))))
        assert f.degree == 3

    def test_constant(self):
        assert PBForm.of_poly(Polynomial.constant(4)).degree == 0


class TestDuality:
    def test_negation_flips_values(self):
        forms = [
            PBForm.of_rows([[x(1), x(2)], [Polynomial.constant(1)]]),
            normalize_to_pbform(esum(emax(var(1, 1), const(0)), emin(var(2, 1), var(1, 1)))),
        ]
        for f in forms:
            g = pb_negate(f)
            for t in range(200):
                X = random_rational_mat(trial_rng(3, t), 2, 1)
                assert g.eval(X) == -f.eval(X)


class TestContinuity:
    def test_fine_samples_track_local_slope(self):
        # continuity smoke: fine steps along a line never jump more than
        # the empirical local slope allows
        f = normalize_to_pbform(emax(var(1, 1), emin(var(2, 1), const(0))))
        rng = trial_rng(8, 0)
        base = random_rational_mat(rng, 2, 1)
        direction = random_rational_mat(rng, 2, 1)
        coarse = F(1, 10)
        fine = F(1, 1000)

        def at(t):
            X = mat([[base.at(0, 0) + t * direction.at(0, 0)],
                     [base.at(1, 0) + t * direction.at(1, 0)]])
            return f.eval(X)

        coarse_vals = [at(k * coarse) for k in range(11)]
        slope = max(abs(b - a) / coarse for a, b in zip(coarse_vals, coarse_vals[1:]))
        slope = max(slope, F(1))
        fine_vals = [at(k * fine) for k in range(200)]
        for a, b in zip(fine_vals, fine_vals[1:]):
            assert abs(b - a) <= 4 * slope * fine


class TestJson:
    def test_expr_roundtrip(self):
        e = emax(var(1, 1), emin(var(1, 2), const(F(3, 2))))
        f = normalize_to_pbform(e)
        parsed = normalize_to_pbform(expr_from_json(expr_to_json(f)))
        for t in range(100):
            X = random_rational_mat(trial_rng(5, t), 1, 2)
            assert parsed.eval(X) == f.eval(X)

    def test_poly_term_format(self):
        obj = {"op": "poly", "terms": [{"coef": "3/2", "exps": {"x_2_1": 2}}]}
        e = expr_from_json(obj)
        assert eval_maxdef(e, mat([[0], [2]])) == 6

    def test_grid_roundtrip(self):
        g = SplineGrid(2, 1, ((normalize_to_pbform(emax(var(1, 1), var(2, 1))),),))
        g2 = grid_from_json(grid_to_json(g))
        assert g2.n == 2 and g2.p == 1
        for t in range(50):
            X = random_rational_mat(trial_rng(6, t), 2, 1)
            assert g2.eval(X) == g.eval(X)

    def test_poly_node_is_its_polynomial(self):
        obj = {"op": "poly", "terms": [{"coef": "3/2", "exps": {"x_2_1": 2, "x_1_1": 1}},
                                       {"coef": "-1", "exps": {"x_1_1": 0}},
                                       {"coef": "5", "exps": {"x_1_1": 4}}]}
        want = Polynomial.from_terms({Monomial.from_dict({(1, 1): 1, (2, 1): 2}): F(3, 2),
                                      Monomial.from_dict({}): F(-1),
                                      Monomial.from_dict({(1, 1): 4}): F(5)})
        assert expr_from_json(obj) == want


@st.composite
def spline_documents(draw):
    """A spline document over an n x p input, n, p <= 2: max/min/poly
    nodes up to depth 3, terms that repeat a monomial or carry a zero
    exponent, empty term lists, and monomials of degree up to 8."""
    n, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    names = [f"x_{i}_{j}" for i in range(1, n + 1) for j in range(1, p + 1)]
    coefs = st.builds(F, st.integers(-6, 6), st.integers(1, 5)).map(str)
    exps = st.dictionaries(st.sampled_from(names), st.integers(0, 4), max_size=2)

    def poly():
        pool = draw(st.lists(exps, min_size=1, max_size=3))
        terms = [{"coef": draw(coefs), "exps": draw(st.sampled_from(pool))}
                 for _ in range(draw(st.integers(0, 4)))]
        return {"op": "poly", "terms": terms}

    def cell(depth):
        if depth == 0 or draw(st.integers(0, 2)) == 0:
            return poly()
        return {"op": draw(st.sampled_from(["max", "min"])),
                "args": [cell(depth - 1) for _ in range(draw(st.integers(1, 3)))]}

    rows = draw(st.integers(1, 2))
    return {"n": n, "p": p, "grid": [[cell(3) for _ in range(p)] for _ in range(rows)]}


def eval_json(node, x):
    """The value of a raw JSON expression node at the input rows x (lists
    of Fractions): coef times the product of x_i_j^e, summed, under max/min."""
    if node["op"] == "poly":
        total = F(0)
        for t in node["terms"]:
            term = F(t["coef"])
            for key, e in t["exps"].items():
                _, i, j = key.split("_")
                term *= x[int(i) - 1][int(j) - 1] ** e
            total += term
        return total
    values = [eval_json(a, x) for a in node["args"]]
    return max(values) if node["op"] == "max" else min(values)


class TestJsonReference:
    """`grid_from_json` against an evaluator of the raw document that
    shares no code with `Monomial` or `Polynomial`."""

    @settings(deadline=None, derandomize=True, max_examples=150)
    @given(doc=spline_documents(), data=st.data())
    def test_parsed_grid_matches_raw_document(self, doc, data):
        values = st.builds(F, st.integers(-9, 9), st.integers(1, 4))
        x = [[data.draw(values) for _ in range(doc["p"])] for _ in range(doc["n"])]
        grid = grid_from_json(doc)
        assert grid.degree <= 8
        want = [[eval_json(cell, x) for cell in row] for row in doc["grid"]]
        assert [list(row) for row in grid.eval(mat(x)).data] == want
