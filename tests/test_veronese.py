import math

import pytest

from splineformer.spline import Monomial, ONE
from splineformer.tensor import Mat, ShapeError
from splineformer.veronese import (VeroneseIndex, factor_pair, graded_lex_monomials,
                                   veronese_dim, veronese_eval)


class TestVeroneseDim:
    def test_two_vars_quadratic(self):
        assert veronese_dim(2, 2) == 6

    def test_four_vars_quadratic(self):
        assert veronese_dim(4, 2) == 15

    def test_univariate(self):
        for k in range(1, 8):
            assert veronese_dim(1, k) == k + 1

    def test_invalid(self):
        with pytest.raises(ValueError):
            veronese_dim(0, 2)


class TestOrdering:
    def test_two_variable_quadratic_order(self):
        idx = VeroneseIndex.for_matrix(2, 1, 2)
        names = [repr(m) for m in idx.monomials]
        assert names == ["1", "x_1_1", "x_2_1", "x_1_1^2", "x_1_1*x_2_1", "x_2_1^2"]

    def test_two_by_two_order(self):
        idx = VeroneseIndex.for_matrix(2, 2, 2)
        names = [repr(m) for m in idx.monomials]
        assert names[:5] == ["1", "x_1_1", "x_1_2", "x_2_1", "x_2_2"]
        assert names[5:9] == ["x_1_1^2", "x_1_1*x_1_2", "x_1_1*x_2_1", "x_1_1*x_2_2"]
        assert len(names) == 15

    def test_index_bijective(self):
        idx = VeroneseIndex.for_matrix(2, 2, 3)
        for pos, m in enumerate(idx.monomials):
            assert idx.monomials.index(m) == pos
            assert idx.monomials[pos] == m


class TestVeroneseEval:
    def test_column_values(self):
        idx = VeroneseIndex.for_matrix(2, 1, 2)
        out = veronese_eval(idx, Mat.rational([[1], [2]]))
        assert [v[0] for v in out.data] == [1, 1, 2, 1, 2, 4]

    def test_zero_matrix(self):
        idx = VeroneseIndex.for_matrix(2, 2, 2)
        out = veronese_eval(idx, Mat.zeros(2, 2))
        vals = [v[0] for v in out.data]
        assert vals[0] == 1 and all(v == 0 for v in vals[1:])

    def test_length_matches_dim(self):
        for n, p, k in [(1, 1, 4), (2, 1, 3), (2, 2, 2), (3, 1, 2)]:
            idx = VeroneseIndex.for_matrix(n, p, k)
            out = veronese_eval(idx, Mat.zeros(n, p))
            assert out.rows == veronese_dim(n * p, k) == len(idx)

    def test_shape_mismatch(self):
        idx = VeroneseIndex.for_matrix(2, 1, 2)
        with pytest.raises(ShapeError):
            veronese_eval(idx, Mat.rational([[1, 2]]))


class TestFactorPair:
    def test_x4_forced(self):
        x4 = Monomial.from_dict({(1, 1): 4})
        x2 = Monomial.from_dict({(1, 1): 2})
        assert factor_pair(x4, 2) == (x2, x2)

    def test_x3y_greedy(self):
        x3y = Monomial.from_dict({(1, 1): 3, (2, 1): 1})
        x2 = Monomial.from_dict({(1, 1): 2})
        xy = Monomial.from_dict({(1, 1): 1, (2, 1): 1})
        assert factor_pair(x3y, 2) == (x2, xy)

    def test_factor_pair_bounds(self):
        m = Monomial.from_dict({(1, 1): 3})
        a, b = factor_pair(m, 2)
        assert a.mul(b) == m and a.degree <= 2 and b.degree <= 2
        with pytest.raises(ValueError):
            factor_pair(Monomial.from_dict({(1, 1): 5}), 2)


class TestGradedLex:
    def test_count_matches_binomial(self):
        varlist = [(1, 1), (1, 2), (2, 1)]
        for k in (1, 2, 3):
            mons = graded_lex_monomials(varlist, k)
            assert len(mons) == math.comb(3 + k, k)

    def test_constant_first_then_vars(self):
        varlist = [(1, 1), (1, 2)]
        mons = graded_lex_monomials(varlist, 2)
        assert mons[0] == ONE
        assert mons[1] == Monomial.variable(1, 1)
        assert mons[2] == Monomial.variable(1, 2)
