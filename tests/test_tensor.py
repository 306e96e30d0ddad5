import json
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineformer.tensor import (FLOAT, NEG_INF, RATIONAL, BackendError,
                                 DegenerateColumnError, FormatError, Mat, ShapeError, add,
                                 mat_from_json, mat_to_json, matmul, scale,
                                 _softplus_scalar, sparse_from_json, sparse_to_json, stack_rows)
from reference import (MaskedScores, apply_mask, relu, softmax_columns,
                       softplus_beta, sub)

fractions = st.builds(F, st.integers(-10, 10), st.integers(1, 7))


def rational_mats(rows, cols):
    return st.lists(st.lists(fractions, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(Mat.rational)


class TestMatmul:
    def test_basis_product(self):
        e12 = Mat.basis(2, 2, 1, 2)
        e21 = Mat.basis(2, 2, 2, 1)
        assert matmul(e12, e21) == Mat.basis(2, 2, 1, 1)

    def test_identity(self):
        m = Mat.rational([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert matmul(Mat.identity(3), m) == m

    def test_hand_product(self):
        a = Mat.rational([[1, 2], [3, 4]])
        b = Mat.rational([[1], [1]])
        assert matmul(a, b) == Mat.rational([[3], [7]])

    def test_shape_error_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
            matmul(Mat.rational([[1, 2], [3, 4]]), Mat.rational([[1], [1], [1]]))

    def test_mixed_backends_rejected(self):
        with pytest.raises(BackendError):
            matmul(Mat.rational([[1]]), Mat.from_floats([[1.0]]))

    @given(rational_mats(2, 3), rational_mats(3, 2), rational_mats(2, 2))
    @settings(max_examples=60, deadline=None)
    def test_associative_exactly(self, a, b, c):
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


class TestStackRows:
    def test_two_blocks(self):
        a = Mat.rational([[1, 2]])
        b = Mat.rational([[3, 4]])
        assert stack_rows([a, b]) == Mat.rational([[1, 2], [3, 4]])

    def test_single_identity(self):
        a = Mat.rational([[1, 2], [3, 4]])
        assert stack_rows([a]) == a

    def test_row_count(self):
        parts = [Mat.rational([[i, i]]) for i in range(3)]
        assert stack_rows(parts).rows == 3

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            stack_rows([])

    def test_col_mismatch(self):
        with pytest.raises(ShapeError):
            stack_rows([Mat.rational([[1]]), Mat.rational([[1, 2]])])


class TestRelu:
    def test_entrywise(self):
        m = Mat.rational([[-2, 3], [0, -1]])
        assert relu(m) == Mat.rational([[0, 3], [0, 0]])

    def test_idempotent(self):
        m = Mat.rational([[-2, 3], [0, -1]])
        assert relu(relu(m)) == relu(m)

    def test_neg_inf_maps_to_zero(self):
        m = Mat.from_floats([[NEG_INF, 2.0]])
        assert relu(m) == Mat.from_floats([[0.0, 2.0]])

    @given(rational_mats(3, 3))
    @settings(max_examples=60, deadline=None)
    def test_relu_decomposition(self, m):
        neg = Mat.dense(RATIONAL, tuple(tuple(-x for x in row) for row in m.data))
        assert sub(relu(m), relu(neg)) == m


class TestSoftmax:
    def test_symmetric_column(self):
        out = softmax_columns(Mat.from_floats([[0.0], [0.0]]))
        assert out.at(0, 0) == 0.5 and out.at(1, 0) == 0.5

    def test_neg_inf_excluded(self):
        out = softmax_columns(Mat.from_floats([[0.0], [NEG_INF]]))
        assert out.at(0, 0) == 1.0
        assert out.at(1, 0) == 0.0

    def test_log3_column(self):
        out = softmax_columns(Mat.from_floats([[0.0], [math.log(3)]]))
        assert abs(out.at(0, 0) - 0.25) < 1e-15
        assert abs(out.at(1, 0) - 0.75) < 1e-15

    def test_rational_backend_rejected(self):
        with pytest.raises(BackendError):
            softmax_columns(Mat.rational([[1], [2]]))

    def test_degenerate_column(self):
        with pytest.raises(DegenerateColumnError):
            softmax_columns(Mat.from_floats([[NEG_INF], [NEG_INF]]))

    def test_columns_are_probabilities(self):
        import random
        rng = random.Random(4)
        m = Mat.from_floats([[rng.uniform(-700, 700) for _ in range(5)] for _ in range(6)])
        out = softmax_columns(m)
        for j in range(5):
            col = out.col_entries(j)
            assert abs(sum(col) - 1.0) <= 1e-12
            assert all(0.0 <= x <= 1.0 for x in col)


class TestSoftplus:
    def test_at_zero(self):
        for beta in (1.0, 10.0, 250.0):
            out = softplus_beta(Mat.from_floats([[0.0]]), beta)
            assert abs(out.at(0, 0) - math.log(2) / beta) < 1e-18

    def test_large_beta_near_relu(self):
        out = softplus_beta(Mat.from_floats([[5.0]]), 1000.0)
        assert 5.0 <= out.at(0, 0) <= 5.0 + 1e-6

    def test_beta_must_be_positive(self):
        with pytest.raises(ValueError):
            softplus_beta(Mat.from_floats([[1.0]]), 0.0)

    def test_neg_inf_maps_to_zero(self):
        assert softplus_beta(Mat.from_floats([[NEG_INF]]), 10.0).at(0, 0) == 0.0

    def test_scalar_at_neg_inf_is_zero(self):
        for beta in (1e-300, 1.0, 1e300):
            assert _softplus_scalar(NEG_INF, beta) == 0.0

    @given(st.floats(-40, 40), st.sampled_from([1.0, 10.0, 100.0]))
    @settings(max_examples=80, deadline=None)
    def test_dominates_relu_within_bound(self, x, beta):
        sp = softplus_beta(Mat.from_floats([[x]]), beta).at(0, 0)
        assert sp >= max(x, 0.0)
        assert sp - max(x, 0.0) <= math.log(2) / beta + 1e-15


class TestMask:
    def test_float_mask(self):
        masked = apply_mask(Mat.from_floats([[1, 2], [3, 4]]))
        assert masked == Mat.from_floats([[1.0, 2.0], [NEG_INF, 4.0]])

    def test_one_by_one_unchanged(self):
        masked = apply_mask(Mat.from_floats([[7.0]]))
        assert masked == Mat.from_floats([[7.0]])

    def test_relu_after_mask(self):
        masked = apply_mask(Mat.from_floats([[1, 2], [3, 4]]))
        assert relu(masked) == Mat.from_floats([[1.0, 2.0], [0.0, 4.0]])

    def test_rational_mask_is_structural(self):
        m = Mat.rational([[1, 2], [3, 4]])
        masked = apply_mask(m)
        assert isinstance(masked, MaskedScores)
        assert relu(masked) == Mat.rational([[1, 2], [0, 4]])

    def test_structural_equals_float_path(self):
        import random
        rng = random.Random(11)
        for _ in range(100):
            rows = [[F(rng.randint(-10, 10), rng.randint(1, 7)) for _ in range(3)]
                    for _ in range(3)]
            m = Mat.rational(rows)
            structural = relu(apply_mask(m)).to_float()
            floats = relu(apply_mask(m.to_float()))
            assert structural == floats

    def test_non_square_rejected(self):
        with pytest.raises(ShapeError):
            apply_mask(Mat.rational([[1, 2]]))


class Dense(tuple):
    """The rows of a matrix in the dense spelling, for a test that also
    reads sparse ones."""


class TestJson:
    def test_rational_roundtrip(self):
        m = Mat.rational([[F(3, 2), -1], [0, F(-7, 5)]])
        assert mat_from_json(mat_to_json(m)) == m

    def test_float_roundtrip_with_neg_inf(self):
        m = Mat.from_floats([[1.5, NEG_INF]])
        obj = mat_to_json(m)
        assert obj == [[1.5, "-inf"]]
        assert mat_from_json(obj) == m

    def test_rational_strings(self):
        assert mat_to_json(Mat.rational([[F(3, 2)]])) == [["3/2"]]

    def test_integer_entries_are_rational(self):
        m = mat_from_json([[-3, "1/2"], [0, 4]])
        assert m.backend == "rational"
        assert m == Mat.rational([[-3, F(1, 2)], [0, 4]])
        assert mat_from_json([[-3]]) == Mat.rational([[-3]])

    def test_floats_or_neg_inf_make_a_float_matrix(self):
        assert mat_from_json([[2.0, 1]]).backend == "float"
        assert mat_from_json([["-inf", 1]]) == Mat.from_floats([[NEG_INF, 1.0]])

    @pytest.mark.parametrize("obj", [5, "x", [5], [[True]], [[None]], [[[1]]]])
    def test_non_matrix_rejected(self, obj):
        with pytest.raises(ValueError):
            mat_from_json(obj)

    def test_string_matrix_reads_as_rational(self):
        m = mat_from_json([["1/2", "-3"], ["0", "1.25"]])
        assert m == Mat.rational([[F(1, 2), -3], [0, F(5, 4)]])
        assert m.backend == "rational"
        assert mat_from_json([["1/2", "-inf"]]) == Mat.from_floats([[0.5, NEG_INF]])

    @pytest.mark.parametrize("obj,error", [
        ([["1/2", "abc"]], ValueError), ([["1/0"]], ZeroDivisionError),
        ([["1"], ["1", "2"]], ShapeError), ([["1", ["2"]]], BackendError),
        ([["1", True]], BackendError), ([["-inf", "abc"]], ValueError)])
    def test_bad_string_matrices(self, obj, error):
        with pytest.raises(error):
            mat_from_json(obj)

    @pytest.mark.parametrize("obj,error", [
        ([["abc"], [True]], BackendError), ([["1/0"], [None]], BackendError),
        ([["abc"], ["1", "2"]], ValueError), ([["1", "2"], ["abc"]], ValueError),
        ([["abc"], [1.5]], ValueError), ([["1/0"], ["-inf"]], ZeroDivisionError)])
    def test_first_error_over_all_rows(self, obj, error):
        # a bad string in an early row does not hide the error a later row raises first
        with pytest.raises(error) as caught:
            mat_from_json(obj)
        assert type(caught.value) is error

    def test_sparse_reads_float_after_rationals(self):
        # entries read as rationals before the first float are rounded; one that
        # rounds to 0.0 is dropped
        obj = {"cols": 3, "rows": [[[0, "1/3"], [2, "1/1" + "0" * 400]], [], [[1, 0.5]]]}
        m = sparse_from_json(obj)
        assert m == Mat(FLOAT, (((0, 1 / 3),), (), ((1, 0.5),)), 3)
        assert sparse_from_json({"cols": 1, "rows": [[[0, 2]]], "float": True}) \
            == Mat.from_floats([[2.0]])
        assert sparse_from_json({"cols": 2, "rows": [[[1, -3]]]}) == Mat.rational([[0, -3]])

    @pytest.mark.parametrize("rows,error", [
        ([[[2, "1"]]], ShapeError), ([[[-1, "1"]]], ShapeError),
        ([[[1, "1"], [0, "1"]]], FormatError), ([[[0, "1"], [0, "2"]]], FormatError),
        ([[[True, "1"]]], FormatError), ([[["0", "1"]]], FormatError),
        ([[[0, "1", "2"]]], FormatError), (["x"], FormatError), ([[[0, True]]], BackendError),
        ([[[0, None]]], BackendError), ([[[0, "abc"]]], ValueError),
        ([[[0, "1/0"]]], ZeroDivisionError), ([[[0, 10 ** 400]], [[0, 1.5]]], OverflowError),
        # the dense spellings of the cases above that have one
        (Dense([["1", "2"], ["0", "0", "1"]]), ShapeError), (Dense([[True, "0"]]), BackendError),
        (Dense([[None, "0"]]), BackendError), (Dense([["abc", "0"]]), ValueError),
        (Dense([["1/0", "0"]]), ZeroDivisionError),
        (Dense([[10 ** 400, "0"], [1.5, "0"]]), OverflowError), (Dense(["x"]), FormatError)])
    def test_bad_sparse_matrices(self, rows, error):
        with pytest.raises(error) as caught:
            if isinstance(rows, Dense):
                mat_from_json(list(rows))
            else:
                sparse_from_json({"cols": 2, "rows": rows})
        assert type(caught.value) is error

    @pytest.mark.parametrize("obj", [[["1"], 5], [["1"], "x"], [None]])
    def test_row_not_a_list_named(self, obj):
        # the message names the type of the row, not of the matrix
        with pytest.raises(FormatError, match=f"a matrix row must be a list, got "
                                              f"{type(obj[-1]).__name__}$"):
            mat_from_json(obj)


# -- storage: only the nonzeros are kept ----------------------------------------

ROOT = Path(__file__).resolve().parent.parent

sparse_fractions = st.one_of(st.just(F(0)), st.just(F(0)), fractions)
sparse_floats = st.one_of(st.just(0.0), st.just(0.0), st.just(NEG_INF),
                          st.floats(-1e3, 1e3, allow_nan=False).filter(lambda x: x != 0))


def dense_rows(entries, rows=(1, 4), cols=(1, 4)):
    """Equal-width dense rows of `entries`, most of them zero."""
    return st.tuples(st.integers(*rows), st.integers(*cols)).flatmap(
        lambda shape: st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                               min_size=shape[0], max_size=shape[0]))


def assert_stored_sparse(m: Mat):
    """Each row holds (col, value) pairs of nonzero values, in strictly
    increasing column order inside the width."""
    assert m.rows == len(m.nz) >= 1 and m.cols >= 1
    for row in m.nz:
        cols = [c for c, _ in row]
        assert cols == sorted(set(cols)) and all(0 <= c < m.cols for c in cols)
        assert all(v != 0 for _, v in row)


def spelled(rows, backend):
    """The wire format spelled from dense rows."""
    if backend == RATIONAL:
        return [[str(x) for x in row] for row in rows]
    return [["-inf" if x == NEG_INF else x for x in row] for row in rows]


def dense_product(a, b, zero):
    """Row-major a b, each entry summed over the inner index in order,
    skipping zero factors (0 * -inf is no term)."""
    out = []
    for row in a:
        acc = [zero] * len(b[0])
        for k, c in enumerate(row):
            for j, v in enumerate(b[k]):
                if c and v:
                    acc[j] += c * v
        out.append(acc)
    return out


class TestStorage:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.one_of(dense_rows(sparse_fractions), dense_rows(sparse_floats)))
    def test_dense_rows_round_trip(self, rows):
        backend = RATIONAL if isinstance(rows[0][0], F) else FLOAT
        m = Mat.dense(backend, rows)
        assert_stored_sparse(m)
        assert m.data == tuple(map(tuple, rows))
        assert [[m.at(i, j) for j in range(m.cols)] for i in range(m.rows)] == rows
        obj = mat_to_json(m)
        assert obj == spelled(rows, backend)
        assert json.dumps(obj) == json.dumps(spelled(rows, backend))
        assert mat_from_json(obj) == m
        assert mat_from_json(json.loads(json.dumps(obj))) == m
        assert sparse_from_json(json.loads(json.dumps(sparse_to_json(m)))) == m
        as_float = m.to_float()
        assert_stored_sparse(as_float)
        assert as_float == Mat.dense(FLOAT, [[float(x) for x in row] for row in rows])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(data=st.data(), exact=st.booleans())
    def test_ops_equal_the_dense_computation(self, data, exact):
        entries = sparse_fractions if exact else sparse_floats.filter(math.isfinite)
        backend, zero = (RATIONAL, F(0)) if exact else (FLOAT, 0.0)
        r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        a = data.draw(dense_rows(entries, (r, r), (k, k)))
        b = data.draw(dense_rows(entries, (k, k), (c, c)))
        ma, mb = Mat.dense(backend, a), Mat.dense(backend, b)
        product = matmul(ma, mb)
        assert_stored_sparse(product)
        assert product == Mat.dense(backend, dense_product(a, b, zero))
        s = data.draw(fractions if exact else st.floats(-1e3, 1e3, allow_nan=False))
        assert_stored_sparse(scale(ma, s))
        assert scale(ma, s) == Mat.dense(backend, [[s * x for x in row] for row in a])
        stacked = stack_rows([ma, Mat.dense(backend, a[::-1])])
        assert_stored_sparse(stacked)
        assert stacked.data == tuple(map(tuple, a + a[::-1]))
        total = add(ma, ma)
        assert_stored_sparse(total)
        assert total == Mat.dense(backend, [[x + x for x in row] for row in a])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(rows=dense_rows(sparse_floats))
    def test_neg_inf_survives_scaling_and_stacking(self, rows):
        m = Mat.dense(FLOAT, rows)
        assert scale(m, 2.0) == Mat.dense(FLOAT, [[2.0 * x for x in row] for row in rows])
        assert stack_rows([m, m]).data == tuple(map(tuple, rows + rows))
        assert m.to_float() is m

    def test_zero_spellings_are_not_stored(self):
        m = mat_from_json([["0/3", "-0", "2", "0"]])
        assert m.nz == (((2, F(2)),),) and m.cols == 4
        assert mat_to_json(m) == [["0", "0", "2", "0"]]

    def test_underflow_to_zero_is_dropped(self):
        m = Mat.rational([[F(1, 10 ** 400), 1]]).to_float()
        assert m.nz == (((1, 1.0),),)
        assert scale(Mat.from_floats([[1e-300, 1.0]]), 1e-300).nz == (((1, 1e-300),),)

    @pytest.mark.parametrize("mode", ["auto", "pruned", "faithful"])
    def test_compiled_bench_grids_keep_the_invariant(self, mode):
        sys.path.insert(0, str(ROOT / "bench"))
        try:
            import workloads
        finally:
            sys.path.remove(str(ROOT / "bench"))
        from splineformer.compiler import (CompileOptions, ResourceLimitError,
                                           build_eps2, compile_autoregressive,
                                           compile_spline)
        from splineformer.spline import grid_from_json
        docs = [(spec, masked) for _, masked, spec in workloads.SUITE]
        docs += [(workloads.GRID_2X2, False), (workloads.GRID_MASKED, True)]
        encoders = [build_eps2(n, p, CompileOptions(mode=mode))
                    for n, p, _ in workloads.EPS2_CASES]
        for spec, masked in docs:
            for compile_fn in (compile_spline, compile_autoregressive)[:1 + masked]:
                try:
                    encoders.append(compile_fn(grid_from_json(spec), CompileOptions(mode=mode)))
                except ResourceLimitError:
                    assert mode == "faithful"
        mats = 0
        for enc in encoders:
            for blk in enc.blocks:
                for h in blk.attn.heads:
                    for m in (h.a_q, h.b_q, h.a_k, h.b_k, h.a_v, h.b_v):
                        assert_stored_sparse(m)
                        mats += 1
                for a, b in blk.ffn.layers:
                    assert_stored_sparse(a)
                    assert_stored_sparse(b)
                    mats += 2
        assert mats > 100
