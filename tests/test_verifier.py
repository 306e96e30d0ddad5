import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from splineformer import verifier
from splineformer.compiler import CompileOptions, build_eps2, compile_spline
from splineformer.spline import PBForm, Polynomial, SplineGrid, grid_from_json
from splineformer.tensor import FLOAT, Mat, add, matmul, stack_rows
from splineformer.transformer import (Activation, EncoderBlock,
                                      EncoderModel, FeedForwardNet,
                                      MultiheadAttention, _walk, attention_head,
                                      blocks_to_float, eval_encoder, eval_multihead,
                                      softplus)
from splineformer.verifier import (PASS_COLUMNS, _chunks, _forward_diff_degree,
                                   autoregressive_check,
                                   estimate_degree, oracle_equiv,
                                   random_fraction, random_rational_mat,
                                   smooth_convergence_table,
                                   smooth_swap, softmax_probability_check,
                                   softplus_error_bound, trial_rng)
from reference import (FnModel, apply_mask, broadcast_cols, identity_ffn, relu,
                       max_abs, replace_head, softmax_columns, sub, transpose)
from test_transformer import (cloned_chain, group_count, random_chain, reference_ffn,
                              smooth_chain, sparse_random_mat)


def x(i, j=1):
    return Polynomial.variable(i, j)


def cubic_head(masked=False):
    one, zero = Mat.rational([[1]]), Mat.rational([[0]])
    return attention_head(a_q=one, b_q=zero, a_k=one, b_k=zero, a_v=one, b_v=zero,
                          masked=masked)


@pytest.fixture(scope="module")
def compiled_square():
    g = SplineGrid(1, 1, ((PBForm.of_poly(x(1).mul(x(1))),),))
    return g, compile_spline(g, CompileOptions(mode="pruned"))


@pytest.fixture(scope="module")
def compiled_cube():
    from splineformer.spline import Monomial
    g = SplineGrid(1, 1, ((PBForm.of_poly(Polynomial.from_terms(
        {Monomial.from_dict({(1, 1): 3}): F(1)})),),))
    return g, compile_spline(g, CompileOptions(mode="pruned"))


class TestOracleEquiv:
    def test_cube_exact(self, compiled_cube):
        g, c = compiled_cube
        rep = oracle_equiv(c, g, 1000, 42)
        assert rep.exact and rep.max_abs_error == 0
        # spot check by hand at x = 2
        assert c(Mat.rational([[2]])).at(0, 0) == 8

    def test_corruption_detected_with_witness(self, compiled_square):
        g, c = compiled_square
        bad = _corrupt_first_nonffn_weight(c.blocks)
        rep = oracle_equiv(EncoderModel(bad), g, 100, 0)
        assert not rep.exact
        assert rep.first_failure is not None
        X, want, got = rep.first_failure
        assert want != got

    def test_zero_vs_zero(self):
        g = SplineGrid(1, 1, ((PBForm.of_poly(Polynomial.from_terms({})),),))
        c = compile_spline(g)
        rep = oracle_equiv(c, g, 100, 3)
        assert rep.exact

    def test_deterministic_given_seed(self, compiled_cube):
        g, c = compiled_cube
        a = oracle_equiv(c, g, 50, 7).to_json()
        b = oracle_equiv(c, g, 50, 7).to_json()
        assert a == b

    def test_every_weight_entry_live(self, compiled_square):
        # +1 on any single weight entry must break exactness
        g, c = compiled_square
        total = 0
        for bi, blk in enumerate(c.blocks):
            for hi, head in enumerate(blk.attn.heads):
                for field in ("a_q", "b_q", "a_k", "b_k", "a_v", "b_v"):
                    m = getattr(head, field)
                    for r in range(m.rows):
                        for cc in range(m.cols):
                            bad = _bump_head_entry(c.blocks, bi, hi, field, r, cc)
                            rep = oracle_equiv(EncoderModel(bad), g, 40, 5)
                            assert not rep.exact, (bi, hi, field, r, cc)
                            total += 1
            for li, (a, b) in enumerate(blk.ffn.layers):
                for which in (0, 1):
                    m = (a, b)[which]
                    for r in range(m.rows):
                        for cc in range(m.cols):
                            bad = _bump_ffn_entry(c.blocks, bi, li, which, r, cc)
                            rep = oracle_equiv(EncoderModel(bad), g, 40, 5)
                            assert not rep.exact, (bi, li, which, r, cc)
                            total += 1
        # one block reading the raw 1 x 1 input: two product heads of six
        # 1 x 1 maps each, and a net of one 1 x 2 layer and its bias
        assert total == 15


def _bump(m: Mat, r: int, c: int) -> Mat:
    data = [list(row) for row in m.data]
    data[r][c] = data[r][c] + 1
    return Mat.rational(data)


def _bump_head_entry(blocks, bi, hi, field, r, c):
    out = []
    for i, blk in enumerate(blocks):
        if i != bi:
            out.append(blk)
            continue
        heads = list(blk.attn.heads)
        heads[hi] = replace(heads[hi], **{field: _bump(getattr(heads[hi], field), r, c)})
        out.append(EncoderBlock(MultiheadAttention.of(tuple(heads)), blk.ffn, blk.residual))
    return tuple(out)


def _bump_ffn_entry(blocks, bi, li, which, r, c):
    out = []
    for i, blk in enumerate(blocks):
        if i != bi:
            out.append(blk)
            continue
        layers = list(blk.ffn.layers)
        a, b = layers[li]
        layers[li] = (_bump(a, r, c), b) if which == 0 else (a, _bump(b, r, c))
        out.append(EncoderBlock(blk.attn, FeedForwardNet(tuple(layers)), blk.residual))
    return tuple(out)


def _corrupt_first_nonffn_weight(blocks):
    return _bump_head_entry(blocks, 0, 0, "a_v", 0, 0)


class TestAutoregressiveCheck:
    def test_masked_head_passes(self):
        h = cubic_head(masked=True)
        h = replace(h, b_q=Mat.rational([[0, 0, 0]]), b_k=Mat.rational([[0, 0, 0]]),
                    b_v=Mat.rational([[0, 0, 0]]))
        model = FnModel(lambda X: eval_multihead(h, X), 1, 3)
        assert autoregressive_check(model, 100, 1).passed

    def test_unmasked_fails_with_witness(self):
        h = cubic_head()
        h = replace(h, b_q=Mat.rational([[0, 0]]), b_k=Mat.rational([[0, 0]]),
                    b_v=Mat.rational([[0, 0]]))
        model = FnModel(lambda X: eval_multihead(h, X), 1, 2)
        rep = autoregressive_check(model, 100, 2)
        assert not rep.passed
        X, Xp, j, col = rep.witness
        assert col <= j
        a, b = model(X), model(Xp)
        assert a.at(0, col - 1) != b.at(0, col - 1)

    def test_columnwise_map_passes(self):
        model = FnModel(lambda X: X, 2, 2)
        assert autoregressive_check(model, 50, 3).passed

    def test_needs_two_columns(self):
        with pytest.raises(ValueError):
            autoregressive_check(FnModel(lambda X: X, 2, 1), 10, 0)


class TestEstimateDegree:
    def test_known_polynomial_every_trial(self):
        # degree-4 polynomial: every trial must report exactly 4
        poly = Polynomial.from_terms({
            __import__("splineformer.spline", fromlist=["Monomial"]).Monomial.from_dict(
                {(1, 1): 4}): F(1),
            __import__("splineformer.spline", fromlist=["Monomial"]).Monomial.from_dict(
                {(1, 1): 1}): F(-2)})
        model = FnModel(lambda X: Mat.rational([[poly.eval(X)]]), 1, 1)
        rep = estimate_degree(model, max_deg=6, trials=25, seed=4, bound=4)
        assert all(d == 4 for d in rep.per_trial)
        assert rep.modal_degree == 4 and rep.bound_satisfied

    def test_affine_degree_one(self):
        model = FnModel(lambda X: Mat.rational([[3 * X.at(0, 0) + 1]]), 1, 1)
        rep = estimate_degree(model, max_deg=4, trials=25, seed=5)
        assert rep.modal_degree == 1

    def test_constant_degree_zero(self):
        model = FnModel(lambda X: Mat.rational([[7]]), 1, 1)
        rep = estimate_degree(model, max_deg=4, trials=10, seed=6)
        assert rep.modal_degree == 0

    def test_cubic_attention_head(self):
        h = cubic_head()
        model = FnModel(lambda X: eval_multihead(h, X), 1, 1)
        rep = estimate_degree(model, max_deg=5, trials=25, seed=7, bound=3)
        assert rep.modal_degree == 3 and rep.bound_satisfied

    def test_exceeding_max_deg_reported_not_raised(self):
        # degree 4 with max_deg 2: censored as max_deg + 1, no exception
        model = FnModel(lambda X: Mat.rational([[X.at(0, 0) ** 4]]), 1, 1)
        rep = estimate_degree(model, max_deg=2, trials=10, seed=8)
        assert rep.modal_degree == 3  # >= max_deg marker

    def test_single_encoder_block_within_cubic_bound(self):
        rng = random.Random(20)
        h = attention_head(
            a_q=random_rational_mat(rng, 1, 2), b_q=random_rational_mat(rng, 1, 1),
            a_k=random_rational_mat(rng, 1, 2), b_k=random_rational_mat(rng, 1, 1),
            a_v=random_rational_mat(rng, 1, 2), b_v=random_rational_mat(rng, 1, 1))
        ffn = FeedForwardNet((
            (random_rational_mat(rng, 2, 1), random_rational_mat(rng, 2, 1)),
            (random_rational_mat(rng, 1, 2), random_rational_mat(rng, 1, 1))))
        blk = EncoderBlock(MultiheadAttention.of((h,)), ffn)
        rep = estimate_degree(EncoderModel([blk]), max_deg=5, trials=50, seed=21,
                              bound=3)
        assert rep.bound_satisfied


def full_table_degree(values):
    """The highest level of the whole forward-difference table with a
    nonzero entry."""
    rows = [list(v) for v in values]
    deg = level = 0
    while len(rows) > 1:
        rows = [[b - a for a, b in zip(r1, r2)] for r1, r2 in zip(rows, rows[1:])]
        level += 1
        if any(v != 0 for row in rows for v in row):
            deg = level
    return deg


class TestForwardDifferences:
    @staticmethod
    def polynomial_values(coefs, points):
        """Per line point t, each entry's polynomial in t."""
        return [[sum(c * t ** e for e, c in enumerate(cs)) for cs in coefs]
                for t in range(points)]

    def test_equals_full_table(self):
        rng = random.Random("forward-differences")
        cases = [[[F(5)]], [[F(3), F(-1)]] * 5, [[F(0), F(0)]] * 6,
                 # levels with a zero row that are not all zero
                 [[F(1)], [F(1)], [F(2)]], [[F(0), F(1)], [F(0), F(1)], [F(1), F(1)], [F(0), F(1)]]]
        for max_deg in range(7):
            width, points = rng.randint(1, 3), max_deg + 2
            for k in range(max_deg + 2):
                coefs = [[random_fraction(rng) for _ in range(k + 1)] for _ in range(width)]
                cases.append(self.polynomial_values(coefs, points))
            cases.append([[random_fraction(rng) for _ in range(width)] for _ in range(points)])
        for values in cases:
            assert _forward_diff_degree(values, len(values) - 2) == full_table_degree(values)

    def test_edge_sequences(self):
        assert _forward_diff_degree([[F(5)]], -1) == 0
        assert _forward_diff_degree([[F(3), F(-1)]] * 5, 3) == 0
        assert _forward_diff_degree([[F(0), F(0)]] * 6, 4) == 0
        assert _forward_diff_degree([[F(1)], [F(1)], [F(2)]], 1) == 2
        for max_deg in range(5):
            # degree max_deg + 1 is censored at max_deg + 1
            coefs = [[F(0)] * (max_deg + 1) + [F(2, 3)], [F(1)]]
            values = self.polynomial_values(coefs, max_deg + 2)
            assert _forward_diff_degree(values, max_deg) == max_deg + 1


class TestSmoothSwap:
    def test_swap_replaces_attention_only(self, compiled_cube):
        _, c = compiled_cube
        sw = smooth_swap(c, softplus(100.0))
        # the activation stands in for every head's own; the weights,
        # feed-forward nets included, are untouched
        assert sw.activation == softplus(100.0)
        assert sw.blocks == c.blocks

    def test_swap_back_bit_exact(self, compiled_cube):
        _, c = compiled_cube
        sw = smooth_swap(c, softplus(10.0))
        assert sw.blocks == c.blocks
        assert sw.activation == softplus(10.0)

    def test_swap_requires_relu(self, compiled_cube):
        _, c = compiled_cube
        sw = smooth_swap(c, softplus(10.0))
        with pytest.raises(ValueError):
            smooth_swap(sw, softplus(10.0))

    def test_swapped_model_is_refused_by_its_stand_in(self, compiled_cube):
        # the swapped model keeps the ReLU weights, so its stand-in is what is refused
        _, c = compiled_cube
        xs = [random_rational_mat(trial_rng(3, t), 1, 1) for t in range(3)]
        for activation in (softplus(10.0), Activation("softmax")):
            sw = smooth_swap(c, activation)
            message = f"smooth swap expects a relu-activated model, found {activation.kind} attention"
            for refused in (lambda: smooth_swap(sw, softplus(1.0)),
                            lambda: smooth_convergence_table(sw, xs, [1.0, 10.0])):
                with pytest.raises(ValueError) as err:
                    refused()
                assert str(err.value) == message
            assert softplus_error_bound(sw, xs[0], 10.0) == softplus_error_bound(c, xs[0], 10.0)
        # a ReLU stand-in is the weights' own activation
        relu_sw = smooth_swap(c, Activation("relu"))
        assert smooth_convergence_table(relu_sw, xs, [1.0]) == smooth_convergence_table(c, xs, [1.0])

    def test_softmax_on_masked_zeroes_lower_triangle(self):
        h = cubic_head(masked=True)
        h = replace(h, b_q=Mat.rational([[0, 0]]), b_k=Mat.rational([[0, 0]]),
                    b_v=Mat.rational([[0, 0]]))
        blk = EncoderBlock(MultiheadAttention.of((h,)), identity_ffn(1))
        xs = [random_rational_mat(trial_rng(9, t), 1, 2) for t in range(20)]
        checks = softmax_probability_check([blk], xs)
        assert checks["probability_columns"] and checks["masked_zeros"]

    def test_convergence_table_monotone(self):
        blk = EncoderBlock(MultiheadAttention.of((cubic_head(),)), identity_ffn(1))
        xs = [random_rational_mat(trial_rng(10, t), 1, 1) for t in range(40)]
        xs.append(Mat.rational([[F(1, 7)]]))
        betas = [10.0, 20.0, 40.0, 80.0]
        rows = smooth_convergence_table([blk], xs, betas)
        errs = [r["max_abs_error"] for r in rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= a

    def test_infinite_beta_sentinel(self):
        blk = EncoderBlock(MultiheadAttention.of((cubic_head(),)), identity_ffn(1))
        xs = [Mat.rational([[F(1, 2)]])]
        rows = smooth_convergence_table([blk], xs, [10.0, math.inf])
        assert rows[-1] == {"beta": "inf", "max_abs_error": 0.0}

    def test_empty_beta_list(self):
        blk = EncoderBlock(MultiheadAttention.of((cubic_head(),)), identity_ffn(1))
        assert smooth_convergence_table([blk], [], []) == []

    def test_error_bound_holds(self, compiled_cube):
        _, c = compiled_cube
        xs = [random_rational_mat(trial_rng(11, t), 1, 1) for t in range(20)]
        relu_blocks = blocks_to_float(c.blocks)
        for beta in (10.0, 100.0):
            sw = smooth_swap(c, softplus(beta))
            for X in xs:
                want = eval_encoder(relu_blocks, X.to_float())
                got = sw(X)
                err = max(abs(a - b) for ra, rb in zip(got.data, want.data)
                          for a, b in zip(ra, rb))
                assert err <= softplus_error_bound(c, X, beta)


# -- the observers against the dense walks they replaced -------------------------

def _abs_mat(m):
    return Mat.dense(FLOAT, tuple(tuple(abs(v) for v in row) for row in m.data))


def dense_error_bound(blocks, x, beta):
    """softplus_error_bound as a dense head-by-head walk on a float copy."""
    gap = math.log(2) / beta
    cur = x.to_float()
    err = Mat.zeros(cur.rows, cur.cols, FLOAT)
    for blk in blocks_to_float(blocks):
        outs, errs = [], []
        for h in blk.attn.heads:
            q = add(matmul(h.a_q, cur), h.b_q)
            k = add(matmul(h.a_k, cur), h.b_k)
            v = add(matmul(h.a_v, cur), h.b_v)
            eq = matmul(_abs_mat(h.a_q), err)
            ek = matmul(_abs_mat(h.a_k), err)
            ev = matmul(_abs_mat(h.a_v), err)
            s = matmul(transpose(k), q)
            es = add(add(matmul(transpose(_abs_mat(k)), eq),
                         matmul(transpose(ek), _abs_mat(q))),
                     matmul(transpose(ek), eq))
            if h.masked:
                act = relu(apply_mask(s))
                es = Mat.dense(FLOAT, tuple(
                    tuple((es.at(i, j) + gap) if i <= j else 0.0
                          for j in range(es.cols)) for i in range(es.rows)))
            else:
                act = relu(s)
                es = Mat.dense(FLOAT, tuple(tuple(e + gap for e in row) for row in es.data))
            outs.append(matmul(v, act))
            errs.append(add(matmul(ev, add(_abs_mat(act), es)),
                            matmul(_abs_mat(v), es)))
        h_out, e_out = stack_rows(outs), stack_rows(errs)
        last = len(blk.ffn.layers) - 1
        for i, (a, b) in enumerate(blk.ffn.layers):
            h_out = add(matmul(a, h_out), broadcast_cols(b, h_out.cols))
            e_out = matmul(_abs_mat(a), e_out)
            if i != last:
                h_out = relu(h_out)
        if blk.residual:
            h_out, e_out = add(h_out, cur), add(e_out, err)
        cur, err = h_out, e_out
    return max_abs(err)


def dense_probability_check(blocks, xs, tol):
    """softmax_probability_check as a dense head-by-head walk on a float
    copy; finiteness from the softmax-swapped model."""
    columns_ok = masked_zeros_ok = True
    for x in xs:
        cur = x.to_float()
        for blk in blocks_to_float(blocks):
            outs = []
            for h in blk.attn.heads:
                q = add(matmul(h.a_q, cur), h.b_q)
                k = add(matmul(h.a_k, cur), h.b_k)
                v = add(matmul(h.a_v, cur), h.b_v)
                s = matmul(transpose(k), q)
                probs = softmax_columns(apply_mask(s) if h.masked else s)
                for j in range(probs.cols):
                    col = probs.col_entries(j)
                    if not (abs(sum(col) - 1.0) <= tol and all(0 <= e <= 1 for e in col)):
                        columns_ok = False
                    if h.masked and any(probs.at(i, j) != 0.0 for i in range(j + 1, probs.rows)):
                        masked_zeros_ok = False
                outs.append(matmul(v, probs))
            cur = reference_ffn(blk.ffn, stack_rows(outs)) if not blk.residual else \
                add(reference_ffn(blk.ffn, stack_rows(outs)), cur)
    swapped = smooth_swap(blocks, Activation("softmax"))
    finite = all(math.isfinite(v) for x in xs for row in swapped(x).data for v in row)
    return {"finite_outputs": finite, "probability_columns": columns_ok,
            "masked_zeros": masked_zeros_ok}


CHAIN_SHAPES = [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)]


def chains(tag, d, m, count=3):
    """Random 4-block chains (plain, residual, masked, masked residual) and
    an input for each."""
    rng = random.Random(f"{tag}:{d}:{m}")
    for _ in range(count):
        n, p = rng.randint(1, 3), rng.randint(1, 3)
        yield random_chain(rng, n, p, d, m), sparse_random_mat(rng, n, p)


class TestObservedPasses:
    """The error bound and the probability check watch one kernel pass and
    must equal the dense walks bit for bit."""

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    def test_error_bound_equals_dense_walk(self, d, m):
        for blocks, x in chains("bound", d, m):
            for beta in (0.5, 10.0, 1000.0):
                want = dense_error_bound(blocks, x, beta)
                assert want > 0
                assert softplus_error_bound(blocks, x, beta) == want

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    def test_error_bound_of_grouped_heads(self, d, m):
        rng = random.Random(f"grouped-bound:{d}:{m}")
        for _ in range(2):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks, x = cloned_chain(rng, n, p, d, m), sparse_random_mat(rng, n, p)
            for beta in (0.5, 10.0, 1000.0):
                want = dense_error_bound(blocks, x, beta)
                assert want > 0
                assert softplus_error_bound(blocks, x, beta) == want

    def test_error_bound_of_compiled_chain(self):
        grid = grid_from_json({"n": 2, "p": 1, "grid": [[{"op": "poly", "terms": [
            {"coef": "-2/3", "exps": {"x_1_1": 3, "x_2_1": 2}}]}]]})
        compiled = compile_spline(grid, CompileOptions(mode="pruned"))
        assert len(compiled.blocks) >= 2
        for t in range(5):
            X = random_rational_mat(trial_rng(12, t), 2, 1)
            for beta in (10.0, 100.0):
                want = dense_error_bound(compiled.blocks, X, beta)
                assert softplus_error_bound(compiled, X, beta) == want

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    def test_probability_check_equals_dense_walk(self, d, m):
        rng = random.Random(f"columns:{d}:{m}")
        for blocks, x in chains("columns", d, m):
            xs = [x, sparse_random_mat(rng, x.rows, x.cols)]
            for tol in (1e-12, 1.5e-16, 0.0):
                want = dense_probability_check(blocks, xs, tol)
                assert softmax_probability_check(blocks, xs, tol) == want
                swapped = smooth_swap(blocks, Activation("softmax"))
                assert softmax_probability_check(swapped, xs, tol) == want

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    def test_probability_check_of_grouped_heads(self, d, m):
        # a group's heads share one activation block, checked once per layer
        rng = random.Random(f"grouped-columns:{d}:{m}")
        for _ in range(2):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks = cloned_chain(rng, n, p, d, m)
            xs = [sparse_random_mat(rng, n, p) for _ in range(2)]
            for tol in (1e-12, 1.5e-16, 0.0):
                assert softmax_probability_check(blocks, xs, tol) == \
                    dense_probability_check(blocks, xs, tol)

    def test_probability_check_once_per_group(self, monkeypatch):
        checked = []

        class Counting(verifier._ProbabilityColumns):
            def __call__(self, blk, q, k, v, acts):
                checked.append(len(acts))
                super().__call__(blk, q, k, v, acts)

        monkeypatch.setattr(verifier, "_ProbabilityColumns", Counting)
        blocks = build_eps2(2, 2, CompileOptions(mode="faithful")).blocks
        xs = [random_rational_mat(trial_rng(5, t), 2, 2) for t in range(2)]
        assert softmax_probability_check(blocks, xs) == dense_probability_check(blocks, xs, 1e-12)
        groups = [group_count(blk.attn) for blk in blocks]
        assert groups == [4, 43] and sum(len(blk.attn.heads) for blk in blocks) == 420
        # both inputs share one pass: one record per block and pass, holding
        # every group's activation rows
        assert checked == groups

    def test_probability_check_verdicts_vary(self):
        # at tol 0 some column sums miss 1 by rounding; at 1e-12 none does
        verdicts = set()
        for d, m in CHAIN_SHAPES:
            for blocks, x in chains("columns", d, m):
                verdicts.add(softmax_probability_check(blocks, [x], 0.0)["probability_columns"])
                assert softmax_probability_check(blocks, [x])["probability_columns"]
        assert verdicts == {False, True}

    def test_probability_check_sees_overflow(self):
        # the value map overflows to inf, so the outputs are not finite
        head = cubic_head()
        head = replace(head, a_v=Mat.rational([[F(10) ** 300]]))
        blocks = [EncoderBlock(MultiheadAttention.of((head,)), identity_ffn(1))]
        xs = [Mat.rational([[F(10) ** 10]]), Mat.rational([[F(1, 2)]])]
        want = dense_probability_check(blocks, xs, 1e-12)
        assert want["finite_outputs"] is False
        assert softmax_probability_check(blocks, xs) == want

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    def test_swapped_passes_equal_smooth_model(self, d, m):
        for blocks, x in chains("swap", d, m):
            relu_float = blocks_to_float(blocks)
            want_base = eval_encoder(relu_float, x.to_float())
            for beta in (1.0, 10.0, 100.0):
                got = _walk(blocks, x.to_float(), activations=(softplus(beta),))
                want = EncoderModel(blocks, softplus(beta))(x)
                assert got == want
                gap = max(abs(a - b) for ra, rb in zip(want.data, want_base.data)
                          for a, b in zip(ra, rb))
                assert smooth_convergence_table(blocks, [x], [beta]) == [
                    {"beta": beta, "max_abs_error": gap}]


class TestBatchedSmoothing:
    """The smoothing checks read their inputs a chunk at a time and run
    each chunk as one batched pass; their reports must equal those of
    passes run input by input."""

    def test_chunks_are_cut_as_read(self):
        drawn = []

        def draws(count, p):
            for t in range(count):
                drawn.append(t)
                yield Mat.zeros(2, p)

        chunks = _chunks(draws(2 * PASS_COLUMNS // 8 + 5, 2), 4)
        assert len(next(chunks)) == PASS_COLUMNS // 8 == len(drawn)
        assert [len(c) for c in chunks] == [PASS_COLUMNS // 8, 5]
        # an input wider than a pass still takes one of its own
        assert [len(c) for c in _chunks(draws(3, PASS_COLUMNS + 1), 1)] == [1, 1, 1]

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 3)])
    def test_table_equals_passes_one_by_one(self, d, m):
        rng = random.Random(f"batched-table:{d}:{m}")
        betas = [10.0, math.inf, 0.5, 10.0, 1e6]
        for blocks, x in chains("batched-table", d, m, count=2):
            xs = [sparse_random_mat(rng, x.rows, x.cols) for _ in range(PASS_COLUMNS // 3 + 5)]
            base = [_walk(blocks, x.to_float()) for x in xs]
            want = [{"beta": "inf", "max_abs_error": 0.0} if beta == math.inf else
                    {"beta": beta, "max_abs_error": max(
                        max_abs(sub(_walk(blocks, x.to_float(), activations=(softplus(beta),)), b))
                        for x, b in zip(xs, base))} for beta in betas]
            assert smooth_convergence_table(blocks, xs, betas) == want
            assert smooth_convergence_table(blocks, iter(xs), betas) == want

    @pytest.mark.parametrize("d,m", [(1, 1), (2, 3)])
    def test_probability_check_equals_dense_walk(self, d, m):
        rng = random.Random(f"batched-columns:{d}:{m}")
        for blocks, x in chains("batched-columns", d, m, count=1):
            xs = [sparse_random_mat(rng, x.rows, x.cols) for _ in range(PASS_COLUMNS // x.cols + 2)]
            for tol in (1e-12, 0.0):
                assert softmax_probability_check(blocks, iter(xs), tol) == \
                    dense_probability_check(blocks, xs, tol)


class TestSmoothModelPass:
    """A swapped model walks the float image of the original weights with
    the activation standing in; it must equal eval_encoder over a swapped
    float copy, which it never builds."""

    @pytest.mark.parametrize("d,m", CHAIN_SHAPES)
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_equals_walk_over_float_copy(self, d, m, scaled):
        for blocks, x in chains("smooth-model", d, m, count=2):
            if scaled:
                blocks = [EncoderBlock(MultiheadAttention.of(tuple(
                    replace_head(h, scaled=True) for h in blk.attn.heads)), blk.ffn, blk.residual)
                    for blk in blocks]
            for activation in (softplus(0.5), softplus(10.0), softplus(1e6), Activation("softmax")):
                sw = smooth_swap(blocks, activation)
                copy = tuple(smooth_chain(blocks, activation, scaled))
                assert sw(x) == eval_encoder(copy, x.to_float())
                assert sw.blocks == tuple(blocks)  # the pass made no copy
                assert sw.activation == activation

    def test_compiled_model(self, compiled_cube):
        _, c = compiled_cube
        sw = smooth_swap(c, softplus(100.0))
        copy = smooth_chain(c.blocks, softplus(100.0), False)
        for t in range(5):
            x = random_rational_mat(trial_rng(12, t), 1, 1)
            assert sw(x) == eval_encoder(copy, x.to_float())
