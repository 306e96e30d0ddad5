import math
import random
from dataclasses import replace
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splineformer.compiler import CompileOptions, build_eps2, compile_spline
from splineformer.spline import grid_from_json
from splineformer.tensor import (FLOAT, BackendError, DegenerateColumnError, Mat, ShapeError,
                                 add, matmul, scale, stack_rows)
from splineformer.transformer import (Activation, DecoderBlock,
                                      EncDecStack, EncDecStage, EncoderBlock,
                                      FeedForwardNet,
                                      MultiheadAttention, attention_head, blocks_from_json,
                                      blocks_to_float, blocks_to_json,
                                      eval_encdec,
                                      eval_encoder, eval_ffn, eval_multihead,
                                      eval_multihead_encdec,
                                      softplus, _attend, _walk)
from splineformer.transformer import EncoderModel, _image
from splineformer.verifier import random_rational_mat, trial_rng
from reference import (apply_mask, broadcast_cols, identity_ffn, per_head_json, relu,
                       replace_head, softmax_columns,
                       softplus_beta, transpose, unshared_walk)


def rmat(rows):
    return Mat.rational(rows)


def scalar_head(**kw):
    base = dict(a_q=rmat([[1]]), b_q=rmat([[0]]), a_k=rmat([[1]]), b_k=rmat([[0]]),
                a_v=rmat([[1]]), b_v=rmat([[0]]))
    base.update(kw)
    return attention_head(**base)


@st.composite
def drawn_layers(draw):
    """A layer of one to five heads over one to three drawn attention
    patterns, so that heads share groups, with drawn flags; heads drawn in
    floats make a mixed layer, stored as its float image."""
    n, n_q, p, m = (draw(st.integers(1, 3)) for _ in range(4))
    entries = st.one_of(st.just(F(0)), st.builds(F, st.integers(-5, 5), st.integers(1, 4)))

    def mat(rows, cols):
        return Mat.rational(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                          min_size=rows, max_size=rows)))

    patterns = []
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, 2))
        patterns.append(dict(a_q=mat(d, n_q), b_q=mat(d, p), a_k=mat(d, n), b_k=mat(d, p),
                             masked=draw(st.booleans()), scaled=draw(st.booleans()),
                             activation=draw(st.sampled_from(KERNEL_ACTIVATIONS))))
    heads = []
    for _ in range(draw(st.integers(1, 5))):
        head = attention_head(a_v=mat(m, n), b_v=mat(m, p), **draw(st.sampled_from(patterns)))
        heads.append(head.to_float() if draw(st.booleans()) else head)
    return MultiheadAttention.of(heads)


def random_head(rng, n, p, masked=False):
    return attention_head(
        a_q=random_rational_mat(rng, 1, n), b_q=random_rational_mat(rng, 1, p),
        a_k=random_rational_mat(rng, 1, n), b_k=random_rational_mat(rng, 1, p),
        a_v=random_rational_mat(rng, 1, n), b_v=random_rational_mat(rng, 1, p),
        masked=masked)


class TestAttention:
    def test_scalar_cubic(self):
        h = scalar_head()
        for x in (F(2), F(-3), F(5, 7)):
            out = eval_multihead(h, rmat([[x]]))
            assert out.at(0, 0) == x * max(x * x, F(0))

    def test_copy_head_entry(self):
        # A_V = E_{1,i^}, B_K = E_{1,j^}, B_Q = E_{1,j}: output (1,j) is x_{i^,j^}
        n, p = 2, 3
        h = attention_head(
            a_q=Mat.zeros(1, n), b_q=Mat.basis(1, p, 1, 2),
            a_k=Mat.zeros(1, n), b_k=Mat.basis(1, p, 1, 3),
            a_v=Mat.basis(1, n, 1, 2), b_v=Mat.zeros(1, p))
        x = rmat([[1, 2, 3], [4, 5, 6]])
        out = eval_multihead(h, x)
        assert out.at(0, 1) == 6  # x_{2,3} lands in column 2
        assert out.at(0, 0) == 0 and out.at(0, 2) == 0

    def test_zero_parameters(self):
        h = attention_head(a_q=Mat.zeros(1, 2), b_q=Mat.zeros(1, 2),
                           a_k=Mat.zeros(1, 2), b_k=Mat.zeros(1, 2),
                           a_v=Mat.zeros(1, 2), b_v=Mat.zeros(1, 2))
        assert eval_multihead(h, rmat([[1, 2], [3, 4]])) == Mat.zeros(1, 2)

    def test_softmax_on_rational_rejected(self):
        h = scalar_head(activation=Activation("softmax"))
        with pytest.raises(BackendError):
            eval_multihead(h, rmat([[1]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            eval_multihead(scalar_head(), rmat([[1], [2]]))

    def test_scaled_needs_float(self):
        h = scalar_head(scaled=True)
        with pytest.raises(BackendError):
            eval_multihead(h, rmat([[1]]))
        fh = attention_head(a_q=Mat.from_floats([[1.0]]), b_q=Mat.from_floats([[0.0]]),
                            a_k=Mat.from_floats([[1.0]]), b_k=Mat.from_floats([[0.0]]),
                            a_v=Mat.from_floats([[1.0]]), b_v=Mat.from_floats([[0.0]]),
                            scaled=True)
        out = eval_multihead(fh, Mat.from_floats([[2.0]]))
        assert out.at(0, 0) == 2.0 * max(2.0 * 2.0, 0.0)  # d=1: scale is 1


class TestEncDecAttention:
    def test_query_independent_when_aq_zero(self):
        rng = random.Random(0)
        h = attention_head(
            a_q=Mat.zeros(1, 1), b_q=rmat([[2, 1]]),
            a_k=random_rational_mat(rng, 1, 2), b_k=random_rational_mat(rng, 1, 2),
            a_v=random_rational_mat(rng, 1, 2), b_v=random_rational_mat(rng, 1, 2))
        x = random_rational_mat(rng, 2, 2)
        y1 = random_rational_mat(rng, 1, 2)
        y2 = random_rational_mat(rng, 1, 2)
        assert eval_multihead_encdec(h, x, y1) == eval_multihead_encdec(h, x, y2)

    def test_scalar_case(self):
        h = scalar_head()
        for x, y in [(F(2), F(3)), (F(-1), F(4)), (F(3), F(-2))]:
            out = eval_multihead_encdec(h, rmat([[x]]), rmat([[y]]))
            assert out.at(0, 0) == x * max(x * y, F(0))

    def test_zero_inputs(self):
        h = scalar_head(b_v=rmat([[0]]))
        assert eval_multihead_encdec(h, rmat([[0]]), rmat([[5]])) == Mat.zeros(1, 1)


class TestMultihead:
    def test_single_head_matches_attention(self):
        rng = random.Random(1)
        h = random_head(rng, 2, 2)
        mh = MultiheadAttention.of((h,))
        for t in range(20):
            x = random_rational_mat(trial_rng(0, t), 2, 2)
            assert eval_multihead(mh, x) == eval_multihead(h, x)

    def test_two_heads_row_order(self):
        rng = random.Random(2)
        h1, h2 = random_head(rng, 2, 2), random_head(rng, 2, 2)
        mh = MultiheadAttention.of((h1, h2))
        x = random_rational_mat(rng, 2, 2)
        out = eval_multihead(mh, x)
        assert out.rows == 2
        assert out.data[0] == eval_multihead(h1, x).data[0]
        assert out.data[1] == eval_multihead(h2, x).data[0]

    def test_all_zero_heads(self):
        z = attention_head(a_q=Mat.zeros(1, 2), b_q=Mat.zeros(1, 2),
                           a_k=Mat.zeros(1, 2), b_k=Mat.zeros(1, 2),
                           a_v=Mat.zeros(1, 2), b_v=Mat.zeros(1, 2))
        mh = MultiheadAttention.of((z, z, z))
        assert eval_multihead(mh, rmat([[1, 2], [3, 4]])) == Mat.zeros(3, 2)

    @pytest.mark.parametrize("fault,message", [
        ({"a_k": rmat([[1], [1]])}, "query/key maps"),  # d differs among the Q/K maps
        ({"b_k": rmat([[0, 0]])}, "bias matrices"),  # p differs among the biases
        ({"a_v": rmat([[1], [1]])}, "value maps"),  # A_V and B_V differ in rows
        ({"a_v": rmat([[1, 1]])}, "key and value maps")])  # A_K and A_V read different inputs
    def test_head_shape_faults(self, fault, message):
        with pytest.raises(ShapeError, match=message):
            scalar_head(**fault)

    def test_of_takes_one_head_layers(self):
        two = MultiheadAttention.of((scalar_head(), scalar_head(a_v=rmat([[2]]))))
        with pytest.raises(ValueError, match="one-head layers"):
            MultiheadAttention.of((two,))
        with pytest.raises(ValueError, match="at least one head"):
            MultiheadAttention.of(())

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(layer=drawn_layers())
    def test_of_heads_is_the_layer(self, layer):
        assert all(len(h.table) == 1 for h in layer.heads)
        assert MultiheadAttention.of(layer.heads) == layer


def sparse_random_mat(rng, rows, cols):
    """Random rationals with about half the entries zero."""
    return Mat.rational([[random_fraction_or_zero(rng) for _ in range(cols)]
                         for _ in range(rows)])


def random_fraction_or_zero(rng):
    return F(rng.randint(-10, 10), rng.randint(1, 7)) if rng.random() < 0.5 else F(0)


def random_multihead(rng, n, n_q, p, m, masked, head_dim=None):
    heads = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(1, 3) if head_dim is None else head_dim
        heads.append(attention_head(
            a_q=sparse_random_mat(rng, d, n_q), b_q=sparse_random_mat(rng, d, p),
            a_k=sparse_random_mat(rng, d, n), b_k=sparse_random_mat(rng, d, p),
            a_v=sparse_random_mat(rng, m, n), b_v=sparse_random_mat(rng, m, p),
            masked=masked))
    return MultiheadAttention.of(tuple(heads))


def reference_attention(mh, x, y):
    """V . act(K^T Q) per head, stacked, from tensor primitives alone."""
    outs = []
    for h in mh.heads:
        q = add(matmul(h.a_q, y), h.b_q)
        k = add(matmul(h.a_k, x), h.b_k)
        v = add(matmul(h.a_v, x), h.b_v)
        s = matmul(transpose(k), q)
        d, masked, scaled, activation = h.groups[0]
        if scaled:
            s = scale(s, 1.0 / math.sqrt(d))
        if masked:
            s = apply_mask(s)
        if activation.kind == "relu":
            a = relu(s)
        elif activation.kind == "softmax":
            a = softmax_columns(s)
        else:
            a = softplus_beta(s, activation.beta)
        outs.append(matmul(v, a))
    return stack_rows(outs)


def float_heads(mh, activation, scaled):
    return MultiheadAttention.of(tuple(
        attention_head(a_q=h.a_q.to_float(), b_q=h.b_q.to_float(),
                       a_k=h.a_k.to_float(), b_k=h.b_k.to_float(),
                       a_v=h.a_v.to_float(), b_v=h.b_v.to_float(),
                       activation=activation, masked=h.masked, scaled=scaled)
        for h in mh.heads))


def max_gap(a, b):
    return max(abs(u - v) for ra, rb in zip(a.data, b.data) for u, v in zip(ra, rb))


KERNEL_CASES = [(d_in, m, masked, cross)
                for d_in in (1, 2, 3) for m in (1, 2, 3)
                for masked in (False, True) for cross in (False, True)]


class TestStackedKernel:
    """The stacked-head kernel against the per-head definition."""

    @staticmethod
    def inputs(rng, n, n_q, p, cross):
        x = sparse_random_mat(rng, n, p)
        return x, (sparse_random_mat(rng, n_q, p) if cross else x)

    @staticmethod
    def evaluate(mh, x, y, cross):
        return eval_multihead_encdec(mh, x, y) if cross else eval_multihead(mh, x)

    @pytest.mark.parametrize("n,m,masked,cross", KERNEL_CASES)
    def test_relu_rational_exact(self, n, m, masked, cross):
        rng = random.Random(f"kernel:{n}:{m}:{masked}:{cross}")
        for _ in range(5):
            p = rng.randint(1, 3)
            n_q = rng.randint(1, 3) if cross else n
            mh = random_multihead(rng, n, n_q, p, m, masked)
            x, y = self.inputs(rng, n, n_q, p, cross)
            got = self.evaluate(mh, x, y, cross)
            assert got.backend == "rational"
            assert got == reference_attention(mh, x, y)

    @pytest.mark.parametrize("n,m,masked,cross", KERNEL_CASES)
    def test_smooth_float_close(self, n, m, masked, cross):
        rng = random.Random(f"kernel-float:{n}:{m}:{masked}:{cross}")
        for activation in (Activation("softmax"), softplus(10.0)):
            for scaled in (False, True):
                p = rng.randint(1, 3)
                n_q = rng.randint(1, 3) if cross else n
                mh = float_heads(random_multihead(rng, n, n_q, p, m, masked),
                                 activation, scaled)
                x, y = self.inputs(rng, n, n_q, p, cross)
                x, y = x.to_float(), y.to_float()
                got = self.evaluate(mh, x, y, cross)
                assert got.backend == "float"
                assert max_gap(got, reference_attention(mh, x, y)) <= 1e-12

    @pytest.mark.parametrize("cross", [False, True])
    def test_rational_heads_reject_float_input(self, cross):
        rng = random.Random(20)
        mh = random_multihead(rng, 2, 2, 2, 1, False)
        x, y = self.inputs(rng, 2, 2, 2, cross)
        with pytest.raises(BackendError):
            self.evaluate(mh, x.to_float(), y.to_float(), cross)

    @pytest.mark.parametrize("cross", [False, True])
    def test_rational_attention_is_relu_only(self, cross):
        rng = random.Random(21)
        mh = random_multihead(rng, 2, 2, 2, 1, False)
        for activation in (Activation("softmax"), softplus(10.0)):
            smooth = MultiheadAttention.of(
                mh.heads[:-1] + (replace_head(mh.heads[-1], activation=activation),))
            x, y = self.inputs(rng, 2, 2, 2, cross)
            with pytest.raises(BackendError):
                self.evaluate(smooth, x, y, cross)

    def test_stacked_maps_are_not_compared(self):
        rng = random.Random(22)
        mh = random_multihead(rng, 2, 2, 2, 1, False)
        twin = MultiheadAttention.of(mh.heads)
        eval_multihead(mh, sparse_random_mat(rng, 2, 2))
        assert mh == twin and hash(mh) == hash(twin)


def reference_ffn(ffn, h):
    """The net from tensor primitives alone."""
    last = len(ffn.layers) - 1
    for i, (a, b) in enumerate(ffn.layers):
        h = add(matmul(a, h), broadcast_cols(b, h.cols))
        if i != last:
            h = relu(h)
    return h


def reference_encoder(blocks, x):
    """Block by block from tensor primitives alone."""
    for blk in blocks:
        y = reference_ffn(blk.ffn, reference_attention(blk.attn, x, x))
        x = add(y, x) if blk.residual else y
    return x


def random_ffn(rng, in_dim, out_dim):
    dims = [in_dim] + [rng.randint(1, 3) for _ in range(rng.randint(0, 2))] + [out_dim]
    return FeedForwardNet(tuple((sparse_random_mat(rng, o, i), sparse_random_mat(rng, o, 1))
                                for i, o in zip(dims, dims[1:])))


def random_chain(rng, n, p, d, m):
    """Plain, residual, masked, then masked residual block."""
    blocks = []
    for masked, residual in ((False, False), (False, True), (True, False), (True, True)):
        mh = random_multihead(rng, n, n, p, m, masked, head_dim=d)
        out = n if residual else rng.randint(1, 3)
        blocks.append(EncoderBlock(mh, random_ffn(rng, mh.out_rows, out), residual))
        n = out
    return blocks


def all_fractions(m):
    return all(isinstance(v, F) for row in m.data for v in row)


class TestIntegerCore:
    """Forward passes on integer numerators over one shared denominator,
    against definitions built from tensor primitives."""

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
    def test_chain_matches_block_by_block_reference(self, d, m):
        rng = random.Random(f"chain:{d}:{m}")
        for _ in range(3):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks = random_chain(rng, n, p, d, m)
            x = sparse_random_mat(rng, n, p)
            got = eval_encoder(blocks, x)
            assert got == reference_encoder(blocks, x)
            assert all_fractions(got)
            # the weight maps sit over shared denominators above 1
            assert all(max(den for *_, den in blk.attn.stacked[:3]) > 1 for blk in blocks)
            assert max(den for blk in blocks for *_, den in blk.ffn.sparse) > 1

    def test_float_chain_matches_reference(self):
        rng = random.Random("chain-float")
        for _ in range(5):
            blocks = blocks_to_float(random_chain(rng, 2, 2, 2, 2)[:2])
            x = sparse_random_mat(rng, 2, 2).to_float()
            got = eval_encoder(blocks, x)
            assert got.backend == "float"
            assert got == reference_encoder(blocks, x)

    def test_deep_monomial_equals_oracle(self):
        grid = grid_from_json({"n": 2, "p": 1, "grid": [[{"op": "poly", "terms": [
            {"coef": "-2/3", "exps": {"x_1_1": 9, "x_2_1": 7}}]}]]})
        compiled = compile_spline(grid, CompileOptions(mode="pruned"))
        assert compiled.stages >= 4
        for t in range(10):
            x = random_rational_mat(trial_rng(3, t), 2, 1)
            got = compiled(x)
            assert got == grid.eval(x)
            assert all_fractions(got)

    def test_encdec_matches_stage_by_stage_reference(self):
        rng = random.Random("encdec")
        for _ in range(5):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            encoder = tuple(random_chain(rng, n, p, 2, 1)[:2])
            memo_rows = encoder[-1].ffn.out_dim
            stages = []
            t_rows = n
            for residual in (False, True, True):
                sa = random_multihead(rng, t_rows, t_rows, p, 2, True)
                ca = random_multihead(rng, memo_rows, sa.out_rows, p, 1, False)
                out = t_rows if residual else rng.randint(1, 3)
                stages.append(EncDecStage(sa, ca, random_ffn(rng, ca.out_rows, out), residual))
                t_rows = out
            stack = EncDecStack(encoder=encoder, stages=tuple(stages))
            x, y = sparse_random_mat(rng, n, p), sparse_random_mat(rng, n, p)
            memo = reference_encoder(encoder, x)
            t = y
            for stage in stages:
                s = reference_attention(stage.self_attn, t, t)
                out = reference_ffn(stage.ffn, reference_attention(stage.cross_attn, memo, s))
                t = add(out, t) if stage.residual else out
            got = eval_encdec(stack, x, y)
            assert got == t
            assert all_fractions(got)


class TestFfn:
    def test_identity_net(self):
        ffn = identity_ffn(2)
        x = rmat([[1, -2], [3, -4]])
        assert eval_ffn(ffn, x) == x

    def test_single_affine_broadcasts_bias(self):
        ffn = FeedForwardNet(((rmat([[1, 0], [0, 1]]), rmat([[5], [7]])),))
        out = eval_ffn(ffn, rmat([[1, 2], [3, 4]]))
        assert out == rmat([[6, 7], [10, 11]])

    def test_max_gadget(self):
        # max(x1, x2) = x1 + relu(x2 - x1), carrying x1 through the relu pair
        a1 = rmat([[-1, 1], [1, 0], [-1, 0]])
        a2 = rmat([[1, 1, -1]])
        ffn = FeedForwardNet(((a1, Mat.zeros(3, 1)), (a2, Mat.zeros(1, 1))))
        assert eval_ffn(ffn, rmat([[1], [3]])).at(0, 0) == 3
        assert eval_ffn(ffn, rmat([[4], [-1]])).at(0, 0) == 4


class TestEncoder:
    def test_empty_is_identity(self):
        x = rmat([[1, 2], [3, 4]])
        assert eval_encoder([], x) == x

    def test_one_block_is_ffn_after_attention(self):
        rng = random.Random(3)
        h = random_head(rng, 2, 2)
        blk = EncoderBlock(MultiheadAttention.of((h,)), identity_ffn(1))
        x = random_rational_mat(rng, 2, 2)
        assert eval_encoder([blk], x) == eval_multihead(h, x)

    def test_identity_ffns_reduce_to_attention_chain(self):
        rng = random.Random(4)
        h1 = random_head(rng, 2, 1)
        mh1 = MultiheadAttention.of((h1, random_head(rng, 2, 1)))
        mh2 = MultiheadAttention.of((random_head(rng, 2, 1),))
        b1 = EncoderBlock(mh1, identity_ffn(2))
        b2 = EncoderBlock(mh2, identity_ffn(1))
        for t in range(20):
            x = random_rational_mat(trial_rng(1, t), 2, 1)
            chained = eval_multihead(mh2, eval_multihead(mh1, x))
            assert eval_encoder([b1, b2], x) == chained

    def test_residual_adds_input(self):
        rng = random.Random(5)
        heads = MultiheadAttention.of((random_head(rng, 2, 2), random_head(rng, 2, 2)))
        blk = EncoderBlock(heads, identity_ffn(2), residual=True)
        x = random_rational_mat(rng, 2, 2)
        expected = eval_multihead(heads, x)
        expected = Mat.rational([[expected.at(i, j) + x.at(i, j) for j in range(2)]
                                 for i in range(2)])
        assert eval_encoder([blk], x) == expected

    def test_chain_mismatch_names_block(self):
        rng = random.Random(6)
        b1 = EncoderBlock(MultiheadAttention.of((random_head(rng, 2, 2),)), identity_ffn(1))
        b2 = EncoderBlock(MultiheadAttention.of((random_head(rng, 3, 2),)), identity_ffn(1))
        with pytest.raises(ShapeError, match="block 1"):
            eval_encoder([b1, b2], random_rational_mat(rng, 2, 2))


class TestMaskedAttention:
    def test_masked_is_autoregressive(self):
        rng = random.Random(7)
        h = random_head(rng, 2, 3, masked=True)
        for t in range(100):
            trng = trial_rng(2, t)
            x = random_rational_mat(trng, 2, 3)
            j = trng.randint(1, 2)
            data = [list(row) for row in x.data]
            for i in range(2):
                for c in range(j, 3):
                    data[i][c] = F(trng.randint(-10, 10), trng.randint(1, 7))
            xp = rmat(data)
            a, b = eval_multihead(h, x), eval_multihead(h, xp)
            for c in range(j):
                assert a.at(0, c) == b.at(0, c)

    def test_unmasked_witness(self):
        # d = m = 1 head whose scores couple columns: editing column 2
        # changes output column 1
        h = attention_head(a_q=rmat([[1]]), b_q=rmat([[0, 0]]),
                           a_k=rmat([[1]]), b_k=rmat([[0, 0]]),
                           a_v=rmat([[1]]), b_v=rmat([[0, 0]]))
        x = rmat([[1, 2]])
        xp = rmat([[1, 5]])
        a, b = eval_multihead(h, x), eval_multihead(h, xp)
        assert a.at(0, 0) != b.at(0, 0)

    def test_decoder_block_requires_masked(self):
        rng = random.Random(8)
        with pytest.raises(ValueError):
            DecoderBlock(MultiheadAttention.of((random_head(rng, 2, 2),)), identity_ffn(1))
        DecoderBlock(MultiheadAttention.of((random_head(rng, 2, 2, masked=True),)),
                     identity_ffn(1))


class TestEncDec:
    def build_stack(self, rng, residual=False):
        enc_block = EncoderBlock(MultiheadAttention.of((random_head(rng, 1, 2),)),
                                 identity_ffn(1))
        stage = EncDecStage(
            self_attn=MultiheadAttention.of((random_head(rng, 1, 2, masked=True),)),
            cross_attn=MultiheadAttention.of((random_head(rng, 1, 2),)),
            ffn=identity_ffn(1), residual=residual)
        return EncDecStack(encoder=(enc_block,), stages=(stage,))

    def test_no_stages_returns_y(self):
        rng = random.Random(9)
        stack = EncDecStack(encoder=(EncoderBlock(
            MultiheadAttention.of((random_head(rng, 1, 2),)), identity_ffn(1)),),
            stages=())
        x, y = random_rational_mat(rng, 1, 2), random_rational_mat(rng, 1, 2)
        assert eval_encdec(stack, x, y) == y

    def test_single_stage_unrolls(self):
        # one stage is ffn(cross(enc(x), self(y))) by definition
        from splineformer.transformer import eval_multihead_encdec
        rng = random.Random(10)
        stack = self.build_stack(rng)
        x, y = random_rational_mat(rng, 1, 2), random_rational_mat(rng, 1, 2)
        stage = stack.stages[0]
        memo = eval_encoder(stack.encoder, x)
        expected = eval_ffn(stage.ffn, eval_multihead_encdec(
            stage.cross_attn, memo, eval_multihead(stage.self_attn, y)))
        assert eval_encdec(stack, x, y) == expected

    def test_residual_stage_adds_y(self):
        rng = random.Random(11)
        plain = self.build_stack(rng)
        rng = random.Random(11)
        res = self.build_stack(rng, residual=True)
        x, y = random_rational_mat(rng, 1, 2), random_rational_mat(rng, 1, 2)
        a = eval_encdec(plain, x, y)
        b = eval_encdec(res, x, y)
        assert b == Mat.rational([[a.at(i, j) + y.at(i, j) for j in range(2)]
                                  for i in range(1)])


class TestWeightJson:
    def test_roundtrip(self):
        rng = random.Random(12)
        h = random_head(rng, 2, 2, masked=True)
        blk = EncoderBlock(MultiheadAttention.of((h,)), identity_ffn(1))
        obj = blocks_to_json([blk])
        assert obj["blocks"][0]["attn"]["groups"][0]["masked"] is True
        assert obj["blocks"][0]["attn"]["groups"][0]["activation"] == "relu"
        loaded = blocks_from_json(obj)
        x = random_rational_mat(rng, 2, 2)
        assert eval_encoder(loaded, x) == eval_encoder([blk], x)

    def test_softplus_beta_roundtrip(self):
        h = scalar_head(activation=softplus(50.0))
        blk = EncoderBlock(MultiheadAttention.of((h,)), identity_ffn(1))
        loaded = blocks_from_json(blocks_to_json([blk]))
        assert loaded[0].attn.heads[0].groups[0][3] == softplus(50.0)

    def test_both_spellings_load_equal(self):
        # grouped heads, float copies, smooth and scaled heads, a mixed-backend layer
        rng = random.Random("spellings")
        for _ in range(3):
            blocks = cloned_chain(rng, 2, 2, 2, 2)
            for chain in (blocks, blocks_to_float(blocks),
                          smooth_chain(blocks, softplus(3.0), True),
                          smooth_chain(blocks, Activation("softmax"), False)):
                chain = tuple(chain)
                assert blocks_from_json(blocks_to_json(chain)) == chain
                assert blocks_from_json(per_head_json(chain)) == chain
        head = scalar_head(a_q=Mat.from_floats([[0.5]]))
        mixed = (EncoderBlock(MultiheadAttention.of((head,)), FeedForwardNet((
            (rmat([[F(1, 3)]]), Mat.from_floats([[0.25]])),))),)
        assert mixed[0].attn.backends == {FLOAT}
        assert blocks_from_json(blocks_to_json(mixed)) == mixed

    def test_layer_form_holds_each_group_once(self):
        blk = build_eps2(2, 2, CompileOptions(mode="faithful")).blocks[1]
        attn = blocks_to_json([blk])["blocks"][0]["attn"]
        assert len(attn["heads"]) == 410 and len(attn["groups"]) == 43
        assert len(attn["A_Q"]["rows"]) == sum(g["d"] for g in attn["groups"])
        assert len(attn["A_V"]["rows"]) == 410

    def test_heads_view_is_the_heads_given(self):
        rng = random.Random("view")
        mh = with_clones(rng, random_multihead(rng, 2, 2, 3, 2, True))
        again = MultiheadAttention.of(mh.heads)
        assert again == mh and again.heads == mh.heads
        assert len(mh.heads) == len(mh.table) > len(mh.groups)

    @pytest.mark.parametrize("change,message", [
        (lambda a: a["A_V"]["rows"][0].append([7, "1"]), "column"),
        (lambda a: a["A_V"]["rows"][0].insert(0, [1, "1"]), "increasing"),
        (lambda a: a["heads"].append(5), "group"),
        (lambda a: a["heads"].__setitem__(0, True), "group"),
        (lambda a: a["groups"][0].update(d=2), "rows"),
        (lambda a: a["A_V"]["rows"].pop(), "rows"),
        (lambda a: a["B_K"].update(cols=5), "sequence length"),
        (lambda a: a["A_K"].update(cols=1), "input rows"),
        (lambda a: a["groups"][0].update(d=0), "at least 1"),
        (lambda a: a.update(heads=[]), "at least one head"),
        (lambda a: [a["groups"].append(a["groups"][0])]
         + [a[key]["rows"].append([]) for key in ("A_Q", "B_Q", "A_K", "B_K")], "every group"),
        (lambda a: a.update(heads=[1, 0, 2]), "every group"),
    ], ids=["column-past-width", "columns-out-of-order", "group-out-of-range", "group-bool",
            "d-disagrees", "value-rows-disagree", "p-disagrees", "n-disagrees", "d-zero",
            "no-heads", "group-unused", "groups-out-of-order"])
    def test_malformed_layer_raises(self, change, message):
        rng = random.Random("malformed")
        mh = random_multihead(rng, 2, 2, 2, 1, False, head_dim=1)
        assert mh.table == (0, 1, 2)
        doc = blocks_to_json([EncoderBlock(mh, identity_ffn(mh.out_rows))])
        change(doc["blocks"][0]["attn"])
        with pytest.raises(ValueError, match=message):
            blocks_from_json(doc)


class TestFloatImage:
    """Float passes over rational weights read float rows taken from the
    integer caches; they must equal the caches of a float copy."""

    @staticmethod
    def assert_image_of_copy(blocks):
        for blk, twin in zip(blocks, blocks_to_float(blocks)):
            assert blk.attn.floats == twin.attn.stacked
            assert blk.ffn.floats == twin.ffn.sparse

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
    def test_random_chains(self, d, m):
        rng = random.Random(f"image:{d}:{m}")
        for _ in range(3):
            self.assert_image_of_copy(random_chain(rng, rng.randint(1, 3), rng.randint(1, 3), d, m))

    def test_underflow_is_dropped(self):
        tiny = F(1, 10 ** 400)  # a nonzero rational that rounds to 0.0
        head = scalar_head(a_q=rmat([[tiny, F(1, 3)]]), b_q=rmat([[tiny]]),
                           a_k=rmat([[1, tiny]]), a_v=rmat([[tiny, 2]]))
        ffn = FeedForwardNet(((rmat([[tiny], [F(-2, 7)]]), rmat([[tiny], [1]])),))
        blocks = [EncoderBlock(MultiheadAttention.of((head,)), ffn)]
        self.assert_image_of_copy(blocks)
        (aq, bq, _), (ak, _, _), (av, _, _) = blocks[0].attn.floats
        assert aq == (((1, 1 / 3),),) and bq == (None,)
        assert ak == (((0, 1.0),),) and av == (((1, 2.0),),)
        assert blocks[0].ffn.floats[0][0] == ((), ((0, -2 / 7),))

    def test_float_weights_are_their_own_image(self):
        blk = blocks_to_float(random_chain(random.Random(7), 2, 2, 1, 1))[0]
        assert blk.attn.floats is blk.attn.stacked
        assert blk.ffn.floats is blk.ffn.sparse

    def test_mixed_backend_layer(self):
        head = scalar_head(a_q=Mat.from_floats([[0.5]]))
        ffn = FeedForwardNet(((rmat([[F(1, 3)]]), Mat.from_floats([[0.25]])),))
        self.assert_image_of_copy([EncoderBlock(MultiheadAttention.of((head,)), ffn)])

    def test_float_pass_over_rational_weights(self):
        # eval_encoder still refuses mixed backends; the private walk reads the image
        rng = random.Random("image-pass")
        for _ in range(5):
            blocks = random_chain(rng, 2, 2, 2, 2)
            x = sparse_random_mat(rng, 2, 2).to_float()
            with pytest.raises(BackendError):
                eval_encoder(blocks, x)
            assert _walk(blocks, x) == eval_encoder(blocks_to_float(blocks), x)


KERNEL_ACTIVATIONS = [Activation("relu"), softplus(0.5), softplus(10.0), softplus(1e6),
                      Activation("softmax")]


def smooth_chain(blocks, activation, scaled):
    """A float copy of `blocks` whose heads all take `activation` and `scaled`."""
    return [EncoderBlock(float_heads(blk.attn, activation, scaled), blk.ffn, blk.residual)
            for blk in blocks_to_float(blocks)]


class TestFusedActivations:
    """Scaling, masking and every activation run inside the stacked-head
    kernel; they must equal, bit for bit, the per-head definition from
    `scale`, `apply_mask`, `relu`, `softplus_beta` and `softmax_columns`."""

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
    @pytest.mark.parametrize("scaled", [False, True], ids=["unscaled", "scaled"])
    def test_chains_equal_reference(self, d, m, scaled):
        rng = random.Random(f"fused:{d}:{m}:{scaled}")
        for _ in range(2):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks = random_chain(rng, n, p, d, m)
            x = sparse_random_mat(rng, n, p).to_float()
            for activation in KERNEL_ACTIVATIONS:
                swapped = smooth_chain(blocks, activation, scaled)
                want = reference_encoder(swapped, x)
                assert eval_encoder(swapped, x) == want
                if not scaled:
                    # the same pass over the rational weights' float image
                    assert _walk(blocks, x, activations=(activation,)) == want

    @pytest.mark.parametrize("n,m,masked,cross", KERNEL_CASES)
    def test_layers_equal_reference(self, n, m, masked, cross):
        rng = random.Random(f"fused-layer:{n}:{m}:{masked}:{cross}")
        for activation in KERNEL_ACTIVATIONS:
            for scaled in (False, True):
                p = rng.randint(1, 3)
                n_q = rng.randint(1, 3) if cross else n
                mh = float_heads(random_multihead(rng, n, n_q, p, m, masked),
                                 activation, scaled)
                x, y = TestStackedKernel.inputs(rng, n, n_q, p, cross)
                x, y = x.to_float(), y.to_float()
                got = TestStackedKernel.evaluate(mh, x, y, cross)
                assert got == reference_attention(mh, x, y)

    @staticmethod
    def overflowing_head(masked):
        # the score k q = -x^2 overflows to -inf for a large input entry
        one = Mat.from_floats([[1.0]])
        zero = Mat.from_floats([[0.0, 0.0]])
        return attention_head(a_q=Mat.from_floats([[-1.0]]), b_q=zero, a_k=one, b_k=zero,
                              a_v=one, b_v=zero, activation=Activation("softmax"),
                              masked=masked)

    @pytest.mark.parametrize("masked", [False, True])
    def test_softmax_column_with_minus_inf_score(self, masked):
        mh = MultiheadAttention.of((self.overflowing_head(masked),))
        x = Mat.from_floats([[2.0, 1e200]])
        got = eval_multihead(mh, x)
        assert got == reference_attention(mh, x, x)
        assert all(math.isfinite(v) for row in got.data for v in row)

    @pytest.mark.parametrize("masked", [False, True])
    def test_degenerate_column(self, masked):
        # column 0 holds only -inf (masked entries are -inf too)
        mh = MultiheadAttention.of((self.overflowing_head(masked),))
        x = Mat.from_floats([[1e200, 1e200]])
        with pytest.raises(DegenerateColumnError, match="column 0") as want:
            reference_attention(mh, x, x)
        with pytest.raises(DegenerateColumnError) as got:
            eval_multihead(mh, x)
        assert str(got.value) == str(want.value)

    def test_group_layout_is_cached(self):
        head = replace_head(scalar_head(), scaled=True, masked=True)
        mh = MultiheadAttention.of((head, scalar_head(activation=softplus(2.0)), head))
        assert mh.group_layout is mh.group_layout
        assert mh.group_layout == ((0, 1, True, 1.0, Activation("relu")),
                                   (1, 1, False, None, softplus(2.0)))
        assert mh.rational_error == "softplus attention needs the float backend"
        assert MultiheadAttention.of((head,)).rational_error.startswith("score scaling")
        assert MultiheadAttention.of((scalar_head(),)).rational_error is None


def with_clones(rng, mh):
    """mh plus clones of its heads that keep the Q and K maps and draw a
    new V, in shuffled order; the first head gets at least one clone."""
    heads = []
    for i, h in enumerate(mh.heads):
        heads.append(h)
        for _ in range(rng.randint(0 if i else 1, 2)):
            heads.append(replace(h, a_v=sparse_random_mat(rng, h.m, h.n),
                                 b_v=sparse_random_mat(rng, h.m, h.p)))
    rng.shuffle(heads)
    return MultiheadAttention.of(tuple(heads))


def cloned_chain(rng, n, p, d, m):
    """`random_chain` whose layers also hold clones of their heads."""
    blocks = []
    for blk in random_chain(rng, n, p, d, m):
        mh = with_clones(rng, blk.attn)
        blocks.append(EncoderBlock(mh, random_ffn(rng, mh.out_rows, blk.ffn.out_dim),
                                   blk.residual))
    return blocks


def group_count(mh):
    return len(mh.groups)


class Recorder:
    """Observer that keeps the record of every block."""

    def __init__(self):
        self.seen = []

    def __call__(self, blk, q, k, v, acts):
        self.seen.append((blk, q, k, v, acts))


# the bench's 2x2 grid, compiled by `splineformer compile --mode faithful`
GRID_2X2 = {"n": 2, "p": 2, "grid": [
    [{"op": "max", "args": [
        {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1, "x_1_2": 1}}]},
        {"op": "poly", "terms": [{"coef": "1", "exps": {"x_2_1": 1}}]}]},
     {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 2}},
                              {"coef": "-1/2", "exps": {"x_2_2": 1}}]}],
    [{"op": "min", "args": [
        {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_2": 1}}]},
        {"op": "poly", "terms": [{"coef": "1", "exps": {"x_2_1": 1, "x_2_2": 1}}]}]},
     {"op": "poly", "terms": [{"coef": "3", "exps": {"x_1_2": 1, "x_2_1": 1}},
                              {"coef": "1", "exps": {}}]}]]}


class TestGroupedHeads:
    """Heads with equal Q and K maps, masking, scaling and activation form
    their attention pattern once per pass and differ only in V; outputs
    must equal the per-head definition bit for bit."""

    @pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in (1, 2, 3)])
    def test_chains_equal_reference(self, d, m):
        rng = random.Random(f"grouped:{d}:{m}")
        for _ in range(2):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks = cloned_chain(rng, n, p, d, m)
            assert all(group_count(blk.attn) < len(blk.attn.heads) for blk in blocks)
            x = sparse_random_mat(rng, n, p)
            got = eval_encoder(blocks, x)
            assert got == reference_encoder(blocks, x)
            assert all_fractions(got)
            x = x.to_float()
            for activation in KERNEL_ACTIVATIONS:
                for scaled in (False, True):
                    swapped = smooth_chain(blocks, activation, scaled)
                    want = reference_encoder(swapped, x)
                    assert eval_encoder(swapped, x) == want
                    if not scaled:
                        # the override on the rational weights' float image
                        assert _walk(blocks, x, activations=(activation,)) == want

    def test_differing_flags_are_not_merged(self):
        rng = random.Random("grouped-flags")
        h = float_heads(random_multihead(rng, 2, 2, 3, 2, False, head_dim=2),
                        Activation("relu"), False).heads[0]

        def clone(**kw):
            return replace_head(h, a_v=sparse_random_mat(rng, 2, 2).to_float(), **kw)

        mh = MultiheadAttention.of((h, clone(), clone(masked=True), clone(scaled=True),
                                    clone(activation=softplus(10.0)),
                                    clone(activation=softplus(0.5)),
                                    clone(activation=Activation("softmax")),
                                    clone(masked=True),
                                    clone(b_q=h.b_q.to_float()),
                                    clone(b_q=sparse_random_mat(rng, 2, 3).to_float()),
                                    clone(a_k=sparse_random_mat(rng, 2, 2).to_float())))
        assert mh.table == (0, 0, 1, 2, 3, 4, 5, 1, 0, 6, 7)
        assert group_count(mh) == 8
        x = sparse_random_mat(rng, 2, 3).to_float()
        assert eval_multihead(mh, x) == reference_attention(mh, x, x)
        blk = blocks_to_float([EncoderBlock(mh, random_ffn(rng, mh.out_rows, 2))])[0]
        for activation in KERNEL_ACTIVATIONS:
            swapped = MultiheadAttention.of(tuple(replace_head(g, activation=activation)
                                                  for g in mh.heads))
            want = reference_encoder([EncoderBlock(swapped, blk.ffn)], x)
            assert _walk([blk], x, activations=(activation,)) == want

    @pytest.mark.parametrize("activation", KERNEL_ACTIVATIONS)
    def test_observer_sees_every_head_as_split(self, activation):
        # one record per block; each group's pattern is the one its first
        # head forms alone, and q, k, v are the split heads' rows stacked
        rng = random.Random(f"grouped-observer:{activation}")
        for _ in range(3):
            n, p = rng.randint(1, 3), rng.randint(1, 3)
            blocks = cloned_chain(rng, n, p, 2, 2)
            x = sparse_random_mat(rng, n, p).to_float()
            grouped = Recorder()
            _walk(blocks, x, grouped, (activation,))
            assert [blk for blk, *_ in grouped.seen] == blocks
            for i, (blk, q, k, v, acts) in enumerate(grouped.seen):
                rows = [list(row) for row in _walk(blocks[:i], x, activations=(activation,)).data]
                split = []
                for h in blk.attn.heads:
                    one = MultiheadAttention.of((h,))
                    split.append(_attend(one, one.floats, FLOAT, rows, 1, rows, 1, (activation,))[2])
                firsts = [split[blk.attn.table.index(g)] for g in range(len(blk.attn.groups))]
                assert len(acts) == len(blk.attn.groups)
                assert acts == [act for _, _, _, (act,) in firsts]
                assert q == [r for sq, _, _, _ in firsts for r in sq]
                assert k == [r for _, sk, _, _ in firsts for r in sk]
                assert v == [r for _, _, sv, _ in split for r in sv]

    def test_float_image_keeps_groups(self):
        rng = random.Random("grouped-image")
        for _ in range(3):
            blocks = cloned_chain(rng, 2, 2, 2, 1)
            TestFloatImage.assert_image_of_copy(blocks)
            # a mixed-backend layer is grouped on its float copy
            mh = blocks[0].attn
            h = mh.heads[0]
            mixed = MultiheadAttention.of(mh.heads + (replace(h, a_v=h.a_v.to_float()),))
            TestFloatImage.assert_image_of_copy([EncoderBlock(mixed, identity_ffn(mixed.out_rows))])
            assert mixed.table[-1] == mixed.table[mh.heads.index(h)]

    def test_faithful_group_counts(self):
        blk = build_eps2(2, 2, CompileOptions(mode="faithful")).blocks[1]
        assert (len(blk.attn.heads), group_count(blk.attn)) == (410, 43)
        compiled = compile_spline(grid_from_json(GRID_2X2), CompileOptions(mode="faithful"))
        blk = blocks_from_json(blocks_to_json(compiled.blocks))[1]
        assert (len(blk.attn.heads), group_count(blk.attn)) == (410, 43)


def side_by_side(xs):
    """Inputs of one shape as one batch, in order."""
    p = xs[0].cols
    return Mat(xs[0].backend, tuple(tuple((i * p + j, v) for i, x in enumerate(xs) for j, v in x.nz[r])
                                    for r in range(xs[0].rows)), len(xs) * p)


@st.composite
def batched_chains(draw):
    """A `cloned_chain` (plain, residual, masked, then masked residual
    block; heads grouped), a batch of one to four of its inputs and a
    stand-in activation for each.  Exact: rational ReLU weights and inputs,
    stand-ins None or ReLU.  Otherwise float inputs, and each group drawn
    scaled or not and with an activation of its own."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, p, d, m = (draw(st.integers(1, 3)) for _ in range(4))
    blocks = cloned_chain(rng, n, p, d, m)
    xs = [sparse_random_mat(rng, n, p) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        return blocks, xs, draw(st.lists(st.sampled_from([None, Activation("relu")]),
                                         min_size=len(xs), max_size=len(xs)))
    flagged = []
    for blk in blocks:
        flags = [dict(scaled=draw(st.booleans()),
                      activation=draw(st.sampled_from(KERNEL_ACTIVATIONS))) for _ in blk.attn.groups]
        mh = MultiheadAttention.of(tuple(replace_head(h, **flags[g])
                                         for h, g in zip(blk.attn.heads, blk.attn.table)))
        flagged.append(EncoderBlock(mh, blk.ffn, blk.residual))
    stand_ins = draw(st.lists(st.sampled_from([None, *KERNEL_ACTIVATIONS]),
                              min_size=len(xs), max_size=len(xs)))
    return flagged, [x.to_float() for x in xs], stand_ins


class TestBatchedWalk:
    """One pass over a batch of inputs side by side must equal its inputs
    run one by one: floats bit for bit, rationals exactly, and the
    observer's one record per block must be the inputs' own records side
    by side, with the groups' activation rows block-diagonal."""

    @given(case=batched_chains())
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_inputs_one_by_one(self, case):
        blocks, xs, stand_ins = case
        batch = Recorder()
        got = _walk(blocks, side_by_side(xs), batch, stand_ins)
        outs, records = [], []
        for x, stand_in in zip(xs, stand_ins):
            one = Recorder()
            outs.append(_walk(blocks, x, one, (stand_in,)))
            records.append(one.seen)
        want = side_by_side(outs)
        # repr tells -0.0 from 0.0 and matches NaN; Fractions must be equal
        assert (got.backend, got.cols, repr(got.nz)) == (want.backend, want.cols, repr(want.nz))
        assert len(batch.seen) == len(blocks)
        if got.backend != FLOAT:
            return  # a batch's numerators share a denominator the inputs' do not
        p = xs[0].cols
        for i, (blk, q, k, v, acts) in enumerate(batch.seen):
            ones = [seen[i] for seen in records]
            assert all(one[0] is blk for one in ones)
            for field, rows in ((1, q), (2, k), (3, v)):
                assert repr(rows) == repr([sum(parts, []) for parts in zip(*(one[field] for one in ones))])
            assert repr(acts) == repr([[[(j + c * p, w) for j, w in row]
                                        for c, one in enumerate(ones) for row in one[4][g]]
                                       for g in range(len(blk.attn.groups))])

    def test_shape_error_names_one_input(self):
        # block 1 reads 1 row but block 0 writes 2, in every input of the batch
        rng = random.Random("batch-shape")
        blocks = [EncoderBlock(MultiheadAttention.of((random_head(rng, 1, 2),)),
                               FeedForwardNet(((rmat([[1], [1]]), rmat([[0], [0]])),))),
                  EncoderBlock(MultiheadAttention.of((random_head(rng, 1, 2),)), identity_ffn(1))]
        x = sparse_random_mat(rng, 1, 2).to_float()
        for batch in (1, 3):
            with pytest.raises(ShapeError) as exc:
                _walk(blocks, side_by_side([x] * batch), activations=(None,) * batch)
            assert str(exc.value) == "block 1: attention input (2, 2), head expects (1, 2)"


def pooled_layer(rng, n, p, d, m, heads, **flags):
    """A layer of `heads` heads whose query, key and value rows are each
    drawn from a pool of two (A row, bias row) pairs per map, so that rows
    repeat within and across groups; the pairs of a pool may share their A
    row.  `flags` maps a head's draw to its group flags."""
    pools = []
    for _ in range(3):
        a = sparse_random_mat(rng, 1, n)
        pools.append([(a, sparse_random_mat(rng, 1, p)),
                      (rng.choice([a, sparse_random_mat(rng, 1, n)]), sparse_random_mat(rng, 1, p))])

    def drawn(pool, count):
        picks = [rng.choice(pool) for _ in range(count)]
        return stack_rows([a for a, _ in picks]), stack_rows([b for _, b in picks])

    return MultiheadAttention.of(tuple(
        attention_head(*drawn(pools[0], d), *drawn(pools[1], d), *drawn(pools[2], m),
                       **{key: draw() for key, draw in flags.items()})
        for _ in range(heads)))


@st.composite
def pooled_chains(draw):
    """A plain, a residual, a masked and a masked residual block of
    `pooled_layer`s of three to five heads (so value rows repeat), a batch
    of one to four inputs and a stand-in activation for each, as in
    `batched_chains`: exact, with rational ReLU weights and inputs and
    stand-ins None or ReLU, or float, with each head drawn scaled or not
    and with an activation of its own."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    n, p, d, m = (draw(st.integers(1, 3)) for _ in range(4))
    exact = draw(st.booleans())
    flags = {} if exact else dict(scaled=lambda: rng.random() < 0.5,
                                  activation=lambda: rng.choice(KERNEL_ACTIVATIONS))
    blocks = []
    for masked, residual in ((False, False), (False, True), (True, False), (True, True)):
        mh = pooled_layer(rng, n, p, d, m, rng.randint(3, 5), masked=lambda: masked, **flags)
        out = n if residual else rng.randint(1, 3)
        blocks.append(EncoderBlock(mh, random_ffn(rng, mh.out_rows, out), residual))
        n = out
    xs = [sparse_random_mat(rng, blocks[0].attn.n, p) for _ in range(draw(st.integers(1, 4)))]
    stand_ins = draw(st.lists(st.sampled_from([None, Activation("relu")] if exact
                                              else [None, *KERNEL_ACTIVATIONS]),
                              min_size=len(xs), max_size=len(xs)))
    return blocks, xs if exact else [x.to_float() for x in xs], stand_ins


class TestSharedRows:
    """A pass computes each distinct (A row, bias row) pair of a query,
    key or value map once and hands every row of the pair that list; it
    must equal the walk that computes every stored row on its own."""

    @given(case=pooled_chains())
    @settings(max_examples=80, deadline=None)
    def test_pass_equals_unshared_reference(self, case):
        blocks, xs, stand_ins = case
        assert all(blk.attn.row_layout[2] is not None for blk in blocks)
        x = side_by_side(xs)
        shared, unshared = Recorder(), Recorder()
        got = _walk(blocks, x, shared, stand_ins)
        want = unshared_walk(blocks, x, unshared, stand_ins)
        # repr tells -0.0 from 0.0 and matches NaN; Fractions must be equal
        assert (got.backend, got.cols, repr(got.nz)) == (want.backend, want.cols, repr(want.nz))
        assert len(shared.seen) == len(unshared.seen) == len(blocks)
        for (blk, *record), (ref_blk, *ref_record) in zip(shared.seen, unshared.seen):
            assert blk is ref_blk
            for rows, ref_rows in zip(record, ref_record):
                assert len(rows) == len(ref_rows)
                assert all(repr(row) == repr(ref) for row, ref in zip(rows, ref_rows))

    def test_faithful_distinct_rows(self):
        faithful = CompileOptions(mode="faithful")
        grid = compile_spline(grid_from_json(GRID_2X2), faithful).blocks[1].attn
        eps2 = build_eps2(1, 3, faithful).blocks[1].attn
        for mh, stored, distinct in ((grid, (43, 43, 410), (22, 2, 11)),
                                     (eps2, (77, 77, 876), (27, 3, 13))):
            assert (mh.a_q.rows, mh.a_k.rows, mh.a_v.rows) == stored
            assert tuple(len(firsts) for firsts, _ in mh.row_layout[:3]) == distinct
            assert tuple(len(index) for _, index in mh.row_layout[:3]) == stored
            # the images hold the distinct rows only, exact and float
            for maps in (mh.stacked, mh.floats):
                assert tuple(len(rows) for rows, _, _ in maps) == distinct

    def test_map_without_repeats_has_no_index(self):
        rng = random.Random("no-repeats")
        mh = MultiheadAttention.of(tuple(random_head(rng, 2, 2) for _ in range(3)))
        assert mh.row_layout == (None, None, None, (0, 1, 2))
        assert tuple(len(rows) for rows, _, _ in mh.stacked) == (3, 3, 3)
        # clones keep Q and K, so only the value map repeats across groups
        shared = MultiheadAttention.of(mh.heads + (replace(mh.heads[2], a_v=mh.heads[0].a_v,
                                                           b_v=mh.heads[0].b_v),))
        assert shared.row_layout == (None, None, ((0, 1, 2), (0, 1, 2, 0)), (0, 1, 2, 2))
        assert tuple(len(rows) for rows, _, _ in shared.stacked) == (3, 3, 3)

    def test_shared_rows_are_not_mutated(self):
        # a residual chain with multi-layer nets over heads that share value
        # rows, run twice on the same layers and once on an unshared copy
        rng = random.Random("aliasing")
        n, p = 2, 3
        blocks = []
        for _ in range(3):
            mh = pooled_layer(rng, n, p, 1, 2, 4)
            ffn = FeedForwardNet(tuple((sparse_random_mat(rng, o, i), sparse_random_mat(rng, o, 1))
                                       for i, o in ((mh.out_rows, 3), (3, 2), (2, n))))
            blocks.append(EncoderBlock(mh, ffn, residual=True))
        assert all(blk.attn.row_layout[2] is not None for blk in blocks)
        def records(recorder):
            return repr([record for _, *record in recorder.seen])

        for x in (sparse_random_mat(rng, n, p), sparse_random_mat(rng, n, p).to_float()):
            first, second = Recorder(), Recorder()
            runs = [_walk(blocks, x, first)]
            seen = records(first)
            runs.append(_walk(blocks, x, second))
            runs.append(unshared_walk(blocks_from_json(blocks_to_json(blocks)), x))
            assert len({repr(out.nz) for out in runs}) == 1
            assert records(first) == seen == records(second)


class TestEncoderModel:
    """One model type runs every pass: the exact pass on rational inputs,
    and a float pass over the weights' float image on float inputs or with
    an activation standing in."""

    def test_image_of_an_affine_map(self):
        a = ((F(1, 2), F(0), F(-2, 3)), (F(0), F(0), F(0)))
        b = ((F(0), F(0)), (F(5, 4), F(0)))
        a, b = Mat.rational(a).nz, Mat.rational(b).nz
        assert _image(a, b, 2, True) == ((((0, 6), (2, -8)), ()), (None, (15, 0)), 12)
        assert _image(a, b, 2, False) == ((((0, 0.5), (2, -2 / 3)), ()), (None, (1.25, 0.0)), 1)

    def test_rational_and_float_inputs(self):
        rng = random.Random("encoder-model")
        for _ in range(5):
            blocks = random_chain(rng, 2, 2, 2, 2)
            model = EncoderModel(blocks)
            x = sparse_random_mat(rng, 2, 2)
            assert model(x) == eval_encoder(blocks, x)
            assert model(x.to_float()) == eval_encoder(blocks_to_float(blocks), x.to_float())
            assert model.blocks == tuple(blocks)

    def test_rational_input_stays_strict(self):
        head = scalar_head(a_q=Mat.from_floats([[0.5]]))
        model = EncoderModel([EncoderBlock(MultiheadAttention.of((head,)), identity_ffn(1))])
        with pytest.raises(BackendError):
            model(rmat([[2]]))
        # v * relu(k * q) = 2 * (2 * 0.5 * 2) on the float image of the mixed weights
        assert model(Mat.from_floats([[2.0]])).data == ((4.0,),)
