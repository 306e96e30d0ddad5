import random
from fractions import Fraction as F

import pytest

from splineformer.compiler import (CompileOptions, MonomialLayout, NotAutoregressiveError,
                                   ResourceLimitError, build_eps2,
                                   build_veronese_encoder, compile_autoregressive,
                                   compile_spline, ffn_block_form,
                                   ffn_to_encoder_blocks, linear_spline_to_ffn, _pruned_pass)
from splineformer.spline import (Monomial, ONE, PBForm, Polynomial, SplineGrid,
                                 const, emax, emin, eprod, escale, esum,
                                 normalize_to_pbform, var)
from splineformer.tensor import Mat
from splineformer.transformer import (FeedForwardNet, eval_encoder, eval_ffn,
                                      eval_multihead)
from splineformer.veronese import VeroneseIndex, veronese_eval
from splineformer.verifier import oracle_equiv, random_rational_mat, trial_rng
from reference import build_const_head, build_copy_head, check_layout_soundness, max_abs


def x(i, j=1):
    return Polynomial.variable(i, j)


def pb(e):
    return normalize_to_pbform(e)


def grid1(f, n):
    return SplineGrid(n, 1, ((f,),))


class TestCopyHead:
    def test_column_vector_source(self):
        h = build_copy_head(2, 1, 1, 2, 1)
        out = eval_multihead(h, Mat.rational([[1], [5]]))
        assert out == Mat.rational([[5]])

    def test_row_vector_placement(self):
        h = build_copy_head(1, 1, 2, 1, 2)
        out = eval_multihead(h, Mat.rational([[1, 2]]))
        assert out == Mat.rational([[0, 1]])

    def test_zero_input(self):
        h = build_copy_head(1, 2, 2, 2, 2)
        assert eval_multihead(h, Mat.zeros(2, 2)) == Mat.zeros(1, 2)

    def test_index_out_of_range(self):
        with pytest.raises(ValueError):
            build_copy_head(3, 1, 1, 2, 1)


class TestConstHead:
    def test_first_column(self):
        h = build_const_head(1, 2, 2)
        out = eval_multihead(h, Mat.rational([[1, 2], [3, 4]]))
        assert out == Mat.rational([[1, 0]])

    def test_second_column(self):
        h = build_const_head(2, 2, 2)
        out = eval_multihead(h, Mat.rational([[1, 2], [3, 4]]))
        assert out == Mat.rational([[0, 1]])

    def test_input_independent(self):
        h = build_const_head(1, 2, 2)
        rng = random.Random(0)
        a = eval_multihead(h, random_rational_mat(rng, 2, 2))
        b = eval_multihead(h, random_rational_mat(rng, 2, 2))
        assert a == b


class TestEps2:
    @pytest.mark.parametrize("mode", ["faithful", "pruned"])
    def test_n2_p1_column(self, mode):
        enc = build_eps2(2, 1, CompileOptions(mode=mode))
        out = enc(Mat.rational([[1], [2]]))
        assert [v[0] for v in out.data] == [1, 1, 2, 1, 2, 4]

    @pytest.mark.parametrize("mode", ["faithful", "pruned"])
    def test_n1_p2_blockdiag(self, mode):
        enc = build_eps2(1, 2, CompileOptions(mode=mode))
        out = enc(Mat.rational([[3, -1]]))
        expected = [1, 3, -1, 9, -3, 1]
        for j in (0, 1):
            start, stop = enc.layout.block_spans[j]
            assert [out.at(r, j) for r in range(start, stop)] == expected
            other = 1 - j
            assert all(out.at(r, other) == 0 for r in range(start, stop))

    def test_zero_input_only_constants(self):
        enc = build_eps2(2, 2, CompileOptions(mode="pruned"))
        out = enc(Mat.zeros(2, 2))
        for mon, col, row in enc.layout.entries():
            want = 1 if mon == ONE else 0
            assert out.at(row, col - 1) == want

    def test_faithful_stage1_head_count(self):
        for n in (1, 2):
            for p in (1, 2):
                enc = build_eps2(n, p, CompileOptions(mode="faithful"))
                assert enc.stats["heads_per_block"][0] == n * p * p + p

    def test_modes_agree(self):
        for n, p in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            a = build_eps2(n, p, CompileOptions(mode="faithful"))
            b = build_eps2(n, p, CompileOptions(mode="pruned"))
            for t in range(20):
                X = random_rational_mat(trial_rng(t, n * 10 + p), n, p)
                out_a, out_b = a(X), b(X)
                for mon, col, row_a in a.layout.entries():
                    row_b = b.layout.row_of(mon, col)
                    assert out_a.at(row_a, col - 1) == out_b.at(row_b, col - 1)

    def test_faithful_selection_is_affine(self):
        # linear selections need no relu(u) - relu(-u) round trip
        for n, p in [(1, 2), (2, 2)]:
            enc = build_eps2(n, p, CompileOptions(mode="faithful"))
            assert all(b.ffn.hidden_layers == 0 for b in enc.blocks[:-1])

    def test_layout_soundness(self):
        for mode in ("faithful", "pruned"):
            enc = build_eps2(2, 2, CompileOptions(mode=mode))
            for t in range(10):
                X = random_rational_mat(trial_rng(t, 3), 2, 2)
                assert check_layout_soundness(enc, X)


class TestVeroneseEncoder:
    def test_s1_base_case(self):
        enc = build_veronese_encoder(2, 1, 1)
        assert enc.stats["blocks"] == 1
        out = enc(Mat.rational([[4], [7]]))
        lay = enc.layout
        assert out.at(lay.row_of(ONE, 1), 0) == 1
        assert out.at(lay.row_of(Monomial.variable(1, 1), 1), 0) == 4
        assert out.at(lay.row_of(Monomial.variable(2, 1), 1), 0) == 7

    @pytest.mark.parametrize("mode", ["faithful", "pruned"])
    def test_s4_powers_of_two(self, mode):
        enc = build_veronese_encoder(1, 1, 4, CompileOptions(mode=mode))
        out = enc(Mat.rational([[2]]))
        lay = enc.layout
        for k, want in [(0, 1), (1, 2), (2, 4), (3, 8), (4, 16)]:
            mon = ONE if k == 0 else Monomial.from_dict({(1, 1): k})
            assert out.at(lay.row_of(mon, 1), 0) == want

    def test_s3_uses_two_stages_and_full_layout(self):
        enc = build_veronese_encoder(2, 1, 3)
        assert enc.stages == 2
        idx = VeroneseIndex.for_matrix(2, 1, 3)
        for mon in idx.monomials:
            assert enc.layout.locate(mon, 1) is not None
        X = Mat.rational([[F(2)], [F(-3, 2)]])
        out = enc(X)
        v = veronese_eval(idx, X)
        for k, mon in enumerate(idx.monomials):
            assert out.at(enc.layout.row_of(mon, 1), 0) == v.at(k, 0)

    def test_faithful_cap_guard(self):
        with pytest.raises(ResourceLimitError):
            build_veronese_encoder(2, 2, 4, CompileOptions(mode="faithful"))

    def test_pruned_and_faithful_agree(self):
        a = build_veronese_encoder(1, 1, 4, CompileOptions(mode="faithful"))
        b = build_veronese_encoder(1, 1, 4, CompileOptions(mode="pruned"))
        for t in range(25):
            X = random_rational_mat(trial_rng(t, 5), 1, 1)
            out_a, out_b = a(X), b(X)
            for mon, col, row_a in a.layout.entries():
                if b.layout.locate(mon, col) is not None:
                    assert out_a.at(row_a, col - 1) == out_b.at(b.layout.row_of(mon, col), col - 1)


class TestLocate:
    """`MonomialLayout.locate` gives the 0-based entry holding a monomial
    that a column reads."""

    def test_raw_input_holds_variables_only(self):
        raw = MonomialLayout(2, 3)
        x11, x21 = Monomial.variable(1, 1), Monomial.variable(2, 1)
        for col in (1, 2, 3):
            assert raw.locate(Monomial.variable(2, 3), col) == (1, 2)
            for mon in (x11.mul(x11), x11.mul(x21), ONE):
                assert raw.locate(mon, col) is None

    def test_block_holds_its_own_column_only(self):
        x11, x12 = Monomial.variable(1, 1), Monomial.variable(1, 2)
        lay = MonomialLayout(1, 2, [[ONE, x11, x11.mul(x11)], [ONE, x12, x12.mul(x12)]])
        assert lay.locate(x11.mul(x11), 1) == (2, 0)
        assert lay.locate(x12.mul(x12), 2) == (5, 1)
        assert lay.locate(ONE, 2) == (3, 1)
        for mon in (x11, x11.mul(x11)):
            assert lay.locate(mon, 2) is None
        for mon in (x12, x12.mul(x12)):
            assert lay.locate(mon, 1) is None
        for mode in ("pruned", "faithful"):
            enc = build_eps2(2, 2, CompileOptions(mode=mode))
            for mon, col, row in enc.layout.entries():
                assert enc.layout.locate(mon, col) == (row, col - 1)

    def test_masked_column_misses_later_entries(self):
        x12, x11 = Monomial.variable(1, 2), Monomial.variable(1, 1)
        for mode in ("pruned", "faithful"):
            masked = build_eps2(2, 2, CompileOptions(mode=mode, masked=True)).layout
            unmasked = build_eps2(2, 2, CompileOptions(mode=mode)).layout
            for mon in (x12, x11.mul(x12)):
                assert masked.locate(mon, 1) is None
                assert masked.locate(mon, 2) is not None
                assert unmasked.locate(mon, 1) is not None


    def test_products_read_raw_rows_only_at_one_column(self):
        x11 = Monomial.variable(1, 1)
        stage = _pruned_pass(MonomialLayout(1, 1), [[x11.mul(x11)]], 1, False)
        assert eval_encoder([stage.block()], Mat.rational([[F(-3, 2)]])) == Mat.rational([[F(9, 4)]])
        # with two columns a raw row is nonzero in both, so no product reads it
        with pytest.raises(KeyError, match="missing from column 1"):
            _pruned_pass(MonomialLayout(1, 2), [[x11.mul(x11)], []], 1, False)


class TestLinearSplineToFfn:
    def test_abs(self):
        f = pb(emax(var(1, 1), escale(-1, var(1, 1))))
        ffn = linear_spline_to_ffn(f, 1)
        assert eval_ffn(ffn, Mat.rational([[-3]])).at(0, 0) == 3

    def test_max_three_way(self):
        f = pb(emax(var(1, 1), var(2, 1), const(0)))
        ffn = linear_spline_to_ffn(f, 2)
        assert eval_ffn(ffn, Mat.rational([[-1], [-2]])).at(0, 0) == 0

    def test_min_of_relus(self):
        f = pb(emin(emax(var(1, 1), const(0)), emax(var(2, 1), const(0))))
        ffn = linear_spline_to_ffn(f, 2)
        assert eval_ffn(ffn, Mat.rational([[2], [5]])).at(0, 0) == 2

    def test_degree_two_rejected(self):
        with pytest.raises(ValueError):
            linear_spline_to_ffn(PBForm.of_poly(x(1).mul(x(1))), 1)

    def test_random_forms_exact(self):
        rng = random.Random(13)
        forms = []
        for trial in range(20):
            nvars = rng.randint(1, 3)
            rows = []
            for _ in range(rng.randint(1, 3)):
                row = []
                for _ in range(rng.randint(1, 2)):
                    terms = {ONE: F(rng.randint(-3, 3))}
                    for i in range(1, nvars + 1):
                        terms[Monomial.variable(i, 1)] = F(rng.randint(-3, 3))
                    row.append(Polynomial.from_terms(terms))
                rows.append(row)
            f = PBForm.of_rows(rows)
            forms.append(f)
            ffn = linear_spline_to_ffn(f, nvars)
            for t in range(50):
                X = random_rational_mat(trial_rng(trial, t), nvars, 1)
                assert eval_ffn(ffn, X).at(0, 0) == f.eval(X)
        # all forms in one net: they differ in depth, so the shallower ones
        # pass through the levels that the deeper ones still reduce
        assert len({linear_spline_to_ffn(f, 3).depth for f in forms}) > 2
        ffn = linear_spline_to_ffn(forms, 3)
        assert ffn.out_dim == len(forms)
        for t in range(50):
            X = random_rational_mat(trial_rng(20, t), 3, 1)
            out = eval_ffn(ffn, X)
            assert [out.at(k, 0) for k in range(len(forms))] == [f.eval(X) for f in forms]


class TestFfnBlockForm:
    def one_hidden(self, rng, d_in, hidden, d_out):
        return FeedForwardNet((
            (random_rational_mat(rng, hidden, d_in), random_rational_mat(rng, hidden, 1)),
            (random_rational_mat(rng, d_out, hidden), random_rational_mat(rng, d_out, 1))))

    def test_identity_net_roundtrip(self):
        from reference import identity_ffn
        blk = ffn_block_form(identity_ffn(2), 2, 3)
        rng = random.Random(14)
        for _ in range(20):
            X = random_rational_mat(rng, 2, 3)
            assert eval_encoder([blk], X) == X

    def test_abs_gadget_columnwise(self):
        f = pb(emax(var(1, 1), escale(-1, var(1, 1))))
        ffn = linear_spline_to_ffn(f, 1)
        blk = ffn_block_form(ffn, 1, 2)
        out = eval_encoder([blk], Mat.rational([[-1, 4]]))
        assert out == Mat.rational([[1, 4]])

    def test_random_equality(self):
        rng = random.Random(15)
        for trial in range(10):
            d_in, hidden, d_out = (rng.randint(1, 4) for _ in range(3))
            p = rng.randint(1, 3)
            phi = self.one_hidden(rng, d_in, hidden, d_out)
            blk = ffn_block_form(phi, d_in, p)
            assert blk.ffn.hidden_layers == 1
            assert len(blk.attn.heads) == d_in * p
            for t in range(20):
                X = random_rational_mat(trial_rng(trial, t), d_in, p)
                assert eval_encoder([blk], X) == eval_ffn(phi, X)

    def test_multi_hidden_rejected(self):
        rng = random.Random(16)
        phi = FeedForwardNet((
            (random_rational_mat(rng, 2, 2), random_rational_mat(rng, 2, 1)),
            (random_rational_mat(rng, 2, 2), random_rational_mat(rng, 2, 1)),
            (random_rational_mat(rng, 1, 2), random_rational_mat(rng, 1, 1))))
        with pytest.raises(ValueError):
            ffn_block_form(phi, 2, 1)
        blocks = ffn_to_encoder_blocks(phi, 2, 2)
        assert all(b.ffn.hidden_layers == 1 for b in blocks)
        for t in range(20):
            X = random_rational_mat(trial_rng(17, t), 2, 2)
            assert eval_encoder(blocks, X) == eval_ffn(phi, X)


class TestCompileSpline:
    def check(self, spline, compiled, samples=200, seed=0):
        rep = oracle_equiv(compiled, spline, samples, seed)
        assert rep.exact, rep.first_failure

    def test_square(self):
        g = grid1(PBForm.of_poly(x(1).mul(x(1))), 1)
        self.check(g, compile_spline(g), samples=1000)

    def test_identity_via_relu_pair(self):
        g = grid1(PBForm.of_poly(x(1)), 1)
        c = compile_spline(g)
        self.check(g, c)

    def test_max_xy_x_plus_y(self):
        g = grid1(PBForm.of_rows([[x(1).mul(x(2))], [x(1).add(x(2))]]), 2)
        self.check(g, compile_spline(g), samples=1000)

    def test_constant_spline(self):
        g = grid1(PBForm.of_poly(Polynomial.constant(F(7, 3))), 2)
        self.check(g, compile_spline(g), samples=50)

    def test_affine_with_constant_term(self):
        g = grid1(pb(emax(var(1, 1), const(1))), 1)
        self.check(g, compile_spline(g))

    def test_vector_output(self):
        g = SplineGrid(2, 1, ((PBForm.of_poly(x(1).mul(x(2))),),
                              (pb(emax(var(1, 1), var(2, 1))),)))
        c = compile_spline(g)
        assert c.out_rows == 2
        self.check(g, c)

    def test_matrix_output_p2(self):
        f11 = PBForm.of_poly(x(1, 1).mul(x(1, 2)))
        f12 = pb(emax(var(1, 1), var(1, 2)))
        g = SplineGrid(1, 2, ((f11, f12),))
        self.check(g, compile_spline(g))

    def test_faithful_matches_pruned(self):
        g = grid1(PBForm.of_rows([[x(1).mul(x(1))], [x(1)]]), 1)
        a = compile_spline(g, CompileOptions(mode="faithful"))
        b = compile_spline(g, CompileOptions(mode="pruned"))
        for t in range(100):
            X = random_rational_mat(trial_rng(t, 9), 1, 1)
            assert a(X) == b(X)

    @pytest.mark.parametrize("mode", ["faithful", "pruned", "auto"])
    def test_no_head_with_zero_query(self, mode):
        # a head whose query map is zero scores 0, so under ReLU it adds nothing
        grid_2x2 = SplineGrid(2, 2, (  # the bench's 2x2 grid
            (pb(emax(eprod(var(1, 1), var(1, 2)), var(2, 1))),
             pb(esum(eprod(var(1, 1), var(1, 1)), escale(F(-1, 2), var(2, 2))))),
            (pb(emin(var(1, 2), eprod(var(2, 1), var(2, 2)))),
             pb(esum(escale(3, eprod(var(1, 2), var(2, 1))), const(1))))))
        prefix = SplineGrid(1, 2, ((PBForm.of_poly(x(1, 1)),
                                    pb(emax(var(1, 1), eprod(var(1, 1), var(1, 2))))),))
        compiled = [compile_spline(g, CompileOptions(mode=mode)) for g in (
            grid_2x2, grid1(pb(emax(var(1, 1), const(1))), 1),
            grid1(PBForm.of_rows([[x(1).mul(x(1))], [x(1)]]), 1))]
        compiled.append(compile_autoregressive(prefix, CompileOptions(mode=mode)))
        for c in compiled:
            for b in c.blocks:
                for h in b.attn.heads:
                    assert max(max_abs(h.a_q), max_abs(h.b_q)) > 0

    def test_stats_and_provenance(self):
        g = grid1(PBForm.of_poly(Monomial.from_dict({(1, 1): 3}) and Polynomial.from_terms(
            {Monomial.from_dict({(1, 1): 3}): F(1)})), 1)
        c = compile_spline(g)
        # pruned x^3 at p = 1: a product pass per stage, the first reading
        # the raw input with no copy pass
        assert c.stats["blocks"] == len(c.blocks) == 2
        assert c.provenance == ("quadratic-product-pass",
                                "quadratic-product-pass+readout(max-min net, recombine)")


class TestCompileAutoregressive:
    def test_prefix_product(self):
        f1 = PBForm.of_poly(x(1, 1))
        f2 = PBForm.of_poly(x(1, 1).mul(x(1, 2)))
        g = SplineGrid(1, 2, ((f1, f2),))
        c = compile_autoregressive(g)
        assert c.masked and all(h.masked for b in c.blocks for h in b.attn.heads)
        rep = oracle_equiv(c, g, 300, 1)
        assert rep.exact

    def test_columnwise_identity(self):
        g = SplineGrid(1, 3, ((PBForm.of_poly(x(1, 1)), PBForm.of_poly(x(1, 2)),
                               PBForm.of_poly(x(1, 3))),))
        c = compile_autoregressive(g)
        rep = oracle_equiv(c, g, 100, 2)
        assert rep.exact

    def test_violation_rejected(self):
        g = SplineGrid(1, 2, ((PBForm.of_poly(x(1, 2)), PBForm.of_poly(x(1, 1))),))
        with pytest.raises(NotAutoregressiveError):
            compile_autoregressive(g)

    def test_layout_respects_column_prefix(self):
        f1 = PBForm.of_poly(x(1, 1))
        f2 = PBForm.of_poly(x(1, 1).mul(x(1, 2)))
        g = SplineGrid(1, 2, ((f1, f2),))
        c = compile_autoregressive(g)
        for mon, col, _ in c.layout.entries():
            assert all(j <= col for (_, j) in mon.variables())

    def test_masked_faithful_mode(self):
        f1 = PBForm.of_poly(x(1, 1))
        f2 = PBForm.of_poly(x(1, 1).mul(x(1, 2)))
        g = SplineGrid(1, 2, ((f1, f2),))
        c = compile_autoregressive(g, CompileOptions(mode="faithful"))
        assert all(h.masked for b in c.blocks for h in b.attn.heads)
        rep = oracle_equiv(c, g, 200, 3)
        assert rep.exact

    def test_prefix_holds_for_every_cut(self):
        from splineformer.verifier import random_fraction
        f1 = PBForm.of_poly(x(1, 1))
        f2 = PBForm.of_poly(x(1, 1).mul(x(1, 2)))
        f3 = pb(emax(var(1, 2), var(1, 3)))
        g = SplineGrid(1, 3, ((f1, f2, f3),))
        c = compile_autoregressive(g)
        for j in range(1, 4):
            for t in range(20):
                rng = trial_rng(j * 100, t)
                X = random_rational_mat(rng, 1, 3)
                data = [list(r) for r in X.data]
                for cc in range(j, 3):
                    data[0][cc] = random_fraction(rng)
                Xp = Mat.rational(data)
                a, b = c(X), c(Xp)
                for cc in range(j):
                    assert a.at(0, cc) == b.at(0, cc)
