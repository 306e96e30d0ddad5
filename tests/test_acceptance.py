"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import math
import random
import time
from dataclasses import replace
from fractions import Fraction as F

import pytest

from splineformer.cli import main as cli_main
from splineformer.compiler import (CompileOptions, build_eps2, compile_autoregressive,
                                   compile_spline, ffn_block_form,
                                   linear_spline_to_ffn)
from splineformer.spline import (Monomial, ONE, PBForm, Polynomial, SplineGrid,
                                 const, emax, emin, escale, normalize_to_pbform, var)
from splineformer.tensor import Mat
from splineformer.transformer import (EncDecStack, EncDecStage,
                                      EncoderBlock, EncoderModel, FeedForwardNet,
                                      MultiheadAttention, attention_head, blocks_to_float,
                                      eval_encdec, eval_encoder, eval_ffn,
                                      eval_multihead)
from splineformer.veronese import VeroneseIndex, veronese_eval
from splineformer.verifier import (autoregressive_check, estimate_degree,
                                   oracle_equiv, random_rational_mat,
                                   smooth_convergence_table, softplus_error_bound,
                                   smooth_swap, trial_rng)
from splineformer.transformer import softplus
from reference import FnModel, apply_mask, identity_ffn, relu, softmax_columns


def report(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def x(i, j=1):
    return Polynomial.variable(i, j)


def poly_power(i, j, k):
    return Polynomial.from_terms({Monomial.from_dict({(i, j): k}): F(1)})


def test_01_cubic_identity():
    start = time.monotonic()
    one, zero = Mat.rational([[1]]), Mat.rational([[0]])
    head = attention_head(a_q=one, b_q=zero, a_k=one, b_k=zero, a_v=one, b_v=zero)
    ok = True
    for t in range(1000):
        xv = trial_rng(42, t)
        val = F(xv.randint(-10, 10), xv.randint(1, 7))
        got = eval_multihead(head, Mat.rational([[val]])).at(0, 0)
        if got != val ** 3:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(1, "cubic attention identity at 1000 rational points", ok and elapsed < 1.0)


def test_02_quadratic_stage_reproduction():
    start = time.monotonic()
    ok = True
    for n in (1, 2):
        for p in (1, 2):
            faithful = build_eps2(n, p, CompileOptions(mode="faithful"))
            if faithful.stats["heads_per_block"][0] != n * p * p + p:
                ok = False
            pruned = build_eps2(n, p, CompileOptions(mode="pruned"))
            idx = VeroneseIndex.for_matrix(n, p, 2)
            for enc, trials in ((faithful, 100), (pruned, 100)):
                if enc.layout.total_rows != p * len(idx):
                    ok = False
                for t in range(trials):
                    X = random_rational_mat(trial_rng(n * 100 + p, t), n, p)
                    out = enc(X)
                    v = veronese_eval(idx, X)
                    for j in range(p):
                        s, _ = enc.layout.block_spans[j]
                        for k in range(len(idx)):
                            if out.at(s + k, j) != v.at(k, 0):
                                ok = False
                        for jj in range(p):
                            if jj != j and any(out.at(s + k, jj) != 0
                                               for k in range(len(idx))):
                                ok = False
    elapsed = time.monotonic() - start
    report(2, "two-stage quadratic builder = block-diag monomials, exact",
           ok and elapsed < 30.0)


def test_03_spline_compilation_suite():
    start = time.monotonic()
    suite = [
        ("abs", SplineGrid(1, 1, ((normalize_to_pbform(
            emax(var(1, 1), escale(-1, var(1, 1)))),),))),
        ("relu", SplineGrid(1, 1, ((normalize_to_pbform(
            emax(var(1, 1), const(0))),),))),
        ("square", SplineGrid(1, 1, ((PBForm.of_poly(poly_power(1, 1, 2)),),))),
        ("cube", SplineGrid(1, 1, ((PBForm.of_poly(poly_power(1, 1, 3)),),))),
        ("max(xy,x+y)", SplineGrid(2, 1, ((PBForm.of_rows(
            [[x(1).mul(x(2))], [x(1).add(x(2))]]),),))),
        ("min(x^2,y)", SplineGrid(2, 1, ((PBForm.of_rows(
            [[poly_power(1, 1, 2), x(2)]]),),))),
    ]
    ok = True
    for name, grid in suite:
        compiled = compile_spline(grid, CompileOptions(mode="pruned"))
        rep = oracle_equiv(compiled, grid, 1000, 42)
        if not rep.exact:
            ok = False
            print(f"  suite member {name} failed: {rep.first_failure}")
    elapsed = time.monotonic() - start
    report(3, "pruned compilation suite exact on 1000 samples each",
           ok and elapsed < 120.0)


def test_04_autoregressive_compilation():
    g1 = SplineGrid(1, 2, ((PBForm.of_poly(x(1, 1)),
                            PBForm.of_poly(x(1, 1).mul(x(1, 2)))),))
    from splineformer.spline import esum
    g2 = SplineGrid(1, 3, ((PBForm.of_poly(x(1, 1)),
                            normalize_to_pbform(emax(var(1, 1), var(1, 2))),
                            normalize_to_pbform(emin(var(1, 3),
                                                     esum(var(1, 1), var(1, 2))))),))
    ok = True
    for grid in (g1, g2):
        compiled = compile_autoregressive(grid)
        if not all(h.masked for b in compiled.blocks for h in b.attn.heads):
            ok = False
        if not autoregressive_check(compiled, 200, 42).passed:
            ok = False
        if not oracle_equiv(compiled, grid, 500, 42).exact:
            ok = False
    report(4, "masked compilation autoregressive and exact", ok)


def test_05_degree_bounds():
    start = time.monotonic()
    ok = True

    fixture = attention_head(
        a_q=Mat.rational([[1, 2]]), b_q=Mat.rational([[0]]),
        a_k=Mat.rational([[1, 2]]), b_k=Mat.rational([[0]]),
        a_v=Mat.rational([[3, 1]]), b_v=Mat.rational([[1]]))
    rep = estimate_degree(FnModel(lambda X: eval_multihead(fixture, X), 2, 1),
                          max_deg=5, trials=50, seed=11, bound=3)
    ok &= rep.modal_degree == 3 and rep.bound_satisfied

    rng = random.Random(2)
    for _ in range(2):
        h = attention_head(
            a_q=random_rational_mat(rng, 1, 2), b_q=random_rational_mat(rng, 1, 2),
            a_k=random_rational_mat(rng, 1, 2), b_k=random_rational_mat(rng, 1, 2),
            a_v=random_rational_mat(rng, 1, 2), b_v=random_rational_mat(rng, 1, 2))
        rep = estimate_degree(FnModel(lambda X, h=h: eval_multihead(h, X), 2, 2),
                              max_deg=6, trials=50, seed=13, bound=3)
        ok &= rep.bound_satisfied

    def head(aq, bq, ak, bk, av, bv, masked=False):
        return attention_head(a_q=Mat.rational(aq), b_q=Mat.rational(bq),
                              a_k=Mat.rational(ak), b_k=Mat.rational(bk),
                              a_v=Mat.rational(av), b_v=Mat.rational(bv),
                              masked=masked)

    b1 = EncoderBlock(MultiheadAttention.of((head([[1, 2]], [[0]], [[1, 2]], [[0]],
                                                  [[3, 1]], [[1]]),)), identity_ffn(1))
    b2 = EncoderBlock(MultiheadAttention.of((head([[1]], [[0]], [[1]], [[0]],
                                                  [[1]], [[1]]),)), identity_ffn(1))
    rep = estimate_degree(EncoderModel([b1, b2]), max_deg=11, trials=50, seed=17,
                          bound=9)
    ok &= rep.modal_degree <= 9 and rep.bound_satisfied

    c = F(1, 100)
    eb = EncoderBlock(MultiheadAttention.of((head([[c]], [[0]], [[c]], [[0]],
                                                  [[c]], [[F(1, 50)]]),)), identity_ffn(1))
    sh = head([[c]], [[0]], [[c]], [[0]], [[c]], [[F(1, 30)]], masked=True)
    ch = head([[1]], [[1]], [[1]], [[1]], [[1]], [[F(1, 10)]])
    stack = EncDecStack(encoder=(eb,), stages=(EncDecStage(
        self_attn=MultiheadAttention.of((sh,)), cross_attn=MultiheadAttention.of((ch,)),
        ffn=identity_ffn(1)),))

    def joint(Z):
        return eval_encdec(stack, Mat.rational([[Z.at(0, 0)]]),
                           Mat.rational([[Z.at(1, 0)]]))

    rep = estimate_degree(FnModel(joint, 2, 1), max_deg=11, trials=50, seed=19,
                          bound=9)
    ok &= rep.modal_degree <= 9 and rep.bound_satisfied

    elapsed = time.monotonic() - start
    report(5, "degree bounds: head 3, two blocks <= 9, enc-dec <= 9",
           ok and elapsed < 60.0)


def test_06_one_hidden_layer_block_form():
    rng = random.Random(6)
    ok = True
    for trial in range(10):
        d_in, hidden, d_out = (rng.randint(1, 4) for _ in range(3))
        p = rng.randint(1, 4)
        phi = FeedForwardNet((
            (random_rational_mat(rng, hidden, d_in), random_rational_mat(rng, hidden, 1)),
            (random_rational_mat(rng, d_out, hidden), random_rational_mat(rng, d_out, 1))))
        blk = ffn_block_form(phi, d_in, p)
        for t in range(100):
            X = random_rational_mat(trial_rng(trial, t), d_in, p)
            if eval_encoder([blk], X) != eval_ffn(phi, X):
                ok = False
    report(6, "columnwise nets as single encoder blocks, exact", ok)


def test_07_linear_spline_networks():
    rng = random.Random(7)
    structures = [(1,), (2,), (3,), (4,), (1, 1), (2, 1), (2, 2), (3, 1),
                  (1, 1, 1), (2, 1, 1), (1, 1, 1, 1)]
    ok = True
    for trial in range(20):
        nvars = rng.randint(1, 3)
        widths = structures[rng.randrange(len(structures))]
        pieces = sum(widths)
        rows = []
        for w in widths:
            row = []
            for _ in range(w):
                terms = {ONE: F(rng.randint(-3, 3))}
                for i in range(1, nvars + 1):
                    terms[Monomial.variable(i, 1)] = F(rng.randint(-3, 3))
                row.append(Polynomial.from_terms(terms))
            rows.append(row)
        f = PBForm.of_rows(rows)
        net = linear_spline_to_ffn(f, nvars)
        depth_bound = (math.ceil(math.log2(pieces)) if pieces > 1 else 0) + 2
        if net.depth > depth_bound:
            ok = False
        for t in range(100):
            X = random_rational_mat(trial_rng(700 + trial, t), nvars, 1)
            if eval_ffn(net, X).at(0, 0) != f.eval(X):
                ok = False
    report(7, "max-min nets exact with logarithmic depth", ok)


def test_08_mask_semantics():
    ok = True
    for t in range(100):
        rng = trial_rng(8, t)
        size = rng.randint(2, 4)
        m = Mat.from_floats([[rng.uniform(-5, 5) for _ in range(size)]
                             for _ in range(size)])
        probs = softmax_columns(apply_mask(m))
        for i in range(size):
            for j in range(size):
                if i > j and probs.at(i, j) != 0.0:
                    ok = False
        for j in range(size):
            col = probs.col_entries(j)
            if abs(sum(col) - 1.0) > 1e-12 or any(e < 0 or e > 1 for e in col):
                ok = False
    for t in range(100):
        rng = trial_rng(88, t)
        size = rng.randint(1, 4)
        rows = [[F(rng.randint(-10, 10), rng.randint(1, 7)) for _ in range(size)]
                for _ in range(size)]
        m = Mat.rational(rows)
        structural = relu(apply_mask(m)).to_float()
        floats = relu(apply_mask(m.to_float()))
        if structural != floats:
            ok = False
    report(8, "mask: softmax zeros + probability columns; structural = float path", ok)


def test_09_smoothing_convergence():
    one, zero = Mat.rational([[1]]), Mat.rational([[0]])
    head = attention_head(a_q=one, b_q=zero, a_k=one, b_k=zero, a_v=one, b_v=zero)
    cubic = EncoderBlock(MultiheadAttention.of((head,)), identity_ffn(1))
    xs = [random_rational_mat(trial_rng(99, t), 1, 1) for t in range(96)]
    xs += [Mat.rational([[F(1, 7)]]), Mat.rational([[F(-1, 7)]]),
           Mat.rational([[F(1, 6)]]), Mat.rational([[F(-1, 6)]])]
    betas = [10.0, 100.0, 1000.0]
    rows = smooth_convergence_table([cubic], xs, betas)
    errs = [r["max_abs_error"] for r in rows]
    ok = errs[0] > errs[1] > errs[2]
    for beta, err in zip(betas, errs):
        bound = max(softplus_error_bound([cubic], X, beta) for X in xs)
        if err > bound:
            ok = False
    # the full compiled pipeline also stays within its propagated bound
    g = SplineGrid(1, 1, ((PBForm.of_poly(poly_power(1, 1, 3)),),))
    compiled = compile_spline(g, CompileOptions(mode="pruned"))
    relu_blocks = blocks_to_float(compiled.blocks)
    for beta in betas:
        swapped = smooth_swap(compiled, softplus(beta))
        for X in xs[:20]:
            want = eval_encoder(relu_blocks, X.to_float()).at(0, 0)
            got = swapped(X).at(0, 0)
            if abs(got - want) > softplus_error_bound(compiled, X, beta):
                ok = False
    report(9, "softplus errors strictly decrease and respect the ln2/beta bound", ok)


def test_10_cli_determinism(tmp_path, capsys):
    spline = {"n": 1, "p": 1, "grid": [[{"op": "poly", "terms": [
        {"coef": "1", "exps": {"x_1_1": 2}}]}]]}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(spline))
    blobs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli_main(["compile", str(spath), "-o", str(out)]) == 0
        capsys.readouterr()
        blobs.append((out.read_bytes(),
                      (tmp_path / name.replace(".json", ".layout.json")).read_bytes()))
    ok = blobs[0] == blobs[1]
    verify_runs = []
    for _ in range(2):
        assert cli_main(["verify", str(tmp_path / "a.json"), str(spath),
                         "--samples", "100", "--seed", "42"]) == 0
        verify_runs.append(capsys.readouterr().out.encode())
    ok = ok and verify_runs[0] == verify_runs[1]
    report(10, "compile and verify are byte-identical under a fixed seed", ok)
