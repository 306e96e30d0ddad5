import argparse
import copy
import importlib.util
import json
import os
import tracemalloc

import pytest

from splineformer import cli, spline as spline_module
from splineformer.cli import MAX_LINE_POINTS, main
from splineformer.spline import MAX_DEGREE, MAX_INPUT_ENTRIES
from splineformer.tensor import Mat, mat_from_json, mat_to_json
from splineformer.transformer import (EncoderBlock, MultiheadAttention, attention_head,
                                      blocks_from_json, blocks_to_float, blocks_to_json,
                                      eval_encoder)
from splineformer.verifier import PASS_COLUMNS, random_rational_mat, trial_rng

from reference import identity_ffn, per_head_file, per_head_json
from test_transformer import GRID_2X2

ABS_SPLINE = {"n": 1, "p": 1, "grid": [[{"op": "max", "args": [
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]},
    {"op": "poly", "terms": [{"coef": "-1", "exps": {"x_1_1": 1}}]}]}]]}

CUBE_SPLINE = {"n": 1, "p": 1, "grid": [[
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 3}}]}]]}

QUINTIC_SPLINE = {"n": 1, "p": 1, "grid": [[
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 5}}]}]]}

IDENTITY_SPLINE = {"n": 1, "p": 1, "grid": [[
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]}]]}

AUTOREGRESSIVE_SPLINE = {"n": 1, "p": 2, "grid": [[
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]},
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1, "x_1_2": 1}}]}]]}

NOT_AUTOREGRESSIVE = {"n": 1, "p": 2, "grid": [[
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_2": 1}}]},
    {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]}]]}


# a sample count whose batched passes cannot all fit in one
OVER_PASS = str(PASS_COLUMNS + 1)


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def one_head_weights(**head) -> dict:
    """A 1x1 weights document: one head, its maps 1 and its biases 0 unless
    given, and a one-layer identity net."""
    maps = {"A_Q": [["1"]], "A_K": [["1"]], "A_V": [["1"]],
            "B_Q": [["0"]], "B_K": [["0"]], "B_V": [["0"]]}
    return {"blocks": [{"heads": [{**maps, **head}],
                        "ffn": {"layers": [{"A": [["1"]], "b": [["0"]]}]}}]}


def compile_to(tmp_path, spline, name="w.json", extra=()):
    spath = write(tmp_path / "spline.json", spline)
    out = str(tmp_path / name)
    code = main(["compile", spath, "-o", out, *extra])
    assert code == 0
    return spath, out


class TestCompile:
    def test_abs_stats(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        stats = json.loads(capsys.readouterr().out)
        assert stats["stages"] == 1
        assert os.path.exists(out)
        assert os.path.exists(out.replace(".json", ".layout.json"))
        sidecar = json.loads(open(out.replace(".json", ".layout.json")).read())
        assert sidecar["mode"] in ("faithful", "pruned")
        assert all({"monomial", "column", "row"} <= set(r) for r in sidecar["rows"])

    def test_masked_on_bad_declaration_exits_3(self, tmp_path, capsys):
        spath = write(tmp_path / "bad.json", NOT_AUTOREGRESSIVE)
        code = main(["compile", spath, "--masked", "-o", str(tmp_path / "w.json")])
        assert code == 3
        assert "column" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert main(["compile", str(p), "-o", str(tmp_path / "w.json")]) == 2

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spath = write(tmp_path / "s.json", CUBE_SPLINE)
        outs = []
        for name in ("a.json", "b.json"):
            out = str(tmp_path / name)
            assert main(["compile", spath, "-o", out]) == 0
            outs.append((open(out, "rb").read(),
                         open(out.replace(".json", ".layout.json"), "rb").read(),
                         capsys.readouterr().out.replace(name, "X.json")))
        assert outs[0][:2] == outs[1][:2]


class TestEval:
    def test_cube_at_two(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        xpath = write(tmp_path / "x.json", [["2"]])
        assert main(["eval", out, xpath]) == 0
        assert json.loads(capsys.readouterr().out) == [["8"]]

    def test_identity_echoes(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        xpath = write(tmp_path / "x.json", [["-7/3"]])
        assert main(["eval", out, xpath]) == 0
        assert json.loads(capsys.readouterr().out) == [["-7/3"]]

    def test_masked_prefix_dependence(self, tmp_path, capsys):
        spath = write(tmp_path / "s.json", AUTOREGRESSIVE_SPLINE)
        out = str(tmp_path / "w.json")
        assert main(["compile", spath, "--masked", "-o", out]) == 0
        capsys.readouterr()
        assert main(["eval", out, write(tmp_path / "x1.json", [["2", "3"]])]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["eval", out, write(tmp_path / "x2.json", [["2", "5"]])]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first[0][0] == second[0][0]  # column 1 fixed by the prefix
        assert first[0][1] != second[0][1]

    def test_shape_mismatch_exits_2(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        xpath = write(tmp_path / "x.json", [["1"], ["2"]])
        assert main(["eval", out, xpath]) == 2

    def test_backend_flag(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        xpath = write(tmp_path / "x.json", [["2"]])
        assert main(["eval", out, xpath, "--backend", "float"]) == 0
        assert json.loads(capsys.readouterr().out) == [[8.0]]
        fpath = write(tmp_path / "xf.json", [[2.0]])
        assert main(["eval", out, fpath, "--backend", "rational"]) == 2


class TestVerify:
    def test_exact_pair_exits_0(self, tmp_path, capsys):
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["verify", out, spath, "--samples", "200"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True and report["samples"] == 200

    def test_corrupted_weights_exit_1_with_witness(self, tmp_path, capsys):
        spath, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        weights = per_head_file(out)
        weights["blocks"][0]["heads"][0]["A_V"][0][0] = "2"
        corrupted = write(tmp_path / "bad.json", weights)
        assert main(["verify", corrupted, spath, "--samples", "100"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is False and "first_failure" in report

    def test_seed_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPLINEFORMER_SEED", "7")
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["verify", out, spath, "--samples", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_byte_identical_reruns(self, tmp_path, capsys):
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        runs = []
        for _ in range(2):
            assert main(["verify", out, spath, "--samples", "50"]) == 0
            runs.append(capsys.readouterr().out)
        assert runs[0] == runs[1]


class TestDegree:
    def test_default_bound_from_blocks(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["degree", out, "--trials", "10"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == 3  # one block
        assert report["bound_satisfied"] is True
        assert report["modal_degree"] == 1

    def test_default_bound_of_a_pruned_chain(self, tmp_path, capsys):
        # pruned x^16 is four product passes, the first reading the raw
        # input with no copy pass: bound 3^4
        x16 = {"n": 1, "p": 1, "grid": [[
            {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 16}}]}]]}
        _, out = compile_to(tmp_path, x16)
        assert json.loads(capsys.readouterr().out)["blocks"] == 4
        assert main(["degree", out, "--trials", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == 81 and report["bound_satisfied"] is True
        assert report["modal_degree"] == 16

    def test_explicit_bound(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        assert main(["degree", out, "--trials", "10", "--bound", "81"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound"] == 81 and report["bound_satisfied"] is True


class TestSmooth:
    def test_softplus_table(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["smooth", out, "--betas", "10,100", "--samples", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        errs = [r["max_abs_error"] for r in report["rows"]]
        assert len(errs) == 2 and errs[1] <= errs[0]

    def test_softmax_probability_columns(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["smooth", out, "--activation", "softmax", "--samples", "5"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["probability_columns"] is True
        assert report["finite_outputs"] is True

    def test_nan_columns_are_not_probabilities(self, tmp_path, capsys):
        # the scores 1e400 x^2 overflow to inf, and their SoftMax columns to NaN
        w = write(tmp_path / "w.json", one_head_weights(A_Q=[["1e200"]], A_K=[["1e200"]]))
        assert main(["smooth", w, "--activation", "softmax", "--samples", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["probability_columns"] is False
        assert report["finite_outputs"] is False

    def test_empty_betas_empty_table(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["smooth", out, "--betas", "", "--samples", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"] == []


class TestSmoothMemory:
    """`smooth` draws its samples a pass's chunk at a time, so the memory
    it holds does not grow with --samples."""

    @pytest.mark.parametrize("argv", [["--betas", ""], ["--activation", "softmax"]],
                             ids=["softplus", "softmax"])
    def test_peak_does_not_grow_with_samples(self, tmp_path, capsys, argv):
        # the ReLU base alone keeps the softplus run short; every beta takes
        # the same chunks
        _, out = compile_to(tmp_path, ABS_SPLINE, extra=("--mode", "pruned"))
        main(["smooth", out, "--samples", "1", *argv])  # the parser is built once
        peaks = []
        for samples in (2000, 20000):
            cli._blocks_of.cache_clear()
            capsys.readouterr()
            tracemalloc.start()
            try:
                assert main(["smooth", out, "--samples", str(samples), *argv]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert json.loads(capsys.readouterr().out)["samples"] == samples
        assert abs(peaks[1] - peaks[0]) < 2 ** 20


class TestInputErrors:
    """Bad counts and unreadable inputs exit 2 with a message, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify", "W", "S", "--samples", "0"],
        ["degree", "W", "--trials", "0"],
        ["smooth", "W", "--samples", "0"],
    ])
    def test_counts_below_one_exit_2(self, tmp_path, capsys, argv):
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        argv = [{"W": out, "S": spath}.get(a, a) for a in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at least 1" in captured.err

    def test_non_matrix_input_exits_2(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["eval", out, write(tmp_path / "x.json", 5)]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize("betas", ["10,abc", "-1"])
    def test_bad_betas_exit_2(self, tmp_path, capsys, betas):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["smooth", out, "--betas", betas, "--samples", "2"]) == 2
        err = capsys.readouterr().err
        assert "--betas" in err and len(err.strip().splitlines()) == 1

    def test_integer_input_is_exact(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["eval", out, write(tmp_path / "x.json", [[-3]])]) == 0
        assert json.loads(capsys.readouterr().out) == [["3"]]

    @pytest.mark.parametrize("weights", [5, {"blocks": 5}, {"blocks": [{"heads": 5}]}],
                             ids=["number", "blocks-number", "heads-number"])
    def test_malformed_weights_exit_2(self, tmp_path, capsys, weights):
        w = write(tmp_path / "w.json", weights)
        assert main(["eval", w, write(tmp_path / "x.json", [["1"]])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1

    def test_float_exponent_exits_2(self, tmp_path, capsys):
        spline = {"n": 1, "p": 1, "grid": [[
            {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1.5}}]}]]}
        spath = write(tmp_path / "spline.json", spline)
        assert main(["compile", spath, "-o", str(tmp_path / "w.json")]) == 2
        err = capsys.readouterr().err
        assert "exponent" in err and len(err.strip().splitlines()) == 1

    def test_zero_denominator_input_exits_2(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        assert main(["eval", out, write(tmp_path / "x.json", [["1/0"]])]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read inputs" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_zero_denominator_weight_exits_2(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        doc["blocks"][0]["heads"][0]["A_V"][0][0] = "1/0"
        w = write(tmp_path / "bad.json", doc)
        assert main(["eval", w, write(tmp_path / "x.json", [["1"]])]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "cannot read inputs" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("coef", ["1/0", float("inf"), [1]],
                             ids=["zero-denominator", "infinity", "list"])
    def test_bad_coefficient_exits_2(self, tmp_path, capsys, coef):
        spline = {"n": 1, "p": 1, "grid": [[
            {"op": "poly", "terms": [{"coef": coef, "exps": {"x_1_1": 1}}]}]]}
        spath = write(tmp_path / "spline.json", spline)
        assert main(["compile", spath, "-o", str(tmp_path / "w.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "coefficient" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("backend", [[], ["--backend", "float"]], ids=["inferred", "float"])
    @pytest.mark.parametrize("x", ["[[NaN]]", "[[Infinity]]", "[[1e400]]", '[["-inf"]]'],
                             ids=["nan", "infinity", "1e400", "minus-inf"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, x, backend):
        # JSON cannot spell a non-finite result, and the float pass reads relu(NaN) as 0.0
        _, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        (tmp_path / "x.json").write_text(x)
        one_line_exit_2(capsys, ["eval", out, str(tmp_path / "x.json"), *backend])

    @pytest.mark.parametrize("argv", [
        ["eval", "W", [["1" + "0" * 400]], "--backend", "float"],
        ["eval", "BIG", [["1/2"]], "--backend", "float"],
        ["eval", "BIG", [[0.5]]],
        ["eval", "W", [[1e200]]],
        ["smooth", "BIG", "--samples", "1"],
        ["smooth", "BIG", "--activation", "softmax", "--samples", "1"],
        ["smooth", "HUGE", "--samples", "2"],
        ["smooth", "HUGE", "--activation", "softmax", "--samples", "2"],
        ["smooth", "HUGE", "--samples", OVER_PASS],
        ["smooth", "HUGE", "--activation", "softmax", "--samples", OVER_PASS],
        ["smooth", "SOFTMAX", "--samples", OVER_PASS],
        ["smooth", "SOFTMAX", "--activation", "softmax", "--samples", OVER_PASS],
        ["smooth", "CHAIN", "--samples", OVER_PASS],
        ["smooth", "CHAIN", "--activation", "softmax", "--samples", OVER_PASS],
        ["smooth", "CUBED", "--samples", OVER_PASS, "--seed", "7"],
        ["smooth", "CUBED", "--betas", "", "--samples", OVER_PASS, "--seed", "7"],
        ["smooth", "SQUARED", "--activation", "softmax", "--samples", OVER_PASS, "--seed", "7"],
    ], ids=["input", "weight", "weight-float-input", "float-pass", "softplus", "softmax",
            "softplus-pass", "softmax-pass", "softplus-passes", "softmax-passes",
            "softplus-non-relu", "softmax-non-relu", "softplus-chain", "softmax-chain",
            "softplus-one-sample", "relu-one-sample", "softmax-one-column"])
    def test_beyond_float_range_exits_2(self, tmp_path, capsys, argv):
        # a 401-digit rational has no float, and the cube of 1e200 overflows;
        # with every value weight of x^5 (three product passes) at 1e200 both
        # smoothed passes overflow: under softmax each product row reads 0,
        # but block 2 copies x forward as 1e200 * 1e200 * x, and block 3's
        # x^4 * x head scores that row.  Above one pass's PASS_COLUMNS the
        # samples take several batched passes, whose errors keep their text:
        # SoftMax heads are refused, a chain whose block 1 reads 1 row of
        # the 2 block 0 writes names the shape of one input, and at seed 7
        # only sample 53 is x = +-10, whose 2e305 x^3 (CUBED) overflows and
        # whose score -2e306 x^2 (SQUARED) is -inf, its SoftMax column with it
        _, out = compile_to(tmp_path, QUINTIC_SPLINE, name="huge.json")
        capsys.readouterr()
        huge = per_head_file(out)
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        for blk in huge["blocks"]:
            for h in blk["heads"]:
                h["A_V"] = [["1" + "0" * 200 if v != "0" else v for v in row] for row in h["A_V"]]
        softmax = per_head_file(out)
        for blk in softmax["blocks"]:
            for h in blk["heads"]:
                h["activation"] = "softmax"
        doc["blocks"][0]["heads"][0]["A_V"][0][0] = "1" + "0" * 400
        chain = one_head_weights()
        chain["blocks"][0]["ffn"]["layers"][0] = {"A": [["1"], ["1"]], "b": [["0"], ["0"]]}
        chain["blocks"].append(one_head_weights()["blocks"][0])
        paths = {"W": out, "BIG": write(tmp_path / "big.json", doc),
                 "HUGE": write(tmp_path / "huge.json", huge),
                 "SOFTMAX": write(tmp_path / "softmax.json", softmax),
                 "CHAIN": write(tmp_path / "chain.json", chain),
                 "CUBED": write(tmp_path / "cubed.json", one_head_weights(A_V=[["2" + "0" * 305]])),
                 "SQUARED": write(tmp_path / "squared.json",
                                  one_head_weights(A_Q=[["-2" + "0" * 306]]))}
        err = one_line_exit_2(capsys, [write(tmp_path / "x.json", a) if isinstance(a, list)
                                       else paths.get(a, a) for a in argv])
        if "HUGE" in argv:
            assert "cannot smooth: the float pass overflowed" in err
        if argv[-2:] == ["--seed", "7"]:
            draws = [random_rational_mat(trial_rng(7, t), 1, 1).data[0][0]
                     for t in range(PASS_COLUMNS + 1)]
            assert [t for t, v in enumerate(draws) if abs(v) == 10] == [53]
        want = {"SOFTMAX": "cannot smooth: smooth swap expects a relu-activated model, "
                           "found softmax attention\n",
                "CHAIN": "cannot smooth: block 1: attention input (2, 1), head expects (1, 1)\n",
                "CUBED": "cannot smooth: the float pass overflowed\n",
                "SQUARED": "cannot smooth: the float pass overflowed\n"}
        assert err == want.get(argv[1], err)

    def test_negative_max_deg_exits_2(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        assert main(["degree", out, "--trials", "1", "--max-deg", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-deg" in captured.err

    @pytest.mark.parametrize("bound", [-1, -3, -100])
    def test_negative_bound_exits_2(self, tmp_path, capsys, bound):
        # without --max-deg a trial has bound + 4 line points: one at -3, none below
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        for weights in (out, str(tmp_path / "missing.json")):  # checked before the read
            assert main(["degree", weights, "--trials", "2", "--bound", str(bound)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"--bound must be at least 0, got {bound}\n"

    @pytest.mark.parametrize("argv", [
        ["smooth", "W", "--activation", "softplus", "--samples", "2"],
        ["smooth", "W", "--activation", "softplus", "--betas", "inf", "--samples", "2"],
        ["smooth", "W", "--activation", "softplus", "--betas", "", "--samples", "2"],
        ["smooth", "W", "--activation", "softmax", "--samples", "2"],
        ["degree", "W", "--trials", "1", "--bound", "3"],
    ], ids=["smooth-softplus", "smooth-inf", "smooth-no-betas", "smooth-softmax", "degree"])
    @pytest.mark.parametrize("activation", [{"activation": "softmax"},
                                            {"activation": "softplus", "beta": 10.0}],
                             ids=["softmax-heads", "softplus-heads"])
    def test_non_relu_weights_exit_2(self, tmp_path, capsys, argv, activation):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        for blk in doc["blocks"]:
            for head in blk["heads"]:
                head.update(activation)
        w = write(tmp_path / "smooth_heads.json", doc)
        assert main([w if a == "W" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert activation["activation"] in captured.err
        assert len(captured.err.strip().splitlines()) == 1


def one_line_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    return captured.err


CELL = IDENTITY_SPLINE["grid"][0][0]


class TestDocumentShape:
    """A spline document of the wrong shape, or a softplus beta that is not
    a finite positive number, exits 2 with one line."""

    @pytest.mark.parametrize("spline", [
        {"n": 1, "p": 1, "grid": 5},
        [IDENTITY_SPLINE],
        {"n": 1, "p": 1, "grid": [[5]]},
        {"n": 1, "p": 1, "grid": [{"cell": CELL}]},
        {"n": 1, "p": 1, "grid": [[{"op": "poly", "terms": 5}]]},
        {"n": 1, "p": 1, "grid": [[{"op": "poly", "terms": [5]}]]},
        {"n": 1, "p": 1, "grid": [[{"op": "poly", "terms": [{"coef": "1", "exps": 5}]}]]},
        {"n": 1, "p": 1, "grid": [[{"op": "max", "args": 5}]]},
        {"n": 1, "p": 1, "grid": [[{"op": 5}]]},
        {"n": 0, "p": 1, "grid": [[CELL]]},
        {"n": -1, "p": 1, "grid": [[CELL]]},
        {"n": 1, "p": 0, "grid": [[]]},
        {"n": 2.7, "p": 1, "grid": [[CELL]]},
        {"n": 1.0, "p": 1, "grid": [[CELL]]},
        {"n": True, "p": 1, "grid": [[CELL]]},
        {"n": "1", "p": 1, "grid": [[CELL]]},
        {"n": 1, "p": False, "grid": [[CELL]]},
        {"n": 1, "p": 1, "grid": [[{"op": "poly", "terms": [
            {"coef": True, "exps": {"x_1_1": 1}}]}]]},
    ], ids=["grid-number", "top-level-list", "cell-number", "row-object", "terms-number",
            "term-number", "exps-number", "args-number", "op-number", "n-0", "n-minus-1",
            "p-0", "n-2.7", "n-1.0", "n-true", "n-string", "p-false", "coef-true"])
    def test_malformed_spline_exits_2(self, tmp_path, capsys, spline):
        spath = write(tmp_path / "bad.json", spline)
        one_line_exit_2(capsys, ["compile", spath, "-o", str(tmp_path / "w.json")])
        assert not os.path.exists(tmp_path / "w.json")
        _, out = compile_to(tmp_path, IDENTITY_SPLINE, name="ok.json")
        capsys.readouterr()
        one_line_exit_2(capsys, ["verify", out, spath, "--samples", "1"])

    @pytest.mark.parametrize("beta", ["NaN", "1e400", "1" + "0" * 400, "true", "0", "-2",
                                      "\"10\"", "null"])
    @pytest.mark.parametrize("command", [["eval", "W", "X", "--backend", "float"],
                                         ["smooth", "W", "--samples", "2"]])
    def test_bad_softplus_beta_exits_2(self, tmp_path, capsys, beta, command):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        for blk in doc["blocks"]:
            for head in blk["heads"]:
                head.update({"activation": "softplus", "beta": "BETA"})
        w = tmp_path / "bad_beta.json"
        w.write_text(json.dumps(doc).replace('"BETA"', beta))
        x = write(tmp_path / "x.json", [["1/2"]])
        one_line_exit_2(capsys, [{"W": str(w), "X": x}.get(a, a) for a in command])

    @pytest.mark.parametrize("where,key,value", [
        ("head", "masked", "no"), ("head", "scaled", "false"), ("block", "residual", "no"),
        ("head", "masked", 1), ("block", "residual", None)],
        ids=["masked-no", "scaled-false", "residual-no", "masked-1", "residual-null"])
    @pytest.mark.parametrize("command", [["eval", "W", "X"],
                                         ["verify", "W", "S", "--samples", "1"],
                                         ["smooth", "W", "--samples", "1"]],
                             ids=["eval", "verify", "smooth"])
    def test_non_boolean_flag_exits_2(self, tmp_path, capsys, where, key, value, command):
        # a flag must be a JSON boolean: "no" is not false, and is not read as true
        spath, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        blk = doc["blocks"][0]
        (blk["heads"][0] if where == "head" else blk)[key] = value
        w = write(tmp_path / "flag.json", doc)
        x = write(tmp_path / "x.json", [["1/2"]])
        one_line_exit_2(capsys, [{"W": w, "X": x, "S": spath}.get(a, a) for a in command])

    def test_large_finite_beta_is_read(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        doc = per_head_file(out)
        for blk in doc["blocks"]:
            for head in blk["heads"]:
                head.update({"activation": "softplus", "beta": 1e300})
        w = write(tmp_path / "w.json", doc)
        assert main(["eval", w, write(tmp_path / "x.json", [["1/2"]]), "--backend", "float"]) == 0
        assert json.loads(capsys.readouterr().out) == [[0.125]]


class TestFloatEval:
    """`eval --backend float` walks the float image of the loaded weights;
    its stdout must equal a pass over a float copy of them."""

    @pytest.mark.parametrize("heads", [
        {}, {"activation": "softplus", "beta": 10.0}, {"activation": "softplus", "beta": 0.5},
        {"activation": "softmax"}, {"scaled": True},
        {"activation": "softmax", "scaled": True},
    ], ids=["relu", "softplus-10", "softplus-0.5", "softmax", "scaled", "softmax-scaled"])
    @pytest.mark.parametrize("spline,extra", [(CUBE_SPLINE, ()),
                                              (AUTOREGRESSIVE_SPLINE, ("--masked",))],
                             ids=["cube", "masked"])
    def test_equals_float_copy(self, tmp_path, capsys, heads, spline, extra):
        _, out = compile_to(tmp_path, spline, extra=extra)
        capsys.readouterr()
        doc = per_head_file(out)
        for blk in doc["blocks"]:
            for head in blk["heads"]:
                head.update(heads)
        w = write(tmp_path / "heads.json", doc)
        xs = [[["3/2"]], [["-2/7"]]] if spline is CUBE_SPLINE else [[["3/2", "-5"]]]
        for x in xs:
            want = eval_encoder(blocks_to_float(blocks_from_json(doc)),
                                mat_from_json(x).to_float())
            assert main(["eval", w, write(tmp_path / "x.json", x), "--backend", "float"]) == 0
            assert capsys.readouterr().out == json.dumps(mat_to_json(want), sort_keys=True) + "\n"

    @pytest.mark.parametrize("spline,x", [(CUBE_SPLINE, [[2.0]]), (CUBE_SPLINE, [[-0.5]]),
                                          (AUTOREGRESSIVE_SPLINE, [[1.5, -5.0]])],
                             ids=["cube-2", "cube-half", "masked"])
    def test_float_input_needs_no_backend(self, tmp_path, capsys, spline, x):
        # a JSON float input runs the float pass, as --backend float does
        extra = ("--masked",) if spline is AUTOREGRESSIVE_SPLINE else ()
        _, out = compile_to(tmp_path, spline, extra=extra)
        capsys.readouterr()
        xpath = write(tmp_path / "xf.json", x)
        assert main(["eval", out, xpath]) == 0
        inferred = capsys.readouterr().out
        assert main(["eval", out, xpath, "--backend", "float"]) == 0
        assert inferred == capsys.readouterr().out
        if x == [[2.0]]:
            assert inferred == "[[8.0]]\n"


    def test_softmax_column_of_minus_inf_exits_2(self, tmp_path, capsys):
        # the score -(1e200)^2 overflows to -inf, leaving no finite entry in
        # the one SoftMax column
        w = write(tmp_path / "w.json", one_head_weights(A_K=[["-1"]], activation="softmax"))
        assert main(["eval", w, write(tmp_path / "x.json", [[1e200]])]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "evaluation failed: the float pass overflowed\n"


def min_of_maxes(k):
    """min of k two-way maxes, which normalizes to 2^k rows of k polynomials."""
    return {"n": 2, "p": 1, "grid": [[{"op": "min", "args": [
        {"op": "max", "args": [
            {"op": "poly", "terms": [{"coef": str(i + 1), "exps": {"x_1_1": 1}}]},
            {"op": "poly", "terms": [{"coef": "1", "exps": {"x_2_1": 1}}, {"coef": str(i), "exps": {}}]}]}
        for i in range(k)]}]]}


class TestResourceCaps:
    """Inputs whose cost grows exponentially exit 3 with one line before
    the work starts."""

    def test_degree_default_bound_over_cap(self, tmp_path, capsys):
        # seven stacked identity blocks: the default bound 3^7 asks for 2191 points
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        doc = json.loads(open(out).read())
        doc["blocks"] = doc["blocks"] * 7
        w = write(tmp_path / "deep.json", doc)
        assert main(["degree", w, "--trials", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(MAX_LINE_POINTS) in captured.err and "--max-deg" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_degree_max_deg_just_over_cap(self, tmp_path, capsys):
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        max_deg = MAX_LINE_POINTS - 1  # max_deg + 2 line points, one over the cap
        assert main(["degree", out, "--trials", "1", "--max-deg", str(max_deg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "--max-deg" in captured.err

    def test_degree_cap_boundary(self, tmp_path, capsys, monkeypatch):
        # with a cap of 8 points, --max-deg 6 runs and --max-deg 7 does not
        monkeypatch.setattr(cli, "MAX_LINE_POINTS", 8)
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        assert main(["degree", out, "--trials", "1", "--max-deg", "6"]) == 0
        assert json.loads(capsys.readouterr().out)["max_deg"] == 6
        assert main(["degree", out, "--trials", "1", "--max-deg", "7"]) == 3
        assert "cap of 8" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_normalization_just_over_cap(self, tmp_path, capsys, command):
        # k = 8 gives 2048 polynomials, under the cap; k = 9 gives 4608
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        spath = write(tmp_path / "wide.json", min_of_maxes(9))
        argv = {"compile": ["compile", spath, "-o", str(tmp_path / "wide_w.json")],
                "verify": ["verify", out, spath, "--samples", "1"]}[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err and len(captured.err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_max_just_over_cap(self, tmp_path, capsys, command):
        # a max joins rows: max(m8, m8, x_1_1), with m8 the min of eight two-way
        # maxes, is 513 rows of 4097 polynomials, one over the cap
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        m8 = min_of_maxes(8)["grid"][0][0]
        x = {"op": "poly", "terms": [{"coef": "1", "exps": {"x_1_1": 1}}]}
        doc = {"n": 2, "p": 1, "grid": [[{"op": "max", "args": [m8, m8, x]}]]}
        spath = write(tmp_path / "tall.json", doc)
        w = tmp_path / "tall_w.json"
        argv = {"compile": ["compile", spath, "-o", str(w)],
                "verify": ["verify", out, spath, "--samples", "1"]}[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not w.exists()
        assert "4097 polynomials in 513 rows" in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    @staticmethod
    def min_of_two_maxes(distinct):
        """min(max of 64 pieces (k+1)*x_1_1, max of 33 pieces x_2_1 + k): 2112
        rows of two, 4224 polynomials, before absorption; unless distinct, every
        piece of a max is a copy of its first."""
        def pieces(count, terms):
            return {"op": "max", "args": [{"op": "poly", "terms": terms(k if distinct else 0)}
                                          for k in range(count)]}
        return {"n": 2, "p": 1, "grid": [[{"op": "min", "args": [
            pieces(64, lambda k: [{"coef": str(k + 1), "exps": {"x_1_1": 1}}]),
            pieces(33, lambda k: [{"coef": "1", "exps": {"x_2_1": 1}},
                                  {"coef": str(k), "exps": {}}])]}]]}

    def test_redundant_document_compiles(self, tmp_path, capsys):
        # each max of copies absorbs to one row before the min sizes its operands
        spath, out = compile_to(tmp_path, self.min_of_two_maxes(distinct=False))
        capsys.readouterr()
        assert main(["verify", out, spath, "--samples", "50"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True and report["samples"] == 50

    def test_distinct_document_just_over_cap(self, tmp_path, capsys):
        spath = write(tmp_path / "distinct.json", self.min_of_two_maxes(distinct=True))
        w = tmp_path / "distinct_w.json"
        assert main(["compile", spath, "-o", str(w)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not w.exists()
        assert "4224 polynomials in 2112 rows" in captured.err

    def power_spline(self, n, p, exps):
        return {"n": n, "p": p, "grid": [[{"op": "poly", "terms": [
            {"coef": "1", "exps": exps}]}] * p]}

    @pytest.mark.parametrize("command", ["compile", "verify"])
    @pytest.mark.parametrize("shape", [
        (1, 1, {"x_1_1": MAX_DEGREE + 1}),
        (1, 2, {"x_1_1": MAX_DEGREE // 2, "x_1_2": MAX_DEGREE // 2 + 1}),
        (MAX_INPUT_ENTRIES + 1, 1, {"x_1_1": 1}),
        (13, 5, {"x_1_1": 1}),
    ], ids=["degree", "degree-two-entries", "entries", "entries-13x5"])
    def test_spline_just_over_cap(self, tmp_path, capsys, command, shape):
        # refused before any cell is normalized, so each exits at once
        _, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        spath = write(tmp_path / "big.json", self.power_spline(*shape))
        w = tmp_path / "big_w.json"
        argv = {"compile": ["compile", spath, "-o", str(w)],
                "verify": ["verify", out, spath, "--samples", "1"]}[command]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and not w.exists()
        assert "cap" in captured.err and len(captured.err.strip().splitlines()) == 1

    def test_spline_cap_boundary(self, tmp_path, capsys, monkeypatch):
        # with caps of degree 8 and 4 entries, the cap itself compiles and one over does not
        monkeypatch.setattr(spline_module, "MAX_DEGREE", 8)
        monkeypatch.setattr(spline_module, "MAX_INPUT_ENTRIES", 4)
        for shape, code in [((1, 1, {"x_1_1": 8}), 0), ((1, 1, {"x_1_1": 9}), 3),
                            ((2, 2, {"x_1_1": 1}), 0), ((5, 1, {"x_1_1": 1}), 3),
                            ((1, 4, {"x_1_1": 1}), 0), ((1, 5, {"x_1_1": 1}), 3)]:
            spath = write(tmp_path / "s.json", self.power_spline(*shape))
            assert main(["compile", spath, "-o", str(tmp_path / "w.json")]) == code
            assert ("cap of" in capsys.readouterr().err) == (code == 3)


DEEP = "[" * 200_000 + "]" * 200_000


class TestDeepNesting:
    """A file nested beyond the recursion depth of the JSON reader, or of
    the spline parser, is an input error in every file argument of every
    command."""

    @pytest.mark.parametrize("argv", [
        ["compile", "DEEP", "-o", "OUT"],
        ["eval", "DEEP", "X"],
        ["eval", "W", "DEEP"],
        ["verify", "DEEP", "S", "--samples", "1"],
        ["verify", "W", "DEEP", "--samples", "1"],
        ["degree", "DEEP", "--trials", "1"],
        ["smooth", "DEEP", "--samples", "1"],
        ["smooth", "DEEP", "--activation", "softmax", "--samples", "1"],
    ], ids=["compile-spline", "eval-weights", "eval-input", "verify-weights", "verify-spline",
            "degree-weights", "smooth-weights", "smooth-softmax-weights"])
    def test_deep_file_exits_2(self, tmp_path, capsys, argv):
        spath, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        deep = tmp_path / "deep.json"
        deep.write_text(DEEP)
        paths = {"DEEP": str(deep), "W": out, "S": spath, "OUT": str(tmp_path / "o.json"),
                 "X": write(tmp_path / "x.json", [["1"]])}
        err = one_line_exit_2(capsys, [paths.get(a, a) for a in argv])
        assert "recursion depth" in err

    @pytest.mark.parametrize("command", ["compile", "verify"])
    def test_spline_parser_recursion_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # how deep a file the reader loads but the parser cannot walk depends on
        # the stack the command runs on, so the parser's recursion is forced
        def deep(obj):
            raise RecursionError("maximum recursion depth exceeded")
        spath, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        monkeypatch.setattr(spline_module, "expr_from_json", deep)
        argv = {"compile": ["compile", spath, "-o", str(tmp_path / "o.json")],
                "verify": ["verify", out, spath, "--samples", "1"]}[command]
        assert "recursion depth" in one_line_exit_2(capsys, argv)


class TestSeedVariable:
    """SPLINEFORMER_SEED is read only by a command that takes a seed and
    got no --seed; a value that is not an integer exits 2 with one line."""

    COMMANDS = [["verify", "W", "S", "--samples", "2"], ["degree", "W", "--trials", "1"],
                ["smooth", "W", "--samples", "1"],
                ["smooth", "W", "--activation", "softmax", "--samples", "1"]]
    IDS = ["verify", "degree", "smooth", "smooth-softmax"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    @pytest.mark.parametrize("value", ["abc", "1.5", " "])
    def test_bad_value_without_seed_exits_2(self, tmp_path, capsys, monkeypatch, argv, value):
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        monkeypatch.setenv("SPLINEFORMER_SEED", value)
        err = one_line_exit_2(capsys, [{"W": out, "S": spath}.get(a, a) for a in argv])
        assert "SPLINEFORMER_SEED" in err

    @pytest.mark.parametrize("argv", COMMANDS, ids=IDS)
    def test_bad_value_with_seed_is_not_read(self, tmp_path, capsys, monkeypatch, argv):
        spath, out = compile_to(tmp_path, ABS_SPLINE)
        capsys.readouterr()
        argv = [{"W": out, "S": spath}.get(a, a) for a in argv] + ["--seed", "3"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        monkeypatch.setenv("SPLINEFORMER_SEED", "abc")
        assert main(argv) == 0
        assert capsys.readouterr().out == want

    def test_commands_without_a_seed_ignore_it(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPLINEFORMER_SEED", "abc")
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        assert main(["eval", out, write(tmp_path / "x.json", [["2"]])]) == 0
        assert json.loads(capsys.readouterr().out) == [["8"]]


def wide_blocks(n, p):
    """One block reading an n x p input: a head copying entry (1, 1)."""
    head = attention_head(a_q=Mat.zeros(1, n), b_q=Mat.basis(1, p, 1, 1),
                          a_k=Mat.zeros(1, n), b_k=Mat.basis(1, p, 1, 1),
                          a_v=Mat.basis(1, n, 1, 1), b_v=Mat.zeros(1, p))
    return [EncoderBlock(MultiheadAttention.of((head,)), identity_ffn(1))]


class TestInputCap:
    """`degree` and `smooth` draw inputs of the weights' shape; weights
    whose input has more than MAX_INPUT_ENTRIES entries exit 3 before any
    is drawn."""

    @pytest.mark.parametrize("spell", [blocks_to_json, per_head_json], ids=["layer", "per-head"])
    @pytest.mark.parametrize("shape", [(MAX_INPUT_ENTRIES + 1, 1), (13, 5)], ids=["65x1", "13x5"])
    @pytest.mark.parametrize("argv", [["degree", "W", "--trials", "1", "--max-deg", "1"],
                                      ["smooth", "W", "--samples", "1", "--betas", "10"],
                                      ["smooth", "W", "--activation", "softmax", "--samples", "1"]],
                             ids=["degree", "smooth", "smooth-softmax"])
    def test_over_cap_exits_3(self, tmp_path, capsys, monkeypatch, spell, shape, argv):
        def refuse(*args):
            raise AssertionError("an input was drawn")
        monkeypatch.setattr(cli, "random_rational_mat", refuse)
        monkeypatch.setattr(cli, "estimate_degree", refuse)
        w = write(tmp_path / "wide.json", spell(wide_blocks(*shape)))
        assert main([w if a == "W" else a for a in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
        assert f"cap of {MAX_INPUT_ENTRIES} entries" in captured.err

    @pytest.mark.parametrize("argv", [["degree", "W", "--trials", "1", "--max-deg", "1"],
                                      ["smooth", "W", "--samples", "1", "--betas", "10"]],
                             ids=["degree", "smooth"])
    def test_at_cap_runs(self, tmp_path, capsys, argv):
        w = write(tmp_path / "wide.json", blocks_to_json(wide_blocks(MAX_INPUT_ENTRIES // 4, 4)))
        assert main([w if a == "W" else a for a in argv]) == 0


class TestLayerForm:
    """Weights files hold each attention layer in its layer form; the
    per-head form still reads, to the same results."""

    @pytest.mark.parametrize("argv", [
        ["eval", "W", "X"], ["eval", "W", "X", "--backend", "float"],
        ["verify", "W", "S", "--samples", "5", "--seed", "1"],
        ["degree", "W", "--trials", "2", "--seed", "1"],
        ["smooth", "W", "--samples", "2", "--seed", "1"],
        ["smooth", "W", "--activation", "softmax", "--samples", "2", "--seed", "1"],
    ], ids=["eval", "eval-float", "verify", "degree", "smooth", "smooth-softmax"])
    def test_per_head_file_gives_same_output(self, tmp_path, capsys, argv):
        spath, out = compile_to(tmp_path, AUTOREGRESSIVE_SPLINE, extra=("--masked",))
        capsys.readouterr()
        assert "attn" in json.loads(open(out).read())["blocks"][0]
        x = write(tmp_path / "x.json", [["3/2", "-5"]])
        runs = []
        for w in (out, write(tmp_path / "heads.json", per_head_file(out))):
            code = main([{"W": w, "S": spath, "X": x}.get(a, a) for a in argv])
            runs.append((code, capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 0

    @pytest.mark.parametrize("where", ["layer", "per-head"])
    def test_weight_beyond_float_range_exits_2(self, tmp_path, capsys, where):
        # a JSON float makes the matrix float, and 10^400 has no float
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        if where == "layer":
            doc = json.loads(open(out).read())
            doc["blocks"][0]["ffn"]["layers"][0]["A"]["rows"][0] = [[0, 10 ** 400], [1, 2.5]]
        else:
            doc = per_head_file(out)
            doc["blocks"][0]["ffn"]["layers"][0]["A"][0][:2] = [10 ** 400, 2.5]
        w = write(tmp_path / "big.json", doc)
        one_line_exit_2(capsys, ["eval", w, write(tmp_path / "x.json", [["1"]])])


def misfit(doc, case):
    """The compiled identity weights `doc` (one block whose attention emits
    two rows into a net of one layer) with parts that do not fit."""
    blk = doc["blocks"][0]
    layer = blk["ffn"]["layers"][0]
    if case == "no-blocks":
        doc["blocks"] = []
    elif case == "no-layers":
        blk["ffn"]["layers"] = []
    elif case == "bias-2-columns":
        layer["b"] = {"cols": 2, "rows": [[]]}
    elif case == "chain-mismatch":
        blk["ffn"]["layers"] = [layer, layer]
    else:
        layer["A"] = {"cols": 3, "rows": [[[0, "1"]]]}
    return doc


class TestMisfitWeights:
    """A weights document whose parts do not fit together exits 2 with one
    line naming the misfit."""

    @pytest.mark.parametrize("case,message", [
        ("no-blocks", "need at least one block"),
        ("no-layers", "feed-forward net needs at least one layer"),
        ("bias-2-columns", "bias (1, 2) does not fit layer of 1 rows"),
        ("chain-mismatch", "layer chain mismatch: (1, 2) then (1, 2)"),
        ("net-reads-3-rows", "ffn reads 3 rows but attention emits 2"),
    ])
    @pytest.mark.parametrize("argv", [
        ["eval", "W", "X"], ["verify", "W", "S", "--samples", "1"],
        ["degree", "W", "--trials", "1"], ["smooth", "W", "--samples", "1"],
    ], ids=["eval", "verify", "degree", "smooth"])
    def test_exits_2(self, tmp_path, capsys, case, message, argv):
        spath, out = compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        w = write(tmp_path / "misfit.json", misfit(json.loads(open(out).read()), case))
        x = write(tmp_path / "x.json", [["1"]])
        err = one_line_exit_2(capsys, [{"W": w, "S": spath, "X": x}.get(a, a) for a in argv])
        assert message in err


class TestNoHeadView:
    """No pass builds the per-head view: loading and running faithful
    weights reads no layer's `heads`."""

    def test_commands_build_no_head(self, tmp_path, capsys, monkeypatch):
        spath, out = compile_to(tmp_path, GRID_2X2, extra=("--mode", "faithful"))
        capsys.readouterr()
        built = []
        view = MultiheadAttention.heads.func

        def counting(self):
            built.append(self)
            return view(self)
        monkeypatch.setattr(MultiheadAttention, "heads", property(counting))
        x = write(tmp_path / "x.json", [["1/2", "-3"], ["2/3", "5"]])
        for argv in (["eval", out, x], ["eval", out, x, "--backend", "float"],
                     ["verify", out, spath, "--samples", "2", "--seed", "0"],
                     ["degree", out, "--trials", "1", "--bound", "2", "--max-deg", "3"],
                     ["smooth", out, "--samples", "1", "--betas", "10"],
                     ["smooth", out, "--activation", "softmax", "--samples", "1"]):
            assert main(argv) == 0, argv
        assert built == []
        # the guard sees a construction
        assert blocks_from_json(json.loads(open(out).read()))[1].attn.heads and built


def count_parsers(monkeypatch) -> list:
    """Record every `argparse.ArgumentParser` built from now on."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def all_parsers(parser):
    """`parser` and the parsers of its subcommands."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from all_parsers(sub)


class TestParserReuse:
    """`main` builds its parser on the first call and reuses it; a call
    carries nothing into the next one."""

    @pytest.fixture
    def files(self, tmp_path, capsys):
        spath, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        return {"W": out, "S": spath, "X": write(tmp_path / "x.json", [["2"]]),
                "O": str(tmp_path / "again.json")}

    def run(self, capsys, files, argv):
        code = main([files.get(a, a) for a in argv])
        return code, capsys.readouterr()

    def test_built_once_and_lazily(self, files, capsys, monkeypatch):
        cli._parser.cache_clear()
        built = count_parsers(monkeypatch)
        counts = []
        for argv in (["compile", "S", "-o", "O"], ["eval", "W", "X"],
                     ["verify", "W", "S", "--samples", "2"], ["degree", "W", "--trials", "1"],
                     ["smooth", "W", "--samples", "1", "--betas", "10"]) * 2:
            assert self.run(capsys, files, argv)[0] == 0, argv
            counts.append(len(built))
        assert counts[0] > 0 and counts[0] == counts[-1]

    def test_import_builds_no_parser(self, monkeypatch):
        built = count_parsers(monkeypatch)
        spec = importlib.util.find_spec("splineformer.cli")
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        assert built == [] and fresh._parser.cache_info().currsize == 0

    def test_default_bound_after_explicit_bound(self, files, capsys):
        code, captured = self.run(capsys, files, ["degree", "W", "--trials", "1", "--bound", "2"])
        assert code == 0 and json.loads(captured.out)["bound"] == 2
        code, captured = self.run(capsys, files, ["degree", "W", "--trials", "1"])
        blocks = len(blocks_from_json(json.loads(open(files["W"]).read())))
        assert code == 0 and json.loads(captured.out)["bound"] == 3 ** blocks

    def test_backend_inferred_after_float(self, files, capsys):
        code, captured = self.run(capsys, files, ["eval", "W", "X", "--backend", "float"])
        assert code == 0 and json.loads(captured.out) == [[8.0]]
        code, captured = self.run(capsys, files, ["eval", "W", "X"])
        assert code == 0 and json.loads(captured.out) == [["8"]]

    def test_seed_variable_read_on_each_call(self, files, capsys, monkeypatch):
        for seed in (7, 11):
            monkeypatch.setenv("SPLINEFORMER_SEED", str(seed))
            code, captured = self.run(capsys, files, ["verify", "W", "S", "--samples", "2"])
            assert code == 0 and json.loads(captured.out)["seed"] == seed

    def test_usage_error_then_valid_command(self, files, capsys):
        cli._parser.cache_clear()
        want = self.run(capsys, files, ["eval", "W", "X"])
        cli._parser.cache_clear()
        with pytest.raises(SystemExit):
            main(["eval", files["W"]])
        assert capsys.readouterr().err
        assert self.run(capsys, files, ["eval", "W", "X"]) == want

    def test_no_mutable_default(self):
        accumulating = (argparse._AppendAction, argparse._AppendConstAction)
        for parser in all_parsers(cli._parser()):
            defaults = [a.default for a in parser._actions] + list(parser._defaults.values())
            assert not [d for d in defaults if isinstance(d, (list, dict, set))], parser.prog
            assert not [a for a in parser._actions if isinstance(a, accumulating)], parser.prog

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    @pytest.mark.parametrize("argv", [
        ["verify", "w.json"], ["bogus"], ["verify", "w.json", "s.json", "--samples", "x"],
        ["compile", "s.json", "--mode", "bogus"],
    ], ids=["missing-positional", "unknown-command", "samples-not-int", "unknown-mode"])
    def test_usage_error_exits_2(self, capsys, argv, warm):
        cli._parser.cache_clear()
        if warm:
            cli._parser()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: splineformer")


class TestWeightsCache:
    """`main` keeps the blocks of the last `WEIGHTS_CACHE` weights documents,
    keyed on their text: a warm cache changes no output, a rewritten file
    is read again, and a document that fails to load is not kept."""

    COMMANDS = (["eval", "W", "XF", "--backend", "float"], ["eval", "W", "X"],
                ["smooth", "W", "--samples", "2", "--betas", "10,100"],
                ["smooth", "W", "--activation", "softmax", "--samples", "2"],
                ["verify", "W", "S", "--samples", "3", "--seed", "5"],
                ["degree", "W", "--trials", "2", "--max-deg", "4", "--seed", "5"])

    def run(self, capsys, files, argv):
        code = main([files.get(a, a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def count_parses(self, monkeypatch) -> list:
        parsed = []

        def counting(obj):
            parsed.append(obj)
            return blocks_from_json(obj)
        monkeypatch.setattr(cli, "blocks_from_json", counting)
        return parsed

    @pytest.mark.parametrize("spline, flags, x", [
        (GRID_2X2, ["--mode", "faithful"], [["1/2", "-3"], ["2/3", "5"]]),
        (GRID_2X2, ["--mode", "pruned"], [["1/2", "-3"], ["2/3", "5"]]),
        (AUTOREGRESSIVE_SPLINE, ["--masked"], [["-7/4", "3"]]),
    ], ids=["faithful", "pruned", "masked"])
    def test_warm_equals_cold(self, tmp_path, capsys, spline, flags, x):
        spath, out = compile_to(tmp_path, spline, extra=flags)
        capsys.readouterr()
        files = {"W": out, "S": spath, "X": write(tmp_path / "x.json", x),
                 "XF": write(tmp_path / "xf.json", mat_to_json(Mat.rational(x).to_float()))}
        cold = []
        for argv in self.COMMANDS:
            cli._blocks_of.cache_clear()
            cold.append(self.run(capsys, files, argv))
        cli._blocks_of.cache_clear()
        # the float eval builds the float images the later commands read
        warm = [self.run(capsys, files, argv) for argv in self.COMMANDS]
        info = cli._blocks_of.cache_info()
        assert (info.misses, info.hits) == (1, len(self.COMMANDS) - 1)
        assert warm == cold
        assert all(code == 0 for code, _, _ in warm)

    def test_rewritten_file_is_read_again(self, tmp_path, capsys):
        cli._blocks_of.cache_clear()
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        capsys.readouterr()
        x = write(tmp_path / "x.json", [["2"]])
        assert main(["eval", out, x]) == 0
        assert json.loads(capsys.readouterr().out) == [["8"]]
        compile_to(tmp_path, IDENTITY_SPLINE)
        capsys.readouterr()
        assert main(["eval", out, x]) == 0
        assert json.loads(capsys.readouterr().out) == [["2"]]

    def test_equal_text_parses_once(self, tmp_path, capsys, monkeypatch):
        cli._blocks_of.cache_clear()
        parsed = self.count_parses(monkeypatch)
        _, out = compile_to(tmp_path, CUBE_SPLINE)
        copy_path = tmp_path / "copy.json"
        copy_path.write_bytes(open(out, "rb").read())
        x = write(tmp_path / "x.json", [["2"]])
        for path in (out, str(copy_path), out):
            assert main(["eval", path, x]) == 0
        assert len(parsed) == 1

    @pytest.mark.parametrize("raw", [
        b"{not json", b'{"blocks": 5}', b'{"blocks": [{"heads": []}]}',
        b'{\r\n  "blocks": [\r\n    {"heads": [\r\n  }\r\n',
    ], ids=["not-json", "not-a-list", "no-ffn", "crlf"])
    def test_failure_is_not_kept(self, tmp_path, capsys, raw):
        cli._blocks_of.cache_clear()
        path = tmp_path / "w.json"
        path.write_bytes(raw)
        x = write(tmp_path / "x.json", [["2"]])
        errs = set()
        for argv in (["eval", str(path), x], ["degree", str(path)]) * 2:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.add(captured.err.split(": ", 1)[1])
        assert len(errs) == 1 and cli._blocks_of.cache_info().currsize == 0
        if raw.startswith(b"{\r\n"):
            # read in text mode, so the offset counts one character per newline
            with pytest.raises(json.JSONDecodeError) as exc:
                json.loads(raw.decode().replace("\r\n", "\n"))
            assert errs == {f"{exc.value}\n"}

    def test_bounded_lru(self, tmp_path, capsys, monkeypatch):
        cli._blocks_of.cache_clear()
        parsed = self.count_parses(monkeypatch)
        x = write(tmp_path / "x.json", [["2"]])
        docs = [write(tmp_path / f"w{k}.json", one_head_weights(A_V=[[str(k)]]))
                for k in range(cli.WEIGHTS_CACHE + 1)]
        # one document more than the bound evicts the first; the rest stay
        for path in docs + docs[:1] + docs[2:]:
            assert main(["eval", path, x]) == 0
        assert len(parsed) == cli.WEIGHTS_CACHE + 2
        assert cli._blocks_of.cache_info().currsize == cli.WEIGHTS_CACHE
