"""A golden digest of compiled artifacts: a seeded corpus of spline grids
is compiled in every mode, and one sha256 over the sorted-key weights
JSON and layout sidecars (or the exception type of a refused compile)
must equal the checked-in digest.  `DIGEST` hashes the weights in the
per-head form (`reference.per_head_json`), so it pins every nonzero and
the head order; `DIGEST_LAYER` hashes the bytes `blocks_to_json` writes.
A change that alters compiled weights on purpose updates the digests and
says why.  `SMOOTH_DIGEST` and `DEGREE_DIGEST` pin, byte for byte, what
`smooth` and `degree` print on the two grids the benchmark runs them on.

The corpus is the benchmark's 13 grids from `bench/workloads.py` and
`RANDOM_GRIDS` seeded random grids with n, p <= 2.  Each grid compiles
unmasked and masked (a grid that is not autoregressive records the
refusal), in auto and pruned mode, and in faithful mode when it is a
bench grid, or has n * p <= 2 and needs one stage or reads one column (a
faithful two-column two-stage build takes about 0.8 s and 9 MB of JSON)."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from splineformer.cli import main
from splineformer.compiler import (CompileOptions, NotAutoregressiveError, ResourceLimitError,
                                   compile_autoregressive, compile_spline)
from splineformer.spline import grid_from_json
from splineformer.transformer import (EncoderModel, MultiheadAttention, blocks_from_json,
                                      blocks_to_json)
from splineformer.verifier import PASS_COLUMNS, autoregressive_check, estimate_degree

from reference import FnModel, per_head_json

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

RANDOM_GRIDS = 40
DIGEST = "74a5ea217e8b0c07ae17f52324205d7febb46fb34321746b4eed8ce733272f28"
DIGEST_LAYER = "3e793093b00ffe81ea840c60815a39f5475b8a81c8a65a3fa3352293c840b33e"
SMOOTH_DIGEST = "2f99c1aed7295d4107cd06f9fb38996664885792f7f491b1d7bac8b4fc316cb1"
DEGREE_DIGEST = "4da4ab162b9b91d26ad388658032d1e87e28736ac81fa8ad48902eaae814d5d1"


def random_doc(rng: random.Random) -> dict:
    """n, p <= 2, polynomial pieces of degree <= 3 under at most two
    levels of max/min; about a third read only earlier columns."""
    n, p = rng.randint(1, 2), rng.randint(1, 2)
    causal = rng.random() < 0.35

    def poly(j):
        names = [f"x_{i}_{c}" for i in range(1, n + 1) for c in range(1, (j if causal else p) + 1)]
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = {}
            for _ in range(rng.randint(0, 3)):
                name = rng.choice(names)
                exps[name] = exps.get(name, 0) + 1
            terms.append({"coef": str(Fraction(rng.randint(-5, 5), rng.randint(1, 4))),
                          "exps": exps})
        return {"op": "poly", "terms": terms}

    def cell(j, depth):
        if depth == 0 or rng.random() < 0.5:
            return poly(j)
        return {"op": rng.choice(["max", "min"]),
                "args": [cell(j, depth - 1) for _ in range(rng.randint(1, 2))]}

    return {"n": n, "p": p,
            "grid": [[cell(j, 2) for j in range(1, p + 1)] for _ in range(rng.randint(1, 2))]}


def corpus() -> list:
    """(name, document, faithful) for every grid of the corpus."""
    bench = [(name, doc) for name, _, doc in workloads.SUITE]
    bench += [("grid2x2", workloads.GRID_2X2), ("masked1x3", workloads.GRID_MASKED)]
    rng = random.Random(20261018)
    docs = [random_doc(rng) for _ in range(RANDOM_GRIDS)]
    return ([(name, doc, True) for name, doc in bench]
            + [(f"random{k}", doc, doc["n"] * doc["p"] <= 2
                and (doc["p"] == 1 or grid_from_json(doc).degree <= 2))
               for k, doc in enumerate(docs)])


def compiles():
    """(label, compiled encoder or the refusal's text) per compile of the
    corpus, in corpus order."""
    for name, doc, faithful in corpus():
        grid = grid_from_json(doc)
        for mode in ("auto", "pruned") + (("faithful",) if faithful else ()):
            for masked in (False, True):
                label = f"{name} {mode}{' masked' if masked else ''}"
                compile_fn = compile_autoregressive if masked else compile_spline
                try:
                    compiled = compile_fn(grid, CompileOptions(mode=mode, masked=masked))
                except (NotAutoregressiveError, ResourceLimitError) as exc:
                    yield label, f"refused: {type(exc).__name__}"
                    continue
                yield label, compiled


def test_corpus_digest():
    per_head, layer = hashlib.sha256(), hashlib.sha256()
    refused = 0
    for label, compiled in compiles():
        if isinstance(compiled, str):
            refused += 1
            texts = compiled, compiled
        else:
            doc = blocks_to_json(compiled.blocks)
            # the layer form reads back to equal blocks, as does its per-head spelling
            assert blocks_from_json(json.loads(json.dumps(doc))) == compiled.blocks, label
            assert blocks_from_json(per_head_json(compiled.blocks)) == compiled.blocks, label
            # a layer is its heads, grouped again
            assert all(MultiheadAttention.of(blk.attn.heads) == blk.attn
                       for blk in compiled.blocks), label
            sidecar = json.dumps(compiled.sidecar_json(), sort_keys=True)
            texts = (json.dumps(per_head_json(compiled.blocks), sort_keys=True) + "\n" + sidecar,
                     json.dumps(doc, sort_keys=True) + "\n" + sidecar)
        for h, text in zip((per_head, layer), texts):
            h.update(f"{label}\n{text}\n".encode())
    assert 0 < refused
    assert per_head.hexdigest() == DIGEST
    assert layer.hexdigest() == DIGEST_LAYER


def test_batched_checks_equal_passes_one_by_one():
    """`estimate_degree` and `autoregressive_check` run an `EncoderModel`'s
    inputs as batched exact passes, and a bare function one call per input
    (`FnModel`); on every compile of the corpus both give the same report,
    the prefix test's witness included."""
    witnesses = 0
    for label, compiled in compiles():
        if isinstance(compiled, str):
            continue
        model = EncoderModel(compiled.blocks)
        bare = FnModel(model, model.n, model.p)
        assert (estimate_degree(model, max_deg=3, trials=2, seed=9, bound=2)
                == estimate_degree(bare, max_deg=3, trials=2, seed=9, bound=2)), label
        if model.p >= 2:
            report = autoregressive_check(model, 3, 9)
            assert report == autoregressive_check(bare, 3, 9), label
            witnesses += report.witness is not None
    # unmasked compiles of grids that read later columns fail the prefix test
    assert witnesses


def cli_compiles(tmp_path, capsys):
    """(grid, mode, weights path) for the benchmark's CLI grids, each
    compiled by the CLI in every mode and masked as the benchmark masks it;
    the weights file is rewritten by the next compile."""
    for doc, masked in ((workloads.GRID_2X2, ()), (workloads.GRID_MASKED, ("--masked",))):
        spath = tmp_path / "spline.json"
        spath.write_text(json.dumps(doc))
        for mode in ("auto", "pruned", "faithful"):
            weights = str(tmp_path / "w.json")
            assert main(["compile", str(spath), "--mode", mode, *masked, "-o", weights]) == 0
            capsys.readouterr()
            yield doc, mode, weights


def test_smooth_digest(tmp_path, capsys):
    """The exit code, stdout and stderr of `smooth` on the benchmark's
    smoothed grids, each compiled by the CLI in every mode and masked as
    the benchmark masks it: softplus at the default betas and at a repeated
    beta and inf, and softmax, each at 1, 2 and PASS_COLUMNS + 1 samples,
    the last too many for one batched pass."""
    digest = hashlib.sha256()
    for _, mode, weights in cli_compiles(tmp_path, capsys):
        for samples in ("1", "2", str(PASS_COLUMNS + 1)):
            for extra in ((), ("--betas", "10,10,inf"), ("--activation", "softmax")):
                argv = ["--samples", samples, "--seed", "5", *extra]
                code = main(["smooth", weights, *argv])
                captured = capsys.readouterr()
                digest.update(f"{mode} {argv}\n{code}\n{captured.out}{captured.err}".encode())
    assert digest.hexdigest() == SMOOTH_DIGEST


def test_degree_digest(tmp_path, capsys):
    """The exit code, stdout and stderr of `degree` on the benchmark's CLI
    grids, each compiled in every mode: at the benchmark's arguments, at
    the defaults, and at a --max-deg whose line has more points than one
    batched pass holds (`PASS_COLUMNS // p`)."""
    digest = hashlib.sha256()
    for doc, mode, weights in cli_compiles(tmp_path, capsys):
        for argv in (workloads.CLI_DEGREE, [],
                     ["--trials", "2", "--max-deg", str(PASS_COLUMNS // doc["p"])]):
            argv = [*argv, "--seed", "5"]
            code = main(["degree", weights, *argv])
            captured = capsys.readouterr()
            digest.update(f"{mode} {argv}\n{code}\n{captured.out}{captured.err}".encode())
    assert digest.hexdigest() == DEGREE_DIGEST
