"""Command line front end: compile spline JSON to encoder weights,
evaluate, verify, estimate degrees, and tabulate activation smoothing.

Exit codes: 0 success/pass, 1 verification failure, 2 input error,
3 resource or contract error.  All output is deterministic under a fixed
seed; reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

# compile_autoregressive is not called here; the benchmark's CLI probe
# (bench/workloads.py, patch_cli) wraps it by name
from .compiler import (CompileOptions, NotAutoregressiveError,  # noqa: F401
                       ResourceLimitError, compile_autoregressive, compile_spline)
from .spline import MAX_INPUT_ENTRIES, FormSizeError, grid_from_json
from .tensor import (RATIONAL, BackendError, DegenerateColumnError, ShapeError, mat_from_json,
                     mat_to_json)
from .transformer import EncoderModel, blocks_from_json, blocks_to_json
from .verifier import (estimate_degree, oracle_equiv, random_rational_mat,
                       require_relu, smooth_convergence_table,
                       softmax_probability_check, trial_rng)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_ERROR = 3

# what reading an input file can raise (json.JSONDecodeError is a ValueError;
# a rational string with a zero denominator raises ZeroDivisionError, as in `Fraction`;
# a number beyond the float range in a float matrix, OverflowError; a file nested
# beyond the recursion limit of the JSON reader or of the spline parser, RecursionError)
INPUT_ERRORS = (OSError, KeyError, ValueError, ZeroDivisionError, OverflowError,
                RecursionError)

# model evaluations per `degree` trial (max_deg + 2 line points)
MAX_LINE_POINTS = 1024

# weights documents whose blocks stay loaded, keyed on their text
WEIGHTS_CACHE = 4


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _fail(code: int, message: str) -> int:
    sys.stderr.write(message.rstrip() + "\n")
    return code


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_betas(text: str) -> list:
    """Comma-separated positive betas ("inf" is the relu itself)."""
    betas = [float(b) for b in text.split(",") if b.strip()] if text else []
    for beta in betas:
        if not beta > 0:
            raise ValueError(f"beta must be positive, got {beta}")
    return betas


def _layout_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[: -len(".json")] + ".layout.json"
    return out_path + ".layout.json"


def cmd_compile(args) -> int:
    try:
        spline = grid_from_json(json.loads(_read(args.spline)))
    except FormSizeError as exc:
        return _fail(EXIT_RESOURCE_ERROR, str(exc))
    except INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read spline: {exc}")
    opts = CompileOptions(mode=args.mode, masked=args.masked)
    try:
        compiled = compile_spline(spline, opts)
    except NotAutoregressiveError as exc:
        return _fail(EXIT_RESOURCE_ERROR, f"masked compile rejected: {exc}")
    except ResourceLimitError as exc:
        return _fail(EXIT_RESOURCE_ERROR, str(exc))
    payload = json.dumps(blocks_to_json(compiled.blocks), sort_keys=True) + "\n"
    sidecar = json.dumps(compiled.sidecar_json(), sort_keys=True) + "\n"
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with open(_layout_path(args.output), "w", encoding="utf-8") as fh:
            fh.write(sidecar)
    except OSError as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot write output: {exc}")
    _emit({"kind": "compile", "mode": compiled.mode, "stages": compiled.stages,
           "blocks": compiled.stats["blocks"],
           "heads_per_block": compiled.stats["heads_per_block"],
           "rows": compiled.stats["rows"], "depth": compiled.stats["depth"],
           "output": args.output})
    return EXIT_OK


def _finite(m) -> bool:
    """Whether a float matrix holds no NaN or infinity, which JSON cannot
    spell; a rational one always does."""
    return m.backend == RATIONAL or all(math.isfinite(v) for row in m.nz for _, v in row)


@functools.lru_cache(maxsize=WEIGHTS_CACHE)
def _blocks_of(text: str) -> tuple:
    """The blocks of a weights document, kept with the pass images built on
    them for a later command on the same text; a document that raises is not."""
    return blocks_from_json(json.loads(text))


def _load_model(path: str):
    return EncoderModel(_blocks_of(_read(path)))


def _input_cap(model):
    """The exit of a command that draws inputs of the model's shape when
    that shape is above the spline cap, or None."""
    if model.n * model.p > MAX_INPUT_ENTRIES:
        return _fail(EXIT_RESOURCE_ERROR,
                     f"the weights read an input of {model.n} x {model.p} entries, above "
                     f"the cap of {MAX_INPUT_ENTRIES} entries")
    return None


def cmd_eval(args) -> int:
    try:
        model = _load_model(args.weights)
        x = mat_from_json(json.loads(_read(args.input)))
    except INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read inputs: {exc}")
    if args.backend == "rational" and x.backend != "rational":
        return _fail(EXIT_INPUT_ERROR, "rational backend requested but input is float")
    if not _finite(x):
        return _fail(EXIT_INPUT_ERROR, "input entries must be finite numbers")
    try:
        out = model(x.to_float() if args.backend == "float" else x)
    except (ShapeError, BackendError, OverflowError) as exc:
        # OverflowError: a rational weight or input beyond the float range
        return _fail(EXIT_INPUT_ERROR, f"evaluation failed: {exc}")
    except DegenerateColumnError:
        # finite weights and inputs give a SoftMax column of -inf only by overflow
        return _fail(EXIT_INPUT_ERROR, "evaluation failed: the float pass overflowed")
    if not _finite(out):
        return _fail(EXIT_INPUT_ERROR, "evaluation failed: the float pass overflowed")
    _emit(mat_to_json(out))
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        model = _load_model(args.weights)
        spline = grid_from_json(json.loads(_read(args.spline)))
    except FormSizeError as exc:
        return _fail(EXIT_RESOURCE_ERROR, str(exc))
    except INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read inputs: {exc}")
    try:
        report = oracle_equiv(model, spline, args.samples, args.seed)
    except (ShapeError, BackendError, ValueError) as exc:
        return _fail(EXIT_INPUT_ERROR, f"verification could not run: {exc}")
    _emit(report.to_json())
    return EXIT_OK if report.exact else EXIT_VERIFY_FAILED


def cmd_degree(args) -> int:
    # fewer than two line points leave no difference to test, so any bound would
    # pass; without --max-deg the line points follow from --bound
    for flag, value in (("--max-deg", args.max_deg), ("--bound", args.bound)):
        if value is not None and value < 0:
            return _fail(EXIT_INPUT_ERROR, f"{flag} must be at least 0, got {value}")
    try:
        model = _load_model(args.weights)
    except INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read weights: {exc}")
    if (code := _input_cap(model)) is not None:
        return code
    bound = args.bound if args.bound is not None else 3 ** len(model.blocks)
    max_deg = args.max_deg if args.max_deg is not None else bound + 2
    if max_deg + 2 > MAX_LINE_POINTS:
        return _fail(EXIT_RESOURCE_ERROR,
                     f"degree needs {max_deg + 2} model evaluations per trial, above the "
                     f"cap of {MAX_LINE_POINTS}; pass a smaller --max-deg")
    try:
        report = estimate_degree(model, max_deg=max_deg, trials=args.trials,
                                 seed=args.seed, bound=bound)
    except (ShapeError, BackendError) as exc:
        return _fail(EXIT_INPUT_ERROR, f"degree estimation could not run: {exc}")
    _emit(report.to_json())
    return EXIT_OK


def cmd_smooth(args) -> int:
    try:
        model = _load_model(args.weights)
    except INPUT_ERRORS as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot read weights: {exc}")
    if (code := _input_cap(model)) is not None:
        return code
    # drawn as the checks read them, a pass's chunk at a time
    xs = (random_rational_mat(trial_rng(args.seed, t), model.n, model.p)
          for t in range(args.samples))
    # weights whose attention is not ReLU, or whose blocks do not chain, raise
    # ValueError; a weight beyond the float range or an overflowing pass, OverflowError
    if args.activation == "softmax":
        try:
            require_relu(model.blocks)
            checks = softmax_probability_check(model.blocks, xs)
        except (ValueError, OverflowError) as exc:
            return _fail(EXIT_INPUT_ERROR, f"cannot smooth: {exc}")
        _emit({"kind": "smooth", "activation": "softmax", "samples": args.samples, **checks})
        return EXIT_OK
    try:
        betas = _parse_betas(args.betas)
    except ValueError as exc:
        return _fail(EXIT_INPUT_ERROR, f"bad --betas: {exc}")
    try:
        rows = smooth_convergence_table(model.blocks, xs, betas)
    except (ValueError, OverflowError) as exc:
        return _fail(EXIT_INPUT_ERROR, f"cannot smooth: {exc}")
    _emit({"kind": "smooth", "activation": "softplus", "samples": args.samples,
           "rows": rows})
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first `main` call and reused by
    every later one: parsing fills a new namespace and keeps no state."""
    parser = argparse.ArgumentParser(
        prog="splineformer",
        description="compile max-min splines to encoder weights and verify them")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a spline JSON file to weights")
    c.add_argument("spline")
    c.add_argument("--mode", choices=["auto", "faithful", "pruned"], default="auto")
    c.add_argument("--masked", action="store_true",
                   help="emit masked heads (input must be autoregressive)")
    c.add_argument("-o", "--output", default="weights.json")
    c.set_defaults(fn=cmd_compile)

    e = sub.add_parser("eval", help="evaluate weights on a matrix JSON file")
    e.add_argument("weights")
    e.add_argument("input")
    e.add_argument("--backend", choices=["rational", "float"], default=None,
                   help="force a scalar backend (default: infer from the input)")
    e.set_defaults(fn=cmd_eval)

    v = sub.add_parser("verify", help="exact oracle equivalence check")
    v.add_argument("weights")
    v.add_argument("spline")
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--seed", type=int, default=None)
    v.set_defaults(fn=cmd_verify)

    d = sub.add_parser("degree", help="finite-difference degree estimate")
    d.add_argument("weights")
    d.add_argument("--trials", type=int, default=25)
    d.add_argument("--bound", type=int, default=None,
                   help="degree bound (default 3^blocks)")
    d.add_argument("--max-deg", type=int, default=None, dest="max_deg")
    d.add_argument("--seed", type=int, default=None)
    d.set_defaults(fn=cmd_degree)

    s = sub.add_parser("smooth", help="activation swap and convergence table")
    s.add_argument("weights")
    s.add_argument("--activation", choices=["softplus", "softmax"], default="softplus")
    s.add_argument("--betas", default="10,100,1000")
    s.add_argument("--samples", type=int, default=100)
    s.add_argument("--seed", type=int, default=None)
    s.set_defaults(fn=cmd_smooth)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # a check on zero samples or trials would pass on no evidence
    for flag in ("samples", "trials"):
        count = getattr(args, flag, 1)
        if count < 1:
            return _fail(EXIT_INPUT_ERROR, f"--{flag} must be at least 1, got {count}")
    # the environment is read only by a command that takes a seed and got none
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("SPLINEFORMER_SEED")
        try:
            args.seed = int(env) if env else 42
        except ValueError:
            return _fail(EXIT_INPUT_ERROR, f"SPLINEFORMER_SEED must be an integer, got {env!r}")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
