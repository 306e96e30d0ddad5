"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a single-threaded closed loop (one caller; each call
waits for the previous one): one untimed warm-up round, then timed rounds
for at least S seconds and at least two rounds.  It checks every output
and prints one JSON object as the last line of stdout: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1.  A traced run alternates untraced and traced rounds, so the
tracing overhead is measured inside the same process; its spans are
written to bench/out/ when the run ends.  Every time is reported at the
reference pace that bench/probe.py defines, which takes the shared host's
drifting speed out of the figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from probe import PACE_REF_S, Run, quantile  # noqa: E402
from workloads import WARM, WORKLOADS  # noqa: E402

SETUPS = 9
COMPILE_KINDS = ("compile", "cli.compile")
CLI_KINDS = ("compile", "eval", "verify", "degree", "smooth")


def load_package():
    """Import the package from this checkout's src/, fresh each time, so
    set-up time includes the import."""
    for name in [m for m in sys.modules if m.split(".")[0] == "splineformer"]:
        del sys.modules[name]
    sf = importlib.import_module("splineformer")
    if Path(sf.__file__).resolve().parent != (SRC / "splineformer").resolve():
        raise ImportError(f"splineformer imported from {sf.__file__}, not {SRC}")
    tensor = importlib.import_module("splineformer.tensor")
    transformer = importlib.import_module("splineformer.transformer")
    spline = importlib.import_module("splineformer.spline")
    cli = importlib.import_module("splineformer.cli")
    names = ("Mat", "CompileOptions", "EncoderModel", "VeroneseIndex", "autoregressive_check",
             "build_eps2", "compile_autoregressive", "compile_spline",
             "eval_encoder", "eval_ffn", "eval_multihead", "oracle_equiv", "smooth_swap",
             "softplus", "softplus_error_bound", "veronese_dim", "veronese_eval")
    pkg = SimpleNamespace(**{n: getattr(sf, n) for n in names})
    pkg.add = tensor.add
    pkg.blocks_to_float = transformer.blocks_to_float
    pkg.blocks_to_json = transformer.blocks_to_json
    pkg.blocks_from_json = transformer.blocks_from_json
    pkg.grid_from_json = spline.grid_from_json
    pkg.cli = cli
    return pkg


def _median_round(run, rounds, kinds) -> float:
    return statistics.median(
        sum(run.seconds(a, b) for k in kinds for rr, a, b in run.samples[k] if rr == r)
        for r in rounds)


def _median_wall(run, walls, rounds) -> float:
    return statistics.median(run.seconds(*walls[r]) for r in rounds)


def end_to_end(run, walls, rounds, setups) -> tuple:
    pick = set(rounds)
    evals = [run.seconds(a, b) for r, a, b in run.samples["eval"] if r in pick]
    calls = [run.seconds(a, b) for k, xs in run.samples.items() if k != "eval"
             for r, a, b in xs if r in pick]
    verified = [(run.seconds(a, b), n) for r, a, b, n in run.verified if r in pick]
    c = run.counts
    return {
        "setup_s": (statistics.median(run.seconds(a, b) for a, b in setups), "s"),
        "wall_s": (_median_wall(run, walls, rounds), "s"),
        "compile_s": (_median_round(run, rounds, COMPILE_KINDS), "s"),
        "evals_per_s": (len(evals) / sum(evals), "1/s"),
        "eval_ms_p50": (1e3 * quantile(evals, 0.5), "ms"),
        "eval_ms_p90": (1e3 * quantile(evals, 0.9), "ms"),
        "verify_samples_per_s": (sum(n for _, n in verified) / sum(dt for dt, _ in verified), "1/s"),
        "call_ms_p50": (1e3 * quantile(calls, 0.5), "ms"),
        "call_ms_p90": (1e3 * quantile(calls, 0.9), "ms"),
        "weights_bytes": (c["weights_bytes"], "bytes"),
        "weight_entries": (c["weight_entries"], "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, {"eval": len(evals), "call": len(calls), "verified": sum(n for _, n in verified)}


def per_layer(run, walls, untraced, traced) -> dict:
    k = len(traced)

    def per_round(name):
        return run.span_seconds(name) / k

    attn, ffn = per_round("transformer.attn"), per_round("transformer.ffn")
    equiv = per_round("verifier.equiv")
    parents = {s[0]: s[3] for s in run.spans}
    model_in_equiv = sum(run.seconds(s[4], s[5]) for s in run.spans
                         if s[3] == "model" and parents.get(s[1]) == "verifier.equiv") / k
    oracle = per_round("spline.oracle")
    c = run.counts
    m = {
        "compiler.build_s": (per_round("compiler.build"), "s"),
        "compiler.heads": (c["heads"], "count"),
        "compiler.hidden_units": (c["hidden_units"], "count"),
        "compiler.layout_rows": (c["layout_rows"], "count"),
        "veronese.monomials": (c["monomials"], "count"),
        "tensor.nonzeros": (c["nonzeros"], "count"),
        "tensor.density": (c["nonzeros"] / c["weight_entries"], "ratio"),
        "tensor.max_num_bits": (c["max_num_bits"], "bits"),
        "tensor.max_den_bits": (c["max_den_bits"], "bits"),
        "tensor.out_max_bits": (c["out_max_bits"], "bits"),
        "transformer.attn_s": (attn, "s"),
        "transformer.ffn_s": (ffn, "s"),
        "transformer.attn_share": (attn / (attn + ffn) if attn + ffn else 0.0, "ratio"),
        "transformer.json_dump_s": (per_round("transformer.json_dump"), "s"),
        "transformer.json_load_s": (per_round("transformer.json_load"), "s"),
        "spline.oracle_s": (oracle, "s"),
        "spline.parse_s": (per_round("spline.parse"), "s"),
        "spline.pbform_rows": (c["pbform_rows"], "count"),
        "verifier.equiv_s": (equiv, "s"),
        "verifier.model_s": (model_in_equiv, "s"),
        "verifier.overhead_s": (equiv - model_in_equiv - oracle, "s"),
        "verifier.autoregressive_s": (per_round("verifier.autoregressive"), "s"),
        "verifier.degree_s": (per_round("verifier.degree"), "s"),
        "verifier.smooth_s": (per_round("verifier.smooth"), "s"),
        "verifier.softplus_bound_s": (per_round("verifier.softplus_bound"), "s"),
        "verifier.softmax_check_s": (per_round("verifier.softmax_check"), "s"),
    }
    for cmd in CLI_KINDS:
        xs = run.span_durations(f"cli.{cmd}")
        m[f"cli.{cmd}_ms"] = (1e3 * statistics.median(xs) if xs else 0.0, "ms")
    m["trace.overhead_s"] = (_median_wall(run, walls, traced)
                             - _median_wall(run, walls, untraced), "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # an inherited seed would silently change the CLI's inputs
    os.environ.pop("SPLINEFORMER_SEED", None)
    if not (SRC / "splineformer" / "__init__.py").is_file():
        sys.stderr.write(f"no splineformer package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    setup, one_round = WORKLOADS[args.workload]

    run = Run()
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        setups = []
        for _ in range(SETUPS):
            run.time_pace()
            t0 = run.now()
            state = setup(load_package(), args.seed, work)
            setups.append((t0, run.now()))
        run.time_pace()
        run.round = WARM
        one_round(state, run, WARM)

        walls = []
        # Automatic collection is off inside rounds and one full collection
        # ends each round, inside its wall time: a collector pause no longer
        # lands on whichever call happens to trigger it, and wall_s still
        # pays for the objects the program keeps alive.
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            while len(walls) < 2 or time.perf_counter() - start < args.seconds:
                run.round = len(walls)
                run.tracing = bool(args.trace) and run.round % 2 == 1
                t0 = run.now()
                one_round(state, run, run.round)
                gc.collect()
                walls.append((t0, run.now()))
                run.tick()
        finally:
            gc.enable()
        run.tracing = False

    rounds = range(len(walls))
    untraced = [r for r in rounds if not (args.trace and r % 2 == 1)]
    traced = [r for r in rounds if args.trace and r % 2 == 1]
    e2e, sizes = end_to_end(run, walls, untraced, setups)
    if args.trace:
        metrics = per_layer(run, walls, untraced, traced)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        run.write_spans(trace_path)
        print(f"spans: {len(run.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = e2e
    print(f"workload {args.workload}: rounds={len(walls)} (traced {len(traced)}), "
          f"samples eval={sizes['eval']} call={sizes['call']} "
          f"verified={sizes['verified']}, attempted={run.attempted}")
    print(f"host pace: reference loop median {1e3 * statistics.median(run.pace):.4f} ms "
          f"over {len(run.pace)} timings (figures scaled to {1e3 * PACE_REF_S:g} ms)")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if declared != {k: u for k, (_, u) in metrics.items()}:
        sys.stderr.write("metrics differ from those BENCHMARK.json declares\n")
        return 3
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
