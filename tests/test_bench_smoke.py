"""Each workload of the benchmark runs on this checkout and checks its own
outputs: `bench/run.py` with `--seconds 0` makes one warm-up round and two
timed rounds, and its last line must report every operation correct.
This guards the names `bench/` reads from the package.  The traced run
(`--trace 1`) walks the blocks layer by layer through `eval_multihead`
and `eval_ffn` and checks that walk against `eval_encoder`."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload,trace", [
    pytest.param(w, trace, id=w + ("-traced" if trace == "1" else ""))
    for w in WORKLOADS for trace in ("0", "1")])
def test_workload_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
