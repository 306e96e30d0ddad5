"""Measurement plumbing for the benchmark: operation accounting, spans,
timing wrappers around the package's public surface, and weight counters.

Everything here reaches the package only through names it exports; the
package itself carries no instrumentation.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import statistics
import sys
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction

# -- host pace ---------------------------------------------------------------
# The benchmark host is a few vCPUs of a shared machine whose speed follows
# the other tenants' load: the same call can take 60 ms or 120 ms a few
# seconds apart, and medians of back-to-back runs drift by 20-40 %.  The
# drift moves Python code largely in proportion, so the run times a fixed
# reference workload (never the package) every PACE_EVERY seconds between
# calls, and reports each duration scaled by PACE_REF_S over the
# reference's median time around it: times read as on a host where the
# reference takes PACE_REF_S.  The reference has two halves of about equal
# time, the two kinds of work the package does: interpreted stdlib Fraction
# arithmetic, and a JSON round trip of a fixed document, which allocates
# and touches more memory and follows the host's speed a little
# differently.  Over 15 s windows of a 200 s run, the median ratio of a
# package call (a CLI command, a build, a forward pass) to this reference
# spread 2-6 % across windows, where the call's raw time spread 17-28 %.
# Time spent in the reference is taken out of every duration and of the
# run's length.

PACE_TERMS = tuple((Fraction(i % 7 - 3, i % 5 + 1), Fraction(i % 4 + 1, i % 3 + 2))
                   for i in range(1, 193))
PACE_DOC = [[f"{7 * i + j}/3" for j in range(12)] for i in range(360)]
PACE_WARM = 24          # leading terms and rows run untimed first, to refill the caches
PACE_EVERY = 0.025      # seconds of program time between reference timings
PACE_NEAR = 4           # reference timings taken on each side of an interval
PACE_REF_S = 1.5e-3     # nominal reference time that durations are scaled to


def pace_loop(terms, doc) -> Fraction:
    s = Fraction(0)
    for a, b in terms:
        s += a * b
    if json.loads(json.dumps(doc)) != doc:
        raise AssertionError("JSON round trip changed the reference document")
    return s


class OpFailed(Exception):
    """An operation raised; it has been counted and its traceback printed."""


class Run:
    """Closed-loop recorder for one benchmark process.

    Samples (end-to-end operations) are always kept.  Spans are kept only
    while `tracing` is on, in memory, and written out when the run ends.
    Every interval is stamped in program time (`now`, which stands still
    while the reference loop runs) and converted to seconds at reference
    pace by `seconds` once the run is over, when the pace on both sides of
    it is known.
    """

    def __init__(self):
        self.tracing = False
        self.round = 0
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)   # kind -> [(round, start, end)]
        self.verified = []                 # [(round, start, end, samples checked)]
        self.counts = defaultdict(int)     # name -> summed count
        self.spans = []                    # [id, parent, request, name, start, end]
        self._stack = []
        self.request = 0
        self.paused = 0.0                  # seconds spent in the reference loop
        self.pace_at = []                  # program time of each reference timing
        self.pace = []                     # its duration in seconds
        self._next_pace = 0.0

    # -- program time and host pace ----------------------------------------

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def time_pace(self):
        """Time the reference loop once, outside program time."""
        t0 = time.perf_counter()
        pace_loop(PACE_TERMS[:PACE_WARM], PACE_DOC[:PACE_WARM])
        t1 = time.perf_counter()
        pace_loop(PACE_TERMS, PACE_DOC)
        t2 = time.perf_counter()
        self.pace_at.append(t0 - self.paused)
        self.pace.append(t2 - t1)
        self.paused += t2 - t0

    def tick(self):
        """Time the reference loop if PACE_EVERY has passed since the last
        timing; called before and after calls, never inside one."""
        if self.now() >= self._next_pace:
            self.time_pace()
            self._next_pace = self.now() + PACE_EVERY

    def seconds(self, start: float, end: float) -> float:
        """Program-time interval in seconds at reference pace, using the
        median reference timing inside it and PACE_NEAR on each side."""
        lo = max(0, bisect.bisect_left(self.pace_at, start) - PACE_NEAR)
        hi = bisect.bisect_right(self.pace_at, end) + PACE_NEAR
        return (end - start) * PACE_REF_S / statistics.median(self.pace[lo:hi])

    # -- operations and checks ------------------------------------------

    def op(self, kind, fn, *args, **kwargs):
        """Call fn as one attempted operation, timing it under `kind`."""
        self.attempted += 1
        self.request += 1
        self.tick()
        t0 = self.now()
        try:
            with self.span(kind):
                result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            sys.stderr.write(f"operation {kind} raised:\n")
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(kind) from exc
        self.samples[kind].append((self.round, t0, self.now()))
        self.tick()
        return result

    def unit(self, fn, *args):
        """Run one unit of dependent operations (a case, a suite member, a
        CLI session).  An exception outside any operation, such as one from
        a check's own use of the package, counts as one more failed
        operation; the unit stops and the next one runs."""
        try:
            fn(*args)
        except OpFailed:
            pass
        except Exception:
            self.attempted += 1
            self.failed += 1
            traceback.print_exc(file=sys.stderr)

    def expect(self, ok: bool, what: str):
        """A failed check marks the operation it checks as failed."""
        if not ok:
            self.failed += 1
            sys.stderr.write(f"check failed: {what}\n")

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name):
        if not self.tracing:
            yield
            return
        rec = [len(self.spans), self._stack[-1] if self._stack else None,
               self.request, name, self.now(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            self._stack.pop()
            rec[5] = self.now()

    def span_seconds(self, name) -> float:
        return sum(self.span_durations(name))

    def span_durations(self, name) -> list:
        return [self.seconds(s[4], s[5]) for s in self.spans if s[3] == name]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "request", "name", "start", "end"],
                       "spans": self.spans}, fh)


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a nonempty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# -- the model surface (n, p, __call__) -------------------------------------

def walk_blocks(pkg, run, blocks, x):
    """Block-by-block forward pass with one span per attention and
    feed-forward sublayer; the residual add mirrors eval_encoder."""
    out = x
    for blk in blocks:
        with run.span("transformer.attn"):
            h = pkg.eval_multihead(blk.attn, out)
        with run.span("transformer.ffn"):
            y = pkg.eval_ffn(blk.ffn, h)
        out = pkg.add(y, out) if blk.residual else y
    return out


def out_bits(m) -> int:
    """Largest numerator or denominator bit length of a rational matrix."""
    return max(max(abs(v.numerator).bit_length(), v.denominator.bit_length())
               for row in m.data for v in row)


class Observed:
    """Wraps a compiled model: times every exact forward pass under
    "eval"; while tracing, walks the blocks instead and checks the walk
    against eval_encoder on the first call."""

    def __init__(self, pkg, run, model):
        self.pkg, self.run, self.model = pkg, run, model
        self.blocks = model.blocks
        self.n, self.p = model.n, model.p
        self._walk_checked = False

    def __call__(self, x):
        run = self.run
        if x.backend != "rational":
            return self.model(x)
        run.tick()
        t0 = run.now()
        with run.span("model"):
            if run.tracing:
                out = walk_blocks(self.pkg, run, self.blocks, x)
            else:
                out = self.model(x)
        run.samples["eval"].append((run.round, t0, run.now()))
        if run.tracing:
            run.counts["out_max_bits"] = max(run.counts["out_max_bits"], out_bits(out))
            if not self._walk_checked:
                self._walk_checked = True
                run.expect(out == self.pkg.eval_encoder(self.blocks, x),
                           "block walk differs from eval_encoder")
        return out


class ObservedOracle:
    """Duck-typed oracle (n, p, eval) timing the spline side of a check."""

    def __init__(self, run, grid):
        self.run, self.grid = run, grid
        self.n, self.p = grid.n, grid.p

    def eval(self, x):
        with self.run.span("spline.oracle"):
            return self.grid.eval(x)


# -- deterministic weight counters ------------------------------------------

def weights_json(pkg, run, blocks) -> bytes:
    with run.span("transformer.json_dump"):
        obj = pkg.blocks_to_json(blocks)
    return json.dumps(obj, sort_keys=True).encode("utf-8")


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _matrices(blocks):
    for blk in blocks:
        for h in blk.attn.heads:
            yield from (h.a_q, h.b_q, h.a_k, h.b_k, h.a_v, h.b_v)
        for a, b in blk.ffn.layers:
            yield a
            yield b


def count_weights(run, blocks, layout_rows: int):
    """Add one model's structural counts to the run's counters."""
    c = run.counts
    for m in _matrices(blocks):
        c["weight_entries"] += m.rows * m.cols
        nz = [v for row in m.data for v in row if v]
        c["nonzeros"] += len(nz)
        for v in nz:
            c["max_num_bits"] = max(c["max_num_bits"], abs(v.numerator).bit_length())
            c["max_den_bits"] = max(c["max_den_bits"], v.denominator.bit_length())
    for blk in blocks:
        c["heads"] += len(blk.attn.heads)
        c["hidden_units"] += sum(a.rows for a, _ in blk.ffn.layers[:-1])
    c["layout_rows"] += layout_rows
