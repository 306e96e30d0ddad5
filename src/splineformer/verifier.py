"""Independent checks for compiled artifacts: exact oracle equivalence,
autoregressive prefix testing, finite-difference degree estimation, and
the ReLU -> smooth activation swap."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .spline import SplineGrid
from .tensor import (FLOAT, Mat, add, apply_mask, broadcast_cols, mat_to_json,
                     matmul, softmax_columns, stack_rows, transpose)
from .transformer import (Activation, EncoderBlock, MultiheadAttention,
                          blocks_to_float, eval_encoder, relu)
from .compiler import CompiledEncoder


# -- seeded rational sampling -------------------------------------------------

def trial_rng(seed: int, trial: int) -> random.Random:
    """Per-trial stream so parallel and serial runs agree."""
    return random.Random(f"splineformer:{seed}:{trial}")


def random_fraction(rng: random.Random) -> Fraction:
    """Numerator uniform in [-10, 10], denominator uniform in [1, 7]."""
    return Fraction(rng.randint(-10, 10), rng.randint(1, 7))


def random_rational_mat(rng: random.Random, rows: int, cols: int) -> Mat:
    return Mat.rational([[random_fraction(rng) for _ in range(cols)]
                         for _ in range(rows)])


class FnModel:
    """Adapter giving a bare function the evaluable-model surface."""

    def __init__(self, fn: Callable[[Mat], Mat], n: int, p: int):
        self._fn = fn
        self.n = n
        self.p = p

    def __call__(self, x: Mat) -> Mat:
        return self._fn(x)


# -- oracle equivalence ---------------------------------------------------------

@dataclass(frozen=True)
class EquivReport:
    samples: int
    exact: bool
    max_abs_error: Fraction
    first_failure: Optional[tuple]  # (X, expected, got)
    seed: int

    def to_json(self):
        obj = {"kind": "equiv", "samples": self.samples, "exact": self.exact,
               "max_abs_error": str(self.max_abs_error), "seed": self.seed}
        if self.first_failure is not None:
            x, want, got = self.first_failure
            obj["first_failure"] = {"X": mat_to_json(x), "expected": mat_to_json(want),
                                    "got": mat_to_json(got)}
        return obj


def oracle_equiv(model, oracle: SplineGrid, n_samples: int, seed: int) -> EquivReport:
    """Exact comparison of a model against direct max-min evaluation at
    seeded random rational inputs."""
    worst = Fraction(0)
    failure = None
    for t in range(n_samples):
        x = random_rational_mat(trial_rng(seed, t), oracle.n, oracle.p)
        want = oracle.eval(x)
        got = model(x)
        if got.shape != want.shape:
            raise ValueError(f"model output {got.shape} vs oracle {want.shape}")
        err = max(abs(a - b) for ra, rb in zip(got.data, want.data)
                  for a, b in zip(ra, rb))
        if err > worst:
            worst = err
        if err != 0 and failure is None:
            failure = (x, want, got)
    return EquivReport(samples=n_samples, exact=failure is None,
                       max_abs_error=worst, first_failure=failure, seed=seed)


# -- autoregressive prefix testing ------------------------------------------------

@dataclass(frozen=True)
class PrefixReport:
    trials: int
    passed: bool
    witness: Optional[tuple]  # (X, X_prime, j, output column)

    def to_json(self):
        obj = {"kind": "autoregressive", "trials": self.trials, "passed": self.passed}
        if self.witness is not None:
            x, xp, j, col = self.witness
            obj["witness"] = {"X": mat_to_json(x), "X_prime": mat_to_json(xp),
                              "prefix": j, "column": col}
        return obj


def autoregressive_check(model, trials: int, seed: int) -> PrefixReport:
    """Resample the columns after a random prefix and require the outputs
    to agree on the prefix."""
    if model.p < 2:
        raise ValueError("prefix testing needs p >= 2")
    for t in range(trials):
        rng = trial_rng(seed, t)
        x = random_rational_mat(rng, model.n, model.p)
        j = rng.randint(1, model.p - 1)
        data = [list(row) for row in x.data]
        for i in range(model.n):
            for c in range(j, model.p):
                data[i][c] = random_fraction(rng)
        xp = Mat.rational(data)
        out_a = model(x)
        out_b = model(xp)
        for col in range(j):
            if any(out_a.data[i][col] != out_b.data[i][col] for i in range(out_a.rows)):
                return PrefixReport(trials=trials, passed=False,
                                    witness=(x, xp, j, col + 1))
    return PrefixReport(trials=trials, passed=True, witness=None)


# -- degree estimation ---------------------------------------------------------------

@dataclass(frozen=True)
class DegreeReport:
    trials: int
    per_trial: tuple
    modal_degree: int
    bound: Optional[int]
    bound_satisfied: Optional[bool]
    max_deg: int

    def to_json(self):
        return {"kind": "degree", "trials": self.trials,
                "per_trial": list(self.per_trial), "modal_degree": self.modal_degree,
                "bound": self.bound, "bound_satisfied": self.bound_satisfied,
                "max_deg": self.max_deg}


def _forward_diff_degree(values: Sequence[Sequence[Fraction]], max_deg: int) -> int:
    """Largest k <= max_deg + 1 whose k-th forward difference is nonzero;
    values are flattened model outputs at equally spaced line points."""
    rows = [list(v) for v in values]
    deg = 0
    level = 0
    current = rows
    while len(current) > 1:
        nxt = [[b - a for a, b in zip(r1, r2)]
               for r1, r2 in zip(current, current[1:])]
        level += 1
        if any(any(x != 0 for x in row) for row in nxt):
            deg = level
        current = nxt
    return deg


def estimate_degree(model, max_deg: int, trials: int, seed: int,
                    bound: Optional[int] = None, step: Fraction = Fraction(1, 1000)) -> DegreeReport:
    """Exact finite differences along random rational lines.

    Per trial the model is evaluated at max_deg + 2 collinear points; the
    estimated degree is the largest order with a nonvanishing difference
    (max_deg + 1 marks "at least max_deg + 1", e.g. a crossed piece
    boundary).  The mode over trials is reported against the bound.
    """
    per_trial = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        base = random_rational_mat(rng, model.n, model.p)
        direction = random_rational_mat(rng, model.n, model.p)
        while all(v == 0 for row in direction.data for v in row):
            direction = random_rational_mat(rng, model.n, model.p)
        values = []
        for k in range(max_deg + 2):
            point = Mat.rational([
                [base.at(i, j) + k * step * direction.at(i, j)
                 for j in range(model.p)] for i in range(model.n)])
            out = model(point)
            values.append([x for row in out.data for x in row])
        per_trial.append(_forward_diff_degree(values, max_deg))
    counts: dict = {}
    for d in per_trial:
        counts[d] = counts.get(d, 0) + 1
    modal = max(sorted(counts), key=lambda d: counts[d])
    return DegreeReport(trials=trials, per_trial=tuple(per_trial),
                        modal_degree=modal, bound=bound,
                        bound_satisfied=None if bound is None else modal <= bound,
                        max_deg=max_deg)


# -- activation smoothing ----------------------------------------------------------

class SmoothModel:
    """A compiled model with its attention activations swapped; evaluation
    runs on the float backend, feed-forward nets stay ReLU."""

    def __init__(self, blocks: Sequence[EncoderBlock], activation: Activation,
                 original_blocks: Sequence[EncoderBlock]):
        self.activation = activation
        self.original_blocks = tuple(original_blocks)
        swapped = []
        for blk in blocks:
            heads = tuple(replace(h, activation=activation) for h in blk.attn.heads)
            swapped.append(EncoderBlock(MultiheadAttention(heads), blk.ffn, blk.residual))
        self.blocks = tuple(swapped)
        head = self.blocks[0].attn.heads[0]
        self.n = head.n
        self.p = head.p

    def __call__(self, x: Mat) -> Mat:
        return eval_encoder(self.blocks, x.to_float())

    def swap_back(self) -> tuple:
        """The untouched original weights."""
        return self.original_blocks


def _model_blocks(model) -> tuple:
    if isinstance(model, CompiledEncoder):
        return model.blocks
    if isinstance(model, SmoothModel):
        return model.blocks
    return tuple(model)


def _require_relu(blocks):
    for blk in blocks:
        for h in blk.attn.heads:
            if h.activation.kind != "relu":
                raise ValueError("smooth swap expects a relu-activated model")


def smooth_swap(model, activation: Activation) -> SmoothModel:
    """Replace every attention activation (the nets keep ReLU)."""
    blocks = _model_blocks(model)
    _require_relu(blocks)
    return SmoothModel(blocks_to_float(blocks), activation, blocks)


def smooth_convergence_table(model, xs: Sequence[Mat], betas: Sequence[float]):
    """Max |softplus-swapped - relu| per beta, rows in the given order;
    math.inf is accepted as the relu-itself sentinel (error 0).  The
    weights are converted to floats once and shared by every swap."""
    blocks = _model_blocks(model)
    float_blocks = blocks_to_float(blocks)
    base = [eval_encoder(float_blocks, x.to_float()) for x in xs]
    rows = []
    for beta in betas:
        if beta == math.inf:
            rows.append({"beta": "inf", "max_abs_error": 0.0})
            continue
        _require_relu(blocks)
        swapped = SmoothModel(float_blocks, Activation("softplus", float(beta)), blocks)
        err = 0.0
        for x, want in zip(xs, base):
            got = swapped(x)
            err = max(err, max(abs(a - b) for ra, rb in zip(got.data, want.data)
                               for a, b in zip(ra, rb)))
        rows.append({"beta": beta, "max_abs_error": err})
    return rows


def _abs_mat(m: Mat) -> Mat:
    return Mat(FLOAT, tuple(tuple(abs(v) for v in row) for row in m.data))


def softplus_error_bound(model, x: Mat, beta: float) -> float:
    """Analytic bound on |softplus-swapped - relu| at x.

    Per attention layer the activation gap is at most ln2/beta entrywise
    (and softplus is 1-Lipschitz); the gap is pushed through the affine
    maps, the score products, and the ReLU nets by interval propagation.
    """
    gap = math.log(2) / beta
    blocks = blocks_to_float(_model_blocks(model))
    cur = x.to_float()
    err = Mat.zeros(cur.rows, cur.cols, FLOAT)
    for blk in blocks:
        outs = []
        errs = []
        for h in blk.attn.heads:
            q = add(matmul(h.a_q, cur), h.b_q)
            k = add(matmul(h.a_k, cur), h.b_k)
            v = add(matmul(h.a_v, cur), h.b_v)
            eq = matmul(_abs_mat(h.a_q), err)
            ek = matmul(_abs_mat(h.a_k), err)
            ev = matmul(_abs_mat(h.a_v), err)
            s = matmul(transpose(k), q)
            # |s~ - s| <= |K|^T eq + ek^T |Q| + ek^T eq
            es = add(add(matmul(transpose(_abs_mat(k)), eq),
                         matmul(transpose(ek), _abs_mat(q))),
                     matmul(transpose(ek), eq))
            if h.masked:
                act = relu(apply_mask(s))
                # masked entries are exactly 0 under both activations
                es = Mat(FLOAT, tuple(
                    tuple((es.at(i, j) + gap) if i <= j else 0.0
                          for j in range(es.cols)) for i in range(es.rows)))
            else:
                act = relu(s)
                es = Mat(FLOAT, tuple(tuple(e + gap for e in row) for row in es.data))
            # |V~ A~ - V A| <= eV (|A| + eA) + |V| eA
            outs.append(matmul(v, act))
            errs.append(add(matmul(ev, add(_abs_mat(act), es)),
                            matmul(_abs_mat(v), es)))
        h_out = stack_rows(outs)
        e_out = stack_rows(errs)
        last = len(blk.ffn.layers) - 1
        for i, (a, b) in enumerate(blk.ffn.layers):
            h_out = add(matmul(a, h_out), broadcast_cols(b, h_out.cols))
            e_out = matmul(_abs_mat(a), e_out)
            if i != last:
                h_out = relu(h_out)  # relu is 1-Lipschitz: error carries over
        if blk.residual:
            h_out = add(h_out, cur)
            e_out = add(e_out, err)
        cur, err = h_out, e_out
    return err.max_abs()


def softmax_probability_check(model, xs: Sequence[Mat], tol: float = 1e-12) -> dict:
    """Walk a softmax-swapped evaluation and verify every attention score
    matrix maps to probability columns (sums within tol of 1, entries in
    [0, 1]); on masked heads the strictly-lower entries must be exactly 0."""
    blocks = blocks_to_float(_model_blocks(model))
    columns_ok = True
    masked_zeros_ok = True
    for x in xs:
        cur = x.to_float()
        for blk in blocks:
            outs = []
            for h in blk.attn.heads:
                q = add(matmul(h.a_q, cur), h.b_q)
                k = add(matmul(h.a_k, cur), h.b_k)
                v = add(matmul(h.a_v, cur), h.b_v)
                s = matmul(transpose(k), q)
                if h.masked:
                    s = apply_mask(s)
                probs = softmax_columns(s)
                for j in range(probs.cols):
                    col = probs.col_entries(j)
                    if abs(sum(col) - 1.0) > tol or any(e < 0 or e > 1 for e in col):
                        columns_ok = False
                if h.masked:
                    for i in range(probs.rows):
                        for j in range(probs.cols):
                            if i > j and probs.at(i, j) != 0.0:
                                masked_zeros_ok = False
                outs.append(matmul(v, probs))
            h_out = stack_rows(outs)
            last = len(blk.ffn.layers) - 1
            for i, (a, b) in enumerate(blk.ffn.layers):
                h_out = add(matmul(a, h_out), broadcast_cols(b, h_out.cols))
                if i != last:
                    h_out = relu(h_out)
            cur = add(h_out, cur) if blk.residual else h_out
    return {"probability_columns": columns_ok, "masked_zeros": masked_zeros_ok}


# -- layout soundness ------------------------------------------------------------

def check_layout_soundness(compiled: CompiledEncoder, x: Mat) -> bool:
    """Every layout row must hold its monomial's value in its own column
    and be zero everywhere else (the off-column entries vanish)."""
    out = eval_encoder(compiled.blocks, x)
    for mon, col, row in compiled.layout.entries():
        want = mon.eval(x)
        for j in range(out.cols):
            have = out.at(row, j)
            if j == col - 1:
                if have != want:
                    return False
            elif have != 0:
                return False
    return True
