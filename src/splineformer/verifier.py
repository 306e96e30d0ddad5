"""Independent checks for compiled artifacts: exact oracle equivalence,
autoregressive prefix testing, finite-difference degree estimation, and
the ReLU -> smooth activation swap."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Optional, Sequence

from .spline import SplineGrid
from .tensor import (DegenerateColumnError, Mat, ShapeError, add, mat_to_json,
                     nonzero_rows, scale, sparse_product)
from .transformer import (RELU, SOFTMAX, Activation, EncoderModel, _carry, _handed,
                          _numerators, _walk)


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


# -- batched passes -------------------------------------------------------------

# the widest batch one pass of a check evaluates, in input columns: a chunk
# of inputs fills it side by side, once per activation the pass compares,
# so memory does not grow with the sample count
PASS_COLUMNS = 128


def _chunks(xs: Iterable[Mat], copies: int):
    """xs in order, as lists of at least one input whose side-by-side
    batch, repeated `copies` times, is at most PASS_COLUMNS wide; an input
    is read only when its list is cut."""
    it = iter(xs)
    for first in it:
        yield [first, *islice(it, max(1, PASS_COLUMNS // (first.cols * copies)) - 1)]


def _side_by_side(xs: Sequence[Mat], copies: int = 1) -> Mat:
    """Inputs of one shape and backend as one batch, in order, all of them
    repeated `copies` times: input i of copy c in the p columns from
    (c * len(xs) + i) * p."""
    n, p = xs[0].shape
    if any(x.shape != (n, p) for x in xs):
        raise ShapeError(f"a batch needs inputs of one shape, got {[x.shape for x in xs]}")
    xs = list(xs) * copies
    return Mat(xs[0].backend, tuple(tuple((o + j, v) for o, x in zip(range(0, len(xs) * p, p), xs)
                                          for j, v in x.nz[i]) for i in range(n)), len(xs) * p)


def _exact_outputs(model, xs: Iterable[Mat]) -> tuple:
    """The outputs of `model` at the rational inputs xs, side by side in
    order, as numerator rows over one shared denominator (a float output
    is its own numerators, over 1).  A model that carries `blocks` and no
    stand-in `activation` gets one exact pass per chunk of xs (`_chunks`),
    which refuses weights that are not rational (`_carry`); any other
    model is called once per input."""
    blocks = getattr(model, "blocks", None)
    if blocks is None or getattr(model, "activation", None) is not None:
        parts = [_numerators(model(x)) for x in xs]
    else:
        parts = [_carry(blocks, _side_by_side(chunk), activations=(None,) * len(chunk))
                 for chunk in _chunks(xs, 1)]
    if len(parts) == 1:
        return parts[0]
    den = math.lcm(*(d for _, d in parts))
    scaled = [(rows, den // d) for rows, d in parts]
    return [[v * f for rows, f in scaled for v in rows[i]] for i in range(len(parts[0][0]))], den


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
        if got == want:
            # equal matrices have equal fields, so every entry's error is 0
            continue
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
        xp = Mat.rational([[v if c < j else random_fraction(rng) for c, v in enumerate(row)]
                           for row in x.data])
        # over one denominator, equal outputs have equal numerators
        rows, _ = _exact_outputs(model, (x, xp))
        w = len(rows[0]) // 2
        for col in range(j):
            if any(row[col] != row[w + col] for row in rows):
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


def _forward_diff_degree(values: Sequence[Sequence]) -> int:
    """Largest k < len(values) whose k-th forward difference is nonzero;
    values are flattened model outputs at equally spaced line points, or
    their numerators over one shared denominator (only zero tests matter).
    Every level after an all-zero one is all zero, so the difference table
    stops at the first such level.

    On integer rows the top level, one entry per coordinate, is first
    taken as a binomial sum over the points; if it is nonzero, no level
    below it is all zero, and a censored trial (a crossed piece boundary)
    costs no table.  Float rows always build the table, since the sum
    would round otherwise than the differences do."""
    top = len(values) - 1
    if all(type(v) is int for row in values for v in row):
        # (-1)^(top - i) C(top, i), each from the one before
        signed = [(-1) ** top]
        for i in range(top):
            signed.append(-signed[-1] * (top - i) // (i + 1))
        if any(sum(c * v for c, v in zip(signed, col)) for col in zip(*values)):
            return top
    current = [list(v) for v in values]
    deg = 0
    while len(current) > 1:
        current = [[b - a for a, b in zip(r1, r2)] for r1, r2 in zip(current, current[1:])]
        if not any(any(row) for row in current):
            break
        deg += 1
    return deg


# the spacing of the collinear points `estimate_degree` evaluates
DEGREE_STEP = Fraction(1, 1000)


def estimate_degree(model, max_deg: int, trials: int, seed: int,
                    bound: Optional[int] = None) -> DegreeReport:
    """Exact finite differences along random rational lines.

    Per trial the model is evaluated at max_deg + 2 collinear points
    DEGREE_STEP apart (`_exact_outputs`, batched where the model allows);
    the estimated degree is the largest order with a nonvanishing
    difference (max_deg + 1 marks "at least max_deg + 1", e.g. a crossed
    piece boundary).  The mode over trials is reported against the bound.
    """
    per_trial = []
    for t in range(trials):
        rng = trial_rng(seed, t)
        base = random_rational_mat(rng, model.n, model.p)
        direction = random_rational_mat(rng, model.n, model.p)
        while not any(direction.nz):
            direction = random_rational_mat(rng, model.n, model.p)
        points = max_deg + 2
        rows, _ = _exact_outputs(model, (add(base, scale(direction, k * DEGREE_STEP))
                                         for k in range(points)))
        w = len(rows[0]) // points
        values = [[v for row in rows for v in row[k:k + w]] for k in range(0, points * w, w)]
        per_trial.append(_forward_diff_degree(values))
    counts: dict = {}
    for d in per_trial:
        counts[d] = counts.get(d, 0) + 1
    modal = max(sorted(counts), key=lambda d: counts[d])
    return DegreeReport(trials=trials, per_trial=tuple(per_trial),
                        modal_degree=modal, bound=bound,
                        bound_satisfied=None if bound is None else modal <= bound,
                        max_deg=max_deg)


# -- activation smoothing ----------------------------------------------------------

def _model_blocks(model) -> tuple:
    return getattr(model, "blocks", model)


def require_relu(model):
    """Raise ValueError, naming the activation found, unless every
    attention head of `model`, a model or its blocks, is ReLU (the model a
    swap starts from); a model's stand-in counts in place of each head's own."""
    stand_in = getattr(model, "activation", None)
    for blk in _model_blocks(model):
        for *_, own in blk.attn.groups:
            activation = own if stand_in is None else stand_in
            if activation.kind != "relu":
                raise ValueError(f"smooth swap expects a relu-activated model, "
                                 f"found {activation.kind} attention")


def smooth_swap(model, activation: Activation) -> EncoderModel:
    """Replace every attention activation (the nets keep ReLU)."""
    require_relu(model)
    return EncoderModel(_model_blocks(model), activation)


def smooth_convergence_table(model, xs: Iterable[Mat], betas: Sequence[float]):
    """Max |softplus-swapped - relu| per beta, rows in the given order;
    math.inf is accepted as the relu-itself sentinel (error 0), and a beta
    given twice gets its row twice.

    xs is read a chunk at a time (`_chunks`).  Each chunk takes one batched
    pass: the ReLU base of every input, then every input again for each
    distinct finite beta, in that order, side by side.  Every pass reads
    the float image of the same weights, so a new beta copies none."""
    blocks = _model_blocks(model)
    require_relu(model)
    finite = list(dict.fromkeys(beta for beta in betas if beta != math.inf))
    stand_ins = [None, *(Activation("softplus", float(beta)) for beta in finite)]
    worst = dict.fromkeys(finite, 0.0)
    for chunk in _chunks(xs, len(stand_ins)):
        out = _walk(blocks, _side_by_side([x.to_float() for x in chunk], len(stand_ins)),
                    activations=[a for a in stand_ins for _ in chunk])
        # an error between passes that overflowed would read as NaN
        if not all(math.isfinite(v) for row in out.nz for _, v in row):
            raise OverflowError("the float pass overflowed")
        out = out.data
        w = len(out[0]) // len(stand_ins)
        for c, beta in enumerate(finite, 1):
            worst[beta] = max(worst[beta], max(abs(a - b) for row in out
                                               for a, b in zip(row[c * w:c * w + w], row)))
    return [{"beta": "inf", "max_abs_error": 0.0} if beta == math.inf
            else {"beta": beta, "max_abs_error": worst[beta]} for beta in betas]


def _abs_rows(rows) -> list:
    return [[abs(v) for v in row] for row in rows]


def _product(a, b: list) -> list:
    """a b for row lists, summed as `matmul` sums it."""
    return sparse_product(nonzero_rows(a), b, len(b[0]), 0.0)


def _sum(a: list, b: list) -> list:
    return [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(a, b)]


class _ErrorBound:
    """Observer of a float ReLU pass that carries an entrywise bound on
    |softplus-swapped - relu| beside it, block by block, in `err`."""

    def __init__(self, gap: float, x: Mat):
        self.gap = gap
        self.err = [[0.0] * x.cols for _ in range(x.rows)]

    def __call__(self, blk, q, k, v, acts):
        plan = blk.attn.plan
        p = len(self.err[0])
        iq, ik, iv = plan.index
        # the error maps are |coef| of the rows the pass computed: each
        # product is formed once per distinct pair, then handed out per
        # stored row as the pass handed out its rows
        mq, mk, mv = plan.magnitudes
        eq = _handed(sparse_product(mq, self.err, p, 0.0), iq)
        ek = _handed(sparse_product(mk, self.err, p, 0.0), ik)
        ev = _handed(nonzero_rows(sparse_product(mv, self.err, p, 0.0)), iv)
        # per group, the value rows of its heads that the net reads
        # (`blk.plan`); the other rows stay 0, in columns the net's
        # magnitudes never read
        members = {}
        for r in blk.plan.rows:
            members.setdefault(plan.row_groups[r], []).append(r)
        out = [[0.0] * p] * len(v)
        for g, read in members.items():
            (t, d, masked, *_), act = plan.group_layout[g], acts[g]
            eqh, ekt = eq[t:t + d], list(zip(*ek[t:t + d]))
            # |s~ - s| <= |K|^T eq + ek^T |Q| + ek^T eq
            es = _sum(_sum(_product(zip(*_abs_rows(k[t:t + d])), eqh),
                           _product(ekt, _abs_rows(q[t:t + d]))), _product(ekt, eqh))
            # masked entries are exactly 0 under both activations
            es = [[e + self.gap if not masked or i <= j else 0.0 for j, e in enumerate(row)]
                  for i, row in enumerate(es)]
            dense = [[dict(nz).get(j, 0.0) for j in range(p)] for nz in act]
            # |V~ A~ - V A| <= eV (|A| + eA) + |V| eA, one product per group
            # over its rows: each row's sums are its own
            bound = _sum(sparse_product([ev[r] for r in read], _sum(dense, es), p, 0.0),
                         sparse_product(nonzero_rows(_abs_rows(v[r] for r in read)), es, p, 0.0))
            for r, row in zip(read, bound):
                out[r] = row
        for rows in blk.ffn.magnitudes:
            # relu is 1-Lipschitz: error carries over
            out = sparse_product(rows, out, p, 0.0)
        self.err = _sum(out, self.err) if blk.residual else out


def softplus_error_bound(model, x: Mat, beta: float) -> float:
    """Analytic bound on |softplus-swapped - relu| at x.

    Per attention layer the activation gap is at most ln2/beta entrywise
    (and softplus is 1-Lipschitz); the gap is pushed through the affine
    maps, the score products, and the ReLU nets by interval propagation,
    beside one float pass of the ReLU model.
    """
    bound = _ErrorBound(math.log(2) / beta, x)
    _walk(_model_blocks(model), x.to_float(), bound, (RELU,))
    return max(abs(e) for row in bound.err for e in row)


class _ProbabilityColumns:
    """Observer of float softmax passes that checks every group's
    activation rows once per block and pass, column by column; a batch's
    rows are block-diagonal, so each column holds one input's entries."""

    def __init__(self, tol: float):
        self.tol = tol
        self.columns_ok = True
        self.masked_zeros_ok = True

    def __call__(self, blk, q, k, v, acts):
        for (_, masked, *_), act in zip(blk.attn.groups, acts):
            # act holds the nonzero entries only; adding 0.0 changes no column sum
            cols = [[] for _ in act]
            for i, row in enumerate(act):
                for j, w in row:
                    cols[j].append(w)
                    if masked and i > j:
                        self.masked_zeros_ok = False
            for col in cols:
                # written so that a NaN entry or sum fails the check
                if not (abs(sum(col) - 1.0) <= self.tol and all(0 <= e <= 1 for e in col)):
                    self.columns_ok = False


def softmax_probability_check(model, xs: Iterable[Mat], tol: float = 1e-12) -> dict:
    """Watch softmax-swapped passes over xs: every attention score matrix
    must map to probability columns (sums within tol of 1, entries in
    [0, 1]), on masked heads the strictly-lower entries must be exactly
    0, and every output must be finite.  xs is read a chunk at a time
    (`_chunks`), and each chunk takes one batched pass, so the observer
    sees one record per block and pass, each input's columns on their own."""
    blocks = _model_blocks(model)
    check = _ProbabilityColumns(tol)
    finite = True
    for chunk in _chunks(xs, 1):
        try:
            out = _walk(blocks, _side_by_side([x.to_float() for x in chunk]), check,
                        [SOFTMAX] * len(chunk))
        except DegenerateColumnError:
            # finite weights and inputs give a score of -inf only by overflow
            raise OverflowError("the float pass overflowed") from None
        finite = finite and all(math.isfinite(v) for row in out.nz for _, v in row)
    return {"finite_outputs": finite, "probability_columns": check.columns_ok,
            "masked_zeros": check.masked_zeros_ok}
