"""Dense reference operations the tests check the package against.

The package computes attention activations in the stacked kernel
`transformer._pattern`, except that an exact pass with no observer takes
each one-row ReLU group in factored form (`transformer._factored`), with
no score block.  `unshared_walk` always forms the pattern, so the tests
that compare the pass with it check the factored form too.  The
operations here spell the same mask and activations out matrix by
matrix, with the dense helpers and model adapters that only tests need,
so that a test can build a head's output from first principles and
compare.  A head is a `MultiheadAttention` of one head; the compiler's
single-head builders,
`replace_head`, which also rebuilds such a head's group with new flags,
and the writer of the per-head weights form, which only tests use, live
here too, as do the max-min combinators as they were before forms were
absorbed, the normal form built with them, the max-min readout net as
it was before equal units were shared, the block walk as it was
before equal attention-map rows were shared, and the spline oracle as it
was before it ran on integer numerators: a `Fraction` per step.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence
from unittest import mock

from splineformer import spline
from splineformer.compiler import CompiledEncoder, _layer, _sparse
from splineformer.spline import PBForm, VariableRangeError, _check_size, _form_size
from splineformer.tensor import (FLOAT, NEG_INF, RATIONAL, BackendError, Mat, ShapeError,
                                 _softmax_column, _softplus_scalar, add, mat_to_json, scale)
from splineformer.transformer import (FeedForwardNet, _added, _affine, _feed, _image,
                                      _numerators, _pattern, _reduced, _to_mat, blocks_from_json,
                                      eval_encoder, pass_through)


# -- dense matrix operations -------------------------------------------------

@dataclass(frozen=True)
class MaskedScores:
    """Square score matrix whose strictly-lower triangle is pinned out.

    The rational backend cannot hold -inf, so masking is recorded as a
    structural flag and consumed by the activation; the result is the
    same as applying the activation to the -inf-masked float matrix.
    """

    mat: Mat


def sub(a: Mat, b: Mat) -> Mat:
    return add(a, scale(b, -1))


def max_abs(m: Mat):
    """The largest |entry| of m, or zero."""
    return max((abs(v) for row in m.nz for _, v in row), default=0.0 if m.backend == FLOAT else Fraction(0))


def transpose(a: Mat) -> Mat:
    return Mat.dense(a.backend, tuple(zip(*a.data)))


def broadcast_cols(v: Mat, p: int) -> Mat:
    """Repeat a column vector across p columns (bias broadcast)."""
    if v.cols != 1:
        raise ShapeError(f"broadcast_cols expects a column vector, got {v.shape}")
    return Mat(v.backend, tuple(tuple((j, x) for _, x in row for j in range(p)) for row in v.nz), p)


def relu(m) -> Mat:
    """Entrywise max(x, 0); accepts masked scores and zeroes their lower triangle."""
    masked = isinstance(m, MaskedScores)
    inner = m.mat if masked else m
    return Mat(inner.backend, tuple(tuple((j, x) for j, x in row if x > 0 and (j >= i or not masked))
                                    for i, row in enumerate(inner.nz)), inner.cols)


def softmax_columns(m) -> Mat:
    """Columnwise softmax on the float backend; -inf entries map to exactly 0."""
    if isinstance(m, MaskedScores):
        raise BackendError("softmax on a structurally masked rational matrix; use the float backend")
    if m.backend != FLOAT:
        raise BackendError("softmax requires the float backend")
    cols = [_softmax_column(col, j) for j, col in enumerate(zip(*m.data))]
    return Mat.dense(FLOAT, tuple(zip(*cols)))


def softplus_beta(m, beta: float) -> Mat:
    """Entrywise log(1 + exp(beta*x)) / beta, computed overflow-safely."""
    if beta <= 0:
        raise ValueError(f"softplus beta must be positive, got {beta}")
    if isinstance(m, MaskedScores):
        m = apply_mask(m.mat.to_float())  # a -inf score maps to exactly 0
    if m.backend != FLOAT:
        raise BackendError("softplus requires the float backend")
    return Mat.dense(FLOAT, tuple(tuple(_softplus_scalar(x, beta) for x in row) for row in m.data))


def apply_mask(m: Mat):
    """Pin the strictly-lower triangle of a square score matrix.

    Float backend: entries below the diagonal become -inf.  Rational
    backend: returns MaskedScores, a structural flag consumed by the
    activation (equivalent to ReLU after the -inf mask).
    """
    if m.rows != m.cols:
        raise ShapeError(f"mask needs a square matrix, got {m.shape}")
    if m.backend == RATIONAL:
        return MaskedScores(m)
    return Mat.dense(FLOAT, tuple(
        tuple(x if i <= j else NEG_INF for j, x in enumerate(row))
        for i, row in enumerate(m.data)))


# -- models ------------------------------------------------------------------

def build_copy_head(i_hat: int, j_hat: int, j: int, n: int, p: int, masked: bool = False):
    """The compiler's head whose output row holds entry (i_hat, j_hat) at
    column j, zeros elsewhere (all indices 1-based)."""
    if not (1 <= i_hat <= n and 1 <= j_hat <= p and 1 <= j <= p):
        raise ValueError(f"copy head index ({i_hat},{j_hat},{j}) outside {n}x{p}")
    return _layer([("copy", i_hat - 1, j_hat - 1, j - 1)], n, p, masked).heads[0]


def build_const_head(j: int, n: int, p: int, masked: bool = False):
    """The compiler's head whose output row is 1 at column j and 0
    elsewhere, for every input."""
    if not 1 <= j <= p:
        raise ValueError(f"const head column {j} outside 1..{p}")
    return _layer([("const", j - 1)], n, p, masked).heads[0]


def replace_head(head, **changes):
    """`dataclasses.replace` for a one-head layer, where `masked`,
    `scaled` and `activation` rebuild its group."""
    d, masked, scaled, activation = head.groups[0]
    group = (d, changes.pop("masked", masked), changes.pop("scaled", scaled),
             changes.pop("activation", activation))
    return replace(head, groups=(group,), **changes)


def identity_ffn(dim: int) -> FeedForwardNet:
    """x = relu(x) - relu(-x) as a one-hidden-layer net."""
    return FeedForwardNet(pass_through(Mat.identity(dim), Mat.zeros(dim, 1)))


class FnModel:
    """Adapter giving a bare function the evaluable-model surface."""

    def __init__(self, fn: Callable[[Mat], Mat], n: int, p: int):
        self._fn = fn
        self.n = n
        self.p = p

    def __call__(self, x: Mat) -> Mat:
        return self._fn(x)


# -- layout soundness ------------------------------------------------------------

def check_layout_soundness(compiled: CompiledEncoder, x: Mat) -> bool:
    """Every layout row must hold its monomial's value in its own column
    and be zero everywhere else (the off-column entries vanish)."""
    out = eval_encoder(compiled.blocks, x)
    for mon, col, row in compiled.layout.entries():
        want = monomial_eval(mon, x)
        for j in range(out.cols):
            have = out.at(row, j)
            if j == col - 1:
                if have != want:
                    return False
            elif have != 0:
                return False
    return True


# -- the Fraction oracle ----------------------------------------------------------
# `Monomial.eval`, `Polynomial.eval`, `PBForm.eval` and `SplineGrid.eval` as
# they were before the spline oracle ran on integer numerators: every step a
# `Fraction` (or a float on a float input), every variable read through
# `Mat.at`.

def monomial_eval(m, x: Mat):
    acc = Fraction(1) if x.backend == "rational" else 1.0
    for (i, j), e in m.exps:
        if i > x.rows or j > x.cols:
            raise VariableRangeError(f"variable x_{i}_{j} outside {x.rows}x{x.cols} input")
        acc = acc * x.at(i - 1, j - 1) ** e
    return acc


def polynomial_eval(p, x: Mat):
    acc = Fraction(0) if x.backend == "rational" else 0.0
    for m, c in p.terms:
        acc = acc + c * monomial_eval(m, x)
    return acc


def pbform_eval(f: PBForm, x: Mat):
    index: dict = {}
    rows = tuple(tuple(index.setdefault(p, len(index)) for p in row) for row in f.rows)
    values = [polynomial_eval(p, x) for p in index]
    return max(min(values[i] for i in row) for row in rows)


def grid_eval(g, x: Mat) -> Mat:
    return Mat.dense(x.backend, tuple(tuple(pbform_eval(f, x) for f in row) for row in g.grid))


def veronese_column(idx, x: Mat) -> Mat:
    """`veronese_eval` on the reference monomials."""
    return Mat.dense(x.backend, tuple((monomial_eval(m, x),) for m in idx.monomials))


# -- the per-head weights form -------------------------------------------------

def _head_json(h) -> dict:
    _, masked, scaled, activation = h.groups[0]
    obj = {"A_Q": mat_to_json(h.a_q), "B_Q": mat_to_json(h.b_q),
           "A_K": mat_to_json(h.a_k), "B_K": mat_to_json(h.b_k),
           "A_V": mat_to_json(h.a_v), "B_V": mat_to_json(h.b_v),
           "masked": masked, "activation": activation.kind}
    if activation.kind == "softplus":
        obj["beta"] = activation.beta
    if scaled:
        obj["scaled"] = True
    return obj


def per_head_json(blocks) -> dict:
    """The weights document of `blocks` in the per-head form that
    `blocks_from_json` also reads: one object of dense matrices per head,
    read off the `heads` view, and dense net matrices."""
    return {"blocks": [
        {"heads": [_head_json(h) for h in blk.attn.heads],
         "ffn": {"layers": [{"A": mat_to_json(a), "b": mat_to_json(b)}
                            for a, b in blk.ffn.layers]},
         "residual": blk.residual}
        for blk in blocks]}


def per_head_file(path) -> dict:
    """The per-head document of the weights file at `path`."""
    return per_head_json(blocks_from_json(json.loads(Path(path).read_text())))


# -- unabsorbed max-min forms ----------------------------------------------------

def pb_max(forms: Sequence[PBForm]) -> PBForm:
    # max of max-min forms: the operands' rows, joined
    _check_size(sum(len(f.rows) for f in forms), sum(map(_form_size, forms)))
    return PBForm(tuple(row for f in forms for row in f.rows))


def pb_min(forms: Sequence[PBForm]) -> PBForm:
    # min of max-min forms: distribute, one row drawn from each operand
    count = math.prod(len(f.rows) for f in forms)
    _check_size(count, sum(_form_size(f) * (count // len(f.rows)) for f in forms))
    rows = [()]
    for f in forms:
        rows = [acc + r for acc in rows for r in f.rows]
    return PBForm(tuple(rows))


def pb_sum(a: PBForm, b: PBForm) -> PBForm:
    # max distributes over + on the outside, min on the inside
    _check_size(len(a.rows) * len(b.rows), _form_size(a) * _form_size(b))
    return PBForm(tuple(
        tuple(p.add(q) for p in ra for q in rb)
        for ra in a.rows for rb in b.rows))


def pb_negate(f: PBForm) -> PBForm:
    """-f re-expressed as max-min (lattice distribution over row choices)."""
    count = math.prod(map(len, f.rows))
    _check_size(count, count * len(f.rows))
    choices = itertools.product(*[range(len(r)) for r in f.rows])
    return PBForm(tuple(
        tuple(f.rows[i][k].neg() for i, k in enumerate(choice))
        for choice in choices))


def unabsorbed_form(e) -> PBForm:
    """`normalize_to_pbform(e)` built with the combinators above, so that
    no row or repeated polynomial is dropped; the caps apply as there."""
    with mock.patch.multiple(spline, pb_max=pb_max, pb_min=pb_min, pb_sum=pb_sum,
                             pb_negate=pb_negate):
        return spline.normalize_to_pbform(e)


# -- the unshared max-min readout net ---------------------------------------------

def unshared_maxmin_ffn(forms: Sequence[tuple], width: int) -> FeedForwardNet:
    """`compiler._maxmin_ffn` with one unit per use: every pre-activation
    row is its own unit, equal, constant and unread ones included."""
    state = []  # per form: candidate rows, then (one row each) the row minima
    for form, coord in forms:
        rows = []
        for row in form.rows:
            pieces = []
            for poly in row:
                coefs, bias = {}, Fraction(0)
                for mon, c in poly.terms:
                    i = coord(mon)
                    if i is None:
                        bias = c
                    else:
                        coefs[i] = c
                pieces.append((coefs, bias))
            rows.append(pieces)
        state.append(rows)

    def layer(cands: Sequence[tuple], cols: int) -> tuple:
        entries = {(r, c): v for r, (coefs, _) in enumerate(cands) for c, v in coefs.items()}
        return (_sparse(len(cands), cols, entries),
                _sparse(len(cands), 1, {(r, 0): b for r, (_, b) in enumerate(cands)}))

    layers = []
    cols = width
    while any(sum(map(len, rows)) > 1 for rows in state):
        feats = []  # this level's pre-activation rows

        def feature(*signed) -> int:
            coefs, bias = {}, Fraction(0)
            for (cand, b), sign in signed:
                for c, v in cand.items():
                    coefs[c] = coefs.get(c, 0) + sign * v
                bias += sign * b
            feats.append((coefs, bias))
            return len(feats) - 1

        for f, rows in enumerate(state):
            is_min = any(len(row) > 1 for row in rows)
            sign = -1 if is_min else 1
            reduced = []
            for group in rows if is_min else [[c for row in rows for c in row]]:
                out = []
                for k in range(0, len(group), 2):
                    a, coefs = group[k], {}
                    if k + 1 < len(group):
                        coefs[feature((a, -sign), (group[k + 1], sign))] = sign
                    coefs[feature((a, 1))] = 1
                    coefs[feature((a, -1))] = -1
                    out.append((coefs, Fraction(0)))
                reduced += [out] if is_min else [[c] for c in out]
            state[f] = reduced
        layers.append(layer(feats, cols))
        cols = len(feats)
    return FeedForwardNet(tuple(layers) + (layer([rows[0][0] for rows in state], cols),))


# -- the unshared block walk -------------------------------------------------------

def unshared_walk(blocks, x: Mat, observer=None, activations: Sequence = (None,)) -> Mat:
    """`transformer._walk` with every stored query, key and value row
    computed on its own, from the image of all the stored rows, as before
    equal rows were shared, and every group's pattern formed; the observer
    gets the same record, and an exact walk refuses what the pass refuses."""
    backend, exact = x.backend, x.backend == RATIONAL
    zero = 0 if exact else 0.0
    rows, den = _numerators(x)
    for blk in blocks:
        mh = blk.attn
        if exact:
            error = mh.rational_error or next((f"{a.kind} attention needs the float backend"
                                               for a in activations if a and a.kind != "relu"),
                                              None)
            if error:
                raise BackendError(error)
        maps = [_image(a.nz, b.nz, mh.p, exact) for a, b in zip(mh.mats[::2], mh.mats[1::2])]
        q, k, v = (_affine(a, b, rows, den, zero) for a, b, _ in maps)
        width = len(rows[0])
        p = width // len(activations)
        acts = [_pattern(q, k, t, d, p, masked, root, activations, own, zero)
                for t, d, masked, root, own in mh.group_layout]
        out = []
        for u, g in zip(range(0, len(v), mh.m), mh.table):
            for vrow in v[u:u + mh.m]:
                acc = [zero] * width
                for a, c in enumerate(vrow):
                    if c:
                        for b, w in acts[g][a]:
                            acc[b] += c * w
                out.append(acc)
        dy = math.prod(d for *_, d in maps) * den ** 3
        y, dy = _feed(blk.ffn, backend, out, dy)
        if blk.residual:
            y, dy = _added(y, dy, rows, den)
        rows, den = _reduced(y, dy)
        if observer is not None:
            observer(blk, q, k, v, acts)
    return _to_mat(backend, rows, den)
