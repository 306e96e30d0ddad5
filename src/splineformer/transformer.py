"""Attention modules, feed-forward networks, and encoder/decoder stacks.

All evaluation is pure: parameter containers are frozen dataclasses and
may be shared freely across threads.  The images a pass reads of their
weights are derived on first evaluation from the matrices' nonzeros and
kept; deriving them twice gives the same value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import accumulate, chain
from typing import Sequence

from .tensor import (FLOAT, MAX_PASS_BITS, NEG_INF, RATIONAL, BackendError, FormatError, Mat,
                     ShapeError, SizeError, _softmax_column, _softplus_scalar, add, json_field,
                     mat_from_json, scale, sparse_from_json, sparse_product, sparse_to_json,
                     stack_rows)


@dataclass(frozen=True)
class Activation:
    kind: str  # "relu" | "softmax" | "softplus"
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("relu", "softmax", "softplus"):
            raise ValueError(f"unknown activation {self.kind!r}")
        # NaN fails both comparisons; an int above the float range would overflow
        if self.kind == "softplus" and (self.beta is None
                                        or not 0 < self.beta <= sys.float_info.max):
            raise ValueError(f"softplus needs a finite positive beta, got {self.beta!r}")


RELU = Activation("relu")
SOFTMAX = Activation("softmax")


def softplus(beta: float) -> Activation:
    return Activation("softplus", float(beta))


_HEAD_MATS = ("a_q", "b_q", "a_k", "b_k", "a_v", "b_v")


def _require_backend(op: str, weights: str, *inputs: str):
    found = {weights, *inputs}
    if len(found) != 1:
        raise BackendError(f"{op}: mixed backends {'/'.join(sorted(found))}")


# -- integer evaluation --------------------------------------------------------
#
# A rational forward pass runs on plain ints: every matrix is a list of
# integer numerator rows over one positive shared denominator, and every
# weight map is cached the same way over the lcm of its coefficient
# denominators.  Products multiply the denominators, ReLU is a sign test
# on the numerator, and only the output becomes `Fraction`s again.  Float
# matrices take the same loops over a denominator of 1; their sums keep
# the term order and zero skipping of `sparse_product`.

def _numerators(x: Mat) -> tuple:
    """x as numerator rows over one shared denominator, the lcm of its own;
    a float matrix is its own numerators, over 1."""
    if x.backend != RATIONAL:
        return [list(row) for row in x.data], 1
    den = math.lcm(*{v.denominator for row in x.nz for _, v in row})
    return [[v.numerator * (den // v.denominator) for v in row] for row in x.data], den


def _to_mat(backend: str, rows: list, den: int) -> Mat:
    """The matrix of numerator rows over den, one `Fraction` per nonzero entry."""
    value = (lambda v: Fraction(v, den)) if backend == RATIONAL else float
    return Mat(backend, tuple(tuple((c, value(v)) for c, v in enumerate(row) if v)
                              for row in rows), len(rows[0]))


def _reduced(rows: list, den: int) -> tuple:
    """(rows, den) with the gcd of den and every numerator divided out."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = math.gcd(g, *row)
    if g == 1:
        return rows, den
    return [[v // g for v in row] for row in rows], den // g


def _added(a: list, da: int, b: list, db: int) -> tuple:
    """a / da + b / db as numerator rows over lcm(da, db)."""
    den = math.lcm(da, db)
    fa, fb = den // da, den // db
    return [[u * fa + v * fb for u, v in zip(ra, rb)] for ra, rb in zip(a, b)], den


def _image(a_rows, b_rows, width: int, exact: bool) -> tuple:
    """The affine map A X + B, given as the nonzero rows of A and of B (B
    `width` columns wide), as a pass reads it: each A row's (col, coef)
    pairs, each B row dense (None where zero), and the denominator both
    share.  Exact: integer numerators over the lcm of the denominators.
    Otherwise float(v), correctly rounded, over 1; an entry that rounds to
    0.0 is dropped, and float weights are their own image."""
    den, num, zero = 1, float, 0.0
    if exact:
        den, zero = math.lcm(*{v.denominator for rows in (a_rows, b_rows)
                               for row in rows for _, v in row}), 0

        def num(v):
            return v.numerator * (den // v.denominator)
    # a nonzero row of rationals can round to a row of float zeros
    rows, bias = ([tuple((j, c) for j, v in row if (c := num(v))) for row in m]
                  for m in (a_rows, b_rows))
    return tuple(rows), tuple(tuple(dict(row).get(j, zero) for j in range(width)) if row else None
                              for row in bias), den


def _magnitudes(images) -> tuple:
    """Per `_image`, |coef| of its A rows: the maps that carry an entrywise
    error bound through a float pass (`verifier.softplus_error_bound`)."""
    return tuple(tuple(tuple((j, abs(c)) for j, c in row) for row in rows) for rows, _, _ in images)


def _affine(rows, bias, x: list, dx: int, zero) -> list:
    """Numerators of A X + B over den * dx, where A and B are an `_image`
    over den and x is over dx; a bias row is repeated across the columns
    of x (a one-entry row of a net on every column, a p-entry row of an
    attention map on every input of a batch), and zero bias entries are
    skipped."""
    width = len(x[0])
    out = sparse_product(rows, x, width, zero)
    for acc, b in zip(out, bias):
        if b is not None:
            for j, bj in enumerate(b if len(b) == width else b * (width // len(b))):
                if bj:
                    acc[j] += bj * dx
    return out


@dataclass(frozen=True)
class MultiheadAttention:
    """An attention layer, stored as the maps its passes read; a head is a
    layer of one head (`attention_head`).  Heads whose Q and K maps are
    equal and which agree in `masked`, `scaled` and `activation` share one
    attention pattern and form one group: its Q and K rows are stored
    once, stacked in group order in `a_q`, `b_q`, `a_k` and `b_k`, and
    `groups` holds its (d, masked, scaled, activation).  Every head keeps
    its own m value rows, stacked in head order in `a_v` and `b_v`, and
    `table` holds its group.  All six maps share one backend: a layer
    whose maps mix backends is stored as its float image.

    The constructor takes the fields as they are, checked against each
    other: the heads must name every group, in order of first use.
    `MultiheadAttention.of(heads)` groups one-head layers, in the order of
    each group's first head, so equal heads give equal fields.  (Two
    stored groups can still be equal: a float image rounds distinct
    rationals alike.)  `heads` is the per-head view, built on read."""

    a_q: Mat
    b_q: Mat
    a_k: Mat
    b_k: Mat
    a_v: Mat
    b_v: Mat
    table: tuple
    groups: tuple

    @classmethod
    def of(cls, heads: Sequence[MultiheadAttention]) -> MultiheadAttention:
        """The layer of one-head layers, each group where its first head is."""
        if not heads:
            raise ValueError("multihead attention needs at least one head")
        if any(len(h.table) != 1 for h in heads):
            raise ValueError("a layer is built of one-head layers")
        h0 = heads[0]
        for h in heads[1:]:
            if (h.n, h.n_q, h.p, h.m) != (h0.n, h0.n_q, h0.p, h0.m):
                raise ShapeError("heads must share input shape and output rows")
        if len({h.backend for h in heads}) > 1:
            heads = [h.to_float() for h in heads]
        index, firsts, table = {}, [], []
        for h in heads:
            # (col, coef) rows hash cheaply, and equal rows are equal maps
            key = (h.a_q.nz, h.b_q.nz, h.a_k.nz, h.b_k.nz, h.groups[0])
            if key not in index:
                index[key] = len(firsts)
                firsts.append(h)
            table.append(index[key])
        return cls(*(stack_rows([getattr(h, name) for h in firsts]) for name in _HEAD_MATS[:4]),
                   *(stack_rows([getattr(h, name) for h in heads]) for name in _HEAD_MATS[4:]),
                   table, [h.groups[0] for h in firsts])

    def __post_init__(self):
        if len({m.backend for m in self.mats}) > 1:
            for name in _HEAD_MATS:
                object.__setattr__(self, name, getattr(self, name).to_float())
        table, groups = tuple(self.table), tuple(self.groups)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "groups", groups)
        a_q, b_q, a_k, b_k, a_v, b_v = self.mats
        if not table:
            raise ValueError("multihead attention needs at least one head")
        if not all(type(g) is int and 0 <= g < len(groups) for g in table):
            raise FormatError(f"a head's group is not an index below {len(groups)}")
        if list(dict.fromkeys(table)) != list(range(len(groups))):
            raise FormatError("the heads must name every group, in order of first use")
        if not all(type(d) is int and d >= 1 for d, *_ in groups):
            raise ShapeError("every group needs a head dimension d of at least 1")
        d = sum(d for d, *_ in groups)
        if not a_q.rows == b_q.rows == a_k.rows == b_k.rows == d:
            raise ShapeError(f"query/key maps must have the {d} rows of their groups")
        if a_v.rows != b_v.rows or a_v.rows % len(table):
            raise ShapeError(f"value maps of {a_v.rows}/{b_v.rows} rows do not split "
                             f"across {len(table)} heads")
        if not b_q.cols == b_k.cols == b_v.cols:
            raise ShapeError("bias matrices must share the sequence length p")
        if a_k.cols != a_v.cols:
            raise ShapeError("key and value maps must read the same input rows")

    @property
    def mats(self) -> tuple:
        """The six stored maps, in `_HEAD_MATS` order."""
        return self.a_q, self.b_q, self.a_k, self.b_k, self.a_v, self.b_v

    @property
    def backend(self) -> str:
        return self.a_q.backend

    @cached_property
    def group_layout(self) -> tuple:
        """Per group, the constants a pass reads: the row t where its Q and
        K rows start, d, masked, its score scale (1/sqrt(d), or None when
        unscaled) and its activation."""
        starts = accumulate((d for d, *_ in self.groups), initial=0)
        return tuple((t, d, masked, 1.0 / math.sqrt(d) if scaled else None, activation)
                     for t, (d, masked, scaled, activation) in zip(starts, self.groups))

    @cached_property
    def plan(self) -> AttentionPlan:
        """The plan of a pass over every value row, which observed passes,
        `eval_multihead` and `eval_multihead_encdec` run; built on first use
        and kept.  Not a dataclass field, so equality compares the stored
        maps only."""
        return AttentionPlan(self, range(self.out_rows))

    @cached_property
    def heads(self) -> tuple:
        """One one-head layer per head, in head order, cut from the stored
        rows; built on the first read and kept.  No pass reads it."""
        def cut(mat: Mat, lo: int, hi: int) -> Mat:
            return Mat(mat.backend, mat.nz[lo:hi], mat.cols)

        m, layout = self.m, self.group_layout
        return tuple(MultiheadAttention(*(cut(a, t, t + d) for a in self.mats[:4]),
                                        *(cut(a, u, u + m) for a in self.mats[4:]),
                                        (0,), (self.groups[g],))
                     for u, g in zip(range(0, self.out_rows, m), self.table)
                     for t, d, *_ in (layout[g],))

    def to_float(self) -> MultiheadAttention:
        """The layer of the float image of its maps."""
        return replace(self, **{name: getattr(self, name).to_float() for name in _HEAD_MATS})

    @cached_property
    def rational_error(self) -> str | None:
        """Why the layer cannot run on rationals, or None: only unscaled
        ReLU heads can (SoftMax, SoftPlus and 1/sqrt(d) are irrational)."""
        for *_, activation in self.groups:
            if activation.kind != "relu":
                return f"{activation.kind} attention needs the float backend"
        if any(scaled for _, _, scaled, _ in self.groups):
            return "score scaling needs the float backend (1/sqrt(d) is irrational)"
        return None

    @property
    def masked(self) -> bool:
        """Whether every head is masked."""
        return all(masked for _, masked, _, _ in self.groups)

    @property
    def n(self) -> int:
        return self.a_k.cols

    @property
    def n_q(self) -> int:
        return self.a_q.cols

    @property
    def p(self) -> int:
        return self.b_q.cols

    @property
    def m(self) -> int:
        """Value rows per head."""
        return self.a_v.rows // len(self.table)

    @property
    def out_rows(self) -> int:
        return self.a_v.rows


def attention_head(a_q: Mat, b_q: Mat, a_k: Mat, b_k: Mat, a_v: Mat, b_v: Mat,
                   activation: Activation = RELU, masked: bool = False,
                   scaled: bool = False) -> MultiheadAttention:
    """The layer of one head with affine query/key/value maps, computing
    V(X) . act(K(X)^T Q(Y)) with Y = X for self-attention; `scaled` turns
    on the optional 1/sqrt(d) score scaling."""
    return MultiheadAttention(a_q, b_q, a_k, b_k, a_v, b_v, (0,),
                              ((a_q.rows, masked, scaled, activation),))


def _pattern(q: list, k: list, t: int, d: int, p: int, masked: bool, root,
             stand_ins: Sequence, own: Activation, zero) -> list:
    """The activation rows ((col, value) pairs of the nonzero entries) of
    the attention pattern read from q and k rows t to t + d, for a batch of
    inputs side by side, p columns each.

    Per input, in columns o to o + p, only its p x p score block K^T Q is
    formed, as plain lists; then, in the same loop nest, the optional
    1/sqrt(d) scale (`root`), the mask and the activation: the input's
    entry of `stand_ins`, or `own` where that is None.  ReLU keeps the
    positive entries (on rationals a sign test on the numerator) and
    SoftPlus maps entry by entry; both skip masked entries, which come out
    as 0.  SoftMax masks entries to -inf and acts column by column, through
    `tensor._softmax_column`.  Rows o to o + p of the result are the
    input's own, with entries in its columns only, so the pattern of a
    batch is block-diagonal.  Every float pass, every observed pass and
    every group of d > 1 computes its activation here; an exact pass that
    keeps no record takes each one-row group in factored form instead
    (`_factored`).
    """
    act, o = [], 0
    for activation in stand_ins:
        activation = activation or own
        kind, beta, end = activation.kind, activation.beta, o + p
        for a in range(o, end):
            lo = a if masked else o  # masked entries are never formed
            srow = [zero] * p
            for r in range(t, t + d):
                c = k[r][a]
                if c:
                    for b, w in enumerate(q[r][lo:end], lo - o):
                        if w:
                            srow[b] += c * w
            if root is not None:
                srow = [root * w for w in srow]
            if kind == "relu":
                act.append([(b, w) for b, w in enumerate(srow, o) if w > 0])
            elif kind == "softplus":
                act.append([(b, w) for b, s in enumerate(srow[lo - o:], lo)
                            if (w := _softplus_scalar(s, beta))])
            else:
                srow[:lo - o] = [NEG_INF] * (lo - o)
                act.append(srow)
        if kind == "softmax":
            cols = [_softmax_column([row[b] for row in act[o:]], b) for b in range(p)]
            act[o:] = [[(o + b, e) for b, col in enumerate(cols) if (e := col[a])]
                       for a in range(p)]
        o = end
    return act


def _factored(q: list, k: list, v: list, p: int, masked: bool) -> list:
    """One value row's output numerators through the pattern of a one-row
    ReLU group, from its integer q, k and v rows, for a batch of inputs
    side by side, p columns each, with no score block.  With d = 1,
    relu(k_a q_b) is q_b relu(k_a) where q_b > 0 and q_b (-relu(-k_a))
    where q_b < 0, so the output at column b is q_b times the sum of
    v_a k_a over the keys a the column reads whose k_a has the sign of
    q_b, and 0 where q_b is 0.  A column reads the keys of its own input,
    only those at a <= b when masked, whose sums run as prefix sums.  The
    terms are the integer products the pattern's entries would add,
    grouped by key sign, so the sums are equal."""
    acc = [0] * len(q)
    for o in range(0, len(q), p):
        cols = range(o, o + p)
        pos = neg = 0
        for b in cols:
            if c := k[b]:
                if c > 0:
                    pos += v[b] * c
                else:
                    neg += v[b] * c
            if masked and (w := q[b]):
                acc[b] = w * (pos if w > 0 else neg)
        if not masked:
            for b in cols:
                if w := q[b]:
                    acc[b] = w * (pos if w > 0 else neg)
    return acc


def _handed(rows: list, index) -> list:
    """The rows a pass computed for a map's distinct pairs, one per row of
    its plan: as computed where `index` (an entry of `AttentionPlan.index`)
    is None, else each row's pair's list, by reference."""
    return rows if index is None else [rows[i] for i in index]


class AttentionPlan:
    """A pass over the value rows `rows` of an attention layer: every row
    (`MultiheadAttention.plan`) or those a block's net reads
    (`EncoderBlock.plan`).  `groups` are the groups they use, laid out in
    `group_layout` as the layer's, and `row_groups` gives each row's place
    among them.  For Q, K and V in turn (the Q and K rows of `groups`, then
    `rows`), `pairs` are the distinct (A row, bias row) pairs in order of
    first use, and `index` each row's position among them, or None where
    none repeats.  The images `stacked`, `floats` and `magnitudes` are of
    the pairs only, over the lcm of their denominators; each is built on
    first use and kept."""

    def __init__(self, attn: MultiheadAttention, rows: Sequence[int]):
        # what a pass reads of the layer, copied, so that a layer and the
        # plan it keeps form no reference cycle and are freed by refcount
        self.p, self.out_rows, self.rational_error = attn.p, attn.out_rows, attn.rational_error
        self.exact, self.rows, m = attn.backend == RATIONAL, tuple(rows), attn.m
        self.groups = tuple(sorted({attn.table[r // m] for r in self.rows}))
        layout, qk = [], []
        for g in self.groups:
            t, d, *flags = attn.group_layout[g]
            layout.append((len(qk), d, *flags))
            qk.extend(range(t, t + d))
        self.group_layout = tuple(layout)
        place = {g: i for i, g in enumerate(self.groups)}
        self.row_groups = tuple(place[attn.table[r // m]] for r in self.rows)
        pairs, index = [], []
        for a, b, stored in zip(attn.mats[::2], attn.mats[1::2], (qk, qk, self.rows)):
            seen = {}
            at = [seen.setdefault((a.nz[r], b.nz[r]), len(seen)) for r in stored]
            pairs.append(tuple(seen))
            index.append(None if len(seen) == len(at) else tuple(at))
        self.pairs, self.index = tuple(pairs), tuple(index)

    def _images(self, exact: bool) -> tuple:
        return tuple(_image([a for a, _ in pairs], [b for _, b in pairs], self.p, exact)
                     for pairs in self.pairs)

    @cached_property
    def stacked(self) -> tuple:
        """The maps an exact pass reads, integer over the lcm of each map's
        denominators; float weights give their float image."""
        return self._images(self.exact)

    @cached_property
    def floats(self) -> tuple:
        """The maps a float pass reads, float(v) of the weights over 1, so
        every float pass (and every softplus beta) reuses them."""
        return self._images(False) if self.exact else self.stacked

    @cached_property
    def magnitudes(self) -> tuple:
        """`_magnitudes` of `floats`."""
        return _magnitudes(self.floats)


def _attend(plan: AttentionPlan, backend: str, x: list, dx: int, y: list, dy: int,
            activations: Sequence = (None,), record: bool = True) -> tuple:
    """The heads of a layer at once, on numerator rows, as `plan` says: keys
    and values read x (over dx), queries y (over dy), through the image
    `backend` picks: the plan's `stacked` on rationals, else its `floats`.
    The caller refuses a rational pass over float weights.  x and y hold a
    batch of len(activations) inputs side by side, each its p columns; input
    i runs with activations[i] standing in for every head's own activation,
    or with each head's own where that is None.  Returns the output
    numerators, stacked in head order and batched as the input, their shared
    denominator, and, when `record` asks for it (else None), the pass's
    record: the plan's q, k and v rows, as wide as the batch, and, in the
    plan's group order, each group's block-diagonal activation rows
    (`_pattern`).

    Only the plan's rows are computed: the query and key rows and patterns
    of its groups and its value rows.  When it covers fewer than all the
    layer's value rows, every other output row is one shared zero row,
    which the block's net never reads.

    Q, K and V of all heads and inputs come from one sparse product each,
    over the plan's distinct pairs only: every row of a pair is handed the
    list computed for the pair, by reference.  Rows a pass computes are
    never mutated after `_affine` returns them, by this pass, the observer
    or the caller, so sharing them is exact.  Each group of heads forms
    its attention pattern once per pass (at the group's row offset); each
    head's value rows then multiply the nonzero activations of its group.
    An exact pass with no record forms no pattern for a one-row group: its
    value rows go through the group's factored form (`_factored`), which
    adds the same integer products.
    """
    exact = backend == RATIONAL
    if exact:
        error = plan.rational_error or next((f"{a.kind} attention needs the float backend"
                                             for a in activations if a and a.kind != "relu"), None)
        if error:
            raise BackendError(error)
    zero = 0 if exact else 0.0
    width = len(x[0])
    p = width // len(activations)
    (aq, bq, dq), (ak, bk, dk), (av, bv, dv) = plan.stacked if exact else plan.floats
    iq, ik, iv = plan.index
    q = _handed(_affine(aq, bq, y, dy, zero), iq)
    k = _handed(_affine(ak, bk, x, dx, zero), ik)
    v = _handed(_affine(av, bv, x, dx, zero), iv)
    factored = exact and not record
    acts = [None if factored and d == 1 else
            _pattern(q, k, t, d, p, masked, root, activations, own, zero)
            for t, d, masked, root, own in plan.group_layout]
    out = []
    for vrow, g in zip(v, plan.row_groups):
        act = acts[g]
        if act is None:
            t, _, masked, _, _ = plan.group_layout[g]
            out.append(_factored(q[t], k[t], vrow, p, masked))
            continue
        acc = [zero] * width
        for a, c in enumerate(vrow):
            if c:
                for b, w in act[a]:
                    acc[b] += c * w
        out.append(acc)
    if len(out) < plan.out_rows:
        computed, out = out, [[zero] * width] * plan.out_rows
        for r, acc in zip(plan.rows, computed):
            out[r] = acc
    return out, dq * dy * dk * dx * dv * dx, (q, k, v, acts) if record else None


def _check_self_input(mh: MultiheadAttention, shape: tuple):
    if shape != (mh.n, mh.p):
        raise ShapeError(f"attention input {shape}, head expects {(mh.n, mh.p)}")
    if mh.n_q != mh.n:
        raise ShapeError("head has distinct query input size; use eval_multihead_encdec")


def eval_multihead(mh: MultiheadAttention, x: Mat) -> Mat:
    """Self-attention on an n x p input; masking happens before the activation."""
    _check_self_input(mh, x.shape)
    _require_backend("attention", mh.backend, x.backend)
    rows, den = _numerators(x)
    return _to_mat(x.backend, *_attend(mh.plan, x.backend, rows, den, rows, den,
                                       record=False)[:2])


def eval_multihead_encdec(mh: MultiheadAttention, x: Mat, y: Mat) -> Mat:
    """Cross-attention: keys and values from x, queries from y."""
    if x.rows != mh.n or y.rows != mh.n_q:
        raise ShapeError(f"cross-attention inputs {x.shape}/{y.shape}, "
                         f"head expects rows {mh.n}/{mh.n_q}")
    if x.cols != mh.p or y.cols != mh.p:
        raise ShapeError("cross-attention inputs must share the sequence length")
    _require_backend("attention", mh.backend, x.backend, y.backend)
    return _to_mat(x.backend, *_attend(mh.plan, x.backend, *_numerators(x), *_numerators(y),
                                       record=False)[:2])


@dataclass(frozen=True)
class FeedForwardNet:
    """Chain of affine layers (A, column-vector b) with ReLU in between;
    the final layer is affine with no activation.  Applied columnwise.  A
    net whose matrices mix backends is stored as its float image."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("feed-forward net needs at least one layer")
        if len({m.backend for layer in self.layers for m in layer}) > 1:
            object.__setattr__(self, "layers", tuple((a.to_float(), b.to_float())
                                                     for a, b in self.layers))
        for a, b in self.layers:
            if b.rows != a.rows or b.cols != 1:
                raise ShapeError(f"bias {b.shape} does not fit layer of {a.rows} rows")
        for (a1, _), (a2, _) in zip(self.layers, self.layers[1:]):
            if a2.cols != a1.rows:
                raise ShapeError(f"layer chain mismatch: {a1.shape} then {a2.shape}")

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].cols

    @property
    def out_dim(self) -> int:
        return self.layers[-1][0].rows

    @property
    def hidden_layers(self) -> int:
        return len(self.layers) - 1

    @property
    def depth(self) -> int:
        """Number of affine layers."""
        return len(self.layers)

    @property
    def backend(self) -> str:
        return self.layers[0][0].backend

    @cached_property
    def sparse(self) -> tuple:
        """Per layer, the `_image` of its affine map, exact unless the
        weights are floats; built on the first evaluation and kept."""
        return self._layers(self.backend == RATIONAL)

    @cached_property
    def floats(self) -> tuple:
        """`sparse` in floats, over 1, as `AttentionPlan.floats`."""
        return self.sparse if self.backend == FLOAT else self._layers(False)

    @cached_property
    def magnitudes(self) -> tuple:
        """`_magnitudes` of `floats`; built on first use and kept."""
        return _magnitudes(self.floats)

    def _layers(self, exact: bool) -> tuple:
        return tuple(_image(a.nz, b.nz, b.cols, exact) for a, b in self.layers)


def _feed(ffn: FeedForwardNet, backend: str, x: list, dx: int) -> tuple:
    """A net on numerator rows over dx, through the image `backend` picks
    (`sparse` on rationals, else `floats`): output numerators and
    denominator.  The caller refuses a rational pass over float weights."""
    zero, layers = (0, ffn.sparse) if backend == RATIONAL else (0.0, ffn.floats)
    last = len(layers) - 1
    for idx, (rows, bias, den) in enumerate(layers):
        out = _affine(rows, bias, x, dx, zero)
        x = out if idx == last else [[w if w > 0 else zero for w in acc] for acc in out]
        dx *= den
    return x, dx


def eval_ffn(ffn: FeedForwardNet, x: Mat) -> Mat:
    if x.rows != ffn.in_dim:
        raise ShapeError(f"ffn expects {ffn.in_dim} input rows, got {x.rows}")
    _require_backend("ffn", ffn.backend, x.backend)
    return _to_mat(x.backend, *_feed(ffn, x.backend, *_numerators(x)))


@dataclass(frozen=True)
class EncoderBlock:
    attn: MultiheadAttention
    ffn: FeedForwardNet
    residual: bool = False

    def __post_init__(self):
        if self.ffn.in_dim != self.attn.out_rows:
            raise ShapeError(f"ffn reads {self.ffn.in_dim} rows but attention emits "
                             f"{self.attn.out_rows}")
        if self.residual and self.ffn.out_dim != self.attn.n:
            raise ShapeError("residual connection needs output shape = input shape")

    @property
    def masked(self) -> bool:
        return self.attn.masked

    @cached_property
    def plan(self) -> AttentionPlan:
        """The plan of the attention rows the net reads: the value rows in
        whose columns its first layer stores a nonzero (its float image
        only drops entries, so it reads no other row).  The layer's own
        plan when the net reads every row.  Built on first read and kept."""
        read = {j for row in self.ffn.layers[0][0].nz for j, _ in row}
        if len(read) == self.attn.out_rows:
            return self.attn.plan
        return AttentionPlan(self.attn, sorted(read))


@dataclass(frozen=True)
class DecoderBlock(EncoderBlock):
    def __post_init__(self):
        super().__post_init__()
        if not self.masked:
            raise ValueError("decoder blocks require every head to be masked")


class PassSizeError(SizeError, ArithmeticError):
    """An exact pass carries a number longer than `MAX_PASS_BITS` bits."""


def _carry(blocks: Sequence[EncoderBlock], x: Mat, observer=None,
           activations: Sequence = (None,)) -> tuple:
    """The block walk behind every encoder pass, on a batch: x holds
    len(activations) inputs of one shape side by side, n x p each, and
    input i runs with activations[i] standing in for every head's own
    activation (None keeps each head's own).  It returns what it carries
    out of the last block: the inputs' outputs side by side in the same
    order, as numerator rows over one shared denominator (1 in floats); a
    batch of one is a plain pass.
    The input is scaled to numerators once and carried through every
    block; each block's output is reduced by the gcd of its denominator
    and numerators, and an exact pass raises `PassSizeError` where that
    denominator or a numerator takes more than `MAX_PASS_BITS` bits.
    With no observer, each block runs the plan of the attention rows its
    net reads (`EncoderBlock.plan`), which leaves the carried rows and
    denominator as they are: `_reduced` leaves the lcm of the entries'
    reduced denominators, whatever the images sat over.  Nor does it ask
    `_attend` for a record, so an exact pass takes its one-row groups in
    factored form, which adds the same integers.

    A rational input runs the exact pass, which first refuses weights that
    are not rational (BackendError); a float input runs over any weights.
    Each kernel reads the image its backend picks (`_attend`, `_feed`), so
    rational weights run in floats with no float copy.  An `observer` is
    called once per block and pass, after its net and residual, as
    `observer(blk, q, k, v, acts)`: the record `_attend` returns, whose q, k
    and v hold one row per stored row and span the batch, and whose
    activation rows are block-diagonal, input i in rows and columns i * p to
    i * p + p.  The observer reads the record and never mutates it.
    """
    backend, batch = x.backend, len(activations)
    if backend == RATIONAL:
        _check_backends(blocks, RATIONAL)
    rows, den = _numerators(x)
    for i, blk in enumerate(blocks):
        try:
            _check_self_input(blk.attn, (len(rows), len(rows[0]) // batch))
        except ShapeError as exc:
            raise ShapeError(f"block {i}: {exc}") from exc
        # an observer's record holds every row
        plan = blk.plan if observer is None else blk.attn.plan
        y, dy, record = _attend(plan, backend, rows, den, rows, den, activations,
                                observer is not None)
        y, dy = _feed(blk.ffn, backend, y, dy)
        if blk.residual:
            y, dy = _added(y, dy, rows, den)
        rows, den = _reduced(y, dy)
        if backend == RATIONAL:
            # one scan; a shift is nonzero exactly when the bit length passes the cap
            top = max(map(abs, chain((den,), *rows)))
            if top >> MAX_PASS_BITS:
                raise PassSizeError(f"block {i}: the exact pass carries a number of "
                                    f"{top.bit_length()} bits, above the cap of "
                                    f"{MAX_PASS_BITS} bits")
        if observer is not None:
            observer(blk, *record)
    return rows, den


def _walk(blocks: Sequence[EncoderBlock], x: Mat, observer=None,
          activations: Sequence = (None,)) -> Mat:
    """`_carry` as a matrix of x's backend: the inputs' outputs side by side."""
    return _to_mat(x.backend, *_carry(blocks, x, observer, activations))


def _check_backends(blocks: Sequence[EncoderBlock], backend: str):
    """Raise BackendError unless every weight matrix of blocks has `backend`."""
    for blk in blocks:
        _require_backend("attention", blk.attn.backend, backend)
        _require_backend("ffn", blk.ffn.backend, backend)


def eval_encoder(blocks: Sequence[EncoderBlock], x: Mat) -> Mat:
    """Compose blocks left to right; an empty list is the identity.  Every
    weight matrix must share the input's backend: the walk refuses other
    weights on a rational input, and this a float input on other weights."""
    if x.backend != RATIONAL:
        _check_backends(blocks, x.backend)
    return _walk(blocks, x)


@dataclass(frozen=True)
class EncDecStage:
    """One decoder-side stage: masked self-attention, cross-attention
    reading the encoder output, then a feed-forward net."""

    self_attn: MultiheadAttention
    cross_attn: MultiheadAttention
    ffn: FeedForwardNet
    residual: bool = False

    def __post_init__(self):
        if not self.self_attn.masked:
            raise ValueError("stage self-attention must be masked")


@dataclass(frozen=True)
class EncDecStack:
    encoder: tuple  # EncoderBlock chain
    stages: tuple   # EncDecStage chain


def eval_encdec(stack: EncDecStack, x: Mat, y: Mat) -> Mat:
    """Recursive evaluation: stage i maps t to ffn(cross(enc(x), self(t))),
    starting from t = y; the encoder output is computed once and reused."""
    memo = eval_encoder(stack.encoder, x)
    t = y
    for i, stage in enumerate(stack.stages):
        try:
            s = eval_multihead(stage.self_attn, t)
            c = eval_multihead_encdec(stage.cross_attn, memo, s)
            out = eval_ffn(stage.ffn, c)
            t = add(out, t) if stage.residual else out
        except ShapeError as exc:
            raise ShapeError(f"stage {i}: {exc}") from exc
    return t


# -- convenience models ------------------------------------------------------

class EncoderModel:
    """A block chain as a model of inferred input shape.  A rational input
    runs the exact pass (`_walk`, which refuses weights of another
    backend); any other input, or a model whose `activation` stands in for
    every attention activation (the nets stay ReLU), runs one float pass
    over the float image of `blocks`."""

    def __init__(self, blocks: Sequence[EncoderBlock], activation: Activation | None = None):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = tuple(blocks)
        self.activation = activation
        attn = self.blocks[0].attn
        self.n = attn.n
        self.p = attn.p

    def __call__(self, x: Mat) -> Mat:
        exact = x.backend == RATIONAL and self.activation is None
        return _walk(self.blocks, x if exact else x.to_float(), activations=(self.activation,))


def pass_through(a: Mat, b: Mat) -> tuple:
    """Two net layers computing u = a x + b as relu(u) - relu(-u)."""
    one, d = Fraction(1), a.rows
    return ((stack_rows([a, scale(a, -one)]), stack_rows([b, scale(b, -one)])),
            (Mat(RATIONAL, tuple(((i, one), (d + i, -one)) for i in range(d)), 2 * d),
             Mat.zeros(d, 1)))


def blocks_to_float(blocks: Sequence[EncoderBlock]) -> tuple:
    return tuple(EncoderBlock(
        blk.attn.to_float(),
        FeedForwardNet(tuple((a.to_float(), b.to_float()) for a, b in blk.ffn.layers)),
        blk.residual) for blk in blocks)


# -- JSON wire format ----------------------------------------------------------
#
# A block is written in its layer form: "attn" holds the stored maps of
# its attention layer as sparse matrices (`tensor.sparse_to_json`), its
# "groups" (d and the flags of each) and, per head, its group ("heads");
# the net's matrices are sparse too.  The reader also takes the per-head
# form, a "heads" list of one object per head, and any matrix spelled as
# a dense list of rows (`tensor.mat_to_json`).

_MAP_KEYS = ("A_Q", "B_Q", "A_K", "B_K", "A_V", "B_V")


def _group_to_json(d: int, masked: bool, scaled: bool, activation: Activation) -> dict:
    obj = {"d": d, "masked": masked, "activation": activation.kind}
    if activation.kind == "softplus":
        obj["beta"] = activation.beta
    if scaled:
        obj["scaled"] = True
    return obj


def _flag(obj, key: str, where: str) -> bool:
    """obj[key], which must be a JSON boolean; absent means false."""
    return key in obj and json_field(obj, key, bool, where)


def _flags_from_json(obj, what: str) -> tuple:
    """(masked, scaled, activation) of a head or group object."""
    where = f"a {what}"
    kind = json_field(obj, "activation", str, where) if "activation" in obj else "relu"
    beta = json_field(obj, "beta", (int, float), f"a softplus {what}") if kind == "softplus" else None
    activation = Activation(kind, beta)
    return _flag(obj, "masked", where), _flag(obj, "scaled", where), activation


def _mat_field(obj, key: str, where: str) -> Mat:
    """obj[key], a sparse matrix object or a list of dense rows."""
    value = obj.get(key) if isinstance(obj, dict) else None
    if isinstance(value, dict):
        return sparse_from_json(value)
    return mat_from_json(json_field(obj, key, list, where))


def _head_from_json(obj) -> MultiheadAttention:
    mats = [_mat_field(obj, key, "a head") for key in _MAP_KEYS]
    masked, scaled, activation = _flags_from_json(obj, "head")
    return attention_head(*mats, activation=activation, masked=masked, scaled=scaled)


def _attn_from_json(obj) -> MultiheadAttention:
    groups = [(json_field(g, "d", int, "a group"), *_flags_from_json(g, "group"))
              for g in json_field(obj, "groups", list, "an attention layer")]
    return MultiheadAttention(
        *(_mat_field(obj, key, "an attention layer") for key in _MAP_KEYS),
        json_field(obj, "heads", list, "an attention layer"), groups)


def blocks_to_json(blocks: Sequence[EncoderBlock]):
    return {"blocks": [
        {"attn": {"groups": [_group_to_json(*group) for group in blk.attn.groups],
                  "heads": list(blk.attn.table),
                  **{key: sparse_to_json(m) for key, m in zip(_MAP_KEYS, blk.attn.mats)}},
         "ffn": {"layers": [{"A": sparse_to_json(a), "b": sparse_to_json(b)}
                            for a, b in blk.ffn.layers]},
         "residual": blk.residual}
        for blk in blocks]}


def blocks_from_json(obj) -> tuple:
    """Inverse of `blocks_to_json`, which also reads the per-head form; a
    document of any other shape raises a ValueError."""
    out = []
    for b in json_field(obj, "blocks", list, "a weights document"):
        if isinstance(b, dict) and "attn" in b:
            attn = _attn_from_json(json_field(b, "attn", dict, "a block"))
        else:
            attn = MultiheadAttention.of([
                _head_from_json(h) for h in json_field(b, "heads", list, "a block")])
        layers = json_field(json_field(b, "ffn", dict, "a block"), "layers", list, "an ffn")
        ffn = FeedForwardNet(tuple((_mat_field(l, "A", "a layer"), _mat_field(l, "b", "a layer"))
                                   for l in layers))
        out.append(EncoderBlock(attn, ffn, _flag(b, "residual", "a block")))
    return tuple(out)
