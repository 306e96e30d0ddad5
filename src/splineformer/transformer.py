"""Attention modules, feed-forward networks, and encoder/decoder stacks.

All evaluation is pure: parameter containers are frozen dataclasses and
may be shared freely across threads.  The sparse forms of their weights
are derived on first evaluation and kept; deriving them twice gives the
same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .tensor import (FLOAT, RATIONAL, BackendError, Mat, ShapeError, add,
                     apply_mask, mat_from_json, mat_to_json, nonzero_rows,
                     relu, scale, softmax_columns, softplus_beta,
                     sparse_product, stack_rows)


@dataclass(frozen=True)
class Activation:
    kind: str  # "relu" | "softmax" | "softplus"
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("relu", "softmax", "softplus"):
            raise ValueError(f"unknown activation {self.kind!r}")
        if self.kind == "softplus" and (self.beta is None or self.beta <= 0):
            raise ValueError("softplus needs a positive beta")


RELU = Activation("relu")
SOFTMAX = Activation("softmax")


def softplus(beta: float) -> Activation:
    return Activation("softplus", float(beta))


@dataclass(frozen=True)
class AttentionHead:
    """Affine query/key/value maps: the head computes
    V(X) . act(K(X)^T Q(Y)) with Y = X for self-attention."""

    a_q: Mat
    b_q: Mat
    a_k: Mat
    b_k: Mat
    a_v: Mat
    b_v: Mat
    activation: Activation = RELU
    masked: bool = False
    scaled: bool = False  # optional 1/sqrt(d) score scaling, off by default

    def __post_init__(self):
        d = self.a_q.rows
        if self.a_k.rows != d or self.b_q.rows != d or self.b_k.rows != d:
            raise ShapeError("query/key maps must share the head dimension d")
        p = self.b_q.cols
        if self.b_k.cols != p or self.b_v.cols != p:
            raise ShapeError("bias matrices must share the sequence length p")
        if self.a_v.rows != self.b_v.rows:
            raise ShapeError("value map rows inconsistent")
        if self.a_k.cols != self.a_v.cols:
            raise ShapeError("key and value maps must read the same input rows")

    @property
    def d(self) -> int:
        return self.a_q.rows

    @property
    def n(self) -> int:
        return self.a_k.cols

    @property
    def n_q(self) -> int:
        return self.a_q.cols

    @property
    def m(self) -> int:
        return self.a_v.rows

    @property
    def p(self) -> int:
        return self.b_q.cols


def _activate(activation: Activation, scores):
    if activation.kind == "relu":
        return relu(scores)
    if activation.kind == "softmax":
        return softmax_columns(scores)
    return softplus_beta(scores, activation.beta)


def _shape_scores(head: AttentionHead, s: Mat):
    """Optional 1/sqrt(d) scaling, then the mask; both precede the activation."""
    if head.scaled:
        if s.backend != FLOAT:
            raise BackendError("score scaling needs the float backend (1/sqrt(d) is irrational)")
        s = scale(s, 1.0 / math.sqrt(head.d))
    if head.masked:
        s = apply_mask(s)
    return s


def _backends(mats) -> frozenset:
    return frozenset(m.backend for m in mats)


def _require_backend(op: str, weights: frozenset, *inputs: Mat):
    found = weights | {m.backend for m in inputs}
    if len(found) != 1:
        raise BackendError(f"{op}: mixed backends {'/'.join(sorted(found))}")


def _affine_rows(rows, bias, xdata, p: int, zero) -> list:
    """Stacked A X + B as row lists; zero bias entries are skipped."""
    out = sparse_product(rows, xdata, p, zero)
    for acc, b in zip(out, bias):
        if b is not None:
            for j, bj in enumerate(b):
                if bj:
                    acc[j] = acc[j] + bj
    return out


@dataclass(frozen=True)
class MultiheadAttention:
    heads: tuple

    def __post_init__(self):
        if not self.heads:
            raise ValueError("multihead attention needs at least one head")
        h0 = self.heads[0]
        for h in self.heads[1:]:
            if (h.n, h.n_q, h.p, h.m) != (h0.n, h0.n_q, h0.p, h0.m):
                raise ShapeError("heads must share input shape and output rows")

    @cached_property
    def stacked(self) -> tuple:
        """For Q, K and V in turn: the A rows of every head, stacked, as
        nonzero (col, coef) pairs, and the B rows, None where zero.  Built
        on the first evaluation and kept; not a dataclass field, so
        equality still compares `heads` only."""
        return tuple(
            (nonzero_rows(row for h in self.heads for row in getattr(h, a).data),
             tuple(row if any(row) else None
                   for h in self.heads for row in getattr(h, b).data))
            for a, b in (("a_q", "b_q"), ("a_k", "b_k"), ("a_v", "b_v")))

    @cached_property
    def backends(self) -> frozenset:
        return _backends(getattr(h, name) for h in self.heads
                         for name in ("a_q", "b_q", "a_k", "b_k", "a_v", "b_v"))

    @property
    def n(self) -> int:
        return self.heads[0].n

    @property
    def n_q(self) -> int:
        return self.heads[0].n_q

    @property
    def p(self) -> int:
        return self.heads[0].p

    @property
    def out_rows(self) -> int:
        return sum(h.m for h in self.heads)


def _attend(mh: MultiheadAttention, x: Mat, y: Mat) -> Mat:
    """Every head of the layer at once: keys and values read x, queries y.

    Q, K and V of all heads come from one sparse product each; per head
    only the p x p score block K_h^T Q_h is formed, masked and activated,
    and multiplied by the head's value rows.  Outputs stack in head order.
    """
    backend = x.backend
    if backend == RATIONAL:
        for h in mh.heads:
            if h.activation.kind != "relu":
                raise BackendError(f"{h.activation.kind} attention needs the float backend")
    _require_backend("attention", mh.backends, x, y)
    zero = Fraction(0) if backend == RATIONAL else 0.0
    p = x.cols
    (aq, bq), (ak, bk), (av, bv) = mh.stacked
    q = _affine_rows(aq, bq, y.data, p, zero)
    k = _affine_rows(ak, bk, x.data, p, zero)
    v = _affine_rows(av, bv, x.data, p, zero)
    out = []
    t = 0
    for i, h in enumerate(mh.heads):
        qk = slice(t, t + h.d)
        t += h.d
        s = sparse_product(nonzero_rows(zip(*k[qk])), q[qk], p, zero)
        a = _activate(h.activation, _shape_scores(h, Mat(backend, tuple(map(tuple, s)))))
        vh = nonzero_rows(v[i * h.m:(i + 1) * h.m])
        out.extend(map(tuple, sparse_product(vh, a.data, p, zero)))
    return Mat(backend, tuple(out))


def eval_multihead(mh: MultiheadAttention, x: Mat) -> Mat:
    """Self-attention on an n x p input; masking happens before the activation."""
    if x.shape != (mh.n, mh.p):
        raise ShapeError(f"attention input {x.shape}, head expects {(mh.n, mh.p)}")
    if mh.n_q != mh.n:
        raise ShapeError("head has distinct query input size; use eval_encdec_attention")
    return _attend(mh, x, x)


def eval_multihead_encdec(mh: MultiheadAttention, x: Mat, y: Mat) -> Mat:
    """Cross-attention: keys and values from x, queries from y."""
    if x.rows != mh.n or y.rows != mh.n_q:
        raise ShapeError(f"cross-attention inputs {x.shape}/{y.shape}, "
                         f"head expects rows {mh.n}/{mh.n_q}")
    if x.cols != mh.p or y.cols != mh.p:
        raise ShapeError("cross-attention inputs must share the sequence length")
    return _attend(mh, x, y)


def eval_attention(head: AttentionHead, x: Mat) -> Mat:
    """One self-attention head: the layer kernel with a single head."""
    return eval_multihead(MultiheadAttention((head,)), x)


def eval_encdec_attention(head: AttentionHead, x: Mat, y: Mat) -> Mat:
    """One cross-attention head: the layer kernel with a single head."""
    return eval_multihead_encdec(MultiheadAttention((head,)), x, y)


@dataclass(frozen=True)
class FeedForwardNet:
    """Chain of affine layers (A, column-vector b) with ReLU in between;
    the final layer is affine with no activation.  Applied columnwise."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise ValueError("feed-forward net needs at least one layer")
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

    @cached_property
    def sparse(self) -> tuple:
        """Per layer, each row's nonzero (col, coef) pairs and the bias
        entries; built on the first evaluation and kept, like
        `MultiheadAttention.stacked`."""
        return tuple((nonzero_rows(a.data), b.col_entries(0)) for a, b in self.layers)

    @cached_property
    def backends(self) -> frozenset:
        return _backends(m for layer in self.layers for m in layer)


def eval_ffn(ffn: FeedForwardNet, x: Mat) -> Mat:
    if x.rows != ffn.in_dim:
        raise ShapeError(f"ffn expects {ffn.in_dim} input rows, got {x.rows}")
    _require_backend("ffn", ffn.backends, x)
    zero = Fraction(0) if x.backend == RATIONAL else 0.0
    out = x
    last = len(ffn.sparse) - 1
    for idx, (nz, bias) in enumerate(ffn.sparse):
        rows = sparse_product(nz, out.data, x.cols, zero)
        out = Mat(x.backend, tuple(tuple(u + b for u in acc) if b else tuple(acc)
                                   for acc, b in zip(rows, bias)))
        if idx != last:
            out = relu(out)
    return out


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
        return all(h.masked for h in self.attn.heads)


@dataclass(frozen=True)
class DecoderBlock(EncoderBlock):
    def __post_init__(self):
        super().__post_init__()
        if not all(h.masked for h in self.attn.heads):
            raise ValueError("decoder blocks require every head to be masked")


def eval_encoder(blocks: Sequence[EncoderBlock], x: Mat) -> Mat:
    """Compose blocks left to right; an empty list is the identity."""
    out = x
    for i, blk in enumerate(blocks):
        try:
            y = eval_ffn(blk.ffn, eval_multihead(blk.attn, out))
            out = add(y, out) if blk.residual else y
        except ShapeError as exc:
            raise ShapeError(f"block {i}: {exc}") from exc
    return out


@dataclass(frozen=True)
class EncDecStage:
    """One decoder-side stage: masked self-attention, cross-attention
    reading the encoder output, then a feed-forward net."""

    self_attn: MultiheadAttention
    cross_attn: MultiheadAttention
    ffn: FeedForwardNet
    residual: bool = False

    def __post_init__(self):
        if not all(h.masked for h in self.self_attn.heads):
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
    """Callable wrapper around a block chain with inferred input shape."""

    def __init__(self, blocks: Sequence[EncoderBlock]):
        if not blocks:
            raise ValueError("need at least one block")
        self.blocks = tuple(blocks)
        head = self.blocks[0].attn.heads[0]
        self.n = head.n
        self.p = head.p

    def __call__(self, x: Mat) -> Mat:
        return eval_encoder(self.blocks, x)


def identity_ffn(dim: int) -> FeedForwardNet:
    """x = relu(x) - relu(-x) as a one-hidden-layer net."""
    i = Mat.identity(dim)
    a1 = stack_rows([i, scale(i, Fraction(-1))])
    a2 = Mat(RATIONAL, tuple(row_a + row_b for row_a, row_b in
                             zip(i.data, scale(i, Fraction(-1)).data)))
    return FeedForwardNet(((a1, Mat.zeros(2 * dim, 1)), (a2, Mat.zeros(dim, 1))))


def blocks_to_float(blocks: Sequence[EncoderBlock]) -> tuple:
    out = []
    for blk in blocks:
        heads = tuple(replace(h, a_q=h.a_q.to_float(), b_q=h.b_q.to_float(),
                              a_k=h.a_k.to_float(), b_k=h.b_k.to_float(),
                              a_v=h.a_v.to_float(), b_v=h.b_v.to_float())
                      for h in blk.attn.heads)
        ffn = FeedForwardNet(tuple((a.to_float(), b.to_float()) for a, b in blk.ffn.layers))
        out.append(EncoderBlock(MultiheadAttention(heads), ffn, blk.residual))
    return tuple(out)


# -- JSON wire format ----------------------------------------------------------

def _head_to_json(h: AttentionHead):
    obj = {"A_Q": mat_to_json(h.a_q), "B_Q": mat_to_json(h.b_q),
           "A_K": mat_to_json(h.a_k), "B_K": mat_to_json(h.b_k),
           "A_V": mat_to_json(h.a_v), "B_V": mat_to_json(h.b_v),
           "masked": h.masked, "activation": h.activation.kind}
    if h.activation.kind == "softplus":
        obj["beta"] = h.activation.beta
    if h.scaled:
        obj["scaled"] = True
    return obj


def _head_from_json(obj) -> AttentionHead:
    act = Activation(obj.get("activation", "relu"),
                     obj.get("beta") if obj.get("activation") == "softplus" else None)
    return AttentionHead(
        a_q=mat_from_json(obj["A_Q"]), b_q=mat_from_json(obj["B_Q"]),
        a_k=mat_from_json(obj["A_K"]), b_k=mat_from_json(obj["B_K"]),
        a_v=mat_from_json(obj["A_V"]), b_v=mat_from_json(obj["B_V"]),
        activation=act, masked=bool(obj.get("masked", False)),
        scaled=bool(obj.get("scaled", False)))


def blocks_to_json(blocks: Sequence[EncoderBlock]):
    return {"blocks": [
        {"heads": [_head_to_json(h) for h in blk.attn.heads],
         "ffn": {"layers": [{"A": mat_to_json(a), "b": mat_to_json(b)}
                            for a, b in blk.ffn.layers]},
         "residual": blk.residual}
        for blk in blocks]}


def blocks_from_json(obj) -> tuple:
    out = []
    for b in obj["blocks"]:
        heads = MultiheadAttention(tuple(_head_from_json(h) for h in b["heads"]))
        ffn = FeedForwardNet(tuple((mat_from_json(l["A"]), mat_from_json(l["b"]))
                                   for l in b["ffn"]["layers"]))
        out.append(EncoderBlock(heads, ffn, bool(b.get("residual", False))))
    return tuple(out)
