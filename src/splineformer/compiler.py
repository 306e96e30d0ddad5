"""Compile max-min spline forms into explicit ReLU-encoder weights.

The pipeline builds, per column, a block-diagonal stack of monomial rows
(doubling the attainable degree with every quadratic stage), then reads
the target functions off with a max-min network and a final recombining
affine map.  Everything is exact rational arithmetic, so compiled
encoders agree with the source forms identically, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .spline import ONE, Monomial, PBForm, SplineGrid
from .tensor import RATIONAL, Mat, ShapeError, add, matmul, scale, stack_rows
from .transformer import (AttentionHead, EncoderBlock, FeedForwardNet,
                          MultiheadAttention, RELU, eval_encoder, eval_ffn)
from .veronese import factor_pair, graded_lex_monomials


class ResourceLimitError(RuntimeError):
    """Faithful construction would exceed the intermediate row cap."""


class NotAutoregressiveError(ValueError):
    """Masked compilation requested for a column that reads later columns."""


# -- feed-forward assembly helpers -------------------------------------------

def _sparse(rows: int, cols: int, entries: dict) -> Mat:
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        data[r][c] = Fraction(v)
    return Mat.rational(data)


def ffn_affine(a: Mat, b: Optional[Mat] = None) -> FeedForwardNet:
    if b is None:
        b = Mat.zeros(a.rows, 1)
    return FeedForwardNet(((a, b),))


def ffn_compose(f: FeedForwardNet, g: FeedForwardNet) -> FeedForwardNet:
    """g after f, merging f's output layer into g's first affine layer."""
    if g.in_dim != f.out_dim:
        raise ShapeError(f"compose: {f.out_dim} -> {g.in_dim}")
    fa, fb = f.layers[-1]
    ga, gb = g.layers[0]
    merged = (matmul(ga, fa), add(matmul(ga, fb), gb))
    return FeedForwardNet(f.layers[:-1] + (merged,) + g.layers[1:])


def ffn_deepen(f: FeedForwardNet, levels: int) -> FeedForwardNet:
    """Pad with pass-through hidden layers (u = relu(u) - relu(-u))."""
    out = f
    for _ in range(levels):
        a, b = out.layers[-1]
        d = a.rows
        pre = (stack_rows([a, scale(a, Fraction(-1))]),
               stack_rows([b, scale(b, Fraction(-1))]))
        ident = Mat.identity(d)
        post = (Mat(ident.backend, tuple(ra + rb for ra, rb in
                                         zip(ident.data, scale(ident, Fraction(-1)).data))),
                Mat.zeros(d, 1))
        out = FeedForwardNet(out.layers[:-1] + (pre, post))
    return out


def ffn_stack(in_dim: int, parts: Sequence[tuple]) -> FeedForwardNet:
    """Run several nets side by side, each on a slice of the input.

    parts are (input_indices, net) pairs; outputs are concatenated in
    part order.  Shallower nets are padded to the common depth.
    """
    depth = max(net.depth for _, net in parts)
    padded = [(idx, ffn_deepen(net, depth - net.depth)) for idx, net in parts]
    layers = []
    for level in range(depth):
        blocks = [net.layers[level] for _, net in padded]
        out_rows = sum(a.rows for a, _ in blocks)
        if level == 0:
            in_cols = in_dim
        else:
            in_cols = sum(net.layers[level - 1][0].rows for _, net in padded)
        entries: dict = {}
        bias = []
        r0 = 0
        c0 = 0
        for idx, net in padded:
            a, b = net.layers[level]
            if level == 0:
                cols = list(idx)
            else:
                cols = list(range(c0, c0 + a.cols))
                c0 += a.cols
            for r in range(a.rows):
                for c in range(a.cols):
                    v = a.at(r, c)
                    if v:
                        entries[(r0 + r, cols[c])] = v
            bias.extend(b.at(r, 0) for r in range(b.rows))
            r0 += a.rows
        layers.append((_sparse(out_rows, in_cols, entries), Mat.column(bias)))
    return FeedForwardNet(tuple(layers))


# -- max-min networks ----------------------------------------------------------

def _reduce_level(sizes: Sequence[int], op: str, count: int):
    """One lockstep pairwise-reduction level.

    Returns (M, R, new_sizes): M maps candidates to pre-activation
    features, R combines the relu'd features into the new candidates.
    min(a,b) = a - relu(a-b); max(a,b) = a + relu(b-a).
    """
    m_entries: dict = {}
    r_entries: dict = {}
    feat = 0
    new_val = 0
    pos = 0
    new_sizes = []
    for size in sizes:
        vals = list(range(pos, pos + size))
        pos += size
        new_size = 0
        k = 0
        while k + 1 < len(vals):
            a, b = vals[k], vals[k + 1]
            if op == "min":
                m_entries[(feat, a)] = Fraction(1)
                m_entries[(feat, b)] = Fraction(-1)
                r_entries[(new_val, feat)] = Fraction(-1)
            else:
                m_entries[(feat, b)] = Fraction(1)
                m_entries[(feat, a)] = Fraction(-1)
                r_entries[(new_val, feat)] = Fraction(1)
            m_entries[(feat + 1, a)] = Fraction(1)
            m_entries[(feat + 2, a)] = Fraction(-1)
            r_entries[(new_val, feat + 1)] = Fraction(1)
            r_entries[(new_val, feat + 2)] = Fraction(-1)
            feat += 3
            new_val += 1
            new_size += 1
            k += 2
        if k < len(vals):
            c = vals[k]
            m_entries[(feat, c)] = Fraction(1)
            m_entries[(feat + 1, c)] = Fraction(-1)
            r_entries[(new_val, feat)] = Fraction(1)
            r_entries[(new_val, feat + 1)] = Fraction(-1)
            feat += 2
            new_val += 1
            new_size += 1
        new_sizes.append(new_size)
    return (_sparse(feat, count, m_entries), _sparse(new_val, feat, r_entries), new_sizes)


def _maxmin_ffn(groups: Sequence[Sequence[tuple]], in_dim: int) -> FeedForwardNet:
    """Net computing max over groups of (min within each group) of affine
    pieces given as (coefficient list, bias) pairs."""
    pieces = [piece for grp in groups for piece in grp]
    a0 = Mat.rational([list(coefs) for coefs, _ in pieces])
    b0 = Mat.column([bias for _, bias in pieces])
    layers = []
    cur_a, cur_b = a0, b0
    sizes = [len(g) for g in groups]
    count = len(pieces)

    def push(m: Mat, r: Mat):
        nonlocal cur_a, cur_b, count
        layers.append((matmul(m, cur_a), matmul(m, cur_b)))
        cur_a, cur_b = r, Mat.zeros(r.rows, 1)
        count = r.rows

    while any(s > 1 for s in sizes):
        m, r, sizes = _reduce_level(sizes, "min", count)
        push(m, r)
    while count > 1:
        m, r, _ = _reduce_level([count], "max", count)
        push(m, r)
    return FeedForwardNet(tuple(layers) + ((cur_a, cur_b),))


def linear_spline_to_ffn(forms, in_dim: int) -> FeedForwardNet:
    """Exact network for max-min forms whose pieces are affine.

    `forms` is a single PBForm or a sequence of them over column-vector
    variables x_1_1 .. x_<in_dim>_1; the result computes all of them,
    one output row each.
    """
    if isinstance(forms, PBForm):
        forms = [forms]
    nets = []
    for f in forms:
        if f.degree > 1:
            raise ValueError(f"affine pieces required, got degree {f.degree}")
        groups = []
        for row in f.rows:
            grp = []
            for poly in row:
                coefs = [Fraction(0)] * in_dim
                bias = Fraction(0)
                for mon, c in poly.terms:
                    if mon == ONE:
                        bias = c
                        continue
                    (i, j), _ = mon.exps[0]
                    if j != 1 or i > in_dim:
                        raise ValueError(f"variable x_{i}_{j} outside vector of length {in_dim}")
                    coefs[i - 1] = c
                grp.append((coefs, bias))
            groups.append(grp)
        nets.append(_maxmin_ffn(groups, in_dim))
    if len(nets) == 1:
        return nets[0]
    full = list(range(in_dim))
    return ffn_stack(in_dim, [(full, net) for net in nets])


# -- attention head constructors ----------------------------------------------

def build_copy_head(i_hat: int, j_hat: int, j: int, n: int, p: int,
                    masked: bool = False) -> AttentionHead:
    """Head whose output row holds entry (i_hat, j_hat) at column j, zeros
    elsewhere (all indices 1-based)."""
    if not (1 <= i_hat <= n and 1 <= j_hat <= p and 1 <= j <= p):
        raise ValueError(f"copy head index ({i_hat},{j_hat},{j}) outside {n}x{p}")
    return AttentionHead(
        a_q=Mat.zeros(1, n), b_q=Mat.basis(1, p, 1, j),
        a_k=Mat.zeros(1, n), b_k=Mat.basis(1, p, 1, j_hat),
        a_v=Mat.basis(1, n, 1, i_hat), b_v=Mat.zeros(1, p),
        activation=RELU, masked=masked)


def build_const_head(j: int, n: int, p: int, masked: bool = False) -> AttentionHead:
    """Head whose output row is 1 at column j and 0 elsewhere, for every input."""
    if not 1 <= j <= p:
        raise ValueError(f"const head column {j} outside 1..{p}")
    return AttentionHead(
        a_q=Mat.zeros(1, n), b_q=Mat.basis(1, p, 1, j),
        a_k=Mat.zeros(1, n), b_k=Mat.basis(1, p, 1, 1),
        a_v=Mat.zeros(1, n), b_v=Mat.basis(1, p, 1, 1),
        activation=RELU, masked=masked)


def _signed_row(cols: int, j: int, sign: int) -> Mat:
    """The 1 x cols row holding sign at column j (0-based), zeros elsewhere."""
    zero = Fraction(0)
    return Mat(RATIONAL, ((zero,) * j + (Fraction(sign),) + (zero,) * (cols - j - 1),))


def _quad_head(v_row: int, q_row: int, col: int, in_rows: int, p: int,
               masked: bool, sign: int) -> AttentionHead:
    """Head whose output row holds u_{v_row,col} * relu(sign * u_{q_row,col})
    at column col when row q_row is nonzero only in that column (0-based)."""
    return AttentionHead(
        a_q=_signed_row(in_rows, q_row, sign),
        b_q=Mat.zeros(1, p),
        a_k=Mat.zeros(1, in_rows), b_k=Mat.basis(1, p, 1, col + 1),
        a_v=Mat.basis(1, in_rows, 1, v_row + 1), b_v=Mat.zeros(1, p),
        activation=RELU, masked=masked)


def _const_row_head(values: Sequence[Fraction], in_rows: int, p: int,
                    masked: bool) -> AttentionHead:
    """Head emitting a fixed row of nonnegative constants."""
    if any(v < 0 for v in values):
        raise ValueError("constant rows must be nonnegative (relu passthrough)")
    return AttentionHead(
        a_q=Mat.zeros(1, in_rows), b_q=Mat.rational([list(values)]),
        a_k=Mat.zeros(1, in_rows), b_k=Mat.basis(1, p, 1, 1),
        a_v=Mat.zeros(1, in_rows), b_v=Mat.basis(1, p, 1, 1),
        activation=RELU, masked=masked)


# -- layouts and intermediate content -----------------------------------------

class MonomialLayout:
    """Bookkeeping map (monomial, column) -> row of the block-diagonal
    intermediate; each mapped row is nonzero only in its own column."""

    def __init__(self, n: int, p: int, columns: Sequence[Sequence[Optional[Monomial]]]):
        self.n = n
        self.p = p
        self._columns = tuple(tuple(col) for col in columns)
        self.block_spans = []
        self._rows: dict = {}
        start = 0
        for j, col in enumerate(self._columns):
            self.block_spans.append((start, start + len(col)))
            for slot, mon in enumerate(col):
                if mon is not None and (mon, j + 1) not in self._rows:
                    self._rows[(mon, j + 1)] = start + slot
            start += len(col)
        self.total_rows = start

    def row_of(self, mon: Monomial, col: int) -> int:
        return self._rows[(mon, col)]

    def has(self, mon: Monomial, col: int) -> bool:
        return (mon, col) in self._rows

    def column_monomials(self, col: int) -> tuple:
        return tuple(sorted((m for (m, c) in self._rows if c == col),
                            key=lambda m: self._rows[(m, col)]))

    def entries(self):
        for (m, c), r in sorted(self._rows.items(), key=lambda kv: kv[1]):
            yield m, c, r

    def to_json(self):
        return [{"monomial": {f"x_{i}_{j}": e for (i, j), e in m.exps},
                 "column": c, "row": r} for m, c, r in self.entries()]


@dataclass(frozen=True)
class _Content:
    """Symbolic value of an intermediate matrix: either the raw input or a
    block-diagonal stack of monomial slots (None = identically zero)."""

    p: int
    raw_n: int = 0
    cols: tuple = ()

    @property
    def is_raw(self) -> bool:
        return self.raw_n > 0

    @property
    def total_rows(self) -> int:
        if self.is_raw:
            return self.raw_n
        return sum(len(c) for c in self.cols)

    def offsets(self):
        out = []
        start = 0
        for col in self.cols:
            out.append(start)
            start += len(col)
        return out

    def entry_xval(self, r: int, c: int) -> Optional[Monomial]:
        """Symbolic value of matrix entry (r, c), 0-based."""
        if self.is_raw:
            return Monomial.variable(r + 1, c + 1)
        start = 0
        for j, col in enumerate(self.cols):
            if r < start + len(col):
                return col[r - start] if j == c else None
            start += len(col)
        raise IndexError(r)

    def row_of(self, mon: Monomial, col0: int) -> Optional[int]:
        if self.is_raw:
            if mon.degree == 1 and mon.exps[0][1] == 1:
                (i, j), _ = mon.exps[0]
                if j == col0 + 1:
                    return i - 1
            return None
        start = 0
        for j, col in enumerate(self.cols):
            if j == col0:
                for slot, m in enumerate(col):
                    if m == mon:
                        return start + slot
                return None
            start += len(col)
        return None

    def layout(self, n: int) -> MonomialLayout:
        return MonomialLayout(n, self.p, self.cols)


def _grlex_key(m: Monomial, varlist: Sequence[tuple]):
    exps = dict(m.exps)
    return (m.degree, tuple(-exps.get(v, 0) for v in varlist))


# -- stage builders -------------------------------------------------------------

@dataclass
class _Stage:
    heads: list
    sel: list          # selection rows (coef per head) for each output slot
    content: _Content
    var_rows: dict = field(default_factory=dict)  # (r, c, col) -> refreshed row
    residual: bool = False

    @property
    def head_count(self) -> int:
        return len(self.heads)

    def selection(self) -> FeedForwardNet:
        """The affine map from head outputs to the stage's slots: an affine
        map is already a linear spline, so it needs no hidden layer."""
        entries = {(r, h): v for r, row in enumerate(self.sel) for h, v in row.items()}
        return ffn_affine(_sparse(len(self.sel), len(self.heads), entries))

    def finish(self) -> EncoderBlock:
        return EncoderBlock(MultiheadAttention(tuple(self.heads)), self.selection(),
                            residual=self.residual)


def _guard(cap: int, *quantities: int):
    worst = max(quantities)
    if worst > cap:
        raise ResourceLimitError(
            f"faithful construction needs {worst} intermediate rows "
            f"(cap {cap}); use pruned mode")


def _linear_stage(content: _Content, targets_per_col, p: int, masked: bool,
                  faithful: bool, cap: int, residual: bool = False) -> _Stage:
    """Copy existing values forward so every column holds its own block of
    them (plus constants where requested)."""
    heads: list = []
    var_rows: dict = {}
    sel: list = []
    new_cols: list = []
    in_rows = content.total_rows

    if faithful:
        _guard(cap, in_rows * p * p + p, p * (in_rows * p + 1))
        head_idx: dict = {}
        for r in range(in_rows):
            for c in range(p):
                for j in range(p):
                    if masked and c > j:
                        continue
                    head_idx[(r, c, j)] = len(heads)
                    heads.append(build_copy_head(r + 1, c + 1, j + 1, in_rows, p, masked))
        const_idx = {}
        for j in range(p):
            const_idx[j] = len(heads)
            heads.append(build_const_head(j + 1, in_rows, p, masked))
        row = 0
        for j in range(p):
            col_slots: list = [ONE]
            sel.append({const_idx[j]: Fraction(1)})
            row += 1
            for r in range(in_rows):
                for c in range(p):
                    if masked and c > j:
                        continue
                    col_slots.append(content.entry_xval(r, c))
                    var_rows[(r, c, j)] = row
                    sel.append({head_idx[(r, c, j)]: Fraction(1)})
                    row += 1
            new_cols.append(tuple(col_slots))
    else:
        head_for: dict = {}
        for j in range(p):
            col_slots = []
            for mon in targets_per_col[j]:
                if mon == ONE:
                    head_for[(mon, j)] = len(heads)
                    heads.append(build_const_head(j + 1, in_rows, p, masked))
                elif content.is_raw:
                    (i, c), _ = mon.exps[0]
                    head_for[(mon, j)] = len(heads)
                    heads.append(build_copy_head(i, c, j + 1, in_rows, p, masked))
                else:
                    src = content.row_of(mon, j)
                    if src is None:
                        raise KeyError(f"monomial {mon!r} missing from column {j + 1}")
                    head_for[(mon, j)] = len(heads)
                    heads.append(build_copy_head(src + 1, j + 1, j + 1, in_rows, p, masked))
                col_slots.append(mon)
            new_cols.append(tuple(col_slots))
        for j in range(p):
            for mon in targets_per_col[j]:
                sel.append({head_for[(mon, j)]: Fraction(1)})

    new_content = _Content(p=p, cols=tuple(new_cols))
    stage = _Stage(heads, sel, new_content, var_rows)
    if residual and not faithful and not content.is_raw and content.cols == new_content.cols:
        stage.sel = [dict() for _ in stage.sel]
        stage.residual = True
    return stage


def _quadratic_stage(refresh: _Stage, copy_input: _Content, targets_per_col,
                     cap_deg: int, p: int, masked: bool, faithful: bool,
                     cap: int) -> _Stage:
    """Form pairwise products of the refreshed rows.  A product row for
    (a, b) at column j computes u_a * relu(u_b) - u_a * relu(-u_b) = u_a u_b,
    and stays zero outside column j because row b is."""
    refreshed = refresh.content
    in_rows = refreshed.total_rows
    heads: list = []
    sel: list = []
    new_cols: list = []

    if faithful:
        yvars = [(r, c) for r in range(copy_input.total_rows) for c in range(p)]
        n_out = p * math.comb(len(yvars) + 2, 2)
        _guard(cap, 2 * in_rows * in_rows * p, n_out)
        copy_idx: dict = {}
        for (r, c) in yvars:
            for j in range(p):
                if masked and c > j:
                    continue
                copy_idx[(r, c, j)] = len(heads)
                src = refresh.var_rows[(r, c, j)]
                heads.append(build_copy_head(src + 1, j + 1, j + 1, in_rows, p, masked))
        const_idx = {}
        for j in range(p):
            const_idx[j] = len(heads)
            heads.append(build_const_head(j + 1, in_rows, p, masked))
        quad_idx: dict = {}
        offsets = refreshed.offsets()
        for j in range(p):
            rows_j = range(offsets[j], offsets[j] + len(refreshed.cols[j]))
            pair_rows = rows_j if masked else range(in_rows)
            for a in pair_rows:
                for b in (rows_j if masked else range(in_rows)):
                    for sign in (1, -1):
                        quad_idx[(a, b, j, sign)] = len(heads)
                        heads.append(_quad_head(a, b, j, in_rows, p, masked, sign))
        for j in range(p):
            allowed = [(r, c) for (r, c) in yvars if not (masked and c > j)]
            col_slots: list = [ONE]
            sel.append({const_idx[j]: Fraction(1)})
            for (r, c) in allowed:
                col_slots.append(copy_input.entry_xval(r, c))
                sel.append({copy_idx[(r, c, j)]: Fraction(1)})
            for ai in range(len(allowed)):
                for bi in range(ai, len(allowed)):
                    a, b = allowed[ai], allowed[bi]
                    xa = copy_input.entry_xval(*a)
                    xb = copy_input.entry_xval(*b)
                    col_slots.append(xa.mul(xb) if xa is not None and xb is not None else None)
                    ra = refresh.var_rows[(a[0], a[1], j)]
                    rb = refresh.var_rows[(b[0], b[1], j)]
                    sel.append({quad_idx[(ra, rb, j, 1)]: Fraction(1),
                                quad_idx[(ra, rb, j, -1)]: Fraction(-1)})
            new_cols.append(tuple(col_slots))
    else:
        for j in range(p):
            col_slots = []
            for mon in targets_per_col[j]:
                if mon == ONE:
                    idx = len(heads)
                    heads.append(build_const_head(j + 1, in_rows, p, masked))
                    sel.append({idx: Fraction(1)})
                else:
                    src = refreshed.row_of(mon, j)
                    if src is not None:
                        idx = len(heads)
                        heads.append(build_copy_head(src + 1, j + 1, j + 1, in_rows, p, masked))
                        sel.append({idx: Fraction(1)})
                    else:
                        m1, m2 = factor_pair(mon, cap_deg)
                        r1 = refreshed.row_of(m1, j)
                        r2 = refreshed.row_of(m2, j)
                        if r1 is None or r2 is None:
                            raise KeyError(f"factors of {mon!r} missing from column {j + 1}")
                        plus = len(heads)
                        heads.append(_quad_head(r1, r2, j, in_rows, p, masked, 1))
                        minus = len(heads)
                        heads.append(_quad_head(r1, r2, j, in_rows, p, masked, -1))
                        sel.append({plus: Fraction(1), minus: Fraction(-1)})
                col_slots.append(mon)
            new_cols.append(tuple(col_slots))

    return _Stage(heads, sel, _Content(p=p, cols=tuple(new_cols)))


# -- compiled artifacts -----------------------------------------------------------

@dataclass(frozen=True)
class CompileOptions:
    mode: str = "auto"        # faithful | pruned | auto
    masked: bool = False
    residual: bool = False
    row_cap: int = 20000


def _resolve_mode(mode: str, s: int, p: int) -> str:
    if mode == "auto":
        return "pruned" if (s >= 3 or p >= 2) else "faithful"
    if mode not in ("faithful", "pruned"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


@dataclass(frozen=True, eq=False)
class CompiledEncoder:
    """Encoder blocks plus the layout and provenance that produced them."""

    blocks: tuple
    layout: MonomialLayout
    n: int
    p: int
    out_rows: int
    masked: bool
    mode: str
    stages: int
    provenance: tuple
    stats: dict

    def __call__(self, x: Mat) -> Mat:
        return eval_encoder(self.blocks, x)

    def sidecar_json(self):
        return {"rows": self.layout.to_json(), "mode": self.mode,
                "stages": self.stages, "provenance": list(self.provenance)}


def _allowed_vars(n: int, p: int, col: int, masked: bool):
    """Variables column `col` (1-based) may read, row-major."""
    limit = col if masked else p
    return [(i, j) for i in range(1, n + 1) for j in range(1, limit + 1)]


def _num_stages(s: int) -> int:
    return 1 if s <= 1 else max(1, math.ceil(math.log2(s)))


def _build_chain(n: int, p: int, s: int, targets_final, opts: CompileOptions,
                 mode: str):
    """Shared staging: returns (stages list, content, target sets used)."""
    masked = opts.masked
    faithful = mode == "faithful"
    num = _num_stages(s)

    if faithful:
        target_sets = []
        for i in range(1, num + 1):
            deg = min(2 ** i, s) if s > 1 else 1
            target_sets.append([graded_lex_monomials(_allowed_vars(n, p, j, masked), deg)
                                for j in range(1, p + 1)])
        refresh_sets = [None] * num
    else:
        target_sets = [None] * num
        target_sets[num - 1] = [list(targets_final[j]) for j in range(p)]
        refresh_sets = [None] * num
        for i in range(num - 1, -1, -1):
            cap_deg = 2 ** (i + 1)
            prev_cap = 2 ** i
            needed = [set() for _ in range(p)]
            for j in range(p):
                for mon in target_sets[i][j]:
                    if mon.degree == 0:
                        continue
                    if mon.degree <= prev_cap or (s <= 1):
                        needed[j].add(mon)
                    elif mon.degree <= cap_deg:
                        m1, m2 = factor_pair(mon, prev_cap)
                        needed[j].update((m1, m2))
                    else:
                        raise ValueError(f"monomial {mon!r} exceeds stage degree {cap_deg}")
            ordered = [sorted(needed[j], key=lambda m: _grlex_key(m, _allowed_vars(n, p, j + 1, masked)))
                       for j in range(p)]
            refresh_sets[i] = ordered
            if i > 0:
                target_sets[i - 1] = ordered

    content: _Content = _Content(p=p, raw_n=n)
    stages: list = []
    for i in range(num):
        if s <= 1:
            stage = _linear_stage(content, target_sets[i], p, masked, faithful,
                                  opts.row_cap)
            stages.append(("linear-copy-pass", stage))
            content = stage.content
            continue
        refresh = _linear_stage(content, refresh_sets[i], p, masked, faithful,
                                opts.row_cap,
                                residual=opts.residual and i > 0)
        stages.append(("linear-copy-pass", refresh))
        quad = _quadratic_stage(refresh, content, target_sets[i], 2 ** i,
                                p, masked, faithful, opts.row_cap)
        stages.append(("quadratic-product-pass", quad))
        content = quad.content
    return stages, content


def _finish(stages, content, n, p, opts, mode, out_rows=None, extra_prov=""):
    blocks = tuple(stage.finish() for _, stage in stages)
    layout = content.layout(n)
    prov = tuple(tag + (extra_prov if k == len(stages) - 1 else "")
                 for k, (tag, _) in enumerate(stages))
    stats = {"blocks": len(blocks),
             "heads_per_block": [st.head_count for _, st in stages],
             "rows": layout.total_rows,
             "depth": sum(b.ffn.depth for b in blocks) + len(blocks)}
    return CompiledEncoder(
        blocks=blocks, layout=layout, n=n, p=p,
        out_rows=out_rows if out_rows is not None else layout.total_rows,
        masked=opts.masked, mode=mode, stages=_num_stages_from(stages),
        provenance=prov, stats=stats)


def _num_stages_from(stages) -> int:
    quad = sum(1 for tag, _ in stages if tag.startswith("quadratic"))
    return quad if quad else 1


def build_eps2(n: int, p: int, opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Two encoder blocks whose output stacks, per column, every monomial
    of degree <= 2 in the input entries (block-diagonal copies)."""
    mode = _resolve_mode(opts.mode, 2, p)
    targets = [graded_lex_monomials(_allowed_vars(n, p, j, opts.masked), 2)
               for j in range(1, p + 1)]
    stages, content = _build_chain(n, p, 2, targets, opts, mode)
    return _finish(stages, content, n, p, opts, mode)


def build_veronese_encoder(n: int, p: int, s: int,
                           opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Encoder whose output carries all monomials of degree <= s per column,
    using ceil(log2 s) quadratic doubling stages."""
    if s < 1:
        raise ValueError("degree must be >= 1")
    mode = _resolve_mode(opts.mode, s, p)
    targets = [graded_lex_monomials(_allowed_vars(n, p, j, opts.masked), s)
               for j in range(1, p + 1)]
    stages, content = _build_chain(n, p, s, targets, opts, mode)
    return _finish(stages, content, n, p, opts, mode)


def ffn_block_form(phi: FeedForwardNet, n: int, p: int) -> EncoderBlock:
    """Rewrite a one-hidden-layer net, applied columnwise, as a single
    encoder block: copy heads expose each column on its own rows, and the
    net is precomposed with the column-summing left inverse."""
    if phi.hidden_layers != 1:
        raise ValueError(f"need exactly one hidden layer, got {phi.hidden_layers}")
    if phi.in_dim != n:
        raise ShapeError(f"net reads {phi.in_dim} rows, block input has {n}")
    heads = []
    for j in range(p):
        for i in range(n):
            heads.append(build_copy_head(i + 1, j + 1, j + 1, n, p))
    entries = {(i, j * n + i): Fraction(1) for j in range(p) for i in range(n)}
    psi = ffn_affine(_sparse(n, n * p, entries))
    return EncoderBlock(MultiheadAttention(tuple(heads)), ffn_compose(psi, phi))


def ffn_to_encoder_blocks(phi: FeedForwardNet, n: int, p: int) -> tuple:
    """Split a multi-hidden-layer net into a chain of one-hidden-layer
    encoder blocks (applying ffn_block_form once per hidden layer)."""
    if phi.hidden_layers == 0:
        phi = ffn_deepen(phi, 1)
    pieces = []
    layers = phi.layers
    for k in range(len(layers) - 1):
        if k == len(layers) - 2:
            pieces.append(FeedForwardNet((layers[k], layers[k + 1])))
        else:
            d = layers[k][0].rows
            pieces.append(FeedForwardNet((layers[k], (Mat.identity(d), Mat.zeros(d, 1)))))
    blocks = []
    width = phi.in_dim
    for piece in pieces:
        blocks.append(ffn_block_form(piece, width, p))
        width = piece.out_dim
    return tuple(blocks)


def _readout_gadget(f: PBForm, coord_of: dict, width: int) -> FeedForwardNet:
    """Max-min net over block coordinates (constants ride the 1-row)."""
    groups = []
    for row in f.rows:
        grp = []
        for poly in row:
            coefs = [Fraction(0)] * width
            for mon, c in poly.terms:
                coefs[coord_of[mon]] = c
            grp.append((coefs, Fraction(0)))
        groups.append(grp)
    return _maxmin_ffn(groups, width)


def compile_spline(spline: SplineGrid, opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Emit encoder weights computing the grid exactly.

    Pipeline: monomial stages up to the grid degree, then a per-column
    max-min readout network and a recombining affine map folded into the
    final block's feed-forward net.
    """
    n, p, r = spline.n, spline.p, spline.r
    if opts.masked:
        _check_autoregressive(spline)
    s = max(1, spline.degree)
    mode = _resolve_mode(opts.mode, s, p)

    if mode == "faithful":
        targets = [graded_lex_monomials(_allowed_vars(n, p, j, opts.masked), s)
                   for j in range(1, p + 1)]
    else:
        targets = []
        for j in range(1, p + 1):
            support = set()
            for f in spline.column(j):
                support.update(f.support())
            if not support:
                support = {ONE}
            targets.append(sorted(support,
                                  key=lambda m: _grlex_key(m, _allowed_vars(n, p, j, opts.masked))))

    stages, content = _build_chain(n, p, s, targets, opts, mode)
    layout = content.layout(n)
    offsets = content.offsets()
    widths = [len(col) for col in content.cols]

    # per-column readout nets, one scalar gadget per output row
    gadgets = []
    for j in range(1, p + 1):
        coord_of = {}
        for mon, c, row in layout.entries():
            if c == j:
                coord_of[mon] = row - offsets[j - 1]
        gadgets.append([_readout_gadget(f, coord_of, widths[j - 1])
                        for f in spline.column(j)])

    # offset rows: ell_j at the zero block, combined across columns
    ell_zero = []
    for j in range(p):
        zero = Mat.zeros(widths[j], 1)
        ell_zero.append([eval_ffn(g, zero).at(0, 0) for g in gadgets[j]])
    b_cols, bp_cols = [], []
    for i in range(p):
        z = [sum(ell_zero[j][k] for j in range(p) if j != i) for k in range(r)]
        b_cols.append([max(-v, Fraction(0)) for v in z])
        bp_cols.append([max(v, Fraction(0)) for v in z])
    need_consts = mode == "faithful" or any(
        v != 0 for col in b_cols + bp_cols for v in col)

    tag, last = stages[-1]
    base = 2 * r if need_consts else 0
    if need_consts:
        consts = []
        for k in range(r):
            consts.append(_const_row_head([b_cols[i][k] for i in range(p)],
                                          _stage_in_rows(last), p, opts.masked))
        for k in range(r):
            consts.append(_const_row_head([bp_cols[i][k] for i in range(p)],
                                          _stage_in_rows(last), p, opts.masked))
        new_sel = [{k: Fraction(1)} for k in range(2 * r)]
        new_sel += [{h + 2 * r: v for h, v in row.items()} for row in last.sel]
        last = _Stage(consts + last.heads, new_sel, last.content, last.var_rows,
                      last.residual)
        stages[-1] = (tag, last)

    # stack: pass-through offset rows, then the per-column gadgets
    parts = []
    if need_consts:
        parts.append((list(range(r)), ffn_affine(Mat.identity(r))))
        parts.append((list(range(r, 2 * r)), ffn_affine(Mat.identity(r))))
    for j in range(p):
        idx = [base + offsets[j] + t for t in range(widths[j])]
        for g in gadgets[j]:
            parts.append((idx, g))
    lhat = ffn_stack(base + layout.total_rows, parts)

    psi_entries = {}
    for i in range(r):
        if need_consts:
            psi_entries[(i, i)] = Fraction(1)
            psi_entries[(i, r + i)] = Fraction(-1)
        for j in range(p):
            psi_entries[(i, base + j * r + i)] = Fraction(1)
    psi = ffn_affine(_sparse(r, base + p * r, psi_entries))

    # the affine selection merges into the readout's first layer
    final_ffn = ffn_compose(ffn_compose(last.selection(), lhat), psi)
    final_block = EncoderBlock(MultiheadAttention(tuple(last.heads)), final_ffn)

    blocks = tuple(st.finish() for _, st in stages[:-1]) + (final_block,)
    prov = tuple(t for t, _ in stages[:-1]) + (
        stages[-1][0] + "+readout(max-min net, recombine)"
        + ("+offset-const-heads" if need_consts else ""),)
    stats = {"blocks": len(blocks),
             "heads_per_block": [len(b.attn.heads) for b in blocks],
             "rows": layout.total_rows,
             "depth": sum(b.ffn.depth for b in blocks) + len(blocks)}
    return CompiledEncoder(
        blocks=blocks, layout=layout, n=n, p=p, out_rows=r,
        masked=opts.masked, mode=mode, stages=_num_stages_from(stages),
        provenance=prov, stats=stats)


def _stage_in_rows(stage: _Stage) -> int:
    return stage.heads[0].n


def _check_autoregressive(spline: SplineGrid):
    for j in range(1, spline.p + 1):
        for f in spline.column(j):
            for (i, c) in f.variables():
                if c > j:
                    raise NotAutoregressiveError(
                        f"output column {j} reads x_{i}_{c} from a later column")


def compile_autoregressive(spline: SplineGrid,
                           opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Masked compilation: every head masked, per-column monomials
    restricted to columns already seen."""
    opts = CompileOptions(mode=opts.mode, masked=True, residual=opts.residual,
                          row_cap=opts.row_cap)
    return compile_spline(spline, opts)
