"""Compile max-min spline forms into explicit ReLU-encoder weights.

The pipeline builds, per column, a block-diagonal stack of monomial rows
(doubling the attainable degree with every quadratic stage), then reads
the target functions off with a max-min network and a final recombining
affine map.  Everything is exact rational arithmetic, so compiled
encoders agree with the source forms identically, not approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Sequence

from .spline import ONE, Monomial, PBForm, SplineGrid
from .tensor import RATIONAL, Mat, ShapeError, add, matmul
from .transformer import (EncoderBlock, FeedForwardNet, EncoderModel, MultiheadAttention, RELU,
                          pass_through)
from .veronese import factor_pair, graded_lex_monomials


class ResourceLimitError(RuntimeError):
    """Faithful construction would exceed the intermediate row cap."""


# Intermediate rows a faithful stage may ask for.
ROW_CAP = 20000


class NotAutoregressiveError(ValueError):
    """Masked compilation requested for a column that reads later columns."""


# -- feed-forward assembly helpers -------------------------------------------

def _sparse(rows: int, cols: int, entries: dict) -> Mat:
    """The rows x cols matrix of the {(row, col): value} entries; a zero
    value (a signed sum can cancel) is dropped."""
    nz = [[] for _ in range(rows)]
    for (r, c), v in sorted(entries.items()):
        if v:
            nz[r].append((c, Fraction(v)))
    return Mat(RATIONAL, tuple(map(tuple, nz)), cols)


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


# -- max-min networks ----------------------------------------------------------

def _maxmin_ffn(forms: Sequence[tuple], width: int) -> FeedForwardNet:
    """Net computing every form of the (form, coord) pairs, the max over
    its rows of the min within each row, one output row per form, on
    affine pieces: coord(mon) is the input row a monomial's coefficient
    multiplies, or None for the bias.

    Candidates are sparse affine rows ({col: coef}, bias).  Every level
    reduces all forms in lockstep, pairwise: first the min within each
    row, then the max over the row minima.  min(a,b) = a - relu(a-b);
    max(a,b) = a + relu(b-a); a lone candidate (and so a form already
    reduced) passes as relu(a) - relu(-a).  A level makes one unit per
    distinct pre-activation row (value numbering): a constant row is
    relu(bias), folded into the reading candidate's bias, and a unit no
    candidate reads (its coefficients cancel) is not made.
    """
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
        made = {}  # this level's distinct pre-activation rows: key -> (id, coefs, bias)

        def feature(*signed) -> tuple:
            # (id of the row, bias), or (None, bias) for the constant relu(bias)
            coefs, bias = {}, Fraction(0)
            for (cand, b), sign in signed:  # sign is 1 or -1
                for c, v in cand.items():
                    v = v if sign > 0 else -v
                    coefs[c] = coefs[c] + v if c in coefs else v
                bias += b if sign > 0 else -b
            coefs = {c: v for c, v in sorted(coefs.items()) if v}
            if not coefs:
                return None, bias
            # keyed in integers, since hashing a Fraction is slow
            key = (*((c, v.numerator, v.denominator) for c, v in coefs.items()),
                   bias.numerator, bias.denominator)
            return made.setdefault(key, (len(made), coefs, bias))[0], bias

        for f, rows in enumerate(state):
            is_min = any(len(row) > 1 for row in rows)
            sign = -1 if is_min else 1
            reduced = []
            for group in rows if is_min else [[c for row in rows for c in row]]:
                out = []
                for k in range(0, len(group), 2):
                    a, coefs, bias = group[k], {}, Fraction(0)
                    units = [(feature((a, 1)), 1), (feature((a, -1)), -1)]
                    if k + 1 < len(group):
                        units.insert(0, (feature((a, -sign), (group[k + 1], sign)), sign))
                    for (i, b), v in units:
                        if i is None:
                            bias += v * max(b, 0)
                        else:
                            coefs[i] = coefs.get(i, 0) + v
                    out.append(({i: v for i, v in coefs.items() if v}, bias))
                reduced += [out] if is_min else [[c] for c in out]
            state[f] = reduced
        # this level's units: the rows some candidate reads, in first-read order
        live = list(dict.fromkeys(i for rows in state for row in rows for cs, _ in row for i in cs))
        index, feats = {i: k for k, i in enumerate(live)}, list(made.values())
        state = [[[({index[i]: v for i, v in coefs.items()}, bias) for coefs, bias in row]
                  for row in rows] for rows in state]
        if live:
            layers.append(layer([feats[i][1:] for i in live], cols))
            cols = len(live)
    return FeedForwardNet(tuple(layers) + (layer([rows[0][0] for rows in state], cols),))


def linear_spline_to_ffn(forms, in_dim: int) -> FeedForwardNet:
    """Exact network for max-min forms whose pieces are affine.

    `forms` is a single PBForm or a sequence of them over column-vector
    variables x_1_1 .. x_<in_dim>_1; the result computes all of them,
    one output row each.
    """
    if isinstance(forms, PBForm):
        forms = [forms]

    def coord(mon):
        if mon == ONE:
            return None
        (i, j), _ = mon.exps[0]
        if j != 1 or i > in_dim:
            raise ValueError(f"variable x_{i}_{j} outside vector of length {in_dim}")
        return i - 1

    for f in forms:
        if f.degree > 1:
            raise ValueError(f"affine pieces required, got degree {f.degree}")
    return _maxmin_ffn([(f, coord) for f in forms], in_dim)


# -- attention layers -----------------------------------------------------------

def _layer(keys, in_rows: int, p: int, masked: bool) -> MultiheadAttention:
    """The layer of one-row ReLU heads that stage keys name (0-based
    indices), in order: ("const", j), whose output row is 1 at column j
    for every input; ("copy", r, c, j), whose output row holds entry (r, c)
    at column j, zeros elsewhere; ("quad", a, b, j, sign), whose output row
    holds u_a * relu(sign * u_b) at column j when row b is nonzero only in
    that column.

    Const and copy heads take their pattern from the biases alone (B_Q
    picks column j, B_K column c, and c = 0 for const), quad heads from
    row b of the input, so heads of one (pattern, columns) key share a
    group; the layer is built as its stored maps, with no one-head layers."""
    one = Fraction(1)
    index, patterns, table, a_v, b_v = {}, [], [], [], []
    for kind, *idx in keys:
        if kind == "quad":
            a, b, j, sign = idx
            pattern, av, bv = ("quad", b, sign, j), ((a, one),), ()
        elif kind == "copy":
            r, c, j = idx
            pattern, av, bv = ("bias", j, c), ((r, one),), ()
        else:
            pattern, av, bv = ("bias", idx[0], 0), (), ((0, one),)
        if pattern not in index:
            index[pattern] = len(patterns)
            patterns.append(pattern)
        table.append(index[pattern])
        a_v.append(av)
        b_v.append(bv)
    a_q, b_q, b_k = [], [], []
    for kind, *idx in patterns:
        if kind == "quad":
            b, sign, j = idx
            a_q.append(((b, Fraction(sign)),))
            b_q.append(())
            b_k.append(((j, one),))
        else:
            j, c = idx
            a_q.append(())
            b_q.append(((j, one),))
            b_k.append(((c, one),))
    return MultiheadAttention(
        Mat(RATIONAL, tuple(a_q), in_rows), Mat(RATIONAL, tuple(b_q), p),
        Mat.zeros(len(patterns), in_rows), Mat(RATIONAL, tuple(b_k), p),
        Mat(RATIONAL, tuple(a_v), in_rows), Mat(RATIONAL, tuple(b_v), p),
        table, [(1, masked, False, RELU)] * len(patterns))


# -- layouts --------------------------------------------------------------------

class MonomialLayout:
    """The symbolic value of an intermediate matrix: the raw n x p input
    (columns None), or per column a block of monomial rows (None where
    identically zero), stacked block-diagonally, so each row is nonzero
    only in its own column.  Maps (monomial, column) to the first row
    holding it; columns are 1-based in `row_of`, `locate` and `entries`."""

    def __init__(self, n: int, p: int,
                 columns: Optional[Sequence[Sequence[Optional[Monomial]]]] = None):
        self.n = n
        self.p = p
        self.columns = None if columns is None else tuple(tuple(col) for col in columns)
        self.block_spans = []
        self._rows: dict = {}
        self._slots = []  # per row: (0-based column, monomial)
        for j, col in enumerate(self.columns or ()):
            self.block_spans.append((len(self._slots), len(self._slots) + len(col)))
            for mon in col:
                if mon is not None:
                    self._rows.setdefault((mon, j + 1), len(self._slots))
                self._slots.append((j, mon))
        self.total_rows = n if columns is None else len(self._slots)

    def row_of(self, mon: Monomial, col: int) -> int:
        return self._rows[(mon, col)]

    def locate(self, mon: Monomial, col: int) -> Optional[tuple]:
        """The 0-based entry (row, column) holding `mon` that column `col`
        reads, or None: on the raw input variable x_i_c is entry (i - 1,
        c - 1), whatever the column; on stacked blocks, mon's row in column
        col's block."""
        if self.columns is None:
            if mon.degree != 1:
                return None
            (i, c), _ = mon.exps[0]
            return i - 1, c - 1
        r = self._rows.get((mon, col))
        return None if r is None else (r, col - 1)

    def entry(self, r: int, c: int) -> Optional[Monomial]:
        """Symbolic value of matrix entry (r, c), 0-based."""
        if self.columns is None:
            return Monomial.variable(r + 1, c + 1)
        j, mon = self._slots[r]
        return mon if j == c else None

    def entries(self):
        for (m, c), r in sorted(self._rows.items(), key=lambda kv: kv[1]):
            yield m, c, r

    def to_json(self):
        return [{"monomial": {f"x_{i}_{j}": e for (i, j), e in m.exps},
                 "column": c, "row": r} for m, c, r in self.entries()]


def _grlex_key(m: Monomial, varlist: Sequence[tuple]):
    exps = dict(m.exps)
    return (m.degree, tuple(-exps.get(v, 0) for v in varlist))


# -- stages -----------------------------------------------------------------------

@dataclass
class _Stage:
    attn: MultiheadAttention
    sel: list          # selection rows (coef per head) for each output slot
    layout: MonomialLayout

    def block(self, *readout: FeedForwardNet) -> EncoderBlock:
        """The stage's encoder block: the affine map from head outputs to
        the stage's slots (an affine map is already a linear spline, so it
        needs no hidden layer), followed by the `readout` nets."""
        entries = {(r, h): v for r, row in enumerate(self.sel) for h, v in row.items()}
        ffn = ffn_affine(_sparse(len(self.sel), len(self.attn.table), entries))
        for net in readout:
            ffn = ffn_compose(ffn, net)
        return EncoderBlock(self.attn, ffn)


def _emit(src: MonomialLayout, columns, masked: bool, keys=()) -> _Stage:
    """The stage reading `src` whose output column j stacks the slots of
    columns[j], each a (monomial, {head key: coef}) pair: the slot's row
    is the sum of coef times the head's output.  Heads are emitted in the
    order of `keys`, then in the order the slots first name them."""
    index: dict = {}  # head key -> head index, in head order

    def head(key) -> int:
        return index.setdefault(key, len(index))

    for key in keys:
        head(key)
    sel = [{head(key): c for key, c in coefs.items()} for col in columns for _, coefs in col]
    layout = MonomialLayout(src.n, src.p, [[m for m, _ in col] for col in columns])
    return _Stage(_layer(index, src.total_rows, src.p, masked), sel, layout)


def _guard(*quantities: int):
    worst = max(quantities)
    if worst > ROW_CAP:
        raise ResourceLimitError(
            f"faithful construction needs {worst} intermediate rows "
            f"(cap {ROW_CAP}); use pruned mode")


def _copy_pass(src: MonomialLayout, masked: bool) -> _Stage:
    """The faithful copy pass: column j's block holds a constant row, then
    a copy of every entry of `src` the column may read."""
    p, rows = src.p, src.total_rows
    _guard(rows * p * p + p, p * (rows * p + 1))
    keys = [("copy", r, c, j) for r in range(rows) for c in range(p) for j in range(p)
            if not (masked and c > j)] + [("const", j) for j in range(p)]
    columns = [[(ONE, {("const", j): 1})]
               + [(src.entry(r, c), {("copy", r, c, j): 1})
                  for r in range(rows) for c in range(p) if not (masked and c > j)]
               for j in range(p)]
    return _emit(src, columns, masked, keys)


def _product(j: int, ra: int, rb: int) -> dict:
    """The slot of row ra times row rb at column j: u_a * relu(u_b) -
    u_a * relu(-u_b) = u_a u_b, zero outside column j because row rb is."""
    return {("quad", ra, rb, j, 1): 1, ("quad", ra, rb, j, -1): -1}


def _product_pass(blocks: MonomialLayout, src: MonomialLayout, masked: bool) -> _Stage:
    """The faithful product pass over `blocks`, the output of the copy pass
    that read `src`: every product of the entries of `src` the column may
    read, from the copies, after the constant and the copies themselves,
    with the head for every row pair."""
    p, rows = src.p, blocks.total_rows
    yvars = [(r, c) for r in range(src.total_rows) for c in range(p)]
    _guard(2 * rows * rows * p, p * math.comb(len(yvars) + 2, 2))
    allowed = [[(r, c) for r, c in yvars if not (masked and c > j)] for j in range(p)]
    # the copy pass holds allowed[j][k] on row k + 1 of column j's block
    var_row = [{v: blocks.block_spans[j][0] + 1 + k for k, v in enumerate(allowed[j])}
               for j in range(p)]
    keys = [("copy", var_row[j][v], j, j) for v in yvars for j in range(p)
            if v in var_row[j]] + [("const", j) for j in range(p)]
    for j, (lo, hi) in enumerate(blocks.block_spans):
        pairs = range(lo, hi) if masked else range(rows)
        keys += [("quad", a, b, j, sign) for a in pairs for b in pairs for sign in (1, -1)]
    columns = []
    for j in range(p):
        xs = [(src.entry(*v), var_row[j][v]) for v in allowed[j]]
        columns.append([(ONE, {("const", j): 1})]
                       + [(x, {("copy", r, j, j): 1}) for x, r in xs]
                       + [(xa.mul(xb) if xa is not None and xb is not None else None,
                           _product(j, ra, rb))
                          for i, (xa, ra) in enumerate(xs) for xb, rb in xs[i:]])
    return _emit(blocks, columns, masked, keys)


def _pruned_pass(src: MonomialLayout, targets, cap_deg: int, masked: bool) -> _Stage:
    """The pruned pass reading `src` whose column j's block holds
    targets[j].  A slot is the constant head, a copy of the entry of `src`
    holding the monomial, or else the product of the rows holding its
    `factor_pair` at `cap_deg`."""
    def slot(mon, j) -> dict:
        if mon == ONE:
            return {("const", j): 1}
        at = src.locate(mon, j + 1)
        if at is not None:
            return {("copy", *at, j): 1}
        a, b = (src.locate(m, j + 1) for m in factor_pair(mon, cap_deg))
        # a product's rows must be zero outside column j: every block row
        # is, and a raw input row only at p = 1
        if None in (a, b) or src.columns is None and src.p > 1:
            raise KeyError(f"factors of {mon!r} missing from column {j + 1}")
        return _product(j, a[0], b[0])

    return _emit(src, [[(mon, slot(mon, j)) for mon in targets[j]] for j in range(src.p)],
                 masked)


# -- compiled artifacts -----------------------------------------------------------

@dataclass(frozen=True)
class CompileOptions:
    mode: str = "auto"        # faithful | pruned | auto
    masked: bool = False


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

    @property
    def stats(self) -> dict:
        return {"blocks": len(self.blocks),
                "heads_per_block": [len(b.attn.table) for b in self.blocks],
                "rows": self.layout.total_rows,
                "depth": sum(b.ffn.depth for b in self.blocks) + len(self.blocks)}

    def __call__(self, x: Mat) -> Mat:
        return EncoderModel(self.blocks)(x)

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
                 mode: str) -> list:
    """The (provenance tag, stage) list of the monomial stages up to degree
    s.  Faithful mode runs a copy pass and a product pass per stage and
    reads no target sets; pruned mode works its target sets back from
    `targets_final`, per column, and runs one pruned pass per set."""
    masked = opts.masked
    num = _num_stages(s)
    src = MonomialLayout(n, p)
    stages = []
    if mode == "faithful":
        for _ in range(num):
            copy = _copy_pass(src, masked)
            stages.append(("linear-copy-pass", copy))
            if s > 1:
                quad = _product_pass(copy.layout, src, masked)
                stages.append(("quadratic-product-pass", quad))
                src = quad.layout
        return stages
    # per column, sets[i + 1] is what the product pass of stage i builds
    # (sets[num] is the targets) from the rows of sets[i]; sets[0] is a copy
    # of the raw input's variables.  A linear spline's one pass copies
    # sets[1] off the raw input, and at p = 1 the raw input already is
    # column 1's block of sets[0], so neither works out sets[0]
    start = 0 if p >= 2 and s >= 2 else 1
    sets = [None] * (num + 1)
    sets[num] = [list(targets_final[j]) for j in range(p)]
    for i in range(num - 1, start - 1, -1):
        prev_cap = 2 ** i
        needed = [set() for _ in range(p)]
        for j in range(p):
            for mon in sets[i + 1][j]:
                if mon.degree == 0:
                    continue
                if mon.degree <= prev_cap:
                    needed[j].add(mon)
                else:
                    needed[j].update(factor_pair(mon, prev_cap))
        sets[i] = [sorted(needed[j],
                          key=lambda m: _grlex_key(m, _allowed_vars(n, p, j + 1, masked)))
                   for j in range(p)]
    for i in range(start, num + 1):
        # pass i multiplies rows of sets[i - 1], of degree at most 2 ** (i - 1)
        stage = _pruned_pass(src, sets[i], 2 ** i // 2, masked)
        stages.append(("quadratic-product-pass" if i and s > 1 else "linear-copy-pass", stage))
        src = stage.layout
    return stages


def _finish(stages, n: int, p: int, s: int, opts: CompileOptions, mode: str,
            out_rows: Optional[int] = None, readout=(), tail: str = "") -> CompiledEncoder:
    """The compiled encoder of the stages; the last stage's block runs the
    `readout` nets after its selection, and its provenance tag gains `tail`."""
    *front, (tag, last) = stages
    return CompiledEncoder(
        blocks=tuple(st.block() for _, st in front) + (last.block(*readout),),
        layout=last.layout, n=n, p=p,
        out_rows=last.layout.total_rows if out_rows is None else out_rows,
        masked=opts.masked, mode=mode, stages=_num_stages(s),
        provenance=tuple(t for t, _ in front) + (tag + tail,))


def build_eps2(n: int, p: int, opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Two encoder blocks whose output stacks, per column, every monomial
    of degree <= 2 in the input entries (block-diagonal copies)."""
    return build_veronese_encoder(n, p, 2, opts)


def build_veronese_encoder(n: int, p: int, s: int,
                           opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Encoder whose output carries all monomials of degree <= s per column,
    using ceil(log2 s) quadratic doubling stages."""
    if s < 1:
        raise ValueError("degree must be >= 1")
    mode = _resolve_mode(opts.mode, s, p)
    targets = [graded_lex_monomials(_allowed_vars(n, p, j, opts.masked), s)
               for j in range(1, p + 1)]
    return _finish(_build_chain(n, p, s, targets, opts, mode), n, p, s, opts, mode)


def ffn_block_form(phi: FeedForwardNet, n: int, p: int) -> EncoderBlock:
    """Rewrite a one-hidden-layer net, applied columnwise, as a single
    encoder block: copy heads expose each column on its own rows, and the
    net is precomposed with the column-summing left inverse."""
    if phi.hidden_layers != 1:
        raise ValueError(f"need exactly one hidden layer, got {phi.hidden_layers}")
    if phi.in_dim != n:
        raise ShapeError(f"net reads {phi.in_dim} rows, block input has {n}")
    heads = _layer([("copy", i, j, j) for j in range(p) for i in range(n)], n, p, False)
    entries = {(i, j * n + i): Fraction(1) for j in range(p) for i in range(n)}
    psi = ffn_affine(_sparse(n, n * p, entries))
    return EncoderBlock(heads, ffn_compose(psi, phi))


def ffn_to_encoder_blocks(phi: FeedForwardNet, n: int, p: int) -> tuple:
    """Split a multi-hidden-layer net into a chain of one-hidden-layer
    encoder blocks (applying ffn_block_form once per hidden layer)."""
    if phi.hidden_layers == 0:
        phi = FeedForwardNet(pass_through(*phi.layers[0]))
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


def compile_spline(spline: SplineGrid, opts: CompileOptions = CompileOptions()) -> CompiledEncoder:
    """Emit encoder weights computing the grid exactly.

    Pipeline: monomial stages up to the grid degree, then one max-min
    readout network and a recombining affine map folded into the
    final block's feed-forward net.
    """
    n, p, r = spline.n, spline.p, spline.r
    if opts.masked:
        _check_autoregressive(spline)
    s = max(1, spline.degree)
    mode = _resolve_mode(opts.mode, s, p)

    targets = []
    for j in range(1, p + 1):
        support = set().union(*(f.support() for f in spline.column(j))) or {ONE}
        targets.append(sorted(support,
                              key=lambda m: _grlex_key(m, _allowed_vars(n, p, j, opts.masked))))
    stages = _build_chain(n, p, s, targets, opts, mode)
    layout = stages[-1][1].layout

    # one readout net over the last layout, one output row per (column,
    # output row) form; every monomial has a row there, the constant too
    # (each block's 1-row), so every piece is linear in the rows
    forms = [(f, lambda mon, j=j: layout.row_of(mon, j))
             for j in range(1, p + 1) for f in spline.column(j)]
    lhat = _maxmin_ffn(forms, layout.total_rows)
    psi = ffn_affine(_sparse(r, p * r, {(i, j * r + i): 1 for i in range(r) for j in range(p)}))

    # the affine selection merges into the readout's first layer
    return _finish(stages, n, p, s, opts, mode, out_rows=r, readout=(lhat, psi),
                   tail="+readout(max-min net, recombine)")


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
    return compile_spline(spline, replace(opts, masked=True))
