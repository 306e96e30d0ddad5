"""Sparse matrices over exact rationals or binary64 floats.

Every value is immutable after construction.  The rational backend does
exact arithmetic through `fractions.Fraction` and never holds -inf; the
float backend admits -inf, because the weights format spells "-inf".
Attention scores are plain lists, not matrices: a pass masks and
activates them in `transformer`, through the scalar helpers below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, float]

RATIONAL = "rational"
FLOAT = "float"

NEG_INF = float("-inf")

_ZEROS = {RATIONAL: Fraction(0), FLOAT: 0.0}


class ShapeError(ValueError):
    """Matrix dimensions do not line up for the requested operation."""


class BackendError(ValueError):
    """Operation applied to a matrix with an unsupported scalar backend."""


class DegenerateColumnError(ValueError):
    """SoftMax column with no finite entry."""


class FormatError(ValueError):
    """A JSON document (weights or spline) is not shaped as its reader expects."""


def json_field(obj, key: str, kind, where: str):
    """obj[key], where obj must be a JSON object and the value a `kind`;
    a bool is one only when `kind` is bool (JSON true and false are not
    numbers)."""
    if not isinstance(obj, dict):
        raise FormatError(f"{where} must be a JSON object, got {type(obj).__name__}")
    value = obj.get(key)
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, kind):
        raise FormatError(f"{where} has no valid {key!r}, got {type(value).__name__}")
    return value


@lru_cache(maxsize=1024)
def _parse_rational(text: str) -> Fraction:
    """Fraction(text), parsed once per distinct string: a weights file
    repeats a few strings many times, and a Fraction is immutable, so one
    can be shared by every entry that spells it."""
    return Fraction(text)


def _coerce_rational(x) -> Fraction:
    if isinstance(x, str):
        return _parse_rational(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise BackendError(f"cannot place {x!r} in a rational matrix")


def _coerce_float(x) -> float:
    if isinstance(x, str):
        if x == "-inf":
            return NEG_INF
        return float(_parse_rational(x))
    return float(x)


@dataclass(frozen=True)
class Mat:
    """Row-major matrix that keeps only its nonzero entries: `nz` holds,
    per row, the (column, value) pairs of its nonzeros in column order, and
    `cols` the width.  Equal matrices have equal fields."""

    backend: str
    nz: tuple
    cols: int

    def __post_init__(self):
        if self.backend not in (RATIONAL, FLOAT):
            raise BackendError(f"unknown backend {self.backend!r}")
        if not self.nz or self.cols < 1:
            raise ShapeError("matrices must have at least one row and column")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def dense(backend: str, rows: Sequence[Sequence]) -> "Mat":
        """The matrix of equal-width dense rows."""
        width = len(rows[0]) if rows else 0
        if any(len(row) != width for row in rows):
            raise ShapeError("ragged rows")
        return Mat(backend, nonzero_rows(rows), width)

    @staticmethod
    def rational(rows: Iterable[Iterable]) -> "Mat":
        return Mat.dense(RATIONAL, [[_coerce_rational(x) for x in row] for row in rows])

    @staticmethod
    def from_floats(rows: Iterable[Iterable]) -> "Mat":
        return Mat.dense(FLOAT, [[_coerce_float(x) for x in row] for row in rows])

    @staticmethod
    def zeros(rows: int, cols: int, backend: str = RATIONAL) -> "Mat":
        return Mat(backend, ((),) * rows, cols)

    @staticmethod
    def identity(n: int, backend: str = RATIONAL) -> "Mat":
        one = Fraction(1) if backend == RATIONAL else 1.0
        return Mat(backend, tuple(((i, one),) for i in range(n)), n)

    @staticmethod
    def basis(rows: int, cols: int, i: int, j: int, backend: str = RATIONAL) -> "Mat":
        """Standard basis matrix with a one in (i, j), 1-based."""
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ShapeError(f"basis index ({i},{j}) outside {rows}x{cols}")
        one = Fraction(1) if backend == RATIONAL else 1.0
        return Mat(backend, tuple(((j - 1, one),) if r == i - 1 else () for r in range(rows)), cols)

    # -- views ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return len(self.nz)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple:
        """The dense rows, built on each read."""
        return tuple(map(tuple, _filled(self, _ZEROS[self.backend], lambda v: v)))

    def at(self, i: int, j: int) -> Scalar:
        """0-based entry access."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} outside {self.cols}")
        return dict(self.nz[i]).get(j, _ZEROS[self.backend])

    def col_entries(self, j: int) -> tuple:
        return tuple(self.at(i, j) for i in range(self.rows))

    def to_float(self) -> "Mat":
        if self.backend == FLOAT:
            return self
        # a nonzero rational can round to 0.0
        return Mat(FLOAT, tuple(tuple((c, f) for c, v in row if (f := float(v)))
                                for row in self.nz), self.cols)

    def __repr__(self):
        return f"Mat({self.backend}, {self.rows}x{self.cols})"


def _require_same_backend(a: Mat, b: Mat, op: str):
    if a.backend != b.backend:
        raise BackendError(f"{op}: mixed backends {a.backend}/{b.backend}")


def nonzero_rows(rows: Sequence) -> tuple:
    """Per row, the (column, value) pairs of its nonzero entries."""
    return tuple(tuple((c, v) for c, v in enumerate(row) if v) for row in rows)


def sparse_product(rows: Sequence, bdata: Sequence, width: int, zero: Scalar) -> list:
    """Row lists of the product of sparse rows (as from `nonzero_rows`)
    with the dense rows `bdata` of a matrix `width` columns wide.

    Terms are summed in column order and zero terms are skipped, so the
    float result does not depend on how the left factor is stored.  The
    first term of a sum replaces the starting zero instead of being added
    to it (`t or zero` is 0 + t, also for t = -0.0), which saves one
    `Fraction` addition per entry.
    """
    out = []
    for nz in rows:
        acc = [zero] * width
        for k, c in nz:
            for j, v in enumerate(bdata[k]):
                if v:
                    a = acc[j]
                    acc[j] = (c * v or zero) if a is zero else a + c * v
        out.append(acc)
    return out


def _collect(terms) -> tuple:
    """The nonzero sums of (col, value) terms, in column order; the terms
    of a column are added in the order given."""
    acc = {}
    for j, v in terms:
        acc[j] = acc[j] + v if j in acc else v
    return tuple(sorted((j, s) for j, s in acc.items() if s))


def matmul(a: Mat, b: Mat) -> Mat:
    """a b on the nonzeros, each entry summed in the order of the inner
    index, as `sparse_product` sums it."""
    _require_same_backend(a, b, "matmul")
    if a.cols != b.rows:
        raise ShapeError(f"matmul: {a.shape} x {b.shape}")
    return Mat(a.backend, tuple(_collect((j, c * v) for k, c in row for j, v in b.nz[k])
                                for row in a.nz), b.cols)


def add(a: Mat, b: Mat) -> Mat:
    _require_same_backend(a, b, "add")
    if a.shape != b.shape:
        raise ShapeError(f"add: {a.shape} vs {b.shape}")
    return Mat(a.backend, tuple(_collect(ra + rb) for ra, rb in zip(a.nz, b.nz)), a.cols)


def scale(a: Mat, c: Scalar) -> Mat:
    return Mat(a.backend, tuple(tuple((j, w) for j, v in row if (w := c * v)) for row in a.nz),
               a.cols)


def stack_rows(parts: Sequence[Mat]) -> Mat:
    """Vertically stack matrices sharing a column count."""
    if not parts:
        raise ShapeError("stack_rows: empty list")
    width = parts[0].cols
    backend = parts[0].backend
    for m in parts[1:]:
        if m.cols != width:
            raise ShapeError(f"stack_rows: column mismatch {m.cols} vs {width}")
        if m.backend != backend:
            raise BackendError("stack_rows: mixed backends")
    return Mat(backend, tuple(row for m in parts for row in m.nz), width)


def _softmax_column(entries: Sequence[float], j: int) -> list:
    """Softmax of score column j, entries in row order: shifted by the
    largest finite entry, summed in row order; -inf entries map to exactly 0."""
    finite = [x for x in entries if x != NEG_INF]
    if not finite:
        raise DegenerateColumnError(f"column {j} is entirely -inf")
    top = max(finite)
    exps = [0.0 if x == NEG_INF else math.exp(x - top) for x in entries]
    total = sum(exps)
    return [e / total for e in exps]


def _softplus_scalar(x: float, beta: float) -> float:
    z = beta * x
    if z > 0:
        return x + math.log1p(math.exp(-z)) / beta
    return math.log1p(math.exp(z)) / beta


# -- JSON wire format ----------------------------------------------------

def _filled(m: Mat, zero, spell) -> list:
    """The rows of m as dense lists: spell(v) for each nonzero v, zero elsewhere."""
    out = []
    for row in m.nz:
        dense = [zero] * m.cols
        for c, v in row:
            dense[c] = spell(v)
        out.append(dense)
    return out


def mat_to_json(m: Mat):
    """Array-of-rows; rationals as "p/q" strings, floats as numbers, -inf as "-inf"."""
    if m.backend == RATIONAL:
        return _filled(m, "0", str)
    return _filled(m, 0.0, lambda x: "-inf" if x == NEG_INF else x)


def _entry(v, is_float: bool) -> Scalar:
    """The value of JSON matrix entry v, in a matrix read as float so far
    when is_float: a float if the matrix is float or v makes it one (a
    JSON float or "-inf"), else a `Fraction`.  An entry that is not a
    number or a rational string raises BackendError."""
    if type(v) is float or v == "-inf":
        return _coerce_float(v)
    if type(v) is not str and type(v) is not int:
        raise BackendError(f"matrix entry {v!r} is not a number or a rational string")
    return _coerce_float(v) if is_float else _coerce_rational(v)


def _read_mat(out: list, cols: int, is_float: bool) -> Mat:
    """The matrix of the (col, value) rows an entry-by-entry reader built:
    once it met a float, the entries it read before as rationals are
    rounded, and one that rounds to 0.0 is dropped."""
    if is_float:
        out = [tuple((c, x) for c, v in row if (x := float(v))) for row in out]
    return Mat(FLOAT if is_float else RATIONAL, tuple(out), cols)


def mat_from_json(obj) -> Mat:
    """Inverse of `mat_to_json`, read in one pass over the entries.  The
    matrix is read as float only when it holds a JSON float or "-inf";
    integers and strings are exact rationals.  A row that is not a list
    raises FormatError as it is met; of the other faults, an entry of the
    wrong type (BackendError) is reported first, then the first entry
    that does not parse or, in a float matrix, overflows, then ragged
    rows (ShapeError)."""
    if type(obj) is not list:
        raise ShapeError(f"a matrix must be a list of rows, got {type(obj).__name__}")
    width = len(obj[0]) if obj and type(obj[0]) is list else 0
    out, is_float, ragged, bad_type, bad_value = [], False, False, None, None
    for row in obj:
        if type(row) is not list:
            raise FormatError(f"a matrix row must be a list, got {type(row).__name__}")
        ragged = ragged or len(row) != width
        nz = []
        for c, v in enumerate(row):
            if v != "0":
                try:
                    x = _entry(v, is_float)
                except BackendError as exc:
                    bad_type = bad_type or exc
                    continue
                except (ArithmeticError, ValueError) as exc:
                    bad_value = bad_value or exc
                    continue
                if type(x) is float:
                    is_float = True
                if x:
                    nz.append((c, x))
        out.append(tuple(nz))
    if bad_type or bad_value:
        raise bad_type or bad_value
    m = _read_mat(out, width, is_float)
    if ragged:
        raise ShapeError("ragged rows")
    return m


def sparse_to_json(m: Mat):
    """{"cols": width, "rows": per row the [col, value] pairs of its
    nonzeros}, values spelled as by `mat_to_json`; a float matrix also
    says "float": true, which a matrix of no nonzeros needs."""
    if m.backend == RATIONAL:
        return {"cols": m.cols, "rows": [[[c, str(v)] for c, v in row] for row in m.nz]}
    return {"cols": m.cols, "float": True,
            "rows": [[[c, "-inf" if v == NEG_INF else v] for c, v in row] for row in m.nz]}


def sparse_from_json(obj) -> Mat:
    """Inverse of `sparse_to_json`; zero entries are dropped.  The matrix
    is read as float only when it says so or holds a JSON float or "-inf"."""
    cols = json_field(obj, "cols", int, "a sparse matrix")
    rows = json_field(obj, "rows", list, "a sparse matrix")
    is_float = "float" in obj and json_field(obj, "float", bool, "a sparse matrix")
    out = []
    for row in rows:
        if type(row) is not list:
            raise FormatError("a sparse row must be a list of [column, value] pairs")
        nz, last = [], -1
        for e in row:
            if type(e) is not list or len(e) != 2:
                raise FormatError("a sparse row must be a list of [column, value] pairs")
            c, v = e
            if type(c) is not int or not last < c < cols:
                if type(c) is int and not 0 <= c < cols:
                    raise ShapeError(f"sparse row column outside 0..{cols - 1}")
                raise FormatError("sparse row columns must be increasing integers")
            last = c
            x = _entry(v, is_float)
            if type(x) is float:
                is_float = True
            if x:
                nz.append((c, x))
        out.append(tuple(nz))
    return _read_mat(out, cols, is_float)
