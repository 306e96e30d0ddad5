"""Sparse-monomial polynomials, max-min spline forms, and the lattice
expression language used to author them.

Coefficients are exact rationals throughout, so every evaluation here is
an exact oracle.  Variables are matrix coordinates (i, j), 1-based.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Sequence

from .tensor import FormatError, Mat, Scalar, json_field


class VariableRangeError(ValueError):
    """A polynomial mentions a variable outside the input shape."""


class UnsupportedProductError(ValueError):
    """Product whose factors both contain max/min; not reducible here."""


class FormSizeError(RuntimeError):
    """A spline document asks for more than a cap allows: a max-min form
    above MAX_FORM_SIZE, a monomial above MAX_DEGREE, or an input of more
    than MAX_INPUT_ENTRIES entries."""


# Polynomials in one max-min form, summed over its rows.  Min, sum and
# negation multiply sizes, so a short expression can ask for billions;
# each is sized from its operands, themselves absorbed, before anything
# is built, so the cap measures a result before it is absorbed.  The
# readout network compiled from a form keeps only its nonzero weights:
# min of 8 two-way maxes (256 rows, 2048 polynomials, 17k nonzero of 6.3M
# feed-forward entries) compiles in about 0.07 s and 22 MB, min of 9
# (4608 polynomials, 45k nonzero of 45M) in about 0.2 s and 28 MB
# (2-vCPU Xeon VM, Python 3.11, one process under `ulimit -v`).
MAX_FORM_SIZE = 1 << 12

# Total degree of one monomial.  Exact powers carry bit lengths that grow
# with the degree: x^4096 parses and compiles in about 5 ms and verifies
# 1000 samples in 1.5 s; x^100000 (cap lifted) compiles as fast but takes
# 1.6-2.1 s for 2 samples (2-vCPU Xeon VM, Python 3.11).
MAX_DEGREE = 1 << 12

# Entries n * p of the input.  Head rows are as wide as the layout but
# keep only their nonzeros: one degree-4096 monomial over all 64 entries
# of a 32 x 2 input, in both columns, compiles in about 0.07 s and 23 MB,
# over 128 entries in 0.12 s and 27 MB, over 256 in 0.27 s and 33 MB
# (dense rows took 0.13 s / 32 MB, 0.33 s / 61 MB and 0.88 s / 146 MB).
MAX_INPUT_ENTRIES = 64


# -- monomials -------------------------------------------------------------

@dataclass(frozen=True)
class Monomial:
    """Product of matrix-entry variables; exps is a sorted ((i,j), e) tuple."""

    exps: tuple

    @staticmethod
    def from_dict(d: Mapping[tuple, int]) -> "Monomial":
        items = tuple(sorted((v, e) for v, e in d.items() if e))
        for (i, j), e in items:
            if e < 0 or i < 1 or j < 1:
                raise ValueError(f"bad exponent entry {((i, j), e)}")
        return Monomial(items)

    @staticmethod
    def variable(i: int, j: int) -> "Monomial":
        return Monomial((((i, j), 1),))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def mul(self, other: "Monomial") -> "Monomial":
        d = dict(self.exps)
        for v, e in other.exps:
            d[v] = d.get(v, 0) + e
        return Monomial.from_dict(d)

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.exps)

    def eval(self, x: Mat) -> Scalar:
        acc = Fraction(1) if x.backend == "rational" else 1.0
        for (i, j), e in self.exps:
            if i > x.rows or j > x.cols:
                raise VariableRangeError(f"variable x_{i}_{j} outside {x.rows}x{x.cols} input")
            acc = acc * x.at(i - 1, j - 1) ** e
        return acc

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(f"x_{i}_{j}" + (f"^{e}" if e > 1 else "") for (i, j), e in self.exps)


ONE = Monomial(())


# -- polynomials -----------------------------------------------------------

@dataclass(frozen=True)
class Polynomial:
    """terms: canonical sorted tuple of (Monomial, nonzero Fraction)."""

    terms: tuple

    @staticmethod
    def from_terms(terms: Mapping[Monomial, Fraction]) -> "Polynomial":
        kept = {m: Fraction(c) for m, c in terms.items() if c != 0}
        return Polynomial(tuple(sorted(kept.items(), key=lambda t: (t[0].degree, t[0].exps))))

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial.from_terms({ONE: Fraction(c)})

    @staticmethod
    def variable(i: int, j: int) -> "Polynomial":
        return Polynomial.from_terms({Monomial.variable(i, j): Fraction(1)})

    @property
    def degree(self) -> int:
        return max((m.degree for m, _ in self.terms), default=0)

    def support(self) -> tuple:
        return tuple(m for m, _ in self.terms)

    def add(self, other: "Polynomial") -> "Polynomial":
        d = dict(self.terms)
        for m, c in other.terms:
            d[m] = d.get(m, Fraction(0)) + c
        return Polynomial.from_terms(d)

    def neg(self) -> "Polynomial":
        return Polynomial(tuple((m, -c) for m, c in self.terms))

    def scale(self, c) -> "Polynomial":
        return Polynomial.from_terms({m: k * Fraction(c) for m, k in self.terms})

    def mul(self, other: "Polynomial") -> "Polynomial":
        d: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = m1.mul(m2)
                d[m] = d.get(m, Fraction(0)) + c1 * c2
        return Polynomial.from_terms(d)

    def eval(self, x: Mat) -> Scalar:
        acc = Fraction(0) if x.backend == "rational" else 0.0
        for m, c in self.terms:
            acc = acc + c * m.eval(x)
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c}*{m!r}" for m, c in self.terms)


# -- max-min (Pierce-Birkhoff style) forms ----------------------------------

@dataclass(frozen=True)
class PBForm:
    """Value = max over rows of (min of the polynomials within the row)."""

    rows: tuple

    def __post_init__(self):
        if not self.rows or any(not r for r in self.rows):
            raise ValueError("max-min form needs at least one nonempty row")

    @staticmethod
    def of_poly(p: Polynomial) -> "PBForm":
        return PBForm(((p,),))

    @staticmethod
    def of_rows(rows: Sequence[Sequence[Polynomial]]) -> "PBForm":
        return PBForm(tuple(tuple(r) for r in rows))

    @property
    def degree(self) -> int:
        return max(p.degree for row in self.rows for p in row)

    def support(self) -> set:
        return {m for row in self.rows for p in row for m in p.support()}

    def variables(self) -> set:
        return {v for m in self.support() for v in m.variables()}

    @cached_property
    def _indexed(self) -> tuple:
        """The distinct polynomials, first use first, and the rows as indices into them."""
        index: dict = {}
        rows = tuple(tuple(index.setdefault(p, len(index)) for p in row) for row in self.rows)
        return tuple(index), rows

    def eval(self, x: Mat) -> Scalar:
        polys, rows = self._indexed
        values = [p.eval(x) for p in polys]
        return max(min(values[i] for i in row) for row in rows)


def absorb(rows: Sequence[Sequence[Polynomial]]) -> PBForm:
    """The form of `rows` after the lattice's absorption law: each row
    loses its repeats, and a row whose polynomials include every one of
    another row's is dropped, since its min is never the larger one.  Of
    equal rows the first stays; kept rows and polynomials keep their
    order.  A row is tested only against the kept rows filed under one of
    its polynomials, each row filed under its least used one."""
    index: dict = {}
    distinct: dict = {}
    for row in rows:
        row = tuple(dict.fromkeys([index.setdefault(p, len(index)) for p in row]))
        distinct.setdefault(frozenset(row), row)
    if len(set(map(len, distinct))) > 1:  # rows of one length hold no other
        uses = Counter(itertools.chain.from_iterable(distinct))
        filed: dict = {}
        for s in sorted(distinct, key=len):
            if any(t <= s for k in s for t in filed.get(k, ())):
                del distinct[s]
            else:
                filed.setdefault(min(s, key=uses.__getitem__), []).append(s)
    polys = tuple(index)
    return PBForm(tuple(tuple(polys[k] for k in row) for row in distinct.values()))


def pb_max(forms: Sequence[PBForm]) -> PBForm:
    # max of max-min forms: the operands' rows, joined
    _check_size(sum(len(f.rows) for f in forms), sum(map(_form_size, forms)))
    return absorb([row for f in forms for row in f.rows])


def _form_size(f: PBForm) -> int:
    return sum(map(len, f.rows))


def _check_size(rows: int, size: int):
    if size > MAX_FORM_SIZE:
        raise FormSizeError(f"max-min form would hold {size} polynomials in {rows} rows, "
                            f"above the cap of {MAX_FORM_SIZE}")


def pb_min(forms: Sequence[PBForm]) -> PBForm:
    # min of max-min forms: distribute, one row drawn from each operand
    count = math.prod(len(f.rows) for f in forms)
    _check_size(count, sum(_form_size(f) * (count // len(f.rows)) for f in forms))
    rows = [()]
    for f in forms:
        rows = [acc + r for acc in rows for r in f.rows]
    return absorb(rows)


def pb_sum(a: PBForm, b: PBForm) -> PBForm:
    # max distributes over + on the outside, min on the inside
    _check_size(len(a.rows) * len(b.rows), _form_size(a) * _form_size(b))
    return absorb([[p.add(q) for p in ra for q in rb] for ra in a.rows for rb in b.rows])


def pb_negate(f: PBForm) -> PBForm:
    """-f re-expressed as max-min (lattice distribution over row choices)."""
    count = math.prod(map(len, f.rows))
    _check_size(count, count * len(f.rows))
    choices = itertools.product(*[range(len(r)) for r in f.rows])
    return absorb([[f.rows[i][k].neg() for i, k in enumerate(choice)] for choice in choices])


def pb_scale(f: PBForm, c) -> PBForm:
    c = Fraction(c)
    if c == 0:
        return PBForm.of_poly(Polynomial.from_terms({}))
    if c > 0:
        return PBForm(tuple(tuple(p.scale(c) for p in row) for row in f.rows))
    return pb_scale(pb_negate(f), -c)


def _pb_scale_positive_poly(f: PBForm, c: Polynomial) -> PBForm:
    # valid only for c pointwise positive (used with q^2 + 1)
    return PBForm(tuple(tuple(p.mul(c) for p in row) for row in f.rows))


# -- lattice expression trees -----------------------------------------------
# The leaves are polynomials; the nodes below combine them.

@dataclass(frozen=True)
class Sum:
    args: tuple


@dataclass(frozen=True)
class Prod:
    args: tuple


@dataclass(frozen=True)
class ScaleE:
    coef: Fraction
    arg: object


@dataclass(frozen=True)
class Max:
    args: tuple


@dataclass(frozen=True)
class Min:
    args: tuple


def const(c) -> Polynomial:
    return Polynomial.constant(c)


def var(i: int, j: int = 1) -> Polynomial:
    return Polynomial.variable(i, j)


def esum(*args) -> Sum:
    return Sum(tuple(args))


def eprod(*args) -> Prod:
    return Prod(tuple(args))


def escale(c, arg) -> ScaleE:
    return ScaleE(Fraction(c), arg)


def emax(*args) -> Max:
    return Max(tuple(args))


def emin(*args) -> Min:
    return Min(tuple(args))


def eval_maxdef(e, x: Mat) -> Scalar:
    if isinstance(e, Polynomial):
        return e.eval(x)
    if isinstance(e, Sum):
        return sum(eval_maxdef(a, x) for a in e.args)
    if isinstance(e, Prod):
        acc = Fraction(1) if x.backend == "rational" else 1.0
        for a in e.args:
            acc = acc * eval_maxdef(a, x)
        return acc
    if isinstance(e, ScaleE):
        return e.coef * eval_maxdef(e.arg, x)
    if isinstance(e, Max):
        return max(eval_maxdef(a, x) for a in e.args)
    if isinstance(e, Min):
        return min(eval_maxdef(a, x) for a in e.args)
    raise TypeError(f"malformed expression node {e!r}")


def _poly(e):
    """e as one polynomial when it holds no max or min, else None."""
    if isinstance(e, Polynomial):
        return e
    if isinstance(e, ScaleE):
        p = _poly(e.arg)
        return None if p is None else p.scale(e.coef)
    if not isinstance(e, (Sum, Prod)):
        return None
    times = isinstance(e, Prod)
    acc = Polynomial.constant(1 if times else 0)
    for a in e.args:
        p = _poly(a)
        if p is None:
            return None
        acc = acc.mul(p) if times else acc.add(p)
    return acc


def _poly_times_plus(q: Polynomial, d) -> PBForm:
    """q * max(d, 0) via the sign-split identity with the polynomial factor.

    q*d+ = max(min(q*d, (q^2+1)*d), min(0, -(q^2+1)*d)); the factor q^2+1
    is pointwise positive, so it distributes straight into the form of d.
    """
    qd = _form(d, q)
    c = q.mul(q).add(Polynomial.constant(1))
    cd = _pb_scale_positive_poly(_form(d), c)
    zero = PBForm.of_poly(Polynomial.from_terms({}))
    return pb_max([pb_min([qd, cd]), pb_min([zero, pb_negate(cd)])])


def _form(e, q: Polynomial | None = None) -> PBForm:
    """The max-min form of q * e, or of e when q is None.  A product moves
    its polynomial factors into q; max and min under a factor q take the
    sign-split identity, without one the lattice's own pb_max and pb_min."""
    p = _poly(e)
    if p is not None:
        return PBForm.of_poly(p if q is None else q.mul(p))
    if isinstance(e, Sum):
        acc = None
        for a in e.args:
            part = _form(a, q)
            acc = part if acc is None else pb_sum(acc, part)
        return acc
    if isinstance(e, ScaleE):
        return pb_scale(_form(e.arg), e.coef) if q is None else _form(e.arg, q.scale(e.coef))
    if isinstance(e, Prod):
        polys = [_poly(a) for a in e.args]
        others = [a for a, p in zip(e.args, polys) if p is None]
        if len(others) != 1:
            raise UnsupportedProductError(f"product with several max/min factors: {e!r}")
        q = Polynomial.constant(1) if q is None else q
        for p in polys:
            if p is not None:
                q = q.mul(p)
        return _form(others[0], q)
    if isinstance(e, (Max, Min)):
        if not e.args:
            raise ValueError("max-min form needs at least one nonempty row")
        if q is None:
            forms = [_form(a) for a in e.args]
            return pb_max(forms) if isinstance(e, Max) else pb_min(forms)
        lhs, rest = e.args[0], e.args[1:]
        if not rest:
            return _form(lhs, q)
        # fold the rest into the second operand: op(a, b, c) = op(a, op(b, c))
        rhs = rest[0] if len(rest) == 1 else type(e)(rest)
        if isinstance(e, Max):
            # q*max(a,b) = q*a + q*(b-a)+
            diff = Sum((rhs, ScaleE(Fraction(-1), lhs)))
            return pb_sum(_form(lhs, q), _poly_times_plus(q, diff))
        # q*min(a,b) = q*a - q*(a-b)+
        diff = Sum((lhs, ScaleE(Fraction(-1), rhs)))
        return pb_sum(_form(lhs, q), pb_negate(_poly_times_plus(q, diff)))
    raise TypeError(f"malformed expression node {e!r}")


def normalize_to_pbform(e) -> PBForm:
    """Reduce a lattice expression to a max-min form over polynomials.

    Handles sums, scalar multiples, max/min, and products where at least
    one factor is a pure polynomial; products of two max/min-bearing
    factors are rejected.
    """
    return _form(e)


# -- matrix-valued spline grids ----------------------------------------------

@dataclass(frozen=True)
class SplineGrid:
    """r x p grid of scalar max-min forms over the entries of an n x p input."""

    n: int
    p: int
    grid: tuple  # tuple of r rows, each a tuple of p PBForm

    def __post_init__(self):
        if not self.grid or any(len(row) != self.p for row in self.grid):
            raise ValueError(f"grid must be r x {self.p}")
        for row in self.grid:
            for f in row:
                for (i, j) in f.variables():
                    if i > self.n or j > self.p:
                        raise VariableRangeError(
                            f"variable x_{i}_{j} outside {self.n}x{self.p} input")

    @property
    def r(self) -> int:
        return len(self.grid)

    @property
    def degree(self) -> int:
        return max(f.degree for row in self.grid for f in row)

    def column(self, j: int) -> tuple:
        """The r forms producing output column j (1-based)."""
        return tuple(row[j - 1] for row in self.grid)

    def eval(self, x: Mat) -> Mat:
        return Mat.dense(x.backend, tuple(tuple(f.eval(x) for f in row) for row in self.grid))


# -- JSON wire format ---------------------------------------------------------

def _poly_to_json(p: Polynomial):
    return {"op": "poly", "terms": [
        {"coef": str(c), "exps": {f"x_{i}_{j}": e for (i, j), e in m.exps}}
        for m, c in p.terms]}


def expr_to_json(f: PBForm):
    if len(f.rows) == 1 and len(f.rows[0]) == 1:
        return _poly_to_json(f.rows[0][0])
    return {"op": "max", "args": [
        {"op": "min", "args": [_poly_to_json(p) for p in row]} if len(row) > 1
        else _poly_to_json(row[0])
        for row in f.rows]}


def _parse_var_key(key: str) -> tuple:
    parts = key.split("_")
    if len(parts) != 3 or parts[0] != "x":
        raise ValueError(f"bad variable key {key!r}, expected x_<i>_<j>")
    return (int(parts[1]), int(parts[2]))


def _parse_exponent(key: str, e) -> int:
    if isinstance(e, bool) or not isinstance(e, int):
        raise ValueError(f"exponent of {key} must be a whole number, got {e!r}")
    return e


def _parse_coef(c) -> Fraction:
    """Fraction(c) for a JSON coefficient; ValueError for any value that is
    not a finite rational (a zero denominator, an infinity, a list, a bool)."""
    if isinstance(c, bool):
        raise ValueError(f"bad coefficient {c!r}: not a number")
    try:
        return Fraction(c)
    except (ZeroDivisionError, OverflowError, TypeError) as exc:
        raise ValueError(f"bad coefficient {c!r}: {exc}") from None


def expr_from_json(obj):
    """Parse {"op": "max"|"min"|"poly", ...} into a lattice expression whose
    leaves are the polynomials of its poly nodes; a node of any other shape
    raises ValueError."""
    op = json_field(obj, "op", str, "an expression")
    if op == "poly":
        terms: dict = {}
        for t in json_field(obj, "terms", list, "a poly"):
            m = Monomial.from_dict({_parse_var_key(k): _parse_exponent(k, e)
                                    for k, e in json_field(t, "exps", dict, "a term").items()})
            if m.degree > MAX_DEGREE:
                raise FormSizeError(f"a monomial of degree {m.degree} is above the "
                                    f"cap of {MAX_DEGREE}")
            terms[m] = terms.get(m, Fraction(0)) + _parse_coef(t["coef"])
        return Polynomial.from_terms(terms)
    if op in ("max", "min"):
        args = tuple(expr_from_json(a) for a in json_field(obj, "args", list, f"a {op}"))
        return Max(args) if op == "max" else Min(args)
    raise ValueError(f"unknown expression op {op!r}")


def grid_to_json(g: SplineGrid):
    return {"n": g.n, "p": g.p,
            "grid": [[expr_to_json(f) for f in row] for row in g.grid]}


def grid_from_json(obj) -> SplineGrid:
    """Inverse of `grid_to_json`; a document of any other shape raises
    ValueError.  n and p must be positive JSON integers.  A document above
    MAX_INPUT_ENTRIES or MAX_DEGREE raises FormSizeError before any cell
    is normalized."""
    n, p = (json_field(obj, key, int, "a spline document") for key in ("n", "p"))
    if n < 1 or p < 1:
        raise FormatError(f"a spline document needs n and p of at least 1, got {n} and {p}")
    if n * p > MAX_INPUT_ENTRIES:
        raise FormSizeError(f"an input of {n} x {p} entries is above the cap of "
                            f"{MAX_INPUT_ENTRIES} entries")
    rows = json_field(obj, "grid", list, "a spline document")
    if not all(isinstance(row, list) for row in rows):
        raise FormatError("a spline grid must be a list of rows")
    exprs = [[expr_from_json(cell) for cell in row] for row in rows]
    return SplineGrid(n, p, tuple(tuple(map(normalize_to_pbform, row)) for row in exprs))
