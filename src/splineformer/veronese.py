"""Graded-lexicographic monomial enumeration, Veronese evaluation, and the
two-factor split that routes monomials between quadratic stages."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .spline import Monomial
from .tensor import Mat, ShapeError


def veronese_dim(nvars: int, k: int) -> int:
    """Number of monomials of degree <= k in nvars variables."""
    if nvars < 1 or k < 1:
        raise ValueError(f"need nvars >= 1 and k >= 1, got ({nvars}, {k})")
    return math.comb(nvars + k, k)


def graded_lex_monomials(varlist: Sequence[tuple], k: int) -> tuple:
    """All monomials of degree <= k over the ordered variables, graded-lex.

    The constant comes first, then the variables in the given order, then
    degree-2 products, and so on.
    """
    out = []
    for d in range(k + 1):
        for combo in itertools.combinations_with_replacement(range(len(varlist)), d):
            exps: dict = {}
            for idx in combo:
                v = varlist[idx]
                exps[v] = exps.get(v, 0) + 1
            out.append(Monomial.from_dict(exps))
    return tuple(out)


@dataclass(frozen=True)
class VeroneseIndex:
    """Ordered monomial basis of degree <= k over an n x p matrix's entries."""

    n: int
    p: int
    k: int
    monomials: tuple

    @staticmethod
    def for_matrix(n: int, p: int, k: int) -> "VeroneseIndex":
        varlist = [(i, j) for i in range(1, n + 1) for j in range(1, p + 1)]
        return VeroneseIndex(n, p, k, graded_lex_monomials(varlist, k))

    def __len__(self):
        return len(self.monomials)


def veronese_eval(idx: VeroneseIndex, x: Mat) -> Mat:
    """Column vector of the monomial values, in index order."""
    if x.shape != (idx.n, idx.p):
        raise ShapeError(f"input {x.shape} does not match index over {idx.n}x{idx.p}")
    return Mat.dense(x.backend, tuple((m.eval(x),) for m in idx.monomials))


def factor_pair(m: Monomial, cap: int) -> tuple:
    """Split into two factors of degree <= cap (degree <= 2*cap), greedily:
    exponents fill the first factor up to the cap in variable order, and
    the rest go to the second."""
    if m.degree > 2 * cap:
        raise ValueError(f"degree {m.degree} exceeds 2*{cap}")
    first, second = {}, {}
    room = cap
    for v, e in m.exps:
        take = min(e, room)
        first[v], second[v] = take, e - take
        room -= take
    return Monomial.from_dict(first), Monomial.from_dict(second)
