"""Closed-form solution terms for regular-order equations as determinants of
lower Hessenberg matrices with unit superdiagonal.

A regular-order equation in *normal form* reads, for n >= 0,

    y_n + a(n, N+n-1) y_{n-1} + ... + a(n, 1) y_{1-N} + a(n, 0) y_{-N} = g_n,

with N initial values y_{-N}..y_{-1}.  Term y_n of the solution is (-1)^n
times one determinant: the leading principal minor of order n+1 of a lower
Hessenberg matrix whose band holds the equation coefficients a(r, N+c-1) and
whose first column holds g_r - sum_i a(r, i) y_{i-N}, the forcing terms with
the initial values folded in.  :func:`general_prefix` evaluates it.  Every
solution is this one Hessenbergian of some spec: the i-th fundamental
sequence is the case of zero forcing and the i-th unit vector as initial
values (``hess_spec_from_source(source, None, e_i)``), the particular
solution the case of zero initial values.

Because the superdiagonal is identically 1, expanding along the last row
gives the division-free recurrence

    d_k = sum_{j=0..k} (-1)^(k-j) m[k][j] d_{j-1},   d_{-1} = 1,

which evaluates every leading principal determinant in one quadratic pass,
so asking for a whole prefix costs the same as asking for its last term.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from .rows import Scalar, ScalarLike, as_scalar
from .sources import RowSource, SpecError


@dataclass(frozen=True)
class LowerHessenberg:
    """A square lower Hessenberg matrix with implicit unit superdiagonal.

    ``first_column[r]`` is entry (r, 0); ``band[r]`` holds entries
    (r, 1)..(r, r).  Entries (r, r+1) are 1 and everything above them is 0.
    """

    first_column: Tuple[Scalar, ...]
    band: Tuple[Tuple[Scalar, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "first_column",
                           tuple(as_scalar(v) for v in self.first_column))
        object.__setattr__(self, "band",
                           tuple(tuple(as_scalar(v) for v in row) for row in self.band))
        if len(self.band) != len(self.first_column):
            raise ValueError("band must have one tuple per row")
        for r, row in enumerate(self.band):
            if len(row) != r:
                raise ValueError(f"band row {r} must have {r} entries, got {len(row)}")

    @property
    def order(self) -> int:
        return len(self.first_column)

    def entry(self, r: int, c: int) -> Scalar:
        if c == 0:
            return self.first_column[r]
        if c <= r:
            return self.band[r][c - 1]
        if c == r + 1:
            return Fraction(1)
        return Fraction(0)

    def to_dense(self) -> List[List[Scalar]]:
        n = self.order
        return [[self.entry(r, c) for c in range(n)] for r in range(n)]


def _det_prefix(entry: Callable[[int, int], Scalar], count: int) -> List[Scalar]:
    """Determinants of the leading principal minors of orders 1..count, for a
    lower Hessenberg matrix with unit superdiagonal given entrywise."""
    dets: List[Scalar] = []
    for k in range(count):
        acc = Fraction(0)
        sign = 1
        for j in range(k, -1, -1):
            prev = dets[j - 1] if j >= 1 else Fraction(1)
            if prev:
                m = entry(k, j)
                if m:
                    acc += sign * m * prev
            sign = -sign
        dets.append(acc)
    return dets


def hess_det(matrix: LowerHessenberg) -> Scalar:
    """Exact determinant by last-row expansion; quadratic, division-free."""
    if matrix.order == 0:
        return Fraction(1)
    return _det_prefix(matrix.entry, matrix.order)[-1]


@dataclass(frozen=True)
class HessSpec:
    """A regular-order equation in normal form.

    ``coeff(n, j)`` is defined for 0 <= j <= n+index-1; the coefficient of
    y_n itself is implicitly 1.  ``forcing(n)`` is the right-hand side and
    ``init`` holds y_{-N}..y_{-1}.
    """

    index: int
    coeff: Callable[[int, int], Scalar]
    forcing: Callable[[int], Scalar]
    init: Tuple[Scalar, ...] = field(default=())

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        object.__setattr__(self, "init", tuple(as_scalar(v) for v in self.init))


def _zero_forcing(n: int) -> Scalar:
    return Fraction(0)


def hess_spec_from_source(source: RowSource, g: Optional[Sequence[ScalarLike]] = None,
                          init: Sequence[ScalarLike] = ()) -> HessSpec:
    """Normalize a regular-order source: each row and its forcing term are
    divided by the trailing coefficient so the superdiagonal becomes 1."""
    order = source.regular_order_index
    if order is None:
        raise SpecError("source is not tagged with a regular order index")
    g_vals = None if g is None else [as_scalar(v) for v in g]

    @lru_cache(maxsize=None)
    def fetch(n: int):
        row = source.row_at(n)
        return row, row.get(n + order)

    def coeff(n: int, j: int) -> Scalar:
        row, lead = fetch(n)
        return row.get(j) / lead

    if g_vals is None:
        forcing = _zero_forcing
    else:
        def forcing(n: int) -> Scalar:
            if n >= len(g_vals):
                raise ValueError(
                    f"forcing prefix has {len(g_vals)} terms, term {n} requested"
                )
            return g_vals[n] / fetch(n)[1]

    return HessSpec(index=order, coeff=coeff, forcing=forcing, init=init)


def general_prefix(spec: HessSpec, count: int) -> List[Scalar]:
    """Terms y_0..y_{count-1} of the solution with forcing ``spec.forcing``
    and initial values ``spec.init``: term k is (-1)^k times the leading
    principal determinant of order k+1 whose first column holds
    forcing(r) - sum_i coeff(r, i) init_i and whose band holds the
    coefficients coeff(r, index+c-1)."""
    if len(spec.init) != spec.index:
        raise ValueError(f"expected {spec.index} initial values, got {len(spec.init)}")

    def entry(k: int, j: int) -> Scalar:
        if j:
            return spec.coeff(k, spec.index + j - 1)
        value = spec.forcing(k)
        for i, y0 in enumerate(spec.init):
            if y0:
                value -= spec.coeff(k, i) * y0
        return value

    return [-d if k % 2 else d for k, d in enumerate(_det_prefix(entry, count))]


def superposed_prefix(spec: HessSpec, count: int) -> List[Scalar]:
    """Terms 0..count-1 assembled as the particular solution (zero initial
    values) plus the fundamental sequences (zero forcing, unit initial
    values) weighted by ``spec.init``; must agree with general_prefix
    exactly (multilinearity of the determinant in its first column)."""
    if len(spec.init) != spec.index:
        raise ValueError(f"expected {spec.index} initial values, got {len(spec.init)}")
    zeros = (Fraction(0),) * spec.index
    total = general_prefix(replace(spec, init=zeros), count)
    for i, y0 in enumerate(spec.init):
        if y0:
            unit = zeros[:i] + (Fraction(1),) + zeros[i + 1:]
            xi = general_prefix(replace(spec, forcing=_zero_forcing, init=unit), count)
            total = [t + y0 * x for t, x in zip(total, xi)]
    return total
