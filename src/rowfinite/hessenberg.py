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
gives a division-free recurrence; for the terms y_k = (-1)^k d_k, with d_k
the minor of order k+1 and m[k][0] its first-column entry, it reads

    y_k = m[k][0] - sum_{j=1..k} m[k][j] y_{j-1},

which evaluates every leading principal determinant in one pass, so asking
for a whole prefix costs the same as asking for its last term.  Below the
superdiagonal, row k can be nonzero only in the first column and in the columns
j >= k - band + 1 (``HessSpec.band``, copied from the source's ``band`` tag:
1, 2 and N for the first-order, second-order and n_order families), so the
pass reads O(count * band) coefficients; without a band (``ascending`` and
hand-built specs) it reads all of them, O(count^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from .rows import Scalar, ScalarLike, as_scalar, short_forcing
from .sources import RowSource, SpecError


@dataclass(frozen=True)
class HessSpec:
    """A regular-order equation in normal form.

    ``coeff(n, j)`` is defined for 0 <= j <= n+index-1; the coefficient of
    y_n itself is implicitly 1.  ``forcing(n)`` is the right-hand side and
    ``init`` holds y_{-N}..y_{-1}.  ``band``, when set, promises
    ``coeff(n, j) == 0`` for j < n+index-band; None promises nothing.
    ``forcing_terms``, when set, is how many terms ``forcing`` has.
    """

    index: int
    coeff: Callable[[int, int], Scalar]
    forcing: Callable[[int], Scalar]
    init: Tuple[Scalar, ...] = field(default=())
    band: Optional[int] = None
    forcing_terms: Optional[int] = None

    def __post_init__(self):
        if self.index < 0:
            raise ValueError("index must be nonnegative")
        if self.band is not None and self.band < 0:
            raise ValueError("band must be nonnegative")
        object.__setattr__(self, "init", tuple(as_scalar(v) for v in self.init))


def _zero_forcing(n: int) -> Scalar:
    return Fraction(0)


_ZERO = Fraction(0)


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
        # row n's entries by column, with the numerator and denominator of
        # its trailing coefficient: each quotient is then normalised once
        entries = {col: (num, den) for col, num, den in source.row_at(n).int_items()}
        return (entries, *entries[n + order])

    def coeff(n: int, j: int) -> Scalar:
        entries, lead_num, lead_den = fetch(n)
        entry = entries.get(j)
        if entry is None:
            return _ZERO
        return Fraction(entry[0] * lead_den, entry[1] * lead_num)

    if g_vals is None:
        forcing = _zero_forcing
    else:
        def forcing(n: int) -> Scalar:
            _, lead_num, lead_den = fetch(n)
            value = g_vals[n]
            return Fraction(value.numerator * lead_den, value.denominator * lead_num)

    return HessSpec(index=order, coeff=coeff, forcing=forcing, init=init,
                    band=source.band, forcing_terms=None if g_vals is None else len(g_vals))


def general_prefix(spec: HessSpec, count: int) -> List[Scalar]:
    """Terms y_0..y_{count-1} of the solution with forcing ``spec.forcing``
    and initial values ``spec.init``: term k is (-1)^k times the leading
    principal determinant of order k+1 whose first column holds
    forcing(r) - sum_i coeff(r, i) init_i and whose band holds the
    coefficients coeff(r, index+c-1).

    Row k is expanded from column k down to column 0, over the columns
    inside ``spec.band`` only, and an entry is read only where the minor it
    multiplies is nonzero.  Values and the band skip entries, not rows:
    where no product reads row k (every minor it would multiply vanishes,
    or lies outside the band), row k is still read once, before its forcing
    term, so that its errors fire as they do on the elimination path, which
    reads every row before it reads the forcing; a short forcing fails there."""
    if len(spec.init) != spec.index:
        raise ValueError(f"expected {spec.index} initial values, got {len(spec.init)}")
    coeff, index, band = spec.coeff, spec.index, spec.band
    init = [(i, y0) for i, y0 in enumerate(spec.init) if y0]
    ys: List[Scalar] = []   # ys[j - 1] is y_{j-1} = (-1)^(j-1) d_{j-1}
    for k in range(count):
        low = 1 if band is None else max(1, k - band + 1)
        value = Fraction(0)
        read = False
        for j in range(k, low - 1, -1):
            prev = ys[j - 1]
            if prev:
                read = True
                m = coeff(k, index + j - 1)
                if m:
                    value -= m * prev
        if not read:
            coeff(k, index + k - 1)
        if spec.forcing_terms is not None and k >= spec.forcing_terms:
            raise short_forcing(spec.forcing_terms, count)
        value += spec.forcing(k)
        for i, y0 in init:
            if band is None or i >= k + index - band:
                value -= coeff(k, i) * y0
        ys.append(value)
    return ys
