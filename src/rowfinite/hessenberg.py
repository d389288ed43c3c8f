"""Closed-form solution terms for regular-order equations as determinants of
lower Hessenberg matrices with unit superdiagonal.

A source of regular order N (``RowSource.regular_order_index``) has rows
that end at column n + N.  Row n, read as an equation in y_{j-N} at column
j, is

    a(n, 0) y_{-N} + ... + a(n, n+N-1) y_{n-1} + a(n, n+N) y_n = g_n,

with N initial values y_{-N}..y_{-1}.  Divided by its trailing coefficient
a(n, n+N), it is the normal form whose coefficients fill a lower Hessenberg
matrix with unit superdiagonal: term y_n of the solution is (-1)^n times
its leading principal minor of order n+1, whose entries are
a(r, N+c-1) / a(r, r+N) and whose first column holds
(g_r - sum_i a(r, i) y_{i-N}) / a(r, r+N), the forcing terms with the
initial values folded in.  :func:`general_prefix` evaluates it.  Every
solution is this one Hessenbergian of some forcing and initial values: the
i-th fundamental sequence is the case of no forcing and the i-th unit
vector as initial values, the particular solution the case of zero initial
values.

Because the superdiagonal is identically 1, expanding along the last row
gives a recurrence of the signed minors y_k = (-1)^k d_k, which on the rows
themselves is forward substitution:

    y_k = (g_k - sum_{c < k+N} a(k, c) y_{c-N}) / a(k, k+N),

which evaluates every leading principal determinant in one pass, so asking
for a whole prefix costs the same as asking for its last term.  Each row is
read once, in order, as its integer pairs (``FiniteRow.int_items``); each
y_k is summed on one integer pair (``rows.sum_products``, the loop of
``FiniteRow.dot_prefix``) and normalized once.  The cost is the nonzeros of
the rows read: N + 1 per row for the banded families, all n + N + 1 for
``ascending``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .rows import ScalarLike, as_scalar, short_forcing, sum_products
from .sources import RowSource, SpecError


def general_prefix(source: RowSource, g: Optional[Sequence[ScalarLike]],
                   init: Sequence[ScalarLike], count: int) -> List[Fraction]:
    """Terms y_0..y_{count-1} of the solution of a regular-order ``source``
    with forcing ``g`` (None: no forcing) and initial values ``init``
    (y_{-N}..y_{-1}): term k is (-1)^k times the leading principal
    determinant of order k+1 of the normalized rows.

    Rows 0..count-1 are each read once, in order.  Past a short forcing
    prefix the remaining rows are still read before it is reported, so that
    errors fire as on the elimination path, which reads every row first."""
    order = source.regular_order_index
    if order is None:
        raise SpecError("source is not tagged with a regular order index")
    g = None if g is None else [as_scalar(v) for v in g]
    ys = [as_scalar(v) for v in init]   # ys[c] is y_{c-N}, the unknown at column c
    if len(ys) != order:
        raise ValueError(f"expected {order} initial values, got {len(ys)}")
    for k in range(count):
        row = source.row_at(k)
        if row.length != k + order:
            raise SpecError(f"row {k} of a source of regular order {order} "
                            f"must end at column {k + order}, not {row.length}")
        if g is not None and k >= len(g):
            for later in range(k + 1, count):
                source.row_at(later)
            raise short_forcing(len(g), count)
        *entries, (_, lead_num, lead_den) = row.int_items()
        tn, td = (0, 1) if g is None else (g[k].numerator, g[k].denominator)
        tn, td = sum_products(((-num, den, ys[col]) for col, num, den in entries), tn, td)
        ys.append(Fraction(tn * lead_den, td * lead_num))
    return ys[order:]
