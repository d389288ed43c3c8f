"""Independent exact checks of rowfinite's outputs.

Nothing here imports rowfinite.  Coefficients come from the benchmark's own
formulas (or its own generated rows), arithmetic is plain ``Fraction``, and
rows are ``{column: value}`` dicts.  Each check returns ``None`` when the
output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

Row = Dict[int, Fraction]
RowFn = Callable[[int], Row]

_COSPI2 = (1, 0, -1, 0)


def example2_row(n: int) -> Row:
    """(n-1) y_{n+2} - (n^2+3n-2) y_{n+1} + 2n(n+1) y_n = 0."""
    entries = {n: 2 * n * (n + 1), n + 1: -(n * n + 3 * n - 2), n + 2: n - 1}
    return {c: Fraction(v) for c, v in entries.items() if v}


def example3_row(n: int) -> Row:
    """a(n, j) = 1 - cos((2n - j) pi / 2) on columns 0..n+2."""
    entries = {j: 1 - _COSPI2[(2 * n - j) % 4] for j in range(n + 3)}
    return {c: Fraction(v) for c, v in entries.items() if v}


REGULAR_EXPR = "n*j - j^2/(n+1) + 1"
REGULAR_ORDER = 3


def regular_row(n: int) -> Row:
    """n_order N=3 with a(n, j) = n*j - j^2/(n+1) + 1 on columns n..n+3."""
    entries = {j: n * j - Fraction(j * j, n + 1) + 1
               for j in range(n, n + REGULAR_ORDER + 1)}
    return {c: v for c, v in entries.items() if v}


def table_rows(rows: Sequence[Row]) -> RowFn:
    return rows.__getitem__


def dot(row: Row, y: Sequence[Fraction]) -> Fraction:
    return sum((v * y[c] for c, v in row.items()), Fraction(0))


def parse_values(text: str) -> List[Fraction]:
    return [Fraction(v) for v in text.strip().split(",")]


def parse_json(text: str):
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _row_from_json(pairs) -> Row:
    return {int(c): Fraction(v) for c, v in pairs}


def residual_error(row_fn: RowFn, k: int, y: Sequence[Fraction],
                   g: Optional[Sequence[Fraction]]) -> Optional[str]:
    """Rows 0..k-1 whose support lies inside ``y`` must satisfy A.y == g
    (g None means homogeneous).  At least one row must be checkable."""
    checked = 0
    for n in range(k):
        row = row_fn(n)
        if row and max(row) >= len(y):
            continue
        want = g[n] if g is not None else 0
        if dot(row, y) != want:
            return f"residual of row {n} is {dot(row, y) - want}, not 0"
        checked += 1
    if not checked:
        return "no row lies inside the emitted terms"
    return None


def first_dependent_row(row_fn: RowFn, limit: int) -> Optional[int]:
    """Index of the first row among 0..limit-1 that is a combination of the
    rows before it, by plain forward elimination."""
    pivots: Dict[int, Row] = {}   # leading (highest) column -> reduced row
    for n in range(limit):
        row = dict(row_fn(n))
        while row:
            lead = max(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            c = row[lead] / piv[lead]
            for col, v in piv.items():
                nv = row.get(col, 0) - c * v
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
        if not row:
            return n
        pivots[max(row)] = row
    return None


def check_reduction(text: str, row_fn: RowFn, k: int) -> Optional[str]:
    """``reduce`` JSON: Q.A == H exactly, H in quasi-Hermite form (nonzero
    rows with strictly increasing lengths, rightmost coefficient 1, zero in
    every other pivot column), zero rows exactly at w_set, and every
    transform row nonzero and confined to consumed rows."""
    payload, err = parse_json(text)
    if err:
        return err
    h_rows = [_row_from_json(r) for r in payload["rows"]]
    q_rows = [_row_from_json(r) for r in payload["q_rows"]]
    if len(h_rows) != k or len(q_rows) != k:
        return f"expected {k} reduced and transform rows"
    zero = [n for n, h in enumerate(h_rows) if not h]
    nonzero = [n for n, h in enumerate(h_rows) if h]
    if payload["w_set"] != zero or payload["j_set"] != nonzero:
        return "j_set/w_set do not match the zero rows"
    lengths = [max(h_rows[n]) for n in nonzero]
    if payload["mu"] != lengths or any(b <= a for a, b in zip(lengths, lengths[1:])):
        return "pivot lengths are not strictly increasing or differ from mu"
    for n, length in zip(nonzero, lengths):
        if h_rows[n][length] != 1:
            return f"row {n} has rightmost coefficient {h_rows[n][length]}"
        for other, other_len in zip(nonzero, lengths):
            if other != n and other_len in h_rows[n]:
                return f"row {n} is nonzero in pivot column {other_len}"
    a_rows: Dict[int, Row] = {}
    for n, q in enumerate(q_rows):
        if not q or max(q) >= k:
            return f"transform row {n} is zero or reaches unconsumed rows"
        acc: Row = {}
        for m, c in q.items():
            if m not in a_rows:
                a_rows[m] = row_fn(m)
            for col, v in a_rows[m].items():
                acc[col] = acc.get(col, 0) + c * v
        acc = {col: v for col, v in acc.items() if v}
        if acc != h_rows[n]:
            return f"Q.A differs from H at row {n}"
    return None
