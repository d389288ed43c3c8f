import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Tuple

import pytest
from hypothesis import strategies as st

from rowfinite import (FiniteRow, RowSource, as_scalar, build_family,
                       check_invariants, general_prefix)


def dense(row, width=None):
    """``row`` as a list of ``width`` Fractions, its length + 1 by default."""
    out = [Fraction(0)] * (row.length + 1 if width is None else width)
    for col, v in row.items():
        out[col] = v
    return out


def naive_det(dense):
    """Cofactor expansion along the first row; exponential-time oracle."""
    n = len(dense)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(dense[0][0])
    total = Fraction(0)
    for c in range(n):
        if dense[0][c] == 0:
            continue
        minor = [row[:c] + row[c + 1:] for row in dense[1:]]
        total += (-1) ** c * dense[0][c] * naive_det(minor)
    return total


@dataclass(frozen=True)
class LowerHessenberg:
    """A square lower Hessenberg matrix with implicit unit superdiagonal.

    ``first_column[r]`` is entry (r, 0); ``band[r]`` holds entries
    (r, 1)..(r, r).  Entries (r, r+1) are 1 and everything above them is 0.
    """

    first_column: Tuple[Fraction, ...]
    band: Tuple[Tuple[Fraction, ...], ...]

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

    def entry(self, r: int, c: int) -> Fraction:
        if c == 0:
            return self.first_column[r]
        if c <= r:
            return self.band[r][c - 1]
        if c == r + 1:
            return Fraction(1)
        return Fraction(0)

    def to_dense(self):
        n = self.order
        return [[self.entry(r, c) for c in range(n)] for r in range(n)]


def hess_det(matrix):
    """Determinant of ``matrix`` by the production recurrence: over the
    order-0 source whose row r holds entry (r, c+1) at column c < r and 1 at
    column r, with the first column as forcing, term n-1 of
    ``general_prefix`` is (-1)^(n-1) times the leading principal minor of
    order n."""
    n = matrix.order
    if n == 0:
        return Fraction(1)
    source = RowSource(lambda r: FiniteRow(
        [(c, matrix.entry(r, c + 1)) for c in range(r)] + [(r, 1)]), regular_order_index=0)
    last = general_prefix(source, matrix.first_column, (), n)[-1]
    return -last if n % 2 == 0 else last


def random_explicit_rows(rng, max_rows=30, max_len=13):
    """Random sparse integer rows in [-9, 9], with occasional zero rows and
    repeats/negations of earlier rows so the left-null machinery fires."""
    rows = []
    for _ in range(rng.randint(1, max_rows)):
        roll = rng.random()
        nonzero = [r for r in rows if not r.is_zero]
        if roll < 0.10:
            rows.append(FiniteRow())
        elif roll < 0.25 and nonzero:
            base = rng.choice(nonzero)
            rows.append(base if rng.random() < 0.5 else base.combine((), -1))
        else:
            length = rng.randint(0, max_len)
            entries = [(col, rng.randint(-9, 9))
                       for col in range(length) if rng.random() < 0.45]
            entries.append((length, rng.choice([v for v in range(-9, 10) if v])))
            rows.append(FiniteRow(entries))
    return rows


_SMALL = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 3))


@st.composite
def shuffled_length_rows(draw):
    """Rows whose lengths are a random permutation of 0..width-1, each with
    a few entries at most 4 columns left of its leading one, and now and
    then a row dependent on the one before."""
    rows = []
    for length in draw(st.permutations(range(draw(st.integers(1, 14))))):
        entries = {length: draw(_SMALL.filter(bool))}
        for col in draw(st.lists(st.integers(max(length - 4, 0), length),
                                 max_size=3 if length else 0)):
            entries.setdefault(col, draw(_SMALL))
        rows.append(FiniteRow(entries.items()))
        if draw(st.integers(0, 9)) == 0:
            rows.append(rows[-1].combine((), draw(_SMALL.filter(bool))))
    return rows


def random_regular_source(rng, order, horizon, shape):
    """A random regular-order source of the given shape with rational
    coefficients, defined for rows 0..horizon-1."""
    table = {}
    for n in range(horizon):
        lo = n if shape == "n_order" else 0
        for j in range(lo, n + order):
            table[(n, j)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        lead = Fraction(rng.choice([v for v in range(-4, 5) if v]),
                        rng.randint(1, 3))
        table[(n, n + order)] = lead
    return build_family({
        "family": shape,
        "N": order,
        "a": lambda n, j: table.get((n, j), Fraction(0)),
    })


def random_scalar(rng, span=9, max_den=4):
    return Fraction(rng.randint(-span, span), rng.randint(1, max_den))


def frechet_distance(x, y, horizon):
    """Partial sum of the coordinatewise sequence metric over indices below
    the horizon, plus the exact bound on the dropped tail.

    The weight of index i is 2^-i and each summand is |d|/(1+|d|) < 1, so the
    tail from the horizon onward is strictly below 2^(1-horizon).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if len(x) < horizon or len(y) < horizon:
        raise ValueError(f"both prefixes must carry at least {horizon} terms")
    total = Fraction(0)
    for i in range(horizon):
        d = abs(as_scalar(x[i]) - as_scalar(y[i]))
        if d:
            total += Fraction(1, 2 ** i) * d / (1 + d)
    return total, Fraction(2, 2 ** horizon)


def dense_rank(rows, width):
    """Rank of a dense rational matrix by plain forward elimination;
    independent of the streaming engine."""
    m = [dense(r, width) for r in rows]
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_product_matches(rows, transforms, h_rows):
    """``Q . A == H`` on dense ``Fraction`` lists alone, with no row
    arithmetic of ``rowfinite.rows``: the oracle of
    ``checks.transforms_reproduce``, with the same verdict on a transform
    row that reads past ``rows`` or a count that differs from ``h_rows``."""
    transforms = list(transforms)
    if len(transforms) != len(h_rows):
        return False
    width = 1 + max((row.length for row in [*rows, *h_rows]), default=-1)
    a = [dense(row, width) for row in rows]
    for q, h in zip(transforms, h_rows):
        if q.length >= len(rows):
            return False
        product = [sum((v * a[m][col] for m, v in q.items()), Fraction(0))
                   for col in range(width)]
        if product != dense(h, width):
            return False
    return True


def check_state(state):
    """``check_invariants`` on the stored state, and the rule of a transform
    row on its replay of ``Q``: each row is nonzero and reads only the
    consumed rows."""
    check_invariants(state)
    for n, q in enumerate(state.transform_rows()):
        assert not q.is_zero, f"transform row {n} is zero"
        assert q.length < state.k, f"transform row {n} reads an unconsumed row"


def push_checked(state, row):
    state.push_row(row)
    check_state(state)


def corrupt_transform_row(state, n, corrupt):
    """Make ``state.transform_rows()`` yield ``corrupt(row)`` in place of
    transform row n, on this instance only: ``Q`` is replayed from the log,
    not stored, so a fault in it is injected into the replay."""
    replay = state.transform_rows

    def transform_rows():
        for m, q in enumerate(replay()):
            yield corrupt(q) if m == n else q

    state.transform_rows = transform_rows


def place(rows, targets, survivor):
    """Positional placement: append a slot at position k (the last target),
    put the survivor at ``targets[0]`` and move the entry at each target to
    the next one, the last first."""
    rows.append(survivor)
    for i in range(len(targets) - 2, -1, -1):
        rows[targets[i + 1]] = rows[targets[i]]
    rows[targets[0]] = survivor


class PositionalReference:
    """The elimination with its reduced rows stored by position and moved on
    placement: the reference for ``EliminationState``'s positional views.

    Each push clears against every pivot row, scales, cross-clears every
    stored row and places the survivor by its ``targets``: the survivor
    goes to ``targets[0]`` and the row at ``targets[i]`` to
    ``targets[i + 1]``, the last target being the new position k; for a
    nonzero survivor of rank r in ``mu`` they are ``j_set[r:] + [k]``.
    """

    def __init__(self):
        self.h_rows, self.j_set, self.w_set, self.mu = [], [], [], []
        self.first_targets = []

    def push_row(self, row):
        k = len(self.h_rows)
        g = row.combine([(-c, self.h_rows[self.j_set[self.mu.index(col)]])
                         for col, c in row.items() if col in self.mu])
        if g.is_zero:
            targets = [k]
            self.w_set.append(k)
        else:
            g = g.combine((), 1 / g.leading)
            for pos in self.j_set:
                c = self.h_rows[pos].get(g.length)
                if c:
                    self.h_rows[pos] = self.h_rows[pos].combine([(-c, g)])
            rank = bisect_left(self.mu, g.length)
            targets = self.j_set[rank:] + [k]
            self.mu.insert(rank, g.length)
            self.j_set.append(k)
        place(self.h_rows, targets, g)
        self.first_targets.append(targets[0])

    def stable_since(self):
        """Per position n, the last push that placed a row at or below n."""
        since = list(range(len(self.h_rows)))
        for k, first in enumerate(self.first_targets):
            since[first] = k
        return list(accumulate(since, max))


def source_rows(source, k):
    """Rows 0..k-1 of a source: the consumed rows the checks read."""
    return [source.row_at(n) for n in range(k)]


@pytest.fixture
def rng():
    return random.Random(20240817)
