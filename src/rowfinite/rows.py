"""Exact rational scalars and finitely supported row vectors.

Every coefficient in this package is an arbitrary-precision rational
(``fractions.Fraction``), so arithmetic is exact and zero tests are
decidable; pivot selection and row-length bookkeeping depend on that.

A :class:`FiniteRow` is an immutable sparse row: strictly increasing
``(column, coefficient)`` pairs with no stored zeros.  Its *length* is the
column index of the rightmost nonzero entry, ``-1`` for the zero row.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Tuple, Union

Scalar = Fraction
ScalarLike = Union[Fraction, int, str]

_SCALAR_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?\Z")


class ZeroRowError(ValueError):
    """An operation that needs a nonzero row was given the zero row."""


class ShortColumnError(ValueError):
    """A dot product was asked against a column that does not cover the row."""


def parse_scalar(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` (sign on the numerator, q > 0) exactly."""
    s = text.strip()
    if not _SCALAR_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(s)


_CHUNK = 10 ** 600   # fewer digits than any int-to-str limit Python allows


def _decimal(n: int) -> str:
    """``str(n)`` without the interpreter's digit limit, 600 digits at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    low = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        low.append(f"{r:0600d}")
    return sign + str(n) + "".join(reversed(low))


def format_scalar(value: Fraction) -> str:
    """Render as ``"p"`` or ``"p/q"`` in lowest terms; inverse of parse_scalar.

    Output has no digit limit.  The interpreter's limit on int-str
    conversion (4,300 digits by default) bounds the parsing of untrusted
    text, so parse_scalar keeps it and rejects longer numbers.
    """
    try:
        return str(value)
    except ValueError:
        text = _decimal(value.numerator)
        return text if value.denominator == 1 else f"{text}/{_decimal(value.denominator)}"


def as_scalar(value: ScalarLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class FiniteRow:
    """Immutable sparse row of exact rationals, ordered by column."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Tuple[int, ScalarLike]] = ()):
        cleaned = []
        for col, value in entries:
            if not isinstance(col, int) or isinstance(col, bool) or col < 0:
                raise ValueError(f"column must be a nonnegative integer, got {col!r}")
            v = as_scalar(value)
            if v:
                cleaned.append((col, v))
        cleaned.sort(key=lambda e: e[0])
        for (a, _), (b, _) in zip(cleaned, cleaned[1:]):
            if a == b:
                raise ValueError(f"duplicate column {a}")
        self._entries = tuple(cleaned)

    @classmethod
    def _raw(cls, entries: list) -> "FiniteRow":
        # entries already sorted, deduplicated, zero-free
        row = cls.__new__(cls)
        row._entries = tuple(entries)
        return row

    @classmethod
    def from_dense(cls, values: Sequence[ScalarLike]) -> "FiniteRow":
        return cls(enumerate(values))

    @property
    def is_zero(self) -> bool:
        return not self._entries

    @property
    def length(self) -> int:
        """Column of the rightmost nonzero entry; -1 for the zero row."""
        return self._entries[-1][0] if self._entries else -1

    @property
    def leading(self) -> Fraction:
        if not self._entries:
            raise ZeroRowError("the zero row has no rightmost coefficient")
        return self._entries[-1][1]

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(c for c, _ in self._entries)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return iter(self._entries)

    def get(self, col: int) -> Fraction:
        i = bisect_left(self._entries, (col,))
        if i < len(self._entries) and self._entries[i][0] == col:
            return self._entries[i][1]
        return Fraction(0)

    def axpy(self, c: ScalarLike, other: "FiniteRow") -> "FiniteRow":
        """Return ``self + c * other`` with exact cancellation."""
        c = as_scalar(c)
        if not c or other.is_zero:
            return self
        out = []
        a, b = self._entries, other._entries
        i = j = 0
        while i < len(a) and j < len(b):
            ca, va = a[i]
            cb, vb = b[j]
            if ca < cb:
                out.append(a[i])
                i += 1
            elif cb < ca:
                out.append((cb, c * vb))
                j += 1
            else:
                v = va + c * vb
                if v:
                    out.append((ca, v))
                i += 1
                j += 1
        out.extend(a[i:])
        for cb, vb in b[j:]:
            out.append((cb, c * vb))
        return FiniteRow._raw(out)

    def scale(self, c: ScalarLike) -> "FiniteRow":
        c = as_scalar(c)
        if not c:
            return ZERO_ROW
        return FiniteRow._raw([(col, c * v) for col, v in self._entries])

    def normalize_rightmost(self) -> "FiniteRow":
        """Scale so the rightmost coefficient is exactly 1."""
        lead = self.leading
        return self if lead == 1 else self.scale(1 / lead)

    def dot_prefix(self, column: Sequence[ScalarLike]) -> Fraction:
        """Exact inner product against a column prefix covering the support."""
        if self.length >= len(column):
            raise ShortColumnError(
                f"row has length {self.length} but only {len(column)} column "
                f"entries were supplied"
            )
        total = Fraction(0)
        for col, v in self._entries:
            total += v * as_scalar(column[col])
        return total

    def to_dense(self, width: int | None = None) -> list:
        if width is None:
            width = self.length + 1
        if width < self.length + 1:
            raise ValueError(f"width {width} does not cover length {self.length}")
        dense = [Fraction(0)] * width
        for col, v in self._entries:
            dense[col] = v
        return dense

    def __add__(self, other: "FiniteRow") -> "FiniteRow":
        return self.axpy(1, other)

    def __sub__(self, other: "FiniteRow") -> "FiniteRow":
        return self.axpy(-1, other)

    def __mul__(self, c: ScalarLike) -> "FiniteRow":
        return self.scale(c)

    __rmul__ = __mul__

    def __neg__(self) -> "FiniteRow":
        return self.scale(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteRow):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(self._entries)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        if self.is_zero:
            return "FiniteRow()"
        pairs = ", ".join(f"({c}, {str(v)!r})" for c, v in self._entries)
        return f"FiniteRow([{pairs}])"


ZERO_ROW = FiniteRow()
