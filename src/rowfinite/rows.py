"""Exact rational scalars and finitely supported row vectors.

Every coefficient in this package is an arbitrary-precision rational, so
arithmetic is exact and zero tests are decidable; pivot selection and
row-length bookkeeping depend on that.  Scalars cross the API as
``fractions.Fraction``.

A :class:`FiniteRow` is an immutable sparse row: strictly increasing
``(column, coefficient)`` pairs with no stored zeros.  Its *length* is the
column index of the rightmost nonzero entry, ``-1`` for the zero row.
Inside, each entry is a ``(column, numerator, denominator)`` triple of plain
``int``s in lowest terms with a positive denominator.

Rows are combined in one way, :meth:`FiniteRow.combine`, which builds
``c * (row + sum(m_i * row_i))`` in one pass: it accumulates unreduced
numerator/denominator pairs per column (denominators grow only to their
lcm) and reduces each surviving entry once, with one gcd, as in Bareiss's
integer-preserving elimination (Math. Comp. 22, 1968), instead of
renormalising the whole row after each pairwise step.  A plain scale and a
single-term merge follow the same rule on their own traversals.  Results stay
canonical (equality and hashing compare the triples) and no ``Fraction``
is built per entry; ``items``, ``get`` and ``leading`` build one on the way
out (``get`` of an absent column returns one shared zero), and
``int_items`` hands out the triples themselves, for loops that build a
``Fraction`` (:func:`to_fraction`) only for the entries they keep.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, Sequence, Tuple, Union

ScalarLike = Union[Fraction, int, str]

_SCALAR_RE = re.compile(r"([+-]?[0-9]+)(?:/([1-9][0-9]*))?\Z")


class ZeroRowError(ValueError):
    """An operation that needs a nonzero row was given the zero row."""


class ShortColumnError(ValueError):
    """A dot product was asked against a column that does not cover the row."""


def short_forcing(given: int, needed: int) -> ShortColumnError:
    """The error of a forcing prefix of ``given`` terms where the requested
    output reads ``needed``, both counted from g_0."""
    return ShortColumnError(f"forcing prefix has {given} terms counted from g_0; "
                            f"the requested output needs {needed}")


def parse_scalar(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` exactly (see :func:`as_ratio`)."""
    return to_fraction(*as_ratio(text))


def reduced(num: int, den: int) -> Tuple[int, int]:
    """``num/den`` (``den`` nonzero) in lowest terms, the sign on ``num``."""
    g = gcd(num, den)
    return (num // g, den // g) if den > 0 else (-num // g, -den // g)


_CHUNK = 10 ** 600   # fewer digits than any int-to-str limit Python allows


def _decimal(n: int) -> str:
    """``str(n)`` without the interpreter's digit limit, 600 digits at a time."""
    sign, n = ("-", -n) if n < 0 else ("", n)
    low = []
    while n >= _CHUNK:
        n, r = divmod(n, _CHUNK)
        low.append(f"{r:0600d}")
    return sign + str(n) + "".join(reversed(low))


def format_ratio(num: int, den: int) -> str:
    """Render ``num/den`` (in lowest terms, ``den > 0``) as ``"p"`` or
    ``"p/q"``; inverse of parse_scalar.

    Output has no digit limit.  The interpreter's limit on int-str
    conversion (4,300 digits by default) bounds the parsing of untrusted
    text, so parse_scalar keeps it and rejects longer numbers.
    """
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        text = _decimal(num)
        return text if den == 1 else f"{text}/{_decimal(den)}"


def format_scalar(value: Fraction) -> str:
    """Render as ``"p"`` or ``"p/q"`` in lowest terms (see format_ratio)."""
    return format_ratio(value.numerator, value.denominator)


def as_ratio(value: ScalarLike) -> Tuple[int, int]:
    """``value`` in lowest terms, a numerator and a positive denominator; a
    ``str`` is ``"p"`` or ``"p/q"`` (sign on p, q > 0, ASCII digits only;
    p may start with zeros, q may not: ``"007/14"`` is read, ``"1/02"`` not)."""
    if isinstance(value, str):
        match = _SCALAR_RE.match(value.strip())
        if not match:
            raise ValueError(f"not a rational literal: {value!r}")
        return reduced(int(match[1]), int(match[2] or 1))
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def as_scalar(value: ScalarLike) -> Fraction:
    return value if isinstance(value, Fraction) else to_fraction(*as_ratio(value))


def to_fraction(num: int, den: int) -> Fraction:
    """``num/den`` as a ``Fraction``, for a pair from ``int_items``."""
    return Fraction(num) if den == 1 else Fraction(num, den)


_ZERO = Fraction(0)


def sum_products(terms: Iterable[Tuple[int, int, ScalarLike]],
                 tn: int = 0, td: int = 1) -> Tuple[int, int]:
    """``tn/td + sum(num/den * v for num, den, v in terms)`` as one integer
    pair, not in lowest terms: products are summed with denominators meeting
    through their gcd, so the caller normalises once.  A value ``v`` that is
    neither ``int`` nor ``Fraction`` goes through :func:`as_scalar`."""
    for num, den, v in terms:
        if type(v) is not Fraction and type(v) is not int:
            v = as_scalar(v)
        vn = v.numerator
        if not vn:
            continue
        pn = num * vn
        pd = den * v.denominator
        if pd == td:
            tn += pn
        else:
            g = gcd(td, pd)
            pd //= g
            tn = tn * pd + pn * (td // g)
            td *= pd
    return tn, td


class FiniteRow:
    """Immutable sparse row of exact rationals, ordered by column."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Iterable[Tuple[int, ScalarLike]] = ()):
        cleaned = []
        for col, value in entries:
            if not isinstance(col, int) or isinstance(col, bool) or col < 0:
                raise ValueError(f"column must be a nonnegative integer, got {col!r}")
            num, den = as_ratio(value)
            if num:
                cleaned.append((col, num, den))
        cleaned.sort(key=lambda e: e[0])
        for a, b in zip(cleaned, cleaned[1:]):
            if a[0] == b[0]:
                raise ValueError(f"duplicate column {a[0]}")
        self._entries = tuple(cleaned)

    @classmethod
    def _raw(cls, entries: list) -> "FiniteRow":
        # (column, numerator, denominator) triples, already sorted,
        # deduplicated, zero-free and in lowest terms
        row = cls.__new__(cls)
        row._entries = tuple(entries)
        return row

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
        _, num, den = self._entries[-1]
        return to_fraction(num, den)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(e[0] for e in self._entries)

    def items(self) -> Iterator[Tuple[int, Fraction]]:
        return ((col, to_fraction(num, den)) for col, num, den in self._entries)

    def int_items(self) -> Iterator[Tuple[int, int, int]]:
        """``(column, numerator, denominator)`` per entry, in lowest terms
        with a positive denominator."""
        return iter(self._entries)

    def get(self, col: int) -> Fraction:
        i = bisect_left(self._entries, (col,))
        if i < len(self._entries) and self._entries[i][0] == col:
            _, num, den = self._entries[i]
            return to_fraction(num, den)
        return _ZERO

    def combine(self, terms: Iterable[Tuple[Fraction | int, "FiniteRow"]],
                c: Fraction | int | None = None) -> "FiniteRow":
        """Return ``c * (self + sum(m * row for m, row in terms))`` exactly;
        ``c`` of None stands for 1.  Multipliers and ``c`` are ``Fraction``
        or ``int``.

        Every path follows one rule (see the module docstring): products
        are formed as unreduced integer pairs, two pairs in one column meet
        over the lcm of their denominators, a zero sum is dropped and each
        stored entry is reduced once, with one gcd.  Only the traversal
        depends on the input: a plain scale (no terms) maps the entries, a
        single term with no ``c`` merges the two rows in column order, and
        anything else accumulates per column in dicts."""
        if not isinstance(terms, list):
            terms = list(terms)
        if c is not None and not c:
            return ZERO_ROW
        if not terms:
            if c is None:
                return self
            cn, cd = c.numerator, c.denominator
            out = []
            for col, num, den in self._entries:
                num *= cn
                den *= cd
                g = gcd(num, den)
                out.append((col, num // g, den // g))
            return FiniteRow._raw(out)
        if c is None and len(terms) == 1:
            m, other = terms[0]
            if not m:
                return self
            mn, md = m.numerator, m.denominator
            a = self._entries
            out = []
            append = out.append
            i, end = 0, len(a)
            for col, bn, bd in other._entries:
                while i < end and a[i][0] < col:
                    append(a[i])
                    i += 1
                num = mn * bn
                den = md * bd
                if i < end and a[i][0] == col:
                    _, an, ad = a[i]
                    i += 1
                    if ad == den:
                        num += an
                    else:
                        g = gcd(ad, den)
                        den //= g
                        num = num * (ad // g) + an * den
                        den *= ad
                    if not num:
                        continue
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
                append((col, num, den))
            out.extend(a[i:])
            return FiniteRow._raw(out)
        nums = {col: num for col, num, _ in self._entries}
        dens = {col: den for col, _, den in self._entries}
        for m, row in terms:
            mn, md = m.numerator, m.denominator
            if not mn:
                continue
            for col, bn, bd in row._entries:
                pn = mn * bn
                pd = md * bd
                ad = dens.get(col)
                if ad is None:
                    nums[col] = pn
                    dens[col] = pd
                elif ad == pd:
                    nums[col] += pn
                else:
                    g = gcd(ad, pd)
                    pd //= g
                    nums[col] = nums[col] * pd + pn * (ad // g)
                    dens[col] = ad * pd
        cn, cd = (1, 1) if c is None else (c.numerator, c.denominator)
        out = []
        append = out.append
        for col in sorted(nums):
            num = nums[col]
            if num:
                den = dens[col] * cd
                num *= cn
                g = gcd(num, den)
                if g != 1:
                    num //= g
                    den //= g
                append((col, num, den))
        return FiniteRow._raw(out)

    def dot_prefix(self, column: Sequence[ScalarLike]) -> Fraction:
        """Exact inner product against a column prefix covering the support.

        Summed on the stored integer pairs by :func:`sum_products`; only
        the result is a normalised ``Fraction``."""
        if self.length >= len(column):
            raise ShortColumnError(
                f"row has length {self.length} but only {len(column)} column "
                f"entries were supplied"
            )
        return Fraction(*sum_products((num, den, column[col])
                                      for col, num, den in self._entries))

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
        pairs = ", ".join(f"({c}, {format_ratio(n, d)!r})" for c, n, d in self._entries)
        return f"FiniteRow([{pairs}])"


ZERO_ROW = FiniteRow()
