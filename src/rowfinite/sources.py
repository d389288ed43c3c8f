"""Row oracles for infinite coefficient matrices, plus a small expression
language for variable coefficients.

A :class:`RowSource` produces row ``n`` of the matrix on demand.  Builtin
families:

``first_order``
    recurrence ``y_{n+1} = a_n y_n``;  row n is ``(-a_n, 1)`` at columns
    ``(n, n+1)``.
``second_order``
    normal form ``y_n + b_n y_{n-1} + a_n y_{n-2} = 0``;  row n is
    ``(a_n, b_n, 1)`` at columns ``(n, n+1, n+2)``.
``n_order``
    banded equation of constant order N: row n has support ``[n, n+N]``
    with entries ``a(n, j)`` and a nonvanishing trailing coefficient.
``ascending``
    row n has support ``[0, n+N]``; the trailing coefficient must not
    vanish.
``example2``
    the bundled showcase equation
    ``(n-1) y_{n+2} - (n^2+3n-2) y_{n+1} + 2n(n+1) y_n = 0``, whose
    trailing coefficient vanishes at n = 1 (three-dimensional solution
    space).
``example3``
    the bundled cosine-coefficient equation ``a(k, m) = 1 - cos((2k-m)pi/2)``
    over columns ``0..k+2``; its trailing coefficient vanishes along an
    arithmetic progression, so the solution space is infinite-dimensional.
``explicit``
    a stored finite list of rows.

The constant- and ascending-order families (``first_order``,
``second_order``, ``n_order``, ``ascending``) carry ``regular_order_index =
N``: every trailing coefficient is nonzero, so their rows come in strictly
increasing length order and the elimination of them is certified.  The
regularity claim is checked lazily, row by row, because nonvanishing of an
arbitrary coefficient expression for all n is not decidable up front.  The
banded families (``first_order``, ``second_order``, ``n_order``) also carry
``band``, the number of columns left of the trailing one that a row can
occupy (1, 2 and N), so that the closed form in :mod:`rowfinite.hessenberg`
skips the entries known to be zero.
The order N of ``n_order`` and ``ascending`` is at most ``MAX_ORDER``, and
a column of an ``explicit`` or ``expect`` row at most ``MAX_COLUMN``.

Coefficient expressions use the grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' nonneg-int)?
    atom   := int | 'n' | 'j' | 'cospi2' '(' expr ')' | '(' expr ')' | '-' atom

``cospi2(m)`` is the exact value of cos(m*pi/2) for integer m, i.e. the cycle
1, 0, -1, 0 indexed by m mod 4.  An expression nests at most ``MAX_DEPTH``
levels deep (each operator, negation, ``cospi2`` call and parenthesized group
is a level), and the exponents along any path of nested powers multiply to at
most ``MAX_EXPONENT``, so ``(n^10)^100`` is accepted and ``(n^10)^101`` is not;
anything beyond is an :class:`ExprSyntaxError`.

Each expression is compiled once, when it is parsed, into nested closures
that compute over ``int`` and turn into a ``Fraction`` only where a division
occurs.  Rows are built from the closures' ``int`` or ``Fraction`` values
as they are; :meth:`CoeffExpr.evaluate` is the ``Fraction`` API.
Evaluation raises :class:`EvalError` on a zero denominator (tested before
the numerator is evaluated), on a non-integer ``cospi2`` argument, and on
``j`` where no column index applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Tuple

from .rows import FiniteRow, Scalar, as_scalar


class SpecError(ValueError):
    """A family descriptor, equation file, or parameter is invalid."""


class ExprSyntaxError(SpecError):
    """Syntax error in a coefficient expression; carries the offset."""

    def __init__(self, message: str, position: int, expected: tuple = ()):
        detail = f"{message} at offset {position}"
        if expected:
            detail += f" (expected {', '.join(sorted(expected))})"
        super().__init__(detail)
        self.position = position
        self.expected = tuple(sorted(expected))


class EvalError(ArithmeticError):
    """A coefficient expression failed to evaluate exactly."""


# --- tokenizer ------------------------------------------------------------

_OPS = "+-*/^()"


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif ch in _OPS:
            toks.append(("op", ch, i))
            i += 1
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    toks.append(("end", "", n))
    return toks


# Bounds that keep parsing and evaluation finite.  The parser uses up to six
# stack frames per level and a compiled expression one, so MAX_DEPTH levels
# stay well under Python's default recursion limit of 1000; MAX_EXPONENT
# bounds the degree a power can reach, exponents of nested powers multiplied;
# MAX_ORDER bounds the order N of the n_order and ascending families, whose
# rows hold N+1 entries or more; MAX_COLUMN bounds a column in an explicit
# or ``expect`` row, since checks and dense output grow with the width.
MAX_DEPTH = 50
MAX_EXPONENT = 1000
MAX_ORDER = 10_000
MAX_COLUMN = 100_000


class _Parser:
    """Recursive descent over the tokens.  Each rule returns the node and
    its depth, counting a parenthesized group as one level; a tree deeper
    than MAX_DEPTH is rejected at the token that deepens it, before the
    parser recurses further."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.level = 0   # groups, negations and cospi2 calls open at the cursor

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, expected: tuple):
        kind, value, pos = self.peek()
        what = "end of input" if kind == "end" else repr(value)
        raise ExprSyntaxError(f"unexpected {what}", pos, expected)

    def checked(self, depth: int, pos: int) -> int:
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels", pos)
        return depth

    def parse(self):
        node, _ = self.expr()
        if self.peek()[0] != "end":
            self.fail(("end of input",))
        return node

    def expr(self):
        node, depth = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, pos = self.advance()
            rhs, rhs_depth = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
            depth = self.checked(max(depth, rhs_depth) + 1, pos)
        return node, depth

    def term(self):
        node, depth = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, pos = self.advance()
            rhs, rhs_depth = self.factor()
            node = ("mul" if op == "*" else "div", node, rhs)
            depth = self.checked(max(depth, rhs_depth) + 1, pos)
        return node, depth

    def factor(self):
        node, depth = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                self.fail(("nonnegative integer exponent",))
            if int(value) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {value} exceeds {MAX_EXPONENT}", pos)
            power = int(value) * _power(node)
            if power > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"nested exponents multiply to {power}, over {MAX_EXPONENT}", pos)
            self.advance()
            node = ("pow", node, int(value))
            depth = self.checked(depth + 1, pos)
        return node, depth

    def nested(self, pos: int, rule):
        """Apply ``rule`` one level down; its result is one level deeper."""
        self.level += 1
        self.checked(self.level, pos)
        node, depth = rule()
        self.level -= 1
        return node, self.checked(depth + 1, pos)

    def atom(self):
        kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return ("num", int(value)), 1
        if kind == "name":
            self.advance()
            if value in ("n", "j"):
                return (value,), 1
            if value == "cospi2":
                if self.peek()[:2] != ("op", "("):
                    self.fail(("'('",))
                node, depth = self.nested(pos, self.group)
                return ("cospi2", node), depth
            raise ExprSyntaxError(f"unknown identifier {value!r}", pos)
        if kind == "op" and value == "(":
            return self.nested(pos, self.group)
        if kind == "op" and value == "-":
            self.advance()
            node, depth = self.nested(pos, self.atom)
            return ("neg", node), depth
        self.fail(("integer", "'n'", "'j'", "'cospi2'", "'('", "'-'"))

    def group(self):
        """'(' expr ')' at the cursor."""
        self.advance()
        node, depth = self.expr()
        if self.peek()[:2] != ("op", ")"):
            self.fail(("')'",))
        self.advance()
        return node, depth


def _power(node) -> int:
    """The greatest product of the exponents along a path down from ``node``."""
    if node[0] == "pow":
        return node[2] * _power(node[1])
    return max((_power(child) for child in node[1:] if isinstance(child, tuple)),
               default=1)


_COSPI2 = (1, 0, -1, 0)


def _compile(node) -> Callable[[int, Optional[int]], int | Fraction]:
    """Turn a parse tree into nested closures of ``(n, j)``.  Values stay
    ``int`` until a division makes them a ``Fraction``; a division evaluates
    its denominator first, so its zero test fires before any error of its
    numerator."""
    op = node[0]
    if op == "num":
        value = node[1]
        return lambda n, j: value
    if op == "n":
        return lambda n, j: n
    if op == "j":
        def column(n, j):
            if j is None:
                raise EvalError("expression uses 'j' but no column index applies here")
            return j
        return column
    if op == "neg":
        arg = _compile(node[1])
        return lambda n, j: -arg(n, j)
    if op == "pow":
        base, exponent = _compile(node[1]), node[2]
        return lambda n, j: base(n, j) ** exponent
    if op == "cospi2":
        arg = _compile(node[1])

        def cospi2(n, j):
            m = arg(n, j)
            if type(m) is not int:
                if m.denominator != 1:
                    raise EvalError(f"cospi2 needs an integer argument, got {m}")
                m = m.numerator
            return _COSPI2[m % 4]
        return cospi2
    lhs, rhs = _compile(node[1]), _compile(node[2])
    if op == "add":
        return lambda n, j: lhs(n, j) + rhs(n, j)
    if op == "sub":
        return lambda n, j: lhs(n, j) - rhs(n, j)
    if op == "mul":
        return lambda n, j: lhs(n, j) * rhs(n, j)
    if op == "div":
        def div(n, j):
            denom = rhs(n, j)
            if denom == 0:
                raise EvalError("division by zero")
            return Fraction(lhs(n, j), denom)
        return div
    raise AssertionError(f"unknown node {node!r}")


class CoeffExpr:
    """A parsed coefficient expression over the variables n and j, compiled
    once into closures (see :func:`_compile`)."""

    __slots__ = ("text", "_fn")

    def __init__(self, text: str, root):
        self.text = text
        self._fn = _compile(root)

    def evaluate(self, n: int, j: Optional[int] = None) -> Fraction:
        return Fraction(self._fn(n, j))

    def __repr__(self) -> str:
        return f"CoeffExpr({self.text!r})"


def parse_coeff_expr(text: str) -> CoeffExpr:
    """Parse an expression; raises ExprSyntaxError with the failing offset."""
    return CoeffExpr(text, _Parser(text).parse())


# --- coefficient adapters --------------------------------------------------


def _coeff_n(value, name: str) -> Callable[[int], int | Fraction]:
    """Adapt an n-indexed coefficient parameter to a function of n."""
    if isinstance(value, str):
        value = parse_coeff_expr(value)
    if isinstance(value, CoeffExpr):
        return lambda n: value._fn(n, None)
    if isinstance(value, (int, Fraction)):
        const = as_scalar(value)
        return lambda n: const
    if isinstance(value, (list, tuple)):
        vals = [as_scalar(v) for v in value]

        def from_list(n: int) -> Fraction:
            if not 0 <= n < len(vals):
                raise SpecError(f"parameter {name!r} has {len(vals)} values, row {n} requested")
            return vals[n]

        return from_list
    if callable(value):
        return lambda n: as_scalar(value(n))
    raise SpecError(f"parameter {name!r} must be an expression, constant, list, or callable")


def _coeff_nj(value, name: str) -> Callable[[int, int], int | Fraction]:
    """Adapt an (n, j)-indexed coefficient parameter."""
    if isinstance(value, str):
        value = parse_coeff_expr(value)
    if isinstance(value, CoeffExpr):
        return value._fn
    if isinstance(value, (int, Fraction)):
        const = as_scalar(value)
        return lambda n, j: const
    if callable(value):
        return lambda n, j: as_scalar(value(n, j))
    raise SpecError(f"parameter {name!r} must be an expression, constant, or callable")


# --- RowSource --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RowSource:
    """On-demand producer of the rows of a row-finite matrix.

    ``band``, when set, says that row n has no entry left of column
    ``n + regular_order_index - band``.
    """

    row_fn: Callable[[int], FiniteRow]
    regular_order_index: Optional[int] = None
    row_count: Optional[int] = None
    band: Optional[int] = None

    def row_at(self, n: int) -> FiniteRow:
        if not isinstance(n, int) or n < 0:
            raise SpecError(f"row index must be a nonnegative integer, got {n!r}")
        if self.row_count is not None and n >= self.row_count:
            raise SpecError(
                f"explicit source has {self.row_count} rows, row {n} requested"
            )
        try:
            return self.row_fn(n)
        except EvalError as exc:
            raise EvalError(f"row {n}: {exc}") from exc


def _parse_row_entries(data) -> FiniteRow:
    if isinstance(data, FiniteRow):
        return data
    entries = []
    last = -1
    for item in data:
        if not (isinstance(item, (list, tuple)) and len(item) == 2):
            raise SpecError(f"row entry must be a [column, value] pair, got {item!r}")
        col, value = item
        if not isinstance(col, int) or isinstance(col, bool) or col < 0:
            raise SpecError(f"column must be a nonnegative integer, got {col!r}")
        if col > MAX_COLUMN:
            raise SpecError(f"column must be at most {MAX_COLUMN}, got {col}")
        if col <= last:
            raise SpecError(f"row columns must be strictly increasing, got {col} after {last}")
        last = col
        entries.append((col, as_scalar(value)))
    return FiniteRow._from_sorted(entries)


def _require(spec: Mapping, key: str, family: str):
    if key not in spec:
        raise SpecError(f"family {family!r} requires parameter {key!r}")
    return spec[key]


# compiled coefficients: example2's at columns n, n+1, n+2, and example3's
_EX2 = tuple(parse_coeff_expr(text)._fn
             for text in ("2*n*(n+1)", "-(n^2 + 3*n - 2)", "n - 1"))
_EX3 = parse_coeff_expr("1 - cospi2(2*n - j)")._fn


def build_family(spec: Mapping) -> RowSource:
    """Build a RowSource from a family descriptor (parsed JSON or a dict)."""
    family = spec.get("family")
    if family is None:
        raise SpecError("descriptor has no 'family'")

    if family == "explicit":
        rows = [_parse_row_entries(r) for r in _require(spec, "rows", family)]
        return RowSource(rows.__getitem__, row_count=len(rows))

    if family == "first_order":
        a = _coeff_n(_require(spec, "a", family), "a")

        def first_order_row(n: int) -> FiniteRow:
            return FiniteRow._from_sorted([(n, -a(n)), (n + 1, 1)])

        return RowSource(first_order_row, regular_order_index=1, band=1)

    if family == "second_order":
        a = _coeff_n(_require(spec, "a", family), "a")
        b = _coeff_n(_require(spec, "b", family), "b")

        def second_order_row(n: int) -> FiniteRow:
            return FiniteRow._from_sorted([(n, a(n)), (n + 1, b(n)), (n + 2, 1)])

        return RowSource(second_order_row, regular_order_index=2, band=2)

    if family in ("n_order", "ascending"):
        order = _require(spec, "N", family)
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise SpecError(f"'N' must be a nonnegative integer, got {order!r}")
        if order > MAX_ORDER:
            raise SpecError(f"'N' must be at most {MAX_ORDER}, got {order}")
        a = _coeff_nj(_require(spec, "a", family), "a")
        lo_of = (lambda n: n) if family == "n_order" else (lambda n: 0)

        def regular_row(n: int) -> FiniteRow:
            lead = a(n, n + order)
            if lead == 0:
                raise SpecError(
                    f"family {family!r} claims regular order {order} but the "
                    f"trailing coefficient vanishes at n={n}"
                )
            entries = [(j, a(n, j)) for j in range(lo_of(n), n + order)]
            entries.append((n + order, lead))
            return FiniteRow._from_sorted(entries)

        return RowSource(regular_row, regular_order_index=order,
                         band=order if family == "n_order" else None)

    if family == "example2":
        def example2_row(n: int) -> FiniteRow:
            return FiniteRow._from_sorted([(n + i, fn(n, None))
                                           for i, fn in enumerate(_EX2)])

        return RowSource(example2_row)

    if family == "example3":
        def example3_row(n: int) -> FiniteRow:
            return FiniteRow._from_sorted([(j, _EX3(n, j))
                                           for j in range(n + 3)])

        return RowSource(example3_row)

    raise SpecError(f"unsupported family {family!r}")


# --- equation files ----------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    """A coefficient-matrix source plus optional forcing terms and an
    optional expected reduction used by the verification command."""

    source: RowSource
    g: Optional[Tuple[Scalar, ...]] = None
    expect_h: Optional[Tuple[FiniteRow, ...]] = None
    expect_q: Optional[Tuple[FiniteRow, ...]] = None


def equation_from_obj(obj) -> EquationSpec:
    if not isinstance(obj, dict):
        raise SpecError("equation spec must be a JSON object")
    if "family" not in obj and "rows" in obj:
        obj = dict(obj, family="explicit")
    source = build_family(obj)
    g = None
    if obj.get("g") is not None:
        g = tuple(as_scalar(v) for v in obj["g"])
    expect_h = expect_q = None
    expect = obj.get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise SpecError("'expect' must be an object with 'h' and/or 'q'")
        if "h" in expect:
            expect_h = tuple(_parse_row_entries(r) for r in expect["h"])
        if "q" in expect:
            expect_q = tuple(_parse_row_entries(r) for r in expect["q"])
    return EquationSpec(source, g, expect_h, expect_q)


def load_equation(path) -> EquationSpec:
    """Load an equation-spec or explicit-matrix JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: not JSON or not UTF-8; RecursionError: nested too deep
        raise SpecError(f"cannot read equation file {path}: {exc}") from exc
    try:
        return equation_from_obj(obj)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, SpecError):
            raise
        raise SpecError(f"invalid equation file {path}: {exc}") from exc
