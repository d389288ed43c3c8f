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

Every family but ``explicit`` is a formula family, and they share one row
builder, :func:`_formula_source`: row n holds ``a(n, j)`` at columns
``n..n+N`` (banded) or ``0..n+N``, with N = 1 and 2 for the first- and
second-order families and 2 for the examples.  One adapter, :func:`_coeff`,
turns a parameter (expression, constant, per-n list or callable) into ``a``.
The constant- and ascending-order families (``first_order``,
``second_order``, ``n_order``, ``ascending``) carry ``regular_order_index =
N``: every trailing coefficient is nonzero, so their rows come in strictly
increasing length order and the elimination of them is certified.  The
regularity claim is checked lazily, row by row, because nonvanishing of an
arbitrary coefficient expression for all n is not decidable up front.  Rows
store only their nonzero entries, so whoever reads them (the elimination,
the closed form in :mod:`rowfinite.hessenberg`) pays for N + 1 entries per
row of a banded family and for n + N + 1 of ``ascending``.
The order N of ``n_order`` and ``ascending`` is at most ``MAX_ORDER``, and
a column of an ``explicit`` or ``expect`` row at most ``MAX_COLUMN``.

Coefficient expressions use the grammar (whitespace insignificant)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ('^' nonneg-int)?
    atom   := int | 'n' | 'j' | 'cospi2' '(' expr ')' | '(' expr ')' | '-' atom

where ``int`` is a run of the ASCII digits 0-9 that ``int()`` accepts.

``cospi2(m)`` is the exact value of cos(m*pi/2) for integer m, i.e. the cycle
1, 0, -1, 0 indexed by m mod 4.  An expression nests at most ``MAX_DEPTH``
levels deep (each operator, negation, ``cospi2`` call and parenthesized group
is a level), and the exponents along any path of nested powers multiply to at
most ``MAX_EXPONENT``, so ``(n^10)^100`` is accepted and ``(n^10)^101`` is not;
anything beyond is an :class:`ExprSyntaxError`.

Each expression is compiled once, when it is parsed, into one Python
function of ``(n, j)`` from fixed templates that hold no input text, only
the ``repr`` of the parsed integers.  It computes over ``int``, over integer
pairs (numerator, denominator) above a division, and returns a pair reduced
once: a row entry, built with no ``Fraction``; :meth:`CoeffExpr.evaluate` is
the ``Fraction`` API.  Evaluation raises :class:`EvalError` on a zero
denominator (tested before the numerator is evaluated), on a non-integer
``cospi2`` argument, and on ``j`` where no column index applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Mapping, Optional, Tuple

from .rows import FiniteRow, as_ratio, as_scalar, format_ratio, reduced


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
_DIGITS = "0123456789"   # str.isdigit() also holds for other scripts' digits


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _DIGITS:
            j = i
            while j < n and text[j] in _DIGITS:
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


# Bounds that keep parsing and evaluation finite.  The parser uses up to eight
# stack frames per level, so MAX_DEPTH levels (50 x 8 = 400 parser frames)
# stay far below Python's default recursion limit of 1000; a compiled
# expression evaluates in one frame, and a helper's, at any depth.  Its
# generated text nests at most three brackets per level and one at the root,
# so 151 at MAX_DEPTH, below the 200 that CPython's parser allows.  MAX_EXPONENT
# bounds the degree a power can reach, exponents of nested powers
# multiplied; MAX_ORDER bounds the order N of the n_order and ascending
# families, whose rows hold N+1 entries or more; MAX_COLUMN bounds a column
# in an explicit or ``expect`` row, since checks and dense output grow with
# the width.
MAX_DEPTH = 50
MAX_EXPONENT = 1000
MAX_ORDER = 10_000
MAX_COLUMN = 100_000


_SUMS = {"+": "add", "-": "sub"}
_PRODUCTS = {"*": "mul", "/": "div"}


class _Parser:
    """Recursive descent over the tokens.  Each rule returns the node and
    its depth, counting a parenthesized group as one level; a tree deeper
    than MAX_DEPTH is rejected at the token that deepens it, before the
    parser recurses further."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.level = 0   # groups, negations and cospi2 calls open at the cursor

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def literal(self, value: str, pos: int) -> int:
        try:
            return int(value)
        except ValueError:   # past the interpreter's limit on digits
            raise ExprSyntaxError(f"integer of {len(value)} digits is too long", pos) from None

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
        return self.chain(lambda: self.chain(self.factor, _PRODUCTS), _SUMS)

    def chain(self, operand, ops: Mapping[str, str]):
        """``operand`` (op ``operand``)*, left associative, over ``ops``."""
        node, depth = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            _, op, pos = self.advance()
            rhs, rhs_depth = operand()
            node = (ops[op], node, rhs)
            depth = self.checked(max(depth, rhs_depth) + 1, pos)
        return node, depth

    def factor(self):
        node, depth = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                self.fail(("nonnegative integer exponent",))
            exponent = self.literal(value, pos)
            if exponent > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent {value} exceeds {MAX_EXPONENT}", pos)
            power = exponent * _power(node)
            if power > MAX_EXPONENT:
                raise ExprSyntaxError(
                    f"nested exponents multiply to {power}, over {MAX_EXPONENT}", pos)
            self.advance()
            node = ("pow", node, exponent)
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
            return ("num", self.literal(value, pos)), 1
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


def _raise(message: str):
    raise EvalError(message)


_GLOBALS = {"_COSPI2": _COSPI2, "_raise": _raise, "_reduced": reduced, "_ratio": format_ratio,
            "_pow": lambda pair, e: tuple(x ** e for x in reduced(*pair))}
_J_UNSET = "expression uses 'j' but no column index applies here"
# The text of each kind of node, and with " p" of one with an operand that
# computes a pair, its int operands written as (x, 1).  {0} and {1} stand for
# the operands' text (an int operand, a literal or an exponent, as its repr),
# {a} and {b} for locals bound to them, {t} for a divisor or a cospi2
# argument.  A pair is never falsy, so a division of pairs binds its numerator
# in its zero test.  A power reduces its base first, so MAX_EXPONENT bounds
# its cost; the root returns a reduced pair.
_TEXT = {
    "num": "{0}", "n": "n", "neg": "(-{0})", "add": "({0} + {1})", "sub": "({0} - {1})",
    "mul": "({0} * {1})", "pow": "({0} ** {1})", "cospi2": "_COSPI2[{0} % 4]",
    "j": f"(j if j is not None else _raise({_J_UNSET!r}))", "root": "({0}, 1)",
    "div": "(({0}, {t}) if ({t} := {1}) else _raise('division by zero'))",
    "add p": "(({a} := {0})[0] * ({b} := {1})[1] + {b}[0] * {a}[1], {a}[1] * {b}[1])",
    "sub p": "(({a} := {0})[0] * ({b} := {1})[1] - {b}[0] * {a}[1], {a}[1] * {b}[1])",
    "mul p": "(({a} := {0})[0] * ({b} := {1})[0], {a}[1] * {b}[1])",
    "neg p": "(-({a} := {0})[0], {a}[1])", "pow p": "_pow({0}, {1})", "root p": "_reduced(*{0})",
    "div p": "(({a}[0] * {t}[1], {a}[1] * {t}[0]) if ({t} := {1})[0] and ({a} := {0})"
             " else _raise('division by zero'))",
    "cospi2 p": "(_COSPI2[{t}[0] // {t}[1] % 4] if not ({t} := {0})[0] % {t}[1] else _raise("
                "'cospi2 needs an integer argument, got ' + _ratio(*_reduced(*{t}))))",
}


def _compile(root) -> Callable[[int, Optional[int]], Tuple[int, int]]:
    """Turn a parse tree into one Python function of ``(n, j)``, compiled from
    generated text.  The text is fully parenthesized and built only from the
    templates of ``_TEXT``, the names ``n``, ``j`` and ``_t<k>``, and the
    ``repr`` of the ``int`` literals and exponents the parser produced, so no
    input text reaches ``compile()``.  A division binds its denominator in
    the test of a conditional expression, so its zero test fires before its
    numerator is evaluated; only a failing test calls ``_raise``."""
    temps = count()

    def text(node) -> Tuple[str, bool]:
        """The text of ``node`` and whether it computes a pair."""
        texts = [(repr(x), None) if type(x) is int else text(x) for x in node[1:]]
        pair = any(p for _, p in texts)   # a literal's None is never promoted
        texts = [f"({t}, 1)" if pair and p is False else t for t, p in texts]
        names = {name: f"_t{next(temps)}" for name in "abt"}
        return (_TEXT[node[0] + " p" * pair].format(*texts, **names),
                node[0] == "div" or pair and node[0] != "cospi2")

    body, _ = text(("root", root))
    return eval(compile(f"lambda n, j: {body}", "<coefficient>", "eval"), _GLOBALS)


class CoeffExpr:
    """A parsed coefficient expression over the variables n and j, compiled
    once into a function (see :func:`_compile`)."""

    __slots__ = ("text", "_fn")

    def __init__(self, text: str, root):
        self.text = text
        self._fn = _compile(root)

    def evaluate(self, n: int, j: Optional[int] = None) -> Fraction:
        return Fraction(*self._fn(n, j))

    def __repr__(self) -> str:
        return f"CoeffExpr({self.text!r})"


def parse_coeff_expr(text: str) -> CoeffExpr:
    """Parse an expression; raises ExprSyntaxError with the failing offset."""
    return CoeffExpr(text, _Parser(text).parse())


# --- coefficient adapters --------------------------------------------------


def _coeff(value, name: str, per_n: bool) -> Callable[[int, Optional[int]], Tuple[int, int]]:
    """Adapt a coefficient parameter to a function of ``(n, j)`` that returns a
    reduced pair.  A per-n parameter may also be a list; it does not read the
    column, so an expression sees ``j = None`` and a callable gets ``n`` alone."""
    if isinstance(value, str):
        value = parse_coeff_expr(value)
    if isinstance(value, CoeffExpr):
        fn = value._fn
        return (lambda n, j: fn(n, None)) if per_n else fn
    if isinstance(value, (int, Fraction)):
        const = as_ratio(value)
        return lambda n, j: const
    if per_n and isinstance(value, (list, tuple)):
        vals = [as_ratio(v) for v in value]

        def from_list(n: int, j: Optional[int]) -> Tuple[int, int]:
            if not 0 <= n < len(vals):
                raise SpecError(f"parameter {name!r} has {len(vals)} values, row {n} requested")
            return vals[n]

        return from_list
    if callable(value) and per_n:
        return lambda n, j: as_ratio(value(n))
    if callable(value):
        return lambda n, j: as_ratio(value(n, j))
    raise SpecError(f"parameter {name!r} must be an expression, constant, "
                    f"{'list, ' if per_n else ''}or callable")


# --- RowSource --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RowSource:
    """On-demand producer of the rows of a row-finite matrix.

    ``regular_order_index``, when set, is an order N such that row n ends
    at column n + N; :func:`rowfinite.hessenberg.general_prefix` checks it.
    """

    row_fn: Callable[[int], FiniteRow]
    regular_order_index: Optional[int] = None
    row_count: Optional[int] = None

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


def _array(value, what: str):
    """``value`` when it is a JSON array, or a tuple from library callers."""
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{what} must be an array, got {value!r}")
    return value


def _parse_row_entries(data) -> FiniteRow:
    if isinstance(data, FiniteRow):
        return data
    entries = []
    last = -1
    for item in _array(data, "a row"):
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
        if (v := as_ratio(value))[0]:
            entries.append((col, v[0], v[1]))
    return FiniteRow._raw(entries)


def _require(spec: Mapping, key: str, family: str):
    if key not in spec:
        raise SpecError(f"family {family!r} requires parameter {key!r}")
    return spec[key]


# compiled coefficients: example2's at columns n, n+1, n+2, and example3's
_EX2 = tuple(parse_coeff_expr(text)._fn
             for text in ("2*n*(n+1)", "-(n^2 + 3*n - 2)", "n - 1"))
_EX3 = parse_coeff_expr("1 - cospi2(2*n - j)")._fn


def _formula_source(family: str, order: int, a: Callable[[int, int], Tuple[int, int]],
                    banded: bool, regular: bool) -> RowSource:
    """The rows of a formula family: row n holds ``a(n, j)``, a reduced pair,
    at columns ``n..n+order`` if ``banded``, else ``0..n+order``.  The trailing
    coefficient ``a(n, n+order)`` is evaluated first; a ``regular`` family
    claims it never vanishes."""
    def formula_row(n: int) -> FiniteRow:
        top = n + order
        lead = a(n, top)
        if regular and not lead[0]:
            raise SpecError(f"family {family!r} claims regular order {order} but the "
                            f"trailing coefficient vanishes at n={n}")
        return FiniteRow._raw([(j, v[0], v[1]) for j in range(n if banded else 0, top + 1)
                               if (v := a(n, j) if j < top else lead)[0]])

    return RowSource(formula_row, regular_order_index=order if regular else None)


def build_family(spec: Mapping) -> RowSource:
    """Build a RowSource from a family descriptor (parsed JSON or a dict)."""
    family = spec.get("family")
    if family is None:
        raise SpecError("descriptor has no 'family'")

    if family == "explicit":
        rows = [_parse_row_entries(r) for r in _array(_require(spec, "rows", family), "'rows'")]
        return RowSource(rows.__getitem__, row_count=len(rows))

    if family == "first_order":
        a = _coeff(_require(spec, "a", family), "a", per_n=True)
        return _formula_source(family, 1, lambda n, j: (-(v := a(n, j))[0], v[1]) if j == n
                               else (1, 1), banded=True, regular=True)

    if family == "second_order":
        a, b = (_coeff(_require(spec, key, family), key, per_n=True) for key in "ab")
        return _formula_source(
            family, 2, lambda n, j: a(n, j) if j == n else b(n, j) if j == n + 1 else (1, 1),
            banded=True, regular=True)

    if family in ("n_order", "ascending"):
        order = _require(spec, "N", family)
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise SpecError(f"'N' must be a nonnegative integer, got {order!r}")
        if order > MAX_ORDER:
            raise SpecError(f"'N' must be at most {MAX_ORDER}, got {order}")
        a = _coeff(_require(spec, "a", family), "a", per_n=False)
        return _formula_source(family, order, a, banded=family == "n_order", regular=True)

    if family == "example2":
        return _formula_source(family, 2, lambda n, j: _EX2[j - n](n, None),
                               banded=True, regular=False)

    if family == "example3":
        return _formula_source(family, 2, _EX3, banded=False, regular=False)

    raise SpecError(f"unsupported family {family!r}")


# --- equation files ----------------------------------------------------------


@dataclass(frozen=True)
class EquationSpec:
    """A coefficient-matrix source plus optional forcing terms and an
    optional expected reduction used by the verification command."""

    source: RowSource
    g: Optional[Tuple[Fraction, ...]] = None
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
        g = tuple(as_scalar(v) for v in _array(obj["g"], "'g'"))
    expect_h = expect_q = None
    expect = obj.get("expect")
    if expect is not None:
        if not isinstance(expect, dict):
            raise SpecError("'expect' must be an object with 'h' and/or 'q'")
        if "h" in expect:
            expect_h = tuple(_parse_row_entries(r) for r in _array(expect["h"], "'expect.h'"))
        if "q" in expect:
            expect_q = tuple(_parse_row_entries(r) for r in _array(expect["q"], "'expect.q'"))
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
