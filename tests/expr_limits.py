"""Coefficient expressions at the bounds of the grammar, evaluated through
their compiled code and through a tree walk over ``Fraction``s.

Each case is the deepest accepted chain of one construct (``MAX_DEPTH``
levels), the longest integer literal ``int()`` accepts, or the largest
exponent (``MAX_EXPONENT``).  The compiled evaluation must give the tree
walk's value, or its ``EvalError`` message, at every probe, and its code
must read and bind only its own names.  Stdlib only, so it also runs
without pytest, on each supported Python, with warnings as errors:

    PYTHONPATH=src python -W error tests/expr_limits.py
"""

import re
import sys
from fractions import Fraction

from rowfinite import EvalError, parse_coeff_expr
from rowfinite.sources import MAX_DEPTH, MAX_EXPONENT, _Parser

_COSPI2 = (Fraction(1), Fraction(0), Fraction(-1), Fraction(0))


def reference_eval(node, n, j):
    """Tree walk over Fractions: the reference the compiled code of
    ``CoeffExpr.evaluate`` must reproduce, values and errors alike."""
    op = node[0]
    if op == "num":
        return Fraction(node[1])
    if op == "n":
        return Fraction(n)
    if op == "j":
        if j is None:
            raise EvalError("expression uses 'j' but no column index applies here")
        return Fraction(j)
    if op == "neg":
        return -reference_eval(node[1], n, j)
    if op == "add":
        return reference_eval(node[1], n, j) + reference_eval(node[2], n, j)
    if op == "sub":
        return reference_eval(node[1], n, j) - reference_eval(node[2], n, j)
    if op == "mul":
        return reference_eval(node[1], n, j) * reference_eval(node[2], n, j)
    if op == "div":
        denom = reference_eval(node[2], n, j)
        if denom == 0:
            raise EvalError("division by zero")
        return reference_eval(node[1], n, j) / denom
    if op == "pow":
        return reference_eval(node[1], n, j) ** node[2]
    if op == "cospi2":
        arg = reference_eval(node[1], n, j)
        if arg.denominator != 1:
            raise EvalError(f"cospi2 needs an integer argument, got {arg}")
        return _COSPI2[int(arg) % 4]
    raise AssertionError(f"unknown node {node!r}")


# the globals compiled code may read: the helpers it is evaluated against
_OWN_GLOBALS = {"_COSPI2", "_raise", "_pow", "_ratio", "_reduced"}


def own_names(expr) -> bool:
    """Whether the compiled code of ``expr`` reads no global but its
    helpers' and binds no local but ``n``, ``j`` and ``_t<digits>``."""
    code = expr._fn.__code__
    return (set(code.co_names) <= _OWN_GLOBALS and code.co_varnames[:2] == ("n", "j")
            and all(re.fullmatch(r"_t[0-9]+", name) for name in code.co_varnames[2:]))


def outcome(fn):
    """The value of ``fn()``, or the message of the EvalError it raises."""
    try:
        return fn()
    except EvalError as exc:
        return ("EvalError", str(exc))


_LONGEST = 4300   # digits: the interpreter's default limit on int() of a str

# name -> (text, depth or None, probes); a depth is checked to be the text's
# nesting depth, and each probe (n, j) is evaluated both ways
CASES = {
    # left-deep: each division's numerator is the chain before it
    "division-numerator-chain": ("j" + "/n" * (MAX_DEPTH - 1), MAX_DEPTH,
                                 [(3, 2), (3, None), (0, 2)]),
    # right-deep: each division's denominator is a group holding the rest
    "division-denominator-chain": ("j/(" * 24 + "n/2" + ")" * 24, MAX_DEPTH,
                                   [(3, 5), (0, 5), (4, None)]),
    "cospi2-chain": ("cospi2(" * (MAX_DEPTH - 2) + "n/2" + ")" * (MAX_DEPTH - 2),
                     MAX_DEPTH, [(4, None), (6, None), (3, None)]),
    # each cospi2 call is an int operand of a sum of pairs, written as a pair
    "cospi2-of-pairs-chain": ("1/n + cospi2(" * 24 + "2/n" + ")" * 24, MAX_DEPTH,
                              [(1, None), (-1, None), (2, None), (0, None)]),
    "power-chain": ("(" * 23 + "(n-j)" + "^1)" * 22 + "^2)" + f"^{MAX_EXPONENT // 2}",
                    MAX_DEPTH, [(3, 1), (1, 3), (2, 2), (2, None)]),
    "longest-literal": ("9" * _LONGEST + " - n/" + "7" * _LONGEST, None,
                        [(2, None), (-5, None)]),
    "largest-exponent": (f"(n/2 - j)^{MAX_EXPONENT}", None,
                         [(3, 0), (4, 1), (4, 3), (1, None)]),
    # a quotient not in lowest terms, reduced before it is raised
    "largest-exponent-of-a-quotient": (f"(n*n/(n*n))^{MAX_EXPONENT}", None,
                                       [(3, None), (-2, None), (0, None)]),
}


def depth(text: str) -> int:
    parser = _Parser(text)
    _, levels = parser.expr()
    assert parser.peek()[0] == "end"
    return levels


def check(name: str) -> None:
    """Raise AssertionError unless case ``name`` compiles and evaluates as
    the tree walk does at each of its probes."""
    text, levels, probes = CASES[name]
    if levels is not None:
        assert depth(text) == levels, (name, depth(text), levels)
    expr = parse_coeff_expr(text)
    assert own_names(expr), (name, expr._fn.__code__.co_names, expr._fn.__code__.co_varnames)
    tree = _Parser(text).parse()
    for n, j in probes:
        got = outcome(lambda: expr.evaluate(n, j))
        assert got == outcome(lambda: reference_eval(tree, n, j)), (name, n, j)
        assert isinstance(got, tuple) or type(got) is Fraction, (name, n, j)


def main() -> int:
    for name in CASES:
        check(name)
        print(f"ok {name}")
    print(f"{len(CASES)} cases pass on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
