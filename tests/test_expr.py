from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from rowfinite import (EvalError, ExprSyntaxError, FiniteRow, SpecError,
                       build_family, parse_coeff_expr)
from rowfinite.sources import MAX_DEPTH, MAX_EXPONENT, _Parser
from expr_limits import CASES as LIMIT_CASES, check, outcome, own_names, reference_eval


def ev(text, n, j=None):
    return parse_coeff_expr(text).evaluate(n, j)


# random expression texts over n, j, + - * / ^, unary minus and cospi2;
# every operand is parenthesized, so the text parses to the drawn tree
_leaves = st.one_of(st.sampled_from(["n", "j"]),
                    st.integers(min_value=0, max_value=5).map(str))
_texts = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(
            lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(sub, st.integers(min_value=0, max_value=3)).map(
            lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda t: f"-({t})"),
        sub.map(lambda t: f"cospi2({t})"),
    ),
    max_leaves=8,
)

# (<failing expression>)/(<t> - <t>): the denominator is an exact zero, so
# the division must report it before its numerator's own error
_failing = st.sampled_from(["j", "cospi2((2*n + 1)/2)", "1/0"])
_zero_divisions = st.tuples(_failing, _texts).map(
    lambda t: f"({t[0]})/(({t[1]}) - ({t[1]}))")


class TestGrammar:
    def test_polynomial_coefficient(self):
        expr = parse_coeff_expr("2*n*(n+1)")
        assert [expr.evaluate(n) for n in range(4)] == [0, 4, 12, 24]

    def test_cosine_builtin_coefficient(self):
        expr = parse_coeff_expr("1 - cospi2(2*n - j)")
        assert expr.evaluate(1, 0) == 2
        assert expr.evaluate(0, 0) == 0
        assert expr.evaluate(0, 1) == 1
        assert expr.evaluate(0, 2) == 2

    def test_leading_coefficient_at_zero(self):
        assert ev("n - 1", 0) == -1

    def test_precedence(self):
        assert ev("2 + 3*4", 0) == 14
        assert ev("(2 + 3)*4", 0) == 20
        assert ev("8/2/2", 0) == 2  # left associative
        assert ev("2 - 3 - 4", 0) == -5

    def test_power_binds_to_atom(self):
        assert ev("n^2", 3) == 9
        assert ev("2*n^3", 2) == 16
        # unary minus is part of the atom, so the exponent applies after it
        assert ev("-2^2", 0) == 4
        assert ev("0^0", 0) == 1

    def test_fractions_stay_exact(self):
        assert ev("1/3 + 1/6", 0) == Fraction(1, 2)
        assert ev("(n + 1)/(n + 2)", 0) == Fraction(1, 2)

    def test_whitespace_insignificant(self):
        assert ev("  2*n *(n+ 1) ", 3) == ev("2*n*(n+1)", 3)

    def test_deep_nesting(self):
        assert ev("-(-(-(n)))", 5) == -5

    def test_repr_shows_the_text(self):
        assert repr(parse_coeff_expr("2*n + j")) == "CoeffExpr('2*n + j')"


class TestCospi2:
    @pytest.mark.parametrize("arg,value", [(0, 1), (1, 0), (2, -1), (3, 0),
                                           (4, 1), (-1, 0), (-2, -1), (-4, 1)])
    def test_quarter_turn_cycle(self, arg, value):
        assert ev(f"cospi2({arg})", 0) == value

    def test_non_integer_argument_rejected(self):
        with pytest.raises(EvalError, match="integer"):
            ev("cospi2(1/2)", 0)

    def test_needs_parentheses(self):
        with pytest.raises(ExprSyntaxError):
            parse_coeff_expr("cospi2 2")


class TestSyntaxErrors:
    def test_incomplete_input_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_coeff_expr("n +")
        assert info.value.position == 3

    def test_unknown_identifier(self):
        with pytest.raises(ExprSyntaxError, match="unknown identifier 'x'") as info:
            parse_coeff_expr("2*x")
        assert info.value.position == 2

    def test_unbalanced_parens(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_coeff_expr("(n + 1")
        assert info.value.expected == ("')'",)

    def test_trailing_junk(self):
        with pytest.raises(ExprSyntaxError):
            parse_coeff_expr("n n")

    def test_exponent_must_be_integer_literal(self):
        with pytest.raises(ExprSyntaxError):
            parse_coeff_expr("2^n")
        with pytest.raises(ExprSyntaxError):
            parse_coeff_expr("2^(3)")

    @pytest.mark.parametrize("text,offset", [
        ("(" * 3000 + "1" + ")" * 3000, 50),
        ("-" * 5000 + "1", 50),
        ("+".join(["1"] * 3000), 99),
        ("cospi2(" * 60 + "n" + ")" * 60, 350),
        ("(n+2)^100000000", 6),
        ("n^1001", 2),
        ("(((n+2)^1000)^1000)^1000", 14),
        ("(n^10)^101", 7),
    ])
    def test_depth_and_exponent_bounded(self, text, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse_coeff_expr(text)
        assert info.value.position == offset

    def test_deepest_accepted_expressions_evaluate(self):
        # MAX_DEPTH levels: 49 groups around a leaf, or a chain of 50 terms
        assert ev("(" * (MAX_DEPTH - 1) + "n" + ")" * (MAX_DEPTH - 1), 3) == 3
        assert ev("-" * (MAX_DEPTH - 1) + "n", 3) == -3
        assert ev("+".join(["n"] * MAX_DEPTH), 3) == 3 * MAX_DEPTH
        assert ev(f"1^{MAX_EXPONENT}", 0) == 1
        assert ev("(n^10)^100", 2) == 2 ** 1000
        # chains of divisions, cospi2 calls and powers MAX_DEPTH levels deep,
        # the longest literal and the largest exponent, against the tree walk
        for name in LIMIT_CASES:
            check(name)

    @pytest.mark.parametrize("text,offset", [
        ("n + \u0663", 4),          # ARABIC-INDIC DIGIT THREE: a digit, not 0-9
        ("n^\u00b2", 2),            # SUPERSCRIPT TWO
        ("n + " + "1" * 5000, 4),   # past the interpreter's limit on digits
        ("n^" + "1" * 5000, 2),
    ], ids=["other-script-digit", "superscript-exponent", "long-integer", "long-exponent"])
    def test_integer_literals_are_ascii_digits_int_accepts(self, text, offset):
        with pytest.raises(ExprSyntaxError) as info:
            parse_coeff_expr(text)
        assert info.value.position == offset

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_coeff_expr("n % 2")
        assert info.value.position == 2

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_coeff_expr("")


class TestEvalErrors:
    def test_division_by_zero(self):
        expr = parse_coeff_expr("1/(n - 3)")
        assert expr.evaluate(2) == -1
        with pytest.raises(EvalError, match="division by zero"):
            expr.evaluate(3)

    def test_j_unavailable(self):
        expr = parse_coeff_expr("n + j")
        assert expr.evaluate(1, 2) == 3
        with pytest.raises(EvalError, match="'j'"):
            expr.evaluate(1)

    @pytest.mark.parametrize("text,n,j,message", [
        ("1/(n - 3)", 3, None, "division by zero"),
        ("n + j", 1, None, "expression uses 'j' but no column index applies here"),
        ("cospi2(n/2)", 3, None, "cospi2 needs an integer argument, got 3/2"),
        # a division tests its denominator before it evaluates its numerator
        ("j/0", 0, None, "division by zero"),
        ("cospi2(n/2)/(n-n)", 3, None, "division by zero"),
        # left operands fail before right ones
        ("j + 1/0", 0, None, "expression uses 'j' but no column index applies here"),
        ("cospi2(1/2) * j", 0, None, "cospi2 needs an integer argument, got 1/2"),
    ])
    def test_messages_pinned(self, text, n, j, message):
        with pytest.raises(EvalError) as info:
            ev(text, n, j)
        assert str(info.value) == message

    def test_row_prefix_added_by_the_source(self):
        src = build_family({"family": "first_order", "a": "1/(n - 2)"})
        with pytest.raises(EvalError) as info:
            src.row_at(2)
        assert str(info.value) == "row 2: division by zero"


@given(st.one_of(_texts, _zero_divisions), st.integers(min_value=-4, max_value=4),
       st.one_of(st.none(), st.integers(min_value=-4, max_value=4)))
def test_compiled_evaluation_matches_the_tree_walk(text, n, j):
    try:
        expr = parse_coeff_expr(text)
    except ExprSyntaxError:   # a draw past MAX_DEPTH or MAX_EXPONENT
        assume(False)
    assert own_names(expr)
    tree = _Parser(text).parse()
    got = outcome(lambda: expr.evaluate(n, j))
    assert got == outcome(lambda: reference_eval(tree, n, j))
    if not isinstance(got, tuple):
        assert type(got) is Fraction


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_evaluation_is_deterministic_and_exact(n, j):
    expr = parse_coeff_expr("(n - j)^2 - n*j + 7")
    expected = Fraction((n - j) ** 2 - n * j + 7)
    assert expr.evaluate(n, j) == expected
    assert expr.evaluate(n, j) == expr.evaluate(n, j)


def row_outcome(source, n):
    """Row n of a source as its ``(column, numerator, denominator)``
    triples, or the class and message of the error building it raises."""
    try:
        triples = tuple(source.row_at(n).int_items())
    except (EvalError, SpecError) as exc:
        return (type(exc).__name__, str(exc))
    assert all(type(num) is int and type(den) is int for _, num, den in triples)
    return triples


def through_evaluate(text, takes_j):
    """The coefficient as a callable over ``CoeffExpr.evaluate``, which
    hands the row builder a ``Fraction`` for every value."""
    expr = parse_coeff_expr(text)
    if takes_j:
        return lambda n, j: expr.evaluate(n, j)
    return lambda n: expr.evaluate(n)


@given(st.sampled_from(["first_order", "second_order", "n_order", "ascending"]),
       st.one_of(_texts, _zero_divisions), _texts, st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=12))
def test_rows_from_closure_values_match_rows_from_evaluate(family, a, b, order, n):
    # row builders take the compiled code's integer pairs as they are;
    # rows and error texts must be those built from Fractions
    try:
        parse_coeff_expr(a), parse_coeff_expr(b)
    except ExprSyntaxError:   # a draw past MAX_DEPTH or MAX_EXPONENT
        assume(False)
    takes_j = family in ("n_order", "ascending")
    spec = {"family": family, "a": a, "b": b, "N": order}
    reference = dict(spec, a=through_evaluate(a, takes_j),
                     b=through_evaluate(b, takes_j))
    assert (row_outcome(build_family(spec), n)
            == row_outcome(build_family(reference), n))


_EX3_COS = (1, 0, -1, 0)   # cos(m pi / 2) by m mod 4


def test_builtin_rows_match_rows_built_from_fractions():
    ex2, ex3 = build_family({"family": "example2"}), build_family({"family": "example3"})
    for n in range(200):
        assert ex2.row_at(n) == FiniteRow([
            (n, Fraction(2 * n * (n + 1))),
            (n + 1, -Fraction(n * n + 3 * n - 2)),
            (n + 2, Fraction(n - 1)),
        ])
        assert ex3.row_at(n) == FiniteRow(
            (m, 1 - Fraction(_EX3_COS[(2 * n - m) % 4])) for m in range(n + 3))
