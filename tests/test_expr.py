from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rowfinite import EvalError, ExprSyntaxError, parse_coeff_expr
from rowfinite.sources import MAX_DEPTH, MAX_EXPONENT


def ev(text, n, j=None):
    return parse_coeff_expr(text).evaluate(n, j)


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


@given(st.integers(min_value=-50, max_value=50),
       st.integers(min_value=-50, max_value=50))
def test_evaluation_is_deterministic_and_exact(n, j):
    expr = parse_coeff_expr("(n - j)^2 - n*j + 7")
    expected = Fraction((n - j) ** 2 - n * j + 7)
    assert expr.evaluate(n, j) == expected
    assert expr.evaluate(n, j) == expr.evaluate(n, j)
