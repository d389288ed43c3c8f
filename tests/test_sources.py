import fractions
import json
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rowfinite import (EvalError, ExprSyntaxError, FiniteRow, SpecError, as_scalar,
                       build_family, equation_from_obj, load_equation, parse_coeff_expr)
from rowfinite.sources import CoeffExpr, RowSource


def row(*dense):
    return FiniteRow(enumerate(dense))


class TestExample2:
    def test_first_rows_match_display(self):
        src = build_family({"family": "example2"})
        assert src.row_at(0) == row(0, 2, -1)
        assert src.row_at(1) == row(0, 4, -2)
        assert src.row_at(2) == row(0, 0, 12, -8, 1)
        assert src.row_at(3) == row(0, 0, 0, 24, -16, 2)
        assert src.row_at(4) == row(0, 0, 0, 0, 40, -26, 3)

    def test_not_tagged_regular(self):
        src = build_family({"family": "example2"})
        assert src.regular_order_index is None

    def test_trailing_coefficient_vanishes_at_one(self):
        src = build_family({"family": "example2"})
        assert src.row_at(1).length == 2  # not 3


class TestExample3:
    def test_rows_match_cosine_values(self):
        src = build_family({"family": "example3"})
        assert src.row_at(0) == row(0, 1, 2)
        assert src.row_at(1) == row(2, 1, 0, 1)
        assert src.row_at(2) == row(0, 1, 2, 1)
        assert src.row_at(3) == row(2, 1, 0, 1, 2, 1)
        assert src.row_at(11) == row(2, 1, 0, 1, 2, 1, 0, 1, 2, 1, 0, 1, 2, 1)

    def test_length_drops_along_progression(self):
        src = build_family({"family": "example3"})
        for n in (2, 6, 10):
            assert src.row_at(n).length < n + 2
        for n in (0, 1, 3, 4, 5, 7):
            assert src.row_at(n).length == n + 2


class TestRegularFamilies:
    def test_first_order_rows(self):
        src = build_family({"family": "first_order", "a": "2"})
        assert src.row_at(0) == row(-2, 1)
        assert src.row_at(1) == row(0, -2, 1)
        assert src.regular_order_index == 1

    def test_second_order_from_lists(self):
        src = build_family({"family": "second_order", "a": [1, 3], "b": [2, 4]})
        assert src.row_at(0) == row(1, 2, 1)
        assert src.row_at(1) == row(0, 3, 4, 1)
        assert src.regular_order_index == 2

    def test_second_order_list_exhausted(self):
        src = build_family({"family": "second_order", "a": [1], "b": [2]})
        with pytest.raises(SpecError):
            src.row_at(1)

    def test_n_order_band_support(self):
        src = build_family({"family": "n_order", "N": 3, "a": "j - n + 1"})
        for n in range(6):
            r = src.row_at(n)
            assert r.support[0] >= n and r.length == n + 3

    def test_ascending_support(self):
        src = build_family({"family": "ascending", "N": 2, "a": "j + 1"})
        for n in range(5):
            r = src.row_at(n)
            assert r.length == n + 2
            assert r.get(0) == 1

    def test_lazy_regularity_check(self):
        src = build_family({"family": "n_order", "N": 1, "a": "n - 1"})
        src.row_at(0)  # leading is -1, fine
        with pytest.raises(SpecError, match="n=1"):
            src.row_at(1)

    def test_first_order_vanishing_a_keeps_unit_leading(self):
        src = build_family({"family": "first_order", "a": "n - 1"})
        assert src.row_at(1) == FiniteRow([(2, 1)])
        assert src.row_at(1).length == 2


class TestExplicit:
    def test_pairs_and_bounds(self):
        src = build_family({"family": "explicit", "rows": [[[0, "1"]]]})
        assert src.row_at(0) == row(1)
        with pytest.raises(SpecError, match="^explicit source has 1 rows, row 1 requested$"):
            src.row_at(1)

    def test_finite_row_passthrough(self):
        src = build_family({"family": "explicit", "rows": [row(1, 2), FiniteRow()]})
        assert src.row_at(1).is_zero

    def test_columns_must_increase(self):
        with pytest.raises(SpecError, match="strictly increasing"):
            build_family({"family": "explicit", "rows": [[[1, "1"], [0, "2"]]]})

    def test_determinism(self):
        src = build_family({"family": "example3"})
        assert src.row_at(7) == src.row_at(7)


class TestDescriptorsAndFiles:
    def test_unsupported_family(self):
        with pytest.raises(SpecError, match="unsupported"):
            build_family({"family": "warp"})

    def test_missing_parameter(self):
        with pytest.raises(SpecError, match="'a'"):
            build_family({"family": "first_order"})
        with pytest.raises(SpecError, match="'N'"):
            build_family({"family": "n_order", "a": "1"})

    def test_missing_family(self):
        with pytest.raises(SpecError):
            build_family({})

    def test_negative_row_index(self):
        src = build_family({"family": "example2"})
        with pytest.raises(SpecError):
            src.row_at(-1)

    @pytest.mark.parametrize("index", [True, False])
    @pytest.mark.parametrize("spec", [{"family": "example2"},
                                      {"family": "explicit", "rows": [[[0, "1"]], [[1, "1"]]]}])
    def test_bool_row_index(self, spec, index):
        src = build_family(spec)
        with pytest.raises(SpecError, match=r"^row index must be a nonnegative integer, "
                                            rf"got {index}$"):
            src.row_at(index)

    def test_rows_only_object_is_explicit(self):
        eq = equation_from_obj({"rows": [[[0, "2"], [1, "1"]]]})
        assert eq.source.row_at(0) == FiniteRow([(0, 2), (1, 1)])
        with pytest.raises(SpecError, match="explicit source has 1 rows"):
            eq.source.row_at(1)
        assert eq.g is None

    def test_library_rows_and_tuples_accepted(self):
        eq = equation_from_obj({"rows": (row(1), ((0, 1), (1, "1/2"))), "g": (1, "2"),
                                "expect": {"h": (row(1),), "q": [FiniteRow([(0, 1)])]}})
        assert eq.source.row_at(1) == FiniteRow([(0, 1), (1, Fraction(1, 2))])
        assert eq.g == (1, 2) and eq.expect_h == (row(1),)

    def test_forcing_terms_parsed(self):
        eq = equation_from_obj({"family": "example3", "g": ["1", "-1/2"]})
        assert eq.g == (Fraction(1), Fraction(-1, 2))

    def test_expect_block_parsed(self):
        eq = equation_from_obj({
            "family": "explicit",
            "rows": [[[0, "2"]]],
            "expect": {"h": [[[0, "1"]]], "q": [[[0, "1/2"]]]},
        })
        assert eq.expect_h == (row(1),)
        assert eq.expect_q == (FiniteRow([(0, Fraction(1, 2))]),)

    def test_load_equation_file(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(json.dumps({"family": "first_order", "a": "n + 1",
                                    "g": ["0", "1"]}))
        eq = load_equation(path)
        assert eq.source.row_at(2) == row(0, 0, -3, 1)
        assert eq.g == (Fraction(0), Fraction(1))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SpecError):
            load_equation(path)

    def test_evaluation_error_carries_row(self):
        src = build_family({"family": "ascending", "N": 1, "a": "1/(n - 2)"})
        src.row_at(0)
        with pytest.raises(EvalError, match="row 2"):
            src.row_at(2)


# --- the six row closures and two coefficient adapters that the shared row
# builder replaced, kept as the reference build_family must reproduce

def reference_coeff_n(value, name):
    if isinstance(value, str):
        value = parse_coeff_expr(value)
    if isinstance(value, CoeffExpr):
        return lambda n: value.evaluate(n)
    if isinstance(value, (int, Fraction)):
        const = as_scalar(value)
        return lambda n: const
    if isinstance(value, (list, tuple)):
        vals = [as_scalar(v) for v in value]

        def from_list(n):
            if not 0 <= n < len(vals):
                raise SpecError(f"parameter {name!r} has {len(vals)} values, row {n} requested")
            return vals[n]

        return from_list
    if callable(value):
        return lambda n: as_scalar(value(n))
    raise SpecError(f"parameter {name!r} must be an expression, constant, list, or callable")


def reference_coeff_nj(value, name):
    if isinstance(value, str):
        value = parse_coeff_expr(value)
    if isinstance(value, CoeffExpr):
        return value.evaluate
    if isinstance(value, (int, Fraction)):
        const = as_scalar(value)
        return lambda n, j: const
    if callable(value):
        return lambda n, j: as_scalar(value(n, j))
    raise SpecError(f"parameter {name!r} must be an expression, constant, or callable")


_REF_EX2 = tuple(parse_coeff_expr(text).evaluate
                 for text in ("2*n*(n+1)", "-(n^2 + 3*n - 2)", "n - 1"))
_REF_EX3 = parse_coeff_expr("1 - cospi2(2*n - j)").evaluate


def reference_family(spec):
    family = spec["family"]
    if family == "first_order":
        a = reference_coeff_n(spec["a"], "a")
        return RowSource(lambda n: FiniteRow([(n, -a(n)), (n + 1, 1)]),
                         regular_order_index=1)
    if family == "second_order":
        a = reference_coeff_n(spec["a"], "a")
        b = reference_coeff_n(spec["b"], "b")
        return RowSource(lambda n: FiniteRow(
            [(n, a(n)), (n + 1, b(n)), (n + 2, 1)]), regular_order_index=2)
    if family in ("n_order", "ascending"):
        order = spec["N"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 0:
            raise SpecError(f"'N' must be a nonnegative integer, got {order!r}")
        a = reference_coeff_nj(spec["a"], "a")
        lo_of = (lambda n: n) if family == "n_order" else (lambda n: 0)

        def regular_row(n):
            lead = a(n, n + order)
            if lead == 0:
                raise SpecError(
                    f"family {family!r} claims regular order {order} but the "
                    f"trailing coefficient vanishes at n={n}"
                )
            entries = [(j, a(n, j)) for j in range(lo_of(n), n + order)]
            entries.append((n + order, lead))
            return FiniteRow(entries)

        return RowSource(regular_row, regular_order_index=order)
    if family == "example2":
        return RowSource(lambda n: FiniteRow(
            [(n + i, fn(n, None)) for i, fn in enumerate(_REF_EX2)]))
    assert family == "example3"
    return RowSource(lambda n: FiniteRow(
        [(j, _REF_EX3(n, j)) for j in range(n + 3)]))


def family_outcome(build, spec):
    """The source's regular order and rows 0..7 as integer triples, ended
    by the type and message of the first error; or the error building it
    raises.  Any exception counts: a callable parameter may raise anything."""
    try:
        src = build(spec)
    except Exception as exc:
        return (type(exc), str(exc))
    rows = []
    for n in range(8):
        try:
            rows.append(tuple(src.row_at(n).int_items()))
        except Exception as exc:
            rows.append((type(exc), str(exc)))
            break
    return src.regular_order_index, rows


def _from_text(text):
    """A callable parameter over an expression: ``f(n)`` or ``f(n, j)``."""
    expr = parse_coeff_expr(text)
    return lambda *index: expr.evaluate(*index)


_COEFF_TEXTS = st.recursive(
    st.sampled_from(["n", "j", "0", "1", "2", "n - 1", "j - n"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        st.tuples(sub, st.integers(0, 2)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda t: f"cospi2({t})"),            # j - n over 2 is no integer
        sub.map(lambda t: f"cospi2(({t})/2)"),
    ),
    max_leaves=5,
) | st.sampled_from(["1/(n - 2)", "1/(j - n - 1)", "(j-n-2)*(1/(j-n-1))"])
_SCALARS = (st.integers(-3, 3) | st.fractions(max_denominator=4, min_value=-3, max_value=3)
            | st.sampled_from(["1/2", "-3"]))
_COEFFS = (_COEFF_TEXTS | _SCALARS.filter(lambda v: not isinstance(v, str))
           | st.lists(_SCALARS, max_size=6)                     # runs out before row 7
           | _COEFF_TEXTS.map(_from_text)
           | st.sampled_from([lambda *index: 0.5, 1.5, None, True, {}, ["x"]]))
_SPECS = st.fixed_dictionaries({
    "family": st.sampled_from(["first_order", "second_order", "n_order",
                               "ascending", "example2", "example3"]),
    "a": _COEFFS, "b": _COEFFS, "N": st.integers(0, 3) | st.sampled_from([-1, True, "2"]),
})


class TestFormulaBuilder:
    @given(_SPECS)
    # the trailing coefficient vanishes and column n+1 divides by zero
    @example({"family": "n_order", "a": "(j-n-2)*(1/(j-n-1))", "b": 0, "N": 2})
    @example({"family": "ascending", "a": "(j-n-2)*(1/(j-n-1))", "b": 0, "N": 2})
    @example({"family": "first_order", "a": "j", "b": 0, "N": 0})
    @example({"family": "second_order", "a": [1, 2], "b": "n/(n - 1)", "N": 0})
    @settings(max_examples=300, deadline=None)
    def test_rows_and_tags_match_the_old_closures(self, spec):
        assert (family_outcome(build_family, spec)
                == family_outcome(reference_family, spec))


# --- canonical triples: lowest terms, a positive denominator, no zero

def canonical(row):
    return all(num and den > 0 and gcd(num, den) == 1 for _, num, den in row.int_items())


# quotients with negative denominators, not in lowest terms, and under
# negation, powers and cospi2
_QUOTIENT_TEXTS = st.recursive(
    st.sampled_from(["n", "j", "2", "1/(1 - n)", "(j - n)/(n - 3)", "(2*n)/(4 - 2*j)"]),
    lambda sub: st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"({t[0]}){t[1]}({t[2]})"),
        sub.map(lambda t: f"-({t})"),
        st.tuples(sub, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda t: f"cospi2(({t})*(2 - 2*n)/(1 - n))"),   # an integer at n != 1
    ),
    max_leaves=4,
)


@given(st.sampled_from(["n_order", "ascending"]), _QUOTIENT_TEXTS,
       st.integers(0, 2), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_formula_rows_are_canonical_and_match_rows_from_evaluate(family, text, order, n):
    try:
        expr = parse_coeff_expr(text)
        values = [(j, expr.evaluate(n, j))
                  for j in range(n if family == "n_order" else 0, n + order + 1)]
    except (ExprSyntaxError, EvalError):
        assume(False)
    assume(values[-1][1] != 0)
    row = build_family({"family": family, "N": order, "a": text}).row_at(n)
    assert canonical(row)
    assert row == FiniteRow(values)


def _per_n_value(param, n):
    if isinstance(param, list):
        return as_scalar(param[n])
    if callable(param):
        return Fraction(param(n))
    return parse_coeff_expr(param).evaluate(n)


_PER_N = st.sampled_from([
    ["4/6", "-0", "+3", Fraction(3, -9), 7, "-10/4"],
    lambda n: Fraction(n - 2, 1 - 2 * n),
    lambda n: 2 - n,
    "1/(1 - n)", "-((n + 1)/(2 - 2*n))^2", "(n*n)/(n - 4)", "cospi2(2*n/(3 - n))",
])


@given(_PER_N, _PER_N, st.integers(0, 5))
def test_per_n_rows_are_canonical_and_match_rows_from_evaluate(a, b, n):
    try:
        a_n, b_n = _per_n_value(a, n), _per_n_value(b, n)
    except EvalError:
        assume(False)
    first = build_family({"family": "first_order", "a": a}).row_at(n)
    second = build_family({"family": "second_order", "a": a, "b": b}).row_at(n)
    assert canonical(first) and canonical(second)
    assert first == FiniteRow([(n, -a_n), (n + 1, 1)])
    assert second == FiniteRow([(n, a_n), (n + 1, b_n), (n + 2, 1)])


@pytest.mark.parametrize("text", ["4/6", "-0", "+3", "007/14", "-10/4", " 5 "])
def test_explicit_entries_are_canonical(text):
    row = build_family({"family": "explicit", "rows": [[[0, text], [2, "1"]]]}).row_at(0)
    assert canonical(row)
    assert row == FiniteRow([(0, Fraction(text)), (2, 1)])


def test_a_denominator_led_by_zero_is_no_literal():
    # Fraction reads "007/014"; the rule "q > 0 starts with a nonzero digit"
    # rejects it, as it always did
    with pytest.raises(ValueError, match="not a rational literal: '007/014'"):
        build_family({"family": "explicit", "rows": [[[0, "007/014"]]]})


def fraction_calls(build):
    """The functions of the ``fractions`` module that run while ``build()`` does."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(None)
    return calls


def test_rows_are_built_without_a_fraction():
    expr = parse_coeff_expr("n*j - j^2/(n+1) + 1 - cospi2(n/(n+1)*(n+1))")
    assert "Fraction" not in expr._fn.__code__.co_names
    assert Fraction not in expr._fn.__globals__.values()
    specs = [{"family": "n_order", "N": 3, "a": expr.text},
             {"family": "ascending", "N": 1, "a": "(j - 2*n)/(-1 - n) + 3"},
             {"family": "first_order", "a": lambda n: n + 2},
             {"family": "second_order", "a": ["1/2", -3, "4/6", "-0", 5],
              "b": "-(n + 1)/2"},
             {"family": "example2"}, {"family": "example3"}]
    sources = [build_family(spec) for spec in specs]
    assert fraction_calls(lambda: [src.row_at(n) for src in sources for n in range(5)]) == []
    rows = [[[0, "4/6"], [3, "-2"], [4, "+0"]], [[1, 7], [2, "-10/4"]]]
    assert fraction_calls(lambda: build_family({"family": "explicit", "rows": rows})) == []
