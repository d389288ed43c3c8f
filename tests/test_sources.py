import json
from fractions import Fraction

import pytest

from rowfinite import (EvalError, FiniteRow, SpecError, build_family,
                       equation_from_obj, load_equation)


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
        assert src.row_count == 1
        with pytest.raises(SpecError):
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

    def test_rows_only_object_is_explicit(self):
        eq = equation_from_obj({"rows": [[[0, "2"], [1, "1"]]]})
        assert eq.source.row_count == 1
        assert eq.source.row_at(0) == FiniteRow([(0, 2), (1, 1)])
        assert eq.g is None

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
