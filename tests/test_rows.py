from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rowfinite import (FiniteRow, ShortColumnError, ZERO_ROW, ZeroRowError,
                       as_scalar, format_scalar)
from conftest import dense


def row(*dense):
    return FiniteRow(enumerate(dense))


def normalized(r):
    return r.combine((), 1 / r.leading)


class TestScalarText:
    def test_integer_forms(self):
        assert as_scalar("5") == 5
        assert as_scalar("-7") == -7
        assert as_scalar("+3") == 3
        assert format_scalar(Fraction(5)) == "5"

    def test_fraction_forms(self):
        assert as_scalar("-1/2") == Fraction(-1, 2)
        assert format_scalar(Fraction(-1, 2)) == "-1/2"
        assert as_scalar("6/4") == Fraction(3, 2)

    @pytest.mark.parametrize("bad", ["1.5", "1/0", "1/-2", "a", "", "1 / 2", "0x3",
                                     "\u0663", "1/1\u0660"])
    def test_rejects_non_rational_literals(self, bad):
        with pytest.raises(ValueError):
            as_scalar(bad)

    @given(st.fractions(min_value=-10**9, max_value=10**9, max_denominator=10**6))
    def test_round_trip(self, q):
        assert as_scalar(format_scalar(q)) == q

    def test_as_scalar_coercions(self):
        assert as_scalar(3) == Fraction(3)
        assert as_scalar("2/6") == Fraction(1, 3)
        with pytest.raises(TypeError):
            as_scalar(0.5)
        with pytest.raises(TypeError):
            as_scalar(True)


class TestLength:
    def test_zero_row(self):
        assert ZERO_ROW.length == -1
        assert FiniteRow().length == -1

    def test_unit_row(self):
        assert row(1, 0, 0).length == 0

    def test_rightmost_nonzero(self):
        assert row(0, 2, -1, 0).length == 2

    def test_stored_zeros_dropped(self):
        r = FiniteRow([(0, 0), (3, 5), (7, 0)])
        assert r.support == (3,)
        assert r.length == 3


class TestConstruction:
    def test_duplicate_column_rejected(self):
        # zeros are dropped after the check, so a zero entry duplicates too
        for pairs in ([(1, 2), (1, 3)], [(1, 0), (1, 5)], [(1, 5), (1, 0)],
                      [(1, 0), (1, "0/3")]):
            with pytest.raises(ValueError, match="duplicate column 1"):
                FiniteRow(pairs)

    def test_negative_column_rejected(self):
        with pytest.raises(ValueError):
            FiniteRow([(-1, 2)])

    def test_unsorted_input_accepted(self):
        assert FiniteRow([(4, 1), (0, 2)]).support == (0, 4)

    def test_dense_round_trip(self):
        values = [Fraction(0), Fraction(3), Fraction(-1, 2)]
        assert dense(FiniteRow(enumerate(values))) == values


class TestAxpy:
    """``combine`` with one term and no scale: ``self + c * other``."""

    def test_zero_multiplier_is_identity(self):
        r = row(1, 2, 1)
        assert r.combine([(0, row(9, 9))]) == r

    def test_gaussian_step_second_order_instance(self):
        # dst (0,3,4,1) plus -4 times (1,2,1) clears column 2
        dst = row(0, 3, 4, 1)
        src = row(1, 2, 1)
        assert dst.combine([(-4, src)]) == row(-4, -5, 0, 1)

    def test_exact_cancellation_to_zero(self):
        r = row(1, 1)
        out = r.combine([(-1, row(1, 1))])
        assert out.is_zero and out.length == -1

    def test_unit_and_sign_multipliers(self):
        a, b = row(1, 2), row(0, 5, 3)
        assert a.combine([(1, b)]) == row(1, 7, 3)
        assert a.combine([(-1, b)]) == row(1, -3, -3)
        assert a.combine((), 2) == row(2, 4)
        assert a.combine((), -1) == row(-1, -2)


finite_rows = st.builds(
    FiniteRow,
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=12),
                  st.fractions(min_value=-20, max_value=20, max_denominator=8)),
        max_size=8,
        unique_by=lambda e: e[0],
    ),
)
small_scalars = st.fractions(min_value=-20, max_value=20, max_denominator=8)
multipliers = st.one_of(small_scalars, st.integers(-20, 20).map(Fraction))


def dense_combine(r, terms, c):
    """``c * (r + sum(m * s))`` on dense Fraction lists, as a FiniteRow."""
    width = max([r.length] + [s.length for _, s in terms]) + 1
    acc = dense(r, width)
    for m, s in terms:
        for col, v in s.items():
            acc[col] += m * v
    if c is not None:
        acc = [c * v for v in acc]
    return FiniteRow(enumerate(acc))


# denominators drawn so that they often share factors; columns from a small
# range, so supports overlap, or a wide one, so they are often disjoint
shared_fractions = st.builds(Fraction, st.integers(-30, 30),
                             st.sampled_from([1, 2, 3, 4, 6, 9, 12, 36]))
# numerators and denominators of 100 to 300 bits, products of one or two
# prime powers from a shared set, so that products and collisions need
# reduction at that size
big_parts = st.lists(st.sampled_from([2 ** 101, 3 ** 70, 5 ** 50, 7 ** 40, 11 ** 35]),
                     min_size=1, max_size=2).map(prod)
big_fractions = st.builds(lambda sign, num, den: Fraction(sign * num, den),
                          st.sampled_from([1, -1, 5, -6]), big_parts, big_parts)
combine_values = st.one_of(shared_fractions, big_fractions)
combine_rows = st.builds(
    FiniteRow,
    st.lists(st.tuples(st.one_of(st.integers(0, 5), st.integers(0, 40)),
                       combine_values),
             max_size=7, unique_by=lambda e: e[0]),
)
combine_multipliers = st.one_of(st.just(0), st.integers(-6, 6), combine_values)
combine_scales = st.one_of(st.none(), st.just(0), st.integers(-6, -1),
                           st.just(Fraction(-5, 6)), combine_values)

# a single-term product that needs reduction, landing in an empty column
PRODUCT_IN_EMPTY_COLUMN = (FiniteRow([(1, 1)]), Fraction(3, 4),
                           FiniteRow([(0, Fraction(2, 9))]))
# a collision over denominators 4 and 6: 1/4 + 3/6 = 9/12 = 3/4
COLLISION_OVER_4_AND_6 = (FiniteRow([(0, Fraction(1, 4))]), Fraction(3, 2),
                          FiniteRow([(0, Fraction(1, 3))]))
# a collision over denominators 4 and 12 that cancels: 1/4 - 3/12 = 0
COLLISION_TO_ZERO = (FiniteRow([(0, Fraction(1, 4)), (2, 1)]), Fraction(-3, 2),
                     FiniteRow([(0, Fraction(1, 6))]))
SCALED_ROW = FiniteRow([(0, Fraction(3, 5)), (4, Fraction(-2, 3))])


class TestCombine:
    @given(combine_rows,
           st.lists(st.tuples(combine_multipliers, combine_rows), max_size=4),
           combine_scales)
    @example(PRODUCT_IN_EMPTY_COLUMN[0], [PRODUCT_IN_EMPTY_COLUMN[1:]], None)
    @example(COLLISION_OVER_4_AND_6[0], [COLLISION_OVER_4_AND_6[1:]], None)
    @example(COLLISION_TO_ZERO[0], [COLLISION_TO_ZERO[1:]], None)
    @example(SCALED_ROW, [], Fraction(-5, 6))
    def test_matches_dense_fraction_arithmetic(self, r, terms, c):
        # equality compares the stored integer pairs, so this also checks
        # that they come out in lowest terms
        assert r.combine(terms, c) == dense_combine(r, terms, c)

    @given(combine_rows,
           st.lists(st.tuples(combine_multipliers, combine_rows), max_size=3),
           combine_scales)
    def test_full_cancellation_gives_the_zero_row(self, r, terms, c):
        total = dense_combine(r, terms, None)
        out = r.combine(terms + [(-1, total)], c)
        assert out == ZERO_ROW and out.length == -1

    @given(combine_rows, combine_multipliers, combine_rows, combine_scales)
    @example(*PRODUCT_IN_EMPTY_COLUMN, None)
    @example(*COLLISION_OVER_4_AND_6, None)
    @example(*COLLISION_TO_ZERO, None)
    @example(SCALED_ROW, 0, ZERO_ROW, Fraction(-5, 6))
    def test_single_term_and_scale_paths_match_the_multi_term_path(self, r, m, s, c):
        # a zero second term, or a zero multiplier with a scale, sends the
        # same sum through the multi-term path
        assert (list(r.combine([(m, s)]).int_items())
                == list(r.combine([(m, s), (0, ZERO_ROW)]).int_items()))
        if c is not None:
            assert (list(r.combine((), c).int_items())
                    == list(r.combine([(0, r)], c).int_items()))

    def test_terms_may_be_any_iterable(self):
        r, s = row(1, 2), row(0, 1, 1)
        assert r.combine(iter([(2, s), (-1, s)])) == row(1, 3, 1)
        assert r.combine((t for t in [(2, s)]), -1) == row(-1, -4, -2)

    def test_scale_zero_and_no_terms(self):
        r = row(1, Fraction(1, 2))
        assert r.combine(()) is r
        assert r.combine((), 0) == ZERO_ROW
        assert r.combine([(1, r), (2, r)], 0) == ZERO_ROW

    def test_shared_denominators_with_a_scale(self):
        a = FiniteRow([(0, Fraction(1, 4)), (2, Fraction(1, 6))])
        b = FiniteRow([(0, Fraction(1, 6)), (1, Fraction(5, 9))])
        out = a.combine([(Fraction(1, 2), b), (3, b)], Fraction(-12, 5))
        assert list(out.int_items()) == [(0, -2, 1), (1, -14, 3), (2, -2, 5)]

    def test_disjoint_supports_interleave_in_column_order(self):
        a = FiniteRow([(1, 1), (7, 2)])
        b = FiniteRow([(0, 3), (4, 5)])
        d = FiniteRow([(2, 1), (9, 1)])
        assert a.combine([(1, b), (-1, d)]).support == (0, 1, 2, 4, 7, 9)


class TestProperties:
    @given(finite_rows, small_scalars, finite_rows)
    def test_axpy_length_bound(self, r, c, s):
        assert r.combine([(c, s)]).length <= max(r.length, s.length)

    @given(finite_rows, small_scalars)
    def test_equal_length_cancellation_shrinks(self, r, c):
        # cancel the rightmost entries of two equal-length rows
        if r.is_zero:
            return
        other = r.combine((), 2)
        out = r.combine([(Fraction(-1, 2), other)])
        assert out.length < r.length

    @given(finite_rows, multipliers, finite_rows)
    def test_axpy_matches_fraction_arithmetic(self, r, c, s):
        # equality compares the stored integer pairs, so this also checks
        # that they come out in lowest terms
        width = max(r.length, s.length) + 1
        expected = [x + c * y for x, y in zip(dense(r, width), dense(s, width))]
        assert r.combine([(c, s)]) == FiniteRow(enumerate(expected))

    @given(finite_rows, multipliers)
    def test_scale_matches_fraction_arithmetic(self, r, c):
        assert r.combine((), c) == FiniteRow((col, c * v) for col, v in r.items())

    @given(finite_rows)
    def test_int_items_are_the_entries_in_lowest_terms(self, r):
        assert [(col, Fraction(n, d)) for col, n, d in r.int_items()] == list(r.items())
        for _, n, d in r.int_items():
            assert d > 0 and gcd(n, d) == 1 and type(n) is int is type(d)

    @given(finite_rows)
    def test_normalize_idempotent(self, r):
        if r.is_zero:
            return
        once = normalized(r)
        assert once.leading == 1
        assert normalized(once) == once
        assert once.length == r.length


class TestNormalize:
    """Scaling by the inverse rightmost coefficient, as the engine does."""

    def test_divides_by_rightmost(self):
        assert normalized(row(0, 2, -1)) == row(0, -2, 1)

    def test_already_normalized(self):
        r = FiniteRow([(1, Fraction(1, 2)), (2, 1)])
        assert normalized(r) == r

    def test_single_entry(self):
        assert normalized(row(5)) == row(1)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroRowError):
            normalized(ZERO_ROW)


class TestDotPrefix:
    def test_plain_product(self):
        assert row(2, 1).dot_prefix([1, -2]) == 0

    def test_zero_row_any_column(self):
        assert ZERO_ROW.dot_prefix([]) == 0

    def test_residual_of_solution_prefix(self):
        assert row(1, 1, 1).dot_prefix([1, 1, -2]) == 0

    def test_short_column_rejected(self):
        with pytest.raises(ShortColumnError):
            row(1, 0, 3).dot_prefix([1, 2])

    def test_string_column_entries(self):
        assert row(0, 2).dot_prefix(["7", "1/2"]) == 1

    def test_short_column_message(self):
        with pytest.raises(ShortColumnError,
                           match="row has length 2 but only 2 column entries were supplied"):
            row(1, 0, 3).dot_prefix([1, 2])

    @given(finite_rows,
           st.lists(st.one_of(small_scalars, st.integers(-9, 9),
                              st.builds(Fraction, st.integers(-30, 30),
                                        st.sampled_from([1, 2, 6, 9, 36]))),
                    min_size=13, max_size=16))
    def test_matches_fraction_arithmetic(self, r, column):
        expected = Fraction(0)
        for col, v in r.items():
            expected += v * column[col]
        out = r.dot_prefix(column)
        assert out == expected and type(out) is Fraction


class TestMisc:
    def test_get(self):
        r = row(0, 5, 0, -2)
        assert r.get(1) == 5
        assert r.get(2) == 0
        assert r.get(99) == 0

    def test_leading(self):
        assert row(0, 5, -3).leading == -3
        with pytest.raises(ZeroRowError):
            _ = ZERO_ROW.leading

    def test_equality_and_hash(self):
        assert row(0, 1) == FiniteRow([(1, 1)])
        assert hash(row(0, 1)) == hash(FiniteRow([(1, 1)]))
        assert row(0, 1) != row(1)
        assert row(1).__eq__([(0, 1)]) is NotImplemented and row(1) != 1

    def test_repr_and_bool(self):
        assert "FiniteRow" in repr(row(1, 2))
        assert repr(ZERO_ROW) == "FiniteRow()"
        assert bool(row(1)) and not bool(ZERO_ROW)
