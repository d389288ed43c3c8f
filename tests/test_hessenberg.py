from fractions import Fraction

import pytest

from rowfinite import (EvalError, FiniteRow, RowSource, ShortColumnError,
                       SpecError, build_family, fundamental_set,
                       general_prefix, general_solution, run)
from conftest import (LowerHessenberg, hess_det, naive_det,
                      random_regular_source, random_scalar)


def banded_source(coeffs, order):
    """Normal-form rows with constant band offsets: row n holds coeffs[d]
    at column n+d, for 0 <= d <= order-1, and 1 at column n+order."""
    return RowSource(lambda n: FiniteRow(
        [(n + d, v) for d, v in sorted(coeffs.items())] + [(n + order, 1)]),
        regular_order_index=order)


def superposed_prefix(source, g, init, count):
    """Terms 0..count-1 assembled as the particular solution (zero initial
    values) plus the fundamental sequences (no forcing, unit initial
    values) weighted by ``init``; must agree with general_prefix exactly
    (multilinearity of the determinant in its first column)."""
    order = source.regular_order_index
    total = general_prefix(source, g, (0,) * order, count)
    for i, y0 in enumerate(init):
        if y0:
            xi = general_prefix(source, None, unit(order, i), count)
            total = [t + y0 * x for t, x in zip(total, xi)]
    return total


def recording(source):
    """``source`` with a row function that appends each index it is asked
    for to ``fetched``."""
    fetched = []

    def row_fn(n):
        fetched.append(n)
        return source.row_at(n)
    return RowSource(row_fn, source.regular_order_index), fetched


def unit(order, i):
    """Initial values of the i-th fundamental sequence."""
    return tuple(Fraction(int(c == i)) for c in range(order))


class TestHessDet:
    def test_order_one(self):
        assert hess_det(LowerHessenberg((5,), ((),))) == 5

    def test_order_two_with_unit_superdiagonal(self):
        # [[1, 1], [0, 2]]
        m = LowerHessenberg((1, 0), ((), (2,)))
        assert m.to_dense() == [[1, 1], [0, 2]]
        assert hess_det(m) == 2

    def test_order_three_singular(self):
        # [[1, 1, 0], [2, 2, 1], [3, 3, 3]]
        m = LowerHessenberg((1, 2, 3), ((), (2,), (3, 3)))
        assert m.to_dense() == [[1, 1, 0], [2, 2, 1], [3, 3, 3]]
        assert hess_det(m) == naive_det(m.to_dense()) == 0

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(60):
            order = rng.randint(1, 6)
            first = tuple(random_scalar(rng) for _ in range(order))
            band = tuple(tuple(random_scalar(rng) for _ in range(r))
                         for r in range(order))
            m = LowerHessenberg(first, band)
            assert hess_det(m) == naive_det(m.to_dense())

    def test_band_shape_validated(self):
        with pytest.raises(ValueError):
            LowerHessenberg((1, 2), ((), (1, 1)))
        with pytest.raises(ValueError):
            LowerHessenberg((1,), ())

    def test_entries_above_superdiagonal_are_zero(self):
        m = LowerHessenberg((1, 1, 1), ((), (1,), (1, 1)))
        assert m.entry(0, 2) == 0 and m.entry(0, 1) == 1


class TestXiTerm:
    # the i-th fundamental sequence: zero forcing, unit initial values e_i
    def instance(self, i):
        # band y_n + b_n y_{n-1} + a_n y_{n-2} = 0 with a = (1, 3), b = (2, 4)
        src = build_family({"family": "second_order", "a": [1, 3], "b": [2, 4]})
        return src, lambda count: general_prefix(src, None, unit(2, i), count)

    def test_initial_pattern(self):
        # the unit pattern continued by the closed form solves the equation
        for i in (0, 1):
            src, prefix = self.instance(i)
            seq = list(unit(2, i)) + prefix(2)
            for n in range(2):
                assert src.row_at(n).dot_prefix(seq) == 0

    def test_first_terms(self):
        assert self.instance(0)[1](1) == [-1]   # minus a_0
        # minus b_0, then the 2x2 determinant by hand
        assert self.instance(1)[1](2) == [-2, 2 * 4 - 3]

    def test_prefix_matches_terms(self):
        src = banded_source({0: 2, 1: -3}, 2)
        assert general_prefix(src, None, unit(2, 0), 5) == \
            [general_prefix(src, None, unit(2, 0), n + 1)[-1] for n in range(5)]

    def test_first_order_product_form(self, rng):
        a = [random_scalar(rng) for _ in range(8)]
        src = build_family({"family": "first_order", "a": a})
        product = Fraction(1)
        for n, term in enumerate(general_prefix(src, None, unit(1, 0), 8)):
            product *= a[n]
            assert term == product


class TestParticularTerm:
    # the particular solution: zero initial values
    def test_zero_forcing(self):
        src = banded_source({0: 1, 1: 1}, 2)
        assert general_prefix(src, [0] * 6, (0, 0), 6) == [0] * 6

    def test_first_term_is_the_forcing_value(self):
        src = banded_source({0: 7, 1: -2}, 2)
        assert general_prefix(src, [9, 0, 0], (0, 0), 1) == [9]

    def test_initial_segment_is_zero(self):
        # y_n - y_{n-1} = 1: elimination with no free constants puts 0 at y_{-1}
        src = build_family({"family": "first_order", "a": "1"})
        assert general_solution(run(src, 2), [1, 1], {}, 3) == [0, 1, 2]
        assert general_prefix(src, [1, 1], (0,), 2) == [1, 2]

    def test_doubling_plus_one(self):
        src = banded_source({0: -2}, 1)
        assert general_prefix(src, [1] * 6, (0,), 4) == [1, 3, 7, 15]


class TestGeneralTerm:
    def test_constant_sequence(self):
        src = banded_source({0: 2, 1: -3}, 2)
        assert general_prefix(src, None, (1, 1), 6) == [1] * 6

    def test_power_closed_form(self):
        src = banded_source({0: 2, 1: -3}, 2)
        assert general_prefix(src, None, (0, 1), 5) == [2 ** (n + 2) - 1 for n in range(5)]

    def test_first_order_power(self):
        src = build_family({"family": "first_order", "a": "2"})
        assert general_prefix(src, None, (1,), 5) == [2 ** (n + 1) for n in range(5)]

    def test_negative_terms_return_initial_values(self):
        # the elimination path carries y_{-1} as its free constant at column 0
        src = build_family({"family": "first_order", "a": "5"})
        sol = general_solution(run(src, 3), None, {0: Fraction(7, 2)}, 4)
        assert sol[0] == Fraction(7, 2)
        assert general_prefix(src, None, (Fraction(7, 2),), 3) == sol[1:]

    def test_init_length_checked(self):
        with pytest.raises(ValueError, match="^expected 2 initial values, got 1$"):
            general_prefix(banded_source({0: 5}, 2), None, (1,), 1)


class TestTwoPathIdentity:
    def test_single_determinant_equals_superposition(self, rng):
        for _ in range(15):
            order = rng.randint(1, 4)
            coeffs = {d: random_scalar(rng) for d in range(order)}
            g = [random_scalar(rng) for _ in range(10)]
            init = tuple(random_scalar(rng) for _ in range(order))
            src = banded_source(coeffs, order)
            assert general_prefix(src, g, init, 10) == superposed_prefix(src, g, init, 10)

    def test_banded_determinant_equals_superposition(self, rng):
        # the same identity on varying banded and dense rows, whose
        # trailing coefficients are not 1: every term, the fundamental
        # sequences included, divides by its row's trailing coefficient
        for trial in range(16):
            order = rng.randint(1, 4)
            shape = "n_order" if trial % 2 else "ascending"
            src = random_regular_source(rng, order, 10, shape)
            g = [random_scalar(rng) for _ in range(10)]
            init = tuple(random_scalar(rng) for _ in range(order))
            assert general_prefix(src, g, init, 10) == superposed_prefix(src, g, init, 10)

    def test_superposition_spelled_out(self, rng):
        order = 3
        coeffs = {d: random_scalar(rng) for d in range(order)}
        g = [random_scalar(rng) for _ in range(8)]
        init = tuple(random_scalar(rng) for _ in range(order))
        src = banded_source(coeffs, order)
        expected = general_prefix(src, g, (0,) * order, 8)
        for i in range(order):
            xi = general_prefix(src, None, unit(order, i), 8)
            expected = [e + init[i] * x for e, x in zip(expected, xi)]
        assert general_prefix(src, g, init, 8) == expected


class TestIntegerPairTerms:
    def test_integer_coefficients_match_the_cofactor_oracle(self, rng):
        # dense integer rows with trailing coefficient 1, and nonzero
        # initial values: term k is (-1)^k times the leading minor of order k+1
        for _ in range(20):
            index, count = rng.randint(1, 3), rng.randint(1, 6)
            table = {(n, j): rng.randint(-4, 4)
                     for n in range(count) for j in range(n + index)}
            g = [random_scalar(rng) for _ in range(count)]
            init = tuple(random_scalar(rng) or Fraction(1) for _ in range(index))
            src = RowSource(lambda n: FiniteRow(
                [(j, table[n, j]) for j in range(n + index)] + [(n + index, 1)]), index)
            first = [g[r] - sum(table[r, i] * y0 for i, y0 in enumerate(init))
                     for r in range(count)]
            band = [[table[r, index + c - 1] for c in range(1, r + 1)]
                    for r in range(count)]
            matrix = LowerHessenberg(first, band).to_dense()
            terms = general_prefix(src, g, init, count)
            for k, term in enumerate(terms):
                minor = [row[:k + 1] for row in matrix[:k + 1]]
                assert term == (-1) ** k * naive_det(minor)
                assert type(term) is Fraction

    @pytest.mark.parametrize("coeff,forcing", [
        (lambda n, j: 2, lambda n: 0.5),
        (lambda n, j: 2.0, lambda n: 0),
        (lambda n, j: True, lambda n: 1),
    ], ids=["float-forcing", "float-coeff", "bool-coeff"])
    def test_inexact_values_rejected(self, coeff, forcing):
        src = RowSource(lambda n: FiniteRow([(n, coeff(n, n)), (n + 1, 1)]), 1)
        with pytest.raises(TypeError, match="as an exact rational$"):
            general_prefix(src, [forcing(n) for n in range(3)], [1], 3)


class TestEliminationEquivalence:
    def test_closed_forms_match_elimination(self, rng):
        for shape in ("n_order", "ascending"):
            for _ in range(4):
                order = rng.randint(1, 4)
                horizon = 12
                src = random_regular_source(rng, order, horizon, shape)
                st = run(src, horizon)
                g = [random_scalar(rng) for _ in range(horizon)]
                init = [random_scalar(rng) for _ in range(order)]

                fs = fundamental_set(st, order, order + horizon)
                for i in range(order):
                    assert general_prefix(src, None, unit(order, i), horizon) == \
                        list(fs.sequences[i][order:])

                part = general_solution(st, g, {}, order + horizon)
                assert general_prefix(src, g, (0,) * order, horizon) == part[order:]

                sol = general_solution(st, g, dict(enumerate(init)),
                                       order + horizon)
                closed = general_prefix(src, g, init, horizon)
                assert closed == sol[order:]

                # the closed form satisfies the recurrence rows exactly
                for n in range(horizon):
                    assert src.row_at(n).dot_prefix(sol) == g[n]

    def test_normalization_of_non_unit_leading(self):
        # same equation scaled row-wise must produce the same solutions
        src = build_family({"family": "n_order", "N": 1,
                            "a": lambda n, j: Fraction(-2 * (n + 1))
                            if j == n else Fraction(3 * (n + 1))})
        st = run(src, 6)
        g = [Fraction(n + 1) for n in range(6)]
        sol = general_solution(st, g, {0: Fraction(1)}, 7)
        assert general_prefix(src, g, [Fraction(1)], 6) == sol[1:]


class TestSpecFromSource:
    def test_rejects_untamed_sources(self):
        with pytest.raises(SpecError, match="not tagged with a regular order index"):
            general_prefix(build_family({"family": "example2"}), None, (), 1)

    def test_short_forcing_rejected(self):
        src = build_family({"family": "first_order", "a": "2"})
        with pytest.raises(ValueError, match="forcing prefix"):
            general_prefix(src, [1, 1], (0,), 4)

    def test_zero_forcing_default(self):
        src = build_family({"family": "first_order", "a": "2"})
        assert general_prefix(src, None, (1,), 6) == general_prefix(src, [0] * 6, (1,), 6)

    @pytest.mark.parametrize("spec", [
        {"family": "first_order", "a": "(n + 1)/(n + 3)"},
        {"family": "second_order", "a": "n/2 - 1", "b": "-3/(n + 1)"},
        {"family": "n_order", "N": 3, "a": "n*j - j^2/(n+1) + 1"},
        # trailing coefficient -(n+3)/(n+2): negative at every n
        {"family": "n_order", "N": 2, "a": "(j - 2*n - 5)/(n + 2)"},
    ])
    def test_coefficients_equal_fraction_division(self, spec):
        # the rows and forcing terms divided by the trailing coefficient
        # with Fraction beforehand give the same terms
        src = build_family(spec)
        order = src.regular_order_index
        g = [Fraction(n - 4, n % 3 + 1) for n in range(12)]
        lead = [src.row_at(n).get(n + order) for n in range(12)]
        divided = RowSource(lambda n: FiniteRow(
            [(j, v / lead[n]) for j, v in src.row_at(n).items()]), order)
        terms = general_prefix(src, g, [1] * order, 12)
        assert terms == general_prefix(divided, [v / d for v, d in zip(g, lead)],
                                       [1] * order, 12)
        assert all(type(term) is Fraction for term in terms)
        if spec["family"] == "n_order" and spec["N"] == 2:
            assert all(v < 0 for v in lead)


class TestRowReading:
    @pytest.mark.parametrize("row", [
        FiniteRow([(0, 1), (2, 5)]),           # ends one column short
        FiniteRow([(1, 1), (3, 1), (4, 1)]),   # ends one column past
        FiniteRow(),                           # the zero row
    ], ids=["short", "long", "zero"])
    def test_row_ending_elsewhere_rejected(self, row):
        src = RowSource(lambda n: row if n == 2 else FiniteRow([(n, 1), (n + 1, 2)]), 1)
        with pytest.raises(SpecError, match="^row 2 of a source of regular order 1 "
                                            "must end at column 3, not "):
            general_prefix(src, None, (1,), 4)

    @pytest.mark.parametrize("spec", [
        {"family": "first_order", "a": "n + 1"},
        {"family": "n_order", "N": 3, "a": "n*j - j^2/(n+1) + 1"},
        {"family": "ascending", "N": 2, "a": "j + 1"},
    ])
    def test_each_row_is_fetched_once(self, spec):
        src, fetched = recording(build_family(spec))
        general_prefix(src, [1] * 9, [1] * src.regular_order_index, 9)
        assert fetched == list(range(9))

    def test_short_forcing_reads_every_remaining_row(self):
        src, fetched = recording(build_family({"family": "first_order", "a": "2"}))
        with pytest.raises(ShortColumnError, match="^forcing prefix has 2 terms "
                                                   "counted from g_0; the requested "
                                                   "output needs 6$"):
            general_prefix(src, [1, 1], (0,), 6)
        assert fetched == list(range(6))

    def test_later_row_error_wins_over_short_forcing(self):
        # the forcing runs short at term 2, and row 4 fails: as in run(),
        # which reads every row first, the row's error is the one reported
        src = build_family({"family": "first_order", "a": "1/(n - 4)"})
        with pytest.raises(EvalError, match="^row 4: division by zero$"):
            general_prefix(src, [1, 1], (0,), 6)
        with pytest.raises(EvalError, match="^row 4: division by zero$"):
            run(src, 6)


class TestBand:
    def test_n_order_reads_only_the_band(self):
        # the rows hold only their N + 1 band entries, and each is read once
        src, fetched = recording(build_family({"family": "n_order", "N": 3,
                                               "a": "n*j - j^2/(n+1) + 1"}))
        g = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(100)]
        terms = general_prefix(src, g, (1, -2, 3), 100)
        assert fetched == list(range(100))
        assert all(len(list(src.row_at(n).int_items())) <= 4 for n in range(100))
        state = run(src, 100)
        assert general_solution(state, g, {0: 1, 1: -2, 2: 3}, 103)[3:] == terms

    def test_ascending_keeps_the_full_scan(self, rng):
        src = random_regular_source(rng, 2, 20, "ascending")
        g = [random_scalar(rng) for _ in range(20)]
        init = [random_scalar(rng), random_scalar(rng)]
        sol = general_solution(run(src, 20), g, dict(enumerate(init)), 22)
        assert general_prefix(src, g, init, 20) == sol[2:]

    @pytest.mark.parametrize("a", ["(n - 1)/(n - 2)",   # y_1 = 0, row 2 fails
                                   "n/(n - 1)"])        # y_0 = 0, row 1 fails
    def test_rows_past_a_vanishing_band_are_still_read(self, a):
        # every product of the failing row vanishes, yet the row is read
        # and its error fires, as in the elimination
        src = build_family({"family": "first_order", "a": a})
        with pytest.raises(EvalError, match="division by zero"):
            general_prefix(src, None, (1,), 4)
        with pytest.raises(EvalError, match="division by zero"):
            run(src, 4)
