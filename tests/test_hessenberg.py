from dataclasses import replace
from fractions import Fraction

import pytest

from rowfinite import (EvalError, HessSpec, SpecError, build_family,
                       fundamental_set, general_prefix, general_solution,
                       hess_spec_from_source, run)
from conftest import (LowerHessenberg, hess_det, naive_det,
                      random_regular_source, random_scalar)


def zero_forcing(n):
    return Fraction(0)


def banded_spec(coeffs, order, g=None, init=(), band=None):
    """Normal-form spec with constant band offsets: coeffs[d] multiplies the
    entry at column n+d, for 0 <= d <= order-1 relative to the band start,
    so ``band=order`` is a true promise."""
    table = {d: Fraction(v) for d, v in coeffs.items()}

    def coeff(n, j):
        return table.get(j - n, Fraction(0))

    if g is None:
        forcing = zero_forcing
    else:
        forcing = lambda n: Fraction(g[n])
    return HessSpec(index=order, coeff=coeff, forcing=forcing, init=init,
                    band=band)


def superposed_prefix(spec, count):
    """Terms 0..count-1 assembled as the particular solution (zero initial
    values) plus the fundamental sequences (zero forcing, unit initial
    values) weighted by ``spec.init``; must agree with general_prefix
    exactly (multilinearity of the determinant in its first column)."""
    zeros = (Fraction(0),) * spec.index
    total = general_prefix(replace(spec, init=zeros), count)
    for i, y0 in enumerate(spec.init):
        if y0:
            xi = general_prefix(
                replace(spec, forcing=zero_forcing, init=unit(spec.index, i)), count)
            total = [t + y0 * x for t, x in zip(total, xi)]
    return total


def counting(spec):
    """``spec`` with a coeff that counts its calls in ``calls[0]``."""
    calls = [0]

    def coeff(n, j):
        calls[0] += 1
        return spec.coeff(n, j)
    return replace(spec, coeff=coeff), calls


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
        return src, hess_spec_from_source(src, None, unit(2, i))

    def test_initial_pattern(self):
        # the unit pattern continued by the closed form solves the equation
        for i in (0, 1):
            src, spec = self.instance(i)
            seq = list(spec.init) + general_prefix(spec, 2)
            for n in range(2):
                assert src.row_at(n).dot_prefix(seq) == 0

    def test_first_terms(self):
        assert general_prefix(self.instance(0)[1], 1) == [-1]   # minus a_0
        # minus b_0, then the 2x2 determinant by hand
        assert general_prefix(self.instance(1)[1], 2) == [-2, 2 * 4 - 3]

    def test_prefix_matches_terms(self):
        spec = banded_spec({0: 2, 1: -3}, 2, init=unit(2, 0))
        assert general_prefix(spec, 5) == \
            [general_prefix(spec, n + 1)[-1] for n in range(5)]

    def test_first_order_product_form(self, rng):
        a = [random_scalar(rng) for _ in range(8)]
        src = build_family({"family": "first_order", "a": a})
        spec = hess_spec_from_source(src, None, unit(1, 0))
        product = Fraction(1)
        for n, term in enumerate(general_prefix(spec, 8)):
            product *= a[n]
            assert term == product


class TestParticularTerm:
    # the particular solution: zero initial values
    def test_zero_forcing(self):
        spec = banded_spec({0: 1, 1: 1}, 2, g=[0] * 6, init=(0, 0))
        assert general_prefix(spec, 6) == [0] * 6

    def test_first_term_is_the_forcing_value(self):
        spec = banded_spec({0: 7, 1: -2}, 2, g=[9, 0, 0], init=(0, 0))
        assert general_prefix(spec, 1) == [9]

    def test_initial_segment_is_zero(self):
        # y_n - y_{n-1} = 1: elimination with no free constants puts 0 at y_{-1}
        src = build_family({"family": "first_order", "a": "1"})
        assert general_solution(run(src, 2), [1, 1], {}, 3) == [0, 1, 2]
        spec = hess_spec_from_source(src, [1, 1], (0,))
        assert general_prefix(spec, 2) == [1, 2]

    def test_doubling_plus_one(self):
        spec = banded_spec({0: -2}, 1, g=[1] * 6, init=(0,))
        assert general_prefix(spec, 4) == [1, 3, 7, 15]


class TestGeneralTerm:
    def test_constant_sequence(self):
        spec = banded_spec({0: 2, 1: -3}, 2, init=(1, 1))
        assert general_prefix(spec, 6) == [1] * 6

    def test_power_closed_form(self):
        spec = banded_spec({0: 2, 1: -3}, 2, init=(0, 1))
        assert general_prefix(spec, 5) == [2 ** (n + 2) - 1 for n in range(5)]

    def test_first_order_power(self):
        src = build_family({"family": "first_order", "a": "2"})
        spec = hess_spec_from_source(src, init=(1,))
        assert general_prefix(spec, 5) == [2 ** (n + 1) for n in range(5)]

    def test_negative_terms_return_initial_values(self):
        # the elimination path carries y_{-1} as its free constant at column 0
        src = build_family({"family": "first_order", "a": "5"})
        sol = general_solution(run(src, 3), None, {0: Fraction(7, 2)}, 4)
        assert sol[0] == Fraction(7, 2)
        spec = hess_spec_from_source(src, None, (Fraction(7, 2),))
        assert general_prefix(spec, 3) == sol[1:]

    def test_init_length_checked(self):
        spec = banded_spec({0: 5}, 2, init=(1,))
        with pytest.raises(ValueError):
            general_prefix(spec, 1)


class TestTwoPathIdentity:
    def test_single_determinant_equals_superposition(self, rng):
        for _ in range(15):
            order = rng.randint(1, 4)
            coeffs = {d: random_scalar(rng) for d in range(order)}
            g = [random_scalar(rng) for _ in range(10)]
            init = tuple(random_scalar(rng) for _ in range(order))
            spec = banded_spec(coeffs, order, g=g, init=init)
            assert general_prefix(spec, 10) == superposed_prefix(spec, 10)

    def test_banded_determinant_equals_superposition(self, rng):
        # the same identity with the band promised: every term, the
        # fundamental sequences included, expands over the band only
        for _ in range(15):
            order = rng.randint(1, 4)
            coeffs = {d: random_scalar(rng) for d in range(order)}
            g = [random_scalar(rng) for _ in range(10)]
            init = tuple(random_scalar(rng) for _ in range(order))
            spec = banded_spec(coeffs, order, g=g, init=init)
            banded = replace(spec, band=order)
            assert general_prefix(banded, 10) == superposed_prefix(banded, 10) \
                == general_prefix(spec, 10)

    def test_superposition_spelled_out(self, rng):
        order = 3
        coeffs = {d: random_scalar(rng) for d in range(order)}
        g = [random_scalar(rng) for _ in range(8)]
        init = tuple(random_scalar(rng) for _ in range(order))
        spec = banded_spec(coeffs, order, g=g, init=init)
        expected = general_prefix(banded_spec(coeffs, order, g=g, init=(0,) * order), 8)
        for i in range(order):
            xi = general_prefix(banded_spec(coeffs, order, init=unit(order, i)), 8)
            expected = [e + init[i] * x for e, x in zip(expected, xi)]
        assert general_prefix(spec, 8) == expected


class TestIntegerPairTerms:
    def test_integer_coefficients_match_the_cofactor_oracle(self, rng):
        # no band, nonzero initial values, and a coeff that returns int:
        # term k is (-1)^k times the leading minor of order k+1
        for _ in range(20):
            index, count = rng.randint(1, 3), rng.randint(1, 6)
            table = {(n, j): rng.randint(-4, 4)
                     for n in range(count) for j in range(n + index)}
            g = [random_scalar(rng) for _ in range(count)]
            init = tuple(random_scalar(rng) or Fraction(1) for _ in range(index))
            spec = HessSpec(index=index, coeff=lambda n, j: table[n, j],
                            forcing=g.__getitem__, init=init)
            first = [g[r] - sum(table[r, i] * y0 for i, y0 in enumerate(init))
                     for r in range(count)]
            band = [[table[r, index + c - 1] for c in range(1, r + 1)]
                    for r in range(count)]
            matrix = LowerHessenberg(first, band).to_dense()
            terms = general_prefix(spec, count)
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
        spec = HessSpec(index=1, coeff=coeff, forcing=forcing, init=[1])
        with pytest.raises(TypeError, match="as an exact rational$"):
            general_prefix(spec, 3)


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
                spec = hess_spec_from_source(src, g, init)

                fs = fundamental_set(st, order, order + horizon)
                for i in range(order):
                    xi_spec = hess_spec_from_source(src, None, unit(order, i))
                    assert general_prefix(xi_spec, horizon) == \
                        list(fs.sequences[i][order:])

                part = general_solution(st, g, {}, order + horizon)
                part_spec = hess_spec_from_source(src, g, (0,) * order)
                assert general_prefix(part_spec, horizon) == part[order:]

                sol = general_solution(st, g, dict(enumerate(init)),
                                       order + horizon)
                closed = general_prefix(spec, horizon)
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
        spec = hess_spec_from_source(src, g, [Fraction(1)])
        sol = general_solution(st, g, {0: Fraction(1)}, 7)
        assert general_prefix(spec, 6) == sol[1:]


class TestSpecFromSource:
    def test_rejects_untamed_sources(self):
        with pytest.raises(SpecError):
            hess_spec_from_source(build_family({"family": "example2"}))

    def test_short_forcing_rejected(self):
        src = build_family({"family": "first_order", "a": "2"})
        spec = hess_spec_from_source(src, g=[1, 1], init=(0,))
        with pytest.raises(ValueError, match="forcing prefix"):
            general_prefix(spec, 4)

    def test_zero_forcing_default(self):
        src = build_family({"family": "first_order", "a": "2"})
        spec = hess_spec_from_source(src, init=(1,))
        assert spec.forcing(99) == 0

    @pytest.mark.parametrize("spec", [
        {"family": "first_order", "a": "(n + 1)/(n + 3)"},
        {"family": "second_order", "a": "n/2 - 1", "b": "-3/(n + 1)"},
        {"family": "n_order", "N": 3, "a": "n*j - j^2/(n+1) + 1"},
        # trailing coefficient -(n+3)/(n+2): negative at every n
        {"family": "n_order", "N": 2, "a": "(j - 2*n - 5)/(n + 2)"},
    ])
    def test_coefficients_equal_fraction_division(self, spec):
        src = build_family(spec)
        order = src.regular_order_index
        g = [Fraction(n - 4, n % 3 + 1) for n in range(12)]
        hs = hess_spec_from_source(src, g, [1] * order)
        for n in range(12):
            r = src.row_at(n)
            lead = r.get(n + order)
            for j in range(n + order + 2):
                value = hs.coeff(n, j)
                assert value == r.get(j) / lead and type(value) is Fraction
            assert hs.forcing(n) == g[n] / lead
        if spec["family"] == "n_order" and spec["N"] == 2:
            assert all(src.row_at(n).get(n + 2) < 0 for n in range(12))


class TestBand:
    def test_sources_tag_their_band(self):
        spec = {"a": "n + 1", "b": "2", "N": 3}
        bands = {family: build_family(dict(spec, family=family)).band
                 for family in ("first_order", "second_order", "n_order",
                                "ascending", "example2")}
        assert bands == {"first_order": 1, "second_order": 2, "n_order": 3,
                         "ascending": None, "example2": None}
        src = build_family({"family": "n_order", "N": 3, "a": "1"})
        assert hess_spec_from_source(src).band == 3

    def test_n_order_reads_only_the_band(self):
        src = build_family({"family": "n_order", "N": 3,
                            "a": "n*j - j^2/(n+1) + 1"})
        g = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(100)]
        spec, calls = counting(hess_spec_from_source(src, g, (1, -2, 3)))
        terms = general_prefix(spec, 100)
        assert calls[0] <= 4 * 100
        full, full_calls = counting(replace(spec, band=None))
        assert general_prefix(full, 100) == terms
        assert full_calls[0] > 4000
        state = run(src, 100)
        assert general_solution(state, g, {0: 1, 1: -2, 2: 3}, 103)[3:] == terms

    def test_ascending_keeps_the_full_scan(self, rng):
        src = random_regular_source(rng, 2, 20, "ascending")
        g = [random_scalar(rng) for _ in range(20)]
        init = [random_scalar(rng), random_scalar(rng)]
        spec = hess_spec_from_source(src, g, init)
        assert spec.band is None
        sol = general_solution(run(src, 20), g, dict(enumerate(init)), 22)
        assert general_prefix(spec, 20) == sol[2:]

    @pytest.mark.parametrize("a", ["(n - 1)/(n - 2)",   # y_1 = 0, row 2 fails
                                   "n/(n - 1)"])        # y_0 = 0, row 1 fails
    def test_rows_past_a_vanishing_band_are_still_read(self, a):
        # every in-band product of the failing row vanishes, yet the row
        # is read and its error fires, as in the full expansion
        src = build_family({"family": "first_order", "a": a})
        with pytest.raises(EvalError, match="division by zero"):
            general_prefix(hess_spec_from_source(src, None, (1,)), 4)
        with pytest.raises(EvalError, match="division by zero"):
            run(src, 4)

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError, match="band"):
            banded_spec({0: 1}, 1, init=(1,), band=-1)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="^index must be nonnegative$"):
            HessSpec(index=-1, coeff=lambda n, j: 0, forcing=zero_forcing)
