import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from rowfinite import (AccessibleIndexError, EliminationState,
                       InconsistentSystemError, ShortColumnError, SpecError,
                       build_family, fundamental_set, general_solution,
                       inaccessible_lengths, run)
from rowfinite.checks import transforms_reproduce
from rowfinite.rows import FiniteRow, short_forcing
from rowfinite.solver import _replayed
from conftest import (dense, frechet_distance, naive_det, random_explicit_rows,
                      random_regular_source, random_scalar)


def ex2_state(horizon=8):
    return run(build_family({"family": "example2"}), horizon)


def ex3_state(horizon=12):
    return run(build_family({"family": "example3"}), horizon)


def zero_state():
    return run(build_family({"family": "explicit", "rows": [[], []]}), 2)


def transformed_at_pivots(st, g):
    """q_rows[pos] . g at each pivot position pos, in j_set order, as
    general_solution reads it: with no free constants, the term at a pivot
    column is the transformed forcing value of its row."""
    terms = general_solution(st, g, {}, st.greatest_length + 1)
    return [terms[length] for length in st.mu]


class TestInaccessibleLengths:
    def test_three_gaps(self):
        st = ex2_state()
        assert inaccessible_lengths(st, 8) == (0, 1, 3)
        assert not st.certified

    def test_arithmetic_progression_prefix(self):
        st = ex3_state()
        assert inaccessible_lengths(st, 13) == (0, 4, 8, 12)
        assert not st.certified

    def test_ascending_initial_segment(self):
        st = run(build_family({"family": "ascending", "N": 3, "a": "j + 1"}), 6)
        assert inaccessible_lengths(st, 3) == (0, 1, 2)
        assert st.certified

    def test_horizon_guard(self):
        st = ex2_state()
        with pytest.raises(ValueError, match="horizon"):
            inaccessible_lengths(st, st.greatest_length + 2)

    def test_partition_of_initial_segment(self):
        st = ex3_state()
        horizon = st.greatest_length + 1
        found = inaccessible_lengths(st, horizon)
        pivots_below = [m for m in st.mu if m < horizon]
        assert sorted(found + tuple(pivots_below)) == list(range(horizon))


class TestDeficiency:
    # the deficiency below a horizon is the number of inaccessible columns
    def test_fixture_counts(self):
        for st, horizon, count in ((ex2_state(), 8, 3), (ex3_state(), 13, 4)):
            assert (len(inaccessible_lengths(st, horizon)), st.certified) == (count, False)

    def test_regular_order_certified(self):
        for order in (1, 2, 3):
            st = run(build_family({"family": "n_order", "N": order, "a": "j - n + 1"}), 8)
            assert (len(inaccessible_lengths(st, order)), st.certified) == (order, True)

    def test_accounting_identity(self):
        for st in (ex2_state(), ex3_state()):
            for horizon in range(st.greatest_length + 2):
                count = len(inaccessible_lengths(st, horizon))
                below = sum(1 for m in st.mu if m < horizon)
                assert count + below == horizon


class TestFundamentalSet:
    def test_three_sequences(self):
        st = ex2_state()
        fs = fundamental_set(st, 8, 7)
        assert set(fs) == {0, 1, 3}
        assert fs[0] == (1, 0, 0, 0, 0, 0, 0)
        assert fs[1] == (0, 1, 2, 0, -24, -192, -1344)
        assert fs[3] == (0, 0, 0, 1, 8, 52, 344)
        assert not st.certified   # a Schauder basis prefix

    def test_spaced_unit_bumps(self):
        fs = fundamental_set(ex3_state(), 13, 14)
        for s, seq in fs.items():
            expected = [Fraction(0)] * 14
            expected[s] = Fraction(1)
            if s + 1 < 14:
                expected[s + 1] = Fraction(-2)
            if s + 2 < 14:
                expected[s + 2] = Fraction(1)
            assert list(seq) == expected

    def test_second_order_instance(self):
        st = run(build_family({"family": "second_order", "a": [1, 3], "b": [2, 4]}), 2)
        fs = fundamental_set(st, 2, 4)
        assert fs[1] == (0, 1, -2, 5)
        assert st.certified   # a finite basis

    def test_unit_pattern_identity(self):
        # restricted to the inaccessible rows, the basis prefix is the identity
        for st, horizon in ((ex2_state(), 8), (ex3_state(), 13)):
            fs = fundamental_set(st, horizon, st.greatest_length + 1)
            gaps = sorted(fs)
            for s in gaps:
                for t in gaps:
                    assert fs[s][t] == (1 if s == t else 0)

    def test_leading_determinant_is_one(self):
        # columns: fundamental sequence at a gap, unit column elsewhere
        st = ex2_state()
        fs = fundamental_set(st, 8, 8)
        top = max(fs)
        size = top + 1
        cols = []
        for n in range(size):
            if n in fs:
                cols.append([fs[n][r] for r in range(size)])
            else:
                cols.append([Fraction(1 if r == n else 0) for r in range(size)])
        dense = [[cols[c][r] for c in range(size)] for r in range(size)]
        assert naive_det(dense) == 1

    @settings(max_examples=120, deadline=None)
    @given(hs.integers(0, 2 ** 32), hs.sampled_from(["explicit", "example3"]),
           hs.sampled_from(["below", "at", "past"]))
    def test_matches_one_general_solution_per_column(self, seed, shape, terms_vs_horizon):
        # the oracle is the definition: the homogeneous solution with
        # constant 1 at s and no other free constant; explicit rows bring
        # zero rows, placement shifts and cross-clears
        rng = random.Random(seed)
        if shape == "explicit":
            st = EliminationState(False)
            for row in random_explicit_rows(rng, max_rows=14, max_len=9):
                st.push_row(row)
        else:
            st = ex3_state(rng.randint(1, 30))
        top = st.greatest_length + 1
        if terms_vs_horizon == "below":
            assume(top >= 2)
            horizon = rng.randint(2, top)
            terms = rng.randint(1, horizon - 1)
        elif terms_vs_horizon == "at":
            assume(top >= 1)
            horizon = terms = rng.randint(1, top)
        else:
            assume(top >= 1)
            horizon = rng.randint(0, top - 1)
            terms = rng.randint(horizon + 1, top)
        fs = fundamental_set(st, horizon, terms)
        assert list(fs) == list(inaccessible_lengths(st, horizon))
        for s, seq in fs.items():
            assert seq == tuple(general_solution(st, None, {s: 1}, terms))
            assert all(type(v) is Fraction for v in seq)


class TestHomogeneousGeneral:
    def test_unit_free_constant_reproduces_basis_sequence(self):
        st = ex2_state()
        assert general_solution(st, None, {1: 1}, 7) == \
            [0, 1, 2, 0, -24, -192, -1344]

    def test_all_zero(self):
        assert general_solution(ex3_state(), None, {}, 10) == [0] * 10

    def test_power_minus_factorial_solution(self):
        # 2^n - n! solves the showcase equation; its free values sit at 0, 1, 3
        st = ex2_state()
        zeta = [Fraction(2 ** n - factorial(n)) for n in range(10)]
        out = general_solution(st, None, {0: zeta[0], 1: zeta[1], 3: zeta[3]}, 10)
        assert out == zeta

    def test_dependent_terms_spelled_out(self, rng):
        # y_2 = 2 y_1, y_4 = -(24 y_1 - 8 y_3), y_5 = -(192 y_1 - 52 y_3), ...
        st = ex2_state()
        y0, y1, y3 = (random_scalar(rng) for _ in range(3))
        out = general_solution(st, None, {0: y0, 1: y1, 3: y3}, 8)
        assert out[0] == y0 and out[1] == y1 and out[3] == y3
        assert out[2] == 2 * y1
        assert out[4] == -(24 * y1 - 8 * y3)
        assert out[5] == -(192 * y1 - 52 * y3)
        assert out[6] == -(1344 * y1 - 344 * y3)
        assert out[7] == -(9888 * y1 - 2488 * y3)

    def test_superposition(self, rng):
        st = ex3_state()
        gaps = inaccessible_lengths(st, 13)
        for _ in range(5):
            f1 = {s: random_scalar(rng) for s in gaps}
            f2 = {s: random_scalar(rng) for s in gaps}
            alpha, beta = random_scalar(rng), random_scalar(rng)
            combo = {s: alpha * f1[s] + beta * f2[s] for s in gaps}
            lhs = general_solution(st, None, combo, 14)
            h1 = general_solution(st, None, f1, 14)
            h2 = general_solution(st, None, f2, 14)
            assert lhs == [alpha * a + beta * b for a, b in zip(h1, h2)]

    def test_matches_basis_expansion(self, rng):
        st = ex3_state()
        gaps = inaccessible_lengths(st, 13)
        free = {s: random_scalar(rng) for s in gaps}
        fs = fundamental_set(st, 13, 14)
        expected = [sum(free[s] * fs[s][m] for s in gaps)
                    for m in range(14)]
        assert general_solution(st, None, free, 14) == expected

    def test_accessible_index_rejected(self):
        with pytest.raises(AccessibleIndexError) as info:
            general_solution(ex2_state(), None, {2: 1}, 5)
        assert info.value.index == 2

    def test_unclassified_index_rejected(self):
        st = ex2_state()
        with pytest.raises(ValueError, match="classified"):
            general_solution(st, None, {st.greatest_length + 5: 1}, 5)

    def test_terms_guard(self):
        st = ex2_state()
        with pytest.raises(ValueError):
            general_solution(st, None, {}, st.greatest_length + 2)


class TestRhsTransform:
    def test_zero_forcing(self):
        assert transformed_at_pivots(ex3_state(), [0] * 12) == [0] * 10

    def test_lower_triangular_action_on_regular_sources(self, rng):
        src = random_regular_source(rng, order=2, horizon=8, shape="n_order")
        st = run(src, 8)
        g1 = [random_scalar(rng) for _ in range(8)]
        g2 = list(g1)
        g2[-1] += 1  # only the last transformed entry may move
        k1, k2 = transformed_at_pivots(st, g1), transformed_at_pivots(st, g2)
        assert k1[:-1] == k2[:-1] and k1[-1] != k2[-1]

    def test_unit_bump_forcing(self):
        # only q_rows[11], the pivot row of column 13, reads g[11]
        st = ex3_state()
        g = [Fraction(0)] * 12
        g[11] = Fraction(1)
        assert general_solution(st, g, {}, 14) == [0] * 13 + [1]

    def test_short_forcing_rejected(self):
        st = ex3_state()
        with pytest.raises(ShortColumnError):
            general_solution(st, [0] * 5, {}, 14)


class TestConsistency:
    def test_homogeneous_always_consistent(self):
        st = ex3_state()
        assert (general_solution(st, [0] * 12, {0: 1, 4: 2}, 14)
                == general_solution(st, None, {0: 1, 4: 2}, 14))

    def test_unit_bump_at_zero_row(self):
        g = [Fraction(0)] * 12
        g[6] = Fraction(1)
        with pytest.raises(InconsistentSystemError) as info:
            general_solution(ex3_state(), g, {}, 14)
        assert info.value.violated == [6]

    def test_regular_sources_accept_any_forcing(self, rng):
        src = random_regular_source(rng, order=3, horizon=9, shape="ascending")
        st = run(src, 9)
        g = [random_scalar(rng) for _ in range(9)]
        assert (transformed_at_pivots(st, g)
                == [q.dot_prefix(g) for q in st.q_rows])


class TestParticular:
    def test_zero_forcing_gives_zero_sequence(self):
        st = ex3_state()
        assert general_solution(st, [0] * 12, {}, 14) == [0] * 14

    def test_regular_order_layout(self, rng):
        src = random_regular_source(rng, order=2, horizon=8, shape="n_order")
        st = run(src, 8)
        g = [random_scalar(rng) for _ in range(8)]
        part = general_solution(st, g, {}, 10)
        assert part[:2] == [0, 0]
        assert part[2:] == [q.dot_prefix(g) for q in st.q_rows]
        for n in range(8):
            assert src.row_at(n).dot_prefix(part) == g[n]

    def test_constant_forcing_first_order(self):
        src = build_family({"family": "first_order", "a": "2"})
        st = run(src, 5)
        part = general_solution(st, [1] * 5, {}, 6)
        for n in range(5):
            assert src.row_at(n).dot_prefix(part) == 1

    def test_inconsistent_forcing_raises(self):
        g = [Fraction(0)] * 12
        g[6] = Fraction(1)
        with pytest.raises(InconsistentSystemError) as info:
            general_solution(ex3_state(), g, {}, 14)
        assert info.value.violated == [6]


def _bump(length):
    """Forcing of the given length for example3, nonzero only at zero row 6."""
    return [Fraction(1 if n == 6 else 0) for n in range(length)]


class TestGeneralSolution:
    def test_none_forcing_is_homogeneous(self):
        st = ex2_state()
        assert general_solution(st, None, {1: 1}, 7) == \
            general_solution(st, [0] * st.k, {1: 1}, 7)

    def test_doubling_plus_one(self):
        src = build_family({"family": "first_order", "a": "2"})
        st = run(src, 6)
        sol = general_solution(st, [1] * 6, {0: 0}, 6)
        assert sol == [0, 1, 3, 7, 15, 31]

    @pytest.mark.parametrize("bad,fixed,first,second", [
        # terms, then free constants
        ((None, {1: 1}, 15), (None, {1: 1}, 8), ValueError, AccessibleIndexError),
        # free constants, then short forcing at the zero rows
        (([0] * 5, {1: 1}, 8), ([0] * 5, {}, 8), AccessibleIndexError, ShortColumnError),
        # short forcing at the zero rows (row 10), then consistency (row 6)
        ((_bump(10), {}, 8), (_bump(11), {}, 8), ShortColumnError, InconsistentSystemError),
        # consistency, then short forcing at the pivot row of column 13
        ((_bump(11), {}, 14), ([0] * 11, {}, 14), InconsistentSystemError, ShortColumnError),
    ])
    def test_order_of_checks(self, bad, fixed, first, second):
        # ``bad`` fails two adjacent checks, ``fixed`` only the later one
        st = ex3_state()
        with pytest.raises(first) as info:
            general_solution(st, *bad)
        assert type(info.value) is first
        with pytest.raises(second):
            general_solution(st, *fixed)

    def test_residual_on_random_consistent_forcing(self, rng):
        for st, src in [
            (ex2_state(), build_family({"family": "example2"})),
            (ex3_state(), build_family({"family": "example3"})),
        ]:
            width = st.greatest_length + 1
            probe = [random_scalar(rng) for _ in range(width)]
            g = [src.row_at(n).dot_prefix(probe) for n in range(st.k)]
            gaps = inaccessible_lengths(st, width)
            free = {s: random_scalar(rng) for s in gaps}
            sol = general_solution(st, g, free, width)
            for n in range(st.k):
                assert src.row_at(n).dot_prefix(sol) == g[n]


@pytest.mark.parametrize("call,error,message", [
    (lambda st: inaccessible_lengths(st, -1), ValueError,
     "horizon must be nonnegative"),
    (lambda st: general_solution(st, None, {}, 0), ValueError,
     "terms must be positive"),
    (lambda st: general_solution(st, None, {"0": 1}, 3), SpecError,
     "free-constant index must be a nonnegative integer, got '0'"),
    # a bool is an int, but True is not column 1
    (lambda st: general_solution(st, None, {True: 5}, 4), SpecError,
     "free-constant index must be a nonnegative integer, got True"),
    (lambda st: frechet_distance([1], [1], -1), ValueError,
     "horizon must be nonnegative"),
    # two zero rows classify no column
    (lambda st: inaccessible_lengths(zero_state(), 2), ValueError,
     "horizon 2 exceeds the number of classified columns (0); consume more rows"),
    (lambda st: general_solution(zero_state(), None, {}, 1), ValueError,
     "cannot produce 1 terms: the number of classified columns is 0; consume more rows"),
], ids=["inaccessible-horizon", "terms", "free-key", "free-key-bool",
        "frechet-horizon", "horizon-past-no-classified-column",
        "terms-past-no-classified-column"])
def test_argument_checks(call, error, message):
    with pytest.raises(error) as info:
        call(ex2_state())
    assert type(info.value) is error and str(info.value) == message


class TestRegularOrderTerm:
    # term N+n of the solution with initial values at columns 0..N-1
    def test_reduces_to_fundamental_sequence(self, rng):
        src = random_regular_source(rng, order=2, horizon=8, shape="ascending")
        st = run(src, 8)
        zeros = [Fraction(0)] * 8
        fs = fundamental_set(st, 2, 10)
        for i in (0, 1):
            init = {k: Fraction(1 if k == i else 0) for k in range(2)}
            assert general_solution(st, zeros, init, 10) == list(fs[i])

    def test_doubling_plus_one_closed_form(self):
        src = build_family({"family": "first_order", "a": "2"})
        st = run(src, 6)
        terms = general_solution(st, [1] * 6, {0: 0}, 7)[1:]
        assert terms == [2 ** (n + 1) - 1 for n in range(6)]

    def test_second_order_instance_term(self):
        src = build_family({"family": "second_order", "a": [1, 3], "b": [2, 4]})
        st = run(src, 2)
        value = general_solution(st, [0, 0], {0: 0, 1: 1}, 4)[2 + 1]
        assert value == 2 * 4 - 3  # matches the 2x2 determinant by hand


class TestFrechetDistance:
    def test_identical_prefixes(self):
        value, _ = frechet_distance([1, 2, 3], [1, 2, 3], 3)
        assert value == 0

    def test_single_unit_difference(self):
        value, _ = frechet_distance([1], [0], 1)
        assert value == Fraction(1, 2)
        value, _ = frechet_distance([0, 1, 0], [0, 0, 0], 3)
        assert value == Fraction(1, 4)   # weight 2^-1 at index 1

    def test_tail_bound_value(self):
        _, tail = frechet_distance([1, 2], [1, 2], 2)
        assert tail == Fraction(1, 2)
        _, tail0 = frechet_distance([], [], 0)
        assert tail0 == 2

    def test_value_below_weight_sum(self, rng):
        xs = [random_scalar(rng) for _ in range(10)]
        ys = [random_scalar(rng) for _ in range(10)]
        value, _ = frechet_distance(xs, ys, 10)
        assert 0 <= value < 2

    def test_partial_sum_convergence_bound(self, rng):
        st = run(build_family({"family": "example3"}), 16)
        width = st.greatest_length + 1
        gaps = inaccessible_lengths(st, width)
        free = {s: random_scalar(rng) for s in gaps}
        full = general_solution(st, None, free, width)
        fs = fundamental_set(st, width, width)
        for n in range(3):
            partial = [Fraction(0)] * width
            for s in list(gaps)[: n + 1]:
                partial = [p + free[s] * v for p, v in zip(partial, fs[s])]
            value, _ = frechet_distance(partial, full, width)
            assert value < Fraction(1, 2 ** (4 * n))

    def test_short_prefix_rejected(self):
        with pytest.raises(ValueError):
            frechet_distance([1], [1, 2], 2)


class TestRandomExplicitSystems:
    def test_residuals_across_random_matrices(self, rng):
        for _ in range(10):
            rows = random_explicit_rows(rng, max_rows=18, max_len=10)
            src = build_family({"family": "explicit", "rows": rows})
            st = run(src, len(rows))
            width = st.greatest_length + 1
            if width == 0:
                continue
            probe = [random_scalar(rng) for _ in range(width)]
            g = [r.dot_prefix(probe) for r in rows]
            gaps = inaccessible_lengths(st, width)
            free = {s: random_scalar(rng) for s in gaps}
            sol = general_solution(st, g, free, width)
            for r, target in zip(rows, g):
                assert r.dot_prefix(sol) == target

    @settings(max_examples=80, deadline=None)
    @given(hs.integers(0, 2 ** 32))
    def test_replayed_forcing_matches_the_transform_rows(self, seed):
        # the independent oracle is Q itself, materialized and applied row
        # by row; forcing terms past a short prefix count as 0.  Each value
        # is a pair in lowest terms, as a Fraction's numerator and denominator
        rng = random.Random(seed)
        rows = random_explicit_rows(rng, max_rows=14, max_len=9)
        rows.insert(rng.randint(0, len(rows)), FiniteRow())
        st = run(build_family({"family": "explicit", "rows": rows}), len(rows))
        g = [random_scalar(rng) if rng.random() < 0.7 else Fraction(0)
             for _ in range(rng.randint(0, st.k))]
        padded = g + [Fraction(0)] * (st.k - len(g))
        oracle = [q.dot_prefix(padded) for q in st.q_rows]
        assert _replayed(st, g) == [(v.numerator, v.denominator) for v in oracle]

    def test_free_constants_inside_pivot_rows_and_past_the_terms(self, rng):
        # example3's pivot rows are dense, so they hold entries at the free
        # columns 0, 4 and 8; column 12 lies past the 10 terms asked for
        st = ex3_state()
        terms = 10
        free = {s: random_scalar(rng) or Fraction(1) for s in (0, 4, 8, 12)}
        assert any(st.h_rows[pos].get(s)
                   for pos, m in zip(st.j_set, st.mu) for s in (0, 4, 8) if s < m)
        src = build_family({"family": "example3"})
        probe = [random_scalar(rng) for _ in range(st.greatest_length + 1)]
        g = [src.row_at(n).dot_prefix(probe) for n in range(st.k)]
        sol = general_solution(st, g, free, terms)
        assert sol == general_solution(st, g, free, st.greatest_length + 1)[:terms]
        assert sol[:9:4] == [free[0], free[4], free[8]]
        for n in range(st.k):
            row = src.row_at(n)
            if row.length < terms:
                assert sum(a * y for a, y in zip(dense(row, terms), sol)) == g[n]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ShortColumnError, InconsistentSystemError) as exc:
        return type(exc).__name__, str(exc)


def _particular_from_rows(state, q_rows, g, terms):
    """The particular solution from eagerly built transform rows: the
    reference the replay on the forcing column replaces.  A short ``g``
    reports how many terms the rows read reach, counted from g_0."""
    read = state.w_set + [pos for pos, length in zip(state.j_set, state.mu)
                          if length < terms]
    needed = max((q_rows[n].length + 1 for n in read), default=0)
    try:
        violated = [w for w in state.w_set if q_rows[w].dot_prefix(g) != 0]
        if violated:
            raise InconsistentSystemError(violated)
        out = [Fraction(0)] * terms
        for pos, length in zip(state.j_set, state.mu):
            if length < terms:
                out[length] = q_rows[pos].dot_prefix(g)
    except ShortColumnError:
        raise short_forcing(len(g), needed) from None
    return out


class TestTransformReplay:
    @settings(max_examples=80, deadline=None)
    @given(hs.integers(0, 2 ** 32), hs.sampled_from(["explicit", "n_order", "ascending"]))
    def test_replay_matches_the_transform_rows(self, seed, shape):
        rng = random.Random(seed)
        certified = False
        if shape == "explicit":
            rows = random_explicit_rows(rng, max_rows=14, max_len=9)
        else:
            horizon = rng.randint(1, 10)
            src = random_regular_source(rng, order=rng.randint(1, 3),
                                        horizon=horizon, shape=shape)
            rows = [src.row_at(n) for n in range(horizon)]
            certified = True
        st, fresh = EliminationState(certified), EliminationState(certified)
        for r in rows:
            st.push_row(r)
            fresh.push_row(r)
            if rng.random() < 0.3:
                assert len(st.q_rows) == st.k   # built again after later pushes
        q_rows = st.q_rows
        assert q_rows == fresh.q_rows
        assert transforms_reproduce(rows, st.transform_rows(), st.h_rows)

        k = st.k
        width = max(r.length for r in rows) + 1
        probe = [random_scalar(rng) for _ in range(width)]
        g = [r.dot_prefix(probe) for r in rows]      # consistent forcing
        if not st.mu:
            return   # no column is classified, so no term can be asked for
        terms = rng.randint(1, st.greatest_length + 1)
        needed = st.w_set + [pos for pos, length in zip(st.j_set, st.mu)
                             if length < terms]
        for supplied in range(k + 1):
            short = g[:supplied]
            got = _outcome(general_solution, st, short, {}, terms)
            assert (isinstance(got, tuple) and got[0] == "ShortColumnError") == any(
                q_rows[n].length >= supplied for n in needed)
            assert got == _outcome(_particular_from_rows, st, q_rows, short, terms)
