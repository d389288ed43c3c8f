import random
from fractions import Fraction
from itertools import accumulate

import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rowfinite import (EliminationState, EngineError, FiniteRow, ZERO_ROW,
                       build_family, check_invariants, run, solver)
from rowfinite.elimination import PushLog
from rowfinite.checks import transforms_reproduce
from conftest import (PositionalReference, check_state, corrupt_transform_row,
                      dense_rank, push_checked, random_explicit_rows, random_regular_source,
                      shuffled_length_rows, source_rows)


def null_basis(st):
    """Transform rows at the zero-row positions: each annihilates every
    consumed row."""
    q_rows = st.q_rows
    return [q_rows[w] for w in st.w_set]


def row(*dense):
    return FiniteRow(enumerate(dense))


def ex3():
    return build_family({"family": "example3"})


class TestGaussianReduce:
    def test_single_pivot_clearing(self):
        st = EliminationState()
        st.push_row(row(1, 2, 1))
        assert st.reduce_with_transform(row(0, 3, 4, 1))[0] == row(-4, -5, 0, 1)

    def test_zero_row_passes_through(self):
        st = EliminationState()
        st.push_row(row(1, 2, 1))
        assert st.reduce_with_transform(ZERO_ROW)[0].is_zero

    def test_two_pivot_clearing(self):
        st = EliminationState()
        st.push_row(row(1, 1, 1))
        st.push_row(row(0, 2, 1, 1))
        assert st.h_rows == [row(1, 1, 1), row(-1, 1, 0, 1)]
        assert st.reduce_with_transform(row(0, 0, 3, 1, 1))[0] == row(-2, -4, 0, 0, 1)

    def test_result_is_normalized(self):
        st = EliminationState()
        g = st.reduce_with_transform(row(0, 2, -4))[0]
        assert g.leading == 1
        assert g == FiniteRow([(1, Fraction(-1, 2)), (2, 1)])

    def test_survivor_length_avoids_existing_pivots(self, rng):
        st = EliminationState()
        for r in random_explicit_rows(rng, max_rows=25):
            g = st.reduce_with_transform(r)[0]
            assert g.is_zero or g.length not in set(st.mu)
            st.push_row(r)

    def test_transform_keeps_own_row_coefficient(self, rng):
        # the combination producing each survivor always involves the row
        # that was just inserted with a nonzero coefficient
        st = EliminationState()
        for r in random_explicit_rows(rng, max_rows=20, max_len=10):
            k = st.k
            g = st.reduce_with_transform(r)[0]
            st.push_row(r)
            pos = k if g.is_zero else st.j_set[st.mu.index(g.length)]
            assert st.q_rows[pos].get(k) != 0

    def test_pivot_order_does_not_matter(self, rng):
        for _ in range(20):
            st = EliminationState()
            rows = random_explicit_rows(rng, max_rows=12, max_len=9)
            for r in rows[:-1]:
                st.push_row(r)
            probe = rows[-1]
            expected = st.reduce_with_transform(probe)[0]

            def usable(work):
                return [(length, pos) for length, pos in zip(st.mu, st.j_set)
                        if length <= work.length and work.get(length) != 0]

            for _ in range(4):
                work = probe
                # each pivot column is zero in every other stored row, so a
                # step clears one column for good: at most one per pivot,
                # and a kernel that leaves its column standing fails below
                # rather than looping
                for _ in st.mu:
                    choices = usable(work)
                    if not choices:
                        break
                    length, pos = rng.choice(choices)
                    work = work.combine([(-work.get(length), st.h_rows[pos])])
                assert not usable(work)
                if not work.is_zero:
                    work = work.combine((), 1 / work.leading)
                assert work == expected


class TestJordanClear:
    def build_two_row_state(self):
        st = EliminationState()
        src = ex3()
        st.push_row(src.row_at(0))
        st.push_row(src.row_at(1))
        return st

    def test_clears_the_pivot_column(self):
        st = self.build_two_row_state()
        g, log = st.reduce_with_transform(ex3().row_at(2))
        assert g == row(2, 1)
        changed = st.jordan_clear(g, log)
        assert changed == [2, 3]   # the rows at positions 0 and 1
        assert [length for length, _ in log.cross] == [2, 3]
        assert st.h_rows[0] == row(-1, 0, 1)
        assert st.h_rows[1] == row(0, 0, 0, 1)
        for pos in (0, 1):
            assert st.h_rows[pos].get(g.length) == 0

    def test_lengths_unchanged(self):
        st = self.build_two_row_state()
        before = [r.length for r in st.h_rows]
        g, log = st.reduce_with_transform(ex3().row_at(2))
        st.jordan_clear(g, log)
        assert [r.length for r in st.h_rows] == before

    def test_no_overlap_leaves_rows_alone(self):
        st = EliminationState()
        st.push_row(row(0, 0, 5, 1))   # no entry at column 0
        g, log = st.reduce_with_transform(row(1))
        changed = st.jordan_clear(g, log)
        assert changed == [] and log.cross == []
        assert st.h_rows[0] == FiniteRow([(2, 5), (3, 1)])

    def test_rejects_zero_pivot(self):
        st = self.build_two_row_state()
        with pytest.raises(EngineError):
            st.jordan_clear(ZERO_ROW, ZERO_ROW)

    def test_rejects_pivot_not_below_prefix(self):
        st = self.build_two_row_state()
        with pytest.raises(EngineError):
            st.jordan_clear(row(0, 0, 0, 0, 1), FiniteRow([(2, 1)]))

    def test_rejects_colliding_length(self):
        st = self.build_two_row_state()
        with pytest.raises(EngineError):
            st.jordan_clear(row(-1, 0, 1), FiniteRow([(2, 1)]))


class TestInsertWithPermutation:
    def test_rejects_colliding_length(self):
        st = EliminationState()
        st.push_row(row(0, 0, 1))
        with pytest.raises(EngineError, match="pivot length 2 collides"):
            st.insert_with_permutation(row(1, 0, 1), PushLog([], None))
        assert st.mu == [2] and st.k == 1

    def test_reorder_to_increasing_lengths(self):
        st = EliminationState()
        src = ex3()
        for n in range(3):
            st.push_row(src.row_at(n))
        assert st.h_rows == [row(2, 1), row(-1, 0, 1), FiniteRow([(3, 1)])]
        assert st.mu == [1, 2, 3]

    def test_append_case_no_permutation(self):
        src = build_family({"family": "example2"})
        st = run(src, 3)
        assert st.h_rows[2] == row(0, 24, 0, -8, 1)
        assert st.j_set == [0, 2]

    def test_zero_survivor_recorded(self):
        st = EliminationState()
        st.push_row(row(1, 1))
        st.push_row(row(2, 2))
        assert st.w_set == [1]
        assert st.h_rows[1].is_zero

    def test_zero_rows_pinned_forever(self):
        src = ex3()
        st = EliminationState()
        frozen = {}
        for n in range(12):
            st.push_row(src.row_at(n))
            q_rows = st.q_rows
            for w in st.w_set:
                frozen.setdefault(w, q_rows[w])
        assert st.w_set == [6, 10]
        q_rows = st.q_rows
        for w, q_row in frozen.items():
            assert st.h_rows[w].is_zero
            assert q_rows[w] == q_row

    def test_first_row_zero(self):
        st = EliminationState()
        st.push_row(ZERO_ROW)
        assert st.w_set == [0]
        assert st.q_rows[0] == row(1)
        check_state(st)

    def test_nonzero_rows_shift_across_pinned_zeros(self):
        rows = [row(0, 0, 1), row(0, 0, 2), row(0, 1, 1),
                row(1, 0, 0, 1), row(3)]
        st = EliminationState()
        for r in rows[:3]:
            push_checked(st, r)
        # the old pivot row moved from position 0 past the pinned zero at 1
        assert st.h_rows == [row(0, 1), ZERO_ROW, row(0, 0, 1)]
        assert st.j_set == [0, 2] and st.w_set == [1]
        for r in rows[3:]:
            push_checked(st, r)
        assert st.h_rows == [row(1), ZERO_ROW, row(0, 1), row(0, 0, 1),
                             row(0, 0, 0, 1)]
        assert st.w_set == [1]
        assert transforms_reproduce(rows, st.transform_rows(), st.h_rows)


class TestPushRow:
    def test_three_step_trace(self):
        st = EliminationState()
        src = ex3()
        st.push_row(src.row_at(0))
        assert st.h_rows == [FiniteRow([(1, Fraction(1, 2)), (2, 1)])]
        st.push_row(src.row_at(1))
        assert st.h_rows[1] == row(2, 1, 0, 1)
        st.push_row(src.row_at(2))
        assert st.h_rows == [row(2, 1), row(-1, 0, 1), FiniteRow([(3, 1)])]
        assert st.stable_since()[:3] == [2, 2, 2]

    def test_dependent_row_becomes_zero(self):
        src = build_family({"family": "example2"})
        st = run(src, 2)
        assert st.w_set == [1]
        assert st.q_rows[1] == row(-2, 1)

    def test_gauss_only_never_permutes(self):
        src = build_family({"family": "first_order", "a": "n + 2"})
        st = run(src, 6)
        assert st.certified
        assert st.j_set == list(range(6))
        assert st.stable_since() == list(range(6))

    def test_gauss_only_rejects_length_drop(self):
        st = EliminationState(certified=True)
        st.push_row(row(0, 0, 1))
        with pytest.raises(EngineError):
            st.push_row(row(1))

    def test_invariants_after_every_push(self, rng):
        rows = random_explicit_rows(rng, max_rows=30)
        st = EliminationState()
        for r in rows:
            push_checked(st, r)


class TestModesAgree:
    def test_lower_echelon_gives_identical_state(self, rng):
        for shape in ("n_order", "ascending"):
            src = random_regular_source(rng, order=2, horizon=12, shape=shape)
            certified = run(src, 12)
            assert certified.certified
            general = EliminationState()
            for n in range(12):
                general.push_row(src.row_at(n))
            assert certified.h_rows == general.h_rows
            assert certified.q_rows == general.q_rows


class TestRunAndPrefixes:
    def test_run_matches_incremental(self):
        src = ex3()
        st = run(src, 12)
        assert st.k == 12
        assert not st.certified
        check_state(st)

    def test_constant_first_order_column_of_products(self):
        st = run(build_family({"family": "first_order", "a": "2"}), 4)
        assert [r.get(0) for r in st.h_rows] == [-2, -4, -8, -16]
        assert [r.length for r in st.h_rows] == [1, 2, 3, 4]

    def test_run_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            run(ex3(), 0)

    def test_prefix_stabilization_markers(self):
        st = run(ex3(), 12)
        assert st.stable_since()[:3] == [2, 2, 2]
        assert not st.certified
        assert st.h_rows[:3] == [row(2, 1), row(-1, 0, 1), FiniteRow([(3, 1)])]

    def test_prefix_before_stabilization(self):
        st = run(ex3(), 2)
        assert st.h_rows[0] == FiniteRow([(1, Fraction(1, 2)), (2, 1)])
        assert st.stable_since()[0] == 0

    def test_certified_prefix_for_lower_echelon(self):
        src = build_family({"family": "second_order", "a": "1", "b": "n"})
        st = run(src, 5)
        assert st.certified
        assert st.stable_since()[:4] == [0, 1, 2, 3]


class TestLeftNullBasis:
    def test_cosine_equation_basis(self):
        st = run(ex3(), 12)
        assert null_basis(st) == [
            FiniteRow([(3, 1), (4, -1), (5, -1), (6, 1)]),
            FiniteRow([(7, 1), (8, -1), (9, -1), (10, 1)]),
        ]

    def test_dependent_pair_basis(self):
        st = run(build_family({"family": "example2"}), 8)
        assert null_basis(st) == [row(-2, 1)]

    def test_regular_source_has_empty_basis(self):
        st = run(build_family({"family": "first_order", "a": "3"}), 6)
        assert null_basis(st) == []


class TestLeftAssociation:
    def test_cosine_equation(self):
        src = ex3()
        st = run(src, 12)
        assert transforms_reproduce(source_rows(src, 12), st.transform_rows(), st.h_rows)
        # Q reads row 11
        assert not transforms_reproduce(source_rows(src, 11), st.transform_rows(), st.h_rows)
        # spot check: q_rows[0] combines rows 0,1,2 into the reduced row 0
        acc = src.row_at(0).combine([(1, src.row_at(1)), (-1, src.row_at(2))])
        assert acc == st.h_rows[0] == row(2, 1)

    def test_empty_state_vacuously_true(self):
        st = EliminationState()
        assert transforms_reproduce([], st.transform_rows(), st.h_rows)

    def test_detects_corrupted_reduced_row(self):
        src = ex3()
        st = run(src, 12)
        length = st.mu[3]   # the row at position 3
        st.pivots[length] = st.pivots[length].combine([(1, row(1))])
        assert not transforms_reproduce(source_rows(src, 12), st.transform_rows(), st.h_rows)

    def test_detects_corrupted_transform_row(self):
        src = ex3()
        st = run(src, 12)
        corrupt_transform_row(st, 5, lambda q: q.combine((), 2))
        assert not transforms_reproduce(source_rows(src, 12), st.transform_rows(), st.h_rows)
        # a replay that yields one row too few or one too many fails too
        intact = run(src, 12)
        q_rows = intact.q_rows
        for replay in (q_rows[:-1], q_rows + [q_rows[-1]]):
            intact.transform_rows = lambda: iter(replay)
            assert not transforms_reproduce(source_rows(src, 12), intact.transform_rows(),
                                            intact.h_rows)


class TestRegularOrderTransform:
    def test_transform_is_unit_lower_triangular_after_scaling(self, rng):
        src = random_regular_source(rng, order=3, horizon=10, shape="n_order")
        st = run(src, 10)
        for n, q in enumerate(st.q_rows):
            assert q.length == n
            lead = src.row_at(n).get(n + 3)
            assert q.get(n) == 1 / lead


class TestAgainstDenseOracle:
    def test_zero_row_count_matches_rank_deficiency(self, rng):
        # the number of zero rows equals rows minus rank, per a plain dense
        # elimination oracle that knows nothing about the streaming engine
        for _ in range(15):
            rows = random_explicit_rows(rng, max_rows=16, max_len=10)
            st = EliminationState()
            for r in rows:
                st.push_row(r)
            width = max((r.length + 1 for r in rows), default=1)
            rank = dense_rank(rows, width)
            assert len(st.w_set) == len(rows) - rank
            assert len(st.j_set) == rank

    def test_consumed_rows_lie_in_the_reduced_row_space(self, rng):
        # every consumed row must reduce to zero against the final prefix,
        # with expansion coefficients read off at the pivot columns
        for _ in range(10):
            rows = random_explicit_rows(rng, max_rows=14, max_len=9)
            st = EliminationState()
            for r in rows:
                st.push_row(r)
            for r in rows:
                residual = r
                for pos, length in zip(st.j_set, st.mu):
                    c = r.get(length)
                    if c:
                        residual = residual.combine([(-c, st.h_rows[pos])])
                assert residual.is_zero

    def test_null_basis_annihilates_every_consumed_row(self, rng):
        rows = random_explicit_rows(rng, max_rows=20, max_len=10)
        src = build_family({"family": "explicit", "rows": rows})
        st = run(src, len(rows))
        for basis_row in null_basis(st):
            acc = ZERO_ROW.combine([(c, rows[m]) for m, c in basis_row.items()])
            assert acc.is_zero


small_matrices = st.lists(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.fractions(min_value=-9, max_value=9, max_denominator=4)),
        max_size=5, unique_by=lambda e: e[0]),
    min_size=1, max_size=8,
)


class TestHypothesisMatrices:
    @settings(max_examples=60, deadline=None)
    @given(small_matrices)
    def test_invariants_and_association_hold(self, entries):
        rows = [FiniteRow(e) for e in entries]
        st = EliminationState()
        for r in rows:
            st.push_row(r)
            check_state(st)
        assert transforms_reproduce(rows, st.transform_rows(), st.h_rows)
        width = max((r.length + 1 for r in rows), default=1)
        assert len(st.j_set) == dense_rank(rows, width)


def example2_state():
    # j_set [0, 2, 3, 4, 5, 6, 7], w_set [1], mu [2, 4, 5, 6, 7, 8, 9]
    return run(build_family({"family": "example2"}), 8)


def bump(st, length, col):
    """Add 1 to the reduced row of pivot length ``length`` in column ``col``."""
    st.pivots[length] = st.pivots[length].combine([(1, FiniteRow([(col, 1)]))])


def zero_set_takes_a_pivot_row(st):
    st.w_set.append(3)


def pivot_set_loses_a_row(st):
    st.j_set.remove(5)


def drop_last_pivot(st):
    st.mu.pop()


def swap_first_pivots(st):
    st.mu[0], st.mu[1] = st.mu[1], st.mu[0]


def pivot_row_loses_its_length(st):
    # row 3 carries length 5; its entry there cancels
    st.pivots[5] = st.pivots[5].combine([(-1, FiniteRow([(5, 1)]))])


def pivot_row_is_scaled(st):
    st.pivots[6] = st.pivots[6].combine((), 3)   # row 4


def entry_in_other_pivot_column(st):
    bump(st, 9, 5)   # row 7; column 5 is the pivot column of row 3


def pivot_row_under_a_stale_length(st):
    st.pivots[3] = st.pivots.pop(5)


class TestCheckInvariants:
    """Each branch of check_invariants fails on a state corrupted where it
    looks, and only there."""

    def test_intact_state_passes(self):
        check_invariants(example2_state())

    def test_judges_the_stored_state_without_replaying_q(self, monkeypatch):
        def replay(self, unit, combine):
            raise AssertionError("check_invariants replayed the log")

        monkeypatch.setattr(EliminationState, "replay", replay)
        check_invariants(example2_state())

    @pytest.mark.parametrize("corrupt,message", [
        (zero_set_takes_a_pivot_row, "do not partition the consumed range"),
        (pivot_set_loses_a_row, "do not partition the consumed range"),
        (drop_last_pivot, "mu and j_set lengths differ"),
        (swap_first_pivots, "pivot lengths are not strictly increasing"),
        (pivot_row_under_a_stale_length, "not keyed by the pivot lengths"),
        (pivot_row_loses_its_length, "row 3 does not carry pivot length 5"),
        (pivot_row_is_scaled, "row 4 rightmost coefficient is 3, not 1"),
        (entry_in_other_pivot_column,
         "row 7 has a nonzero entry in pivot column 5 of row 3"),
    ], ids=lambda v: getattr(v, "__name__", None))
    def test_each_branch_fails(self, corrupt, message):
        st = example2_state()
        corrupt(st)
        with pytest.raises(EngineError, match=message):
            check_invariants(st)

    def test_equal_pivot_lengths_fail(self):
        # two rows indexed as pivots of length 1: the lengths are not
        # strictly increasing, and that check fires before any other
        st = EliminationState()
        st.push_row(row(0, 1))
        st.push_row(row(0, 0, 1))
        st.mu = [1, 1]
        with pytest.raises(EngineError, match="pivot lengths are not strictly increasing"):
            check_invariants(st)

    def test_zero_pivot_row_fails(self):
        st = example2_state()
        st.pivots[5] = ZERO_ROW
        with pytest.raises(EngineError, match="row 3 does not carry pivot length 5"):
            check_invariants(st)

    def test_first_pivot_column_error_is_reported(self):
        # the lowest row first, and in a row the lowest pivot column
        st = example2_state()
        bump(st, 9, 6)   # row 7
        bump(st, 9, 2)
        bump(st, 7, 4)   # row 5
        with pytest.raises(EngineError,
                           match="row 5 has a nonzero entry in pivot column 4 of row 2"):
            check_invariants(st)
        st.pivots[7] = example2_state().pivots[7]
        with pytest.raises(EngineError,
                           match="row 7 has a nonzero entry in pivot column 2 of row 0"):
            check_invariants(st)


class ScanAllState(EliminationState):
    """The engine as it was before the rank cut, the reference for it:
    cross clearing probes every nonzero row, and Gaussian clearing reads
    every entry as a Fraction, so it also logs every multiplier as one
    (the reference for :class:`TestIntegerMultipliers`)."""

    def reduce_with_transform(self, row):
        work, clear = row, []
        for col, c in row.items():
            if col in self.mu:
                work = work.combine([(-c, self.pivots[col])])
                clear.append((col, -c))
        inv = None
        if not work.is_zero and work.leading != 1:
            inv = 1 / work.leading
            work = work.combine((), inv)
        return work, PushLog(clear, inv)

    def jordan_clear(self, g, log):
        changed = []
        for length in self.mu:
            c = self.pivots[length].get(g.length)
            if c:
                self.pivots[length] = self.pivots[length].combine([(-c, g)])
                log.cross.append((length, -c))
                changed.append(length)
        return changed


def trace(st):
    return ([(log.clear, log.inv, log.cross, log.length, log.placed) for log in st._log],
            st.h_rows, st.stable_since())


class TestRankCut:
    @settings(max_examples=100, deadline=None)
    @given(shuffled_length_rows())
    @example([row(0, 0, 0, 1), row(1, 0, 0, 2), row(3, 1), row(0, 5, 0, 7, 1),
              row(1)])
    # the reference scales after clearing; the engine clears and scales at
    # once when the row's length is new: here, with a rightmost 2
    @example([row(0, 1), row(3, 5, 2)])
    # a row whose last column is a pivot: the survivor is shorter, scaled
    # by its own rightmost 3, not the row's 2
    @example([row(0, 1), row(3, 2)])
    # a row whose last column is a pivot and that clears to zero: no scale
    @example([row(0, 1), row(0, 2)])
    def test_same_log_and_rows_as_scanning_every_row(self, rows):
        fast, ref = EliminationState(), ScanAllState()
        for r in rows:
            push_checked(fast, r)
            ref.push_row(r)
        assert trace(fast) == trace(ref)

    def test_shorter_rows_are_not_visited(self, monkeypatch):
        st = EliminationState()
        for r in (row(0, 0, 0, 2, 0, 0, 0, 1), row(1), row(0, 0, 1),
                  row(0, 0, 0, 0, 1)):
            st.push_row(r)
        assert st.mu == [0, 2, 4, 7]
        read = []
        for name in ("get", "int_items", "combine"):
            method = getattr(FiniteRow, name)
            monkeypatch.setattr(FiniteRow, name, lambda self, *a, method=method: (
                read.append(self.length), method(self, *a))[1])
        g, log = st.reduce_with_transform(row(0, 0, 0, 1))
        read.clear()
        assert st.jordan_clear(g, log) == [7]
        # stored lengths 0, 2, 4, 7: only the row of length 7 holds column 3
        assert set(read) == {7}
        assert st.h_rows[3] == row(0, 0, 0, 0, 0, 0, 0, 1)


class TestColumnIndex:
    def test_cancellation_past_the_pivot_column(self):
        # the second push cancels column 1 as well as column 2 in the first
        # row, so the index must drop that row from column 1 too
        rows = [FiniteRow({1: 1, 2: 1, 5: 1}.items()), FiniteRow({1: 1, 2: 1}.items()),
                FiniteRow({1: 1}.items())]
        st = EliminationState()
        for r in rows:
            push_checked(st, r)
        assert st.h_rows == [FiniteRow([(1, 1)]), FiniteRow([(2, 1)]), FiniteRow([(5, 1)])]
        assert st._log[1].cross == [(5, -1)] and st._log[2].cross == [(2, -1)]

    @pytest.mark.parametrize("plant", ["stale", "missing"])
    def test_planted_error_fails(self, plant):
        st = EliminationState()
        for r in (row(0, 0, 1), row(0, 1)):
            st.push_row(r)
        check_invariants(st)
        if plant == "stale":
            st._holders[0].add(2)
        else:
            st._holders[2].discard(2)
        with pytest.raises(EngineError, match="column index does not match"):
            check_invariants(st)

    @pytest.mark.parametrize("spec", [
        {"family": "example2"},
        {"family": "n_order", "N": 3, "a": "n*j - j^2/(n+1) + 1"},
    ], ids=["example2", "regular"])
    def test_kept_on_sources_that_never_cross_clear(self, spec):
        # Gauss-Jordan example2 and a certified lower-echelon source: the
        # index is kept from the first push, and every push checks it
        source = build_family(spec)
        st = EliminationState(certified=source.regular_order_index is not None)
        for r in source_rows(source, 40):
            push_checked(st, r)
        assert st._holders and not any(log.cross for log in st._log)


def axpy(x, m, y):
    """``x + m * y`` on Fraction entries: one link of the reference chain."""
    acc = dict(x.items())
    for col, v in y.items():
        acc[col] = acc.get(col, 0) + m * v
    return FiniteRow(acc.items())


def scale(x, c):
    return FiniteRow((col, c * v) for col, v in x.items())


def chained_q_rows(st):
    """The log replayed onto the identity rows one pairwise row operation at
    a time, as the engine did before it combined each push's rows in one
    pass, every row kept to the end: a nonzero row under its pivot length,
    a zero row under its position."""
    nonzero, zero = {}, {}
    for k, log in enumerate(st._log):
        value = FiniteRow([(k, 1)])
        for length, m in log.clear:
            value = axpy(value, m, nonzero[length])
        if log.inv is not None:
            value = scale(value, log.inv)
        for length, m in log.cross:
            nonzero[length] = axpy(nonzero[length], m, value)
        if log.length < 0:
            zero[k] = value
        else:
            nonzero[log.length] = value
    length_at = dict(zip(st.j_set, st.mu))
    return [nonzero[length_at[n]] if n in length_at else zero[n] for n in range(st.k)]


def shuffled_explicit_rows(seed, width):
    """Rows whose lengths are a seeded permutation of 0..width-1, with a few
    entries left of the leading one and every seventh row followed by a
    multiple of a combination of earlier rows."""
    rng = random.Random(seed)
    lengths = list(range(width))
    rng.shuffle(lengths)
    rows = []
    for n, length in enumerate(lengths):
        entries = {length: Fraction(rng.randint(1, 9), rng.randint(1, 4))}
        for _ in range(3):
            entries.setdefault(rng.randint(max(length - 4, 0), length),
                               Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        rows.append(FiniteRow(entries.items()))
        if n % 7 == 6:
            rows.append(rows[-1].combine([(Fraction(-2, 3), rows[-3])], 5))
    return rows


class TestPositionalViews:
    """The rows are stored by pivot length and never moved; the positional
    views must equal those of the engine that stored rows by position."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 40))
    def test_views_match_the_positional_reference_after_every_push(self, seed, width):
        state, ref = EliminationState(), PositionalReference()
        for r in shuffled_explicit_rows(seed, width):
            state.push_row(r)
            ref.push_row(r)
            assert state.h_rows == ref.h_rows
            assert (state.j_set, state.w_set, state.mu) == (ref.j_set, ref.w_set, ref.mu)
            assert state.stable_since() == ref.stable_since()

    def test_mutating_h_rows_leaves_the_state_unchanged(self):
        st = run(ex3(), 12)
        before = st.h_rows
        view = st.h_rows
        view[3] = ZERO_ROW
        view[6] = row(1)
        view.append(row(0, 1))
        del view[0]
        assert st.h_rows == before and st.k == 12
        check_state(st)

    @settings(max_examples=50, deadline=None)
    @given(shuffled_length_rows())
    def test_jordan_clear_returns_one_length_per_row_changed(self, rows):
        st = EliminationState()
        real = st.jordan_clear

        def recording(g, log):
            before = dict(st.pivots)
            changed = real(g, log)
            assert changed == [length for length, _ in log.cross]
            assert changed == [length for length in sorted(before)
                               if st.pivots[length] != before[length]]
            return changed

        st.jordan_clear = recording
        for r in rows:
            st.push_row(r)


class Tracked:
    """A replayed value that counts how many of its kind are alive."""
    live = 0

    def __init__(self, row):
        self.row = row
        Tracked.live += 1

    def __del__(self):
        Tracked.live -= 1


def tracked_replay(st):
    """The rows ``st.replay`` yields, and the most replayed values alive at
    a yield, the yielded one included."""
    def combine(x, terms, c):
        return Tracked(x.row.combine([(m, y.row) for m, y in terms], c))

    rows, most = [], 0
    for value in st.replay(lambda k: Tracked(FiniteRow([(k, 1)])), combine):
        most = max(most, Tracked.live)
        rows.append(value.row)
    return rows, most


class TestTransformReplay:
    @pytest.mark.parametrize("horizon", [60, 200])
    def test_replay_keeps_two_rows_live_on_example2(self, horizon):
        # every push of example2 appends and is final at once, and only the
        # last two rows are read by a later push's clearing
        st = run(build_family({"family": "example2"}), horizon)
        rows, most = tracked_replay(st)
        assert rows == chained_q_rows(st)
        assert most == 2 and Tracked.live == 0

    @settings(max_examples=50, deadline=None)
    @given(shuffled_length_rows(), st.integers(0, 30))
    def test_q_rows_read_again_after_more_pushes(self, rows, cut):
        state = EliminationState()
        for r in rows[:cut]:
            state.push_row(r)
        assert state.q_rows == chained_q_rows(state)
        for r in rows[cut:]:
            state.push_row(r)
        assert state.q_rows == chained_q_rows(state)

    @pytest.mark.parametrize("family, horizon", [("example2", 60), ("example3", 48)])
    def test_q_rows_match_the_chained_replay_on_builtins(self, family, horizon):
        st = run(build_family({"family": family}), horizon)
        assert st.q_rows == chained_q_rows(st)

    def test_q_rows_match_the_chained_replay_on_a_shuffled_matrix(self):
        st = EliminationState()
        for r in shuffled_explicit_rows(seed=11, width=40):
            st.push_row(r)
        assert any(log.cross for log in st._log) and st.w_set
        assert st.q_rows == chained_q_rows(st)

    @settings(max_examples=50, deadline=None)
    @given(shuffled_length_rows())
    def test_q_rows_match_the_chained_replay_on_random_rows(self, rows):
        st = EliminationState()
        for r in rows:
            st.push_row(r)
        assert st.q_rows == chained_q_rows(st)


class TestTransformLengths:
    """The replay's schedule and the solver's forcing count read the
    transform-row lengths off ``stable_since``; the chained replay is the
    reference for those lengths."""

    def test_stable_since_is_the_longest_transform_row_so_far(self):
        seen = {"shift": False, "cross": False, "zero": False}

        @settings(max_examples=120, deadline=None)
        @given(st.integers(0, 2 ** 32), st.sampled_from(["explicit", "n_order", "ascending"]))
        def check(seed, shape):
            rng = random.Random(seed)
            if shape == "explicit":
                rows = random_explicit_rows(rng, max_rows=14, max_len=9)
            else:
                horizon = rng.randint(1, 10)
                src = random_regular_source(rng, order=rng.randint(1, 3),
                                            horizon=horizon, shape=shape)
                rows = source_rows(src, horizon)
            state = EliminationState(certified=shape != "explicit")
            for r in rows:
                state.push_row(r)
                lengths = [q.length for q in chained_q_rows(state)]
                assert state.stable_since() == list(accumulate(lengths, max))
                assert [lengths[w] for w in state.w_set] == state.w_set
            seen["shift"] |= any(log.placed < k for k, log in enumerate(state._log))
            seen["cross"] |= any(log.cross for log in state._log)
            seen["zero"] |= bool(state.w_set)

        check()
        assert all(seen.values())


def solutions(st, rows, seed):
    """``general_solution`` with random free constants at the inaccessible
    columns, for no forcing, for a forcing consistent by construction
    (``A . y`` for a random y) and for a random forcing: the values, or the
    zero rows violated."""
    rng = random.Random(seed)
    width = st.greatest_length + 1

    def small():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    pivot = set(st.mu)
    free = {s: small() for s in range(width) if s not in pivot}
    probe = [small() for _ in range(width)]
    out = []
    for g in (None, [r.dot_prefix(probe) for r in rows], [small() for _ in rows]):
        try:
            out.append(solver.general_solution(st, g, free, width))
        except solver.InconsistentSystemError as exc:
            out.append(exc.violated)
    return out


class TestIntegerMultipliers:
    """Integral clearing multipliers are logged as ``int``; the log, H, Q
    and the solutions equal those of the all-``Fraction`` reference."""

    def check(self, rows):
        fast, ref = EliminationState(), ScanAllState()
        for r in rows:
            fast.push_row(r)
            ref.push_row(r)
        multipliers = [m for log in fast._log for _, m in log.clear]
        for m in multipliers:
            assert type(m) is (int if Fraction(m).denominator == 1 else Fraction)
        assert trace(fast) == trace(ref)
        assert fast.q_rows == ref.q_rows
        assert solutions(fast, rows, 5) == solutions(ref, rows, 5)
        return multipliers

    @pytest.mark.parametrize("family, horizon", [("example2", 40), ("example3", 40)])
    def test_builtins(self, family, horizon):
        src = build_family({"family": family})
        multipliers = self.check(source_rows(src, horizon))
        assert any(type(m) is int for m in multipliers)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_shuffled_matrices(self, seed):
        multipliers = self.check(shuffled_explicit_rows(seed=seed, width=30))
        assert {type(m) for m in multipliers} == {int, Fraction}

    @settings(max_examples=50, deadline=None)
    @given(shuffled_length_rows())
    def test_random_rows(self, rows):
        self.check(rows)


class TestPrefixHistory:
    def snapshot_run(self, rows):
        st = EliminationState()
        history = []  # per step: list of prefix rows tuples
        for r in rows:
            st.push_row(r)
            history.append([tuple(st.h_rows[: n + 1]) for n in range(st.k)])
        return st, history

    def test_prefix_greatest_length_monotone(self):
        src = ex3()
        st, history = self.snapshot_run([src.row_at(n) for n in range(12)])
        for n in range(st.k):
            glens = [max(r.length for r in step[n]) if n < len(step) else None
                     for step in history]
            seen = [g for g in glens if g is not None]
            assert all(b <= a for a, b in zip(seen, seen[1:]))

    def assert_markers_match(self, st, history):
        for n in range(st.k):
            changed_at = [n]  # creation
            for k in range(n + 1, st.k):
                if history[k][n] != history[k - 1][n]:
                    changed_at.append(k)
            assert st.stable_since()[n] == max(changed_at)

    def test_change_markers_match_snapshots(self):
        src = ex3()
        st, history = self.snapshot_run([src.row_at(n) for n in range(12)])
        self.assert_markers_match(st, history)

    def test_change_markers_match_snapshots_where_rows_shift(self):
        # rows in random length order: pushes cross-clear and shift rows
        shifted, crossed = [], []

        @settings(max_examples=100, deadline=None)
        @given(shuffled_length_rows())
        @example([row(0, 0, 0, 1), row(1, 0, 0, 2), row(3, 1),
                  row(0, 5, 0, 7, 1), row(1)])
        def check(rows):
            st, history = self.snapshot_run(rows)
            self.assert_markers_match(st, history)
            shifted.append(any(log.placed < k for k, log in enumerate(st._log)))
            crossed.append(any(log.cross for log in st._log))

        check()
        assert any(shifted) and any(crossed)

    def test_stable_greatest_length_means_stable_prefix(self):
        # once the prefix greatest length stops dropping, the prefix is frozen
        src = ex3()
        st, history = self.snapshot_run([src.row_at(n) for n in range(12)])
        for n in range(st.k):
            for start in range(n, st.k):
                glens = {max(r.length for r in history[k][n])
                         for k in range(start, st.k)}
                if len(glens) == 1:
                    assert len({history[k][n] for k in range(start, st.k)}) == 1
