from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from rowfinite import (EliminationState, EngineError, FiniteRow, GAUSS_JORDAN,
                       GAUSS_ONLY, ZERO_ROW, build_family, check_invariants,
                       run)
from rowfinite.checks import left_association
from conftest import (dense_rank, push_checked, random_explicit_rows,
                      random_regular_source, source_rows)


def null_basis(st):
    """Transform rows at the zero-row positions: each annihilates every
    consumed row."""
    return [st.q_rows[w] for w in st.w_set]


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
            for _ in range(4):
                work = probe
                while not work.is_zero:
                    usable = [(length, pos)
                              for length, pos in zip(st.mu, st.j_set)
                              if length <= work.length and work.get(length) != 0]
                    if not usable:
                        break
                    length, pos = rng.choice(usable)
                    work = work.axpy(-work.get(length), st.h_rows[pos])
                if not work.is_zero:
                    work = work.scale(1 / work.leading)
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
        assert changed == [0, 1]
        assert [pos for pos, _ in log.cross] == [0, 1]
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
            for w in st.w_set:
                frozen.setdefault(w, st.q_rows[w])
        assert st.w_set == [6, 10]
        for w, q_row in frozen.items():
            assert st.h_rows[w].is_zero
            assert st.q_rows[w] == q_row

    def test_first_row_zero(self):
        st = EliminationState()
        st.push_row(ZERO_ROW)
        assert st.w_set == [0]
        assert st.q_rows[0] == row(1)
        check_invariants(st)

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
        assert left_association(st, rows)


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
        assert st.last_change[:3] == [2, 2, 2]

    def test_dependent_row_becomes_zero(self):
        src = build_family({"family": "example2"})
        st = run(src, 2)
        assert st.w_set == [1]
        assert st.q_rows[1] == row(-2, 1)

    def test_gauss_only_never_permutes(self):
        src = build_family({"family": "first_order", "a": "n + 2"})
        st = run(src, 6)
        assert st.mode == GAUSS_ONLY
        assert st.j_set == list(range(6))
        assert st.last_change == list(range(6))

    def test_gauss_only_rejects_length_drop(self):
        st = EliminationState(mode=GAUSS_ONLY)
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
            general = EliminationState(mode=GAUSS_JORDAN)
            for n in range(12):
                general.push_row(src.row_at(n))
            assert certified.h_rows == general.h_rows
            assert certified.q_rows == general.q_rows


class TestRunAndPrefixes:
    def test_run_matches_incremental(self):
        src = ex3()
        st = run(src, 12)
        assert st.k == 12
        assert st.mode == GAUSS_JORDAN
        check_invariants(st)

    def test_constant_first_order_column_of_products(self):
        st = run(build_family({"family": "first_order", "a": "2"}), 4)
        assert [r.get(0) for r in st.h_rows] == [-2, -4, -8, -16]
        assert [r.length for r in st.h_rows] == [1, 2, 3, 4]

    def test_run_needs_positive_horizon(self):
        with pytest.raises(ValueError):
            run(ex3(), 0)

    def test_prefix_stabilization_markers(self):
        st = run(ex3(), 12)
        assert st.last_change[:3] == [2, 2, 2]
        assert not st.certified
        assert st.h_rows[:3] == [row(2, 1), row(-1, 0, 1), FiniteRow([(3, 1)])]

    def test_prefix_before_stabilization(self):
        st = run(ex3(), 2)
        assert st.h_rows[0] == FiniteRow([(1, Fraction(1, 2)), (2, 1)])
        assert st.last_change[0] == 0

    def test_certified_prefix_for_lower_echelon(self):
        src = build_family({"family": "second_order", "a": "1", "b": "n"})
        st = run(src, 5)
        assert st.certified
        assert st.last_change[:4] == [0, 1, 2, 3]


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
        assert left_association(st, source_rows(src, 12))
        assert not left_association(st, source_rows(src, 11))  # Q reads row 11
        # spot check: q_rows[0] combines rows 0,1,2 into the reduced row 0
        acc = src.row_at(0).axpy(1, src.row_at(1)).axpy(-1, src.row_at(2))
        assert acc == st.h_rows[0] == row(2, 1)

    def test_empty_state_vacuously_true(self):
        assert left_association(EliminationState(), [])

    def test_detects_corrupted_reduced_row(self):
        src = ex3()
        st = run(src, 12)
        st.h_rows[3] = st.h_rows[3].axpy(1, row(1))
        assert not left_association(st, source_rows(src, 12))

    def test_detects_corrupted_transform_row(self):
        src = ex3()
        st = run(src, 12)
        st.q_rows[5] = st.q_rows[5].scale(2)
        assert not left_association(st, source_rows(src, 12))


class TestRegularOrderTransform:
    def test_transform_is_unit_lower_triangular_after_scaling(self, rng):
        src = random_regular_source(rng, order=3, horizon=10, shape="n_order")
        st = run(src, 10)
        for n in range(10):
            q = st.q_rows[n]
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
                        residual = residual.axpy(-c, st.h_rows[pos])
                assert residual.is_zero

    def test_null_basis_annihilates_every_consumed_row(self, rng):
        rows = random_explicit_rows(rng, max_rows=20, max_len=10)
        src = build_family({"family": "explicit", "rows": rows})
        st = run(src, len(rows))
        for basis_row in null_basis(st):
            acc = ZERO_ROW
            for m, c in basis_row.items():
                acc = acc.axpy(c, rows[m])
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
            check_invariants(st)
        assert left_association(st, rows)
        width = max((r.length + 1 for r in rows), default=1)
        assert len(st.j_set) == dense_rank(rows, width)


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

    def test_change_markers_match_snapshots(self):
        src = ex3()
        st, history = self.snapshot_run([src.row_at(n) for n in range(12)])
        for n in range(st.k):
            changed_at = [n]  # creation
            for k in range(n + 1, st.k):
                if history[k][n] != history[k - 1][n]:
                    changed_at.append(k)
            assert st.last_change[n] == max(changed_at)

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
