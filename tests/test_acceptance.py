"""Acceptance suite.

Each test covers one numbered criterion at its stated tolerance (exact
equality throughout) and prints one ``ACCEPTANCE n <name>: PASS/FAIL`` line;
run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from rowfinite import (EliminationState, FiniteRow, InconsistentSystemError,
                       build_family, fundamental_set,
                       general_prefix, general_solution, inaccessible_lengths,
                       run)
from rowfinite.checks import transforms_reproduce
from conftest import (LowerHessenberg, check_state, dense, frechet_distance,
                      hess_det, naive_det, random_explicit_rows,
                      random_regular_source, random_scalar, source_rows)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, \
        f"criterion {number} took {elapsed:.2f}s, budget {budget}s"
    print(f"\nACCEPTANCE {number} {name}: PASS ({elapsed:.2f}s)")


def dense_str(row, width):
    return [str(v) for v in dense(row, width)]


EX2_QHF = [
    ["0", "-2", "1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "24", "0", "-8", "1", "0", "0", "0", "0", "0"],
    ["0", "192", "0", "-52", "0", "1", "0", "0", "0", "0"],
    ["0", "1344", "0", "-344", "0", "0", "1", "0", "0", "0"],
    ["0", "9888", "0", "-2488", "0", "0", "0", "1", "0", "0"],
    ["0", "80256", "0", "-20096", "0", "0", "0", "0", "1", "0"],
    ["0", "724992", "0", "-181312", "0", "0", "0", "0", "0", "1"],
]

EX3_QHF = [
    ["2", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["-1", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "2", "1", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "-1", "0", "1", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "2", "1", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "1", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "0", "2", "1"],
]

EX3_Q = [
    ["1", "1", "-1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "-1/2", "1/2", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["-1", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "-1", "0", "1", "0", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "1/2", "-1/2", "-1/2", "1/2", "0", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "-1", "0", "1", "0", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "1", "-1", "-1", "1", "0", "0", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "-1", "0", "1", "0", "0", "0", "0"],
    ["0", "0", "0", "1/2", "-1/2", "0", "0", "-1/2", "1/2", "0", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "-1", "0", "1", "0", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "1", "-1", "-1", "1", "0"],
    ["0", "0", "0", "0", "0", "0", "0", "0", "0", "-1", "0", "1"],
]


def test_criterion_1_showcase_equation_reduction():
    with criterion(1, "showcase-equation reduced prefix", budget=1.0):
        src = build_family({"family": "example2"})
        state = run(src, 8)
        assert [dense_str(r, 10) for r in state.h_rows] == EX2_QHF
        assert state.w_set == [1]
        assert state.h_rows[1].is_zero


def test_criterion_2_cosine_equation_reduction():
    with criterion(2, "cosine-equation reduced and transform prefixes", budget=1.0):
        src = build_family({"family": "example3"})
        state = run(src, 12)
        assert [dense_str(r, 14) for r in state.h_rows] == EX3_QHF
        q_rows = state.q_rows
        assert [dense_str(r, 12) for r in q_rows] == EX3_Q
        assert state.stable_since()[:3] == [2, 2, 2]
        assert state.stable_since()[3:] == list(range(3, 12))
        assert state.w_set == [6, 10]
        assert [q_rows[w] for w in state.w_set] == [
            FiniteRow([(3, 1), (4, -1), (5, -1), (6, 1)]),
            FiniteRow([(7, 1), (8, -1), (9, -1), (10, 1)]),
        ]
        fund = fundamental_set(state, 13, 14)
        for s, seq in fund.items():
            expected = [Fraction(0)] * 14
            for offset, value in ((0, 1), (1, -2), (2, 1)):
                if s + offset < 14:
                    expected[s + offset] = Fraction(value)
            assert list(seq) == expected


def test_criterion_3_left_association_and_postulates():
    with criterion(3, "left association and reduced-form postulates", budget=10.0):
        builtins = [
            (build_family({"family": "example2"}), 10),
            (build_family({"family": "example3"}), 14),
            (build_family({"family": "first_order", "a": "n + 1"}), 10),
            (build_family({"family": "second_order", "a": "n", "b": "n + 2"}), 10),
            (build_family({"family": "n_order", "N": 3, "a": "j - n + 1"}), 10),
            (build_family({"family": "ascending", "N": 2, "a": "j + 1"}), 10),
        ]
        for src, horizon in builtins:
            state = EliminationState(
                certified=src.regular_order_index is not None)
            for n in range(horizon):
                state.push_row(src.row_at(n))
                check_state(state)
            assert transforms_reproduce(source_rows(src, horizon), state.transform_rows(),
                                        state.h_rows)

        rng = random.Random(93)
        for _ in range(50):
            rows = random_explicit_rows(rng, max_rows=30)
            state = EliminationState()
            for r in rows:
                state.push_row(r)
                check_state(state)
            assert transforms_reproduce(rows, state.transform_rows(), state.h_rows)


def test_criterion_4_closed_form_oracle_equivalence():
    with criterion(4, "determinant closed forms vs elimination", budget=30.0):
        rng = random.Random(1117)
        for trial in range(100):
            order = rng.choice([1, 2, 3, 4])
            shape = "n_order" if trial % 2 else "ascending"
            horizon = 30
            src = random_regular_source(rng, order, horizon, shape)
            state = run(src, horizon)
            g = [random_scalar(rng) for _ in range(horizon)]
            init = [random_scalar(rng) for _ in range(order)]

            # fundamental: zero forcing, unit initial values
            fund = fundamental_set(state, order, order + horizon)
            for i in range(order):
                unit = [Fraction(int(c == i)) for c in range(order)]
                xi = general_prefix(src, None, unit, horizon)
                assert xi == list(fund[i][order:])

            # particular: zero initial values
            part = general_solution(state, g, {}, order + horizon)
            zeros = [Fraction(0)] * order
            assert general_prefix(src, g, zeros, horizon) == part[order:]

            sol = general_solution(state, g, dict(enumerate(init)), order + horizon)
            assert general_prefix(src, g, init, horizon) == sol[order:]
            for n in range(horizon):
                assert src.row_at(n).dot_prefix(sol) == g[n]

        for order_size in range(1, 7):
            for _ in range(10):
                first = tuple(random_scalar(rng) for _ in range(order_size))
                band = tuple(tuple(random_scalar(rng) for _ in range(r))
                             for r in range(order_size))
                matrix = LowerHessenberg(first, band)
                assert hess_det(matrix) == naive_det(matrix.to_dense())


def test_criterion_5_residuals_and_inconsistency():
    with criterion(5, "exact residuals and inconsistency detection"):
        rng = random.Random(405)
        cases = [
            (build_family({"family": "example2"}), 8),
            (build_family({"family": "example3"}), 12),
            (build_family({"family": "first_order", "a": "3"}), 8),
        ]
        for _ in range(10):
            rows = random_explicit_rows(rng, max_rows=20, max_len=11)
            cases.append((build_family({"family": "explicit", "rows": rows}),
                          len(rows)))
        for src, horizon in cases:
            state = run(src, horizon)
            width = state.greatest_length + 1
            if width == 0:
                continue
            probe = [random_scalar(rng) for _ in range(width)]
            g = [src.row_at(n).dot_prefix(probe) for n in range(horizon)]
            gaps = inaccessible_lengths(state, width)
            free = {s: random_scalar(rng) for s in gaps}
            solution = general_solution(state, g, free, width)
            for n in range(horizon):
                assert src.row_at(n).dot_prefix(solution) == g[n]

        state = run(build_family({"family": "example3"}), 12)
        bump = [Fraction(0)] * 12
        bump[6] = Fraction(1)
        with pytest.raises(InconsistentSystemError) as info:
            general_solution(state, bump, {}, 14)
        assert info.value.violated == [6]


def test_criterion_6_deficiency_accounting():
    with criterion(6, "deficiency accounting"):
        fixtures = [
            run(build_family({"family": "example2"}), 8),
            run(build_family({"family": "example3"}), 12),
            run(build_family({"family": "first_order", "a": "2"}), 8),
            run(build_family({"family": "ascending", "N": 3, "a": "j + 1"}), 8),
        ]
        for state in fixtures:
            for horizon in range(state.greatest_length + 2):
                count = len(inaccessible_lengths(state, horizon))
                accessible_below = sum(1 for m in state.mu if m < horizon)
                assert count + accessible_below == horizon

        state = fixtures[0]
        assert (len(inaccessible_lengths(state, 8)), state.certified) == (3, False)

        for order in (1, 2, 3, 4):
            state = run(build_family({"family": "n_order", "N": order, "a": "j - n + 1"}), 8)
            assert (len(inaccessible_lengths(state, order)), state.certified) == (order, True)


def test_criterion_7_schauder_convergence_bound():
    with criterion(7, "partial-sum convergence bound"):
        rng = random.Random(77)
        state = run(build_family({"family": "example3"}), 20)
        width = state.greatest_length + 1
        gaps = inaccessible_lengths(state, width)
        assert gaps[:5] == (0, 4, 8, 12, 16)
        free = {s: random_scalar(rng) + 1 for s in gaps}  # keep them nonzero
        assembled = general_solution(state, None, free, width)
        fund = fundamental_set(state, width, width)
        for n in range(5):
            partial = [Fraction(0)] * width
            for s in gaps[: n + 1]:
                partial = [p + free[s] * v
                           for p, v in zip(partial, fund[s])]
            value, _ = frechet_distance(partial, assembled, width)
            assert value < Fraction(1, 2 ** (4 * n))


def test_criterion_8_closed_form_degenerations():
    with criterion(8, "closed-form degenerations"):
        src = build_family({"family": "first_order", "a": "2"})
        state = run(src, 8)
        zeros = [Fraction(0)] * 8
        for c0 in (Fraction(1), Fraction(-3, 2)):
            terms = general_solution(state, zeros, {0: c0}, 9)[1:]
            assert terms == [2 ** (n + 1) * c0 for n in range(8)]
        assert general_prefix(src, None, [Fraction(1)], 8) == [2 ** (n + 1) for n in range(8)]

        ones = [Fraction(1)] * 8
        expected = [1, 3, 7, 15, 31]
        elimination_path = general_solution(state, ones, {0: 0}, 6)[1:]
        assert elimination_path == expected
        assert general_prefix(src, ones, [Fraction(0)], 5) == expected
