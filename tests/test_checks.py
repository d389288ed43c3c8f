"""Each check of ``verify`` passes on an intact run and fails on a run
corrupted where that check looks."""

import pytest

from rowfinite import (EliminationState, EquationSpec, FiniteRow, SpecError,
                       build_family, run)
from rowfinite.checks import expected_pair_check, run_checks
from conftest import corrupt_transform_row, source_rows


def checked(eq, state, seed=0):
    return dict(run_checks(eq, state, seed))


def bump(state, pos, col):
    """Add 1 to the reduced row at ``pos`` in column ``col``."""
    state.h_rows[pos] = state.h_rows[pos].combine([(1, FiniteRow([(col, 1)]))])


@pytest.fixture
def showcase():
    eq = EquationSpec(build_family({"family": "example2"}))
    return eq, run(eq.source, 8)


@pytest.fixture
def regular():
    eq = EquationSpec(build_family({"family": "second_order",
                                    "a": "n + 1", "b": "2"}))
    return eq, run(eq.source, 6)


def test_intact_runs_pass(showcase, regular):
    assert checked(*showcase) == {"left-association": True,
                                  "qhf-postulates": True, "residual": True}
    assert checked(*regular) == {"left-association": True,
                                 "qhf-postulates": True, "residual": True,
                                 "hessenberg-cross-check": True}


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_corrupted_reduced_entry_fails_residual(showcase, seed):
    # column 3 is inaccessible: the pivot row of column 4 now weighs the
    # free constant there wrongly, and source rows 2 and 3 reach column 4
    eq, state = showcase
    bump(state, 2, 3)
    assert checked(eq, state, seed) == {"left-association": False,
                                        "qhf-postulates": True,
                                        "residual": False}


def test_corrupted_transform_entry_fails_left_association(showcase):
    # the solvers replay the log, not Q, so only Q . A == H can see this
    eq, state = showcase
    corrupt_transform_row(state, 5, lambda q: q.combine((), 2))
    assert checked(eq, state) == {"left-association": False,
                                  "qhf-postulates": True, "residual": True}


def test_uncertified_state_over_a_regular_source_runs_the_cross_check(regular):
    # the source, not the state's certification, decides that the closed
    # form applies; rows of a regular order never need a cross-clear
    eq, _ = regular
    state = EliminationState()
    for row in source_rows(eq.source, 6):
        state.push_row(row)
    assert not state.certified
    assert checked(eq, state) == {"left-association": True,
                                  "qhf-postulates": True, "residual": True,
                                  "hessenberg-cross-check": True}


def test_corrupted_reduced_entry_fails_hessenberg_cross_check(regular):
    eq, state = regular
    bump(state, 3, 0)   # column 0 holds the first initial value
    results = checked(eq, state)
    assert results["hessenberg-cross-check"] is False
    assert results["qhf-postulates"] is True


def test_expectation_is_read_against_the_consumed_rows_only(showcase):
    eq, state = showcase
    rows = source_rows(eq.source, state.k)
    within = EquationSpec(eq.source, expect_h=tuple(state.h_rows),
                          expect_q=tuple(state.transform_rows()))
    assert expected_pair_check(within, rows) is True
    far = EquationSpec(eq.source, expect_h=(FiniteRow([]),),
                       expect_q=(FiniteRow([(8, 1)]),))
    with pytest.raises(SpecError, match="reads source row 8, past the 8 rows"):
        expected_pair_check(far, rows)


def test_corrupted_pivot_row_fails_qhf_postulates(showcase):
    # H and Q scaled alike, so Q . A == H still holds
    eq, state = showcase
    state.h_rows[7] = state.h_rows[7].combine((), 2)
    corrupt_transform_row(state, 7, lambda q: q.combine((), 2))
    results = checked(eq, state)
    assert results["left-association"] is True
    assert results["qhf-postulates"] is False


def test_expectation_is_reported_on_its_own_line(showcase):
    eq, state = showcase
    intact = EquationSpec(eq.source, expect_h=tuple(state.h_rows),
                          expect_q=tuple(state.transform_rows()))
    assert run_checks(intact, state, 0)[:2] == [("left-association", True),
                                                ("expected-pair", True)]
    wrong = EquationSpec(eq.source, expect_h=tuple(state.h_rows),
                         expect_q=tuple(q.combine((), 2)
                                        for q in state.transform_rows()))
    assert checked(wrong, state) == {"left-association": True,
                                     "expected-pair": False,
                                     "qhf-postulates": True, "residual": True}
