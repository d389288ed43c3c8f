"""Each check of ``verify`` passes on an intact run and fails on a run
corrupted where that check looks."""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rowfinite import checks, cli, solver
from rowfinite import hessenberg as hb
from rowfinite import (EliminationState, EquationSpec, EvalError, FiniteRow,
                       RowSource, SpecError, build_family, run)
from rowfinite.checks import (closed_form_matches, expected_pair_check, run_checks,
                              transforms_reproduce)
from conftest import corrupt_transform_row, dense, dense_product_matches, source_rows


def checked(eq, state, seed=0):
    return dict(run_checks(eq, state, seed))


def bump(state, length, col):
    """Add 1 to the reduced row of pivot length ``length`` in column ``col``."""
    state.pivots[length] = state.pivots[length].combine([(1, FiniteRow([(col, 1)]))])


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
    bump(state, 4, 3)
    assert checked(eq, state, seed) == {"left-association": False,
                                        "qhf-postulates": True,
                                        "residual": False}


def test_all_zero_spec_passes_residual(tmp_path, capsys):
    spec = tmp_path / "zero.json"
    spec.write_text('{"rows": [[], []]}', encoding="utf-8")
    assert cli.main(["verify", "--spec", str(spec), "--horizon", "2"]) == 0
    assert capsys.readouterr().out == ("seed 0\nPASS left-association\n"
                                       "PASS qhf-postulates\nPASS residual\n")


def test_changed_clearing_multiplier_at_a_zero_row_fails_residual(showcase):
    # the forcing replayed to zero row 1 is no longer zero, so a forcing
    # consistent by construction is reported inconsistent
    eq, state = showcase
    (length, m), = state._log[1].clear
    state._log[1].clear[0] = (length, m + 1)
    g = [row.dot_prefix([1] * 10) for row in source_rows(eq.source, state.k)]
    with pytest.raises(solver.InconsistentSystemError):
        solver.general_solution(state, g, {}, 10)
    assert checked(eq, state) == {"left-association": False,
                                  "qhf-postulates": True, "residual": False}


def test_corrupted_transform_entry_fails_left_association(showcase):
    # the solvers replay the log, not Q, so only Q . A == H can see this
    eq, state = showcase
    corrupt_transform_row(state, 5, lambda q: q.combine((), 2))
    assert checked(eq, state) == {"left-association": False,
                                  "qhf-postulates": True, "residual": True}


def test_zero_transform_row_at_a_zero_row_fails_only_qhf_postulates(showcase):
    # H[w] is zero, so a zero Q[w] still gives Q[w] . A == H[w]
    eq, state = showcase
    corrupt_transform_row(state, state.w_set[0], lambda q: FiniteRow())
    assert checked(eq, state) == {"left-association": True,
                                  "qhf-postulates": False, "residual": True}


@pytest.mark.parametrize("corrupt", [
    lambda q, k: FiniteRow(),
    lambda q, k: q.combine([(1, FiniteRow([(k, 1)]))]),
], ids=["transform_row_is_zero", "transform_row_reaches_past_k"])
def test_transform_row_rule_fails_qhf_postulates(showcase, corrupt):
    # a transform row is nonzero and reads only the k consumed rows; this
    # Q[2] no longer gives the nonzero H[2] either
    eq, state = showcase
    corrupt_transform_row(state, 2, lambda q: corrupt(q, state.k))
    assert checked(eq, state) == {"left-association": False,
                                  "qhf-postulates": False, "residual": True}


def test_both_transform_verdicts_are_read_past_the_first_failure(showcase):
    # left-association fails at Q[0] and the postulates only at a later
    # zero Q[w]: the one replay runs on until both are known
    eq, state = showcase
    w = state.w_set[0]
    assert w > 0 and not state.h_rows[0].is_zero
    corrupt_transform_row(state, 0, lambda q: q.combine((), 2))
    corrupt_transform_row(state, w, lambda q: FiniteRow())
    assert checked(eq, state) == {"left-association": False,
                                  "qhf-postulates": False, "residual": True}


def test_run_checks_replays_q_once(showcase, regular, monkeypatch):
    replays = []
    replay = EliminationState.transform_rows

    def counted(state):
        replays.append(state.k)
        return replay(state)

    monkeypatch.setattr(EliminationState, "transform_rows", counted)
    for eq, state in (showcase, regular):
        replays.clear()
        assert all(passed for _, passed in run_checks(eq, state, 0))
        assert replays == [state.k]


def test_product_check_does_not_run_the_kernel_it_checks(showcase, monkeypatch):
    # a fault in the multi-term path of FiniteRow.combine, which the replay
    # of Q runs, is not repeated by the product it is checked against
    eq, state = showcase
    real = FiniteRow.combine

    def faulty(self, terms, c=None):
        terms = list(terms)
        out = real(self, terms, c)
        if not terms or (c is None and len(terms) == 1) or out.is_zero:
            return out
        (col, value), *rest = out.items()
        return FiniteRow([(col, value + 1), *rest])

    monkeypatch.setattr(FiniteRow, "combine", faulty)
    assert checked(eq, state)["left-association"] is False


def test_product_check_runs_no_row_arithmetic(showcase, monkeypatch):
    eq, state = showcase
    rows, q_rows = source_rows(eq.source, state.k), list(state.transform_rows())

    def unused(self, terms, c=None):
        raise AssertionError("the product check ran FiniteRow.combine")

    monkeypatch.setattr(FiniteRow, "combine", unused)
    assert transforms_reproduce(rows, q_rows, state.h_rows)


def test_checks_module_never_names_the_kernel():
    assert "combine" not in Path(checks.__file__).read_text(encoding="utf-8")


_WIDTH = 8
_ENTRY = st.fractions(-5, 5, max_denominator=4)


@st.composite
def dependent_rows(draw):
    """Rows of at most _WIDTH columns with non-integral entries, in any
    length order, about half of them a combination of two earlier rows (so
    zero rows and left null vectors occur); built on dense ``Fraction``
    lists, not by row arithmetic."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if len(rows) >= 2 and draw(st.booleans()):
            a, b = (dense(draw(st.sampled_from(rows)), _WIDTH) for _ in range(2))
            x, y = draw(_ENTRY), draw(_ENTRY)
            values = [x * u + y * v for u, v in zip(a, b)]
        else:
            values = draw(st.lists(st.one_of(st.just(0), _ENTRY), min_size=1, max_size=_WIDTH))
        rows.append(FiniteRow(enumerate(values)))
    return rows


@settings(max_examples=80, deadline=None)
@given(dependent_rows(), st.data())
def test_integer_product_check_agrees_with_a_dense_oracle(rows, data):
    state = EliminationState()
    for row in rows:
        state.push_row(row)
    h_rows, q_rows = state.h_rows, list(state.transform_rows())
    assert transforms_reproduce(rows, q_rows, h_rows) is True
    assert dense_product_matches(rows, q_rows, h_rows) is True
    # one entry of one transform row changed: the product moves by a
    # multiple of the source row at that column, unless that row is zero
    n = data.draw(st.integers(0, len(q_rows) - 1))
    col = data.draw(st.integers(0, len(rows) - 1))
    entries = dict(q_rows[n].items())
    entries[col] = entries.get(col, 0) + data.draw(_ENTRY.filter(bool))
    changed = q_rows[:n] + [FiniteRow(entries.items())] + q_rows[n + 1:]
    verdict = transforms_reproduce(rows, changed, h_rows)
    assert verdict is dense_product_matches(rows, changed, h_rows)
    assert verdict is rows[col].is_zero


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
    bump(state, 5, 0)   # column 0 holds the first initial value
    results = checked(eq, state)
    assert results["hessenberg-cross-check"] is False
    assert results["qhf-postulates"] is True


def test_initial_values_dropped_without_forcing_fail_the_cross_check(regular,
                                                                     monkeypatch):
    # a closed form that folds the initial values in only when a forcing is
    # given: right on any one forcing with initial values, wrong on every
    # fundamental sequence
    eq, state = regular
    real = hb.general_prefix

    def faulty(source, g, init, count):
        return real(source, g, init if g is not None else (0,) * len(init), count)

    monkeypatch.setattr(hb, "general_prefix", faulty)
    g, init = [1, -2, 3, 0, 5, 1], [2, -1]
    assert closed_form_matches(state, g, init, hb.general_prefix(eq.source, g, init, state.k))
    assert checked(eq, state)["hessenberg-cross-check"] is False


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
    # H and Q scaled alike, so Q . A == H still holds: row 7 has length 9
    eq, state = showcase
    state.pivots[9] = state.pivots[9].combine((), 2)
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


def test_verify_fetches_each_consumed_row_once(monkeypatch, capsys):
    # the elimination and every check, the N + 1 closed forms of the
    # cross-check included, read the rows verify fetched
    source = build_family({"family": "n_order", "N": 2, "a": "n*j - j^2/(n+1) + 1"})
    fetched = []

    def row_fn(n):
        fetched.append(n)
        return source.row_fn(n)

    counted = dataclasses.replace(source, row_fn=row_fn)
    monkeypatch.setattr(cli, "_load_source", lambda args: EquationSpec(counted))
    assert cli.main(["verify", "--horizon", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS hessenberg-cross-check"
    assert fetched == list(range(12))
    # run_checks on its own fetches each consumed row once more
    state = run(counted, 12)
    fetched.clear()
    assert all(passed for _, passed in run_checks(EquationSpec(counted), state, 0))
    assert fetched == list(range(12))


def test_hess_cross_check_fetches_each_row_once(monkeypatch, capsys):
    # the closed form and the elimination it is checked against both read
    # rows 0..terms-1
    source = build_family({"family": "n_order", "N": 3, "a": "n*j - j^2/(n+1) + 1"})
    fetched = []

    def row_fn(n):
        fetched.append(n)
        return source.row_fn(n)

    counted = dataclasses.replace(source, row_fn=row_fn)
    monkeypatch.setattr(cli, "_load_source", lambda args: EquationSpec(counted))
    assert cli.main(["hess", "--terms", "12", "--free", "0=1,2=-1/2", "--format", "csv",
                     "--verify-against-elimination"]) == 0
    assert capsys.readouterr().out.endswith("\nMATCH\n")
    assert fetched == list(range(12))


def test_hess_cross_check_reports_errors_in_row_order(monkeypatch, capsys):
    # row 1 ends a column short and row 3 fails to evaluate: with the
    # cross-check as without, row 1 is read first and its length reported
    def row_fn(n):
        if n == 3:
            raise EvalError("division by zero")
        return FiniteRow([(n, 1)] if n == 1 else [(n, 1), (n + 1, 2)])

    source = RowSource(row_fn, regular_order_index=1)
    monkeypatch.setattr(cli, "_load_source", lambda args: EquationSpec(source))
    for flags in ((), ("--verify-against-elimination",)):
        assert cli.main(["hess", "--terms", "5", *flags]) == 2
        assert capsys.readouterr().err == ("error: row 1 of a source of regular order 1 "
                                           "must end at column 2, not 1\n")
