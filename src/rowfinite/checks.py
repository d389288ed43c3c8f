"""Verification checks of an elimination run against its source.

Each check recomputes a result exactly along an independent path and
compares: transform rows against reduced rows (``Q . A == H``), assembled
solutions against the equations they solve, and the Hessenberg closed form
against the elimination path.  The ``verify`` command runs them all through
:func:`run_checks`; ``EliminationState.verify_left_association`` and
``hess --verify-against-elimination`` use the single checks they need.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import elimination
from . import hessenberg as hb
from . import solver
from .rows import FiniteRow, ScalarLike, ZERO_ROW
from .sources import EquationSpec, RowSource, SpecError


def transforms_reproduce(source: RowSource, q_rows: Sequence[FiniteRow],
                         h_rows: Sequence[FiniteRow]) -> bool:
    """True iff ``q_rows[n] . A == h_rows[n]`` for every n, with the rows of
    A taken from the source."""
    if len(q_rows) != len(h_rows):
        return False
    for q_row, h_row in zip(q_rows, h_rows):
        acc = ZERO_ROW
        for m, c in q_row.items():
            acc = acc.axpy(c, source.row_at(m))
        if acc != h_row:
            return False
    return True


def expected_pair_check(eq: EquationSpec) -> Optional[bool]:
    """With an 'expect' block, check the supplied transform rows reproduce
    the supplied reduced rows from the source: Q_e . A == H_e.  None when
    the spec has no 'expect' block."""
    if eq.expect_h is None and eq.expect_q is None:
        return None
    if eq.expect_h is None or eq.expect_q is None:
        raise SpecError("'expect' needs both 'h' and 'q'")
    return transforms_reproduce(eq.source, eq.expect_q, eq.expect_h)


def closed_form_matches(state: elimination.EliminationState,
                        g: Optional[Sequence[ScalarLike]],
                        init: Sequence[ScalarLike],
                        closed: List[Fraction]) -> bool:
    """True iff the closed-form terms y_0.. equal those the elimination path
    assembles for the same forcing ``g`` (None: homogeneous) and initial
    values ``init`` of a regular-order source."""
    order = state.regular_order_index
    assembled = solver.general_solution(
        state, g, dict(enumerate(init)), order + len(closed))
    return closed == assembled[order:]


def _random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def residual_check(state: elimination.EliminationState, source: RowSource,
                   rng: random.Random) -> bool:
    """Solve A . y = g for a forcing consistent by construction (g = A . y
    for a random y prefix) and random free constants, then check the
    residual of every consumed row the solution covers is exactly zero."""
    width = state.greatest_length + 1
    if width == 0:
        return True
    probe = [_random_scalar(rng) for _ in range(width)]
    g = [source.row_at(n).dot_prefix(probe) for n in range(state.k)]
    free = {}
    pivot = set(state.mu)
    for s in range(width):
        if s not in pivot:
            free[s] = _random_scalar(rng)
    try:
        sol = solver.general_solution(state, g, free, width)
    except solver.InconsistentSystemError:
        return False
    for n in range(state.k):
        row = source.row_at(n)
        if row.length >= width:
            continue  # row reaches beyond the classified prefix
        if row.dot_prefix(sol) != g[n]:
            return False
    return True


def hessenberg_cross_check(state: elimination.EliminationState,
                           source: RowSource, rng: random.Random) -> bool:
    """Compare the closed form with the elimination path on random forcing
    terms and initial values (certified regular-order sources only)."""
    order = state.regular_order_index
    g = [_random_scalar(rng) for _ in range(state.k)]
    init = [_random_scalar(rng) for _ in range(order)]
    spec = hb.hess_spec_from_source(source, g, init)
    return closed_form_matches(state, g, init, hb.general_prefix(spec, state.k))


def run_checks(eq: EquationSpec, state: elimination.EliminationState,
               seed: int) -> List[Tuple[str, bool]]:
    """Every check that applies to this run, as (name, passed) in report
    order; ``seed`` drives the randomized ones."""
    rng = random.Random(seed)
    expected = expected_pair_check(eq)
    left_ok = state.verify_left_association(eq.source)
    if expected is not None:
        left_ok = left_ok and expected
    results = [("left-association", left_ok)]
    try:
        elimination.check_invariants(state)
        results.append(("qhf-postulates", True))
    except elimination.EngineError:
        results.append(("qhf-postulates", False))
    results.append(("residual", residual_check(state, eq.source, rng)))
    if state.regular_order_index is not None and state.certified:
        results.append(("hessenberg-cross-check",
                        hessenberg_cross_check(state, eq.source, rng)))
    return results
