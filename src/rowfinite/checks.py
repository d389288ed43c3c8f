"""Verification checks of an elimination run against its source.

The one module that verifies results.  Each check recomputes a result
exactly along an independent path and compares: transform rows against
reduced rows (``Q . A == H``), assembled solutions against the equations
they solve, and the Hessenberg closed form against the elimination path.
The ``verify`` command runs them all through :func:`run_checks`, which
fetches each consumed source row once for all of them; ``hess
--verify-against-elimination`` uses :func:`closed_form_matches` alone.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from . import elimination
from . import hessenberg as hb
from . import solver
from .rows import FiniteRow, ScalarLike, ZERO_ROW
from .sources import EquationSpec, RowSource, SpecError


def transforms_reproduce(rows: Sequence[FiniteRow], transforms: Iterable[FiniteRow],
                         h_rows: Sequence[FiniteRow]) -> bool:
    """True iff ``transforms``, read once, are as many as ``h_rows`` and the
    n-th times A is ``h_rows[n]``, where row m of A is ``rows[m]``; a
    transform row that reaches past ``rows`` fails."""
    transforms = iter(transforms)
    for h_row in h_rows:
        q_row = next(transforms, None)
        if q_row is None or q_row.length >= len(rows):
            return False
        if ZERO_ROW.combine([(c, rows[m]) for m, c in q_row.items()]) != h_row:
            return False
    return next(transforms, None) is None


def left_association(state: elimination.EliminationState,
                     rows: Sequence[FiniteRow]) -> bool:
    """True iff Q[n] . A == h_rows[n] exactly for every consumed n, where
    ``rows`` are the consumed source rows; ``Q`` is replayed, not held."""
    return transforms_reproduce(rows, state.transform_rows(), state.h_rows)


def expected_pair_check(eq: EquationSpec,
                        rows: Sequence[FiniteRow]) -> Optional[bool]:
    """With an 'expect' block, check the supplied transform rows reproduce
    the supplied reduced rows from the consumed source rows ``rows``:
    Q_e . A == H_e.  None when the spec has no 'expect' block; a SpecError
    when a row of Q_e reads a source row past ``rows``."""
    if eq.expect_h is None and eq.expect_q is None:
        return None
    if eq.expect_h is None or eq.expect_q is None:
        raise SpecError("'expect' needs both 'h' and 'q'")
    for q_row in eq.expect_q:
        if q_row.length >= len(rows):
            raise SpecError(f"'expect' q reads source row {q_row.length}, "
                            f"past the {len(rows)} rows consumed")
    return transforms_reproduce(rows, eq.expect_q, eq.expect_h)


def closed_form_matches(state: elimination.EliminationState,
                        g: Optional[Sequence[ScalarLike]],
                        init: Sequence[ScalarLike],
                        closed: List[Fraction]) -> bool:
    """True iff the closed-form terms y_0.. equal those the elimination path
    assembles for the same forcing ``g`` (None: homogeneous) and initial
    values ``init`` (one per order) of a regular-order source."""
    order = len(init)
    assembled = solver.general_solution(
        state, g, dict(enumerate(init)), order + len(closed))
    return closed == assembled[order:]


def _random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def residual_check(state: elimination.EliminationState,
                   rows: Sequence[FiniteRow], rng: random.Random) -> bool:
    """Solve A . y = g for a forcing consistent by construction (g = A . y
    for a random y prefix) and random free constants, then check the
    residual of every consumed row in ``rows`` is exactly zero (each is
    shorter than ``width``: its rightmost column is a pivot length)."""
    width = state.greatest_length + 1
    if width == 0:
        return True
    probe = [_random_scalar(rng) for _ in range(width)]
    g = [row.dot_prefix(probe) for row in rows]
    free = {}
    pivot = set(state.mu)
    for s in range(width):
        if s not in pivot:
            free[s] = _random_scalar(rng)
    try:
        sol = solver.general_solution(state, g, free, width)
    except solver.InconsistentSystemError:
        return False
    return all(row.dot_prefix(sol) == target for row, target in zip(rows, g))


def hessenberg_cross_check(state: elimination.EliminationState,
                           source: RowSource, rng: random.Random) -> bool:
    """Compare the closed form with the elimination path on random forcing
    terms and initial values (regular-order sources only)."""
    order = source.regular_order_index
    g = [_random_scalar(rng) for _ in range(state.k)]
    init = [_random_scalar(rng) for _ in range(order)]
    spec = hb.hess_spec_from_source(source, g, init)
    return closed_form_matches(state, g, init, hb.general_prefix(spec, state.k))


def run_checks(eq: EquationSpec, state: elimination.EliminationState,
               seed: int) -> List[Tuple[str, bool]]:
    """Every check that applies to this run, as (name, passed) in report
    order; ``seed`` drives the randomized ones."""
    rng = random.Random(seed)
    rows = [eq.source.row_at(n) for n in range(state.k)]
    expected = expected_pair_check(eq, rows)
    results = [("left-association", left_association(state, rows))]
    if expected is not None:
        results.append(("expected-pair", expected))
    try:
        elimination.check_invariants(state)
        results.append(("qhf-postulates", True))
    except elimination.EngineError:
        results.append(("qhf-postulates", False))
    results.append(("residual", residual_check(state, rows, rng)))
    if eq.source.regular_order_index is not None:
        results.append(("hessenberg-cross-check",
                        hessenberg_cross_check(state, eq.source, rng)))
    return results
