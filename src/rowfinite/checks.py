"""Verification checks of an elimination run against its source.

The one module that verifies results.  Each check recomputes a result
exactly along an independent path and compares: transform rows against
reduced rows (``Q . A == H``), assembled solutions against the equations
they solve, and the Hessenberg closed form against the elimination path.
The ``verify`` command runs them all through :func:`run_checks`, which
fetches each consumed source row once for all of them and replays ``Q``
once, judging ``Q . A == H`` and the transform-row postulates on the same
pass (:func:`elimination.check_invariants` judges only the stored state);
``hess --verify-against-elimination`` uses :func:`closed_form_matches`
alone.

The product ``Q[n] . A`` is summed on the integer pairs of the rows, apart
from the row arithmetic of :mod:`rowfinite.rows` that built ``Q``, so a
fault in that kernel shows as a mismatch instead of repeating on both
sides.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from . import elimination
from . import hessenberg as hb
from . import solver
from .rows import FiniteRow, ScalarLike
from .sources import EquationSpec, RowSource, SpecError


def _reproduces(rows: Sequence[FiniteRow], q_row: FiniteRow,
                h_row: FiniteRow) -> bool:
    """True iff ``q_row`` times A is ``h_row``, where row m of A is
    ``rows[m]``; a transform row that reaches past ``rows`` fails.  Each
    column is summed on an unreduced integer pair whose denominators meet
    through their gcd, as :func:`rows.sum_products` sums one value, and
    compared with ``h_row`` by cross-multiplication."""
    if q_row.length >= len(rows):
        return False
    nums = {}
    dens = {}
    for m, qn, qd in q_row.int_items():
        for col, an, ad in rows[m].int_items():
            pn = qn * an
            pd = qd * ad
            td = dens.get(col)
            if td is None:
                nums[col] = pn
                dens[col] = pd
            elif td == pd:
                nums[col] += pn
            else:
                g = gcd(td, pd)
                pd //= g
                nums[col] = nums[col] * pd + pn * (td // g)
                dens[col] = td * pd
    for col, hn, hd in h_row.int_items():
        if col not in nums or nums.pop(col) * hd != hn * dens[col]:
            return False
    return not any(nums.values())


def _verdicts(rows: Sequence[FiniteRow], transforms: Iterable[FiniteRow],
              h_rows: Sequence[FiniteRow], postulated: bool) -> Tuple[bool, bool]:
    """(reproduced, postulated) of ``transforms``, read once and only until
    both are known.  Reproduced: they are as many as ``h_rows`` and the
    n-th times A is ``h_rows[n]``, where row m of A is ``rows[m]``.
    Postulated: ``postulated`` holds and every row is a transform row of
    the ``len(h_rows)`` consumed rows."""
    k = len(h_rows)
    reproduced = True
    count = 0
    for n, q_row in enumerate(transforms):
        count = n + 1
        reproduced = reproduced and n < k and _reproduces(rows, q_row, h_rows[n])
        # a transform row is nonzero (length -1 is the zero row's) and
        # reads only consumed rows
        postulated = postulated and 0 <= q_row.length < k
        if not (reproduced or postulated):
            break
    return reproduced and count == k, postulated


def transforms_reproduce(rows: Sequence[FiniteRow], transforms: Iterable[FiniteRow],
                         h_rows: Sequence[FiniteRow]) -> bool:
    """True iff ``transforms``, read once, are as many as ``h_rows`` and the
    n-th times A is ``h_rows[n]``, where row m of A is ``rows[m]``; a
    transform row that reaches past ``rows`` fails."""
    return _verdicts(rows, transforms, h_rows, False)[0]


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
    values ``init`` (one per order) of a regular-order source: one point of
    the two affine maps that :func:`hessenberg_cross_check` compares."""
    order = len(init)
    assembled = solver.general_solution(
        state, g, dict(enumerate(init)), order + len(closed))
    return closed == assembled[order:]


def _random_scalar(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def residual_check(state: elimination.EliminationState,
                   rows: Sequence[FiniteRow], rng: random.Random) -> bool:
    """Solve A . y = g for a forcing consistent by construction (g = A . y
    for a random y prefix) and random free constants at the inaccessible
    columns below ``width`` (:func:`solver.inaccessible_lengths`), then
    check the residual of every consumed row in ``rows`` is exactly zero
    (each is shorter than ``width``: its rightmost column is a pivot
    length)."""
    width = state.greatest_length + 1
    if width == 0:
        return True
    probe = [_random_scalar(rng) for _ in range(width)]
    g = [row.dot_prefix(probe) for row in rows]
    free = {s: _random_scalar(rng) for s in solver.inaccessible_lengths(state, width)}
    try:
        sol = solver.general_solution(state, g, free, width)
    except solver.InconsistentSystemError:
        return False
    return all(row.dot_prefix(sol) == target for row, target in zip(rows, g))


def hessenberg_cross_check(state: elimination.EliminationState,
                           source: RowSource, rng: random.Random) -> bool:
    """Compare the closed form with the elimination path as affine maps of
    the N initial values of a regular-order source: on the particular
    solution (zero initial values, a random forcing) and on each of the N
    fundamental sequences (a unit vector, no forcing).  Both paths are
    affine in the initial values, so agreement on these N + 1 cases is
    agreement on every choice of them."""
    order = source.regular_order_index
    g = [_random_scalar(rng) for _ in range(state.k)]
    cases = [(g, [0] * order)] + [(None, [int(i == s) for i in range(order)])
                                  for s in range(order)]
    return all(closed_form_matches(state, forcing, init,
                                   hb.general_prefix(source, forcing, init, state.k))
               for forcing, init in cases)


def run_checks(eq: EquationSpec, state: elimination.EliminationState,
               seed: int) -> List[Tuple[str, bool]]:
    """Every check that applies to this run, as (name, passed) in report
    order; ``seed`` drives the randomized ones."""
    rng = random.Random(seed)
    rows = [eq.source.row_at(n) for n in range(state.k)]
    expected = expected_pair_check(eq, rows)
    try:
        elimination.check_invariants(state)
        structural = True
    except elimination.EngineError:
        structural = False
    # one replay of Q settles left-association and the transform rows
    associated, postulated = _verdicts(rows, state.transform_rows(), state.h_rows,
                                       structural)
    results = [("left-association", associated)]
    if expected is not None:
        results.append(("expected-pair", expected))
    results.append(("qhf-postulates", postulated))
    results.append(("residual", residual_check(state, rows, rng)))
    if eq.source.regular_order_index is not None:
        held = RowSource(rows.__getitem__, eq.source.regular_order_index)
        results.append(("hessenberg-cross-check", hessenberg_cross_check(state, held, rng)))
    return results
