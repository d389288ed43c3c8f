"""Solution assembly for row-finite linear systems A.y = g.

Everything here reads off an :class:`~rowfinite.elimination.EliminationState`.
The pivot lengths mu are the *accessible* columns; the complement below a
horizon is the set of *inaccessible* columns, which index the free constants
of the homogeneous solution space.  One routine, :func:`general_solution`,
reads a solution for given forcing and free constants off the reduced rows
and is the one reader of the transformed forcing ``Q . g``: it replays ``g``
through the elimination log as a one-column matrix with
``FiniteRow.combine``, the kernel that builds ``Q``, reads how many forcing
terms it needs off ``stable_since()``, and a nonzero value at a zero row
raises :class:`InconsistentSystemError` with those rows in ``violated``.
Each term at a pivot column is then one integer pair
(``rows.sum_products``): the transformed forcing value minus the pivot row
against the free constants, normalized once.  A particular solution is
``general_solution(state, g, {}, terms)``, a homogeneous one
``general_solution(state, None, free, terms)``.  The
fundamental sequence of an inaccessible column s is the homogeneous solution
with constant 1 at s and 0 at the other free columns;
:func:`fundamental_set` reads every one of them in a single pass over the
pivot rows of ``H``.  The number of inaccessible
columns below a horizon, the deficiency, is
``len(inaccessible_lengths(state, horizon))``.

All reports are relative to an explicit horizon.  Whether the inaccessible
set below it is complete is ``state.certified``: a finite prefix cannot by
itself certify that no later row introduces a new pivot length below the
horizon, except for lower-echelon (certified) sources where lengths only
ever grow.  So the fundamental set is a finite basis when the state is
certified, and a prefix of a Schauder basis otherwise.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .elimination import EliminationState
from .rows import (ZERO_ROW, FiniteRow, ScalarLike, as_scalar,
                   short_forcing, sum_products, to_fraction)
from .sources import SpecError


class InconsistentSystemError(ValueError):
    """The forcing terms violate the consistency conditions at zero rows."""

    def __init__(self, violated: Sequence[int]):
        super().__init__(f"inconsistent system: nonzero transform at zero rows {list(violated)}")
        self.violated = list(violated)


class AccessibleIndexError(SpecError):
    """A free constant was assigned at an accessible (pivot) column."""

    def __init__(self, index: int):
        super().__init__(f"free constant at accessible index {index}")
        self.index = index


def _check_horizon(state: EliminationState, horizon: int) -> None:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    # columns 0..mu[-1] are classifiable: pivot lengths are known up there
    if horizon > state.greatest_length + 1:
        raise ValueError(
            f"horizon {horizon} exceeds the number of classified columns "
            f"({state.greatest_length + 1}); consume more rows"
        )


def _check_terms(state: EliminationState, terms: int) -> None:
    if terms < 1:
        raise ValueError("terms must be positive")
    if terms > state.greatest_length + 1:
        raise ValueError(
            f"cannot produce {terms} terms: the number of classified columns "
            f"is {state.greatest_length + 1}; consume more rows"
        )


def inaccessible_lengths(state: EliminationState, horizon: int) -> Tuple[int, ...]:
    """Columns below the horizon that are not pivot lengths."""
    _check_horizon(state, horizon)
    pivot = set(state.mu)
    return tuple(s for s in range(horizon) if s not in pivot)


def fundamental_set(state: EliminationState, horizon: int,
                    terms: int) -> Dict[int, Tuple[Fraction, ...]]:
    """The homogeneous solution with constant 1 at s and 0 at every other
    inaccessible column, per inaccessible column s below the horizon; where
    s >= terms, that 1 lies past the prefix, which is then zero.  The pivot
    row of length m is zero at every other pivot column, so one pass over
    the pivot rows below ``terms`` reads every sequence: term m is minus its
    entry at s."""
    found = inaccessible_lengths(state, horizon)
    _check_terms(state, terms)
    sequences = {s: ([Fraction(0)] * s + [Fraction(1)] + [Fraction(0)] * terms)[:terms]
                 for s in found}
    for m in state.mu[:bisect_left(state.mu, terms)]:
        for col, num, den in state.pivots[m].int_items():
            if col in sequences:
                sequences[col][m] = -to_fraction(num, den)
    return {s: tuple(seq) for s, seq in sequences.items()}


def _checked_free(state: EliminationState, free: Mapping[int, ScalarLike]) -> Dict[int, Fraction]:
    pivot = set(state.mu)
    out: Dict[int, Fraction] = {}
    for key, value in free.items():
        if not isinstance(key, int) or isinstance(key, bool) or key < 0:
            raise SpecError(f"free-constant index must be a nonnegative integer, got {key!r}")
        if key in pivot:
            raise AccessibleIndexError(key)
        if key > state.greatest_length:
            raise ValueError(
                f"free constant at column {key} beyond the classified range; consume more rows"
            )
        out[key] = as_scalar(value)
    return out


def general_solution(state: EliminationState, g: Optional[Sequence[ScalarLike]],
                     free: Mapping[int, ScalarLike], terms: int) -> List[Fraction]:
    """Solution prefix for forcing ``g`` (``None`` means homogeneous) and the
    given free constants.

    The terms start as the free constants (0 where unset); one walk over
    the pivot rows below ``terms`` then overwrites each pivot column m with
    the transformed forcing value of its row (0 when ``g`` is None) minus
    the row's inner product with the terms so far, whose entry at m is
    still 0: the row is zero at every other pivot column, so only the free
    constants, all left of m, contribute to it.  Each term is summed on one
    integer pair, started from the forcing value's reduced pair, and
    normalized once.

    Checks, in this order: ``terms``; the free constants; that ``g`` covers
    the transform rows at the zero rows; consistency; that ``g`` covers the
    transform rows at the pivot rows the terms reach.  A short ``g`` is a
    ShortColumnError that gives how many terms these rows read.
    """
    _check_terms(state, terms)
    constants = _checked_free(state, free)
    rank = bisect_left(state.mu, terms)
    forcing = [(0, 1)] * state.k
    if g is not None:
        forcing = _replayed(state, g)
        # Q[n] . g reads g_0..g_length: a zero row w has length w, and
        # the longest transform row at or below position n has stable_since[n]
        last_zero = state.w_set[-1] if state.w_set else -1
        needed = 1 + max(last_zero,
                         state.stable_since()[state.j_set[rank - 1]] if rank else -1)
        # a zero row past the prefix makes needed > len(g): short, not inconsistent
        if last_zero < len(g) and (violated := [w for w in state.w_set if forcing[w][0]]):
            raise InconsistentSystemError(violated)
        if needed > len(g):
            raise short_forcing(len(g), needed)
    out: List[Fraction] = [Fraction(0)] * terms
    for col, c in constants.items():
        if col < terms:
            out[col] = c
    for m, pos in zip(state.mu[:rank], state.j_set):
        entries = state.pivots[m].int_items() if constants else ()
        tn, td = sum_products(((-num, den, out[col]) for col, num, den in entries),
                              *forcing[pos])
        out[m] = Fraction(tn, td)
    return out


def _replayed(state: EliminationState, g: Sequence[ScalarLike]) -> List[Tuple[int, int]]:
    """``Q[n] . g`` at every position n, as a numerator and a positive
    denominator in lowest terms: the log replayed on the forcing as a
    one-column matrix, whose row k is ``(0, g[k])``, by ``FiniteRow.combine``.
    Terms past the prefix are taken as 0; they reach only the positions whose
    transform row is longer, which the caller checks."""
    units = [FiniteRow._raw([(0, v.numerator, v.denominator)]) if v else ZERO_ROW
             for v in map(as_scalar, g)]
    return [next(((num, den) for _, num, den in value.int_items()), (0, 1))
            for value in state.replay(
                lambda k: units[k] if k < len(units) else ZERO_ROW, FiniteRow.combine)]
