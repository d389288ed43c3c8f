"""Solution assembly for row-finite linear systems A.y = g.

Everything here reads off an :class:`~rowfinite.elimination.EliminationState`.
The pivot lengths mu are the *accessible* columns; the complement below a
horizon is the set of *inaccessible* columns, which index the free constants
of the homogeneous solution space.  Per inaccessible column s there is one
fundamental sequence: 1 at position s, the negated column-s entry of the
reduced matrix at each pivot position, 0 elsewhere.  A particular solution
places the transformed forcing value at each pivot position; the general
solution is their pointwise sum.

All reports are relative to an explicit horizon and carry a completeness
flag: a finite prefix cannot by itself certify that no later row introduces
a new pivot length below the horizon, except for lower-echelon (certified)
sources where lengths only ever grow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .elimination import EliminationState
from .rows import Scalar, ScalarLike, ShortColumnError, as_scalar
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


@dataclass(frozen=True)
class InaccessibleLengths:
    values: Tuple[int, ...]
    horizon: int
    complete: bool


@dataclass(frozen=True)
class FundamentalSet:
    """Per inaccessible column s, a prefix of the fundamental sequence.

    ``basis_kind`` is ``"finite"`` when the inaccessible set below the
    horizon is certified complete, ``"schauder_prefix"`` otherwise.
    """

    basis_kind: str
    sequences: Dict[int, Tuple[Scalar, ...]]


def _max_classified(state: EliminationState) -> int:
    # columns 0..mu[-1] are classifiable: pivot lengths are known up there
    return state.greatest_length


def _check_horizon(state: EliminationState, horizon: int) -> None:
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if horizon > _max_classified(state) + 1:
        raise ValueError(
            f"horizon {horizon} exceeds the classified column range "
            f"0..{_max_classified(state)}; consume more rows"
        )


def _check_terms(state: EliminationState, terms: int) -> None:
    if terms < 1:
        raise ValueError("terms must be positive")
    if terms > _max_classified(state) + 1:
        raise ValueError(
            f"cannot produce {terms} terms: columns beyond "
            f"{_max_classified(state)} are not classified yet; consume more rows"
        )


def inaccessible_lengths(state: EliminationState, horizon: int) -> InaccessibleLengths:
    """Columns below the horizon that are not pivot lengths."""
    _check_horizon(state, horizon)
    pivot = set(state.mu)
    values = tuple(s for s in range(horizon) if s not in pivot)
    return InaccessibleLengths(values=values, horizon=horizon, complete=state.certified)


def deficiency_report(state: EliminationState, horizon: int) -> Tuple[int, bool]:
    """Number of inaccessible columns below the horizon, with completeness."""
    found = inaccessible_lengths(state, horizon)
    return len(found.values), found.complete


def fundamental_set(state: EliminationState, horizon: int, terms: int) -> FundamentalSet:
    found = inaccessible_lengths(state, horizon)
    _check_terms(state, terms)
    pivot_pos = dict(zip(state.mu, state.j_set))
    sequences: Dict[int, Tuple[Scalar, ...]] = {}
    for s in found.values:
        seq = []
        for m in range(terms):
            if m == s:
                seq.append(Fraction(1))
            elif m in pivot_pos:
                seq.append(-state.h_rows[pivot_pos[m]].get(s))
            else:
                seq.append(Fraction(0))
        sequences[s] = tuple(seq)
    kind = "finite" if found.complete else "schauder_prefix"
    return FundamentalSet(basis_kind=kind, sequences=sequences)


def _checked_free(state: EliminationState, free: Mapping[int, ScalarLike]) -> Dict[int, Scalar]:
    pivot = set(state.mu)
    out: Dict[int, Scalar] = {}
    for key, value in free.items():
        if not isinstance(key, int) or key < 0:
            raise SpecError(f"free-constant index must be a nonnegative integer, got {key!r}")
        if key in pivot:
            raise AccessibleIndexError(key)
        if key > _max_classified(state):
            raise ValueError(
                f"free constant at column {key} beyond the classified range; consume more rows"
            )
        out[key] = as_scalar(value)
    return out


def homogeneous_general(state: EliminationState, free: Mapping[int, ScalarLike],
                        terms: int) -> List[Scalar]:
    """General homogeneous solution prefix for the given free constants.

    Term m is the free constant at an inaccessible column (0 when unset) and
    minus the weighted sum of the pivot row's earlier entries at a pivot
    column; entries at other pivot columns are zero there, so only the free
    constants actually contribute.
    """
    _check_terms(state, terms)
    constants = _checked_free(state, free)
    pivot_pos = dict(zip(state.mu, state.j_set))
    out: List[Scalar] = []
    for m in range(terms):
        if m in pivot_pos:
            row = state.h_rows[pivot_pos[m]]
            total = Fraction(0)
            for col, coeff in row.items():
                if col >= m:
                    break
                c = constants.get(col)
                if c:
                    total -= coeff * c
            out.append(total)
        else:
            out.append(constants.get(m, Fraction(0)))
    return out


class _Unsupplied:
    """A transformed forcing value that reads g[m] for some m beyond the
    supplied prefix.  ``length`` is the greatest such m: the rightmost entry
    of a transform row never cancels, so it is that row's length."""

    __slots__ = ("length", "supplied")

    def __init__(self, length: int, supplied: int):
        self.length = length
        self.supplied = supplied

    def __add__(self, other):
        if isinstance(other, _Unsupplied) and other.length > self.length:
            return other
        return self

    __radd__ = __add__

    def __mul__(self, factor):
        return self

    __rmul__ = __mul__


def _transformed(state: EliminationState, g: Sequence[ScalarLike]) -> list:
    """Entry n is q_rows[n] . g, from the elimination log replayed on the
    forcing values (Q itself is not built); an _Unsupplied marker where
    q_rows[n] reaches beyond the supplied prefix."""
    column = [as_scalar(v) for v in g]
    supplied = len(column)
    return state.replay(
        [], lambda k: column[k] if k < supplied else _Unsupplied(k, supplied),
        lambda x, m, y: x + m * y, lambda x, c: x * c)


def _known(value) -> Scalar:
    if isinstance(value, _Unsupplied):
        raise ShortColumnError(
            f"row has length {value.length} but only {value.supplied} column "
            f"entries were supplied"
        )
    return value


def _violations(state: EliminationState, transformed: list) -> List[int]:
    return [w for w in state.w_set if _known(transformed[w]) != 0]


def rhs_transform(state: EliminationState, g: Sequence[ScalarLike]) -> List[Scalar]:
    """The transformed forcing vector: entry n is q_rows[n] . g."""
    return [_known(v) for v in _transformed(state, g)]


def consistency_check(state: EliminationState, g: Sequence[ScalarLike]) -> List[int]:
    """Zero-row positions whose transformed forcing value is nonzero.

    Empty means the system is consistent at this horizon.
    """
    return _violations(state, _transformed(state, g))


def particular_solution(state: EliminationState, g: Sequence[ScalarLike],
                        terms: int) -> List[Scalar]:
    """Particular solution prefix: the transformed forcing value of each
    nonzero row sits at that row's pivot column, zero elsewhere."""
    transformed = _transformed(state, g)
    violated = _violations(state, transformed)
    if violated:
        raise InconsistentSystemError(violated)
    _check_terms(state, terms)
    out = [Fraction(0)] * terms
    for pos, length in zip(state.j_set, state.mu):
        if length < terms:
            out[length] = _known(transformed[pos])
    return out


def general_solution(state: EliminationState, g: Optional[Sequence[ScalarLike]],
                     free: Mapping[int, ScalarLike], terms: int) -> List[Scalar]:
    """Particular plus homogeneous; ``g=None`` means homogeneous."""
    homogeneous = homogeneous_general(state, free, terms)
    if g is None:
        return homogeneous
    particular = particular_solution(state, g, terms)
    return [p + h for p, h in zip(particular, homogeneous)]


def frechet_distance(x: Sequence[ScalarLike], y: Sequence[ScalarLike],
                     horizon: int) -> Tuple[Scalar, Scalar]:
    """Partial sum of the coordinatewise sequence metric over indices below
    the horizon, plus the exact bound on the dropped tail.

    The weight of index i is 2^-i and each summand is |d|/(1+|d|) < 1, so the
    tail from the horizon onward is strictly below 2^(1-horizon).
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    if len(x) < horizon or len(y) < horizon:
        raise ValueError(f"both prefixes must carry at least {horizon} terms")
    total = Fraction(0)
    for i in range(horizon):
        d = abs(as_scalar(x[i]) - as_scalar(y[i]))
        if d:
            total += Fraction(1, 2 ** i) * d / (1 + d)
    return total, Fraction(2, 2 ** horizon)
