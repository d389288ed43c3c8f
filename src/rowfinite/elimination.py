"""Streaming rightmost-pivot Gauss-Jordan elimination over row-finite
matrices.

The engine consumes the rows of an infinite coefficient matrix one at a time
and maintains a reduced prefix in *quasi-Hermite form*: nonzero rows have
strictly increasing lengths, every rightmost coefficient is 1, every other
row has a zero in each pivot column, and zero rows stay pinned at the index
where they were produced.  Alongside the reduced rows it keeps a log:
per push, the elementary operations that push applied (the clearing
multipliers, the inverse scale, the cross-clearing multipliers and the
placement targets).  Replaying the log on the identity rows gives the
transform rows, ``Q[n] . A == h_rows[n]`` entrywise for every consumed
``n``.  The replay yields each row once no later push writes it and drops it
once no later push reads it, so every reader of ``Q`` streams it without
holding it (two rows live on ``example2``).
Replaying the log on a forcing column gives the transformed forcing ``Q . g``.
:func:`check_invariants` judges the engine state; ``Q . A == H`` against
the source rows is checked in :mod:`rowfinite.checks`.

Each consumed row passes through three steps:

1. *Gaussian clearing* -- every stored pivot row has its rightmost 1 at
   its own pivot column and a zero at every other pivot column, so
   subtracting one pivot row never changes the coefficient at another
   pivot column.  One pass over the incoming row's entries in increasing
   column order therefore clears it: at each pivot column, the pivot row
   is subtracted times the incoming row's own coefficient there.  The
   survivor is then normalized so its rightmost coefficient is 1; its
   length differs from every existing pivot length.
2. *Cross clearing* (the Jordan half) -- when the survivor's length falls
   strictly below the greatest existing pivot length, it is used as a pivot
   to zero the matching column of every stored row.  Only the rows that
   hold that column are visited, through a column index (the transpose of
   the row lists, as in Gustavson, ACM TOMS 4(3), 1978) built on the first
   cross-clear.  Row lengths are unchanged by this step.
3. *Placement* -- the survivor is inserted so nonzero-row lengths stay
   strictly increasing; displaced nonzero rows shift to later nonzero slots
   while zero rows keep their exact indices.

A *certified* state serves a source whose rows arrive in strictly
increasing length order (lower echelon), as every source with a
``regular_order_index`` does: steps 2-3 provably never fire there, a row that
would need them is an :class:`EngineError`, and every prefix is final the
moment it appears.  For arbitrary sources stabilization is only empirical;
``stable_since()`` reads the last step that changed each prefix off the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

from .rows import FiniteRow
from .sources import RowSource

T = TypeVar("T")


class EngineError(RuntimeError):
    """An internal invariant of the elimination engine was violated."""


@dataclass(slots=True)
class PushLog:
    """The elementary operations one push applied, in the order applied.

    ``clear``   (position, multiplier) pairs of Gaussian clearing: the
                survivor became ``survivor + multiplier * row[position]``,
                the multiplier an ``int`` when integral, else a ``Fraction``;
    ``inv``     the factor the survivor was then scaled by, or None;
    ``cross``   (position, multiplier) pairs of cross clearing: row
                ``position`` became ``row + multiplier * survivor``, the
                multiplier an ``int`` when integral, else a ``Fraction``;
    ``targets`` placement: the survivor went to ``targets[0]`` and the row
                at ``targets[i]`` moved to ``targets[i + 1]``; the last
                target is the new position k.
    """

    clear: List[Tuple[int, int | Fraction]]
    inv: Optional[Fraction]
    cross: List[Tuple[int, int | Fraction]] = field(default_factory=list)
    targets: List[int] = field(default_factory=list)


class EliminationState:
    """Mutable engine state; single-owner, not safe for concurrent mutation.

    Attributes
    ----------
    certified      : the source is lower echelon, so every prefix is final.
    h_rows         : reduced rows; the matching transform rows are not kept
                     but replayed from the log (:meth:`transform_rows`).
    j_set, w_set   : positions of nonzero and of zero rows (both increasing).
    mu             : lengths of the nonzero rows in position order; strictly
                     increasing at all times.
    _holders       : column -> pivot lengths (never changed by placement)
                     of the rows with an entry there; None until the first
                     cross-clear.
    """

    def __init__(self, certified: bool = False):
        self.certified = certified
        self.h_rows: List[FiniteRow] = []
        self.j_set: List[int] = []
        self.w_set: List[int] = []
        self.mu: List[int] = []
        self._log: List[PushLog] = []
        self._holders: Optional[Dict[int, Set[int]]] = None

    @property
    def k(self) -> int:
        """Number of source rows consumed so far."""
        return len(self.h_rows)

    @property
    def greatest_length(self) -> int:
        return self.mu[-1] if self.mu else -1

    # -- step 1: Gaussian clearing ------------------------------------------

    def reduce_with_transform(self, row: FiniteRow) -> Tuple[FiniteRow, PushLog]:
        """Clear ``row`` against the stored pivots without mutating the state.

        Returns the normalized survivor together with the log of this push,
        holding the clearing multipliers and the inverse scale so far.
        """
        mu = self.mu
        clear = []
        for col, num, den in row.int_items():
            rank = bisect_left(mu, col)
            if rank < len(mu) and mu[rank] == col:
                clear.append((self.j_set[rank], -num if den == 1 else Fraction(-num, den)))
        work = row.combine([(m, self.h_rows[pos]) for pos, m in clear])
        inv = None
        if not work.is_zero:
            lead = work.leading
            if lead != 1:
                inv = 1 / lead
                work = work.combine((), inv)
        return work, PushLog(clear, inv)

    # -- step 2: cross clearing ----------------------------------------------

    def jordan_clear(self, g: FiniteRow, log: PushLog) -> List[int]:
        """Zero the column ``length(g)`` of every stored row using ``g``.

        ``g`` must be a Gaussian survivor whose length falls strictly below
        the greatest stored pivot length; violations indicate an engine bug.
        Only the rows the column index lists at that column are visited,
        in position order (length order is position order).  Records the
        multipliers in ``log.cross`` and returns the positions whose content
        changed.  Lengths of stored rows are never affected.
        """
        if g.is_zero:
            raise EngineError("cross clearing needs a nonzero pivot")
        lg = g.length
        if not self.mu or lg >= self.mu[-1]:
            raise EngineError("cross-clearing pivot does not fall below the prefix")
        if self.mu[bisect_left(self.mu, lg)] == lg:   # below mu[-1]: in range
            raise EngineError(f"pivot length {lg} collides with a stored pivot")
        holders = self._holders
        if holders is None:
            holders = self._holders = _column_holders(self)
        changed = []
        for length in sorted(holders.get(lg, ())):
            pos = self.j_set[bisect_left(self.mu, length)]
            row = self.h_rows[pos]
            for col, num, den in row.int_items():
                holders[col].discard(length)
                if col == lg:
                    m = -num if den == 1 else Fraction(-num, den)
            row = self.h_rows[pos] = row.combine([(m, g)])
            for col, _, _ in row.int_items():
                holders[col].add(length)
            log.cross.append((pos, m))
            changed.append(pos)
        return changed

    # -- step 3: placement -----------------------------------------------------

    def insert_with_permutation(self, g: FiniteRow, log: PushLog) -> None:
        """Place a survivor at its length rank, shifting each nonzero row from
        there on to the next nonzero slot (none at rank ``len(mu)``); zero
        rows never move.  Records the placement in ``log.targets``."""
        k = self.k
        if g.is_zero:
            targets = [k]
            self.w_set.append(k)
        else:
            rank = bisect_left(self.mu, g.length)
            if rank < len(self.mu) and self.mu[rank] == g.length:
                raise EngineError(f"pivot length {g.length} collides with a stored pivot")
            targets = self.j_set[rank:] + [k]
            self.mu.insert(rank, g.length)
            self.j_set.append(k)
            if self._holders is not None:
                for col, _, _ in g.int_items():
                    self._holders[col].add(g.length)
        _place(self.h_rows, targets, g)
        log.targets = targets

    # -- the full step ---------------------------------------------------------

    def push_row(self, row: FiniteRow) -> None:
        """Consume one source row, restoring every invariant, and log the
        operations applied."""
        g, log = self.reduce_with_transform(row)
        if not g.is_zero and self.mu and g.length < self.mu[-1]:
            if self.certified:
                raise EngineError("certified source produced a length-decreasing row")
            self.jordan_clear(g, log)
        self.insert_with_permutation(g, log)
        self._log.append(log)

    # -- replay ----------------------------------------------------------------

    def replay(self, unit: Callable[[int], T],
               combine: Callable[[T, List[Tuple[int | Fraction, T]], Optional[Fraction]], T]
               ) -> Iterator[T]:
        """Replay the log and yield each position's final value, in position
        order, as soon as no later push writes it or a position before it.

        Push k repeats the operations it applied to the reduced rows, with
        ``combine(x, terms, c)`` standing for ``c * (x + sum(m * y for m, y
        in terms))`` (``c`` of None for 1): its new value is ``unit(k)``
        combined with the clearing terms and the inverse scale, and each
        cross-cleared position is combined with one term of that value.
        A multiplier ``m`` is an ``int`` or a ``Fraction`` (see :class:`PushLog`).
        Position n is yielded after push ``stable_since()[n]``, the last
        push that wrote a position at or below n; then only clearing reads
        it, and its value is dropped once yielded and read.
        """
        final = self.stable_since()
        last_read = {pos: k for k, log in enumerate(self._log) for pos, _ in log.clear}
        column: List[Optional[T]] = []
        done = 0
        for k, log in enumerate(self._log):
            value = combine(unit(k), [(m, column[pos]) for pos, m in log.clear],
                            log.inv)
            for pos, m in log.cross:
                column[pos] = combine(column[pos], [(m, value)], None)
            _place(column, log.targets, value)
            for pos, _ in log.clear:
                if pos < done and last_read[pos] == k:
                    column[pos] = None
            while done <= k and final[done] <= k:
                value = column[done]
                if last_read.get(done, -1) <= k:
                    column[done] = None
                done += 1
                yield value

    def transform_rows(self) -> Iterator[FiniteRow]:
        """The transform rows in position order, each yielded once final:
        the log replayed on the identity rows."""
        return self.replay(lambda k: FiniteRow._raw([(k, 1, 1)]), FiniteRow.combine)

    @property
    def q_rows(self) -> List[FiniteRow]:
        """The list of :meth:`transform_rows`, replayed on every read.  No
        module of rowfinite reads it; it goes once the benchmark tracer
        (``perfbench/tracing.py``) reads the replay instead."""
        return list(self.transform_rows())

    def stable_since(self) -> List[int]:
        """Per prefix index n, the last push that changed rows 0..n (creation
        counts): push k changes no row below ``targets[0]``, as it
        cross-clears only rows that its placement shifts.  It is also the
        greatest length of transform rows 0..n, as the rightmost entry of a
        transform row is the last push that wrote its position."""
        since = list(range(self.k))
        for k, log in enumerate(self._log):
            since[log.targets[0]] = k
        return list(accumulate(since, max))


def _place(rows: list, targets: List[int], survivor) -> None:
    """The placement step: append a slot at position k (the last target),
    put the survivor at ``targets[0]`` and move the entry at each target to
    the next one, the last first."""
    rows.append(survivor)
    for i in range(len(targets) - 2, -1, -1):
        rows[targets[i + 1]] = rows[targets[i]]
    rows[targets[0]] = survivor


def _column_holders(state: EliminationState) -> Dict[int, Set[int]]:
    """The column index of ``state`` scanned from its rows: column -> pivot
    lengths of the nonzero rows with an entry there."""
    holders: Dict[int, Set[int]] = defaultdict(set)
    for pos, length in zip(state.j_set, state.mu):
        for col, _, _ in state.h_rows[pos].int_items():
            holders[col].add(length)
    return holders


def run(source: RowSource, horizon: int) -> EliminationState:
    """Push rows 0..horizon-1 of the source; the state is certified when
    the source has a regular order, whose rows come in lower echelon."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    state = EliminationState(certified=source.regular_order_index is not None)
    for n in range(horizon):
        state.push_row(source.row_at(n))
    return state


def check_invariants(state: EliminationState) -> None:
    """Raise EngineError unless the state satisfies every structural
    invariant: the quasi-Hermite postulates on nonzero rows, pinned zero
    rows, coherent index sets, a column index (once built) that matches the
    rows, and nonzero transform rows."""
    k = state.k
    if sorted(state.j_set + state.w_set) != list(range(k)):
        raise EngineError("j_set and w_set do not partition the consumed range")
    if len(state.mu) != len(state.j_set):
        raise EngineError("mu and j_set lengths differ")
    if any(b <= a for a, b in zip(state.mu, state.mu[1:])):
        raise EngineError("pivot lengths are not strictly increasing")
    for w in state.w_set:
        if not state.h_rows[w].is_zero:
            raise EngineError(f"row {w} is indexed as zero but is not")
    pivots = list(zip(state.j_set, state.mu))
    for pos, length in pivots:
        row = state.h_rows[pos]
        if row.is_zero or row.length != length:
            raise EngineError(f"row {pos} does not carry pivot length {length}")
        if row.leading != 1:
            raise EngineError(f"row {pos} rightmost coefficient is {row.leading}, not 1")
    # ascending columns meet the pivots in rank order
    pivot_at = {length: pos for pos, length in pivots}
    for m in range(k):
        for col, _, _ in state.h_rows[m].int_items():
            pos = pivot_at.get(col)
            if pos is not None and pos != m:
                raise EngineError(f"row {m} has a nonzero entry in pivot column "
                                  f"{col} of row {pos}")
    if state._holders is not None:
        live = {col: lengths for col, lengths in state._holders.items() if lengths}
        if live != _column_holders(state):
            raise EngineError("the column index does not match the stored rows")
    for n, q in enumerate(state.transform_rows()):
        if q.is_zero:
            raise EngineError(f"transform row {n} is zero")
        if q.length >= k:
            raise EngineError(f"transform row {n} references unconsumed rows")
