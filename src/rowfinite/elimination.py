"""Streaming rightmost-pivot Gauss-Jordan elimination over row-finite
matrices.

The engine consumes the rows of an infinite coefficient matrix one at a time
and maintains a reduced prefix in *quasi-Hermite form*: nonzero rows have
strictly increasing lengths, every rightmost coefficient is 1, every other
row has a zero in each pivot column, and zero rows stay pinned at the index
where they were produced.  Alongside the reduced rows it keeps a log:
per push, the elementary operations that push applied (the clearing
multipliers, the inverse scale and the cross-clearing multipliers, each
keyed by the pivot length of a nonzero row, which no push changes, and
where the survivor went).  Replaying the log on the identity rows gives the
transform rows, ``Q[n] . A == h_rows[n]`` entrywise for every consumed
``n``.  The replay yields each row once no later push writes it and drops it
once no later push reads it, so every reader of ``Q`` streams it without
holding it (two rows live on ``example2``).
Replaying the log on a forcing column gives the transformed forcing ``Q . g``.
:func:`check_invariants` judges only what the engine stores (the index
sets, the rows keyed by pivot length, the column index) and replays
nothing; the replayed ``Q`` is judged in :mod:`rowfinite.checks`, where one
replay settles ``Q . A == H`` against the source rows and the rule of a
transform row.

Each consumed row passes through three steps:

1. *Gaussian clearing* -- every stored pivot row has its rightmost 1 at
   its own pivot column and a zero at every other pivot column, so
   subtracting one pivot row never changes the coefficient at another
   pivot column.  One pass over the incoming row's entries in increasing
   column order therefore clears it: at each pivot column, the pivot row
   is subtracted times the incoming row's own coefficient there.  The
   survivor is scaled so its rightmost coefficient is 1; its length
   differs from every existing pivot length.  When the row's own length is
   not a pivot length, every pivot row subtracted is shorter than the row,
   so the survivor ends in the row's own rightmost coefficient: clearing
   and scaling are then one ``FiniteRow.combine``, which normalizes each
   entry once.  Otherwise the survivor is shorter, or zero, and is scaled
   by its own rightmost coefficient after clearing.
2. *Cross clearing* (the Jordan half) -- when the survivor's length falls
   strictly below the greatest existing pivot length, it is used as a pivot
   to zero the matching column of every stored row.  Only the rows that
   hold that column are visited, through a column index (the transpose of
   the row lists, as in Gustavson, ACM TOMS 4(3), 1978) kept up to date
   from the first push.  Row lengths are unchanged by this step.
3. *Placement* -- the survivor is stored under its length, which joins
   ``mu`` at its rank.  The row of rank r sits at position ``j_set[r]``, so
   each longer row shifts to the next nonzero slot without being moved,
   while zero rows keep their exact indices.

A *certified* state serves a source whose rows arrive in strictly
increasing length order (lower echelon), as every source with a
``regular_order_index`` does: no push cross-clears or lands below a longer
row there, a row that would is an :class:`EngineError`, and every prefix is
final at once.  For arbitrary sources stabilization is only empirical;
``stable_since()`` reads the last step that changed each prefix off the log.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple, TypeVar

from .rows import ZERO_ROW, FiniteRow
from .sources import RowSource

T = TypeVar("T")


class EngineError(RuntimeError):
    """An internal invariant of the elimination engine was violated."""


@dataclass(slots=True)
class PushLog:
    """The elementary operations one push applied, in the order applied;
    a multiplier is an ``int`` when integral, else a ``Fraction``.

    ``clear``   (length, multiplier) pairs of Gaussian clearing: the
                survivor became ``survivor + multiplier * pivots[length]``;
    ``inv``     the factor the survivor was then scaled by, or None;
    ``cross``   (length, multiplier) pairs of cross clearing: the row
                ``pivots[length]`` became ``row + multiplier * survivor``;
    ``length``  the survivor's pivot length, -1 for a zero row;
    ``placed``  the position the survivor took.
    """

    clear: List[Tuple[int, int | Fraction]]
    inv: Optional[Fraction]
    cross: List[Tuple[int, int | Fraction]] = field(default_factory=list)
    length: int = -1
    placed: int = -1


class EliminationState:
    """Mutable engine state; single-owner, not safe for concurrent mutation.

    Attributes
    ----------
    certified      : the source is lower echelon, so every prefix is final.
    pivots         : pivot length -> the nonzero reduced row of that length,
                     never moved; :attr:`h_rows` is the positional view.  The
                     transform rows are replayed (:meth:`transform_rows`).
    j_set, w_set   : positions of nonzero and of zero rows (both increasing).
    mu             : the pivot lengths, strictly increasing; the row of
                     length ``mu[r]`` is at position ``j_set[r]``.
    _holders       : column -> pivot lengths of the rows with an entry there.
    """

    def __init__(self, certified: bool = False):
        self.certified = certified
        self.pivots: Dict[int, FiniteRow] = {}
        self.j_set: List[int] = []
        self.w_set: List[int] = []
        self.mu: List[int] = []
        self._log: List[PushLog] = []
        self._holders: Dict[int, Set[int]] = defaultdict(set)

    @property
    def k(self) -> int:
        """Number of source rows consumed so far."""
        return len(self._log)

    @property
    def greatest_length(self) -> int:
        return self.mu[-1] if self.mu else -1

    @property
    def h_rows(self) -> List[FiniteRow]:
        """The reduced rows in position order, as a new list."""
        rows = [ZERO_ROW] * self.k
        for pos, length in zip(self.j_set, self.mu):
            rows[pos] = self.pivots[length]
        return rows

    # -- step 1: Gaussian clearing ------------------------------------------

    def reduce_with_transform(self, row: FiniteRow) -> Tuple[FiniteRow, PushLog]:
        """Clear ``row`` against the stored pivots without mutating the state.

        Returns the normalized survivor together with the log of this push,
        holding the clearing multipliers and the inverse scale so far.
        """
        pivots = self.pivots
        clear, terms = [], []
        at_pivot = True   # the zero row takes the branch that scales after
        for col, num, den in row.int_items():
            pivot = pivots.get(col)
            at_pivot = pivot is not None
            if at_pivot:
                m = -num if den == 1 else Fraction(-num, den)
                clear.append((col, m))
                terms.append((m, pivot))
        if not at_pivot:
            # every pivot row used is shorter than the row, so the survivor
            # ends in the row's own last entry, num/den: clear and scale at once
            inv = None if num == den else Fraction(den, num)
            return row.combine(terms, inv), PushLog(clear, inv)
        # the row ends at a pivot column: the survivor is shorter, or zero
        work = row.combine(terms)
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
        in length order.  Records the multipliers in ``log.cross`` and
        returns the pivot lengths of the rows it changed, one per row.
        Lengths of stored rows are never affected.
        """
        if g.is_zero:
            raise EngineError("cross clearing needs a nonzero pivot")
        lg = g.length
        if not self.mu or lg >= self.mu[-1]:
            raise EngineError("cross-clearing pivot does not fall below the prefix")
        pivots, holders = self.pivots, self._holders
        if lg in pivots:
            raise EngineError(f"pivot length {lg} collides with a stored pivot")
        changed = sorted(holders.get(lg, ()))
        for length in changed:
            row = pivots[length]
            for col, num, den in row.int_items():
                holders[col].discard(length)
                if col == lg:
                    m = -num if den == 1 else Fraction(-num, den)
            row = pivots[length] = row.combine([(m, g)])
            for col, _, _ in row.int_items():
                holders[col].add(length)
            log.cross.append((length, m))
        return changed

    # -- step 3: placement -----------------------------------------------------

    def insert_with_permutation(self, g: FiniteRow, log: PushLog) -> None:
        """Place a survivor at position k: store a nonzero one under its
        length, which joins ``mu`` at its rank, or add k to ``w_set``.
        Records its length and the position it took in ``log``."""
        k = self.k
        if g.is_zero:
            self.w_set.append(k)
            log.placed = k
            return
        length = g.length
        if length in self.pivots:
            raise EngineError(f"pivot length {length} collides with a stored pivot")
        rank = bisect_left(self.mu, length)
        self.mu.insert(rank, length)
        self.j_set.append(k)
        self.pivots[length] = g
        for col, _, _ in g.int_items():
            self._holders[col].add(length)
        log.length, log.placed = length, self.j_set[rank]

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
        cross-cleared value is combined with one term of that value.
        Values are keyed by pivot length, the zero row at n by ``~n``.
        Position n is yielded after push ``stable_since()[n]``, the last push
        that placed a row at or below n, so its key is read off the final
        ``j_set`` and ``mu``; then only clearing reads it, and its value is
        dropped once yielded and read.
        """
        final = self.stable_since()
        key_at = dict(zip(self.j_set, self.mu))
        position = dict(zip(self.mu, self.j_set))
        last_read = {length: k for k, log in enumerate(self._log) for length, _ in log.clear}
        live: Dict[int, T] = {}
        done = 0
        for k, log in enumerate(self._log):
            value = combine(unit(k), [(m, live[length]) for length, m in log.clear],
                            log.inv)
            for length, m in log.cross:
                live[length] = combine(live[length], [(m, value)], None)
            live[log.length if log.length >= 0 else ~k] = value
            for length, _ in log.clear:
                if last_read[length] == k and position[length] < done:
                    del live[length]
            while done <= k and final[done] <= k:
                key = key_at.get(done, ~done)
                value = live[key]
                if last_read.get(key, -1) <= k:
                    del live[key]
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
        counts): push k changes no row below ``placed``, as it cross-clears
        only longer rows, which sit at ``placed`` or after.  It is also the
        greatest length of transform rows 0..n, as the rightmost entry of a
        transform row is the last push that wrote its position."""
        since = list(range(self.k))
        for k, log in enumerate(self._log):
            since[log.placed] = k
        return list(accumulate(since, max))


def _column_holders(state: EliminationState) -> Dict[int, Set[int]]:
    """The column index of ``state`` scanned from its rows: column -> pivot
    lengths of the nonzero rows with an entry there; :func:`check_invariants`
    holds the kept index against it."""
    holders: Dict[int, Set[int]] = defaultdict(set)
    for length, row in state.pivots.items():
        for col, _, _ in row.int_items():
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
    """Raise EngineError unless the stored state satisfies every structural
    invariant: the quasi-Hermite postulates on nonzero rows, coherent index
    sets that key each nonzero row by its length, and a column index that
    matches the rows.  ``Q`` is not replayed; ``checks.run_checks`` judges
    it."""
    if sorted(state.j_set + state.w_set) != list(range(state.k)):
        raise EngineError("j_set and w_set do not partition the consumed range")
    if len(state.mu) != len(state.j_set):
        raise EngineError("mu and j_set lengths differ")
    if any(b <= a for a, b in zip(state.mu, state.mu[1:])):
        raise EngineError("pivot lengths are not strictly increasing")
    if set(state.pivots) != set(state.mu):
        raise EngineError("the stored rows are not keyed by the pivot lengths")
    position = dict(zip(state.mu, state.j_set))
    # rank order is position order: the lowest row's lowest fault is raised
    for length, pos in position.items():
        row = state.pivots[length]
        if row.is_zero or row.length != length:
            raise EngineError(f"row {pos} does not carry pivot length {length}")
        if row.leading != 1:
            raise EngineError(f"row {pos} rightmost coefficient is {row.leading}, not 1")
        for col, _, _ in row.int_items():
            if col != length and col in position:
                raise EngineError(f"row {pos} has a nonzero entry in pivot column "
                                  f"{col} of row {position[col]}")
    live = {col: lengths for col, lengths in state._holders.items() if lengths}
    if live != _column_holders(state):
        raise EngineError("the column index does not match the stored rows")
