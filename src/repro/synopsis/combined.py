"""The combined synopsis ``B = (B_max, B_min)`` with cross rules (§3.2, §4).

On top of two single-direction synopses, the combined synopsis applies all
inferences that *bags* of max and min queries allow over duplicate-free data:

* **same-value rule** — a max and a min equality predicate sharing a value
  ``M`` must share exactly one common element ``x_j``, which equals ``M``;
  the predicates split into ``[max({x_j}) = M]``, ``[max(S1 - x_j) < M]``
  and ``[min(S2 - x_j) > M]`` (paper, Section 3.2);
* **determined-element removal** — an exactly-known value ``x_j = v`` cannot
  be the witness of an equality predicate whose value differs from ``v``,
  so ``x_j`` is removed from it (shrinking the witness pool — the paper's
  *trickle effect*, Section 4);
* **forced witnesses** — an element whose feasible interval degenerates to a
  single point is pinned, splitting its predicate;
* **range feasibility** — each element's interval ``R_i`` (lower bound from
  the min side, upper bound from the max side) must remain non-empty.

The rules run to fixpoint after every insert; inserts are transactional
(state is untouched when the new answer is inconsistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from ..exceptions import InconsistentAnswersError, InvalidQueryError
from ..types import AggregateKind
from .extreme_synopsis import ExtremeSynopsis, MaxSynopsis, MinSynopsis
from .predicates import SynopsisPredicate


@dataclass(frozen=True)
class ElementRange:
    """Feasible interval of one sensitive value given the synopsis."""

    lo: float
    lo_closed: bool
    hi: float
    hi_closed: bool

    @property
    def length(self) -> float:
        """Lebesgue measure of the interval."""
        return max(0.0, self.hi - self.lo)

    @property
    def is_point(self) -> bool:
        """True when the interval pins the value exactly."""
        return self.lo == self.hi and self.lo_closed and self.hi_closed

    def contains(self, v: float) -> bool:
        """Whether ``v`` lies in the interval (respecting closedness)."""
        if v < self.lo or v > self.hi:
            return False
        if v == self.lo and not self.lo_closed:
            return False
        if v == self.hi and not self.hi_closed:
            return False
        return True


class CombinedSynopsis:
    """Incrementally maintained ``(B_max, B_min)`` over ``[low, high]^n``."""

    def __init__(self, n: int, low: float = 0.0, high: float = 1.0):
        if low >= high:
            raise ValueError("require low < high")
        self.n = n
        self.low = float(low)
        self.high = float(high)
        self.max_side: ExtremeSynopsis = MaxSynopsis(n, limit=high)
        self.min_side: ExtremeSynopsis = MinSynopsis(n, limit=low)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def determined(self) -> Dict[int, float]:
        """Elements whose value is exactly disclosed by the synopsis."""
        merged = dict(self.max_side.determined)
        merged.update(self.min_side.determined)
        return merged

    def predicates(self) -> List[SynopsisPredicate]:
        """All predicates from both sides."""
        return self.max_side.predicates() + self.min_side.predicates()

    def equality_predicates(self) -> List[SynopsisPredicate]:
        """Equality predicates from both sides (the colouring-graph nodes)."""
        return [p for p in self.predicates() if p.equality]

    def range_of(self, element: int) -> ElementRange:
        """The feasible interval ``R_element``."""
        return self._range(element, self.determined)

    def ranges(self) -> List[ElementRange]:
        """Every element's feasible interval, ``[R_0, ..., R_{n-1}]``.

        Equal to ``[range_of(i) for i in range(n)]``, with the determined
        elements gathered once instead of once per element.
        """
        det = self.determined
        return [self._range(i, det) for i in range(self.n)]

    def _range(self, element: int, det: Dict[int, float]) -> ElementRange:
        if element in det:
            v = det[element]
            return ElementRange(v, True, v, True)
        hi_val, hi_closed = self.max_side.bound(element)
        lo_val, lo_closed = self.min_side.bound(element)
        assert hi_val is not None and lo_val is not None
        return ElementRange(lo_val, lo_closed, hi_val, hi_closed)

    def copy(self) -> "CombinedSynopsis":
        """Independent deep copy."""
        dup = CombinedSynopsis(self.n, self.low, self.high)
        dup.max_side = self.max_side.copy()
        dup.min_side = self.min_side.copy()
        return dup

    def add_element(self) -> int:
        """Register a fresh unconstrained element on both sides."""
        idx = self.max_side.add_element()
        other = self.min_side.add_element()
        assert idx == other
        self.n += 1
        return idx

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def insert(self, kind: AggregateKind, query_set: Iterable[int],
               answer: float) -> None:
        """Fold a new max or min (query, answer) pair into the synopsis.

        Transactional: raises :class:`InconsistentAnswersError` and leaves
        the synopsis unchanged when the answer contradicts the past.
        """
        trial = self.copy()
        trial._insert_inplace(kind, query_set, answer)
        self.max_side = trial.max_side
        self.min_side = trial.min_side

    def is_consistent(self, kind: AggregateKind, query_set: Iterable[int],
                      answer: float) -> bool:
        """Whether ``answer`` is consistent with past answers (no mutation)."""
        trial = self.copy()
        try:
            trial._insert_inplace(kind, query_set, answer)
        except InconsistentAnswersError:
            return False
        return True

    def what_if(self, kind: AggregateKind, query_set: Iterable[int],
                answer: float) -> "CombinedSynopsis":
        """The synopsis that would result from answering; raises if
        inconsistent.  The current synopsis is never mutated."""
        trial = self.copy()
        trial._insert_inplace(kind, query_set, answer)
        return trial

    def _insert_inplace(self, kind: AggregateKind, query_set, answer) -> None:
        if kind is AggregateKind.MAX:
            self.max_side.insert(query_set, answer)
        elif kind is AggregateKind.MIN:
            self.min_side.insert(query_set, answer)
        else:
            raise InvalidQueryError(
                f"combined synopsis audits max/min queries, not {kind}"
            )
        self.propagate()

    # ------------------------------------------------------------------
    # Propagation fixpoint
    # ------------------------------------------------------------------

    def propagate(self) -> None:
        """Run the cross rules to fixpoint; raises on any contradiction."""
        changed = True
        while changed:
            changed = False
            changed |= self._apply_same_value_rule()
            changed |= self._apply_determined_removal()
            changed |= self._apply_forced_witnesses()
        self._check_ranges()

    def _apply_same_value_rule(self) -> bool:
        """Max-eq and min-eq predicates sharing a value pin their common
        element (paper, Section 3.2)."""
        max_eq = {p.value: (pid, p) for pid, p in self.max_side.items()
                  if p.equality}
        for min_pid, min_pred in self.min_side.items():
            if not min_pred.equality:
                continue
            hit = max_eq.get(min_pred.value)
            if hit is None:
                continue
            max_pid, max_pred = hit
            common = max_pred.elements & min_pred.elements
            if len(common) != 1:
                raise InconsistentAnswersError(
                    f"max and min predicates share a value but have "
                    f"{len(common)} common elements (need exactly 1)"
                )
            (j,) = common
            already_pinned = (max_pred.determines_value
                              and min_pred.determines_value)
            if already_pinned:
                continue
            if not max_pred.determines_value:
                self.max_side.force_witness(max_pid, j)
            if not min_pred.determines_value:
                self.min_side.force_witness(min_pid, j)
            return True
        return False

    def _apply_determined_removal(self) -> bool:
        """Exactly-known elements cannot witness predicates with a different
        value; remove them (the trickle effect)."""
        det = self.determined
        for side, other_value in ((self.max_side, self.min_side),
                                  (self.min_side, self.max_side)):
            for pid, pred in side.items():
                for j in sorted(pred.elements):
                    if j not in det:
                        continue
                    v = det[j]
                    if pred.determines_value:
                        if pred.value != v:
                            raise InconsistentAnswersError(
                                "an element is determined with two "
                                "conflicting values"
                            )
                        continue
                    if pred.equality and v == pred.value:
                        side.force_witness(pid, j)
                        return True
                    # v must respect the bound; beyond it => contradiction.
                    if side.direction * (v - pred.value) >= 0:
                        raise InconsistentAnswersError(
                            "a determined element violates a recorded bound"
                        )
                    side.remove_element(pid, j)
                    return True
        return False

    def _apply_forced_witnesses(self) -> bool:
        """Pin witnesses whose feasible interval degenerates to the value."""
        for side, opposite in ((self.max_side, self.min_side),
                               (self.min_side, self.max_side)):
            for pid, pred in side.items():
                if not pred.equality or pred.determines_value:
                    continue
                forced = []
                for j in pred.elements:
                    opp_val, opp_closed = opposite.bound(j)
                    if opp_val is None:
                        continue
                    if opp_val == pred.value and opp_closed:
                        forced.append(j)
                    elif side.direction * (opp_val - pred.value) > 0:
                        # opposite bound already beyond this predicate's value
                        raise InconsistentAnswersError(
                            "element bounds cross at an equality predicate"
                        )
                if len(forced) > 1:
                    raise InconsistentAnswersError(
                        f"{len(forced)} elements forced to equal one "
                        f"predicate value"
                    )
                if forced:
                    side.force_witness(pid, forced[0])
                    return True
        return False

    def _check_ranges(self) -> None:
        for i, rng in enumerate(self.ranges()):
            if rng.lo > rng.hi:
                raise InconsistentAnswersError(
                    f"element {i} has an empty feasible range"
                )
            if rng.lo == rng.hi and not (rng.lo_closed and rng.hi_closed):
                raise InconsistentAnswersError(
                    f"element {i} has a degenerate half-open range"
                )
