"""Multi-objective Pareto-front extraction and streaming pruning.

Points are :class:`~repro.dse.evaluate.EvalPoint` values.  Objectives
are minimized, area-first: ``objectives()`` is ``(lut, ff, bram18, dsp,
cycles)``.  Ties on the whole vector are broken by the candidate id
(``cid``), which is what makes both the batch extractor and the
streaming accumulator **permutation-invariant** — the frontier is a
function of the point *set*, not of evaluation order.  That property is
load-bearing: the parallel campaign runner completes candidates in
nondeterministic order and still has to produce a byte-identical
frontier.

Two entry points:

* :func:`pareto_front` — batch extraction;
* :class:`ParetoFront` — streaming accumulator with dominated-point
  pruning: dominated incoming points never enter the frontier, and a
  new dominator evicts every kept point it beats.  Emits ``dse.point``
  / ``dse.prune`` events and counters when observability is on.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.obs.events import BUS
from repro.obs.metrics import REGISTRY

#: Objective names in vector order (all minimized).
OBJECTIVES = ("lut", "ff", "bram18", "dsp", "cycles")


def point_objectives(point) -> tuple:
    """The minimized objective vector of *point* (area-first)."""
    return point.objectives()


def point_ident(point) -> str:
    """Stable identity used to break exact objective ties."""
    return point.cid


def dominates_vec(a: Sequence, b: Sequence) -> bool:
    """True if vector *a* is no worse everywhere and better somewhere."""
    if len(a) != len(b):
        raise ValueError("objective vectors differ in length")
    no_worse = all(x <= y for x, y in zip(a, b))
    return no_worse and any(x < y for x, y in zip(a, b))


def dominates(a, b) -> bool:
    """True if point *a* dominates point *b* (minimize every objective)."""
    return dominates_vec(point_objectives(a), point_objectives(b))


def pareto_front(points: Iterable) -> list:
    """Non-dominated subset, sorted by ascending objective vector.

    Exact-duplicate objective vectors collapse to the representative
    with the smallest identity, so the result does not depend on input
    order.
    """
    pts = list(points)
    vecs = [point_objectives(p) for p in pts]
    front: dict[tuple, object] = {}
    for p, v in zip(pts, vecs):
        if any(dominates_vec(w, v) for w in vecs):
            continue
        kept = front.get(v)
        if kept is None or point_ident(p) < point_ident(kept):
            front[v] = p
    return [front[v] for v in sorted(front)]


class ParetoFront:
    """Streaming frontier accumulator with dominated-point pruning.

    ``add`` keeps the invariant that the retained set is mutually
    non-dominated with unique objective vectors.  The final
    :meth:`front` is identical to batch :func:`pareto_front` over the
    same points in any arrival order.
    """

    def __init__(self) -> None:
        self._kept: dict[tuple, object] = {}
        self.seen = 0
        self.pruned = 0
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._kept)

    def add(self, point) -> bool:
        """Offer one point; returns True if it joins the frontier."""
        self.seen += 1
        vec = point_objectives(point)
        twin = self._kept.get(vec)
        if twin is not None:
            # Exact tie: the smaller identity is the canonical survivor.
            if point_ident(point) < point_ident(twin):
                self._kept[vec] = point
                self._note_prune(twin, by=point, reason="tie")
                self._note_point(point)
                return True
            self._note_prune(point, by=twin, reason="tie")
            return False
        for kvec, kept in self._kept.items():
            if dominates_vec(kvec, vec):
                self.pruned += 1
                self._note_prune(point, by=kept, reason="dominated")
                return False
        beaten = [kvec for kvec in self._kept if dominates_vec(vec, kvec)]
        for kvec in beaten:
            evicted = self._kept.pop(kvec)
            self.evicted += 1
            self._note_prune(evicted, by=point, reason="evicted")
        self._kept[vec] = point
        self._note_point(point)
        return True

    def extend(self, points: Iterable) -> None:
        for p in points:
            self.add(p)

    def front(self) -> list:
        """Retained points, sorted by ascending objective vector."""
        return [self._kept[v] for v in sorted(self._kept)]

    # -- observability -----------------------------------------------------
    @staticmethod
    def _note_point(point) -> None:
        if BUS.enabled:
            BUS.emit(
                "dse.point",
                point_ident(point),
                objectives=point_objectives(point),
            )
            REGISTRY.counter(
                "dse.frontier_admissions_total",
                "points admitted to the streaming Pareto frontier",
            ).inc()

    @staticmethod
    def _note_prune(point, *, by, reason: str) -> None:
        if BUS.enabled:
            BUS.emit(
                "dse.prune",
                point_ident(point),
                by=point_ident(by),
                reason=reason,
            )
            REGISTRY.counter(
                "dse.pruned_total",
                "points pruned as dominated/tied/evicted",
            ).inc()


__all__ = [
    "OBJECTIVES",
    "ParetoFront",
    "dominates",
    "dominates_vec",
    "pareto_front",
    "point_ident",
    "point_objectives",
]
