"""Greedy partitioning heuristic.

A simple hill-climber over the buildable hardware sets: starting from
all-software, repeatedly move the function whose acceleration buys the
most cycles per LUT, while the result stays buildable and keeps
improving.  Every step is a :class:`~repro.dse.space.Candidate` — the
partition with all its actors pipelined on paired DMAs — so the
trajectory is a walk through the campaign's own space and can be
checked against the exhaustive Pareto front of a finished campaign
(the case-study space is tiny, which is exactly why it makes a good
correctness reference).
"""

from __future__ import annotations

from typing import Callable

from repro.apps.otsu.app import buildable_hw_sets
from repro.dse.evaluate import EvalPoint, evaluate_candidate
from repro.dse.space import Candidate, all_pipelined_candidate


def greedy_partition(
    *,
    width: int = 32,
    height: int = 32,
    lut_budget: int | None = None,
    evaluator: Callable[[Candidate], EvalPoint] | None = None,
    fn_cache_dir: str | None = None,
) -> list[EvalPoint]:
    """Greedy trajectory from all-software; returns the visited points.

    The last element is the heuristic's chosen solution.  *evaluator*
    replaces :func:`evaluate_candidate` (a test double, or a lookup by
    cid into a finished campaign's points); *lut_budget* caps the area;
    *fn_cache_dir* shares one per-function memo store across the
    trajectory's flow runs, as a campaign's workers do.
    """
    if evaluator is None:

        def evaluator(candidate: Candidate) -> EvalPoint:  # noqa: F811
            return evaluate_candidate(
                candidate, width=width, height=height, fn_cache_dir=fn_cache_dir
            )

    buildable = buildable_hw_sets()
    remaining = set().union(*buildable)
    current = evaluator(all_pipelined_candidate(()))
    trajectory = [current]

    while remaining:
        best: EvalPoint | None = None
        best_gain = 0.0
        hw = frozenset(current.candidate.get("hw"))
        for func in sorted(remaining):
            if (hw | {func}) not in buildable:
                continue
            point = evaluator(all_pipelined_candidate(hw | {func}))
            if lut_budget is not None and point.lut > lut_budget:
                continue
            delta_cycles = current.cycles - point.cycles
            delta_lut = max(1, point.lut - current.lut)
            gain = delta_cycles / delta_lut
            if delta_cycles > 0 and gain > best_gain:
                best, best_gain = point, gain
        if best is None:
            break
        current = best
        trajectory.append(current)
        remaining -= set(current.candidate.get("hw"))
    return trajectory
