#!/usr/bin/env python3
"""Design-space exploration over the Otsu partitions (future-work extension).

Runs one campaign over every buildable hardware/software partition ×
PIPELINE subset on paired DMAs (real flow + simulator per candidate)
and reads everything off its points: the all-pipelined point of each
partition, their Pareto front over the five objectives, a greedy
heuristic's trajectory through the same candidates, and the PIPELINE
sweep over the Table-I Arch4 partition.  No candidate is evaluated
twice.

Run:  python examples/dse_explore.py
"""

from repro.apps.otsu.app import ARCHITECTURES, buildable_hw_sets
from repro.dse import (
    CampaignConfig,
    all_pipelined_candidate,
    greedy_partition,
    otsu_space,
    pareto_front,
    run_campaign,
)
from repro.util.text import format_table


def partition(point) -> str:
    return "+".join(point.candidate.get("hw")) or "all-sw"


def main() -> None:
    space = otsu_space(dma_policies=("paired",))
    print(f"evaluating {len(space)} candidates (flow + simulation) ...\n")
    result = run_campaign(CampaignConfig(space=space, width=24, height=24))
    by_cid = {p.cid: p for p in result.points}
    points = [by_cid[all_pipelined_candidate(hw).cid] for hw in buildable_hw_sets()]

    rows = [
        [partition(p), p.lut, p.ff, p.bram18, p.dsp, p.cycles]
        for p in sorted(points, key=lambda p: p.cycles)
    ]
    print(
        format_table(
            ["partition", "LUT", "FF", "BRAM18", "DSP", "cycles"],
            rows,
            title="Every partition, all actors pipelined (sorted by latency):",
        )
    )

    front = pareto_front(points)
    print("\nPareto front (minimize LUT, FF, BRAM18, DSP and cycles):")
    for p in front:
        print(
            f"  {partition(p):<44} LUT={p.lut:<6} BRAM18={p.bram18:<3} "
            f"cycles={p.cycles}"
        )

    print("\nGreedy heuristic trajectory (best cycles-per-LUT step):")
    trajectory = greedy_partition(evaluator=lambda c: by_cid[c.cid])
    for step, p in enumerate(trajectory):
        print(f"  step {step}: {partition(p):<44} LUT={p.lut:<6} cycles={p.cycles}")
    print(f"\ngreedy final point on the Pareto front: {trajectory[-1] in front}")

    # Second dimension: once the partition is fixed (Arch4), sweep the
    # PIPELINE directives the flow forwards to HLS per core.
    print("\nDirective sweep over Arch4 (what to PIPELINE):")
    arch4 = tuple(sorted(ARCHITECTURES[4]))
    sweep = [p for p in result.points if p.candidate.get("hw") == arch4]
    for p in sorted(sweep, key=lambda p: p.cycles):
        label = "+".join(p.candidate.get("pipelined")) or "none"
        print(f"  {label:<38} cycles={p.cycles}")


if __name__ == "__main__":
    main()
