#!/usr/bin/env python3
"""Design-space exploration over the Otsu partitions (future-work extension).

Evaluates every buildable hardware/software partition of the Otsu
application through the real flow + simulator, prints the area/latency
landscape and the Pareto front, and compares a greedy heuristic's
trajectory against it.

Run:  python examples/dse_explore.py
"""

from repro.dse import (
    CampaignConfig,
    explore,
    greedy_partition,
    otsu_directives_space,
    pareto_front,
    run_campaign,
)
from repro.util.text import format_table


def main() -> None:
    print("evaluating every buildable partition (flow + simulation) ...\n")
    points = explore(width=24, height=24)

    rows = [
        [p.label(), p.lut, p.ff, p.bram18, p.dsp, p.cycles]
        for p in sorted(points, key=lambda p: p.cycles)
    ]
    print(
        format_table(
            ["partition", "LUT", "FF", "BRAM18", "DSP", "cycles"],
            rows,
            title="All evaluated partitions (sorted by latency):",
        )
    )

    front = pareto_front(points)
    print("\nPareto front (minimize LUT, minimize cycles):")
    for p in front:
        print(f"  {p.label():<40} LUT={p.lut:<6} cycles={p.cycles}")

    print("\nGreedy heuristic trajectory (best cycles-per-LUT step):")
    trajectory = greedy_partition(width=24, height=24)
    for step, p in enumerate(trajectory):
        print(f"  step {step}: {p.label():<40} LUT={p.lut:<6} cycles={p.cycles}")

    final = trajectory[-1]
    on_front = any(
        q.lut == final.lut and q.cycles == final.cycles for q in front
    )
    print(f"\ngreedy final point on the exhaustive Pareto front: {on_front}")

    # Second dimension: once the partition is fixed (Arch4), sweep the
    # PIPELINE directives the flow forwards to HLS per core.
    print("\nDirective sweep over Arch4 (what to PIPELINE):")
    sweep = run_campaign(
        CampaignConfig(space=otsu_directives_space(), width=24, height=24)
    )
    for p in sorted(sweep.points, key=lambda p: p.cycles):
        label = "+".join(p.candidate.get("pipelined")) or "none"
        print(f"  {label:<38} cycles={p.cycles}")

if __name__ == "__main__":
    main()

