"""X3 — design-space exploration over the Otsu partitions (future work).

The first leg runs one paired-DMA campaign (every buildable partition ×
PIPELINE subset, real flow + simulated execution) and reads everything
off its points: the all-pipelined point of each partition, their
five-objective Pareto front, and the greedy heuristic's trajectory,
which must end on that front.  No candidate is evaluated twice.  The
second leg runs the full campaign engine — partitions × PIPELINE
subsets × DMA policies through a process pool sharing one per-function
HLS store — and requires the frontier to dominate the SDSoC
one-DMA-per-stream baseline.
"""

import tempfile

from conftest import save_artifact

from repro.apps.otsu.app import buildable_hw_sets
from repro.dse import (
    CampaignConfig,
    all_pipelined_candidate,
    dominates,
    frontier_dominates,
    greedy_partition,
    otsu_space,
    pareto_front,
    run_campaign,
    sdsoc_baseline_point,
)
from repro.util.text import format_table


def test_dse_pareto(benchmark):
    with tempfile.TemporaryDirectory(prefix="bench-dse-") as td:
        result = benchmark.pedantic(
            lambda: run_campaign(
                CampaignConfig(
                    space=otsu_space(dma_policies=("paired",)),
                    fn_cache_dir=f"{td}/fn",
                )
            ),
            rounds=1,
            iterations=1,
        )
    by_cid = {p.cid: p for p in result.points}
    points = [by_cid[all_pipelined_candidate(hw).cid] for hw in buildable_hw_sets()]
    front = pareto_front(points)
    rows = [
        (
            "+".join(p.candidate.get("hw")) or "all-sw",
            p.lut,
            p.dsp,
            p.cycles,
            "front" if p in front else "",
        )
        for p in sorted(points, key=lambda p: p.lut)
    ]
    text = format_table(
        ["partition", "LUT", "DSP", "cycles", ""],
        rows,
        title="X3 — exhaustive DSE over the Otsu partitions:",
    )
    print("\n" + text)
    save_artifact("dse.txt", text)

    assert all(p.correct for p in points)
    assert len(front) >= 2
    # The all-software point anchors the front's low-area end.
    assert front[0].lut == 0

    trajectory = greedy_partition(evaluator=lambda c: by_cid[c.cid])
    final = trajectory[-1]
    assert not any(dominates(q, final) for q in points)


def test_dse_campaign(benchmark):
    space = otsu_space()
    with tempfile.TemporaryDirectory(prefix="bench-dse-") as td:
        result = benchmark.pedantic(
            lambda: run_campaign(
                CampaignConfig(
                    space=space,
                    jobs=4,
                    fn_cache_dir=f"{td}/fn",
                    journal_path=f"{td}/campaign.jsonl",
                )
            ),
            rounds=1,
            iterations=1,
        )
        baseline = sdsoc_baseline_point(fn_cache_dir=f"{td}/fn")

    rows = [
        (p.label(), p.lut, p.ff, p.bram18, p.dsp, p.cycles)
        for p in result.front
    ]
    text = format_table(
        ["candidate", "LUT", "FF", "BRAM", "DSP", "cycles"],
        rows,
        title=(
            f"X3b — campaign frontier over {len(result.points)} candidates "
            f"(digest {result.digest[:12]}):"
        ),
    )
    print("\n" + text)
    save_artifact("dse_frontier.txt", text)

    assert result.completed
    assert all(p.correct for p in result.points)
    # The all-software anchor holds the frontier's low-area end, and the
    # frontier strictly beats SDSoC's one-DMA-per-stream policy.
    assert result.front[0].objectives()[:4] == (0, 0, 0, 0)
    assert frontier_dominates(result.front, baseline)
