"""X6 — directive-level DSE: PIPELINE subsets over the Arch4 actors.

Partitioning fixes *what* runs in hardware; the per-core directives the
DSL flow forwards to HLS decide *how well*.  Runs the 2^3-candidate
``otsu_directives_space()`` campaign (every PIPELINE subset over
grayScale/computeHistogram/segment), simulates each system, and reports
the latency/area landscape.
"""

import tempfile

from conftest import save_artifact

from repro.dse import CampaignConfig, otsu_directives_space, run_campaign
from repro.util.text import format_table


def pipelined_label(point) -> str:
    return "+".join(point.candidate.get("pipelined")) or "none"


def test_directive_dse(benchmark):
    with tempfile.TemporaryDirectory(prefix="bench-dse-dir-") as td:
        config = CampaignConfig(
            space=otsu_directives_space(),
            width=24,
            height=24,
            fn_cache_dir=f"{td}/fn",
        )
        result = benchmark.pedantic(
            lambda: run_campaign(config), rounds=1, iterations=1
        )
    points = result.points
    rows = [
        (pipelined_label(p), p.cycles, p.lut, p.ff, p.dsp)
        for p in sorted(points, key=lambda p: p.cycles)
    ]
    text = format_table(
        ["pipelined actors", "cycles", "LUT", "FF", "DSP"],
        rows,
        title="X6 — PIPELINE-directive sweep over Arch4:",
    )
    print("\n" + text)
    save_artifact("dse_directives.txt", text)

    by_label = {pipelined_label(p): p for p in points}
    full = by_label["computeHistogram+grayScale+segment"]
    none = by_label["none"]
    assert all(p.correct for p in points)
    assert full.cycles < none.cycles
    # Pipelining everything is the fastest configuration.
    assert full.cycles == min(p.cycles for p in points)
    # All eight configs share their C sources, so the shared per-function
    # store must carry at least half of all lookups even from cold.
    print(f"fn-cache: {result.fn_cache_hits} hits / {result.fn_cache_misses} "
          f"misses (rate {result.fn_cache_hit_rate:.2f})")
    assert result.fn_cache_hit_rate >= 0.5
