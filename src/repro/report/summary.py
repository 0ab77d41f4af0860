"""Machine-readable paper-vs-measured summary.

`experiment_summary` condenses every regenerated artifact into one
JSON-able dict — the regression fingerprint a CI job can diff against a
committed baseline, and the data EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import Any

from repro.report.codesize import compare_code_size
from repro.report.experiments import (
    ArchBuild,
    PAPER_TABLE2,
    regenerate_fig7,
    regenerate_fig9,
    regenerate_table1,
    regenerate_table2,
)


def experiment_summary(builds: dict[int, ArchBuild]) -> dict[str, Any]:
    """All headline numbers from one build set, as plain values."""
    t1 = regenerate_table1(builds)
    t2 = regenerate_table2(builds)
    f9 = regenerate_fig9(builds)
    f7 = regenerate_fig7(width=128, height=128)
    cs = compare_code_size(builds[4].flow)

    cycles: dict[str, int] = {}
    bit_exact: dict[str, bool] = {}
    for arch, build in builds.items():
        report = build.app.simulate(build.flow.system)
        cycles[f"arch{arch}"] = report.cycles
        bit_exact[f"arch{arch}"] = build.app.matches(report)

    return {
        "table1": {f"arch{a}": row for a, row in t1.rows.items()},
        "table2": {
            "measured": {f"arch{a}": list(r) for a, r in t2.measured.items()},
            "paper": {f"arch{a}": list(r) for a, r in PAPER_TABLE2.items()},
            "bram_dsp_exact": all(
                t2.measured[a][2:] == PAPER_TABLE2[a][2:] for a in t2.measured
            ),
        },
        "fig7": {"threshold": f7.threshold,
                 "foreground": float((f7.binary > 0).mean())},
        "fig9": {
            "total_minutes": round(f9.total_minutes, 2),
            "paper_minutes": 42.0,
            "per_arch": {f"arch{a}": row for a, row in f9.breakdown.items()},
        },
        "code_size": {
            "line_ratio": round(cs.line_ratio, 2),
            "char_ratio": round(cs.char_ratio, 2),
            "paper_band": {"lines": 4.0, "chars": [4.0, 10.0]},
        },
        "simulation": {"cycles": cycles, "bit_exact": bit_exact},
    }
