"""Regeneration of the paper's tables and figures (Section VI).

``build_all_architectures`` runs the flow for Arch1-4 the way the paper
did — Arch4 first, reusing its synthesized cores for the other three —
and the per-artifact functions derive Table I, Table II, Fig. 7, Fig. 9
and Fig. 10 from those builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.otsu import ARCHITECTURES, OtsuApplication, build_otsu_app
from repro.apps.otsu.csrc import ACTOR_TO_TABLE1
from repro.flow.buildcache import BuildCache
from repro.flow.orchestrator import CoreBuild, FlowConfig, FlowResult
from repro.util.text import format_table

#: The four architectures of Table I.
OTSU_ARCHS = (1, 2, 3, 4)

#: Paper-reported Table II rows: arch -> (LUT, FF, RAMB18, DSP).
PAPER_TABLE2 = {
    1: (3809, 4562, 5, 0),
    2: (7834, 9951, 4, 2),
    3: (8190, 10234, 5, 2),
    4: (9312, 11256, 5, 3),
}

#: Paper-reported total generation time for all four solutions.
PAPER_TOTAL_MINUTES = 42.0


@dataclass
class ArchBuild:
    """One architecture: the application plus its flow result."""

    app: OtsuApplication
    flow: FlowResult


def build_all_architectures(
    *,
    width: int = 64,
    height: int = 64,
    config: FlowConfig | None = None,
    jobs: int | None = None,
    cache_dir: str | None = None,
) -> dict[int, ArchBuild]:
    """Run the flow for Arch1-4, Arch4 first with core reuse (Section VI-B).

    *jobs*/*cache_dir* are conveniences that build a :class:`FlowConfig`
    when *config* is not given; one :class:`BuildCache` instance is
    shared across the four builds so later architectures hit the
    artifacts the earlier ones stored.
    """
    if config is None and (jobs is not None or cache_dir is not None):
        config = FlowConfig(jobs=jobs or 1, cache_dir=cache_dir)
    build_cache = (
        BuildCache(config.cache_dir)
        if config is not None and config.cache_dir is not None
        else None
    )
    builds: dict[int, ArchBuild] = {}
    core_cache: dict[str, CoreBuild] = {}
    for arch in (4, 1, 2, 3):
        app = build_otsu_app(arch, width=width, height=height)
        flow = app.build(
            core_cache=core_cache, config=config, build_cache=build_cache
        )
        if arch == 4:
            core_cache.update(flow.cores)
        builds[arch] = ArchBuild(app, flow)
    return builds


# --- Table I -------------------------------------------------------------------
@dataclass
class Table1Result:
    rows: dict[int, dict[str, bool]]

    def render(self) -> str:
        funcs = ("grayScale", "histogram", "otsuMethod", "binarization")
        body = [
            [f"Arch{arch}"] + ["x" if self.rows[arch][f] else "" for f in funcs]
            for arch in sorted(self.rows)
        ]
        return format_table(
            ["Solution", *funcs], body, title="Table I — functions in hardware"
        )


def regenerate_table1(builds: dict[int, ArchBuild] | None = None) -> Table1Result:
    """Which functions each generated solution implements in hardware.

    Derived from the built systems themselves (the hardware cores present
    in each block design), not from the requested configuration — so the
    table checks the generator did what Table I says.
    """
    rows: dict[int, dict[str, bool]] = {}
    if builds is None:
        # Structure-only: derive from the applications without running HLS.
        for arch in OTSU_ARCHS:
            hw = ARCHITECTURES[arch]
            rows[arch] = {
                f: f in hw
                for f in ("grayScale", "histogram", "otsuMethod", "binarization")
            }
        return Table1Result(rows)
    for arch, build in builds.items():
        present = {
            ACTOR_TO_TABLE1[node.name]
            for node in build.flow.graph.nodes
            if node.name in ACTOR_TO_TABLE1
        }
        rows[arch] = {
            f: f in present
            for f in ("grayScale", "histogram", "otsuMethod", "binarization")
        }
    return Table1Result(rows)


# --- Table II ------------------------------------------------------------------
@dataclass
class Table2Result:
    measured: dict[int, tuple[int, int, int, int]]
    paper: dict[int, tuple[int, int, int, int]] = field(
        default_factory=lambda: dict(PAPER_TABLE2)
    )

    def render(self) -> str:
        body = []
        for arch in sorted(self.measured):
            m = self.measured[arch]
            p = self.paper[arch]
            body.append(
                [
                    f"Arch{arch}",
                    f"{m[0]} ({p[0]})",
                    f"{m[1]} ({p[1]})",
                    f"{m[2]} ({p[2]})",
                    f"{m[3]} ({p[3]})",
                ]
            )
        return format_table(
            ["Solution", "LUT", "FF", "RAMB18", "DSP"],
            body,
            title="Table II — resources, measured (paper)",
        )

    def monotone_in_hw(self) -> bool:
        """More hardware functions never costs fewer LUT/FF."""
        order = [1, 2, 3, 4]
        luts = [self.measured[a][0] for a in order]
        # Arch1 < Arch2 < Arch3 < Arch4 in the paper's LUT column.
        return all(a < b for a, b in zip(luts, luts[1:]))


def regenerate_table2(builds: dict[int, ArchBuild]) -> Table2Result:
    measured = {
        arch: build.flow.bitstream.utilization.as_row()
        for arch, build in builds.items()
    }
    return Table2Result(measured)


# --- Fig. 7 -------------------------------------------------------------------
@dataclass
class Fig7Result:
    gray: np.ndarray  # (H, W) uint8 input, grayscale
    binary: np.ndarray  # (H, W) uint8 filtered output
    threshold: int

    def render(self) -> str:
        fg = float((self.binary > 0).mean())
        return (
            f"Fig. 7 — Otsu filter: threshold={self.threshold}, "
            f"foreground={fg:.1%} of pixels, "
            f"images {self.gray.shape[1]}x{self.gray.shape[0]}"
        )


def regenerate_fig7(*, width: int = 256, height: int = 256, seed: int = 2016) -> Fig7Result:
    """The original/filtered image pair of Fig. 7 (golden pipeline)."""
    from repro.apps.image import pack_rgb, synthetic_scene
    from repro.apps.otsu.golden import golden_pipeline

    scene = synthetic_scene(width, height, seed=seed)
    out = golden_pipeline(pack_rgb(scene).astype(np.int32))
    gray = np.asarray(out["gray"], dtype=np.uint8).reshape(height, width)
    binary = np.asarray(out["binary"], dtype=np.uint8).reshape(height, width)
    return Fig7Result(gray=gray, binary=binary, threshold=int(out["threshold"]))


# --- Fig. 9 -------------------------------------------------------------------
@dataclass
class Fig9Result:
    #: arch -> phase -> modeled seconds.
    breakdown: dict[int, dict[str, float]]
    #: arch -> per-core build records (name, seconds, source, wave).
    cores: dict[int, list[dict]] = field(default_factory=dict)
    #: arch -> {"hits": n, "misses": n} from the content-addressed cache.
    cache: dict[int, dict[str, int]] = field(default_factory=dict)
    #: arch -> modeled wall-clock seconds (== cpu-time on the serial path).
    wall: dict[int, float] = field(default_factory=dict)
    #: arch -> {"resumed": bool, "steps_skipped": n, "crash_recoveries": n}.
    resume: dict[int, dict] = field(default_factory=dict)

    @property
    def total_minutes(self) -> float:
        return sum(sum(row.values()) for row in self.breakdown.values()) / 60.0

    @property
    def total_wall_minutes(self) -> float:
        """Wall-clock minutes under the executed schedule (cpu if unknown)."""
        if not self.wall:
            return self.total_minutes
        return sum(self.wall.values()) / 60.0

    @property
    def cache_hits(self) -> int:
        return sum(c.get("hits", 0) for c in self.cache.values())

    def render(self) -> str:
        body = []
        for arch in sorted(self.breakdown):
            row = self.breakdown[arch]
            body.append(
                [
                    f"Arch{arch}",
                    f"{row['SCALA']:.1f}",
                    f"{row['HLS']:.1f}",
                    f"{row['PROJECT']:.1f}",
                    f"{row['SYNTH']:.1f}",
                    f"{sum(row.values()):.1f}",
                ]
            )
        table = format_table(
            ["Solution", "SCALA", "HLS", "PROJECT", "SYNTH", "total (s)"],
            body,
            title="Fig. 9 — generation-time breakdown (modeled seconds)",
        )
        lines = [
            table,
            f"total: {self.total_minutes:.1f} min "
            f"(paper: {PAPER_TOTAL_MINUTES:.0f} min for all four)",
        ]
        for arch in sorted(self.cores):
            per_core = ", ".join(
                f"{c['name']}={c['seconds']:.1f}s[{c['source']}/w{c['wave']}]"
                for c in self.cores[arch]
            )
            lines.append(f"  Arch{arch} cores: {per_core}")
        if self.cache:
            hits = self.cache_hits
            misses = sum(c.get("misses", 0) for c in self.cache.values())
            lines.append(
                f"build cache: {hits} hits / {misses} misses; "
                f"wall-clock {self.total_wall_minutes:.1f} min "
                f"vs cpu-time {self.total_minutes:.1f} min"
            )
        resumed = {a: r for a, r in self.resume.items() if r.get("resumed")}
        if resumed:
            # A resumed run's phase seconds only cover the re-executed
            # tail — flag it so the figure is never read as a cold build.
            detail = ", ".join(
                f"Arch{a}: {r.get('steps_skipped', 0)} step(s) skipped, "
                f"{r.get('crash_recoveries', 0)} recovered"
                for a, r in sorted(resumed.items())
            )
            lines.append(f"resumed builds (timings are partial): {detail}")
        return "\n".join(lines)


def regenerate_fig9(builds: dict[int, ArchBuild]) -> Fig9Result:
    breakdown = {}
    cores: dict[int, list[dict]] = {}
    cache: dict[int, dict[str, int]] = {}
    wall: dict[int, float] = {}
    resume: dict[int, dict] = {}
    for arch, build in builds.items():
        report = build.flow.timing.report()
        row = {phase: report[phase] for phase in ("SCALA", "HLS", "PROJECT", "SYNTH")}
        breakdown[arch] = row
        cores[arch] = report["cores"]
        cache[arch] = report["cache"]
        wall[arch] = build.flow.timing.total_wall_s
        resume[arch] = report.get("resume", {})
    return Fig9Result(breakdown, cores=cores, cache=cache, wall=wall, resume=resume)


# --- Fig. 10 -------------------------------------------------------------------
@dataclass
class Fig10Result:
    diagrams: dict[int, str]

    def render(self) -> str:
        lines = ["Fig. 10 — generated architectures (graphviz dot):"]
        for arch in sorted(self.diagrams):
            n_edges = self.diagrams[arch].count("->")
            lines.append(f"  Arch{arch}: {n_edges} bus connections")
        return "\n".join(lines)


def regenerate_fig10(builds: dict[int, ArchBuild]) -> Fig10Result:
    return Fig10Result(
        {arch: build.flow.design.to_diagram() for arch, build in builds.items()}
    )
