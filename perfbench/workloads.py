"""The benchmark's workloads: sim-table1, dse-otsu and service-builds.

Each workload has a set-up (repeated, so its median is a steady
``setup_s``), a measured window that runs requests for a given number
of seconds, and correctness gates that count every wrong output as a
failed request.  The public ``repro`` API is called through module
attributes (``runtime.simulate_application``), so the traced run's
wrappers see the benchmark's own calls as well as the program's.

``repro`` must already be importable (``run.py`` pins the environment
and the import path first).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro.apps.generator as generator
import repro.apps.otsu.app as otsu_app
import repro.dse.campaign as campaign
import repro.dse.evaluate as evaluate
import repro.dse.space as dse_space
import repro.flow.orchestrator as orchestrator
import repro.flow.workspace as workspace
import repro.sim.runtime as runtime
from repro.dsl.codegen import emit_dsl
from repro.hls import fncache
from repro.service.daemon import BuildService
from repro.service.jobs import DONE, JobSpec, SimSpec
from repro.util.errors import ReproError

from tracing import Tracer

SETUP_REPEATS = 9

#: Table I at two sizes; 128x128 is the largest the 16-bit histogram
#: bins of halfProbability allow.
SIM_PAIRS = tuple((arch, size) for size in (64, 128) for arch in (1, 2, 3, 4))

#: Digest of one full otsu_space() campaign at 16x16.  It covers every
#: point's cycles and resources, so a change that only makes the engine
#: faster leaves it unchanged.
DSE_CAMPAIGN_DIGEST = "bad6129a66329e17ac309874c5698ff18234ef94461af299915187bf3ac467a3"

#: Distinct submissions in one pass of service-builds.  Odd, so the
#: traced run's alternation of untraced and traced jobs gives each side
#: every design over two passes.
SERVICE_POOL = 47
SERVICE_TENANTS = ("t-alpha", "t-beta", "t-gamma")
STREAM_DEPTH = 16


@dataclass
class Window:
    """What one measured window produced."""

    units: int = 0  # sweeps, campaigns or jobs
    requests: int = 0  # simulations, candidates or jobs
    attempted: int = 0
    failed: int = 0
    busy_s: float = 0.0  # time spent inside requests
    sim_cycles: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(why)

    def merge(self, other: "Window") -> None:
        for name in ("units", "requests", "attempted", "failed", "busy_s",
                     "sim_cycles"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.latencies += other.latencies
        self.problems += other.problems[: 20 - len(self.problems)]


def clear_fn_memo() -> None:
    """Empty the process-wide per-function HLS memo, so a build is cold."""
    cache = fncache.active_cache()
    if cache is not None:
        cache.clear()


# -- sim-table1 ------------------------------------------------------------------


class SimTable1:
    """Closed loop, one client: ``simulate_application`` round-robin over
    the four Table-I systems at 64x64 and 128x128 (one sweep = 8 runs)."""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        self.scene_seed = seed
        self.sweeps = 0
        self.systems: dict[tuple[int, int], tuple] = {}
        self.results: dict[tuple[int, int], list[tuple[int, str]]] = {}

    def setup(self) -> None:
        clear_fn_memo()
        systems = {}
        for arch, size in SIM_PAIRS:
            app = otsu_app.build_otsu_app(
                arch, width=size, height=size, seed=self.scene_seed
            )
            flow = orchestrator.run_flow(
                app.dsl_graph(),
                app.c_sources,
                extra_directives=app.extra_directives,
                config=orchestrator.FlowConfig(jobs=1, cache_dir=None),
            )
            systems[(arch, size)] = (app, flow.system)
        self.systems = systems

    def _simulate(self, arch: int, size: int, *, burst_mode=None):
        app, system = self.systems[(arch, size)]
        return runtime.simulate_application(
            app.htg, app.partition, app.behaviors, {},
            system=system, burst_mode=burst_mode,
        )

    def window(self, seconds: float, tracer: Tracer | None = None,
               units: int | None = None) -> Window:
        w = Window()
        start = time.perf_counter()
        while (units is None and time.perf_counter() - start < seconds) or (
            units is not None and w.units < units
        ):
            sweep_s = 0.0
            for arch, size in SIM_PAIRS:
                rid = f"sweep{self.sweeps}/arch{arch}@{size}"
                ctx = tracer.request(rid) if tracer else contextlib.nullcontext()
                t0 = time.perf_counter()
                with ctx:
                    report = self._simulate(arch, size)
                dt = time.perf_counter() - t0
                sweep_s += dt
                w.requests += 1
                w.attempted += 1
                w.sim_cycles += report.cycles
                app = self.systems[(arch, size)][0]
                if not np.array_equal(
                    report.of("binImage"), np.asarray(app.golden["binary"])
                ):
                    w.fail(1, f"{rid}: binImage differs from the numpy golden")
                self.results.setdefault((arch, size), []).append(
                    (report.cycles, report.digest())
                )
            self.sweeps += 1
            w.units += 1
            w.busy_s += sweep_s
            w.latencies.append(sweep_s)
        return w

    def verify(self, w: Window) -> None:
        """Every burst-path report must equal the word-path reference."""
        for (arch, size), seen in self.results.items():
            ref = self._simulate(arch, size, burst_mode=False)
            want = (ref.cycles, ref.digest())
            bad = sum(1 for got in seen if got != want)
            if bad:
                w.fail(bad, f"arch{arch}@{size}: {bad} reports differ from the word path")
        self.results.clear()


# -- dse-otsu ----------------------------------------------------------------------


class DseOtsu:
    """Closed loop: one full ``run_campaign`` over ``otsu_space()`` per
    request (63 candidates at 16x16, jobs=1), fresh store and journal."""

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        # evaluate_candidate hard-codes the Otsu scene, so the seed does
        # not vary this workload's input.
        self.work = work
        self.space = None
        self._n = 0

    def _fresh_dir(self) -> Path:
        self._n += 1
        d = self.work / f"campaign{self._n}"
        d.mkdir(parents=True)
        return d

    def _done_with(self, d: Path) -> None:
        # Each store dir gets its own in-process FunctionCache; drop it
        # with the directory so memory stays flat across campaigns.
        fncache._BY_DIR.pop(str(d / "fn"), None)
        shutil.rmtree(d, ignore_errors=True)

    def setup(self) -> None:
        """Build the space and evaluate the SDSoC baseline and the first
        eight candidates cold, in memory, so lazy imports and first-use
        costs are paid before the window opens."""
        self.space = dse_space.otsu_space()
        clear_fn_memo()
        campaign.sdsoc_baseline_point()
        for candidate in sorted(self.space, key=lambda c: c.cid)[:8]:
            evaluate.evaluate_candidate(candidate)

    def window(self, seconds: float, tracer: Tracer | None = None,
               units: int | None = None) -> Window:
        w = Window()
        start = time.perf_counter()
        while (units is None and time.perf_counter() - start < seconds) or (
            units is not None and w.units < units
        ):
            d = self._fresh_dir()
            config = campaign.CampaignConfig(
                space=self.space,
                jobs=1,
                fn_cache_dir=str(d / "fn"),
                journal_path=str(d / "campaign.jsonl"),
            )
            n = len(self.space)
            rid = d.name
            ctx = tracer.request(rid) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            try:
                with ctx:
                    result = campaign.run_campaign(config)
            except ReproError as exc:  # raised for wrong candidates
                dt = time.perf_counter() - t0
                w.fail(n, f"{rid}: {type(exc).__name__}: {exc}")
            else:
                dt = time.perf_counter() - t0
                wrong = sum(1 for p in result.points if not p.correct)
                if not result.completed or len(result.points) != n:
                    w.fail(n, f"{rid}: incomplete")
                elif result.digest != DSE_CAMPAIGN_DIGEST:
                    w.fail(n, f"{rid}: digest {result.digest[:12]}")
                elif wrong:
                    w.fail(wrong, f"{rid}: {wrong} wrong points")
                w.sim_cycles += sum(p.cycles for p in result.points)
            self._done_with(d)
            w.units += 1
            w.requests += n
            w.attempted += n
            w.busy_s += dt
            w.latencies.append(dt)
        return w

    def verify(self, w: Window) -> None:
        pass  # every campaign is checked as it completes


# -- service-builds ------------------------------------------------------------------


def design_spec(graph_seed: int, k: int, *, sim: bool) -> JobSpec:
    """The *k*-th shape of the job mix as a seeded random design.

    The shape (8..18 cores, 1..3 stream chains of 2..4 stages, the rest
    AXI-Lite cores) cycles with *k*, so every seed builds the same mix;
    *graph_seed* picks the cores' constants.
    """
    nodes = 8 + (k * 7) % 11
    chains = 1 + k % 3
    length = min(2 + (k // 3) % 3, (nodes - 1) // chains)
    graph, sources = generator.random_task_graph(
        lite_nodes=nodes - chains * length,
        stream_chains=chains,
        chain_length=length,
        stream_depth=STREAM_DEPTH,
        seed=graph_seed,
    )
    return JobSpec(
        dsl=emit_dsl(graph),
        sources=sources,
        sim=SimSpec(seed=graph_seed % 1000) if sim else None,
    )


def service_jobs(seed: int) -> list[tuple[str, JobSpec]]:
    """One pass of SERVICE_POOL (tenant, spec) submissions.

    A quarter of the jobs carry a SimSpec, at odd and even positions
    alike, so both sides of the traced run's alternation simulate from
    the first pass on.  Every sixteenth resubmits an earlier design under
    another tenant (a cross-tenant duplicate the shared build cache
    serves); the seed picks the designs.
    """
    jobs: list[tuple[str, JobSpec]] = []
    for k in range(SERVICE_POOL):
        if k % 16 == 15:
            tenant, spec = jobs[k - 8]
            other = SERVICE_TENANTS[(SERVICE_TENANTS.index(tenant) + 1) % 3]
            jobs.append((other, spec))
            continue
        spec = design_spec((seed << 20) + k, k, sim=(k % 8 in (0, 5)))
        jobs.append((SERVICE_TENANTS[k % 3], spec))
    return jobs


class _Service:
    """One BuildService (one worker, tcl check on) on a fresh root, with
    the event loop the client drives it from."""

    def __init__(self, root: Path) -> None:
        self.svc = BuildService(root, workers=1, check_tcl=True)
        self.loop = asyncio.new_event_loop()

    def run(self, tenant: str, spec: JobSpec):
        """Submit one job and run it to a terminal state; its record."""
        record = self.svc.submit(tenant, spec)
        self.loop.run_until_complete(self.svc.drain())
        return record

    def close(self) -> None:
        self.svc.close()
        self.loop.close()
        shutil.rmtree(self.svc.store.root, ignore_errors=True)


class ServiceBuilds:
    """Closed loop, one client: three tenants' cold builds of seeded
    random designs, submitted one at a time to an in-process BuildService.

    The window cycles through one pass of ``service_jobs(seed)``; each
    pass gets a fresh service root, and every job starts from an empty
    per-function memo, so every build is cold.
    """

    def __init__(self, seed: int, work: Path, seconds: float) -> None:
        self.seed = seed
        self.work = work
        self.jobs: list[tuple[str, JobSpec]] = []
        self.service: _Service | None = None
        self.passes = 0
        self.next = 0  # position in the current pass
        self.done: list[tuple[str, str, JobSpec]] = []  # (request id, digest, spec)
        self._n = 0

    def _open(self) -> _Service:
        self._n += 1
        return _Service(self.work / f"service{self._n}")

    def setup(self) -> None:
        """Build the job pass, start and stop a service on a fresh root,
        and build one design directly, cold, so lazy imports and
        first-use costs are paid before the window opens.

        The warm-up build skips the durable layers: their fsyncs made
        set-up time swing by half between runs.
        """
        self.jobs = service_jobs(self.seed)
        self._open().close()
        clear_fn_memo()
        self._reference(design_spec((self.seed << 20) - 1, 5, sim=True))

    def window(self, seconds: float, tracer: Tracer | None = None,
               units: int | None = None) -> Window:
        w = Window()
        start = time.perf_counter()
        while (units is None and time.perf_counter() - start < seconds) or (
            units is not None and w.units < units
        ):
            if self.service is None or self.next == len(self.jobs):
                if self.service is not None:
                    self.service.close()
                self.service = self._open()
                self.passes += 1
                self.next = 0
            tenant, spec = self.jobs[self.next]
            rid = f"pass{self.passes}/job{self.next}"
            self.next += 1
            clear_fn_memo()
            ctx = tracer.request(rid) if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with ctx:
                record = self.service.run(tenant, spec)
            dt = time.perf_counter() - t0
            w.units += 1
            w.requests += 1
            w.attempted += 1
            w.busy_s += dt
            w.latencies.append(dt)
            if record.state != DONE:
                w.fail(1, f"{rid}: ended {record.state}: {record.error}")
                continue
            self.done.append((rid, record.artifact_digest, spec))
            if spec.sim is not None:
                path = self.service.svc.store.sim_path(tenant, record.job_id)
                w.sim_cycles += json.loads(path.read_text())["cycles"]
        return w

    def verify(self, w: Window) -> None:
        """Close the service; each job's artifact digest must equal a
        direct build's.

        The reference is the digest ``materialize`` would publish for a
        direct ``run_flow`` of the same spec (built without the tcl
        re-execution check, which does not change artifacts); the tree
        itself is not written, which halves the cost of the check.
        """
        if self.service is not None:
            self.service.close()
            self.service = None
        refs: dict[str, str] = {}
        for rid, digest, spec in self.done:
            key = spec.content_digest()
            if key not in refs:
                clear_fn_memo()
                refs[key] = self._reference(spec)
            if refs[key] != digest:
                w.fail(1, f"{rid}: artifact digest differs from a direct build")
        self.done.clear()

    @staticmethod
    def _reference(spec: JobSpec) -> str:
        """The artifact digest of a direct build of *spec*."""
        result = orchestrator.run_flow(
            spec.dsl,
            dict(spec.sources),
            extra_directives={n: list(d) for n, d in spec.directives.items()},
            config=orchestrator.FlowConfig(check_tcl=False, jobs=1, cache_dir=None),
        )
        files = workspace.workspace_files(result)
        return workspace.manifest_for(files)["artifact_digest"]
