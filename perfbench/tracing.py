"""Outside-in span tracing for the benchmark.

The traced run wraps public functions and methods of ``repro`` modules
with span recorders, and restores the originals when it ends; nothing
under ``src/`` knows it is being traced.  A function is replaced at its
defining module *and* at every ``repro`` module that imported it by
name (``from repro.sim.runtime import simulate_application`` binds a
second reference that patching the defining module alone would miss).

Every span carries a name, start, end, parent span and the request or
job id it belongs to.  Every workload has one request in flight at a
time, so the current request is process-wide: a service job's spans on
the service's worker thread belong to the request that submitted it.
Spans stay in memory and are written out when the benchmark ends.  A
layer's self time is its duration minus the time its child spans
cover; children always run on the parent's thread, so they never
overlap one another and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


class MissingWrapTarget(RuntimeError):
    """A wrapped public function no longer exists in ``repro``."""


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # 0 for a root span
    request: str

    def as_dict(self) -> dict:
        return {
            "id": self.sid,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
        }


class Tracer:
    """In-memory span and counter recorder shared by every wrapper."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        #: request id -> (start, end) of the client's call
        self.requests: dict[str, tuple[float, float]] = {}
        self.current = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- request attribution -------------------------------------------
    @contextmanager
    def request(self, request_id: str):
        """Attribute every span opened until the block ends to *request_id*."""
        self.current = request_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self.requests[request_id] = (start, time.perf_counter())
            self.current = ""

    def add(self, counts: dict[str, float]) -> None:
        with self._lock:
            self.counters.update(counts)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn: Callable, layer: "Layer") -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent_id, parent_name = stack[-1] if stack else (0, "")
            name = layer.name_for(parent_name)
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if layer.on_result is not None:
                name = layer.on_result(tracer, name, result) or name
            tracer.spans.append(Span(sid, name, start, end, parent_id, tracer.current))
            return result

        return traced

    # -- aggregation -------------------------------------------------------
    def layer_totals(self) -> dict[str, dict[str, float]]:
        """name -> {calls, busy_s, self_s} over every recorded span."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent:
                child_time[s.parent] += s.end - s.start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            dur = s.end - s.start
            t = totals[s.name]
            t["calls"] += 1
            t["busy_s"] += dur
            t["self_s"] += dur - child_time.get(s.sid, 0.0)
        return dict(totals)

    def job_times(self) -> tuple[list[float], list[float]]:
        """Queue waits and execution times of the service's jobs.

        A job is a request that called ``BuildService.submit``; it waits
        from the client's submit to its ``run_flow`` start and executes
        from there until the client has its terminal record.
        """
        jobs = {s.request for s in self.spans if s.name == "service.admit"}
        flow_start: dict[str, float] = {}
        for s in self.spans:
            if s.name == "flow.run" and s.request in jobs:
                flow_start[s.request] = min(s.start, flow_start.get(s.request, s.start))
        waits, execs = [], []
        for rid, started in flow_start.items():
            submitted, done = self.requests[rid]
            waits.append(started - submitted)
            execs.append(done - started)
        return waits, execs

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(s.as_dict()) + "\n")


# -- what gets wrapped --------------------------------------------------------


@dataclass(frozen=True)
class Layer:
    """One span name and the public callables that record it."""

    name: str
    module: str
    #: ``"func"``, ``"Class.method"`` or ``"Class.prefix*"`` (every
    #: method whose name starts with *prefix*).
    attrs: tuple[str, ...]
    #: Rename the span by its parent's name (``None`` keeps *name*).
    rename: Callable[[str], str | None] | None = None
    #: Called with the result; may record counters and rename the span.
    on_result: Callable | None = None

    def name_for(self, parent_name: str) -> str:
        if self.rename is not None:
            return self.rename(parent_name) or self.name
        return self.name


def _sim_report(tracer: Tracer, name: str, report) -> str:
    """Fold an ExecutionReport's simulator-effort counters into the trace
    and name the span by image size."""
    stats = report.burst_stats or {}
    counts = {
        "sim.cycles": report.cycles,
        "sim.kernel_events": report.kernel_events,
        "sim.phases.burst": stats.get("burst_phases", 0),
        "sim.phases.prefix": stats.get("prefix_phases", 0),
        "sim.phases.word": stats.get("word_phases", 0),
    }
    for reason, n in (stats.get("fallback_reasons") or {}).items():
        counts[f"sim.fallback.{reason}"] = n
    tracer.add(counts)
    image = report.data.get("binImage")
    if image is None:
        return "sim.run.other"
    side = int(round(image.size ** 0.5))
    size = f"{side}x{side}"
    return f"sim.run.{size}" if size in SIM_SIZES else "sim.run.other"


def _fn_cache_hit(tracer: Tracer, name: str, value) -> None:
    if value is not None:
        tracer.add({"hls.fn_cache.hits": 1})


def _flow_cache_hit(tracer: Tracer, name: str, value) -> None:
    if name == "flow.cache.get" and value is not None:
        tracer.add({"flow.cache.hits": 1})


def _fn_store(parent: str) -> str | None:
    # BuildCache also backs the persistent per-function HLS store; those
    # calls belong to the hls layer, not to the flow's whole-core cache.
    return "hls.fn_store" if parent.startswith("hls.fn_cache") else None


SIM_SIZES = ("16x16", "64x64", "128x128")

LAYERS: tuple[Layer, ...] = (
    Layer("sim.run", "repro.sim.runtime", ("simulate_application",),
          on_result=_sim_report),
    Layer("sim.solve", "repro.sim.burst", ("solve_phase_ex",)),
    Layer("sim.channel", "repro.sim.axi",
          ("StreamChannel.put_burst", "StreamChannel.get_burst",
           "StreamChannel.commit_burst")),
    Layer("sim.behavior", "repro.sim.runtime", ("Behavior.outputs",)),
    Layer("dsl.parse", "repro.dsl.parser", ("parse_dsl",)),
    Layer("hls.csynth", "repro.hls.project", ("HlsProject.csynth",)),
    Layer("hls.fn_cache.get", "repro.hls.fncache", ("FunctionCache.get",),
          on_result=_fn_cache_hit),
    Layer("hls.fn_cache.put", "repro.hls.fncache", ("FunctionCache.put",)),
    Layer("soc.integrate", "repro.soc.integrator", ("integrate",)),
    Layer("soc.run_synthesis", "repro.soc.synthesis", ("run_synthesis",)),
    Layer("tcl.generate", "repro.tcl.generate", ("generate_system_tcl",)),
    Layer("tcl.check", "repro.tcl.runner", ("TclRunner.execute",)),
    Layer("swgen.assemble", "repro.swgen.petalinux", ("assemble_image",)),
    Layer("flow.run", "repro.flow.orchestrator", ("run_flow",)),
    Layer("flow.hooks", "repro.flow.orchestrator", ("FlowHooks.on_*",)),
    Layer("flow.journal", "repro.flow.journal",
          ("RunJournal.begin", "RunJournal.step_start", "RunJournal.step_commit")),
    Layer("flow.cache.get", "repro.flow.buildcache", ("BuildCache.get",),
          rename=_fn_store, on_result=_flow_cache_hit),
    Layer("flow.cache.put", "repro.flow.buildcache", ("BuildCache.put",),
          rename=_fn_store),
    Layer("flow.materialize", "repro.flow.workspace", ("materialize",)),
    Layer("service.admit", "repro.service.daemon", ("BuildService.submit",)),
    Layer("service.publish", "repro.service.store", ("JobStore.write_terminal",)),
    Layer("apps.build", "repro.apps.otsu.app", ("build_otsu_custom",)),
    Layer("apps.golden", "repro.apps.otsu.golden", ("golden_otsu_threshold",)),
    Layer("dse.evaluate", "repro.dse.evaluate", ("evaluate_candidate",)),
    Layer("dse.campaign", "repro.dse.campaign", ("run_campaign",)),
)


def _expand(cls, attr: str) -> list[str]:
    if attr.endswith("*"):
        return sorted(a for a in dir(cls) if a.startswith(attr[:-1]))
    return [attr]


class Installed:
    """Wrappers installed into ``repro``; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(tracer: Tracer) -> Installed:
    """Wrap every layer's callables; raise MissingWrapTarget if one is gone.

    Every target is resolved before anything is patched, so a missing
    one leaves ``repro`` untouched.
    """
    resolved = []
    for layer in LAYERS:
        try:
            module = importlib.import_module(layer.module)
        except ImportError as exc:
            raise MissingWrapTarget(f"{layer.name}: {exc}") from exc
        for attr in layer.attrs:
            owner_name, _, member = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None:
                raise MissingWrapTarget(f"{layer.name}: {layer.module}.{owner_name}")
            members = _expand(owner, member)
            if not members or not all(callable(getattr(owner, m, None)) for m in members):
                raise MissingWrapTarget(f"{layer.name}: {layer.module}.{attr}")
            resolved.extend((layer, owner, m) for m in members)

    installed = Installed()
    repro_modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "repro" or n.startswith("repro."))
    ]
    for layer, owner, member in resolved:
        if isinstance(owner, type):
            had_own = member in owner.__dict__
            original = owner.__dict__.get(member, getattr(owner, member))
            setattr(owner, member, tracer.wrap(original, layer))
            installed._undo.append(
                functools.partial(setattr, owner, member, original)
                if had_own else functools.partial(delattr, owner, member)
            )
            continue
        original = getattr(owner, member)
        wrapper = tracer.wrap(original, layer)
        for module in repro_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    installed._undo.append(
                        functools.partial(setattr, module, key, original)
                    )
    return installed


@contextmanager
def traced(tracer: Tracer):
    installed = install(tracer)
    try:
        yield tracer
    finally:
        installed.restore()


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# -- per-layer metrics ---------------------------------------------------------

#: Span names reported as ``<name>.calls`` and ``<name>.busy_s``, plus
#: ``<name>.self_s`` where other wrapped layers nest inside them.
SPAN_METRICS: tuple[tuple[str, bool], ...] = (
    *((f"sim.run.{size}", True) for size in (*SIM_SIZES, "other")),
    ("sim.solve", False),
    ("sim.channel", False),
    ("sim.behavior", False),
    ("dsl.parse", True),
    ("hls.csynth", True),
    ("hls.fn_cache.get", False),
    ("hls.fn_cache.put", False),
    ("hls.fn_store", False),
    ("soc.integrate", False),
    ("soc.run_synthesis", False),
    ("tcl.generate", False),
    ("tcl.check", True),
    ("swgen.assemble", False),
    ("flow.run", True),
    ("flow.hooks", True),
    ("flow.journal", False),
    ("flow.cache.get", False),
    ("flow.cache.put", False),
    ("flow.materialize", True),
    ("service.admit", False),
    ("service.publish", False),
    ("apps.build", True),
    ("apps.golden", False),
    ("dse.evaluate", True),
    ("dse.campaign", True),
)

FALLBACK_REASONS = (
    "fault_touches", "hp_unprovable", "fifo_busy", "engine_busy",
    "no_convergence", "watchdog_budget", "shallow_fifo",
)

#: Counters taken from ExecutionReport, per request unit.
SIM_COUNTERS = (
    "sim.kernel_events", "sim.cycles",
    "sim.phases.burst", "sim.phases.prefix", "sim.phases.word",
    *(f"sim.fallback.{r}" for r in FALLBACK_REASONS),
)

SERVICE_METRICS = (
    "service.queue_wait_s.p50", "service.queue_wait_s.p90",
    "service.execute_s.p50", "service.execute_s.p90",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec: list[tuple[str, str, str]] = []
    for name, nests in SPAN_METRICS:
        spec.append((f"{name}.calls", "count", "lower"))
        spec.append((f"{name}.busy_s", "s", "lower"))
        if nests:
            spec.append((f"{name}.self_s", "s", "lower"))
    for name in SIM_COUNTERS:
        unit = "cycles" if name == "sim.cycles" else "count"
        spec.append((name, unit, "lower"))
    spec.append(("sim.burst_ratio", "ratio", "higher"))
    spec.append(("hls.fn_cache.hit_ratio", "ratio", "higher"))
    spec.append(("flow.cache.hit_ratio", "ratio", "higher"))
    spec.extend((name, "s", "lower") for name in SERVICE_METRICS)
    spec.append(("trace.overhead_s", "s", "lower"))
    spec.append(("trace.overhead_pct", "%", "lower"))
    return spec


def per_layer_values(
    tracer: Tracer, units: int, overhead: dict[str, float]
) -> dict[str, float]:
    """Every per-layer metric, with counts and times per request unit.

    *units* is the number of request units the traced phase ran (Table-I
    sweeps, campaigns or jobs); *overhead* supplies the tracing overhead,
    which the trace alone cannot give.  A layer the workload does not
    run reports 0.
    """
    totals = tracer.layer_totals()
    c = tracer.counters
    out: dict[str, float] = {}
    for name, nests in SPAN_METRICS:
        t = totals.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = t["calls"] / units
        out[f"{name}.busy_s"] = t["busy_s"] / units
        if nests:
            out[f"{name}.self_s"] = t["self_s"] / units
    for name in SIM_COUNTERS:
        out[name] = c.get(name, 0) / units
    hw_phases = sum(c.get(f"sim.phases.{k}", 0) for k in ("burst", "prefix", "word"))
    out["sim.burst_ratio"] = c.get("sim.phases.burst", 0) / hw_phases if hw_phases else 0.0
    lookups = totals.get("hls.fn_cache.get", {}).get("calls", 0)
    out["hls.fn_cache.hit_ratio"] = c.get("hls.fn_cache.hits", 0) / lookups if lookups else 0.0
    gets = totals.get("flow.cache.get", {}).get("calls", 0)
    out["flow.cache.hit_ratio"] = c.get("flow.cache.hits", 0) / gets if gets else 0.0
    waits, execs = tracer.job_times()
    for name, values in (("service.queue_wait_s", waits), ("service.execute_s", execs)):
        out[f"{name}.p50"] = percentile(values, 50)
        out[f"{name}.p90"] = percentile(values, 90)
    out.update(overhead)
    return {name: out[name] for name, _, _ in per_layer_spec()}
