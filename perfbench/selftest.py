"""The benchmark's self-test.

The self-test fails (exit 1) when

* a wrapped public function is gone, or restoring the wrappers leaves
  anything patched;
* BENCHMARK.json's metric lists differ from the ones the code reports,
  or the simulator's fallback reasons differ from the ones traced;
* an exact counter differs between two traced runs of the same
  requests: simulated cycles, kernel events, the burst/prefix/word
  phase split, the fallback reasons, the per-function HLS hit ratio,
  the whole-core build-cache hit ratio and the campaign digest;
* sim-table1 takes the word path, which would stop it measuring the
  default burst path.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import tracing
import workloads as wl

EXACT = (
    "sim.cycles",
    "sim.kernel_events",
    "sim.phases.burst",
    "sim.phases.prefix",
    "sim.phases.word",
    *(f"sim.fallback.{r}" for r in tracing.FALLBACK_REASONS),
    "hls.fn_cache.hit_ratio",
    "flow.cache.hit_ratio",
)

#: Request units each self-test run measures: one sweep, one campaign,
#: and sixteen jobs, so a cross-tenant duplicate is among them.
UNITS = {"sim-table1": 1, "dse-otsu": 1, "service-builds": 16}


def _check_wrappers(problems: list[str]) -> None:
    import repro.sim.runtime as runtime
    from repro.flow.orchestrator import FlowHooks

    before = (runtime.simulate_application, dict(vars(FlowHooks)))
    try:
        installed = tracing.install(tracing.Tracer())
    except tracing.MissingWrapTarget as exc:
        problems.append(f"missing wrap target: {exc}")
        return
    installed.restore()
    if (runtime.simulate_application, dict(vars(FlowHooks))) != before:
        problems.append("restoring the wrappers left repro patched")


def _check_benchmark_json(root: Path, problems: list[str]) -> None:
    from repro.sim.burst import FALLBACK_REASONS

    from run import E2E_UNITS, WORKLOADS

    if tuple(FALLBACK_REASONS) != tracing.FALLBACK_REASONS:
        problems.append(f"fallback reasons changed: {FALLBACK_REASONS}")
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != E2E_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    want = [{"name": n, "unit": u, "better": b} for n, u, b in tracing.per_layer_spec()]
    if spec["per_layer"] != want:
        problems.append("BENCHMARK.json per_layer differs from tracing.per_layer_spec()")


def _counters(bench, units: int) -> tuple[dict[str, float], list[str]]:
    tracer = tracing.Tracer()
    bench.setup()
    with tracing.traced(tracer):
        w = bench.window(0, tracer, units=units)
    bench.verify(w)
    no_overhead = {"trace.overhead_s": 0.0, "trace.overhead_pct": 0.0}
    values = tracing.per_layer_values(tracer, units, no_overhead)
    return {k: values[k] for k in EXACT}, w.problems


def main(root: Path, work_root: Path) -> int:
    problems: list[str] = []
    _check_wrappers(problems)
    _check_benchmark_json(root, problems)
    if problems:
        return _report(problems)
    work_root.mkdir(exist_ok=True)
    work = work_root / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    seen: dict[str, list[dict[str, float]]] = {}
    try:
        for name, make in (
            ("sim-table1", wl.SimTable1),
            ("dse-otsu", wl.DseOtsu),
            ("service-builds", wl.ServiceBuilds),
        ):
            for _ in range(2):
                counters, failures = _counters(make(1, work, 1), UNITS[name])
                problems.extend(f"{name}: {p}" for p in failures)
                seen.setdefault(name, []).append(counters)
            first, second = seen[name]
            diff = sorted(k for k in EXACT if first[k] != second[k])
            if diff:
                problems.append(f"{name}: counters differ between runs: {diff}")
        if seen["sim-table1"][0]["sim.phases.word"]:
            problems.append("sim-table1 took the word path")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({name: runs[0] for name, runs in seen.items()}, indent=1))
    return _report(problems)


def _report(problems: list[str]) -> int:
    for p in problems:
        print(f"self-test: {p}", file=sys.stderr)
    print("self-test: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0

