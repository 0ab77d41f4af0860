"""Repository benchmark: one command, every end-to-end metric, with gates.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim-table1 --seed 1 --seconds 35 --trace 0

``--trace 0`` measures with tracing off and prints the end-to-end
metrics; ``--trace 1`` runs the workload untraced and then traced over
the same requests and prints the per-layer metrics, the tracing
overhead included.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it records the environment.  A wrong output counts as
a failed request, and the command exits 1 when any request failed.

``--self-test`` checks the wrappers, the metric lists in BENCHMARK.json
and that the exact counters repeat between two runs.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench-work"

#: Knobs the library reads from the environment; cleared before
#: ``repro`` is imported so every run sees the defaults (obs bus off,
#: serial uncached flows, burst simulation, per-function memo on).
PINNED_ENV = (
    "REPRO_FLOW_JOBS",
    "REPRO_FLOW_CACHE_DIR",
    "REPRO_SIM_BURST",
    "REPRO_HLS_FN_CACHE",
    "REPRO_OBS",
    "REPRO_FLOW_CRASH_AT",
)

#: The benchmark's workloads, as BENCHMARK.json lists them.
WORKLOADS = ("sim-table1", "dse-otsu", "service-builds")

#: Layers that must record calls in a traced run of each workload; a
#: rename under src/ that silently drops one fails the run.
EXPECTED_LAYERS = {
    "sim-table1": (
        "sim.run.64x64", "sim.run.128x128", "sim.solve", "sim.channel",
        "sim.behavior", "apps.golden",
    ),
    "dse-otsu": (
        "dse.campaign", "dse.evaluate", "apps.build", "apps.golden",
        "dsl.parse", "flow.run", "flow.hooks", "hls.csynth",
        "hls.fn_cache.get", "hls.fn_cache.put", "hls.fn_store",
        "soc.integrate", "soc.run_synthesis", "tcl.generate",
        "swgen.assemble", "sim.run.16x16", "sim.solve", "sim.behavior",
    ),
    "service-builds": (
        "service.admit", "service.publish", "flow.run", "flow.hooks",
        "flow.journal", "flow.cache.get", "flow.cache.put",
        "flow.materialize", "dsl.parse", "hls.csynth", "hls.fn_cache.get",
        "soc.integrate", "soc.run_synthesis", "tcl.generate", "tcl.check",
        "swgen.assemble", "sim.run.other", "sim.behavior",
    ),
}

E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
    "sim_mcycles_per_s": "Mcycles/s",
    "latency_p90_s": "s",
}


def _import_repro() -> None:
    """Pin the environment, then import ``repro`` from this checkout."""
    for name in PINNED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no repro package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _filesystem(path: Path) -> str:
    """Type of the filesystem holding *path*, from /proc/mounts."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) >= 3 and str(path).startswith(parts[1]) and len(parts[1]) > len(best):
                    best, fstype = parts[1], parts[2]
    except OSError:
        pass
    return fstype


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "work_fs": _filesystem(WORK),
    }


def _make(workload: str, seed: int, seconds: float, work: Path):
    import workloads as wl

    make = {
        "sim-table1": wl.SimTable1,
        "dse-otsu": wl.DseOtsu,
        "service-builds": wl.ServiceBuilds,
    }[workload]
    return make(seed, work, seconds)


def _setup(bench) -> float:
    import workloads as wl

    times = []
    for _ in range(wl.SETUP_REPEATS):
        t0 = time.perf_counter()
        bench.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _end_to_end(setup_s: float, w) -> dict[str, float]:
    from tracing import percentile

    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "requests_per_s": w.requests / w.busy_s,
        "sim_mcycles_per_s": w.sim_cycles / 1e6 / w.busy_s,
        "latency_p90_s": percentile(w.latencies, 90),
    }


def _per_layer(workload: str, bench, seconds: float, spans_path: Path):
    """Untraced and traced runs of the same requests; per-layer metrics.

    One untraced and one traced request unit alternate, so drift in the
    machine's speed hits both sides alike.
    """
    import tracing
    from workloads import Window

    tracer = tracing.Tracer()
    plain, traced = Window(), Window()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        plain.merge(bench.window(0, units=1))
        with tracing.traced(tracer):
            traced.merge(bench.window(0, tracer, units=1))
    bench.verify(plain)
    bench.verify(traced)
    tracer.write(spans_path)

    totals = tracer.layer_totals()
    silent = [n for n in EXPECTED_LAYERS[workload] if not totals.get(n, {}).get("calls")]
    if silent:
        sys.exit(f"perfbench: layers recorded no calls on {workload}: {', '.join(silent)}")

    base, with_trace = plain.busy_s / plain.units, traced.busy_s / traced.units
    overhead = {
        "trace.overhead_s": with_trace - base,
        "trace.overhead_pct": 100.0 * (with_trace / base - 1.0),
    }
    values = tracing.per_layer_values(tracer, traced.units, overhead)
    return [plain, traced], values


def _result(windows, metrics: dict[str, float], units: dict[str, str]) -> dict:
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }


def run(args) -> int:
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = _make(args.workload, args.seed, args.seconds, work)
        setup_s = _setup(bench)
        if args.trace:
            import tracing

            spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
            windows, metrics = _per_layer(args.workload, bench, args.seconds, spans)
            units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        else:
            t0 = time.perf_counter()
            w = bench.window(args.seconds)
            t1 = time.perf_counter()
            bench.verify(w)
            print(f"perfbench: setup {setup_s:.3f} s (median), "
                  f"window {t1 - t0:.1f} s, verify {time.perf_counter() - t1:.1f} s",
                  file=sys.stderr)
            windows, metrics, units = [w], _end_to_end(setup_s, w), E2E_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = _result(windows, metrics, units)
    for w in windows:
        for problem in w.problems:
            print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": _environment()}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not (args.workload or args.self_test):
        ap.error("one of --workload or --self-test is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_repro()
    import tracing

    if args.self_test:
        import selftest

        return selftest.main(ROOT, WORK)
    try:
        return run(args)
    except tracing.MissingWrapTarget as exc:
        sys.exit(f"perfbench: a wrapped public function is gone: {exc}")


if __name__ == "__main__":
    sys.exit(main())
