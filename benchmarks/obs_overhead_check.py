"""Observability overhead smoke check (CI gate).

The event bus and metrics registry are guarded no-ops when disabled, so
instrumenting the simulator's hot paths must be close to free.  This
script measures the same word-path simulation with observability off
and on and fails (exit 1) when the enabled-mode overhead exceeds the
budget, or when instrumentation changes the simulation's digest —
observability must never perturb what it observes.

Run: ``PYTHONPATH=src python benchmarks/obs_overhead_check.py``
"""

import json
import sys
import time
from pathlib import Path

from repro.apps.otsu import build_otsu_app
from repro.obs import capture

ARCH = 4
WIDTH = HEIGHT = 64
REPEATS = 5
LIMIT_PCT = 5.0


def _simulate(app, flow, *, burst=False):
    return app.simulate(flow.system, burst_mode=burst)


def main() -> int:
    app = build_otsu_app(ARCH, width=WIDTH, height=HEIGHT)
    flow = app.build()

    _simulate(app, flow)  # warm-up: imports, caches, allocator

    # Interleave off/on pairs and take best-of per mode: a sequential
    # block per mode picks up scheduler drift as phantom overhead.
    off_s = on_s = None
    off_report = on_report = None
    events = 0
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        off_report = _simulate(app, flow)
        elapsed = time.perf_counter() - t0
        off_s = elapsed if off_s is None else min(off_s, elapsed)

        with capture() as (bus, registry):
            t0 = time.perf_counter()
            on_report = _simulate(app, flow)
            elapsed = time.perf_counter() - t0
            events = len(bus.events())
        on_s = elapsed if on_s is None else min(on_s, elapsed)
    overhead_pct = (on_s - off_s) / off_s * 100.0

    print(
        f"word-path {WIDTH}x{HEIGHT} Arch{ARCH}: "
        f"obs off {off_s * 1000:.1f} ms, on {on_s * 1000:.1f} ms "
        f"({overhead_pct:+.1f}%, {events} events captured, "
        f"budget {LIMIT_PCT:.0f}%)"
    )

    failures = []
    if overhead_pct > LIMIT_PCT:
        failures.append(
            f"enabled-observability overhead {overhead_pct:.1f}% "
            f"exceeds the {LIMIT_PCT:.0f}% budget"
        )
    if off_report.digest() != on_report.digest():
        failures.append(
            "instrumentation changed the simulation digest: "
            f"{off_report.digest()[:16]} != {on_report.digest()[:16]}"
        )

    # The recorded simbench acceptance run pins the 128x128 Arch4 digest;
    # observability riding the same engine must reproduce it exactly.
    bench = Path(__file__).parent / "out" / "BENCH_sim.json"
    if bench.exists():
        recorded = json.loads(bench.read_text())
        app_big = build_otsu_app(4, width=128, height=128)
        flow_big = app_big.build()
        with capture():
            report = _simulate(app_big, flow_big, burst=True)
        if report.digest() != recorded["digest"]:
            failures.append(
                "128x128 Arch4 digest drifted from BENCH_sim.json: "
                f"{report.digest()[:16]} != {recorded['digest'][:16]}"
            )
        else:
            print(f"128x128 Arch4 digest matches BENCH_sim.json "
                  f"({report.digest()[:16]}...)")

    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not failures:
        print("OK: observability overhead within budget, digests stable")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
