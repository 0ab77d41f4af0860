"""Burst fast path vs word-level simulation (the ISSUE-4 headline).

Runs the largest Otsu case the 16-bit histogram supports (128x128,
Arch4) both ways and records the acceptance numbers: the burst engine
must be >=5x faster in wall-clock and spend >=10x fewer kernel events
while producing a cycle- and digest-identical ExecutionReport.
"""

import json
import time

import pytest
from conftest import save_artifact

from repro.apps.otsu import build_otsu_app

WIDTH = HEIGHT = 128  # largest size halfProbability's 16-bit bins allow


@pytest.fixture(scope="module")
def arch4_build():
    app = build_otsu_app(4, width=WIDTH, height=HEIGHT)
    return app, app.build()


def _run(app, flow, mode):
    return app.simulate(flow.system, burst_mode=mode)


def test_burst_fast_path_speedup(benchmark, arch4_build):
    app, flow = arch4_build

    t0 = time.perf_counter()
    word = _run(app, flow, False)
    word_seconds = time.perf_counter() - t0

    burst = benchmark(_run, app, flow, True)
    burst_seconds = benchmark.stats.stats.mean

    assert word.cycles == burst.cycles
    assert word.digest() == burst.digest()
    assert app.matches(burst)
    assert burst.burst_stats["burst_phases"] >= 1

    speedup = word_seconds / burst_seconds
    event_ratio = word.kernel_events / max(1, burst.kernel_events)
    payload = {
        "arch": 4,
        "size": f"{WIDTH}x{HEIGHT}",
        "cycles": word.cycles,
        "events_word": word.kernel_events,
        "events_burst": burst.kernel_events,
        "event_ratio": event_ratio,
        "seconds_word": word_seconds,
        "seconds_burst": burst_seconds,
        "speedup": speedup,
        "digest": burst.digest(),
        "burst_phases": burst.burst_stats["burst_phases"],
        "prefix_phases": burst.burst_stats["prefix_phases"],
        "word_phases": burst.burst_stats["word_phases"],
        "fallback_reasons": dict(burst.burst_stats["fallback_reasons"]),
    }
    save_artifact("BENCH_sim.json", json.dumps(payload, indent=2))
    print(
        f"\n128x128 Arch4: {word.cycles} cycles; "
        f"events {word.kernel_events} -> {burst.kernel_events} "
        f"({event_ratio:.0f}x); {word_seconds:.3f}s -> {burst_seconds:.3f}s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0
    assert event_ratio >= 10.0


def test_prefix_burst_on_faulted_phase(arch4_build):
    """A mid-phase DRAM flip used to force the whole phase onto the
    word path; the prefix engine bursts the fault-free prefix and hands
    live state to the word path, digest-identical either way."""
    from repro.sim import Fault, FaultPlan

    app, flow = arch4_build
    clean = _run(app, flow, False)
    start, end = max(
        (clean.node_spans[n] for n in app.partition.hw_nodes()),
        key=lambda span: span[1] - span[0],
    )
    plan = FaultPlan(
        (Fault("dram_flip", "*", at_cycle=start + ((end - start) * 9) // 10),)
    )

    def _run_faulted(mode):
        return app.simulate(flow.system, burst_mode=mode, faults=plan)

    word = _run_faulted(False)
    burst = _run_faulted(True)
    assert word.cycles == burst.cycles
    assert word.digest() == burst.digest()
    assert burst.burst_stats["prefix_phases"] >= 1
    assert burst.burst_stats["word_phases"] == 0
    save_artifact(
        "BENCH_sim_prefix.json",
        json.dumps(
            {
                "arch": 4,
                "size": f"{WIDTH}x{HEIGHT}",
                "fault_at": plan.faults[0].at_cycle,
                "cycles": word.cycles,
                "burst_phases": burst.burst_stats["burst_phases"],
                "prefix_phases": burst.burst_stats["prefix_phases"],
                "word_phases": burst.burst_stats["word_phases"],
                "fallback_reasons": dict(
                    burst.burst_stats["fallback_reasons"]
                ),
                "digest": burst.digest(),
            },
            indent=2,
        ),
    )


def test_word_fallback_reason_for_contended_port(arch4_build):
    """Arch1 at 16x16 saturates the HP port (mm2s at full width while
    s2mm concurrently drains the histogram, which at npix == 256 fires
    token-per-firing) so the interleaving certificate must refuse —
    with the ``hp_unprovable`` reason — and both paths must agree.  At
    other sizes the histogram output is bulk, the grant schedule is
    order-independent, and the phase fast-paths instead."""
    app = build_otsu_app(1, width=16, height=16)
    flow = app.build()
    word = _run(app, flow, False)
    burst = _run(app, flow, True)
    assert burst.burst_stats["burst_phases"] == 0
    assert burst.burst_stats["prefix_phases"] == 0
    assert burst.burst_stats["fallback_reasons"] == {"hp_unprovable": 1}
    assert word.digest() == burst.digest()
