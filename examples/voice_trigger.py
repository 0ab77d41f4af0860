#!/usr/bin/env python3
"""The intro's motivation, end to end: an always-on voice trigger.

Builds the pre-emphasis -> frame-energy -> detector pipeline as a
streaming hardware phase, runs the flow, and simulates the system on a
synthetic audio clip containing one loud 'keyword' burst.  The detector
fires only on the burst frames — while the CPU stays almost idle, which
is the whole point of pushing this block into the fabric.

Run:  python examples/voice_trigger.py
"""

import numpy as np

from repro.apps.audio import build_audio_app
from repro.dsl import emit_dsl

N, FRAME = 2048, 64


def main() -> None:
    app = build_audio_app(n=N, frame=FRAME)
    print("=== DSL description ===")
    print(emit_dsl(app.dsl_graph()))

    flow = app.build()
    print("=== generated system ===")
    print(" ", flow.design.summary())
    for name, build in flow.cores.items():
        r = build.result.resources
        print(f"  {name:<9} LUT={r.lut:<5} FF={r.ff:<5} DSP={r.dsp} "
              f"latency={build.result.latency.cycles}")

    report = app.simulate(flow.system)
    assert app.matches(report)

    frames_hit = np.flatnonzero(report.of("hits"))
    print(f"\n=== simulated detection over {N} samples "
          f"({N // FRAME} frames) ===")
    print(f"  voiced frames: {frames_hit.tolist()}")
    print(f"  {report.cycles} cycles ({report.seconds * 1e6:.0f} us @100MHz)")
    cpu_busy = report.trace.busy("cpu:mic") + report.trace.busy("cpu:wake")
    print(f"  CPU busy only {cpu_busy} cycles "
          f"({cpu_busy / report.cycles:.0%}) — the fabric watches the stream")
    print()
    print(report.trace.render())


if __name__ == "__main__":
    main()
