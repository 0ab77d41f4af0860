#!/usr/bin/env python3
"""A true 2-D vision pipeline: GAUSS2D -> SOBEL2D on the synthetic scene.

Exercises the HLS engine's multi-dimensional arrays (each filter holds a
BRAM frame buffer), the stream-discipline checker, and the full
flow + simulation path; writes the input/blurred/edges images as PGM.

Run:  python examples/edge_detect_2d.py
"""

from pathlib import Path

import numpy as np

from repro.apps.filters2d import build_edge2d_app, edge2d_input, gauss2d_reference
from repro.apps.image import write_pgm
from repro.dsl import emit_dsl
from repro.hls.project import verify_stream_discipline

W, H = 48, 48
OUT = Path(__file__).parent / "out" / "edge2d"


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    app = build_edge2d_app(W, H)
    gray = edge2d_input(W, H)

    print(emit_dsl(app.dsl_graph()))
    flow = app.build()
    print(flow.design.summary())
    for name, build in flow.cores.items():
        r = build.result.resources
        print(f"  {name}: LUT={r.lut} FF={r.ff} BRAM18={r.bram18} "
              f"(frame buffer) latency={build.result.latency.cycles}")

    # The axis interfaces really are accessed sequentially.
    for name, build in flow.cores.items():
        buf_in = gray.reshape(-1).astype(np.int32)
        buf_out = np.zeros(W * H, dtype=np.int32)
        verify_stream_discipline(build.result, buf_in, buf_out)
    print("stream discipline: OK for both cores")

    report = app.simulate(flow.system)
    assert app.matches(report)
    print(f"simulated {report.cycles} cycles; edges bit-exact")

    write_pgm(OUT / "gray.pgm", gray.astype(np.uint8))
    write_pgm(OUT / "blurred.pgm", gauss2d_reference(gray).astype(np.uint8))
    write_pgm(OUT / "edges.pgm", report.of("edges").reshape(H, W).astype(np.uint8))
    print(f"images in {OUT}/")


if __name__ == "__main__":
    main()
