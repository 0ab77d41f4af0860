"""True 2-D image filters (frame-buffered GAUSS and SOBEL).

The paper's Fig.-4 pipeline names its cores after a Gaussian and an
edge-detection filter; these are full 2-D implementations: each core
reads its input stream sequentially into a local frame buffer (2-D
array → BRAM), computes with random access and replicated borders, and
writes the output stream sequentially — the buffer-then-process pattern
that satisfies the AXI-Stream access discipline
(:func:`repro.hls.project.verify_stream_discipline` checks it).

GAUSS is the 3×3 binomial kernel [[1,2,1],[2,4,2],[1,2,1]]/16; SOBEL is
gradient magnitude (|Gx|+|Gy|) with thresholding.
:func:`build_edge2d_app` chains them (GAUSS2D → SOBEL2D) into one
streaming hardware phase over the gray synthetic scene.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.apps.image import pack_rgb, synthetic_scene
from repro.apps.otsu.golden import golden_grayscale
from repro.htg.model import HTG, Actor, Phase, StreamChannel, Task
from repro.htg.partition import Partition
from repro.sim.runtime import Behavior


def gauss2d_src(width: int, height: int) -> str:
    n = width * height
    return f"""
void GAUSS2D(int in[{n}], int out[{n}]) {{
    int buf[{height}][{width}];
    for (int r = 0; r < {height}; r++) {{
        for (int c = 0; c < {width}; c++) {{
            buf[r][c] = in[r * {width} + c];
        }}
    }}
    for (int r = 0; r < {height}; r++) {{
        for (int c = 0; c < {width}; c++) {{
            int acc = 0;
            for (int dr = -1; dr <= 1; dr++) {{
                for (int dc = -1; dc <= 1; dc++) {{
                    int rr = r + dr;
                    int cc = c + dc;
                    if (rr < 0) rr = 0;
                    if (rr > {height - 1}) rr = {height - 1};
                    if (cc < 0) cc = 0;
                    if (cc > {width - 1}) cc = {width - 1};
                    int wr = dr == 0 ? 2 : 1;
                    int wc = dc == 0 ? 2 : 1;
                    acc += buf[rr][cc] * (wr * wc);
                }}
            }}
            out[r * {width} + c] = acc >> 4;
        }}
    }}
}}
"""


def sobel2d_src(width: int, height: int, threshold: int = 96) -> str:
    n = width * height
    return f"""
void SOBEL2D(int in[{n}], int out[{n}]) {{
    int buf[{height}][{width}];
    for (int r = 0; r < {height}; r++) {{
        for (int c = 0; c < {width}; c++) {{
            buf[r][c] = in[r * {width} + c];
        }}
    }}
    for (int r = 0; r < {height}; r++) {{
        for (int c = 0; c < {width}; c++) {{
            int rm = r - 1 < 0 ? 0 : r - 1;
            int rp = r + 1 > {height - 1} ? {height - 1} : r + 1;
            int cm = c - 1 < 0 ? 0 : c - 1;
            int cp = c + 1 > {width - 1} ? {width - 1} : c + 1;
            int gx = buf[rm][cp] + 2 * buf[r][cp] + buf[rp][cp]
                   - buf[rm][cm] - 2 * buf[r][cm] - buf[rp][cm];
            int gy = buf[rp][cm] + 2 * buf[rp][c] + buf[rp][cp]
                   - buf[rm][cm] - 2 * buf[rm][c] - buf[rm][cp];
            int mag = abs(gx) + abs(gy);
            out[r * {width} + c] = mag > {threshold} ? 255 : 0;
        }}
    }}
}}
"""


# --- exact NumPy references -----------------------------------------------
def _clamp_pad(img: np.ndarray) -> np.ndarray:
    return np.pad(img, 1, mode="edge").astype(np.int64)


def gauss2d_reference(img: np.ndarray) -> np.ndarray:
    """(H, W) -> (H, W), identical integer arithmetic to the C."""
    p = _clamp_pad(np.asarray(img))
    h, w = img.shape
    acc = np.zeros((h, w), dtype=np.int64)
    weights = {(-1, -1): 1, (-1, 0): 2, (-1, 1): 1,
               (0, -1): 2, (0, 0): 4, (0, 1): 2,
               (1, -1): 1, (1, 0): 2, (1, 1): 1}
    for (dr, dc), wgt in weights.items():
        acc += wgt * p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    return (acc >> 4).astype(np.int32)


def sobel2d_reference(img: np.ndarray, threshold: int = 96) -> np.ndarray:
    p = _clamp_pad(np.asarray(img))
    h, w = img.shape

    def sh(dr, dc):
        return p[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]

    gx = sh(-1, 1) + 2 * sh(0, 1) + sh(1, 1) - sh(-1, -1) - 2 * sh(0, -1) - sh(1, -1)
    gy = sh(1, -1) + 2 * sh(1, 0) + sh(1, 1) - sh(-1, -1) - 2 * sh(-1, 0) - sh(-1, 1)
    mag = np.abs(gx) + np.abs(gy)
    return np.where(mag > threshold, 255, 0).astype(np.int32)


def edge2d_input(width: int, height: int) -> np.ndarray:
    """The (H, W) gray synthetic scene the edge app filters."""
    return golden_grayscale(pack_rgb(synthetic_scene(width, height))).reshape(
        height, width
    )


def build_edge2d_app(width: int, height: int) -> Application:
    """GAUSS2D → SOBEL2D as one hardware phase between a software
    ``load`` and ``store``; ``expected["edges"]`` is the NumPy chain."""
    gray = edge2d_input(width, height)
    sources = {
        "GAUSS2D": gauss2d_src(width, height),
        "SOBEL2D": sobel2d_src(width, height),
    }
    phase = Phase(
        name="vision",
        actors=[
            Actor("GAUSS2D", stream_inputs=("in",), stream_outputs=("out",),
                  c_source=sources["GAUSS2D"]),
            Actor("SOBEL2D", stream_inputs=("in",), stream_outputs=("out",),
                  c_source=sources["SOBEL2D"]),
        ],
        channels=[
            StreamChannel(Phase.BOUNDARY, "gray", "GAUSS2D", "in"),
            StreamChannel("GAUSS2D", "out", "SOBEL2D", "in"),
            StreamChannel("SOBEL2D", "out", Phase.BOUNDARY, "edges"),
        ],
        inputs=("gray",),
        outputs=("edges",),
    )
    npix = width * height
    htg = HTG("edgeApp")
    htg.add(Task("load", outputs=("gray",), io=True, sw_cycles=npix * 4))
    htg.add(phase)
    htg.add(Task("store", inputs=("edges",), io=True, sw_cycles=npix * 4))
    htg.add_edge("load", "vision")
    htg.add_edge("vision", "store")

    def frame(filt):
        return lambda a: filt(a.reshape(height, width)).reshape(-1)

    behaviors = {
        "load": Behavior(lambda: gray.reshape(-1).astype(np.int32)),
        "store": Behavior(lambda e: None),
        "vision.GAUSS2D": Behavior(frame(gauss2d_reference)),
        "vision.SOBEL2D": Behavior(frame(sobel2d_reference)),
    }
    return Application(
        htg=htg,
        partition=Partition.from_hw_set(htg, {"vision"}),
        behaviors=behaviors,
        c_sources=sources,
        extra_directives={},
        expected={
            "edges": sobel2d_reference(gauss2d_reference(gray)).reshape(-1)
        },
    )
