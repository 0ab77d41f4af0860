"""Applications and kernels used by the paper's evaluation.

* :mod:`application` — :class:`Application`, the one record every app
  is built as: task graph + partition, behaviours, C sources, extra
  directives and golden outputs, with ``build``/``simulate``/``matches``;
* :mod:`image` — PGM/PPM I/O, packed-RGB helpers, and the synthetic
  test scene standing in for the paper's photograph (Fig. 7a);
* :mod:`otsu` — the Otsu-filter case study (Section VI): the six-task
  application, its synthesizable C sources, golden NumPy behaviours and
  the four architectures of Table I;
* :mod:`audio` — the always-on voice trigger (``build_audio_app``);
* :mod:`filters2d` — 2-D GAUSS/SOBEL filters and their edge-detection
  chain (``build_edge2d_app``);
* :mod:`kernels` — the ADD/MUL/GAUSS/EDGE example of Fig. 4;
* :mod:`generator` — random task-graph generation for scalability
  benchmarks.
"""

from repro.apps.application import Application
from repro.apps.audio import build_audio_app
from repro.apps.filters2d import build_edge2d_app
from repro.apps.image import (
    pack_rgb,
    read_pgm,
    read_ppm,
    synthetic_scene,
    unpack_rgb,
    write_pgm,
    write_ppm,
)
from repro.apps.kernels import build_fig4_flow_inputs
from repro.apps.otsu import ARCHITECTURES, OtsuApplication, build_otsu_app

__all__ = [
    "ARCHITECTURES",
    "Application",
    "OtsuApplication",
    "build_audio_app",
    "build_edge2d_app",
    "build_fig4_flow_inputs",
    "build_otsu_app",
    "pack_rgb",
    "read_pgm",
    "read_ppm",
    "synthetic_scene",
    "unpack_rgb",
    "write_pgm",
    "write_ppm",
]
