"""Always-on audio front-end (the intro's "Hey Siri!" motivation).

The paper motivates accelerator-based SoCs with the iPhone's always-on
voice trigger: a tiny hardware pipeline that watches the microphone
stream without waking the CPU.  This app is that shape: a streaming
dataflow phase of three actors —

* ``preemph`` — first-order pre-emphasis filter ``y[i] = x[i] - (a*x[i-1])>>7``;
* ``energy``  — per-frame energy (a windowed reduction, FRAME samples in,
  one energy value out);
* ``detect``  — adaptive threshold: a frame is "voiced" when its energy
  exceeds ``k×`` the running noise floor.

Everything is fixed-point integer C, synthesizable by the repro HLS
engine; NumPy references mirror the exact integer semantics.
"""

from __future__ import annotations

import numpy as np

from repro.apps.application import Application
from repro.hls.interfaces import pipeline
from repro.htg.model import HTG, Actor, Phase, StreamChannel, Task
from repro.htg.partition import Partition
from repro.sim.runtime import Behavior
from repro.util.errors import ReproError

#: Pre-emphasis coefficient numerator (a = 97/128 ≈ 0.76).
PREEMPH_A = 97
#: Detection threshold: energy > (THRESH_NUM/8) × noise floor.
THRESH_NUM = 24


def preemph_src(n: int) -> str:
    return f"""
void preemph(int x[{n}], int y[{n}]) {{
    int prev = 0;
    for (int i = 0; i < {n}; i++) {{
        int cur = x[i];
        y[i] = cur - (({PREEMPH_A} * prev) >> 7);
        prev = cur;
    }}
}}
"""


def energy_src(n: int, frame: int) -> str:
    nframes = n // frame
    return f"""
void energy(int y[{n}], int e[{nframes}]) {{
    for (int f = 0; f < {nframes}; f++) {{
        int acc = 0;
        for (int i = 0; i < {frame}; i++) {{
            int v = y[f * {frame} + i];
            int m = v < 0 ? -v : v;
            acc = acc + ((m * m) >> 6);
        }}
        e[f] = acc;
    }}
}}
"""


def detect_src(nframes: int) -> str:
    return f"""
void detect(int e[{nframes}], int hits[{nframes}]) {{
    int floor_est = 0;
    for (int f = 0; f < {nframes}; f++) {{
        int cur = e[f];
        if (f == 0) floor_est = cur;
        int hit = (cur * 8) > ({THRESH_NUM} * floor_est) ? 1 : 0;
        hits[f] = hit;
        if (hit == 0) {{
            floor_est = floor_est + ((cur - floor_est) >> 3);
        }}
    }}
}}
"""


# --- exact NumPy references ------------------------------------------------
def preemph_reference(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    prev = np.concatenate(([0], x[:-1]))
    return (x - ((PREEMPH_A * prev) >> 7)).astype(np.int32)


def energy_reference(y: np.ndarray, frame: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    nframes = len(y) // frame
    m = np.abs(y[: nframes * frame]).reshape(nframes, frame)
    return ((m * m) >> 6).sum(axis=1).astype(np.int32)


def detect_reference(e: np.ndarray) -> np.ndarray:
    hits = np.zeros(len(e), dtype=np.int32)
    floor_est = 0
    for f, cur in enumerate(np.asarray(e, dtype=np.int64).tolist()):
        if f == 0:
            floor_est = cur
        hit = 1 if cur * 8 > THRESH_NUM * floor_est else 0
        hits[f] = hit
        if not hit:
            floor_est = floor_est + ((cur - floor_est) >> 3)
    return hits


def synthetic_audio(n: int, *, seed: int = 7, keyword_at: float = 0.6) -> np.ndarray:
    """16-bit-ish samples: low noise with a loud 'keyword' burst."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 60, n)
    start = int(n * keyword_at)
    end = min(n, start + n // 8)
    t = np.arange(end - start)
    x[start:end] += 2800 * np.sin(t / 3.1) * np.hanning(end - start)
    return np.clip(x, -32768, 32767).astype(np.int32)


def build_audio_app(*, n: int = 1024, frame: int = 64, seed: int = 7) -> Application:
    """The keyword detector in hardware, its output checked against the
    NumPy references (``expected["hits"]``)."""
    if n % frame != 0:
        raise ReproError("sample count must be a multiple of the frame size")
    nframes = n // frame

    samples = synthetic_audio(n, seed=seed)
    y_ref = preemph_reference(samples)
    e_ref = energy_reference(y_ref, frame)
    hits_ref = detect_reference(e_ref)

    sources = {
        "preemph": preemph_src(n),
        "energy": energy_src(n, frame),
        "detect": detect_src(nframes),
    }
    phase = Phase(
        name="voiceTrigger",
        actors=[
            Actor("preemph", stream_inputs=("x",), stream_outputs=("y",),
                  c_source=sources["preemph"]),
            Actor("energy", stream_inputs=("y",), stream_outputs=("e",),
                  c_source=sources["energy"]),
            Actor("detect", stream_inputs=("e",), stream_outputs=("hits",),
                  c_source=sources["detect"]),
        ],
        channels=[
            StreamChannel(Phase.BOUNDARY, "samples", "preemph", "x"),
            StreamChannel("preemph", "y", "energy", "y"),
            StreamChannel("energy", "e", "detect", "e"),
            StreamChannel("detect", "hits", Phase.BOUNDARY, "hits"),
        ],
        inputs=("samples",),
        outputs=("hits",),
    )
    htg = HTG("voiceApp")
    htg.add(Task("mic", outputs=("samples",), io=True, sw_cycles=n * 2))
    htg.add(phase)
    htg.add(Task("wake", inputs=("hits",), io=True, sw_cycles=nframes * 6))
    htg.add_edge("mic", "voiceTrigger")
    htg.add_edge("voiceTrigger", "wake")

    behaviors = {
        "mic": Behavior(lambda: samples),
        "wake": Behavior(lambda h: None),
        "voiceTrigger.preemph": Behavior(preemph_reference),
        "voiceTrigger.energy": Behavior(lambda y: energy_reference(y, frame)),
        "voiceTrigger.detect": Behavior(detect_reference),
    }
    return Application(
        htg=htg,
        partition=Partition.from_hw_set(htg, {"voiceTrigger"}),
        behaviors=behaviors,
        c_sources=sources,
        extra_directives={
            "preemph": [pipeline("preemph", "i")],
            "energy": [pipeline("energy", "i")],
        },
        expected={"hits": hits_ref},
    )
