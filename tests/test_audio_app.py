"""Tests for the voice-trigger application."""

import numpy as np
import pytest

from repro.apps.audio import (
    build_audio_app,
    detect_reference,
    detect_src,
    energy_reference,
    energy_src,
    preemph_reference,
    preemph_src,
    synthetic_audio,
)
from repro.dsl import validate_graph
from repro.hls import InterfaceMode, interface, synthesize_function
from repro.htg import validate_htg
from repro.sim import simulate_application
from repro.util.errors import ReproError


class TestKernelsMatchReferences:
    N, FRAME = 256, 32

    def synth(self, src, name, in_port, out_port):
        return synthesize_function(
            src,
            name,
            [
                interface(name, in_port, InterfaceMode.AXIS),
                interface(name, out_port, InterfaceMode.AXIS),
            ],
        )

    def test_preemph(self):
        x = synthetic_audio(self.N)
        res = self.synth(preemph_src(self.N), "preemph", "x", "y")
        y = np.zeros(self.N, dtype=np.int32)
        res.run(x, y)
        assert np.array_equal(y, preemph_reference(x))

    def test_energy(self):
        y = preemph_reference(synthetic_audio(self.N))
        res = self.synth(energy_src(self.N, self.FRAME), "energy", "y", "e")
        e = np.zeros(self.N // self.FRAME, dtype=np.int32)
        res.run(y, e)
        assert np.array_equal(e, energy_reference(y, self.FRAME))

    def test_detect(self):
        e = energy_reference(
            preemph_reference(synthetic_audio(self.N)), self.FRAME
        )
        nf = len(e)
        res = self.synth(detect_src(nf), "detect", "e", "hits")
        hits = np.zeros(nf, dtype=np.int32)
        res.run(e, hits)
        assert np.array_equal(hits, detect_reference(e))

    def test_detect_fires_on_keyword(self):
        x = synthetic_audio(1024, keyword_at=0.5)
        e = energy_reference(preemph_reference(x), 64)
        hits = detect_reference(e)
        assert hits.sum() >= 1
        # The burst sits at ~50% of the clip.
        first_hit = int(np.flatnonzero(hits)[0])
        assert abs(first_hit - len(hits) // 2) <= 2

    def test_quiet_clip_no_hits_after_warmup(self):
        rng_quiet = (np.zeros(512) + 10).astype(np.int32)
        e = energy_reference(preemph_reference(rng_quiet), 64)
        hits = detect_reference(e)
        assert hits[1:].sum() == 0


class TestApplication:
    def test_structures_valid(self):
        app = build_audio_app(n=256, frame=32)
        validate_htg(app.htg)
        app.partition.validate(app.htg)
        validate_graph(app.dsl_graph())

    def test_frame_divisibility(self):
        with pytest.raises(ReproError, match="multiple"):
            build_audio_app(n=100, frame=32)

    def test_all_software_run(self):
        app = build_audio_app(n=256, frame=32)
        from repro.htg import Partition

        report = simulate_application(
            app.htg, Partition.all_software(app.htg), app.behaviors, {}
        )
        assert np.array_equal(report.of("hits"), app.expected["hits"])

    def test_hardware_run_bit_exact(self):
        app = build_audio_app(n=256, frame=32)
        flow = app.build()
        report = app.simulate(flow.system)
        assert np.array_equal(report.of("hits"), app.expected["hits"])
        # One DMA in, one out: a single dual-channel engine.
        dmas = [c for c in flow.design.cells.values() if "axi_dma" in c.vlnv]
        assert len(dmas) == 1
