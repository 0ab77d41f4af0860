"""Differentials over every app, built on :class:`repro.apps.Application`.

* word == burst: cycle- and digest-identical reports, with a bit-exact
  output, for the all-pipelined build of each of Otsu's buildable
  hardware sets (16x16), the voice trigger and the 2-D edge detector;
* cached == uncached: the build cache (cold and warm) reproduces the
  uncached artifact digest of the non-Otsu apps (Otsu's Table-I
  architectures are covered by ``test_flow_parallel.py``);
* word-phase pins: how many hardware phases the burst engine still
  hands to the word path, per app.  The pins are upper bounds: a
  change that widens the burst path may lower one, never raise it.
"""

import json

import pytest

from repro.apps import build_audio_app, build_edge2d_app
from repro.apps.otsu.app import build_otsu_custom, buildable_hw_sets
from repro.dse.evaluate import evaluate_candidate
from repro.dse.space import all_pipelined_candidate
from repro.flow import FlowConfig, materialize

SERIAL = FlowConfig(jobs=1, cache_dir=None)

#: Word-path phases of the burst run (upper bounds), keyed by app.
WORD_PHASE_PINS = {
    "otsu[]": 0,
    "otsu[grayScale]": 1,
    "otsu[histogram]": 1,
    "otsu[otsuMethod]": 0,
    "otsu[binarization]": 0,
    "otsu[grayScale,histogram]": 1,
    "otsu[histogram,otsuMethod]": 0,
    "otsu[binarization,otsuMethod]": 1,
    "otsu[grayScale,histogram,otsuMethod]": 1,
    "otsu[binarization,histogram,otsuMethod]": 1,
    "otsu[binarization,grayScale,histogram,otsuMethod]": 0,
    "audio": 0,
    "edge2d": 1,
}

OTHER_APPS = {
    "audio": lambda: build_audio_app(n=256, frame=32),
    "edge2d": lambda: build_edge2d_app(16, 16),
}


def otsu_id(hw) -> str:
    return f"otsu[{','.join(sorted(hw))}]"


def word_and_burst(app, system):
    word = app.simulate(system, burst_mode=False)
    burst = app.simulate(system, burst_mode=True)
    assert word.cycles == burst.cycles
    assert word.digest() == burst.digest()
    assert app.matches(burst)
    return word, burst


def test_pins_cover_every_app():
    assert set(WORD_PHASE_PINS) == {
        *(otsu_id(hw) for hw in buildable_hw_sets()), *OTHER_APPS
    }


@pytest.mark.parametrize("hw", buildable_hw_sets(), ids=otsu_id)
def test_otsu_word_equals_burst(hw):
    app = build_otsu_custom(hw, width=16, height=16)
    system = app.build(config=SERIAL).system if hw else None
    word, burst = word_and_burst(app, system)
    # The app's own directives pipeline every actor: it is the DSE's
    # all-pipelined candidate for this partition.
    assert evaluate_candidate(all_pipelined_candidate(hw)).cycles == word.cycles
    assert burst.burst_stats["word_phases"] <= WORD_PHASE_PINS[otsu_id(hw)]


@pytest.mark.parametrize("name", sorted(OTHER_APPS))
def test_word_equals_burst(name):
    app = OTHER_APPS[name]()
    _, burst = word_and_burst(app, app.build(config=SERIAL).system)
    assert burst.burst_stats["word_phases"] <= WORD_PHASE_PINS[name]


def artifact_digest(flow, out) -> str:
    materialize(flow, out)
    return json.loads((out / "MANIFEST.json").read_text())["artifact_digest"]


@pytest.mark.parametrize("name", sorted(OTHER_APPS))
def test_cached_equals_uncached(name, tmp_path):
    app = OTHER_APPS[name]()
    reference = app.build(config=SERIAL)
    cached = FlowConfig(jobs=1, cache_dir=str(tmp_path / "cache"))
    cold = app.build(config=cached)
    warm = app.build(config=cached)
    assert cold.timing.cache_misses == len(reference.cores)
    assert warm.timing.cache_hits == len(reference.cores)
    want = artifact_digest(reference, tmp_path / "ref")
    assert artifact_digest(cold, tmp_path / "cold") == want
    assert artifact_digest(warm, tmp_path / "warm") == want
