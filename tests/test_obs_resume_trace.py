"""Crash/resume observability differential.

The run journal already guarantees a crash-then-resume pair produces
byte-identical *artifacts* (``tests/test_resume.py``).  This module pins
the same property for the *observability* outputs: the Chrome trace of
an uninterrupted journaled build and the trace of a crash-recovered
build must carry identical committed-step span sets — whichever journal
boundary the kill landed on, and whether the two halves are captured
together (in-process crash harness) or separately (a real ``os._exit``
kill of ``repro build --trace``, resumed with ``--resume --trace``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps.kernels import build_fig4_flow_inputs
from repro.dsl import emit_dsl
from repro.flow import FlowConfig, RunJournal, all_sites, run_flow
from repro.flow.crashpoints import CRASH_EXIT_CODE, CrashPlan, armed
from repro.obs import capture, chrome_trace
from repro.util.errors import FlowInterrupted
from tests.obs_invariants import (
    assert_valid_chrome,
    assert_well_formed,
    committed_step_spans,
)

SIZE = 24


@pytest.fixture(scope="module")
def inputs():
    return build_fig4_flow_inputs(SIZE)


@pytest.fixture(scope="module")
def reference_committed(inputs, tmp_path_factory):
    """Committed-step set of an uninterrupted journaled build."""
    graph, sources, directives = inputs
    tmp = tmp_path_factory.mktemp("obs-ref")
    with capture() as (bus, registry):
        with RunJournal(tmp / "journal") as journal:
            run_flow(
                graph, sources, extra_directives=directives,
                config=FlowConfig(cache_dir=str(tmp / "cache")),
                journal=journal,
            )
    assert_well_formed(bus.events(), registry.snapshot())
    obj = chrome_trace(bus.events())
    assert_valid_chrome(obj)
    committed = committed_step_spans(obj)
    assert {"integrate", "swgen"} <= committed
    assert any(s.startswith("hls:") for s in committed)
    return committed


def interesting_sites():
    graph, _, _ = build_fig4_flow_inputs(SIZE)
    sites = all_sites([n.name for n in graph.nodes])
    # One site per kind is enough for the differential; the full matrix
    # is crashcheck's job.
    picked = [s for s in sites if s.endswith(":start")][:2]
    picked += [s for s in sites if s.endswith(":commit")][:1]
    picked += ["integrate:start", "swgen:start"]
    return sorted(set(picked))


class TestInProcessCrashResume:
    @pytest.mark.parametrize("site", interesting_sites())
    def test_committed_span_sets_identical(
        self, inputs, reference_committed, tmp_path, site
    ):
        graph, sources, directives = inputs
        config = FlowConfig(cache_dir=str(tmp_path / "cache"))
        journal = RunJournal(tmp_path / "journal")
        with capture() as (bus, registry):
            try:
                with armed(CrashPlan(site)):
                    run_flow(
                        graph, sources, extra_directives=directives,
                        config=config, journal=journal,
                    )
            except FlowInterrupted:
                pass
            # The interrupted half alone may hold a dangling intent (the
            # write-ahead record of the step the kill landed on) — legal
            # exactly here, and the spans still all closed.
            assert_well_formed(bus.events(), allow_dangling_intents=True)
            run_flow(
                graph, sources, extra_directives=directives,
                config=config, journal=journal,
            )
        journal.close()
        events = bus.events()
        # The resumed whole must satisfy the strict contract again: every
        # intent eventually paired, every span closed, cache books exact.
        assert_well_formed(events, registry.snapshot(), allow_dangling_intents=True)
        obj = chrome_trace(events)
        assert_valid_chrome(obj)
        assert committed_step_spans(obj) == reference_committed

    def test_resume_trace_alone_carries_full_committed_set(
        self, inputs, reference_committed, tmp_path
    ):
        """A trace captured only around the resume still shows every
        committed step — earlier commits arrive as replayed instants."""
        graph, sources, directives = inputs
        config = FlowConfig(cache_dir=str(tmp_path / "cache"))
        journal = RunJournal(tmp_path / "journal")
        with pytest.raises(FlowInterrupted):
            with armed(CrashPlan("integrate:start")):
                run_flow(
                    graph, sources, extra_directives=directives,
                    config=config, journal=journal,
                )
        with capture() as (bus, registry):
            run_flow(
                graph, sources, extra_directives=directives,
                config=config, journal=journal,
            )
        journal.close()
        assert_well_formed(bus.events(), registry.snapshot())
        obj = chrome_trace(bus.events())
        assert_valid_chrome(obj)
        assert committed_step_spans(obj) == reference_committed
        replayed = [
            e for e in bus.events()
            if e.category == "journal.commit" and e.field("replayed")
        ]
        assert len(replayed) >= 4  # the four journal-committed HLS cores
        assert registry.snapshot()["journal.replays"]["value"] == len(replayed)


class TestCliCrashResumeTrace:
    """Real ``os._exit`` kill of ``repro build --trace``; the resumed
    build's exported trace must match a clean build's trace."""

    @pytest.fixture()
    def project(self, inputs, tmp_path):
        graph, sources, _ = inputs
        (tmp_path / "design.tg").write_text(emit_dsl(graph))
        srcdir = tmp_path / "src"
        srcdir.mkdir()
        for name, text in sources.items():
            (srcdir / f"{name}.c").write_text(text)
        return tmp_path

    def run_build(self, project, *extra, crash_at=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env.pop("REPRO_FLOW_CRASH_AT", None)
        env.pop("REPRO_FLOW_CRASH_MODE", None)
        if crash_at:
            env["REPRO_FLOW_CRASH_AT"] = crash_at
            env["REPRO_FLOW_CRASH_MODE"] = "exit"
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "build", "design.tg",
                "--sources", "src", "--out", "out", *extra,
            ],
            cwd=project, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_resumed_trace_matches_clean_trace(self, project):
        clean = self.run_build(
            project, "--out", "out-clean", "--trace", "clean.json"
        )
        assert clean.returncode == 0, clean.stderr
        killed = self.run_build(
            project, "--trace", "killed.json", crash_at="hls:EDGE:commit"
        )
        assert killed.returncode == CRASH_EXIT_CODE
        assert not (project / "killed.json").exists()  # died before export
        resumed = self.run_build(project, "--resume", "--trace", "resumed.json")
        assert resumed.returncode == 0, resumed.stderr

        clean_obj = json.loads((project / "clean.json").read_text())
        resumed_obj = json.loads((project / "resumed.json").read_text())
        assert_valid_chrome(clean_obj)
        assert_valid_chrome(resumed_obj)
        assert committed_step_spans(resumed_obj) == committed_step_spans(clean_obj)
