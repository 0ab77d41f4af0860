"""Candidate evaluation: run the flow + simulator per candidate.

:func:`evaluate_candidate` is the one evaluator: it turns a
:class:`~repro.dse.space.Candidate` (partition × PIPELINE subset × DMA
policy × HP-port bandwidth) into an :class:`EvalPoint`.  The campaign
runner and the greedy heuristic both go through it.

Every flow config a DSE evaluation uses comes from one factory,
:func:`dse_flow_config`, which pins the cache routing **explicitly**:
the whole-core build cache is off (a whole-core hit would bypass the
per-function memo entirely and hide regressions the campaign is meant
to measure), ``fn_cache_dir`` routes every worker at the one shared
persistent :class:`~repro.hls.fncache.FunctionCache` store, and
``jobs=1`` keeps per-candidate synthesis serial (the campaign
parallelizes across candidates, not inside them).  Constructing ad-hoc
``FlowConfig()`` instances here was the PR 10 bug: the env-default
``cache_dir``/``jobs`` fields meant parallel workers could each spawn a
private cold store.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.otsu.app import build_otsu_custom
from repro.dse.space import Candidate, actors_of
from repro.flow.orchestrator import FlowConfig
from repro.soc.integrator import IntegrationConfig
from repro.util.errors import ReproError


def dse_flow_config(
    *,
    fn_cache_dir: str | None = None,
    one_dma_per_stream: bool = False,
    check_tcl: bool = False,
) -> FlowConfig:
    """The one flow config every DSE evaluation routes through.

    ``jobs`` and ``cache_dir`` are pinned (not env-defaulted): candidate
    evaluations must be identical no matter which worker process — or
    CI environment — runs them.
    """
    return FlowConfig(
        check_tcl=check_tcl,
        jobs=1,
        cache_dir=None,
        fn_cache_dir=str(fn_cache_dir) if fn_cache_dir is not None else None,
        integration=IntegrationConfig(one_dma_per_stream=one_dma_per_stream),
    )


@dataclass(frozen=True)
class EvalPoint:
    """One evaluated search-space candidate."""

    candidate: Candidate
    lut: int
    ff: int
    bram18: int
    dsp: int
    cycles: int
    correct: bool
    dma_cells: int
    fn_cache_hits: int
    fn_cache_misses: int

    @property
    def cid(self) -> str:
        return self.candidate.cid

    def objectives(self) -> tuple[int, int, int, int, int]:
        return (self.lut, self.ff, self.bram18, self.dsp, self.cycles)

    def label(self) -> str:
        return self.candidate.label()

    def record(self) -> dict:
        """Journaled form.  Deliberately **excludes** fn-cache counters:
        per-point hit/miss splits depend on evaluation order under
        parallelism, and the journal feeds the campaign digest."""
        return {
            "cid": self.cid,
            "candidate": self.candidate.as_dict(),
            "lut": self.lut,
            "ff": self.ff,
            "bram18": self.bram18,
            "dsp": self.dsp,
            "cycles": self.cycles,
            "correct": self.correct,
            "dma_cells": self.dma_cells,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "EvalPoint":
        return cls(
            candidate=Candidate.from_dict(rec["candidate"]),
            lut=rec["lut"],
            ff=rec["ff"],
            bram18=rec["bram18"],
            dsp=rec["dsp"],
            cycles=rec["cycles"],
            correct=rec["correct"],
            dma_cells=rec["dma_cells"],
            fn_cache_hits=0,
            fn_cache_misses=0,
        )


def evaluate_candidate(
    candidate: Candidate,
    *,
    width: int = 16,
    height: int = 16,
    fn_cache_dir: str | None = None,
    check_tcl: bool = False,
) -> EvalPoint:
    """Build, synthesize, integrate and simulate one candidate."""
    hw = frozenset(candidate.get("hw", ()))
    pipelined = frozenset(candidate.get("pipelined", ()))
    dma = candidate.get("dma", "paired")
    hp_words = int(candidate.get("hp_words", 2))
    unknown = pipelined - set(actors_of(hw))
    if unknown:
        raise ReproError(f"not pipelineable in {sorted(hw)}: {sorted(unknown)}")
    app = build_otsu_custom(hw, width=width, height=height)

    dma_cells = 0
    if hw:
        flow = app.build(
            extra_directives={
                actor: [
                    d
                    for d in dirs
                    if d.kind != "pipeline" or actor in pipelined
                ]
                for actor, dirs in app.extra_directives.items()
            },
            config=dse_flow_config(
                fn_cache_dir=fn_cache_dir,
                one_dma_per_stream=(dma == "per-stream"),
                check_tcl=check_tcl,
            ),
        )
        system = flow.system
        usage = flow.bitstream.utilization
        dma_cells = sum(
            1 for c in system.design.cells.values() if "axi_dma" in c.vlnv
        )
        fn_hits = flow.timing.fn_cache_hits
        fn_misses = flow.timing.fn_cache_misses
    else:
        system = None
        from repro.hls.resources import ResourceUsage

        usage = ResourceUsage()
        fn_hits = fn_misses = 0
    report = app.simulate(system, hp_words_per_cycle=hp_words)
    correct = app.matches(report)
    return EvalPoint(
        candidate=candidate,
        lut=usage.lut,
        ff=usage.ff,
        bram18=usage.bram18,
        dsp=usage.dsp,
        cycles=report.cycles,
        correct=correct,
        dma_cells=dma_cells,
        fn_cache_hits=fn_hits,
        fn_cache_misses=fn_misses,
    )
