"""One record per application: the description that drives the whole flow.

An :class:`Application` holds what the paper's DSL description and its
C sources carry: the task graph (HTG) under a HW/SW partition, the
synthesizable source and extra HLS directives of each hardware
function, the functional behaviours the simulator executes, and the
golden words each output data item must hold.  :meth:`~Application.build`
runs the flow (DSL → HLS → integration → tcl → software),
:meth:`~Application.simulate` executes the built system and
:meth:`~Application.matches` checks a run against the golden outputs,
so no caller wires those three steps together by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsl.ast import TgGraph
from repro.dsl.from_htg import graph_from_htg
from repro.flow.orchestrator import FlowResult, run_flow
from repro.hls.interfaces import Directive
from repro.htg.model import HTG
from repro.htg.partition import Partition
from repro.sim.runtime import Behavior, ExecutionReport, simulate_application
from repro.soc.integrator import IntegratedSystem


@dataclass
class Application:
    """An application ready to build, simulate and check."""

    htg: HTG
    partition: Partition
    behaviors: dict[str, Behavior]
    c_sources: dict[str, str]
    extra_directives: dict[str, list[Directive]]
    #: Output data item -> the golden words a correct run produces.
    expected: dict[str, np.ndarray]

    def dsl_graph(self) -> TgGraph:
        """The DSL description of the hardware side (named after the HTG)."""
        return graph_from_htg(self.htg, self.partition)

    def build(self, **flow_kw) -> FlowResult:
        """Run the flow; keywords go to :func:`run_flow` (an explicit
        ``extra_directives`` replaces the application's own)."""
        flow_kw.setdefault("extra_directives", self.extra_directives)
        return run_flow(self.dsl_graph(), self.c_sources, **flow_kw)

    def simulate(
        self, system: IntegratedSystem | None = None, **sim_kw
    ) -> ExecutionReport:
        """Execute on *system* (None runs an all-software partition);
        keywords go to :func:`simulate_application`."""
        return simulate_application(
            self.htg, self.partition, self.behaviors, {}, system=system, **sim_kw
        )

    def matches(self, report: ExecutionReport) -> bool:
        """Whether every expected output of *report* is bit-exact."""
        return all(
            np.array_equal(report.of(item), np.asarray(words))
            for item, words in self.expected.items()
        )
