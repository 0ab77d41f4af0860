"""repro — a pure-Python reproduction of "Scala-based Domain-Specific
Language for Creating Accelerator-based SoCs" (Durelli et al., IPPS 2016).

The package rebuilds the paper's entire stack with no EDA tools or
hardware: the task-graph DSL (textual + embedded), a from-scratch HLS
engine, the Zynq block-design integrator with versioned tcl backends and
a tcl interpreter, the generated software layer (APIs, device tree, boot
files), a discrete-event SoC simulator, the Otsu case study with the
four Table-I architectures, and a DSE extension.

Quick start::

    from repro import build_otsu_app

    app = build_otsu_app(4)            # Table I, Arch4: an Application
    flow = app.build()                 # DSL -> HLS -> integrate -> tcl -> sw
    report = app.simulate(flow.system) # the generated system, simulated
    assert app.matches(report)         # bit-exact against the golden model

Every app (``repro.apps``: Otsu, the voice trigger, the 2-D edge
detector) is the same :class:`~repro.apps.Application` record.

See DESIGN.md for the system inventory and EXPERIMENTS.md for
paper-vs-measured numbers.
"""

from repro.apps import build_otsu_app, synthetic_scene
from repro.dsl import SOC, TaskGraphBuilder, emit_dsl, graph_from_htg, parse_dsl
from repro.flow import FlowConfig, materialize, run_flow, sdsoc_flow
from repro.hls import HlsProject, synthesize_function
from repro.htg import HTG, Actor, Partition, Phase, StreamChannel, Task
from repro.sim import simulate_application
from repro.sim.runtime import Behavior
from repro.soc import integrate, run_synthesis
from repro.tcl import TclRunner, generate_system_tcl

__version__ = "1.0.0"

__all__ = [
    "Actor",
    "Behavior",
    "FlowConfig",
    "HTG",
    "HlsProject",
    "Partition",
    "Phase",
    "SOC",
    "StreamChannel",
    "Task",
    "TaskGraphBuilder",
    "TclRunner",
    "__version__",
    "build_otsu_app",
    "emit_dsl",
    "generate_system_tcl",
    "graph_from_htg",
    "integrate",
    "materialize",
    "parse_dsl",
    "run_flow",
    "run_synthesis",
    "sdsoc_flow",
    "simulate_application",
    "synthesize_function",
    "synthetic_scene",
]
