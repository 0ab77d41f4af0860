"""Design-space exploration — the paper's declared future work.

Section II-C: "the hardware/software partitioning is provided as input
and can be manually obtained by the user or with the help of DSE tools
... we left the integration with DSE tools as a future work."  This
package closes that loop for the Otsu case study, COSMOS-style:
describe a composable search space (:mod:`space` — partitions × HLS
PIPELINE subsets × DMA policies × HP-port bandwidth), evaluate each
candidate through the real flow and simulator with the one evaluator
:func:`evaluate_candidate` (:mod:`evaluate`), every worker sharing one
persistent per-function HLS memo store, prune dominated points to a
latency-vs-LUT/FF/BRAM/DSP Pareto frontier (:mod:`pareto`), and run the
whole thing as a parallel, journaled, resumable,
deterministically-digested campaign (:mod:`campaign`).  The greedy
heuristic (:mod:`heuristics`) walks the same candidates through the
same evaluator — or through a finished campaign's points — as a
cross-check on the exhaustive frontier.
"""

from repro.dse.campaign import (
    CampaignConfig,
    CampaignResult,
    frontier_dominates,
    run_campaign,
    sdsoc_baseline_point,
)
from repro.dse.evaluate import EvalPoint, dse_flow_config, evaluate_candidate
from repro.dse.heuristics import greedy_partition
from repro.dse.pareto import ParetoFront, dominates, pareto_front
from repro.dse.space import (
    Candidate,
    SearchSpace,
    all_pipelined_candidate,
    otsu_directives_space,
    otsu_space,
    sdsoc_baseline_candidate,
)

__all__ = [
    "CampaignConfig",
    "CampaignResult",
    "Candidate",
    "EvalPoint",
    "ParetoFront",
    "SearchSpace",
    "all_pipelined_candidate",
    "dominates",
    "dse_flow_config",
    "evaluate_candidate",
    "frontier_dominates",
    "greedy_partition",
    "otsu_directives_space",
    "otsu_space",
    "pareto_front",
    "run_campaign",
    "sdsoc_baseline_candidate",
    "sdsoc_baseline_point",
]
