"""Malware containment as network influence minimisation.

Classical baseline (Independent Cascade + Monte Carlo + greedy edge removal)
and a simulated quantum pipeline (amplitude-estimation influence readout and
Grover minimum finding) with shared oracle-call accounting.
"""
from .graph import (
    Edge,
    Graph,
    ParseError,
    ProblemInstance,
    generate_random_instance,
    parse_instance,
    remove_edges,
    serialize_instance,
)
from .cascade import (
    ExactInfluence,
    InfluenceEstimate,
    exact_influence,
    mc_influence,
)
from .containment import (
    ContainmentPlan,
    ObjectiveValue,
    RunAccounting,
    candidate_edges,
    greedy_contain,
    linear_finder,
    make_exact_estimator,
    make_mc_estimator,
    make_qae_estimator,
    objective,
    operational_impact,
)
from .qae import (
    AmplitudeEstimate,
    AOperatorSpec,
    build_a_operator,
    build_q_operator,
    qae_estimate,
    qae_influence,
)
from .gmf import (
    GroverRun,
    MinFindResult,
    durr_hoyer_min,
    grover_search,
    make_gmf_finder,
)

__all__ = [
    "Edge",
    "Graph",
    "ParseError",
    "ProblemInstance",
    "generate_random_instance",
    "parse_instance",
    "remove_edges",
    "serialize_instance",
    "ExactInfluence",
    "InfluenceEstimate",
    "exact_influence",
    "mc_influence",
    "ContainmentPlan",
    "ObjectiveValue",
    "RunAccounting",
    "candidate_edges",
    "greedy_contain",
    "linear_finder",
    "make_exact_estimator",
    "make_mc_estimator",
    "make_qae_estimator",
    "objective",
    "operational_impact",
    "AmplitudeEstimate",
    "AOperatorSpec",
    "build_a_operator",
    "build_q_operator",
    "qae_estimate",
    "qae_influence",
    "GroverRun",
    "MinFindResult",
    "durr_hoyer_min",
    "grover_search",
    "make_gmf_finder",
]

__version__ = "0.1.0"
