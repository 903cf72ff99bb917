"""The ABCD algorithm: inequality graph, solver, driver, PRE."""

from repro.core.abcd import ABCDConfig, ABCDReport, CheckAnalysis
from repro.core.constraints import GraphBundle, build_graphs, collect_array_vars
from repro.core.exhaustive import compute_distances, exhaustive_prove
from repro.core.graph import Edge, InequalityGraph, Node, const_node, len_node, var_node
from repro.core.lattice import ProofResult, join_all, meet_all
from repro.core.pre import InsertionPoint, PREDecision, PREProver, attempt_pre
from repro.core.solver import DemandProver, ProveOutcome, demand_prove

__all__ = [
    "ABCDConfig",
    "ABCDReport",
    "CheckAnalysis",
    "GraphBundle",
    "build_graphs",
    "collect_array_vars",
    "InequalityGraph",
    "Node",
    "Edge",
    "var_node",
    "len_node",
    "const_node",
    "ProofResult",
    "meet_all",
    "join_all",
    "DemandProver",
    "ProveOutcome",
    "demand_prove",
    "compute_distances",
    "exhaustive_prove",
    "PREProver",
    "PREDecision",
    "InsertionPoint",
    "attempt_pre",
]
