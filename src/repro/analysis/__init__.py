"""CFG analyses: dominance, loops, and edge utilities."""

from repro.analysis.cfg_utils import critical_edges, split_critical_edges, split_edge
from repro.analysis.dominance import DominatorTree
from repro.analysis.loops import NaturalLoop, find_natural_loops, loop_depths

__all__ = [
    "DominatorTree",
    "NaturalLoop",
    "find_natural_loops",
    "loop_depths",
    "critical_edges",
    "split_critical_edges",
    "split_edge",
]
