"""CFG surgery helpers: edge splitting and normalization.

ABCD's e-SSA construction inserts π-assignments *on CFG edges* (the exits
of conditional branches).  Splitting critical edges first guarantees every
conditional out-edge leads to a single-predecessor block, so πs can simply
be placed at the head of the target block (paper, Section 3).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.ir.function import BasicBlock, Function
from repro.ir.instructions import Jump


def split_edge(fn: Function, from_label: str, to_label: str) -> BasicBlock:
    """Insert a fresh block on the edge ``from_label -> to_label``.

    Retargets the terminator of ``from_label`` and rewrites φ incomings of
    ``to_label``.  Returns the new block.  If the edge occurs twice (both
    branch arms to the same target), both occurrences are retargeted — MiniJ
    lowering never produces such edges, and the verifier would reject the
    ambiguous φs they create.
    """
    middle = fn.new_block("edge")
    fn.set_terminator(middle.label, Jump(to_label))
    fn.blocks[from_label].replace_successor(to_label, middle.label)
    # Re-keying φ incomings changes labels only, never operands, so the
    # def-use index needs no reconciliation here.
    for phi in fn.blocks[to_label].phis:
        if from_label in phi.incomings:
            phi.incomings[middle.label] = phi.incomings.pop(from_label)
    return middle


def critical_edges(fn: Function) -> List[Tuple[str, str]]:
    """Edges from a multi-successor block to a multi-predecessor block."""
    preds = fn.predecessors()
    found = []
    for label in fn.reachable_blocks():
        block = fn.blocks[label]
        successors = block.successors()
        if len(successors) < 2:
            continue
        for succ in successors:
            if len(preds[succ]) > 1:
                found.append((label, succ))
    return found


def split_critical_edges(fn: Function) -> int:
    """Split every critical edge; returns how many were split."""
    count = 0
    for from_label, to_label in critical_edges(fn):
        split_edge(fn, from_label, to_label)
        count += 1
    return count
