"""Dominator tree.

Implements the Cooper–Harvey–Kennedy iterative dominator algorithm ("A
Simple, Fast Dominance Algorithm").  The SSA verifier, natural-loop
detection, GVN and PRE use it; e-SSA construction does not.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.ir.function import Function


class DominatorTree:
    """Immediate dominators and dominance queries for the reachable part
    of a function's CFG."""

    def __init__(
        self,
        entry: str,
        idom: Dict[str, Optional[str]],
        rpo_index: Dict[str, int],
    ) -> None:
        self.entry = entry
        self.idom = idom
        self._rpo_index = rpo_index
        self.children: Dict[str, List[str]] = {label: [] for label in idom}
        for label, parent in idom.items():
            if parent is not None and label != entry:
                self.children[parent].append(label)
        # Depth of each node for O(depth) dominance queries.
        self._depth: Dict[str, int] = {}
        self._compute_depths()

    @classmethod
    def compute(cls, fn: Function) -> "DominatorTree":
        """Build the dominator tree of ``fn`` (reachable blocks only)."""
        return cls.from_cfg(fn.entry, fn.reachable_blocks(), fn.predecessors())

    @classmethod
    def from_cfg(
        cls, entry: str, rpo: List[str], preds: Dict[str, List[str]]
    ) -> "DominatorTree":
        """Build the tree from a reachable-block RPO and predecessor map."""
        rpo_index = {label: index for index, label in enumerate(rpo)}

        idom: Dict[str, Optional[str]] = {label: None for label in rpo}
        idom[entry] = entry

        def intersect(b1: str, b2: str) -> str:
            while b1 != b2:
                while rpo_index[b1] > rpo_index[b2]:
                    assert idom[b1] is not None
                    b1 = idom[b1]  # type: ignore[assignment]
                while rpo_index[b2] > rpo_index[b1]:
                    assert idom[b2] is not None
                    b2 = idom[b2]  # type: ignore[assignment]
            return b1

        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == entry:
                    continue
                processed_preds = [
                    p for p in preds[label] if p in rpo_index and idom[p] is not None
                ]
                if not processed_preds:
                    continue
                new_idom = processed_preds[0]
                for pred in processed_preds[1:]:
                    new_idom = intersect(pred, new_idom)
                if idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True

        # Entry's idom is conventionally None for external consumers.
        result = dict(idom)
        result[entry] = None
        return cls(entry, result, rpo_index)

    def _compute_depths(self) -> None:
        self._depth[self.entry] = 0
        stack = [self.entry]
        while stack:
            node = stack.pop()
            for child in self.children[node]:
                self._depth[child] = self._depth[node] + 1
                stack.append(child)

    def dominates(self, a: str, b: str) -> bool:
        """True iff block ``a`` dominates block ``b`` (reflexive)."""
        while self._depth.get(b, -1) > self._depth.get(a, -1):
            parent = self.idom[b]
            assert parent is not None
            b = parent
        return a == b

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def immediate_dominator(self, label: str) -> Optional[str]:
        return self.idom[label]

    def depth(self, label: str) -> int:
        return self._depth[label]

    def preorder(self) -> List[str]:
        """Dominator-tree preorder (parents before children)."""
        order: List[str] = []
        stack = [self.entry]
        while stack:
            node = stack.pop()
            order.append(node)
            # Reverse for stable left-to-right ordering.
            stack.extend(reversed(self.children[node]))
        return order
