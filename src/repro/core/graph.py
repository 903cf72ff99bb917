"""The inequality graph ``G_I`` (paper, Definition 1).

Vertices are e-SSA variables, array-length literals (``len(A)`` for an SSA
array variable ``A``), and integer constants.  A directed edge
``u -> v`` with weight ``w`` encodes the difference constraint
``v <= u + w``.  φ-defined vertices form the distinguished set ``V_φ``
(*max* vertices); all others are *min* vertices.

Both the upper-bound graph and its dual lower-bound graph use this one
representation.  The lower-bound graph is built in *negated space* (each
vertex stands for the negated program value), which turns every ``>=``
fact into a ``<=`` edge so a single solver serves both problems — see
``repro.core.constraints`` for the dual construction rules.

Each edge records the basic block of its generating statement, which the
driver uses to replicate the paper's "local vs. global" breakdown of
Figure 6 (a check counts as *locally* redundant when a proof exists using
only constraints generated in the check's own block).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple


class Node(NamedTuple):
    """A vertex of the inequality graph.

    ``kind`` is one of:

    * ``"var"`` — an e-SSA variable; ``name`` holds the SSA name;
    * ``"len"`` — the array-length literal of the SSA array variable
      ``name``;
    * ``"const"`` — the integer constant ``value``.

    A named tuple, so construction, hashing and equality run in C: the
    solver's memo and active set, every in-edge lookup and the checker's
    replay probe vertices constantly.  Its hash is the hash of its field
    tuple, as a frozen dataclass's was, so set and dict orders (and with
    them proof search and certificate bytes) do not depend on the type.
    """

    kind: str
    name: str = ""
    value: int = 0

    def __str__(self) -> str:
        if self.kind == "var":
            return self.name
        if self.kind == "len":
            return f"len({self.name})"
        return str(self.value)


def var_node(name: str) -> Node:
    return Node("var", name)


def len_node(array: str) -> Node:
    return Node("len", array)


def const_node(value: int) -> Node:
    return Node("const", "", value)


class Edge(NamedTuple):
    """A difference constraint ``target <= source + weight``.

    ``block`` is the label of the basic block whose statement generated the
    constraint (``None`` for synthetic edges such as the const-const
    completion the solver performs on the fly).  A named tuple like
    :class:`Node`; ``edge._replace(weight=...)`` derives a variant.
    """

    source: Node
    target: Node
    weight: int
    block: Optional[str] = None

    def __str__(self) -> str:
        return f"{self.target} <= {self.source} + {self.weight}"


class InequalityGraph:
    """Sparse difference-constraint system over e-SSA names.

    Stored as in-edge adjacency (the solver of Figure 5 explores
    *backwards*, from the array-index vertex toward the array-length
    vertex).  ``direction`` is ``"upper"`` or ``"lower"`` and only affects
    how constant vertices translate to numeric values (negated space for
    the lower graph).
    """

    def __init__(self, direction: str = "upper") -> None:
        if direction not in ("upper", "lower"):
            raise ValueError(f"bad direction {direction!r}")
        self.direction = direction
        self._in_edges: Dict[Node, List[Edge]] = {}
        self.phi_nodes: set = set()
        #: Constant vertices that have real in-edges; used by the solver's
        #: on-demand constant completion (see :meth:`in_edges`).
        self._anchored_consts: set = set()
        self.edge_count = 0

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------

    def add_edge(
        self, source: Node, target: Node, weight: int, block: Optional[str] = None
    ) -> None:
        """Add the constraint ``target <= source + weight``.

        Parallel edges between the same pair keep only the strongest
        (smallest-weight) constraint — e-SSA guarantees ``G_I`` is not a
        multigraph for paper-generated constraints, but extensions (GVN,
        allocation bounds) may repeat a pair.
        """
        edges = self._in_edges.setdefault(target, [])
        for position, existing in enumerate(edges):
            if existing.source == source:
                if weight < existing.weight:
                    edges[position] = Edge(source, target, weight, block)
                return
        edges.append(Edge(source, target, weight, block))
        self.edge_count += 1
        if target.kind == "const":
            self._anchored_consts.add(target)

    def mark_phi(self, node: Node) -> None:
        """Put ``node`` into ``V_φ`` (max-vertex set)."""
        self.phi_nodes.add(node)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def const_value(self, node: Node) -> int:
        """Numeric value a constant vertex stands for, respecting negated
        space in the lower-bound graph."""
        assert node.kind == "const"
        return node.value if self.direction == "upper" else -node.value

    def is_phi(self, node: Node) -> bool:
        return node in self.phi_nodes

    def in_edges(self, node: Node) -> List[Edge]:
        """In-edges of ``node``, including the on-demand constant
        completion: between two constant vertices the constraint
        ``c2 <= c1 + (value(c2) - value(c1))`` always holds, so every
        *anchored* constant (one with real in-edges, e.g. from an
        allocation bound) offers a virtual edge into any constant of
        **strictly smaller** value.

        The descending-only restriction keeps the completion acyclic,
        preserving the solver's soundness invariant that every cycle of
        ``G_I`` passes through a φ vertex (see Section 4's consistency
        argument); an ascending constant hop could only prove bounds slack
        by more than the constant gap, which bounds-check queries never
        need.
        """
        edges = list(self._in_edges.get(node, ()))
        if node.kind == "const":
            target_value = self.const_value(node)
            # Sorted iteration keeps traversal (and therefore emitted proof
            # witnesses) deterministic across interpreter hash seeds.
            for anchor in sorted(self._anchored_consts, key=lambda n: n.value):
                if anchor == node:
                    continue
                anchor_value = self.const_value(anchor)
                if target_value < anchor_value:
                    edges.append(Edge(anchor, node, target_value - anchor_value))
        return edges

    def has_predecessors(self, node: Node) -> bool:
        if self._in_edges.get(node):
            return True
        if node.kind != "const":
            return False
        value = self.const_value(node)
        return any(
            self.const_value(anchor) > value
            for anchor in self._anchored_consts
            if anchor != node
        )

    def nodes(self) -> List[Node]:
        """All vertices mentioned by any edge."""
        seen = set()
        for target, edges in self._in_edges.items():
            seen.add(target)
            for edge in edges:
                seen.add(edge.source)
        seen.update(self.phi_nodes)
        return sorted(seen, key=str)

    def edges(self) -> Iterable[Edge]:
        for edges in self._in_edges.values():
            yield from edges

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def to_dot(self, highlight: Tuple[Node, ...] = ()) -> str:
        """Graphviz rendering in the style of the paper's Figure 4."""
        lines = [
            f'digraph "inequality_{self.direction}" {{',
            "  rankdir=TB; node [fontname=monospace];",
        ]
        for node in self.nodes():
            shape = "doublecircle" if self.is_phi(node) else "ellipse"
            color = ', style=filled, fillcolor="#ffdd99"' if node in highlight else ""
            lines.append(f'  "{node}" [shape={shape}{color}];')
        for edge in self.edges():
            lines.append(
                f'  "{edge.source}" -> "{edge.target}" [label="{edge.weight}"];'
            )
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"InequalityGraph({self.direction}, {len(self.nodes())} nodes, "
            f"{self.edge_count} edges, {len(self.phi_nodes)} phi)"
        )


class DualGraph:
    """Both directions' constraint systems of one function: two
    :class:`InequalityGraph` halves sharing one φ set.

    The paper solves two difference-constraint systems per function — the
    upper-bound graph and its negated-space lower-bound dual — over the
    same e-SSA vertex universe.  ``add_edge(u, v, upper=w1, lower=w2)``
    records the Table-1 contribution of one statement to both systems at
    once.  The φ vertex set ``V_φ`` is shared — Table 1 marks the same
    destinations in both systems — while edge topology and weights may
    differ (C4/C5 π predicates are one-sided, allocation facts and the
    ``len(A) >= 0`` axiom are asymmetric).

    Each half keeps its own insertion order, exactly as if the two graphs
    had been built separately, so the solver's traversal and the proof
    witnesses it emits do not depend on the pairing.  ``views`` maps each
    direction to its half; handing the pair to
    :class:`~repro.core.solver.DemandProver` makes the session
    dual-direction.
    """

    def __init__(self) -> None:
        upper, lower = InequalityGraph("upper"), InequalityGraph("lower")
        lower.phi_nodes = upper.phi_nodes
        self.views: Dict[str, InequalityGraph] = {"upper": upper, "lower": lower}

    def add_edge(
        self,
        source: Node,
        target: Node,
        upper: Optional[int] = None,
        lower: Optional[int] = None,
        block: Optional[str] = None,
    ) -> None:
        """Add ``target <= source + w`` with per-direction weights (a
        ``None`` weight leaves that direction's system untouched)."""
        if upper is not None:
            self.views["upper"].add_edge(source, target, upper, block)
        if lower is not None:
            self.views["lower"].add_edge(source, target, lower, block)

    def view(self, direction: str) -> InequalityGraph:
        return self.views[direction]

    def __repr__(self) -> str:
        return f"DualGraph({self.views['upper']!r}, {self.views['lower']!r})"
