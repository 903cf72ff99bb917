"""The proof-witness grammar.

A witness is the derivation skeleton of one ``demandProve`` proof of
``target - source <= budget``: which inequality-graph edges the proof
crossed, how φ obligations were discharged, and where harmless cycles
closed.  Crucially it carries **structure only** — the checker recomputes
every budget itself by integer telescoping from the root query, so a
witness cannot smuggle in arithmetic the graph does not justify.

Grammar (each node proves a bound on one ``vertex``):

* ``AxiomWitness(rule)`` — a leaf fact needing no traversal:
  ``"source"`` (the empty path: vertex *is* the proof source and the
  budget is non-negative), ``"const-const"`` (two constants relate
  arithmetically), ``"len-nonneg"`` (a constant against an array-length
  source in the upper graph: lengths are non-negative);
* ``EdgeWitness(vertex, source, weight, sub)`` — a min vertex discharged
  through its one chosen in-edge;
* ``PhiWitness(vertex, branches)`` — a φ/max vertex: one
  ``(source, weight, sub)`` branch per in-edge of the rebuilt graph (the
  checker enforces the coverage);
* ``CycleWitness(vertex)`` — a harmless-cycle closure: the traversal
  revisited ``vertex`` while it was still active, with a budget no
  smaller than the active one (the cycle telescopes to non-positive
  weight; the cycle itself is the tree path from the active occurrence
  down to this leaf, and the rest of the tree is the entry derivation);
* ``AssumeWitness(vertex, phi_block, pred, offset)`` — a PRE assumption:
  the bound on ``vertex`` is established not by the graph but by a
  compensating :class:`~repro.ir.instructions.SpeculativeCheck` inserted
  on the CFG edge ``pred -> phi_block`` (Section 6.1); the checker
  verifies the instruction really exists and that its offset implies the
  telescoped obligation.

Every node carries ``open`` — the cycle targets referenced below it that
are **not** closed within its own subtree.  A witness with an empty
``open`` set is *context-free*: it replays under any root budget at least
as large as the one it was recorded at (all leaf conditions are monotone
in the budget).  The solver's memo only ever stores context-free
witnesses, which is what makes budget-subsumption reuse replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.graph import Node, const_node

_EMPTY: frozenset = frozenset()


@dataclass(frozen=True)
class AxiomWitness:
    """Leaf fact: ``rule`` is ``"source"``, ``"const-const"``, or
    ``"len-nonneg"``."""

    vertex: Node
    rule: str
    open: frozenset = field(default=_EMPTY, compare=False, repr=False)


@dataclass(frozen=True)
class CycleWitness:
    """Harmless-cycle closure at the revisited active ``vertex``."""

    vertex: Node
    open: frozenset = field(default=_EMPTY, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "open", frozenset((self.vertex,)))


@dataclass(frozen=True)
class AssumeWitness:
    """PRE assumption: a compensating check on ``pred -> phi_block``
    guards ``vertex + offset``."""

    vertex: Node
    phi_block: str
    pred: str
    offset: int
    open: frozenset = field(default=_EMPTY, compare=False, repr=False)


@dataclass(frozen=True)
class EdgeWitness:
    """Min vertex: ``vertex <= source + weight`` then prove ``source``."""

    vertex: Node
    source: Node
    weight: int
    sub: "Witness"
    open: frozenset = field(default=_EMPTY, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "open", self.sub.open - {self.vertex})


@dataclass(frozen=True)
class PhiWitness:
    """φ/max vertex: one ``(source, weight, sub)`` branch per in-edge."""

    vertex: Node
    branches: Tuple[Tuple[Node, int, "Witness"], ...]
    open: frozenset = field(default=_EMPTY, compare=False, repr=False)

    def __post_init__(self) -> None:
        merged: frozenset = _EMPTY
        for _, _, sub in self.branches:
            merged = merged | sub.open
        object.__setattr__(self, "open", merged - {self.vertex})


Witness = Union[AxiomWitness, CycleWitness, AssumeWitness, EdgeWitness, PhiWitness]


def is_closed(witness: Witness) -> bool:
    """True when the witness is context-free (no open cycle targets)."""
    return not witness.open


# ----------------------------------------------------------------------
# Serialization (deterministic: key order is fixed by construction and
# every collection is emitted in witness order, which the stabilized
# inequality-graph iteration makes reproducible across runs).
# ----------------------------------------------------------------------


def _node_json(node: Node) -> Dict[str, object]:
    if node.kind == "const":
        return {"kind": "const", "value": node.value}
    return {"kind": node.kind, "name": node.name}


def witness_to_json(witness: Optional[Witness]) -> Optional[Dict[str, object]]:
    """JSON form of a witness (``None`` passes through).

    Iterative: a deep-chain certificate nests as deep as the program's
    π/copy chain, and serialization must not depend on the interpreter
    recursion limit any more than the solver or the checker do.  The
    work stack carries ``(witness, container, key)`` triples; each
    converted node is written into its parent's slot, with sub-witnesses
    scheduled for later passes.
    """
    if witness is None:
        return None
    holder: Dict[str, object] = {"root": None}
    stack = [(witness, holder, "root")]
    while stack:
        w, container, key = stack.pop()
        if isinstance(w, AxiomWitness):
            converted: Dict[str, object] = {
                "node": "axiom",
                "vertex": _node_json(w.vertex),
                "rule": w.rule,
            }
        elif isinstance(w, CycleWitness):
            converted = {"node": "cycle", "vertex": _node_json(w.vertex)}
        elif isinstance(w, AssumeWitness):
            converted = {
                "node": "assume",
                "vertex": _node_json(w.vertex),
                "phi_block": w.phi_block,
                "pred": w.pred,
                "offset": w.offset,
            }
        elif isinstance(w, EdgeWitness):
            converted = {
                "node": "edge",
                "vertex": _node_json(w.vertex),
                "source": _node_json(w.source),
                "weight": w.weight,
                "sub": None,
            }
            stack.append((w.sub, converted, "sub"))
        else:
            assert isinstance(w, PhiWitness)
            branches: list = []
            converted = {
                "node": "phi",
                "vertex": _node_json(w.vertex),
                "branches": branches,
            }
            for source, weight, sub in w.branches:
                entry: Dict[str, object] = {
                    "source": _node_json(source),
                    "weight": weight,
                    "sub": None,
                }
                branches.append(entry)
                stack.append((sub, entry, "sub"))
        container[key] = converted
    return holder["root"]


# ----------------------------------------------------------------------
# The stored form: one table per store entry.  Rows are interned by
# content and every child row precedes its parent, so a table is
# acyclic by construction and decodes in one forward pass.  Sharing
# equal subtrees is sound for the checker: its cache is keyed by
# identity and tests each obligation's vertex before the lookup.
# ----------------------------------------------------------------------


class WitnessTable:
    """Encodes any number of witnesses into one shared table.

    ``vertices`` holds each distinct vertex once, as ``(kind, name)`` or
    ``("const", value)``.  ``rows`` holds each structurally distinct
    witness node once: ``("axiom", v, rule)``, ``("cycle", v)``,
    ``("assume", v, phi_block, pred, offset)``, ``("edge", v, src,
    weight, sub)`` or ``("phi", v, ((src, weight, sub), ...))``, where
    ``v`` and ``src`` index ``vertices`` and ``sub`` an earlier row.
    ``sizes[r]`` is row ``r``'s expanded tree size, by the rule the
    decoder bounds replay work with (:func:`tree_size`).
    """

    def __init__(self) -> None:
        self.vertices: List[tuple] = []
        self.rows: List[tuple] = []
        self.sizes: List[int] = []
        self._vertex_index: Dict[tuple, int] = {}
        self._row_index: Dict[tuple, int] = {}
        #: id(witness) -> (witness, row); holding the witness keeps its
        #: id unique while the table lives.
        self._encoded: Dict[int, Tuple[Witness, int]] = {}

    @staticmethod
    def _intern(key: tuple, table: List[tuple], index: Dict[tuple, int]) -> int:
        if key not in index:
            index[key] = len(table)
            table.append(key)
        return index[key]

    def vertex(self, node: Node) -> int:
        key = ("const", node.value) if node.kind == "const" else (node.kind, node.name)
        return self._intern(key, self.vertices, self._vertex_index)

    def witness(self, root: Witness) -> int:
        """Row of ``root``, appending the rows it needs.  Iterative, like
        :func:`witness_to_json`; an aliased subtree is encoded once."""
        encoded = self._encoded
        stack = [root]
        while stack:
            w = stack[-1]
            if id(w) in encoded:
                stack.pop()
                continue
            subs: Tuple[Witness, ...] = ()
            if isinstance(w, EdgeWitness):
                subs = (w.sub,)
            elif isinstance(w, PhiWitness):
                subs = tuple(sub for _, _, sub in w.branches)
            pending = [sub for sub in subs if id(sub) not in encoded]
            if pending:
                stack.extend(reversed(pending))
                continue
            stack.pop()
            v = self.vertex(w.vertex)
            children = [encoded[id(sub)][1] for sub in subs]
            if isinstance(w, EdgeWitness):
                source = self.vertex(w.source)
                key: tuple = ("edge", v, source, w.weight, children[0])
            elif isinstance(w, PhiWitness):
                key = ("phi", v, tuple(
                    (self.vertex(source), weight, child)
                    for (source, weight, _), child in zip(w.branches, children)
                ))
            elif isinstance(w, AxiomWitness):
                key = ("axiom", v, w.rule)
            elif isinstance(w, CycleWitness):
                key = ("cycle", v)
            else:
                key = ("assume", v, w.phi_block, w.pred, w.offset)
            row = self._intern(key, self.rows, self._row_index)
            if row == len(self.sizes):
                self.sizes.append(tree_size(sum(self.sizes[c] for c in children)))
            encoded[id(w)] = (w, row)
        return encoded[id(root)][1]


class WitnessDecodeError(ValueError):
    """A stored table does not encode well-formed witnesses."""


#: Saturation cap of the tree sizes :func:`tree_size` reports.
SIZE_CAP = 1 << 40


def tree_size(children_total: int) -> int:
    """Expanded tree size of a row whose children expand to
    ``children_total`` nodes together, saturating at :data:`SIZE_CAP`."""
    return min(1 + children_total, SIZE_CAP)


def decode_witness_table(
    vertices: list, rows: list
) -> Tuple[List[Node], List[Witness], List[int]]:
    """Rebuild the vertices and witnesses of one stored table.

    Zero-trust: the lists are durable bytes that may have been tampered
    with, so every shape violation raises :class:`WitnessDecodeError`.
    Also returns each row's expanded tree size (:func:`tree_size`; a few
    rows can stand for an exponentially large tree): the most work a
    replay of that row can cost.
    """
    nodes = [_decode_vertex(raw) for raw in vertices]
    witnesses: List[Witness] = []
    sizes: List[int] = []

    def field(value: object, bound: Optional[int], what: str) -> int:
        if type(value) is not int or (bound is not None and not 0 <= value < bound):
            raise WitnessDecodeError(f"row {len(witnesses)}: bad {what}")
        return value

    def vertex(value: object) -> Node:
        return nodes[field(value, len(nodes), "vertex index")]

    def sub(value: object) -> int:
        return field(value, len(witnesses), "sub, not an earlier row")

    for raw in rows:
        tag, arity = (raw[0], len(raw)) if isinstance(raw, list) and raw else (None, 0)
        children_total = 0
        if tag == "axiom" and arity == 3 and isinstance(raw[2], str):
            witness: Witness = AxiomWitness(vertex(raw[1]), raw[2])
        elif tag == "cycle" and arity == 2:
            witness = CycleWitness(vertex(raw[1]))
        elif tag == "assume" and arity == 5 and all(isinstance(b, str) for b in raw[2:4]):
            offset = field(raw[4], None, "offset")
            witness = AssumeWitness(vertex(raw[1]), raw[2], raw[3], offset)
        elif tag == "edge" and arity == 5:
            child = sub(raw[4])
            weight = field(raw[3], None, "weight")
            witness = EdgeWitness(
                vertex(raw[1]), vertex(raw[2]), weight, witnesses[child]
            )
            children_total += sizes[child]
        elif tag == "phi" and arity == 3 and isinstance(raw[2], list):
            branches = []
            for branch in raw[2]:
                if not isinstance(branch, list) or len(branch) != 3:
                    raise WitnessDecodeError(f"row {len(witnesses)}: bad φ branch")
                child = sub(branch[2])
                weight = field(branch[1], None, "weight")
                branches.append((vertex(branch[0]), weight, witnesses[child]))
                children_total += sizes[child]
            witness = PhiWitness(vertex(raw[1]), tuple(branches))
        else:
            raise WitnessDecodeError(f"row {len(witnesses)}: malformed row")
        witnesses.append(witness)
        sizes.append(tree_size(children_total))
    return nodes, witnesses, sizes


def _decode_vertex(raw: object) -> Node:
    if isinstance(raw, list) and len(raw) == 2:
        kind, name = raw
        if kind == "const" and type(name) is int:
            return const_node(name)
        if kind != "const" and isinstance(kind, str) and isinstance(name, str):
            return Node(kind, name=name)
    raise WitnessDecodeError("malformed vertex")
