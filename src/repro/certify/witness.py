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
# Deserialization (zero-trust: the input is durable bytes that may have
# been tampered with; every shape violation raises WitnessDecodeError
# rather than producing a half-formed witness).
# ----------------------------------------------------------------------


class WitnessDecodeError(ValueError):
    """The JSON does not encode a well-formed witness."""


def _node_from_json(data: object) -> Node:
    if not isinstance(data, dict):
        raise WitnessDecodeError("node is not an object")
    kind = data.get("kind")
    if kind == "const":
        value = data.get("value")
        if type(value) is not int:
            raise WitnessDecodeError("const node without integer value")
        return const_node(value)
    name = data.get("name")
    if not isinstance(kind, str) or not isinstance(name, str):
        raise WitnessDecodeError("node without string kind/name")
    return Node(kind, name=name)


def witness_from_json(data: Optional[Dict[str, object]]) -> Optional[Witness]:
    """Rebuild a witness from its :func:`witness_to_json` form.

    Iterative like the encoder (deep π/copy chains must not hit the
    recursion limit), but post-order: the frozen dataclasses compute
    their ``open`` sets from their children in ``__post_init__``, so a
    parent can only be constructed after its sub-witnesses exist.  The
    stack interleaves ``visit`` frames (decode one JSON node, schedule
    children) with ``build`` frames (construct the parent once every
    child slot below it is filled).
    """
    if data is None:
        return None
    holder: List[Optional[Witness]] = [None]
    stack: List[tuple] = [("visit", data, holder, 0)]
    while stack:
        op, obj, container, index = stack.pop()
        if op == "build":
            # obj is (constructor-closure, child holders).
            container[index] = obj[0]([h[0] for h in obj[1]])
            continue
        if not isinstance(obj, dict):
            raise WitnessDecodeError("witness is not an object")
        node = obj.get("node")
        vertex = _node_from_json(obj.get("vertex"))
        if node == "axiom":
            rule = obj.get("rule")
            if not isinstance(rule, str):
                raise WitnessDecodeError("axiom without string rule")
            container[index] = AxiomWitness(vertex, rule)
        elif node == "cycle":
            container[index] = CycleWitness(vertex)
        elif node == "assume":
            phi_block = obj.get("phi_block")
            pred = obj.get("pred")
            offset = obj.get("offset")
            if not isinstance(phi_block, str) or not isinstance(pred, str):
                raise WitnessDecodeError("assume without string blocks")
            if type(offset) is not int:
                raise WitnessDecodeError("assume without integer offset")
            container[index] = AssumeWitness(vertex, phi_block, pred, offset)
        elif node == "edge":
            source = _node_from_json(obj.get("source"))
            weight = obj.get("weight")
            if type(weight) is not int:
                raise WitnessDecodeError("edge without integer weight")
            sub_holder: List[Optional[Witness]] = [None]

            def _make_edge(children, vertex=vertex, source=source, weight=weight):
                return EdgeWitness(vertex, source, weight, children[0])

            stack.append(("build", (_make_edge, [sub_holder]), container, index))
            stack.append(("visit", obj.get("sub"), sub_holder, 0))
        elif node == "phi":
            raw_branches = obj.get("branches")
            if not isinstance(raw_branches, list):
                raise WitnessDecodeError("phi without branch list")
            sources: List[Node] = []
            weights: List[int] = []
            holders: List[List[Optional[Witness]]] = []
            for raw in raw_branches:
                if not isinstance(raw, dict):
                    raise WitnessDecodeError("phi branch is not an object")
                sources.append(_node_from_json(raw.get("source")))
                weight = raw.get("weight")
                if type(weight) is not int:
                    raise WitnessDecodeError("phi branch without integer weight")
                weights.append(weight)
                holders.append([None])

            def _make_phi(children, vertex=vertex, sources=sources, weights=weights):
                branches = tuple(
                    (src, wt, sub) for src, wt, sub in zip(sources, weights, children)
                )
                return PhiWitness(vertex, branches)

            stack.append(("build", (_make_phi, holders), container, index))
            for raw, sub_holder in zip(raw_branches, holders):
                stack.append(("visit", raw.get("sub"), sub_holder, 0))
        else:
            raise WitnessDecodeError(f"unknown witness node {node!r}")
    return holder[0]
