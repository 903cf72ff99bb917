"""Building the inequality graph from an e-SSA function (paper, Table 1).

Upper-bound graph (edge ``u -> v`` weight ``w`` means ``v <= u + w``):

====  =========================  =======================  ==================
rule  statement                  constraint               edge / weight
====  =========================  =======================  ==================
C1    ``v := arraylen A``        ``v <= len(A)``          ``len(A) -> v / 0``
C2    ``v := c``                 ``v <= c``               ``c -> v / 0``
C3    ``v := y + c``             ``v <= y + c``           ``y -> v / c``
C4    π at branch exit           e.g. ``v' <= w - 1``     per relation below
C5    π after ``checkupper``     ``v' <= len(A) - 1``     ``len(A) -> v' / -1``
φ     ``v := φ(a, b)``           ``v <= max(a, b)``       ``a -> v / 0``,
                                                          ``b -> v / 0``;
                                                          ``v ∈ V_φ``
====  =========================  =======================  ==================

Every π also contributes its value-flow half ``dest <= src`` (weight-0 edge
from the source).

The **lower-bound graph** is the exact dual, built in *negated space* so the
same ``<=`` solver applies: a fact ``v >= u + c`` becomes the edge
``u -> v`` with weight ``-c`` (since ``-v <= -u - c``), φ stays a max
vertex (``v >= min(a,b)`` ⇔ ``-v <= max(-a,-b)``), and the source vertex of
a lower-bound proof is the constant 0.  Additional lower-space axiom:
``len(A) >= 0`` for every array-length vertex (the paper mentions this edge
explicitly when discussing ``st1``).

**Edge-direction discipline.**  Each statement contributes, per graph, only
the single inequality direction of Table 1 — never both halves of an
equality.  This is not a stylistic choice: the Figure-5 solver's treatment
of harmless cycles (``Reduced``) is sound only when every cycle of ``G_I``
contains a φ vertex, which Table-1 edges guarantee because all value-flow
cycles come from control-flow cycles.  Bidirectional equality edges would
create two-node φ-free cycles and let ``Reduced`` leak through min-vertex
joins as an unfounded proof.  The one extension (default-on) follows the
same discipline:

* ``a := newarray n`` pins ``n <= len(a)`` in the upper graph and
  ``n >= len(a)`` in the lower graph (the half that lets a proof continue
  *through* ``n`` toward the length literal).  In Java the equivalent facts
  arrive for free via redundant ``arraylength`` loads feeding C1; MiniJ
  programs that cache ``len(a)`` in a variable need nothing but C1, and
  ``allocation_facts=False`` restores pure Table-1 behaviour for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.graph import DualGraph, Node, const_node, len_node, var_node
from repro.ir.function import Function
from repro.ir.instructions import (
    ArrayLen,
    ArrayLoad,
    ArrayNew,
    ArrayStore,
    BinOp,
    CheckUpper,
    Const,
    Copy,
    Operand,
    Phi,
    Pi,
    Var,
)


@dataclass
class GraphBundle:
    """The dual constraint system of one function.

    ``dual`` pairs the two systems (sharing one φ set) for the function's
    dual-direction proof session; ``upper``/``lower`` are its
    :class:`~repro.core.graph.InequalityGraph` halves, for every consumer
    that works one direction at a time (PRE, the exhaustive oracle,
    baselines, tests).
    """

    upper: object
    lower: object
    #: Variables known to hold array references (for GVN consultation).
    array_vars: Set[str]
    #: The pair behind the two halves (``None`` only for hand-assembled
    #: bundles built from two standalone graphs).
    dual: Optional[DualGraph] = None


def build_graphs(
    fn: Function,
    allocation_facts: bool = True,
    gvn=None,
    pi_constraints: bool = True,
    domtree=None,
) -> GraphBundle:
    """Build upper and lower inequality graphs for an e-SSA function.

    ``gvn`` (a :class:`repro.opt.gvn.ValueNumbering`) enables the
    Section-7.1 extension in its general form: for value-congruent
    variables ``u``, ``v`` with ``def(u)`` dominating ``def(v)``, the edge
    ``u -> v`` of weight 0 is added to both graphs (``v <= u`` and
    ``v >= u`` respectively).  Congruent *array* variables contribute the
    analogous edge between their length vertices.  Dominance-directed
    edges cannot close a φ-free cycle, preserving the solver's soundness
    invariant.
    """
    if fn.ssa_form != "essa":
        raise ValueError(f"{fn.name}: inequality graph requires e-SSA form")
    builder = _GraphBuilder(fn, allocation_facts, pi_constraints)
    bundle = builder.build()
    if gvn is not None:
        _augment_with_gvn(fn, bundle, gvn, domtree=domtree)
    return bundle


def _augment_with_gvn(fn: Function, bundle: GraphBundle, gvn, domtree=None) -> None:
    if domtree is None:
        from repro.analysis.dominance import DominatorTree

        domtree = DominatorTree.compute(fn)
    # Def positions on demand from the def-use index: only blocks that
    # actually hold a congruence-class member's def get their intra-block
    # order materialized.
    chains = fn.def_use()
    reachable = set(fn.reachable_blocks())
    param_set = set(fn.params)
    block_orders: Dict[str, Dict[str, int]] = {}

    def order_in(label: str) -> Dict[str, int]:
        cached = block_orders.get(label)
        if cached is None:
            cached = {}
            for index, instr in enumerate(fn.blocks[label].instructions()):
                dest = instr.defs()
                if dest is not None:
                    cached[dest] = index
            block_orders[label] = cached
        return cached

    def position_of(name: str):
        if name in param_set:
            return (fn.entry, -1)
        def_instr = chains.def_of(name)
        if def_instr is None:
            return None
        label = chains.block_of(def_instr)
        if label not in reachable:
            return None
        return (label, order_in(label)[name])

    def dominates_def(u: str, v: str) -> bool:
        pu, pv = position_of(u), position_of(v)
        if pu is None or pv is None:
            return False
        (bu, iu), (bv, iv) = pu, pv
        if bu == bv:
            return iu < iv
        return domtree.dominates(bu, bv)

    seen_classes = set()
    for name in sorted(gvn.class_of):
        class_id = gvn.class_of[name]
        if class_id in seen_classes:
            continue
        seen_classes.add(class_id)
        members = sorted(gvn.class_members(name))
        if len(members) < 2:
            continue
        for u in members:
            for v in members:
                if u == v or not dominates_def(u, v):
                    continue
                if u in bundle.array_vars and v in bundle.array_vars:
                    bundle.upper.add_edge(len_node(u), len_node(v), 0, None)
                    bundle.lower.add_edge(len_node(u), len_node(v), 0, None)
                elif u not in bundle.array_vars and v not in bundle.array_vars:
                    bundle.upper.add_edge(var_node(u), var_node(v), 0, None)
                    bundle.lower.add_edge(var_node(u), var_node(v), 0, None)


def collect_array_vars(fn: Function) -> Set[str]:
    """Fixpoint of "holds an array reference": direct array uses plus
    closure over copies, φs, and πs (both directions, since aliases of an
    array are arrays).

    Sparse formulation over the def-use index: seeds come from the type
    index (no function scan), and the closure walks only the use lists and
    defining instructions of names already known to be arrays.
    """
    chains = fn.def_use()
    arrays: Set[str] = set()
    pending: List[str] = []

    def add(name: str) -> None:
        if name not in arrays:
            arrays.add(name)
            pending.append(name)

    for instr in chains.instrs_of_type(ArrayNew):
        assert isinstance(instr, ArrayNew)
        add(instr.dest)
    for direct_type in (ArrayLen, ArrayLoad, ArrayStore, CheckUpper):
        for instr in chains.instrs_of_type(direct_type):
            add(instr.array)  # type: ignore[union-attr]

    while pending:
        name = pending.pop()
        # Forward flow: users that alias the value onward.
        for user in chains.users_of(name):
            if isinstance(user, Copy):
                if isinstance(user.src, Var) and user.src.name == name:
                    add(user.dest)
            elif isinstance(user, Pi):
                if user.src == name:
                    add(user.dest)
            elif isinstance(user, Phi):
                if any(
                    isinstance(op, Var) and op.name == name
                    for op in user.incomings.values()
                ):
                    add(user.dest)
        # Backward flow: whatever defined this alias is an array too.
        for def_instr in chains.defs_of(name):
            if isinstance(def_instr, Copy):
                if isinstance(def_instr.src, Var):
                    add(def_instr.src.name)
            elif isinstance(def_instr, Pi):
                add(def_instr.src)
            elif isinstance(def_instr, Phi):
                for op in def_instr.incomings.values():
                    if isinstance(op, Var):
                        add(op.name)
    return arrays


def _operand_node(op: Operand) -> Node:
    if isinstance(op, Const):
        return const_node(op.value)
    assert isinstance(op, Var)
    return var_node(op.name)


class _GraphBuilder:
    def __init__(
        self, fn: Function, allocation_facts: bool, pi_constraints: bool = True
    ) -> None:
        self._fn = fn
        self._allocation_facts = allocation_facts
        #: When False (ablation), πs contribute only their value-flow
        #: half — C4/C5 predicate edges are dropped, degrading e-SSA to
        #: plain SSA value flow.
        self._pi_constraints = pi_constraints
        #: Both constraint systems; ``upper`` and ``lower`` are its halves
        #: (one statement's Table-1 contribution to both systems lands in
        #: one ``dual.add_edge`` call).
        self.dual = DualGraph()
        self.upper = self.dual.view("upper")
        self.lower = self.dual.view("lower")
        self.array_vars: Set[str] = set()

    def build(self) -> GraphBundle:
        self.array_vars = collect_array_vars(self._fn)
        for label in self._fn.reachable_blocks():
            for instr in self._fn.blocks[label].instructions():
                self._visit(instr, label)
        # Axiom: every array length is non-negative.  Lower-space edge
        # 0 -> len(A) / 0 encodes len(A) >= 0.
        for array in sorted(self.array_vars):
            self.dual.add_edge(const_node(0), len_node(array), lower=0)
        return GraphBundle(self.upper, self.lower, self.array_vars, dual=self.dual)

    # ------------------------------------------------------------------
    # Per-instruction rules.
    # ------------------------------------------------------------------

    def _visit(self, instr, block: str) -> None:
        if isinstance(instr, ArrayLen):
            # C1: v == len(A); encode v <= len(A) (upper) and v >= len(A)
            # (lower), each the direction that lets proofs flow from the
            # index variable toward the length literal.
            dest = var_node(instr.dest)
            self.dual.add_edge(len_node(instr.array), dest, upper=0, lower=0, block=block)
        elif isinstance(instr, Copy):
            if instr.dest in self.array_vars:
                if isinstance(instr.src, Var):
                    self._alias_lengths(instr.dest, instr.src.name, block)
                return
            # C2 (constant) or plain value flow: dest == src, one direction
            # per graph.
            dest = var_node(instr.dest)
            source = _operand_node(instr.src)
            self.dual.add_edge(source, dest, upper=0, lower=0, block=block)
        elif isinstance(instr, BinOp):
            self._binop(instr, block)
        elif isinstance(instr, Phi):
            self._phi(instr, block)
        elif isinstance(instr, Pi):
            self._pi(instr, block)
        elif isinstance(instr, ArrayNew) and self._allocation_facts:
            self._allocation(instr, block)

    def _alias_lengths(self, dest: str, src: str, block: str) -> None:
        """``dest := src`` for arrays: ``len(dest) == len(src)``; single
        direction per graph (dest's length bounded by src's)."""
        self.dual.add_edge(len_node(src), len_node(dest), upper=0, lower=0, block=block)

    def _allocation(self, instr: ArrayNew, block: str) -> None:
        """``a := newarray n``: encode ``n <= len(a)`` (upper) and
        ``n >= len(a)`` (lower), i.e. an in-edge to the length operand.

        When ``n`` is the constant 0 the lower-space edge would close a
        φ-free cycle with the ``len(A) >= 0`` axiom, so it is skipped
        (it carries no information beyond the axiom anyway).
        """
        length = _operand_node(instr.length)
        skip_lower = isinstance(instr.length, Const) and instr.length.value == 0
        self.dual.add_edge(
            len_node(instr.dest),
            length,
            upper=0,
            lower=None if skip_lower else 0,
            block=block,
        )

    def _binop(self, instr: BinOp, block: str) -> None:
        """C3: ``v := y ± c``.  Any other arithmetic leaves ``v``
        unconstrained (paper, Section 2)."""
        if instr.dest in self.array_vars:
            return
        dest = var_node(instr.dest)
        source = None
        constant = 0
        if instr.op == "add":
            if isinstance(instr.rhs, Const) and isinstance(instr.lhs, Var):
                source, constant = var_node(instr.lhs.name), instr.rhs.value
            elif isinstance(instr.lhs, Const) and isinstance(instr.rhs, Var):
                source, constant = var_node(instr.rhs.name), instr.lhs.value
        elif instr.op == "sub":
            if isinstance(instr.rhs, Const) and isinstance(instr.lhs, Var):
                source, constant = var_node(instr.lhs.name), -instr.rhs.value
        if source is None:
            return
        # v == y + c: upper edge weight +c; lower (negated space) weight -c.
        self.upper.add_edge(source, dest, constant, block)
        self.lower.add_edge(source, dest, -constant, block)

    def _phi(self, instr: Phi, block: str) -> None:
        if instr.dest in self.array_vars:
            # Arrays merging at a φ: the merged length is bounded by the
            # incoming lengths with the same max-vertex semantics.
            dest = len_node(instr.dest)
            self.upper.mark_phi(dest)
            self.lower.mark_phi(dest)
            for operand in instr.incomings.values():
                if isinstance(operand, Var):
                    self.upper.add_edge(len_node(operand.name), dest, 0, block)
                    self.lower.add_edge(len_node(operand.name), dest, 0, block)
            return
        dest = var_node(instr.dest)
        self.upper.mark_phi(dest)
        self.lower.mark_phi(dest)
        for operand in instr.incomings.values():
            source = _operand_node(operand)
            self.upper.add_edge(source, dest, 0, block)
            self.lower.add_edge(source, dest, 0, block)

    def _pi(self, instr: Pi, block: str) -> None:
        if instr.dest in self.array_vars:
            self._alias_lengths(instr.dest, instr.src, block)
            return
        dest = var_node(instr.dest)
        source = var_node(instr.src)
        # Value-flow half: dest == src would be exact, but the paper
        # deliberately encodes only the safe direction per graph so that
        # the two π results of one branch stay mutually unconstrained
        # (Section 4's consistency discussion).
        self.upper.add_edge(source, dest, 0, block)
        self.lower.add_edge(source, dest, 0, block)

        predicate = instr.predicate
        if not self._pi_constraints:
            return
        if predicate.arraylen_of is not None:
            # C5: dest < len(A)  (only ever generated with rel 'lt').
            if predicate.rel == "lt":
                self.upper.add_edge(len_node(predicate.arraylen_of), dest, -1, block)
            return
        assert predicate.other is not None
        other = _operand_node(predicate.other)
        rel = predicate.rel
        if rel == "lt":
            self.upper.add_edge(other, dest, -1, block)
        elif rel == "le":
            self.upper.add_edge(other, dest, 0, block)
        elif rel == "gt":
            self.lower.add_edge(other, dest, -1, block)
        elif rel == "ge":
            self.lower.add_edge(other, dest, 0, block)
        elif rel == "eq":
            self.upper.add_edge(other, dest, 0, block)
            self.lower.add_edge(other, dest, 0, block)
