"""The independent certificate checker.

``check_witness`` replays a witness against an inequality graph using
nothing but **edge lookups and integer telescoping** — it shares no
traversal, memoization, or lattice code with the Figure-5 solver, so a
solver bug and a checker bug would have to coincide for an unsound
elimination to slip through.

The replay walks the witness tree top-down, carrying the budget it
computes itself from the root query (never trusting budgets the producer
might claim), and enforces at every node:

* **edge existence** — a claimed edge ``source -> vertex`` of weight
  ``w`` must be backed by a graph edge of weight ``<= w`` (a real
  constraint at least as strong as the claim);
* **φ coverage** — a ``PhiWitness`` must discharge *every* in-edge of
  the vertex in the graph the checker rebuilt, and may not invent
  branches the graph does not have;
* **harmless cycles** — a ``CycleWitness`` may only close on a vertex
  that is active on the checker's own path, with a telescoped budget no
  smaller than the active one (i.e. the cycle's weight is non-positive),
  and the cycle must pass through a φ vertex (the Section-4 consistency
  invariant: a φ-free "harmless" cycle proves nothing);
* **axioms** — leaf facts are re-derived from the vertex kinds and the
  telescoped budget;
* **assumptions** — a PRE ``AssumeWitness`` must point at a real
  compensating :class:`~repro.ir.instructions.SpeculativeCheck` in the
  claimed predecessor block, for the right array and guard group, whose
  offset implies the telescoped obligation.

Acceptance means: the constraints named by the witness — all present in
the graph — telescope to ``target - source <= budget``.  For an upper
check that is ``index - len(A) <= -1``; for a lower check (negated
space) ``-index - 0 <= 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.graph import InequalityGraph, Node
from repro.ir.instructions import BinOp, Const, SpeculativeCheck, Var
from repro.certify.witness import (
    AssumeWitness,
    AxiomWitness,
    CycleWitness,
    EdgeWitness,
    PhiWitness,
    Witness,
)


class CertificateRejected(Exception):
    """The witness does not establish the claimed bound."""


@dataclass
class AssumeContext:
    """What an ``AssumeWitness`` is allowed to assume: the compensating
    checks of one PRE guard group in one function."""

    fn: object  # repro.ir.function.Function (duck-typed: no IR dependency)
    kind: str  # "upper" | "lower"
    array: Optional[str]
    guard_group: Optional[int]


class _Replay:
    """Top-down replays of witness trees against one graph, one source
    vertex and one assumption context.

    A replay object may check any number of certificates that share
    those three: its verified-subtree cache then spans all of them.
    """

    def __init__(
        self,
        graph: InequalityGraph,
        source: Node,
        assume: Optional[AssumeContext] = None,
    ) -> None:
        self._graph = graph
        self._source = source
        self._assume = assume
        #: id(witness) -> (witness, smallest budget this self-contained
        #: subtree verified at).  Keyed by identity: the cache exists
        #: precisely because the producer aliases subtrees.  The value
        #: holds the witness, so its id cannot be reused while cached.
        self._verified: Dict[int, Tuple[Witness, int]] = {}
        # Per-walk state, reset by every :meth:`check`.
        #: vertex -> (telescoped budget, φ count on the path when pushed).
        self._active: Dict[Node, Tuple[int, int]] = {}
        self._phi_count = 0
        #: Cycle closures validated but not yet resolved by their closing
        #: frame's exit (see :meth:`check`).
        self._cycle_log: list = []

    # ------------------------------------------------------------------

    def _reject(self, message: str) -> None:
        raise CertificateRejected(message)

    def check(self, vertex: Node, budget: int, witness: Optional[Witness]) -> None:
        """Replay one certificate with an explicit work stack.

        The replay is iterative for the same reason the solver is: a
        deep-chain certificate is as deep as the program's π/copy chain,
        and must verify under a pinned interpreter recursion limit.  The
        stack holds ``("check", vertex, budget, witness)`` obligations
        and ``("exit", ...)`` markers that undo the active-set/φ-counter
        bookkeeping once a subtree is discharged — exactly the scopes the
        recursive formulation kept in ``try/finally`` blocks.

        The solver memoizes, so a witness is a DAG: both branches of a φ
        routinely share their tail sub-witness.  Walking it as a tree is
        exponential in φ depth, so the replay keeps a cache of
        *self-contained* subtrees it has already verified: a subtree
        whose cycle leaves all close within itself replays identically
        under any root budget at least as large as the verified one (all
        leaf conditions are monotone in the budget — the same fact that
        makes the solver's memo subsumption certifiable).  Containment is
        computed by the replay itself from the cycle leaves it validated
        (``self._cycle_log``), never trusted from the producer's witness
        objects.

        The cache outlives the call: a self-contained subtree proves
        ``witness.vertex - source <= budget`` whatever certificate it
        sits in, so later certificates against the same graph, source
        and assumption context reuse it.  A hit therefore needs the
        obligation's vertex to be the one the witness proves, which is
        tested before the lookup.  The per-walk state (active set, φ
        count, cycle log) is reset here, because a rejection can leave
        it mid-walk.
        """
        if witness is None:
            raise CertificateRejected("no witness emitted for this elimination")
        stack: list = [("check", vertex, budget, witness)]
        verified = self._verified
        self._active = {}
        self._phi_count = 0
        self._cycle_log = []
        while stack:
            action = stack.pop()
            if action[0] == "exit":
                _, exit_vertex, pushed, was_phi, sub, sub_budget, base = action
                if was_phi:
                    self._phi_count -= 1
                if pushed:
                    del self._active[exit_vertex]
                escaped = self._cycle_log[base:]
                if escaped:
                    if pushed:
                        # Cycles closing on this vertex resolve here; a
                        # repeated descent (pushed=False) validated them
                        # against an *outer* entry, so they keep escaping.
                        escaped = [u for u in escaped if u != exit_vertex]
                    del self._cycle_log[base:]
                    self._cycle_log.extend(escaped)
                if not escaped:
                    prior = verified.get(id(sub))
                    if prior is None or sub_budget < prior[1]:
                        verified[id(sub)] = (sub, sub_budget)
                continue
            _, vertex, budget, witness = action
            if witness.vertex != vertex:
                self._reject(
                    f"witness proves {witness.vertex}, obligation is {vertex}"
                )
            prior = verified.get(id(witness))
            if prior is not None and budget >= prior[1]:
                continue
            if isinstance(witness, AxiomWitness):
                self._axiom(vertex, budget, witness)
            elif isinstance(witness, CycleWitness):
                self._cycle(vertex, budget)
                self._cycle_log.append(vertex)
            elif isinstance(witness, AssumeWitness):
                self._assumption(vertex, budget, witness)
            elif isinstance(witness, EdgeWitness):
                self._edge(vertex, budget, witness, stack)
            elif isinstance(witness, PhiWitness):
                self._phi(vertex, budget, witness, stack)
            else:
                self._reject(f"unknown witness node {type(witness).__name__}")

    # ------------------------------------------------------------------
    # Leaves.
    # ------------------------------------------------------------------

    def _axiom(self, vertex: Node, budget: int, witness: AxiomWitness) -> None:
        source = self._source
        if witness.rule == "source":
            if vertex != source or budget < 0:
                self._reject(
                    f"source axiom fails: {vertex} vs {source} at {budget}"
                )
        elif witness.rule == "const-const":
            if vertex.kind != "const" or source.kind != "const":
                self._reject("const-const axiom on non-constant vertices")
            gap = self._graph.const_value(vertex) - self._graph.const_value(source)
            if gap > budget:
                self._reject(
                    f"const-const axiom fails: gap {gap} > budget {budget}"
                )
        elif witness.rule == "len-nonneg":
            if (
                vertex.kind != "const"
                or source.kind != "len"
                or self._graph.direction != "upper"
                or vertex.value > budget
            ):
                self._reject(
                    f"len-nonneg axiom fails for {vertex} at {budget}"
                )
        else:
            self._reject(f"unknown axiom rule {witness.rule!r}")

    def _cycle(self, vertex: Node, budget: int) -> None:
        entry = self._active.get(vertex)
        if entry is None:
            self._reject(f"cycle closes on {vertex}, which is not active")
        active_budget, active_phi = entry
        if budget < active_budget:
            self._reject(
                f"amplifying cycle at {vertex}: telescoped budget {budget} "
                f"< active budget {active_budget}"
            )
        if not self._graph.is_phi(vertex) and self._phi_count <= active_phi:
            self._reject(f"cycle at {vertex} passes through no φ vertex")

    def _assumption(self, vertex: Node, budget: int, witness: AssumeWitness) -> None:
        ctx = self._assume
        if ctx is None:
            self._reject("assumption in a certificate with no PRE context")
        check = self._find_speculative(ctx, witness)
        if check is None:
            self._reject(
                f"no compensating check for {vertex} on edge "
                f"{witness.pred} -> {witness.phi_block}"
            )
        offset = self._checked_offset(ctx, check, vertex, witness)
        # The compensating check on ``V + d`` establishes, when it passes,
        # ``V - len(A) <= -1 - d`` (upper) or ``-V <= d`` (lower, negated
        # space); either must imply the telescoped obligation ``<= budget``.
        implied = (-1 - offset) if ctx.kind == "upper" else offset
        if implied > budget:
            self._reject(
                f"compensating check offset {offset} establishes "
                f"{implied}, weaker than required budget {budget}"
            )

    def _find_speculative(
        self, ctx: AssumeContext, witness: AssumeWitness
    ) -> Optional[SpeculativeCheck]:
        block = ctx.fn.blocks.get(witness.pred)
        if block is None:
            return None
        for instr in block.body:
            if (
                isinstance(instr, SpeculativeCheck)
                and instr.kind == ctx.kind
                and instr.guard_group == ctx.guard_group
                and (ctx.kind != "upper" or instr.array == ctx.array)
            ):
                return instr
        return None

    def _checked_offset(
        self,
        ctx: AssumeContext,
        check: SpeculativeCheck,
        vertex: Node,
        witness: AssumeWitness,
    ) -> int:
        """Resolve the compensating check's index to ``vertex + offset``
        (rejecting when it guards anything else)."""
        index = check.index
        if isinstance(index, Const):
            if vertex.kind != "const":
                self._reject(
                    f"compensating check guards constant {index.value}, "
                    f"assumption is on {vertex}"
                )
            return index.value - vertex.value
        assert isinstance(index, Var)
        if vertex.kind == "var" and index.name == vertex.name:
            return 0
        # A materialized ``temp := vertex + offset`` in the same block.
        block = ctx.fn.blocks[witness.pred]
        for instr in block.body:
            if (
                isinstance(instr, BinOp)
                and instr.dest == index.name
                and instr.op == "add"
                and isinstance(instr.lhs, Var)
                and vertex.kind == "var"
                and instr.lhs.name == vertex.name
                and isinstance(instr.rhs, Const)
            ):
                return instr.rhs.value
        self._reject(
            f"compensating check guards {index.name}, which does not "
            f"resolve to {vertex} + offset"
        )
        raise AssertionError("unreachable")

    # ------------------------------------------------------------------
    # Interior nodes.
    # ------------------------------------------------------------------

    def _edge(
        self, vertex: Node, budget: int, witness: EdgeWitness, stack: list
    ) -> None:
        if self._graph.is_phi(vertex):
            self._reject(
                f"single-edge witness at φ vertex {vertex} (all in-edges "
                f"must be discharged)"
            )
        if not self._edge_backed(vertex, witness.source, witness.weight):
            self._reject(
                f"no graph edge {witness.source} -> {vertex} of weight "
                f"<= {witness.weight}"
            )
        pushed = self._push(vertex, budget)
        stack.append(
            ("exit", vertex, pushed, False, witness, budget, len(self._cycle_log))
        )
        stack.append(
            ("check", witness.source, budget - witness.weight, witness.sub)
        )

    def _phi(
        self, vertex: Node, budget: int, witness: PhiWitness, stack: list
    ) -> None:
        if not self._graph.is_phi(vertex):
            self._reject(f"φ witness at non-φ vertex {vertex}")
        claimed = {
            (source, weight): sub for source, weight, sub in witness.branches
        }
        if len(claimed) != len(witness.branches):
            self._reject(f"duplicate branches in φ witness at {vertex}")
        real = {(edge.source, edge.weight) for edge in self._graph.in_edges(vertex)}
        for key in claimed:
            # Every claim must be backed (weight at least as strong in
            # the graph); stray claims are forged edges.
            source, weight = key
            if not any(rs == source and rw <= weight for rs, rw in real):
                self._reject(
                    f"φ branch {source} -> {vertex} / {weight} has no "
                    f"backing graph edge"
                )
        for source, weight in real:
            # Every real in-edge must be discharged by a branch at least
            # as weak as it (claimed weight >= real weight).
            if not any(
                cs == source and cw >= weight for cs, cw in claimed
            ):
                self._reject(
                    f"φ in-edge {source} -> {vertex} / {weight} is not "
                    f"discharged by the witness"
                )
        pushed = self._push(vertex, budget)
        self._phi_count += 1
        stack.append(
            ("exit", vertex, pushed, True, witness, budget, len(self._cycle_log))
        )
        for source, weight, sub in reversed(witness.branches):
            stack.append(("check", source, budget - weight, sub))

    # ------------------------------------------------------------------
    # Plumbing.
    # ------------------------------------------------------------------

    def _edge_backed(self, vertex: Node, source: Node, weight: int) -> bool:
        return any(
            edge.source == source and edge.weight <= weight
            for edge in self._graph.in_edges(vertex)
        )

    def _push(self, vertex: Node, budget: int) -> bool:
        if vertex in self._active:
            # A repeated non-cycle descent through an active vertex is a
            # finite unrolling; keep the outer entry so cycle leaves
            # validate against the entry the cycle actually closes on.
            return False
        self._active[vertex] = (budget, self._phi_count)
        return True


def check_witness(
    graph: InequalityGraph,
    source: Node,
    target: Node,
    budget: int,
    witness: Optional[Witness],
    assume: Optional[AssumeContext] = None,
) -> None:
    """Raise :class:`CertificateRejected` unless ``witness`` establishes
    ``target - source <= budget`` over ``graph``."""
    _Replay(graph, source, assume).check(target, budget, witness)
