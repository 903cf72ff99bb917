"""The demand-driven constraint solver (paper, Figure 5), iteratively.

``demand_prove(G, a, b, c)`` decides whether ``b - a <= c`` holds under
every feasible solution of the constraint system — equivalently, whether
the *distance* from the array-length vertex ``a`` to the array-index
vertex ``b`` is at most ``c``.

The solver walks backwards over in-edges carrying the remaining budget
``c``; crossing an edge ``u -> v`` of weight ``w`` while asking
``v - a <= c`` reduces the question to ``u - a <= c - w``.  Results merge
through the ``True > Reduced > False`` lattice: **meet** at φ (max)
vertices — all incoming control-flow paths must prove — and **join** at
min vertices — any one constraint suffices.

The traversal is an **explicit frame machine**, not Python recursion:
each vertex whose in-edges must be merged gets one :class:`_Frame` on an
explicit stack, holding its merge accumulator and the index of the next
in-edge to query.  ``_enter`` plays the role of Figure 5's ``prove()``
call boundary — budget checks, memo lookup, axioms, cycle detection — and
either produces a finished value or pushes a frame; the trampoline in
``_run_query`` feeds each finished child value to the frame below it.  Proof
witnesses are assembled bottom-up exactly as frames pop, so the emitted
certificates are identical to those of a depth-first recursion.  Because
the stack is an ordinary list, proof depth is bounded by the ``max_depth``
*frame* budget alone — never by the interpreter's recursion limit — and
deeply chained e-SSA programs (see ``repro fuzz --profile deep-chain``)
solve under ``sys.setrecursionlimit(1000)`` unharmed.

Cycles are detected via the ``active`` map of budgets of the frames
currently on the stack: re-entering an active vertex with a *smaller*
budget means the cycle has positive weight (an *amplifying* cycle, e.g.
``j := j + 1``) and the path fails; a revisit with equal or larger budget
is a harmless cycle and returns ``Reduced`` ("the cycle does not
influence the distance").

Memoization uses budget subsumption exactly as in Figure 5: a ``True`` at
budget ``e`` answers every query with ``c >= e``; a ``False`` at ``e``
answers every ``c <= e``; a ``Reduced`` at ``e`` answers ``c >= e``.
Memo entries are tagged ``(direction, source, vertex)`` so one session
can serve both the upper- and lower-bound problems of a
:class:`~repro.core.graph.DualGraph` — and every query of every check
site of a function — without cross-contamination.  Entries derived after
a budget exhaustion are conservative, not ground truth, and are never
recorded.

``steps`` counts ``_enter`` invocations (one per Figure-5 ``prove()``
call) — the unit behind the paper's "fewer than 10 analysis steps per
bounds check" result; ``frames_pushed``/``frontier_peak`` expose the
frame machine's size to the pass-manager counters.

Resource budgets (``max_steps``, ``max_depth``, ``deadline``) bound every
query: a JIT must never hang inside the optimizer, so exhausting any
budget abandons the proof with the conservative answer ``False`` ("keep
the check") and flags ``budget_exhausted`` on the outcome.  Budgets are
per *query*, so a session shared across check sites gives every site the
same allowance a private session would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.certify.witness import (
    AxiomWitness,
    CycleWitness,
    EdgeWitness,
    PhiWitness,
    Witness,
    is_closed,
)
from repro.core.graph import Edge, InequalityGraph, Node
from repro.core.lattice import ProofResult

#: Default per-query step budget; generous compared to the paper's
#: "fewer than 10 steps per check" observation.
DEFAULT_MAX_STEPS = 200_000

#: How many steps pass between wall-clock deadline checks.
_DEADLINE_STRIDE = 256

#: The empty open set: values whose derivation closed every cycle within
#: its own subtree carry this and may be memoized persistently.
_NO_OPEN: frozenset = frozenset()


@dataclass
class ProveOutcome:
    """Result of one ``demand_prove`` query."""

    result: ProofResult
    #: Solver steps this query consumed (sessions also keep a cumulative
    #: ``DemandProver.steps`` across queries).
    steps: int
    #: True when the query abandoned the proof because a resource budget
    #: (steps, depth, or wall-clock deadline) ran out; the result is then a
    #: conservative ``False``.
    budget_exhausted: bool = False
    #: Which budget ran out first ("steps" | "depth" | "deadline").
    exhausted_budget: Optional[str] = None
    #: Proof witness of a proven result (only recorded when the session
    #: was created with ``witnesses=True``); an independently checkable
    #: certificate, see :mod:`repro.certify`.
    witness: Optional[Witness] = None
    #: Peak frame-stack depth this query reached.  On an
    #: ``exhausted_budget == "depth"`` outcome this is exactly
    #: ``max_depth + 1`` — the frame count actually built when the bound
    #: refused the next one (the recursive engine under-reported this).
    depth_reached: int = 0

    @property
    def proven(self) -> bool:
        return self.result.proven


@dataclass
class _Memo:
    """Per-(direction, source, vertex) memo with budget subsumption.

    Entries come in two strengths.  **Persistent** bounds are
    context-free: their derivation closed every cycle within its own
    subtree, so they hold in any later traversal context — including a
    different query of the same session.  **Volatile** bounds
    (``v_*_at``) came from a derivation with a cycle leaf closing on a
    vertex still active *above* the recorded frame; such a result is
    only meaningful while that ancestor's traversal is the context, so
    the session erases the volatile slots at every query boundary.
    Without the split, a shared dual-direction session would let one
    check's amplifying-cycle ``False`` poison a later check's query that
    a fresh traversal proves.

    A proven witness is stored alongside its bound only when it is
    *closed* (no cycle leaves escaping its own subtree): a closed
    witness recorded at budget ``e`` replays under any budget ``c >= e``
    regardless of the traversal context, so budget-subsumption reuse stays
    certifiable.  Open witnesses are never stored; a later hit on such
    an entry re-derives the witness in its own context (witness-emitting
    sessions only — plain sessions never consult the witness slots).
    """

    true_at: Optional[int] = None  # smallest budget proven True
    false_at: Optional[int] = None  # largest budget proven False
    reduced_at: Optional[int] = None  # smallest budget proven Reduced
    true_witness: Optional[Witness] = None
    reduced_witness: Optional[Witness] = None
    # Query-local bounds (cycle-dependent derivations; see class docstring).
    v_true_at: Optional[int] = None
    v_false_at: Optional[int] = None
    v_reduced_at: Optional[int] = None

    def lookup(self, budget: int) -> Optional[ProofResult]:
        if (self.true_at is not None and budget >= self.true_at) or (
            self.v_true_at is not None and budget >= self.v_true_at
        ):
            return ProofResult.TRUE
        if (self.false_at is not None and budget <= self.false_at) or (
            self.v_false_at is not None and budget <= self.v_false_at
        ):
            return ProofResult.FALSE
        if (self.reduced_at is not None and budget >= self.reduced_at) or (
            self.v_reduced_at is not None and budget >= self.v_reduced_at
        ):
            return ProofResult.REDUCED
        return None

    def witness_for(self, result: ProofResult, budget: int) -> Optional[Witness]:
        """The stored witness, but only when the *persistent* bound
        justifies the hit (a volatile hit at a smaller budget must not
        borrow a witness recorded for a weaker claim)."""
        if (
            result is ProofResult.TRUE
            and self.true_at is not None
            and budget >= self.true_at
        ):
            return self.true_witness
        if (
            result is ProofResult.REDUCED
            and self.reduced_at is not None
            and budget >= self.reduced_at
        ):
            return self.reduced_witness
        return None

    def record(
        self, budget: int, result: ProofResult, witness: Optional[Witness] = None
    ) -> None:
        if witness is not None and not is_closed(witness):
            witness = None
        if result is ProofResult.TRUE:
            if self.true_at is None or budget < self.true_at:
                self.true_at = budget
                self.true_witness = witness
            elif witness is not None and self.true_witness is None:
                # Same-or-weaker bound, but now with a replayable
                # witness: attach it to the recorded bound only when it
                # proves at least that bound.
                if budget <= self.true_at:
                    self.true_witness = witness
        elif result is ProofResult.FALSE:
            if self.false_at is None or budget > self.false_at:
                self.false_at = budget
        else:
            if self.reduced_at is None or budget < self.reduced_at:
                self.reduced_at = budget
                self.reduced_witness = witness
            elif witness is not None and self.reduced_witness is None:
                if budget <= self.reduced_at:
                    self.reduced_witness = witness

    def record_volatile(self, budget: int, result: ProofResult) -> None:
        if result is ProofResult.TRUE:
            if self.v_true_at is None or budget < self.v_true_at:
                self.v_true_at = budget
        elif result is ProofResult.FALSE:
            if self.v_false_at is None or budget > self.v_false_at:
                self.v_false_at = budget
        else:
            if self.v_reduced_at is None or budget < self.v_reduced_at:
                self.v_reduced_at = budget

    def clear_volatile(self) -> None:
        self.v_true_at = None
        self.v_false_at = None
        self.v_reduced_at = None


class _Frame:
    """One suspended merge: the continuation of Figure 5's ``prove(v, c)``
    while its in-edges are queried one by one.

    ``pending`` is the in-edge whose child query is outstanding; the merge
    accumulators (``result``/``branches``/``complete`` for φ-meet,
    ``best`` for min-merge, ``children`` for the PRE variant, ``open``
    for the cycle targets the merged value depends on) live here instead
    of on the interpreter stack.
    """

    __slots__ = (
        "v",
        "c",
        "direction",
        "in_edges",
        "index",
        "pending",
        "is_phi",
        "memo_key",
        "active_key",
        "result",
        "branches",
        "complete",
        "best",
        "children",
        "open",
    )

    def __init__(self, v, c, direction, in_edges, is_phi, memo_key, active_key):
        self.v = v
        self.c = c
        self.direction = direction
        self.in_edges = in_edges
        self.index = 0
        self.pending = None
        self.is_phi = is_phi
        self.memo_key = memo_key
        self.active_key = active_key


class DemandProver:
    """One proof session: memo, cycle state, and the frame machine.

    A session may serve many queries — all the check sites of a function,
    in both directions of a :class:`~repro.core.graph.DualGraph` — with
    direction- and source-tagged memo reuse between them (resource
    budgets stay per query).  Construct with a single
    :class:`~repro.core.graph.InequalityGraph` (for instance one half of
    a dual graph) for a fixed-direction session, or with a ``DualGraph``
    and pass ``direction=`` per query.

    ``edge_filter`` optionally restricts which edges the traversal may
    use; the driver passes a same-block filter to replicate the paper's
    local/global classification of removed checks.
    """

    def __init__(
        self,
        graph,
        edge_filter: Optional[Callable[[Edge], bool]] = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        max_depth: Optional[int] = None,
        deadline: Optional[float] = None,
        witnesses: bool = False,
    ) -> None:
        self._graph = graph
        views = getattr(graph, "views", None)
        if views is not None:  # a DualGraph: serves both of its halves
            self._views = dict(views)
            self._default_direction: Optional[str] = None
        else:
            self._views = {graph.direction: graph}
            self._default_direction = graph.direction
        self._edge_filter = edge_filter
        self._max_steps = max_steps
        self._max_depth = max_depth
        self._deadline = deadline
        self._deadline_at: Optional[float] = None
        #: Record proof witnesses (certificates) alongside proven results.
        self._witnesses = witnesses
        self._memo: Dict[Tuple[str, Node, Node], _Memo] = {}
        #: Memo keys holding volatile (query-local) bounds, erased at the
        #: next query boundary.
        self._volatile_keys: set = set()
        self._active: Dict[Tuple[str, Node], int] = {}
        #: Cumulative session counters (per-query numbers live on the
        #: outcome).
        self.steps = 0
        self.steps_by_direction: Dict[str, int] = {"upper": 0, "lower": 0}
        self.frames_pushed = 0
        self.frontier_peak = 0
        #: Set when any resource budget ran out during this session.
        self.budget_exhausted = False
        #: "steps" | "depth" | "deadline" — first budget that ran out.
        self.exhausted_budget: Optional[str] = None
        # Per-query state (reset by _begin_query).
        self._query_base = 0
        self._query_peak = 0
        self._query_exhausted: Optional[str] = None

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------

    def demand_prove(
        self,
        source: Node,
        target: Node,
        budget: int,
        direction: Optional[str] = None,
    ) -> ProveOutcome:
        """Figure 5's ``demandProve``: is ``target - source <= budget``?"""
        direction = self._resolve_direction(direction)
        self._begin_query()
        result, witness, _ = self._run_query(source, target, budget, direction)
        return ProveOutcome(
            result,
            self.steps - self._query_base,
            self._query_exhausted is not None,
            self._query_exhausted,
            witness if result.proven else None,
            depth_reached=self._query_peak,
        )

    def _resolve_direction(self, direction: Optional[str]) -> str:
        if direction is None:
            if self._default_direction is None:
                raise ValueError(
                    "a dual-graph session needs an explicit query direction"
                )
            return self._default_direction
        if direction not in self._views:
            raise ValueError(f"no {direction!r} view in this session")
        return direction

    def _begin_query(self) -> None:
        self._query_base = self.steps
        self._query_peak = 0
        self._query_exhausted = None
        self._deadline_at = (
            time.monotonic() + self._deadline if self._deadline is not None else None
        )
        if self._volatile_keys:
            # Cycle-dependent bounds recorded by the previous query hold
            # only in that query's traversal context.
            for key in self._volatile_keys:
                self._memo[key].clear_volatile()
            self._volatile_keys.clear()

    # ------------------------------------------------------------------
    # The frame machine (Figure 5's ``prove``, iteratively).
    # ------------------------------------------------------------------

    def _run_query(self, a: Node, v: Node, c: int, direction: str):
        """Trampoline: ``_enter`` either finishes a value or pushes a
        frame; finished values feed the topmost frame's merge until the
        stack drains back to the root answer."""
        stack: List[_Frame] = []
        value = self._enter(a, v, c, direction, stack)
        while stack:
            frame = stack[-1]
            if value is not None:
                # Deliver the pending child's value to the frame's merge;
                # a non-None return means the merge short-circuited.
                if frame.is_phi:
                    value = self._phi_absorb(frame, value)
                else:
                    value = self._min_absorb(frame, value)
                if value is not None:
                    value = self._pop(frame, value, stack)
                    continue
            if frame.index < len(frame.in_edges):
                edge = frame.in_edges[frame.index]
                frame.index += 1
                frame.pending = edge
                value = self._enter(
                    a, edge.source, frame.c - edge.weight, direction, stack
                )
            else:
                value = (
                    self._phi_finish(frame)
                    if frame.is_phi
                    else self._min_finish(frame)
                )
                value = self._pop(frame, value, stack)
        return value

    def _enter(self, a: Node, v: Node, c: int, direction: str, stack: List[_Frame]):
        """The ``prove()`` call boundary: budget checks, memo lookup,
        axioms, and cycle detection; pushes a merge frame (returning
        ``None``) when the vertex's in-edges must be traversed."""
        self.steps += 1
        self.steps_by_direction[direction] = (
            self.steps_by_direction.get(direction, 0) + 1
        )
        if self.steps - self._query_base > self._max_steps:
            # Defensive fuel: the algorithm terminates on well-formed
            # graphs, but corrupted graphs or adversarial inputs must not
            # hang the compiler.
            return self._exhaust("steps")
        if self._max_depth is not None and len(stack) > self._max_depth:
            return self._exhaust("depth")
        if (
            self._deadline_at is not None
            and self.steps % _DEADLINE_STRIDE == 0
            and time.monotonic() > self._deadline_at
        ):
            return self._exhaust("deadline")

        memo_key = (direction, a, v)
        memo = self._memo.get(memo_key)
        if memo is not None:
            cached = memo.lookup(c)
            if cached is not None:
                stored = memo.witness_for(cached, c)
                if not self._witnesses or not cached.proven or stored is not None:
                    return self._memo_hit(cached, stored)
                # Witness mode, proven result, but the memo entry carries
                # no replayable witness (the original one was open):
                # re-derive in the current context rather than answering
                # without a certificate.

        view = self._views[direction]

        # Reached the source: the empty path has weight 0.
        if v == a and c >= 0:
            return self._axiom_value(v, "source")

        # Two constants relate arithmetically (exactly), no traversal needed.
        if v.kind == "const" and a.kind == "const":
            difference = view.const_value(v) - view.const_value(a)
            if difference <= c:
                return self._axiom_value(v, "const-const")
            return self._false_value()

        # Array lengths are non-negative (the paper represents this as an
        # edge of G_I): in the upper graph, const(k) <= len(A) + k for any
        # k, which answers a constant target against a length source
        # directly — e.g. st0 <= -1 <= A.length - 1 in the running example.
        if (
            v.kind == "const"
            and a.kind == "len"
            and direction == "upper"
            and v.value <= c
        ):
            return self._axiom_value(v, "len-nonneg")

        in_edges = self._in_edges(view, v)
        if not in_edges:
            return self._false_value()

        active_key = (direction, v)
        active_budget = self._active.get(active_key)
        if active_budget is not None:
            if c < active_budget:
                # The cycle strengthened the query: positive-weight
                # (amplifying) cycle, cannot bound the variable.
                return self._cycle_false_value(v)
            return self._cycle_value(v)

        self._active[active_key] = c
        frame = _Frame(v, c, direction, in_edges, view.is_phi(v), memo_key, active_key)
        self._prepare_frame(frame)
        stack.append(frame)
        self.frames_pushed += 1
        depth = len(stack)
        if depth > self._query_peak:
            self._query_peak = depth
        if depth > self.frontier_peak:
            self.frontier_peak = depth
        return None

    def _pop(self, frame: _Frame, value, stack: List[_Frame]):
        stack.pop()
        del self._active[frame.active_key]
        value = self._seal_value(frame, value)
        self._record(frame, value)
        return value

    def _in_edges(self, view, v: Node):
        edges = view.in_edges(v)
        if self._edge_filter is not None:
            edges = [e for e in edges if self._edge_filter(e)]
        return edges

    def _exhaust(self, which: str):
        # A conservative False is always sound: the check merely stays in.
        self.budget_exhausted = True
        if self.exhausted_budget is None:
            self.exhausted_budget = which
        if self._query_exhausted is None:
            self._query_exhausted = which
        return self._false_value()

    # ------------------------------------------------------------------
    # Value hooks (overridden by the PRE variant, which threads insertion
    # sets through the same machine).  Plain values are
    # ``(result, witness, open)`` triples: ``open`` is the set of cycle
    # targets the derivation depends on that are not closed within the
    # value's own subtree — the plain-session analog of the witness
    # grammar's ``open`` sets, tracked even when no witness is built so
    # that :meth:`_record` can tell context-free results (memoized
    # persistently) from cycle-dependent ones (memoized per query).
    # ------------------------------------------------------------------

    def _false_value(self):
        return (ProofResult.FALSE, None, _NO_OPEN)

    def _cycle_false_value(self, v: Node):
        # An amplifying cycle refutes this path only relative to the
        # active entry it closed on.
        return (ProofResult.FALSE, None, frozenset((v,)))

    def _memo_hit(self, cached: ProofResult, stored: Optional[Witness]):
        return (cached, stored, _NO_OPEN)

    def _axiom_value(self, v: Node, rule: str):
        return (
            ProofResult.TRUE,
            AxiomWitness(v, rule) if self._witnesses else None,
            _NO_OPEN,
        )

    def _cycle_value(self, v: Node):
        return (
            ProofResult.REDUCED,
            CycleWitness(v) if self._witnesses else None,
            frozenset((v,)),
        )

    def _prepare_frame(self, frame: _Frame) -> None:
        if frame.is_phi:
            frame.result = ProofResult.TRUE
            frame.branches = []
            frame.complete = self._witnesses
        else:
            frame.result = ProofResult.FALSE
            frame.best = None
        frame.open = _NO_OPEN

    # Max vertex: meet over all in-edges (all must prove); short-circuits
    # on False.

    def _phi_absorb(self, frame: _Frame, value):
        sub_result, sub_w, sub_open = value
        frame.result = frame.result.meet(sub_result)
        if frame.result is ProofResult.FALSE:
            # The refutation rests on this child alone; earlier children's
            # cycle dependencies are irrelevant to it.
            return (ProofResult.FALSE, None, sub_open)
        if sub_w is None:
            frame.complete = False
        frame.open = frame.open | sub_open
        frame.branches.append((frame.pending.source, frame.pending.weight, sub_w))
        return None

    def _phi_finish(self, frame: _Frame):
        witness = (
            PhiWitness(frame.v, tuple(frame.branches)) if frame.complete else None
        )
        return (frame.result, witness, frame.open)

    # Min vertex: join over all in-edges (any suffices); short-circuits
    # on True.

    def _min_absorb(self, frame: _Frame, value):
        sub_result, sub_w, sub_open = value
        frame.open = frame.open | sub_open
        joined = frame.result.join(sub_result)
        if joined is not frame.result or frame.best is None:
            if sub_result is joined:
                frame.best = (frame.pending, sub_w, sub_open)
        frame.result = joined
        if frame.result is ProofResult.TRUE:
            return self._min_finish(frame)
        return None

    def _min_finish(self, frame: _Frame):
        if not frame.result.proven or frame.best is None:
            # A min-False needs every alternative refuted, so it inherits
            # all their cycle dependencies.
            return (frame.result, None, frame.open)
        edge, sub_w, sub_open = frame.best
        witness = (
            EdgeWitness(frame.v, edge.source, edge.weight, sub_w)
            if self._witnesses and sub_w is not None
            else None
        )
        return (frame.result, witness, sub_open)

    def _seal_value(self, frame: _Frame, value):
        """Close cycle dependencies on the popped vertex itself: a cycle
        back to ``frame.v`` replays identically whenever ``frame.v`` is
        re-queried, so it does not make the value context-dependent."""
        result, witness, open_set = value
        if frame.v in open_set:
            return (result, witness, open_set - frozenset((frame.v,)))
        return value

    def _record(self, frame: _Frame, value) -> None:
        if self._query_exhausted is not None:
            # Everything popped after an exhaustion is conservative, not
            # ground truth; recording it would let one starved query
            # poison the session memo for later, better-funded ones.
            return
        result, witness, open_set = value
        memo = self._memo.setdefault(frame.memo_key, _Memo())
        if open_set:
            memo.record_volatile(frame.c, result)
            self._volatile_keys.add(frame.memo_key)
        else:
            memo.record(frame.c, result, witness)


def demand_prove(
    graph: InequalityGraph,
    source: Node,
    target: Node,
    budget: int,
    edge_filter: Optional[Callable[[Edge], bool]] = None,
) -> ProveOutcome:
    """Run one fresh proof session (the common entry point)."""
    return DemandProver(graph, edge_filter).demand_prove(source, target, budget)
