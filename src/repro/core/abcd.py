"""The ABCD driver (paper, Figure 2).

For each bounds check ``check A[x]`` (optionally restricted to a hot set):

1. query the matching inequality graph —
   upper: ``demandProve(G_upper, x - len(A) <= -1)``,
   lower: ``demandProve(G_lower, 0 - x <= 0)`` (negated space);
2. if proven (``True`` or ``Reduced``), delete the check;
3. otherwise, optionally consult global value numbering (Section 7.1) and
   retry against congruent arrays;
4. otherwise, optionally attempt partial-redundancy elimination
   (Section 6, ``repro.core.pre``).

Each eliminated check is classified **local** when a proof exists using
only constraints generated in the check's own basic block, else
**global** — the split shown for the SPEC benchmarks in Figure 6.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.core.constraints import GraphBundle, build_graphs
from repro.core.graph import Edge, InequalityGraph, Node, const_node, len_node, var_node
from repro.core.lattice import ProofResult
from repro.core.solver import DEFAULT_MAX_STEPS, DemandProver
from repro.ir.function import Function, Program
from repro.ir.instructions import CheckLower, CheckUpper, Var
from repro.runtime.profiler import Profile


@dataclass
class ABCDConfig:
    """Tunables of one optimization run.

    ``upper``/``lower`` select which check kinds to analyze (the paper's
    experiments focus on upper checks; both default on).  ``pre`` enables
    the Section-6 partial-redundancy extension and requires a profile at
    ``pipeline.abcd``/``CompilationSession.optimize`` time.
    ``allocation_facts`` forwards to :func:`~repro.core.constraints.
    build_graphs`.  ``hot_checks`` restricts analysis to a set of check
    ids (the demand-driven JIT scenario); ``None`` analyzes everything.
    A ``gvn_mode`` outside ``off``/``consult``/``augment`` is rejected at
    construction.
    """

    upper: bool = True
    lower: bool = True
    pre: bool = False
    allocation_facts: bool = True
    hot_checks: Optional[Set[int]] = None
    #: Section 7.1 usage of global value numbering:
    #: "off" — no GVN; "consult" — the paper implementation's on-demand
    #: retry against congruent arrays; "augment" — additionally add
    #: congruence edges to the inequality graph (the general mechanism).
    gvn_mode: str = "consult"
    #: PRE inserts only when the summed profile frequency of the insertion
    #: edges stays below ``pre_gain_ratio`` times the check's own frequency
    #: (1.0 = the paper's break-even rule).
    pre_gain_ratio: float = 1.0
    #: Ablation switch: drop the C4/C5 π predicate edges from the graph,
    #: reducing e-SSA to plain SSA value flow (expected: collapse of the
    #: Figure-6 numbers).
    pi_constraints: bool = True
    #: Resource budgets for every proof session (a JIT must never hang in
    #: the optimizer).  Exhausting any budget conservatively keeps the
    #: check and flags ``budget_exhausted`` on its analysis record.
    max_steps: int = DEFAULT_MAX_STEPS
    max_depth: Optional[int] = None
    #: Optional wall-clock deadline (seconds) per proof session.
    deadline: Optional[float] = None
    #: Escalate contained pass failures (e.g. a PRE insertion that fails
    #: verification) into hard errors instead of rolling back.
    strict: bool = False
    #: Emit a proof witness for every elimination and replay it through
    #: the independent checker (``repro.certify``) before any check is
    #: removed; a rejected certificate revokes exactly that elimination.
    certify: bool = False

    def __post_init__(self) -> None:
        if self.gvn_mode not in ("off", "consult", "augment"):
            raise ValueError(f"bad gvn_mode {self.gvn_mode!r}")


@dataclass
class CheckAnalysis:
    """The analysis record of a single bounds check."""

    check_id: int
    kind: str  # "lower" | "upper"
    function: str
    block: str
    result: ProofResult
    steps: int
    seconds: float
    eliminated: bool = False
    scope: Optional[str] = None  # "local" | "global" for eliminated checks
    via_gvn: bool = False
    pre_applied: bool = False
    pre_insertions: int = 0
    #: The proof session hit a resource budget (steps/depth/deadline) and
    #: conservatively kept the check.
    budget_exhausted: bool = False
    #: Which resource ran out first ("steps" | "depth" | "deadline").
    exhausted_budget: Optional[str] = None
    #: Proof witness backing this elimination (certify mode only); an
    #: independently checkable certificate, see ``repro.certify``.
    witness: Optional[object] = None
    #: Source vertex of the certified query (differs from the check's own
    #: array-length vertex after a Section-7.1 GVN retry).
    cert_source: Optional[object] = None
    #: Certificate verdict: ``None`` (not certified), "accepted", or
    #: "rejected".
    certificate: Optional[str] = None
    #: The elimination was revoked (rejected certificate or function
    #: quarantine): the check stays in the program.
    revoked: bool = False


@dataclass
class PassFailure:
    """One detected-and-contained transformation failure.

    Recorded by the pass-guard layer (``repro.robustness.guard``) whenever
    a transforming pass raised or produced IR that fails verification; the
    function was rolled back to its pre-pass snapshot.
    """

    pass_name: str
    function: str
    #: "exception" — the pass raised mid-flight;
    #: "verify" — the pass completed but left malformed IR.
    stage: str
    error_type: str
    message: str

    def __str__(self) -> str:
        return (
            f"{self.pass_name}({self.function}): {self.stage} failure "
            f"[{self.error_type}] {self.message}"
        )


@dataclass
class ABCDReport:
    """Aggregated outcome of one ``pipeline.abcd`` run."""

    analyses: List[CheckAnalysis] = field(default_factory=list)
    #: Robustness telemetry: pass failures contained by rollback during
    #: this run (one entry per rollback).
    pass_failures: List[PassFailure] = field(default_factory=list)
    #: Per-pass timing and analysis-cache telemetry of the session that
    #: produced this report (a ``repro.passes.manager.SessionStats``), when
    #: the run went through the pass manager.
    session_stats: Optional[object] = None
    #: Functions quarantined to unoptimized compilation by the certificate
    #: revocation ladder (repeated rejections in one function).
    quarantined_functions: List[str] = field(default_factory=list)

    @property
    def analyzed(self) -> int:
        return len(self.analyses)

    @property
    def eliminated_ids(self) -> Set[int]:
        return {a.check_id for a in self.analyses if a.eliminated}

    def eliminated_count(self, kind: Optional[str] = None) -> int:
        return sum(
            1
            for a in self.analyses
            if a.eliminated and (kind is None or a.kind == kind)
        )

    def analyzed_count(self, kind: Optional[str] = None) -> int:
        return sum(1 for a in self.analyses if kind is None or a.kind == kind)

    @property
    def total_steps(self) -> int:
        return sum(a.steps for a in self.analyses)

    @property
    def mean_steps(self) -> float:
        return self.total_steps / len(self.analyses) if self.analyses else 0.0

    @property
    def pre_transformed(self) -> int:
        return sum(1 for a in self.analyses if a.pre_applied)

    # ------------------------------------------------------------------
    # Robustness telemetry.
    # ------------------------------------------------------------------

    @property
    def rollback_count(self) -> int:
        """Transformation failures contained by rolling back a snapshot."""
        return len(self.pass_failures)

    def rollbacks_by_pass(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for failure in self.pass_failures:
            counts[failure.pass_name] = counts.get(failure.pass_name, 0) + 1
        return counts

    @property
    def budget_exhausted_count(self) -> int:
        """Checks kept because a solver resource budget ran out."""
        return sum(1 for a in self.analyses if a.budget_exhausted)

    def budget_exhausted_kinds(self) -> Dict[str, int]:
        """Breakdown of budget exhaustions by which budget ran out."""
        counts: Dict[str, int] = {}
        for a in self.analyses:
            if a.budget_exhausted and a.exhausted_budget is not None:
                counts[a.exhausted_budget] = counts.get(a.exhausted_budget, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Certificate telemetry (certify mode).
    # ------------------------------------------------------------------

    @property
    def certificates_emitted(self) -> int:
        """Eliminations that carried a proof witness into the checker."""
        return sum(1 for a in self.analyses if a.certificate is not None)

    @property
    def certificates_accepted(self) -> int:
        return sum(1 for a in self.analyses if a.certificate == "accepted")

    @property
    def certificates_rejected(self) -> int:
        return sum(1 for a in self.analyses if a.certificate == "rejected")

    @property
    def revoked_count(self) -> int:
        """Eliminations undone by the revocation ladder (the checks stayed
        in the program)."""
        return sum(1 for a in self.analyses if a.revoked)

@dataclass
class _CheckSite:
    instr: object
    kind: str
    block: str
    target: Node
    array: Optional[str]


def _operand_target(operand) -> Node:
    if isinstance(operand, Var):
        return var_node(operand.name)
    return const_node(operand.value)


def _check_sites(fn: Function) -> List[_CheckSite]:
    sites: List[_CheckSite] = []
    for label in fn.reachable_blocks():
        for instr in fn.blocks[label].body:
            if isinstance(instr, CheckLower):
                sites.append(
                    _CheckSite(instr, "lower", label, _operand_target(instr.index), None)
                )
            elif isinstance(instr, CheckUpper):
                sites.append(
                    _CheckSite(
                        instr, "upper", label, _operand_target(instr.index), instr.array
                    )
                )
    return sites


@dataclass
class AbcdState:
    """The outcome of :func:`analyze_checks`, consumed by the ``pre`` and
    ``check-removal`` passes.

    ``analyses`` holds one :class:`CheckAnalysis` per analyzed check in
    site order; ``to_remove`` the sites whose checks were proven
    redundant; ``pre_candidates`` the ``(site, record)`` pairs that failed
    their proof and are eligible for the Section-6 PRE attempt.
    """

    bundle: GraphBundle
    gvn: Optional[object]
    analyses: List[CheckAnalysis] = field(default_factory=list)
    to_remove: List[_CheckSite] = field(default_factory=list)
    pre_candidates: List = field(default_factory=list)

    def eliminations(self) -> Iterator[Tuple[_CheckSite, CheckAnalysis, bool]]:
        """The pending eliminations as ``(site, record, pre)``: first the
        proven sites (``check-removal`` deletes them), then the checks PRE
        transformed (they stay in the IR as guarded checks)."""
        records = {a.check_id: a for a in self.analyses}
        for site in self.to_remove:
            yield site, records[site.instr.check_id], False
        for site, record in self.pre_candidates:
            if record.pre_applied and record.eliminated:
                yield site, record, True


def analyze_checks(
    fn: Function,
    program: Program,
    config: Optional[ABCDConfig] = None,
    analysis=None,
    stats=None,
) -> AbcdState:
    """Run the demand-driven proofs over one e-SSA function.

    Pure analysis: the function is not mutated.  ``analysis`` (an
    :class:`~repro.passes.analysis.AnalysisManager`) serves GVN and
    dominance results from the session cache.  ``stats`` (a
    :class:`~repro.passes.manager.SessionStats`) receives solver
    telemetry counters when provided.

    All of the function's queries — both directions, plain and certify
    mode alike — share one proof session over the unified dual graph,
    so memo entries earned by one check site (keyed by direction and
    source vertex) answer later sites for free.  In certify mode a
    later site's witness may therefore embed an earlier site's closed
    sub-witness; every certificate still replays standalone.
    Local/global scope classification replays each proof in a fresh
    session with a same-block edge filter.
    """
    config = config or ABCDConfig()
    if fn.ssa_form != "essa":
        raise ValueError(f"{fn.name}: ABCD requires e-SSA form")
    gvn = None
    if config.gvn_mode != "off":
        if analysis is not None:
            gvn = analysis.get("gvn", fn)
        else:
            from repro.opt.gvn import value_number

            gvn = value_number(fn)
    domtree = None
    if config.gvn_mode == "augment" and analysis is not None:
        domtree = analysis.get("domtree", fn)
    bundle = build_graphs(
        fn,
        allocation_facts=config.allocation_facts,
        gvn=gvn if config.gvn_mode == "augment" else None,
        pi_constraints=config.pi_constraints,
        domtree=domtree,
    )
    state = AbcdState(bundle=bundle, gvn=gvn)

    prove, provers = _proof_session(bundle, config)
    for site in _check_sites(fn):
        if site.kind == "upper" and not config.upper:
            continue
        if site.kind == "lower" and not config.lower:
            continue
        check_id = site.instr.check_id
        if config.hot_checks is not None and check_id not in config.hot_checks:
            continue

        graph, source, budget = _query_for(bundle, site.kind, site.array)
        target = site.target

        started = time.perf_counter()
        outcome = prove(source, target, budget, site.kind)
        record = CheckAnalysis(
            check_id=check_id,
            kind=site.kind,
            function=fn.name,
            block=site.block,
            result=outcome.result,
            steps=outcome.steps,
            seconds=0.0,
            budget_exhausted=outcome.budget_exhausted,
            exhausted_budget=outcome.exhausted_budget,
        )
        if config.certify and outcome.proven:
            record.witness = outcome.witness
            record.cert_source = source

        if not outcome.proven and site.kind == "upper" and gvn is not None:
            retry = _gvn_retry(bundle, gvn, site, budget, prove)
            if retry is not None:
                other, gvn_outcome = retry
                record.result = ProofResult.TRUE
                record.via_gvn = True
                if config.certify:
                    record.witness = gvn_outcome.witness
                    record.cert_source = len_node(other)

        if record.result.proven:
            record.eliminated = True
            record.scope = _classify_scope(
                graph, source, target, budget, site.block, config
            )
            state.to_remove.append(site)
        else:
            state.pre_candidates.append((site, record))
        record.seconds = time.perf_counter() - started
        state.analyses.append(record)

    if stats is not None:
        _collect_solver_stats(stats, provers)
    return state


def _collect_solver_stats(stats, provers) -> None:
    """Fold proof-session telemetry into the pass-manager counters.

    ``getattr`` defaults keep this safe against fault-injected prover
    doubles that expose only ``steps``/``budget_exhausted``.
    """
    frames = 0
    frontier = 0
    by_direction = {"upper": 0, "lower": 0}
    for prover in provers:
        frames += getattr(prover, "frames_pushed", 0)
        frontier = max(frontier, getattr(prover, "frontier_peak", 0))
        directed = getattr(prover, "steps_by_direction", None)
        if directed:
            for direction, count in directed.items():
                by_direction[direction] = by_direction.get(direction, 0) + count
    stats.bump("solver.frames_pushed", frames)
    stats.bump_peak("solver.frontier_peak", frontier)
    for direction, count in by_direction.items():
        stats.bump(f"solver.steps.{direction}", count)


def apply_pre(
    fn: Function,
    program: Program,
    state: AbcdState,
    config: ABCDConfig,
    profile: Profile,
    report: ABCDReport,
    analysis=None,
) -> int:
    """Attempt Section-6 PRE for every unproven check of ``state``.

    Each successful attempt appends compensating checks, tags the original
    check's guard group, and marks its record eliminated (scope
    ``"global"``); the check instruction itself stays in place as the
    guarded check.  Returns how many checks were transformed.
    """
    applied = 0
    for site, record in state.pre_candidates:
        started = time.perf_counter()
        decision = _guarded_pre(
            fn, program, state.bundle, site, profile, config, report, analysis=analysis
        )
        record.seconds += time.perf_counter() - started
        if decision is not None:
            record.pre_applied = True
            record.pre_insertions = decision.insertion_count
            record.eliminated = True
            record.scope = "global"
            if config.certify:
                record.witness = decision.witness
                record.cert_source = (
                    len_node(site.array) if site.kind == "upper" else const_node(0)
                )
            applied += 1
    return applied


def remove_checks(fn: Function, state: AbcdState) -> int:
    """Delete the checks ``analyze_checks`` proved redundant; returns the
    number removed."""
    for site in state.to_remove:
        _remove_instr(fn, site)
    return len(state.to_remove)


# ----------------------------------------------------------------------
# Helpers.
# ----------------------------------------------------------------------


def _query_for(bundle: GraphBundle, kind: str, array: Optional[str]):
    """Graph, source vertex, and budget for one check's query (the
    certificate checker replays against the same one)."""
    if kind == "upper":
        return bundle.upper, len_node(array), -1
    return bundle.lower, const_node(0), 0


def _new_prover(
    config: ABCDConfig,
    graph: InequalityGraph,
    edge_filter: Optional[callable] = None,
) -> DemandProver:
    """A proof session carrying the config's resource budgets."""
    return DemandProver(
        graph,
        edge_filter=edge_filter,
        max_steps=config.max_steps,
        max_depth=config.max_depth,
        deadline=config.deadline,
        witnesses=config.certify,
    )


def _proof_session(bundle: GraphBundle, config: ABCDConfig):
    """The function's proof session: ``prove(source, target, budget,
    direction)`` plus the list of provers it opened (for telemetry).

    Every query of the function, in both directions and in both modes,
    shares one dual-direction session; certify mode only turns its
    witnesses on.  The memo stores closed witnesses alone, so a
    certificate that reuses an earlier site's proof still replays on
    its own.  Bundles without a dual graph open a fresh per-query
    session over the direction's own graph (the reference path the
    dual-traversal equivalence tests force).  Provers come from
    :func:`_new_prover`, which looks ``DemandProver`` up in this module
    at call time, so the fault harness can substitute it.
    """
    shared = None
    if bundle.dual is not None:
        shared = _new_prover(config, bundle.dual)
    provers: List = [] if shared is None else [shared]

    def prove(source: Node, target: Node, budget: int, direction: str):
        if shared is not None:
            return shared.demand_prove(source, target, budget, direction=direction)
        graph = bundle.upper if direction == "upper" else bundle.lower
        prover = _new_prover(config, graph)
        provers.append(prover)
        return prover.demand_prove(source, target, budget)

    return prove, provers


def _guarded_pre(
    fn: Function,
    program: Program,
    bundle: GraphBundle,
    site: _CheckSite,
    profile: Profile,
    config: ABCDConfig,
    report: ABCDReport,
    analysis=None,
):
    """Attempt PRE under a targeted guard.

    PRE only appends compensating instructions to predecessor blocks and
    tags the original check with a guard group, so a failure (an exception
    mid-transformation or malformed IR afterwards) is undone exactly by
    truncating those appends and restoring the tag.  The failure is
    recorded as robustness telemetry and the check simply stays in.
    """
    from repro.core.pre import attempt_pre  # local import: pre depends on us
    from repro.ir.verifier import verify_function

    body_lengths = {label: len(block.body) for label, block in fn.blocks.items()}
    old_guard_group = site.instr.guard_group
    try:
        decision = attempt_pre(
            fn,
            program,
            bundle,
            site,
            profile,
            config.pre_gain_ratio,
            max_steps=config.max_steps,
            domtree=analysis.get("domtree", fn) if analysis is not None else None,
            witnesses=config.certify,
        )
        changed = any(
            len(fn.blocks[label].body) != length
            for label, length in body_lengths.items()
            if label in fn.blocks
        )
        if changed:
            verify_function(fn)
        return decision
    except Exception as exc:  # guard layer: contain anything but escape hatches
        if config.strict:
            raise
        for label, length in body_lengths.items():
            block = fn.blocks.get(label)
            if block is not None and len(block.body) > length:
                del block.body[length:]
        # The truncation above bypasses the mutator API; drop the def-use
        # index so the next query rebuilds from the rolled-back bodies.
        fn.invalidate_def_use()
        site.instr.guard_group = old_guard_group
        from repro.errors import IRVerificationError

        report.pass_failures.append(
            PassFailure(
                pass_name="pre",
                function=fn.name,
                stage="verify" if isinstance(exc, IRVerificationError) else "exception",
                error_type=type(exc).__name__,
                message=str(exc),
            )
        )
        return None


def _classify_scope(
    graph: InequalityGraph,
    source: Node,
    target: Node,
    budget: int,
    block: str,
    config: ABCDConfig,
) -> str:
    """"local" when provable with constraints from the check's block only
    (virtual constant edges, having no block, stay available)."""

    def same_block(edge: Edge) -> bool:
        return edge.block is None or edge.block == block

    local = _new_prover(config, graph, edge_filter=same_block)
    if local.demand_prove(source, target, budget).proven:
        return "local"
    return "global"


def _gvn_retry(
    bundle: GraphBundle,
    gvn,
    site: _CheckSite,
    budget: int,
    prove,
):
    """Section 7.1 (restricted form): on failure against ``len(A)``, retry
    against the lengths of arrays value-congruent to ``A``.

    Returns ``(other_array, outcome)`` for the first congruent array whose
    proof succeeds, else ``None``.  ``prove`` is the function's shared
    proof session (see :func:`_proof_session`); its memo is keyed by
    source vertex, so a retry against ``len(B)`` never borrows a result
    earned against ``len(A)``.
    """
    assert site.array is not None
    congruent = gvn.class_members(site.array)
    target = site.target
    for other in sorted(congruent):
        if other == site.array or other not in bundle.array_vars:
            continue
        outcome = prove(len_node(other), target, budget, "upper")
        if outcome.proven:
            return other, outcome
    return None


def _remove_instr(fn: Function, site: _CheckSite) -> None:
    # Chain-maintaining removal: the check's operand uses leave the
    # def-use index along with the instruction.
    fn.remove_instr(site.block, site.instr)
