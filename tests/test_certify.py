"""Proof-witness certificate tests (``repro.certify``).

Covers the witness grammar's corner cases on hand-built inequality
graphs (harmless-cycle closures, φ meets, memo budget-subsumption
reuse), the independent checker's rejection conditions, the per-function
replay that checks a function's certificates as one DAG, the revocation
ladder (single revoke → quarantine → ``--strict`` escalation), PRE
assumption certificates, deterministic serialization across fresh
sessions, zero-rejection certification of the corpus and of generated
programs, and linear certification work on a nested-guard chain.
"""

import dataclasses
import json
from functools import partial

import pytest

from repro.bench.corpus import CORPUS
from repro.certify import (
    CertificateRejected,
    certificates_to_json,
    certify_state,
    check_witness,
)
from repro.certify import driver
from repro.certify.checker import _Replay
from repro.certify.witness import (
    AxiomWitness,
    CycleWitness,
    EdgeWitness,
    PhiWitness,
    is_closed,
    witness_to_json,
)
from repro.core import abcd as abcd_module
from repro.core.abcd import ABCDConfig, ABCDReport
from repro.core.graph import InequalityGraph, const_node, len_node, var_node
from repro.core.solver import DemandProver
from repro.errors import CertificateError
from repro.fuzz.generator import GeneratorConfig, generate_source
from repro.ir.instructions import CheckLower, CheckUpper
from repro.passes.session import CompilationSession
from repro.pipeline import abcd, compile_source, run
from repro.runtime.profiler import collect_profile

A = len_node("A")
I = var_node("i")
I0 = var_node("i0")
I2 = var_node("i2")


def _prove_with_witness(graph, source, target, budget):
    outcome = DemandProver(graph, witnesses=True).demand_prove(
        source, target, budget
    )
    return outcome


# ----------------------------------------------------------------------
# Hand-built graphs: grammar corner cases.
# ----------------------------------------------------------------------


class TestWitnessReplay:
    def test_chain_witness_replays(self):
        graph = InequalityGraph()
        graph.add_edge(A, var_node("n"), 0)
        graph.add_edge(var_node("n"), I, -2)
        outcome = _prove_with_witness(graph, A, I, -1)
        assert outcome.result.proven
        assert is_closed(outcome.witness)
        check_witness(graph, A, I, -1, outcome.witness)

    def test_len_nonneg_axiom_replays(self):
        graph = InequalityGraph("upper")
        outcome = _prove_with_witness(graph, A, const_node(0), 0)
        assert outcome.result.proven
        assert isinstance(outcome.witness, AxiomWitness)
        assert outcome.witness.rule == "len-nonneg"
        check_witness(graph, A, const_node(0), 0, outcome.witness)

    def test_plain_session_emits_no_witness(self):
        graph = InequalityGraph()
        graph.add_edge(A, I, -1)
        outcome = DemandProver(graph).demand_prove(A, I, -1)
        assert outcome.result.proven
        assert outcome.witness is None

    def test_missing_witness_is_rejected(self):
        graph = InequalityGraph()
        graph.add_edge(A, I, -1)
        with pytest.raises(CertificateRejected, match="no witness"):
            check_witness(graph, A, I, -1, None)


def _reduced_loop_graph(step: int) -> InequalityGraph:
    """``i = φ(i0, i2)`` with ``i0 <= len(A) - 1`` and ``i2 <= i + step``
    (``step <= 0`` makes the loop-carried cycle harmless)."""
    graph = InequalityGraph("upper")
    graph.add_edge(A, I0, -1)
    graph.add_edge(I0, I, 0)
    graph.add_edge(I2, I, 0)
    graph.add_edge(I, I2, step)
    graph.mark_phi(I)
    return graph


class TestCycleWitnesses:
    def test_reduced_cycle_witness_replays(self):
        graph = _reduced_loop_graph(step=-1)
        outcome = _prove_with_witness(graph, A, I, -1)
        assert outcome.result.proven
        assert is_closed(outcome.witness)
        # The loop-carried branch must close as a harmless cycle on i.
        assert isinstance(outcome.witness, PhiWitness)
        subs = {source: sub for source, _, sub in outcome.witness.branches}
        assert isinstance(subs[I2], EdgeWitness)
        assert subs[I2].sub == CycleWitness(I)
        check_witness(graph, A, I, -1, outcome.witness)

    def test_amplifying_cycle_is_not_proven(self):
        outcome = _prove_with_witness(_reduced_loop_graph(step=1), A, I, -1)
        assert not outcome.result.proven
        assert outcome.witness is None

    def test_forged_cycle_on_amplifying_graph_rejected(self):
        # Hand-forge the witness the solver refused to emit: the checker's
        # own telescoping sees the +1 cycle weight and rejects it.
        graph = _reduced_loop_graph(step=1)
        forged = PhiWitness(
            I,
            (
                (I0, 0, EdgeWitness(I0, A, -1, AxiomWitness(A, "source"))),
                (I2, 0, EdgeWitness(I2, I, 1, CycleWitness(I))),
            ),
        )
        with pytest.raises(CertificateRejected, match="amplifying cycle"):
            check_witness(graph, A, I, -1, forged)

    def test_cycle_without_phi_rejected(self):
        # Section-4 consistency: a φ-free "harmless" cycle proves nothing.
        graph = InequalityGraph("upper")
        x, y = var_node("x"), var_node("y")
        graph.add_edge(y, x, 0)
        graph.add_edge(x, y, 0)
        forged = EdgeWitness(x, y, 0, EdgeWitness(y, x, 0, CycleWitness(x)))
        with pytest.raises(CertificateRejected, match="no φ vertex"):
            check_witness(graph, A, x, -1, forged)

    def test_cycle_at_root_rejected(self):
        graph = _reduced_loop_graph(step=-1)
        with pytest.raises(CertificateRejected, match="not active"):
            check_witness(graph, A, I, -1, CycleWitness(I))


class TestPhiWitnesses:
    def test_dropped_phi_branch_rejected(self):
        graph = _reduced_loop_graph(step=-1)
        witness = _prove_with_witness(graph, A, I, -1).witness
        pruned = PhiWitness(I, witness.branches[:1])
        with pytest.raises(CertificateRejected, match="not discharged"):
            check_witness(graph, A, I, -1, pruned)

    def test_invented_phi_branch_rejected(self):
        graph = _reduced_loop_graph(step=-1)
        witness = _prove_with_witness(graph, A, I, -1).witness
        stray = (var_node("ghost"), 0, AxiomWitness(var_node("ghost"), "source"))
        forged = PhiWitness(I, witness.branches + (stray,))
        with pytest.raises(CertificateRejected, match="no.*backing"):
            check_witness(graph, A, I, -1, forged)

    def test_tightened_edge_weight_rejected(self):
        graph = InequalityGraph()
        graph.add_edge(A, I, -1)
        witness = _prove_with_witness(graph, A, I, -1).witness
        assert isinstance(witness, EdgeWitness)
        tightened = EdgeWitness(I, A, -2, witness.sub)
        with pytest.raises(CertificateRejected, match="no graph edge"):
            check_witness(graph, A, I, -2, tightened)


class TestMemoSubsumption:
    def test_memo_reuse_yields_replayable_witness(self):
        # Two φ branches funnel through one shared vertex; the second
        # branch hits the memo at a *larger* telescoped budget and must
        # reuse the closed witness recorded at the smaller bound.
        graph = InequalityGraph("upper")
        m, p, q, s = (var_node(n) for n in ("m", "p", "q", "s"))
        graph.add_edge(p, m, 0)
        graph.add_edge(q, m, 0)
        graph.mark_phi(m)
        graph.add_edge(s, p, 0)
        graph.add_edge(s, q, -1)
        graph.add_edge(A, s, -2)
        outcome = _prove_with_witness(graph, A, m, -1)
        assert outcome.result.proven
        subs = {source: sub for source, _, sub in outcome.witness.branches}
        # Same witness *object*: the memo hit reused it, it was not
        # re-derived.
        assert subs[p].sub is subs[q].sub
        assert is_closed(outcome.witness)
        check_witness(graph, A, m, -1, outcome.witness)


class TestSharedSubtreeReplay:
    """The checker's replay cache: memo-shared sub-witnesses (the witness
    is a DAG) must verify once per budget class, not once per tree path —
    and the cache must never launder a subtree into a context where it
    does not hold."""

    def test_phi_ladder_replays_in_linear_time(self):
        # 60 φ rungs whose branches share their tail sub-witness: a
        # tree-shaped replay would take 2^60 steps; completing at all
        # proves the shared subtrees are cached.
        graph = InequalityGraph("upper")
        rungs = 60
        x = [var_node(f"x{k}") for k in range(rungs + 1)]
        graph.add_edge(A, x[0], -1)
        for k in range(rungs):
            left, right = var_node(f"l{k}"), var_node(f"r{k}")
            graph.add_edge(x[k], left, 0)
            graph.add_edge(x[k], right, 0)
            graph.add_edge(left, x[k + 1], 0)
            graph.add_edge(right, x[k + 1], 0)
            graph.mark_phi(x[k + 1])
        outcome = _prove_with_witness(graph, A, x[rungs], -1)
        assert outcome.result.proven
        check_witness(graph, A, x[rungs], -1, outcome.witness)

    def test_shared_subtree_not_reused_at_smaller_budget(self):
        # A φ references the same sub-witness twice, first at a budget
        # where it holds, then — through a heavier in-edge — at one where
        # it does not: the cached success must not blanket the second
        # obligation.
        graph = InequalityGraph("upper")
        x, y = var_node("x"), var_node("y")
        graph.add_edge(A, x, -1)
        graph.add_edge(x, y, 0)
        graph.add_edge(x, y, 5)
        graph.mark_phi(y)
        sub = EdgeWitness(x, A, -1, AxiomWitness(A, "source"))
        forged = PhiWitness(y, ((x, 0, sub), (x, 5, sub)))
        with pytest.raises(CertificateRejected, match="source axiom"):
            check_witness(graph, A, y, -1, forged)

    def test_cached_subtree_not_reused_at_another_vertex(self):
        # The cache is keyed by witness identity; a subtree verified for
        # ``x`` must not discharge the obligation on ``z`` (which has no
        # in-edges, so ``y`` is unbounded).
        graph = InequalityGraph("upper")
        x, y, z = var_node("x"), var_node("y"), var_node("z")
        graph.add_edge(A, x, -1)
        graph.add_edge(x, y, 0)
        graph.add_edge(z, y, 0)
        graph.mark_phi(y)
        sub = EdgeWitness(x, A, -1, AxiomWitness(A, "source"))
        forged = PhiWitness(y, ((x, 0, sub), (z, 0, sub)))
        with pytest.raises(CertificateRejected, match="obligation is z"):
            check_witness(graph, A, y, -1, forged)

    def test_cycle_escaping_subtree_not_cached(self):
        # Branch 1 verifies a subtree whose cycle leaf closes on the φ
        # *above* it; branch 2 presents the same subtree outside that
        # φ's scope, where the cycle target is no longer active.  The
        # cache must not carry the first success across.
        graph = InequalityGraph("upper")
        q, y, r = var_node("q"), var_node("y"), var_node("r")
        graph.add_edge(y, q, 0)
        graph.add_edge(q, y, 0)
        graph.mark_phi(y)
        graph.add_edge(y, r, 0)
        graph.add_edge(q, r, 0)
        graph.mark_phi(r)
        escaping = EdgeWitness(q, y, 0, CycleWitness(y))
        inner = PhiWitness(y, ((q, 0, escaping),))
        forged = PhiWitness(r, ((y, 0, inner), (q, 0, escaping)))
        with pytest.raises(CertificateRejected, match="not active"):
            check_witness(graph, A, r, 0, forged)


#: Two arrays indexed by one loop variable: the lower checks of ``a[i]``
#: and ``b[i]`` share the ``(lower, 0)`` replay, and both proofs walk
#: the loop φ.
TWO_ARRAY_SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let b: int[] = new int[20];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
    if (i < len(b)) { s = s + b[i]; }
  }
  return s;
}
"""

#: ``b`` and ``c`` are φs with identical incomings, so value numbering
#: makes them congruent and ``c[i]`` is proven against ``len(b)``.
CONGRUENT_SRC = """
fn f(x: int[], y: int[], k: int): int {
  let b: int[] = x;
  let c: int[] = x;
  if (k > 0) { b = y; c = y; }
  let s: int = 0;
  for (let i: int = 0; i < len(b); i = i + 1) { s = s + c[i] + b[i]; }
  return s;
}
fn main(): int {
  let x: int[] = new int[8];
  let y: int[] = new int[8];
  return f(x, y, 1);
}
"""

#: One function with PRE-transformed checks (the loop-invariant
#: ``a[k]``) and directly eliminated ones (``a[i]``).
PRE_MIXED_SRC = """
fn kernel(a: int[], k: int, n: int): int {
  let s: int = 0;
  let r: int = 0;
  while (r < n) {
    s = s + a[k];
    r = r + 1;
  }
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i] + a[i];
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[8];
  return kernel(a, 3, 40);
}
"""


@pytest.fixture
def no_quarantine(monkeypatch):
    """Each rejection revokes its own elimination; none quarantines."""
    monkeypatch.setattr(driver, "QUARANTINE_AFTER", 99)


def _lower_pair():
    program = compile_source(TWO_ARRAY_SRC)
    fn = program.functions["main"]
    config = ABCDConfig(certify=True)
    state = abcd_module.analyze_checks(fn, program, config)
    records = {a.check_id: a for a in state.analyses}
    first, second = (
        records[site.instr.check_id] for site in state.to_remove if site.kind == "lower"
    )
    return fn, state, config, first, second


def _rewrite_first_phi(witness, rewrite):
    """Apply ``rewrite`` to the first φ below a chain of edge nodes."""
    if isinstance(witness, EdgeWitness):
        return dataclasses.replace(witness, sub=_rewrite_first_phi(witness.sub, rewrite))
    assert isinstance(witness, PhiWitness), witness
    return rewrite(witness)


def _tighten_last_branch(phi):
    """Claim the φ's last branch edge 1 tighter than the graph has."""
    source, weight, sub = phi.branches[-1]
    assert isinstance(sub, EdgeWitness), sub
    forged = dataclasses.replace(sub, weight=sub.weight - 1)
    return dataclasses.replace(phi, branches=phi.branches[:-1] + ((source, weight, forged),))


def _statuses(verdicts):
    return {v.check_id: v.status for v in verdicts}


class TestPerFunctionReplay:
    """``certify_state`` replays every non-PRE certificate of a function
    with the same kind and source through one ``_Replay``, so the
    verified-subtree cache spans certificates.  The per-walk state must
    reset between them, and the cache must stay within one graph,
    source and assumption context."""

    def test_smaller_budget_rejected_across_certificates(self):
        # test_shared_subtree_not_reused_at_smaller_budget, with its two
        # obligations on ``x`` (budgets -1 and -6) in two certificates.
        graph = InequalityGraph("upper")
        x, y = var_node("x"), var_node("y")
        graph.add_edge(A, x, -1)
        graph.add_edge(x, y, 0)
        graph.add_edge(x, y, 5)
        graph.mark_phi(y)
        sub = EdgeWitness(x, A, -1, AxiomWitness(A, "source"))
        replay = _Replay(graph, A)
        replay.check(x, -1, sub)
        with pytest.raises(CertificateRejected, match="source axiom"):
            replay.check(y, -1, PhiWitness(y, ((x, 5, sub),)))

    def test_escaping_cycle_rejected_across_certificates(self):
        # test_cycle_escaping_subtree_not_cached, with its two
        # obligations in two certificates: the second presents the
        # escaping subtree where its cycle target is not active.
        graph = InequalityGraph("upper")
        q, y, r = var_node("q"), var_node("y"), var_node("r")
        graph.add_edge(y, q, 0)
        graph.add_edge(q, y, 0)
        graph.mark_phi(y)
        graph.add_edge(y, r, 0)
        graph.add_edge(q, r, 0)
        graph.mark_phi(r)
        escaping = EdgeWitness(q, y, 0, CycleWitness(y))
        replay = _Replay(graph, A)
        replay.check(y, 0, PhiWitness(y, ((q, 0, escaping),)))
        with pytest.raises(CertificateRejected, match="not active"):
            replay.check(q, 0, escaping)

    def test_rejection_inside_phi_leaves_the_replay_usable(self, no_quarantine):
        fn, state, config, first, second = _lower_pair()
        first.witness = _rewrite_first_phi(first.witness, _tighten_last_branch)
        verdicts = _statuses(certify_state(fn, state, config))
        assert (verdicts[first.check_id], verdicts[second.check_id]) == (
            "rejected",
            "accepted",
        )

    def test_rejection_inside_phi_leaves_no_active_vertex(self, no_quarantine):
        # The first walk is abandoned with the loop φ active; a forged
        # cycle closing on that φ in the next certificate must not find
        # it still active.
        fn, state, config, first, second = _lower_pair()
        first.witness = _rewrite_first_phi(first.witness, _tighten_last_branch)
        second.witness = _rewrite_first_phi(
            second.witness, lambda phi: CycleWitness(phi.vertex)
        )
        verdicts = _statuses(certify_state(fn, state, config))
        assert (verdicts[first.check_id], verdicts[second.check_id]) == (
            "rejected",
            "rejected",
        )

    def test_forged_certificate_after_a_valid_one_rejected(self, no_quarantine):
        # The second certificate hands the first one's whole witness,
        # verified and cached a moment ago, to an obligation on another
        # vertex.
        fn, state, config, first, second = _lower_pair()
        second.witness = dataclasses.replace(second.witness, sub=first.witness)
        verdicts = _statuses(certify_state(fn, state, config))
        assert (verdicts[first.check_id], verdicts[second.check_id]) == (
            "accepted",
            "rejected",
        )

    def test_subtree_verified_under_one_source_rechecked_under_another(
        self, no_quarantine
    ):
        # ``c[i]`` is proven by a Section-7.1 retry against ``len(b)``,
        # and ``b[i]``'s proof reuses it from the memo.  With ``b[i]``
        # replayed first, a ``c[i]`` certificate claiming ``len(c)`` as
        # its source must get a replay of its own, where the proof's
        # ``len(b)`` source axiom fails.
        program = compile_source(CONGRUENT_SRC)
        fn = program.functions["f"]
        config = ABCDConfig(certify=True)
        state = abcd_module.analyze_checks(fn, program, config)
        retried = next(a for a in state.analyses if a.via_gvn)
        direct = next(
            a
            for a in state.analyses
            if a.kind == "upper" and not a.via_gvn and a.eliminated
        )
        assert retried.cert_source == direct.cert_source
        retried.cert_source = None
        state.to_remove.sort(key=lambda site: site.instr.check_id != direct.check_id)
        verdicts = _statuses(certify_state(fn, state, config))
        assert verdicts[direct.check_id] == "accepted"
        assert verdicts[retried.check_id] == "rejected"
        assert retried.revoked

    def test_pre_certificates_never_read_the_shared_cache(self, monkeypatch):
        replays = []
        real = _Replay.check

        def spied(self, vertex, budget, witness):
            replays.append((self, self._assume is not None, len(self._verified)))
            return real(self, vertex, budget, witness)

        monkeypatch.setattr(_Replay, "check", spied)
        program = compile_source(PRE_MIXED_SRC)
        profile = collect_profile(program, "main")
        report = abcd(
            program,
            config=ABCDConfig(certify=True, pre=True),
            pre=True,
            profile=profile,
        )
        assert report.certificates_rejected == 0
        pre = [id(replay) for replay, assume, _ in replays if assume]
        shared = [id(replay) for replay, assume, _ in replays if not assume]
        assert len(pre) == sum(1 for a in report.analyses if a.pre_applied) > 0
        assert len(set(shared)) < len(shared)  # the function reused a replay
        # Each PRE certificate gets a fresh replay with an empty cache.
        assert len(set(pre)) == len(pre)
        assert not set(shared) & set(pre)
        assert all(cached == 0 for _, assume, cached in replays if assume)


# ----------------------------------------------------------------------
# The revocation ladder (driver-level, against real analysis state).
# ----------------------------------------------------------------------

LOOP_SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""


def _analyzed_state(config):
    program = compile_source(LOOP_SRC)
    fn = program.functions["main"]
    state = abcd_module.analyze_checks(fn, program, config)
    records = {a.check_id: a for a in state.analyses}
    return program, fn, state, records


class TestRevocationLadder:
    def test_clean_state_certifies_fully(self):
        config = ABCDConfig(certify=True)
        _, fn, state, _ = _analyzed_state(config)
        assert len(state.to_remove) == 2
        verdicts = certify_state(fn, state, config)
        assert [v.status for v in verdicts] == ["accepted", "accepted"]
        assert len(state.to_remove) == 2

    def test_single_rejection_revokes_exactly_that_check(self, no_quarantine):
        config = ABCDConfig(certify=True)
        _, fn, state, records = _analyzed_state(config)
        victim = state.to_remove[0]
        record = records[victim.instr.check_id]
        record.witness = CycleWitness(victim.target)  # forged
        report = ABCDReport()
        verdicts = certify_state(fn, state, config, report)
        assert sorted(v.status for v in verdicts) == ["accepted", "rejected"]
        assert record.revoked and not record.eliminated
        assert victim not in state.to_remove
        assert len(state.to_remove) == 1
        assert report.quarantined_functions == []

    def test_repeated_rejections_quarantine_the_function(self, monkeypatch):
        monkeypatch.setattr(driver, "QUARANTINE_AFTER", 2)
        config = ABCDConfig(certify=True)
        _, fn, state, records = _analyzed_state(config)
        for site in state.to_remove:
            records[site.instr.check_id].witness = None
        report = ABCDReport()
        certify_state(fn, state, config, report)
        assert state.to_remove == []
        assert report.quarantined_functions == ["main"]
        assert all(r.revoked for r in records.values() if r.certificate)

    def test_strict_mode_escalates_to_error(self):
        config = ABCDConfig(certify=True, strict=True)
        _, fn, state, records = _analyzed_state(config)
        records[state.to_remove[0].instr.check_id].witness = None
        with pytest.raises(CertificateError, match="certificate rejected"):
            certify_state(fn, state, config)

    def test_revoked_check_stays_in_the_program(self, no_quarantine):
        # End-to-end through the pass pipeline: corrupt one witness, run
        # certify mode, and verify the revoked check still executes.
        from repro.core.solver import DemandProver as Prover

        real = Prover.demand_prove
        state = {"first": True}

        def corrupt_first(self, source, target, budget, direction=None):
            outcome = real(self, source, target, budget, direction=direction)
            if outcome.witness is not None and state["first"]:
                state["first"] = False
                outcome.witness = CycleWitness(target)
            return outcome

        program = compile_source(LOOP_SRC)
        Prover.demand_prove = corrupt_first
        try:
            report = abcd(
                program, config=ABCDConfig(certify=True)
            )
        finally:
            Prover.demand_prove = real
        assert report.certificates_rejected == 1
        assert report.revoked_count == 1
        survivors = [
            instr
            for fn in program.functions.values()
            for instr in fn.all_instructions()
            if isinstance(instr, (CheckLower, CheckUpper))
        ]
        assert len(survivors) == 1
        baseline = run(compile_source(LOOP_SRC), "main").value
        assert run(program, "main").value == baseline


# ----------------------------------------------------------------------
# PRE assumption certificates.
# ----------------------------------------------------------------------

PRE_SRC = """
fn kernel(a: int[], k: int, n: int): int {
  let s: int = 0;
  let r: int = 0;
  while (r < n) {
    s = s + a[k];
    r = r + 1;
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[8];
  return kernel(a, 3, 40);
}
"""


class TestPreCertificates:
    def test_pre_transformation_certifies(self):
        program = compile_source(PRE_SRC)
        profile = collect_profile(program, "main")
        report = abcd(
            program,
            config=ABCDConfig(certify=True, pre=True),
            pre=True,
            profile=profile,
        )
        pre_records = [a for a in report.analyses if a.pre_applied]
        assert pre_records, "scenario no longer triggers PRE"
        assert all(r.certificate == "accepted" for r in pre_records)
        assert report.certificates_rejected == 0
        baseline = run(compile_source(PRE_SRC), "main").value
        assert run(program, "main").value == baseline


# ----------------------------------------------------------------------
# Determinism and corpus-wide certification.
# ----------------------------------------------------------------------


def _certified_json(source: str) -> str:
    session = CompilationSession(config=ABCDConfig(certify=True))
    program = session.compile(source)
    report = session.optimize(program)
    return json.dumps(certificates_to_json(report), sort_keys=True)


class TestDeterminism:
    def test_two_fresh_sessions_serialize_identically(self):
        source = CORPUS[0].source()
        assert _certified_json(source) == _certified_json(source)

    def test_witness_json_is_plain_data(self):
        graph = _reduced_loop_graph(step=-1)
        payload = witness_to_json(_prove_with_witness(graph, A, I, -1).witness)
        assert payload["node"] == "phi"
        json.dumps(payload)  # must be JSON-serializable as-is


#: Source thunks certified end to end: the 15 corpus programs, four
#: default-profile generated programs and one 60-deep generated π/copy
#: chain.
CERTIFIED_SOURCES = (
    [pytest.param(bench.source, id=bench.name) for bench in CORPUS]
    + [
        pytest.param(partial(generate_source, seed), id=f"generated-{seed}")
        for seed in (1, 5, 9, 13)
    ]
    + [
        pytest.param(
            partial(
                generate_source,
                3,
                GeneratorConfig(profile="deep-chain", chain_depth=60),
            ),
            id="deep-chain-60",
        )
    ]
)


@pytest.mark.parametrize("source", CERTIFIED_SOURCES)
def test_corpus_certifies_without_rejection(source):
    session = CompilationSession(config=ABCDConfig(certify=True))
    program = session.compile(source())
    report = session.optimize(program)
    assert report.certificates_rejected == 0
    assert report.revoked_count == 0
    assert report.quarantined_functions == []
    # Every elimination carried a certificate and every one was accepted.
    assert report.certificates_accepted == report.eliminated_count()
    assert report.certificates_accepted > 0  # the input exercised the checker


def _nested_guard_chain(k: int) -> str:
    """``k`` upper checks at guard depths 1..k against one array, plus
    their ``k`` lower-bound twins: check ``d``'s proof walks a
    length-``d`` inequality chain, and check ``d + 1``'s proof extends
    check ``d``'s by one link."""
    lines = [
        "fn deep(a: int[], i0: int): int {",
        "  let s: int = 0;",
        "  if (i0 >= 0) { if (i0 < len(a)) {",
    ]
    indent = "    "
    for d in range(1, k + 1):
        lines.append(f"{indent}let i{d}: int = i{d - 1} - 1;")
        lines.append(f"{indent}if (i{d} >= 0) {{")
        lines.append(f"{indent}  s = s + a[i{d}];")
        indent += "  "
    lines.append(indent + "s = s + 0;")
    for _ in range(k):
        indent = indent[:-2]
        lines.append(indent + "}")
    lines += ["  } }", "  return s;", "}"]
    lines.append("fn main(): int { let a: int[] = new int[64]; return deep(a, 10); }")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("k", (8, 16, 32))
def test_nested_guard_chain_certifies_in_linear_work(k, monkeypatch):
    dispatches = [0]
    for name in ("_axiom", "_cycle", "_assumption", "_edge", "_phi"):

        def counted(self, *args, _real=getattr(_Replay, name)):
            dispatches[0] += 1
            return _real(self, *args)

        monkeypatch.setattr(_Replay, name, counted)
    steps = {}
    for certify in (False, True):
        session = CompilationSession(config=ABCDConfig(certify=certify))
        report = session.optimize(session.compile(_nested_guard_chain(k)))
        counters = report.session_stats.counters
        steps[certify] = counters["solver.steps.upper"] + counters["solver.steps.lower"]
        assert report.analyzed == report.eliminated_count() == 2 * k
    assert report.certificates_accepted == 2 * k
    # Certify mode shares the plain session, so witnesses cost no extra
    # solver steps, and the function's one replay per (kind, source)
    # verifies each chain link once.  Per-query sessions and replays
    # took 5k^2 + 10k steps and 2k^2 + 6k dispatches.
    assert steps[True] == steps[False] == 14 * k + 1
    assert dispatches[0] == 6 * k + 2
