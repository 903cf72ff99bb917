"""Fail-safe layer tests: pass guards, solver budgets, the differential
soundness gate, and the shared recursion-headroom helper."""

import sys

import pytest

import repro.core.solver as solver_module
from repro.core.abcd import ABCDConfig, PassFailure
from repro.core.graph import InequalityGraph, len_node, var_node
from repro.core.lattice import ProofResult
from repro.core.solver import DemandProver
from repro.errors import (
    BoundsCheckError,
    IRVerificationError,
    PassGuardError,
    SoundnessGateError,
)
from repro.ir.verifier import verify_function
from repro.limits import recursion_headroom
from repro.passes import (
    AnalysisManager,
    FixpointGroup,
    Pass,
    PassContext,
    PassManager,
    SessionStats,
)
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.robustness.differential import (
    assert_equivalent,
    compare_programs,
    execute_outcome,
    gated_optimize,
)
from repro.robustness.guard import PassGuard

LOOP_SRC = """
fn main(): int {
  let a: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  return s;
}
"""

TRAP_SRC = """
fn main(): int {
  let a: int[] = new int[4];
  let i: int = 0;
  let s: int = 0;
  while (i <= len(a)) {
    a[i] = i;
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
"""


def _chain_graph(length):
    """A -> x0 -> x1 -> ... each step weight 0, so the full chain is
    provable at budget 0 but needs one recursion level per link."""
    graph = InequalityGraph()
    nodes = [var_node(f"x{i}") for i in range(length)]
    graph.add_edge(len_node("A"), nodes[0], 0)
    for left, right in zip(nodes, nodes[1:]):
        graph.add_edge(left, right, 0)
    return graph, nodes[-1]


class TestSolverBudgets:
    def test_unbudgeted_chain_proves(self):
        graph, target = _chain_graph(10)
        prover = DemandProver(graph)
        outcome = prover.demand_prove(len_node("A"), target, 0)
        assert outcome.result.proven
        assert not outcome.budget_exhausted

    def test_step_budget_exhaustion_is_conservative_false(self):
        graph, target = _chain_graph(10)
        prover = DemandProver(graph, max_steps=3)
        outcome = prover.demand_prove(len_node("A"), target, 0)
        assert outcome.result is ProofResult.FALSE
        assert outcome.budget_exhausted
        assert prover.exhausted_budget == "steps"

    def test_depth_budget_exhaustion(self):
        graph, target = _chain_graph(10)
        prover = DemandProver(graph, max_depth=2)
        outcome = prover.demand_prove(len_node("A"), target, 0)
        assert outcome.result is ProofResult.FALSE
        assert prover.exhausted_budget == "depth"

    def test_generous_depth_budget_still_proves(self):
        graph, target = _chain_graph(10)
        prover = DemandProver(graph, max_depth=50)
        assert prover.demand_prove(len_node("A"), target, 0).result.proven

    def test_deadline_exhaustion(self, monkeypatch):
        monkeypatch.setattr(solver_module, "_DEADLINE_STRIDE", 1)
        graph, target = _chain_graph(10)
        prover = DemandProver(graph, deadline=1e-9)
        outcome = prover.demand_prove(len_node("A"), target, 0)
        assert outcome.result is ProofResult.FALSE
        assert prover.exhausted_budget == "deadline"

    def test_abcd_with_tiny_budget_terminates_and_keeps_checks(self):
        # The acceptance criterion: with an artificially low budget ABCD
        # still terminates, keeps every unproven check, reports the
        # exhaustion, and the program behaves identically.
        program = compile_source(LOOP_SRC)
        baseline = clone_program(program)
        report = abcd(program, ABCDConfig(max_steps=1))
        assert report.eliminated_count() == 0
        assert report.budget_exhausted_count == report.analyzed > 0
        assert all(a.budget_exhausted for a in report.analyses)
        result = compare_programs(baseline, program)
        assert result.matched, result.explain()
        assert run(program, "main").stats.total_checks == 32

    def test_default_budget_does_not_change_results(self):
        program = compile_source(LOOP_SRC)
        report = abcd(program)
        assert report.eliminated_count() == report.analyzed == 4
        assert report.budget_exhausted_count == 0

    def test_budget_threading_from_config(self):
        program = compile_source(LOOP_SRC)
        report = abcd(program, ABCDConfig(max_depth=0))
        assert report.budget_exhausted_count > 0


class _StubPass(Pass):
    """A pass whose body is the test's callable, sandboxed by the
    manager's default snapshot → run → verify protocol."""

    def __init__(self, name, action, scope="function"):
        self.name = name
        self.scope = scope
        self._action = action

    def run(self, fn, ctx):
        return self._action()


def _manager(program, strict=False):
    analysis = AnalysisManager()
    return PassManager(
        PassContext(
            program=program,
            analysis=analysis,
            guard=PassGuard(strict=strict),
            stats=SessionStats(analysis),
        )
    )


class TestPassGuard:
    """The pass manager's sandbox, with the guard as its failure sink."""

    def test_successful_pass_keeps_result(self):
        program = compile_source(LOOP_SRC)
        fn = program.function("main")
        manager = _manager(program)
        result = manager.run_function_pass(_StubPass("noop", lambda: 42), fn)
        assert result == 42
        assert manager.ctx.guard.rollback_count == 0

    def test_raising_pass_rolls_back(self):
        program = compile_source(LOOP_SRC)
        fn = program.function("main")
        before = len(fn.blocks[fn.entry].body)

        def bad_pass():
            fn.blocks[fn.entry].body.clear()
            raise RuntimeError("pass exploded")

        manager = _manager(program)
        assert manager.run_function_pass(_StubPass("bad", bad_pass), fn) is None
        assert len(fn.blocks[fn.entry].body) == before
        (failure,) = manager.ctx.guard.failures
        assert failure.pass_name == "bad"
        assert failure.stage == "exception"
        assert failure.error_type == "RuntimeError"

    def test_malformed_ir_rolls_back(self):
        program = compile_source(LOOP_SRC)
        fn = program.function("main")

        def corrupting_pass():
            fn.blocks[fn.entry].terminator = None  # verifier must catch

        manager = _manager(program)
        corrupt = _StubPass("corrupt", corrupting_pass)
        assert manager.run_function_pass(corrupt, fn) is None
        assert fn.blocks[fn.entry].terminator is not None
        (failure,) = manager.ctx.guard.failures
        assert failure.stage == "verify"

    def test_rollback_preserves_identity(self):
        # Rollback must restore in place: outstanding references (the
        # program's function table) keep seeing the same object.
        program = compile_source(LOOP_SRC)
        fn = program.function("main")

        def bad_pass():
            raise ValueError("no")

        _manager(program).run_function_pass(_StubPass("bad", bad_pass), fn)
        assert program.function("main") is fn

    def test_strict_mode_escalates(self):
        program = compile_source(LOOP_SRC)
        fn = program.function("main")
        manager = _manager(program, strict=True)
        with pytest.raises(PassGuardError, match="boom"):
            manager.run_function_pass(
                _StubPass(
                    "bad", lambda: (_ for _ in ()).throw(RuntimeError("boom"))
                ),
                fn,
            )
        # Even on escalation the function was restored first.
        verify_function(fn)

    def test_program_pass_rollback(self):
        program = compile_source(LOOP_SRC)

        def nuke():
            program.functions.clear()
            raise RuntimeError("gone")

        manager = _manager(program)
        nuke_pass = _StubPass("nuke", nuke, scope="program")
        assert manager.run_program_pass(nuke_pass) is None
        assert "main" in program.functions
        assert manager.ctx.guard.failures[0].function == "<program>"

    def test_fixpoint_group_contains_member_failure(self):
        program = compile_source(LOOP_SRC, standard_opts=False)
        fn = program.function("main")
        before = len(fn.blocks[fn.entry].body)

        def clearing_copy_prop():
            fn.blocks[fn.entry].body.clear()
            return 1

        def bad_fold():
            raise RuntimeError("folding bug")

        group = FixpointGroup(
            "standard-pipeline",
            [
                _StubPass("copy-propagation", clearing_copy_prop),
                _StubPass("constant-folding", bad_fold),
                _StubPass("dce", lambda: 0),
            ],
        )
        manager = _manager(program)
        manager.run_group(group, fn)
        guard = manager.ctx.guard
        assert guard.rollback_count == 1
        assert guard.failures[0].pass_name == "constant-folding"
        # The whole round rolled back, including the member that succeeded.
        assert len(fn.blocks[fn.entry].body) == before
        verify_function(fn)

    def test_abcd_survives_analysis_crash(self, monkeypatch):
        import repro.core.abcd as abcd_module

        def exploding(fn):
            raise RuntimeError("graph bug")

        monkeypatch.setattr(abcd_module, "build_graphs", exploding)
        program = compile_source(LOOP_SRC)
        report = abcd(program, ABCDConfig())
        assert report.rollback_count == 1
        assert report.rollbacks_by_pass() == {"abcd": 1}
        assert run(program, "main").value == 28

    def test_report_merge_carries_failures(self):
        from repro.core.abcd import ABCDReport

        first = ABCDReport()
        first.pass_failures.append(
            PassFailure("abcd", "f", "exception", "RuntimeError", "x")
        )
        second = ABCDReport()
        second.merge(first)
        assert second.rollback_count == 1


class TestDifferentialGate:
    def test_execute_outcome_captures_trap(self):
        program = compile_source(TRAP_SRC)
        outcome = execute_outcome(program)
        assert outcome.trap == "BoundsCheckError"
        assert outcome.index == 4 and outcome.length == 4

    def test_equivalent_programs_match(self):
        program = compile_source(LOOP_SRC)
        optimized = clone_program(program)
        abcd(optimized)
        result = compare_programs(program, optimized)
        assert result.matched
        assert_equivalent(program, optimized)

    def test_divergence_detected_and_explained(self):
        program = compile_source(LOOP_SRC)
        # Sabotage a clone: change the returned constant.
        from repro.ir.instructions import Const, Return

        broken = clone_program(program)
        for block in broken.function("main").blocks.values():
            if isinstance(block.terminator, Return):
                block.terminator.value = Const(999)
        result = compare_programs(program, broken)
        assert not result.matched
        assert "DIVERGED" in result.explain()
        assert "999" in result.explain()

    def test_gated_optimize_commits_sound_result(self):
        program = compile_source(LOOP_SRC)
        gated = gated_optimize(program)
        assert gated.sound and not gated.reverted
        assert run(program, "main").stats.total_checks == 0

    def test_gated_optimize_reverts_unsound_result(self, monkeypatch):
        # An optimizer that deletes every check produces well-formed but
        # unsound IR; the gate must refuse to commit it.
        import repro.core.abcd as abcd_module
        from repro.core.lattice import ProofResult
        from repro.core.solver import ProveOutcome

        class AlwaysTrue:
            def __init__(self, graph, edge_filter=None, **kwargs):
                self.steps = 1
                self.budget_exhausted = False

            def demand_prove(self, source, target, budget, direction=None):
                return ProveOutcome(ProofResult.TRUE, self.steps)

        monkeypatch.setattr(abcd_module, "DemandProver", AlwaysTrue)
        program = compile_source(TRAP_SRC)
        gated = gated_optimize(program)
        assert gated.reverted
        assert any(
            f.pass_name == "differential-gate" for f in gated.report.pass_failures
        )
        # The published program still traps exactly like the original.
        with pytest.raises(BoundsCheckError):
            run(program, "main")

    def test_gated_optimize_strict_raises(self, monkeypatch):
        import repro.core.abcd as abcd_module
        from repro.core.lattice import ProofResult
        from repro.core.solver import ProveOutcome

        class AlwaysTrue:
            def __init__(self, graph, edge_filter=None, **kwargs):
                self.steps = 1
                self.budget_exhausted = False

            def demand_prove(self, source, target, budget, direction=None):
                return ProveOutcome(ProofResult.TRUE, self.steps)

        monkeypatch.setattr(abcd_module, "DemandProver", AlwaysTrue)
        program = compile_source(TRAP_SRC)
        with pytest.raises(SoundnessGateError):
            gated_optimize(program, strict=True)


class TestRecursionHeadroom:
    def test_restores_limit(self):
        before = sys.getrecursionlimit()
        with recursion_headroom(before + 5000):
            assert sys.getrecursionlimit() == before + 5000
        assert sys.getrecursionlimit() == before

    def test_never_lowers_limit(self):
        before = sys.getrecursionlimit()
        with recursion_headroom(10):
            assert sys.getrecursionlimit() == before
        assert sys.getrecursionlimit() == before

    def test_restores_on_exception(self):
        before = sys.getrecursionlimit()
        with pytest.raises(RuntimeError):
            with recursion_headroom(before + 1000):
                raise RuntimeError("boom")
        assert sys.getrecursionlimit() == before

    def test_ssa_construction_does_not_leak_limit(self):
        before = sys.getrecursionlimit()
        compile_source(LOOP_SRC)
        assert sys.getrecursionlimit() == before
