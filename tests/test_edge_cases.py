"""Edge-case sweep across the pipeline: degenerate programs, boundary
budgets, zero-length arrays, empty hot sets, and configuration corners."""

import pytest

from repro.core.abcd import ABCDConfig
from repro.core.graph import InequalityGraph, const_node, len_node, var_node
from repro.core.lattice import ProofResult
from repro.core.solver import DemandProver, demand_prove
from repro.errors import BoundsCheckError
from repro.pipeline import abcd, clone_program, compile_source, run
from tests.conftest import compile_and_run, optimize_and_compare


class TestDegenerateSources:
    def test_empty_void_function(self):
        result = compile_and_run("fn noop(): void { } fn main(): int { noop(); return 1; }")
        assert result.value == 1

    def test_while_false_never_runs(self):
        src = """
fn main(): int {
  let a: int[] = new int[4];
  let i: int = 99;
  while (false) {
    a[i] = 1;
  }
  return 7;
}
"""
        # Constant folding removes the loop entirely; behaviour intact.
        base, opt, report, _ = optimize_and_compare(src)
        assert opt.value == 7

    def test_for_without_condition_break(self):
        src = """
fn main(): int {
  let n: int = 0;
  for (;;) {
    n = n + 1;
    if (n >= 5) { break; }
  }
  return n;
}
"""
        assert compile_and_run(src).value == 5

    def test_deeply_nested_ifs(self):
        depth = 20
        opening = " ".join(f"if (x > {i}) {{" for i in range(depth))
        closing = "}" * depth
        src = f"""
fn main(): int {{
  let x: int = {depth};
  let hits: int = 0;
  {opening}
  hits = hits + 1;
  {closing}
  return hits;
}}
"""
        assert compile_and_run(src).value == 1

    def test_zero_length_array_loop(self):
        src = """
fn main(): int {
  let a: int[] = new int[0];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
        base, opt, report, program = optimize_and_compare(src)
        # Loop body unreachable dynamically; checks still statically
        # provable (i < len(a) bounds i even when len is 0).
        assert opt.value == 0
        assert opt.stats.total_checks == 0

    def test_single_element_boundary(self):
        src = """
fn main(): int {
  let a: int[] = new int[1];
  a[len(a) - 1] = 42;
  return a[0];
}
"""
        base, opt, _, _ = optimize_and_compare(src)
        assert opt.value == 42

    def test_last_element_guarded_pattern(self):
        # `a[len(a) - 1]` under `if (len(a) > 0)`: the body re-computes
        # len(a) into a fresh temp, so the branch constraint lives on a
        # *different* variable — plain Table-1 ABCD cannot transfer it
        # (the lower check fails), while the Section-7.1 GVN congruence
        # edges bridge the two arraylen temps and prove everything.
        src = """
fn last(a: int[]): int {
  if (len(a) > 0) {
    return a[len(a) - 1];
  }
  return 0 - 1;
}
fn main(): int {
  let a: int[] = new int[5];
  a[4] = 99;
  let empty: int[] = new int[0];
  return last(a) + last(empty);
}
"""
        base, opt, report, program = optimize_and_compare(
            src, config=ABCDConfig(gvn_mode="augment")
        )
        assert opt.value == 98
        from repro.ir.instructions import CheckLower, CheckUpper

        last_fn = program.function("last")
        assert not any(
            isinstance(i, (CheckLower, CheckUpper))
            for i in last_fn.all_instructions()
        )
        # And the documented limitation of the plain configuration:
        _, _, plain_report, _ = optimize_and_compare(
            src, config=ABCDConfig(gvn_mode="consult")
        )
        plain_failures = [
            a
            for a in plain_report.analyses
            if a.function == "last" and not a.eliminated
        ]
        assert plain_failures

    def test_arrays_via_call_results(self):
        src = """
fn make(n: int): int[] {
  let a: int[] = new int[n];
  for (let i: int = 0; i < n; i = i + 1) {
    a[i] = i;
  }
  return a;
}
fn main(): int {
  let a: int[] = make(6);
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
        base, opt, _, _ = optimize_and_compare(src)
        assert opt.value == 15
        assert opt.stats.total_checks == 0


class TestSolverBoundaries:
    def test_budget_exactly_at_edge_weight(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("A"), var_node("x"), -1)
        assert demand_prove(graph, len_node("A"), var_node("x"), -1).proven
        assert not demand_prove(graph, len_node("A"), var_node("x"), -2).proven

    def test_huge_budget_trivially_proven_via_source(self):
        graph = InequalityGraph()
        graph.add_edge(len_node("A"), var_node("x"), 5)
        assert demand_prove(graph, len_node("A"), var_node("x"), 1_000_000).proven

    def test_source_self_negative_budget_via_cycle(self):
        # a == target with c < 0 keeps exploring a's in-edges.
        graph = InequalityGraph()
        phi = var_node("p")
        graph.mark_phi(phi)
        graph.add_edge(len_node("A"), phi, -3)
        graph.add_edge(phi, len_node("A"), 0)
        outcome = demand_prove(graph, len_node("A"), len_node("A"), -2)
        assert outcome.proven  # len(A) <= phi <= len(A) - 3

    def test_memo_reduced_subsumption(self):
        graph = InequalityGraph()
        phi = var_node("p")
        back = var_node("b")
        graph.mark_phi(phi)
        graph.add_edge(var_node("init"), phi, 0)
        graph.add_edge(back, phi, 0)
        graph.add_edge(phi, back, 0)
        graph.add_edge(len_node("A"), var_node("init"), -2)
        prover = DemandProver(graph)
        first = prover.demand_prove(len_node("A"), phi, -2)
        assert first.result is ProofResult.REDUCED
        steps = prover.steps
        second = prover.demand_prove(len_node("A"), phi, -1)
        assert second.proven
        assert prover.steps == steps + 1  # answered from the memo

    def test_fuel_exhaustion_is_conservative(self):
        graph = InequalityGraph()
        previous = len_node("A")
        for i in range(50):
            node = var_node(f"x{i}")
            graph.add_edge(previous, node, 0)
            previous = node
        prover = DemandProver(graph, max_steps=5)
        outcome = prover.demand_prove(len_node("A"), previous, 0)
        assert not outcome.proven  # ran out of fuel, fails safely


class TestConfigurationCorners:
    SRC = """
fn main(): int {
  let a: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""

    def test_empty_hot_set_analyzes_nothing(self):
        program = compile_source(self.SRC)
        report = abcd(program, ABCDConfig(hot_checks=set()))
        assert report.analyzed == 0
        assert run(program, "main").stats.total_checks > 0

    def test_both_kinds_disabled(self):
        program = compile_source(self.SRC)
        report = abcd(program, ABCDConfig(upper=False, lower=False))
        assert report.analyzed == 0

    def test_verify_flag_off(self):
        program = compile_source(self.SRC, verify=False)
        report = abcd(program, verify=False)
        assert report.eliminated_count() == report.analyzed

    def test_config_is_not_mutated_across_functions(self):
        import dataclasses

        config = ABCDConfig()
        snapshot = dataclasses.asdict(config)
        program = compile_source(self.SRC)
        abcd(program, config)
        assert dataclasses.asdict(config) == snapshot


class TestRuntimeCorners:
    def test_void_entry_returns_none(self):
        program = compile_source(
            "fn main(): void { let x: int = 1; } fn other(): int { return 2; }"
        )
        assert run(program, "main").value is None

    def test_failing_check_id_stable_across_clone(self):
        src = """
fn main(): int {
  let a: int[] = new int[2];
  let i: int = 9;
  return a[i];
}
"""
        program = compile_source(src)
        twin = clone_program(program)
        with pytest.raises(BoundsCheckError) as first:
            run(program, "main")
        with pytest.raises(BoundsCheckError) as second:
            run(twin, "main")
        assert first.value.check_id == second.value.check_id

    def test_large_integer_arithmetic(self):
        src = """
fn main(): int {
  let x: int = 1000000007;
  return x * x % 1000000009;
}
"""
        assert compile_and_run(src).value == (1000000007 * 1000000007) % 1000000009

    def test_interpreter_detects_unsound_removal(self):
        # Manually delete a needed check and confirm the VM's tripwire.
        from repro.errors import MiniJRuntimeError
        from repro.ir.instructions import CheckLower, CheckUpper

        src = """
fn main(): int {
  let a: int[] = new int[2];
  let i: int = 5;
  return a[i];
}
"""
        program = compile_source(src)
        for fn in program.functions.values():
            for block in fn.blocks.values():
                block.body = [
                    i
                    for i in block.body
                    if not isinstance(i, (CheckLower, CheckUpper))
                ]
        with pytest.raises(MiniJRuntimeError, match="UNSOUND"):
            run(program, "main")


class TestHarnessSmoke:
    def test_format_figure6_output(self):
        from repro.bench.corpus import get
        from repro.bench.harness import format_figure6, run_benchmark

        result = run_benchmark(get("Sieve"), pre=False)
        table = format_figure6([result])
        assert "Sieve" in table
        assert "MEAN" in table

    def test_measure_program_on_custom_source(self):
        from repro.bench.harness import measure_program

        program = compile_source(self.COUNTING)
        result = measure_program(program, name="custom", pre=False)
        assert result.behaviour_preserved
        assert result.dynamic_upper_removed_fraction == 1.0

    COUNTING = """
fn main(): int {
  let a: int[] = new int[4];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
