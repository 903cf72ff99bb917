"""e-SSA construction tests: φ placement, renaming and π placement."""

import pytest

from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.instructions import Phi, Pi, Return, Var
from repro.ir.lowering import lower_program
from repro.ir.verifier import verify_function, verify_program
from repro.runtime.interpreter import run_program
from repro.ssa.essa import base_name, construct_essa, pi_assignments


def lower(source: str):
    ast = parse_source(source)
    info = check_program(ast)
    return lower_program(ast, info)


LOOP_SRC = """
fn main(): int {
  let total: int = 0;
  let i: int = 0;
  while (i < 10) {
    total = total + i;
    i = i + 1;
  }
  return total;
}
"""

DIAMOND_SRC = """
fn main(): int {
  let x: int = 0;
  let c: int = 7;
  if (c > 3) {
    x = 1;
  } else {
    x = 2;
  }
  return x;
}
"""


class TestBaseName:
    def test_strips_version(self):
        assert base_name("st.2") == "st"

    def test_no_version_unchanged(self):
        assert base_name("limit") == "limit"

    def test_temp_names(self):
        assert base_name("%t3.11") == "%t3"

    def test_dotted_but_nonnumeric_suffix(self):
        assert base_name("weird.name") == "weird.name"


class TestSSAConstruction:
    def test_loop_variable_gets_phi(self):
        program = lower(LOOP_SRC)
        fn = program.function("main")
        construct_essa(fn)
        verify_function(fn)
        phis = [i for i in fn.all_instructions() if isinstance(i, Phi)]
        merged = {base_name(p.dest) for p in phis}
        assert "i" in merged and "total" in merged

    def test_diamond_merge_gets_phi(self):
        fn = lower(DIAMOND_SRC).function("main")
        construct_essa(fn)
        verify_function(fn)
        phis = [i for i in fn.all_instructions() if isinstance(i, Phi)]
        assert any(base_name(p.dest) == "x" for p in phis)

    def test_single_assignment_property(self):
        fn = lower(LOOP_SRC).function("main")
        construct_essa(fn)
        defs = [i.defs() for i in fn.all_instructions() if i.defs()]
        assert len(defs) == len(set(defs))

    def test_params_renamed(self):
        program = lower("fn f(a: int): int { return a + 1; }")
        fn = program.function("f")
        construct_essa(fn)
        assert fn.params == ["a.0"]

    def test_pruned_no_dead_phis(self):
        # x is dead after the if, so no φ for it should be placed.
        src = """
fn main(): int {
  let c: int = 1;
  if (c > 0) {
    let x: int = 1;
    c = c + x;
  }
  return c;
}
"""
        fn = lower(src).function("main")
        construct_essa(fn)
        phis = [i for i in fn.all_instructions() if isinstance(i, Phi)]
        assert all(base_name(p.dest) != "x" for p in phis)

    def test_execution_preserved(self):
        program = lower(LOOP_SRC)
        expected = run_program(program, "main").value
        for fn in program.functions.values():
            construct_essa(fn)
        assert run_program(program, "main").value == expected
        assert expected == 45

    def test_loop_exit_reads_header_definition(self):
        # ``!`` swaps the branch targets, so the exit is renamed after the
        # loop body, once the header is sealed: it must still read the
        # header's last definition of ``i`` (the C5 π), not its φ.
        src = """
fn f(a: int[], i: int): int {
  while (!(a[i] > 0)) {
    i = i + 1;
  }
  return i;
}
"""
        fn = lower(src).function("f")
        construct_essa(fn)
        verify_function(fn)
        ret = next(
            b.terminator for b in fn.blocks.values() if isinstance(b.terminator, Return)
        )
        pi = pi_assignments(fn)[ret.value.name]
        assert pi.predicate.arraylen_of is not None

    def test_double_construction_rejected(self):
        fn = lower(LOOP_SRC).function("main")
        construct_essa(fn)
        with pytest.raises(ValueError):
            construct_essa(fn)

    def test_phi_incomings_cover_predecessors(self):
        fn = lower(LOOP_SRC).function("main")
        construct_essa(fn)
        preds = fn.predecessors()
        for label, block in fn.blocks.items():
            for phi in block.phis:
                assert set(phi.incomings) == set(preds[label])


class TestPiInsertion:
    def test_pi_after_checks(self):
        src = "fn f(a: int[], i: int): int { return a[i]; }"
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = [i for i in fn.all_instructions() if isinstance(i, Pi)]
        rels = {p.predicate.rel for p in pis}
        assert "ge" in rels  # from checklower
        assert "lt" in rels  # from checkupper
        arraylen_pis = [p for p in pis if p.predicate.arraylen_of is not None]
        assert len(arraylen_pis) == 1

    def test_pi_on_both_branch_edges(self):
        src = """
fn f(x: int, y: int): int {
  if (x < y) {
    return 1;
  }
  return 0;
}
"""
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = [i for i in fn.all_instructions() if isinstance(i, Pi)]
        rels = sorted(p.predicate.rel for p in pis)
        # true edge: x lt y, y gt x; false edge: x ge y, y le x.
        assert rels == ["ge", "gt", "le", "lt"]

    def test_no_pi_for_constant_operand(self):
        src = """
fn f(x: int): int {
  if (x < 10) {
    return 1;
  }
  return 0;
}
"""
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = [i for i in fn.all_instructions() if isinstance(i, Pi)]
        # Only x gets πs (on both edges), the constant does not.
        assert len(pis) == 2
        assert all(base_name(p.src) == "x" for p in pis)

    def test_ne_comparison_gets_pi_only_on_false_edge(self):
        src = """
fn f(x: int, y: int): int {
  if (x != y) {
    return 1;
  }
  return 0;
}
"""
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = [i for i in fn.all_instructions() if isinstance(i, Pi)]
        # != carries no constraint on the true edge; == on the false edge.
        assert {p.predicate.rel for p in pis} == {"eq"}


class TestESSA:
    def test_essa_form_flag(self):
        fn = lower(LOOP_SRC).function("main")
        construct_essa(fn)
        assert fn.ssa_form == "essa"
        verify_function(fn)

    def test_pi_assignments_helper(self):
        src = "fn f(a: int[], i: int): int { return a[i]; }"
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = pi_assignments(fn)
        assert len(pis) >= 2
        assert all(name == pi.dest for name, pi in pis.items())

    def test_uses_after_check_flow_through_pi(self):
        # The load's index must be the π'd name, not the raw one
        # ("the constraint C5 must be expressed on the new name").
        src = "fn f(a: int[], i: int): int { return a[i]; }"
        fn = lower(src).function("f")
        construct_essa(fn)
        from repro.ir.instructions import ArrayLoad, CheckUpper

        load = next(i for i in fn.all_instructions() if isinstance(i, ArrayLoad))
        check = next(i for i in fn.all_instructions() if isinstance(i, CheckUpper))
        assert isinstance(load.index, Var) and isinstance(check.index, Var)
        assert load.index.name != check.index.name
        pis = pi_assignments(fn)
        assert load.index.name in pis

    def test_execution_preserved(self, bubble_source):
        program = lower(bubble_source)
        expected = run_program(program, "main").value
        for fn in program.functions.values():
            construct_essa(fn)
        verify_program(program)
        assert run_program(program, "main").value == expected

    def test_branch_pi_predicates_reference_each_other_or_originals(self):
        src = """
fn f(x: int, y: int): int {
  if (x < y) {
    return x;
  }
  return y;
}
"""
        fn = lower(src).function("f")
        construct_essa(fn)
        pis = pi_assignments(fn)
        for pi in pis.values():
            if pi.predicate.other is not None and isinstance(pi.predicate.other, Var):
                # Predicate operands must be defined names.
                defined = {i.defs() for i in fn.all_instructions()} | set(fn.params)
                assert pi.predicate.other.name in defined
