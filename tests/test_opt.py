"""Standard optimization pass tests (copy prop, const fold, DCE, GVN)."""

import pytest

from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.instructions import (
    BinOp,
    Branch,
    Cmp,
    Const,
    Copy,
    Phi,
    Pi,
    Var,
)
from repro.ir.lowering import lower_program
from repro.ir.verifier import verify_function
from repro.opt import (
    eliminate_dead_code,
    fold_constants,
    propagate_copies,
    run_standard_pipeline,
    value_number,
)
from repro.runtime.interpreter import run_program
from repro.ssa.essa import base_name, construct_essa


def ssa_fn(source: str, name: str = "f"):
    ast = parse_source(source)
    info = check_program(ast)
    program = lower_program(ast, info)
    fn = program.function(name)
    construct_essa(fn)
    return program, fn


class TestCopyPropagation:
    def test_chain_collapsed(self):
        src = """
fn f(x: int): int {
  let a: int = x;
  let b: int = a;
  let c: int = b;
  return c + 1;
}
"""
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        binop = next(i for i in fn.all_instructions() if isinstance(i, BinOp))
        assert binop.lhs == Var(fn.params[0])

    def test_constant_source_propagated(self):
        src = "fn f(): int { let a: int = 5; return a + 1; }"
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        binop = next(i for i in fn.all_instructions() if isinstance(i, BinOp))
        assert binop.lhs == Const(5)

    def test_pi_not_propagated_through(self):
        src = "fn f(a: int[], i: int): int { return a[i]; }"
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        # π destinations must survive as the load's index.
        from repro.ir.instructions import ArrayLoad

        load = next(i for i in fn.all_instructions() if isinstance(i, ArrayLoad))
        pis = {i.dest for i in fn.all_instructions() if isinstance(i, Pi)}
        assert load.index.name in pis

    def test_requires_ssa(self):
        ast = parse_source("fn f(): void { }")
        info = check_program(ast)
        program = lower_program(ast, info)
        with pytest.raises(ValueError):
            propagate_copies(program.function("f"))

    def test_behaviour_preserved(self):
        src = """
fn main(): int {
  let a: int = 3;
  let b: int = a;
  let c: int = b + a;
  return c * 2;
}
"""
        program, fn = ssa_fn(src, "main")
        before = run_program(program, "main").value
        propagate_copies(fn)
        eliminate_dead_code(fn)
        verify_function(fn)
        assert run_program(program, "main").value == before == 12


class TestConstantFolding:
    def test_arith_folded(self):
        src = "fn f(): int { return 2 + 3; }"
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        fold_constants(fn)
        assert not any(isinstance(i, BinOp) for i in fn.all_instructions())

    def test_division_by_zero_not_folded(self):
        src = "fn f(): int { let z: int = 0; return 1 / z; }"
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        fold_constants(fn)
        # The division must survive to raise at run time.
        assert any(
            isinstance(i, BinOp) and i.op == "div" for i in fn.all_instructions()
        )

    def test_add_zero_identity(self):
        src = "fn f(x: int): int { return x + 0; }"
        program, fn = ssa_fn(src)
        fold_constants(fn)
        assert not any(isinstance(i, BinOp) for i in fn.all_instructions())

    def test_comparison_folded(self):
        src = "fn f(): int { if (1 < 2) { return 1; } return 0; }"
        program, fn = ssa_fn(src)
        # Folding the comparison yields a constant copy; a second
        # propagate+fold round then folds the branch itself.
        run_standard_pipeline(fn)
        # The branch is now unconditional; only one return is reachable.
        assert not any(isinstance(i, Cmp) for i in fn.all_instructions())
        assert not any(
            isinstance(b.terminator, Branch) for b in fn.blocks.values()
        )

    def test_branch_folding_prunes_phi(self):
        src = """
fn f(): int {
  let x: int = 0;
  if (true) {
    x = 1;
  } else {
    x = 2;
  }
  return x;
}
"""
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        fold_constants(fn)
        verify_function(fn)
        assert run_program(program, "f").value == 1

    def test_mod_folded(self):
        src = "fn f(): int { return 17 % 5; }"
        program, fn = ssa_fn(src)
        propagate_copies(fn)
        fold_constants(fn)
        assert run_program(program, "f").value == 2


class TestDCE:
    def test_dead_copy_removed(self):
        src = """
fn f(x: int): int {
  let unused: int = x + 42;
  return x;
}
"""
        program, fn = ssa_fn(src)
        removed = eliminate_dead_code(fn)
        assert removed >= 1
        assert not any(isinstance(i, BinOp) for i in fn.all_instructions())

    def test_chain_of_dead_code_removed(self):
        src = """
fn f(x: int): int {
  let a: int = x + 1;
  let b: int = a + 1;
  let c: int = b + 1;
  return x;
}
"""
        program, fn = ssa_fn(src)
        eliminate_dead_code(fn)
        assert not any(isinstance(i, BinOp) for i in fn.all_instructions())

    def test_checks_never_removed(self):
        src = "fn f(a: int[], i: int): int { let v: int = a[i]; return 0; }"
        program, fn = ssa_fn(src)
        eliminate_dead_code(fn)
        from repro.ir.instructions import CheckLower, CheckUpper

        kinds = {type(i) for i in fn.all_instructions()}
        assert CheckLower in kinds and CheckUpper in kinds

    def test_dead_pi_kept(self):
        src = """
fn f(a: int[], i: int): int {
  if (i < len(a)) {
    return 1;
  }
  return 0;
}
"""
        program, fn = ssa_fn(src)
        eliminate_dead_code(fn)
        assert any(isinstance(i, Pi) for i in fn.all_instructions())

    def test_allocation_kept(self):
        src = """
fn f(n: int): int {
  let a: int[] = new int[n];
  return n;
}
"""
        program, fn = ssa_fn(src)
        eliminate_dead_code(fn)
        from repro.ir.instructions import ArrayNew

        assert any(isinstance(i, ArrayNew) for i in fn.all_instructions())

    def test_dead_phi_removed(self):
        # ``y`` is a dead use that keeps x's φ at the join; the join also
        # keeps a live φ for ``c``, from its πs, which DCE must leave alone.
        src = """
fn f(c: int): int {
  let x: int = 0;
  if (c > 0) {
    x = 1;
  }
  let y: int = x;
  return c;
}
"""
        program, fn = ssa_fn(src)

        def x_phis():
            return [
                i
                for i in fn.all_instructions()
                if isinstance(i, Phi) and base_name(i.dest) == "x"
            ]

        assert len(x_phis()) == 1
        eliminate_dead_code(fn)
        assert x_phis() == []


class TestGVN:
    def test_identical_expressions_congruent(self):
        src = """
fn f(x: int): int {
  let a: int = x + 1;
  let b: int = x + 1;
  return a + b;
}
"""
        program, fn = ssa_fn(src)
        vn = value_number(fn)
        adds = [i.dest for i in fn.all_instructions() if isinstance(i, BinOp) and i.rhs == Const(1)]
        assert len(adds) == 2
        assert vn.congruent(adds[0], adds[1])

    def test_different_expressions_not_congruent(self):
        src = """
fn f(x: int): int {
  let a: int = x + 1;
  let b: int = x + 2;
  return a + b;
}
"""
        program, fn = ssa_fn(src)
        vn = value_number(fn)
        adds = [
            i.dest
            for i in fn.all_instructions()
            if isinstance(i, BinOp)
        ][:2]
        assert not vn.congruent(adds[0], adds[1])

    def test_commutative_add(self):
        src = """
fn f(x: int, y: int): int {
  let a: int = x + y;
  let b: int = y + x;
  return a + b;
}
"""
        program, fn = ssa_fn(src)
        vn = value_number(fn)
        adds = [
            i.dest
            for i in fn.all_instructions()
            if isinstance(i, BinOp) and {str(i.lhs), str(i.rhs)} == {fn.params[0], fn.params[1]}
        ]
        assert vn.congruent(adds[0], adds[1])

    def test_pi_congruent_to_source(self):
        src = "fn f(a: int[], i: int): int { return a[i]; }"
        program, fn = ssa_fn(src)
        vn = value_number(fn)
        pi = next(i for i in fn.all_instructions() if isinstance(i, Pi))
        assert vn.congruent(pi.dest, pi.src)

    def test_class_members(self):
        src = """
fn f(x: int): int {
  let a: int = x;
  return a;
}
"""
        program, fn = ssa_fn(src)
        vn = value_number(fn)
        members = vn.class_members(fn.params[0])
        assert len(members) >= 2


class TestStandardPipeline:
    def test_fixpoint_and_behaviour(self, bubble_source):
        ast = parse_source(bubble_source)
        info = check_program(ast)
        program = lower_program(ast, info)
        for fn in program.functions.values():
            construct_essa(fn)
        before = run_program(program, "main").value
        for fn in program.functions.values():
            run_standard_pipeline(fn)
            verify_function(fn)
        assert run_program(program, "main").value == before
