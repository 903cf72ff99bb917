"""Partial-redundancy elimination (Section 6) tests."""

import pytest

from repro.core.abcd import ABCDConfig
from repro.ir.instructions import CheckUpper, SpeculativeCheck
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile
from tests.conftest import optimize_and_compare

#: A loop-invariant upper check: `probe` is a parameter, so full-redundancy
#: analysis fails, but one hoisted check per loop entry suffices.
LOOP_INVARIANT_SRC = """
fn kernel(data: int[], probe: int, iters: int): int {
  let acc: int = 0;
  let iter: int = 0;
  while (iter < iters) {
    acc = acc + data[probe];
    iter = iter + 1;
  }
  return acc;
}
fn main(): int {
  let data: int[] = new int[64];
  for (let i: int = 0; i < len(data); i = i + 1) {
    data[i] = i * 3;
  }
  return kernel(data, 17, 50);
}
"""


def speculative_checks(program):
    return [
        instr
        for fn in program.functions.values()
        for instr in fn.all_instructions()
        if isinstance(instr, SpeculativeCheck)
    ]


def guarded_checks(program):
    return [
        instr
        for fn in program.functions.values()
        for instr in fn.all_instructions()
        if isinstance(instr, CheckUpper) and instr.guard_group is not None
    ]


class TestLoopInvariantHoisting:
    def test_pre_transforms_the_check(self):
        base, opt, report, program = optimize_and_compare(
            LOOP_INVARIANT_SRC, pre=True
        )
        assert report.pre_transformed >= 1
        assert speculative_checks(program)
        assert guarded_checks(program)

    def test_dynamic_checks_drop(self):
        base, opt, _, _ = optimize_and_compare(LOOP_INVARIANT_SRC, pre=True)
        survived = opt.stats.total_checks + opt.stats.speculative_checks
        assert survived < base.stats.total_checks / 3

    def test_without_pre_check_survives(self):
        base, opt, report, _ = optimize_and_compare(LOOP_INVARIANT_SRC, pre=False)
        # The invariant check executes every iteration without PRE.
        assert opt.stats.upper_checks >= 50

    def test_guarded_check_dormant_when_speculation_succeeds(self):
        _, opt, _, _ = optimize_and_compare(LOOP_INVARIANT_SRC, pre=True)
        assert opt.stats.speculation_failures == 0


class TestSpeculationFailureRecovery:
    """A speculative check may fail spuriously; the guarded original must
    then take over and raise at the *original* program point."""

    SRC = """
fn kernel(data: int[], probe: int, iters: int): int {
  let acc: int = 0;
  let iter: int = 0;
  while (iter < iters) {
    if (probe < len(data)) {
      acc = acc + data[probe];
    }
    iter = iter + 1;
  }
  return acc;
}
fn main(): int {
  let data: int[] = new int[8];
  return kernel(data, 3, 10);
}
"""

    def test_out_of_range_probe_still_safe(self):
        # Compile once, optimize with a profile from an in-range run, then
        # call the kernel with an out-of-range probe: the speculative check
        # fails, the guard flag raises, and the guarded check (never
        # reached: the `if` protects the access) keeps semantics intact.
        program = compile_source(self.SRC)
        base = clone_program(program)
        profile = collect_profile(program, "main")
        config = ABCDConfig(pre=True)
        abcd(program, config, profile)

        base_value = run(base, "kernel", [make_array(8), 99, 5]).value
        opt_result = run(program, "kernel", [make_array(8), 99, 5])
        assert opt_result.value == base_value

    def test_failing_access_raises_at_original_point(self):
        from repro.errors import BoundsCheckError

        src = LOOP_INVARIANT_SRC
        program = compile_source(src)
        base = clone_program(program)
        profile = collect_profile(program, "main")
        abcd(program, ABCDConfig(pre=True), profile)

        args = [make_array(8), 100, 5]
        with pytest.raises(BoundsCheckError) as base_exc:
            run(base, "kernel", args)
        with pytest.raises(BoundsCheckError) as opt_exc:
            run(program, "kernel", args)
        # Same original check id raises in both versions.
        assert opt_exc.value.check_id == base_exc.value.check_id


def make_array(n):
    from repro.runtime.values import ArrayValue

    return ArrayValue(n)


class TestProfitability:
    def test_unprofitable_insertion_rejected(self):
        # The "loop" runs zero iterations in the profile: hoisting would
        # add work, so PRE must not fire.
        src = """
fn kernel(data: int[], probe: int, iters: int): int {
  let acc: int = 0;
  let iter: int = 0;
  while (iter < iters) {
    acc = acc + data[probe];
    iter = iter + 1;
  }
  return acc;
}
fn main(): int {
  let data: int[] = new int[8];
  return kernel(data, 2, 0);
}
"""
        _, _, report, program = optimize_and_compare(src, pre=True)
        assert report.pre_transformed == 0
        assert not speculative_checks(program)

    def test_gain_ratio_zero_disables_pre(self):
        config = ABCDConfig(pre_gain_ratio=0.0)
        _, _, report, program = optimize_and_compare(
            LOOP_INVARIANT_SRC, config=config, pre=True
        )
        assert report.pre_transformed == 0


class TestCompensatingCheckShape:
    def test_insertion_outside_the_loop(self):
        _, _, _, program = optimize_and_compare(LOOP_INVARIANT_SRC, pre=True)
        fn = program.function("kernel")
        # The speculative check must live in a block that executes once
        # per call, i.e. not inside the while body (which contains the
        # guarded original check).
        spec_blocks = {
            label
            for label in fn.reachable_blocks()
            for instr in fn.blocks[label].body
            if isinstance(instr, SpeculativeCheck)
        }
        guard_blocks = {
            label
            for label in fn.reachable_blocks()
            for instr in fn.blocks[label].body
            if isinstance(instr, CheckUpper) and instr.guard_group is not None
        }
        assert spec_blocks and guard_blocks
        assert spec_blocks.isdisjoint(guard_blocks)

    def test_guard_groups_link_spec_to_original(self):
        _, _, _, program = optimize_and_compare(LOOP_INVARIANT_SRC, pre=True)
        spec_groups = {s.guard_group for s in speculative_checks(program)}
        guarded_groups = {g.guard_group for g in guarded_checks(program)}
        assert guarded_groups <= spec_groups
