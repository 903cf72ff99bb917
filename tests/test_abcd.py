"""End-to-end ABCD elimination tests over MiniJ idioms."""

import pytest

from repro.core.abcd import ABCDConfig
from repro.ir.instructions import CheckLower, CheckUpper
from tests.conftest import optimize_and_compare


def remaining_checks(program):
    lowers = uppers = 0
    for fn in program.functions.values():
        for instr in fn.all_instructions():
            if isinstance(instr, CheckLower):
                lowers += 1
            elif isinstance(instr, CheckUpper):
                uppers += 1
    return lowers, uppers


class TestLenBoundedLoop:
    SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""

    def test_all_checks_eliminated(self):
        base, opt, report, program = optimize_and_compare(self.SRC)
        assert remaining_checks(program) == (0, 0)
        assert opt.stats.total_checks == 0
        assert base.stats.total_checks == 40

    def test_report_accounts_for_every_check(self):
        _, _, report, _ = optimize_and_compare(self.SRC)
        assert report.analyzed == 2
        assert report.eliminated_count() == 2


class TestCachedLengthLoop:
    SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let n: int = len(a);
  let s: int = 0;
  let i: int = 0;
  while (i < n) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
"""

    def test_c1_chain_proves_upper(self):
        _, opt, _, program = optimize_and_compare(self.SRC)
        assert remaining_checks(program) == (0, 0)


class TestAllocationBoundLoop:
    SRC = """
fn main(): int {
  let n: int = 33;
  let a: int[] = new int[n];
  let s: int = 0;
  for (let i: int = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""

    def test_allocation_fact_proves_upper(self):
        _, opt, _, program = optimize_and_compare(self.SRC)
        assert remaining_checks(program) == (0, 0)

    def test_without_allocation_facts_upper_survives(self):
        config = ABCDConfig(allocation_facts=False, gvn_mode="off")
        _, opt, _, program = optimize_and_compare(self.SRC, config=config)
        lowers, uppers = remaining_checks(program)
        assert lowers == 0  # i >= 0 still provable
        assert uppers == 1


class TestDownwardLoop:
    SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let s: int = 0;
  let i: int = len(a) - 1;
  while (i >= 0) {
    s = s + a[i];
    i = i - 1;
  }
  return s;
}
"""

    def test_decrementing_loop_eliminated(self):
        _, opt, _, program = optimize_and_compare(self.SRC)
        assert remaining_checks(program) == (0, 0)


class TestCheckSubsumption:
    SRC = """
fn main(): int {
  let a: int[] = new int[10];
  let k: int = 4;
  let x: int = a[k];
  let y: int = a[k];
  return x + y;
}
"""

    def test_second_check_subsumed_by_first(self):
        # The first access's checks guard the second (C5 π constraints).
        _, opt, report, program = optimize_and_compare(self.SRC)
        assert opt.stats.total_checks <= 2

    def test_offset_subsumption(self):
        # a[i-1] is subsumed by a[i] for the upper bound, and a[i] by
        # a[i-1] for the lower bound (the paper's subsumption note).
        src = """
fn main(): int {
  let a: int[] = new int[10];
  let i: int = 5;
  let x: int = a[i];
  let y: int = a[i - 1];
  return x + y;
}
"""
        base, opt, _, _ = optimize_and_compare(src)
        assert opt.stats.total_checks < base.stats.total_checks


class TestUnprovableIdioms:
    def test_constant_index_provable_via_allocation(self):
        # Constant folding turns (0+15)/2 into 7, and 7 <= 16 - 9 makes the
        # upper check provable through the allocation constant.
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let lo: int = 0;
  let hi: int = 15;
  let mid: int = (lo + hi) / 2;
  return a[mid];
}
"""
        _, opt, _, program = optimize_and_compare(src)
        assert remaining_checks(program) == (0, 0)

    def test_division_defeats_abcd(self):
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let lo: int = 0;
  let hi: int = len(a) - 1;
  let mid: int = (lo + hi) / 2;
  return a[mid];
}
"""
        _, opt, _, program = optimize_and_compare(src)
        lowers, uppers = remaining_checks(program)
        assert uppers == 1 and lowers == 1

    def test_guarded_division_is_provable(self):
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let lo: int = 0;
  let hi: int = len(a) - 1;
  let mid: int = (lo + hi) / 2;
  if (mid >= 0 && mid < len(a)) {
    return a[mid];
  }
  return 0;
}
"""
        _, opt, _, program = optimize_and_compare(src)
        assert remaining_checks(program) == (0, 0)

    def test_unrelated_array_bound_fails(self):
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let b: int[] = new int[8];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    if (i < 8) {
      s = s + b[i];
    }
  }
  return s;
}
"""
        # b's checks are provable only through the i < 8 guard plus b's
        # allocation constant: 8 <= len(b).
        _, opt, _, program = optimize_and_compare(src)
        assert remaining_checks(program) == (0, 0)

    def test_param_index_not_provable(self):
        src = """
fn get(a: int[], i: int): int {
  return a[i];
}
fn main(): int {
  let a: int[] = new int[4];
  return get(a, 2);
}
"""
        _, opt, _, program = optimize_and_compare(src)
        lowers, uppers = remaining_checks(program)
        assert (lowers, uppers) == (1, 1)


class TestConfigSelectivity:
    SRC = """
fn main(): int {
  let a: int[] = new int[20];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""

    def test_upper_only(self):
        config = ABCDConfig(lower=False)
        _, _, report, program = optimize_and_compare(self.SRC, config=config)
        lowers, uppers = remaining_checks(program)
        assert uppers == 0 and lowers == 1
        assert report.analyzed_count("lower") == 0

    def test_lower_only(self):
        config = ABCDConfig(upper=False)
        _, _, report, program = optimize_and_compare(self.SRC, config=config)
        lowers, uppers = remaining_checks(program)
        assert lowers == 0 and uppers == 1

    def test_hot_checks_restriction(self):
        from repro.pipeline import compile_source
        from repro.runtime.profiler import collect_profile

        program = compile_source(self.SRC)
        profile = collect_profile(program, "main")
        hottest = profile.hot_checks()[:1]
        config = ABCDConfig(hot_checks=set(hottest))
        from repro.pipeline import abcd

        report = abcd(program, config)
        assert report.analyzed == 1
        assert report.analyses[0].check_id == hottest[0]

    def test_bad_gvn_mode_rejected(self):
        # Rejected when the config is built, so no entry point can run
        # (or contain as a pass failure) a session with an unknown mode.
        with pytest.raises(ValueError, match="gvn_mode"):
            ABCDConfig(gvn_mode="bogus")


class TestScopeClassification:
    def test_same_block_redundancy_is_local(self):
        src = """
fn main(): int {
  let a: int[] = new int[10];
  let k: int = 3;
  let x: int = a[k];
  let y: int = a[k];
  return x + y;
}
"""
        _, _, report, _ = optimize_and_compare(src)
        eliminated = [a for a in report.analyses if a.eliminated]
        assert any(a.scope == "local" for a in eliminated)

    def test_loop_redundancy_is_global(self):
        src = """
fn main(): int {
  let a: int[] = new int[10];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
        _, _, report, _ = optimize_and_compare(src)
        eliminated = [a for a in report.analyses if a.eliminated]
        assert eliminated
        assert all(a.scope == "global" for a in eliminated)


class TestGVNModes:
    SRC = """
fn main(): int {
  let a: int[] = new int[32];
  let bad: int = 0;
  for (let i: int = 0; i + 1 < len(a); i = i + 1) {
    if (a[i] > a[i + 1]) {
      bad = bad + 1;
    }
  }
  return bad;
}
"""

    def test_augment_beats_off(self):
        config_off = ABCDConfig(gvn_mode="off")
        _, _, report_off, prog_off = optimize_and_compare(self.SRC, config=config_off)
        config_aug = ABCDConfig(gvn_mode="augment")
        _, _, report_aug, prog_aug = optimize_and_compare(self.SRC, config=config_aug)
        assert (
            report_aug.eliminated_count("upper")
            > report_off.eliminated_count("upper")
        )
        assert remaining_checks(prog_aug) == (0, 0)

    def test_consult_handles_array_aliases(self):
        # Defeat copy propagation with a φ that GVN still sees through:
        # both branches yield the same array value.
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let n: int = len(a);
  let s: int = 0;
  for (let i: int = 0; i < n; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
        config = ABCDConfig(gvn_mode="consult")
        _, _, _, program = optimize_and_compare(src, config=config)
        assert remaining_checks(program) == (0, 0)


class TestMultiFunction:
    def test_each_function_optimized_independently(self):
        src = """
fn sum(a: int[]): int {
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
fn fill(a: int[]): void {
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
  }
}
fn main(): int {
  let a: int[] = new int[12];
  fill(a);
  return sum(a);
}
"""
        base, opt, report, program = optimize_and_compare(src)
        assert remaining_checks(program) == (0, 0)
        assert opt.value == 66
