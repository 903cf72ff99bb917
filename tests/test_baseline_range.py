"""Value-range analysis baseline tests."""

import pytest

from repro.baselines.range_analysis import (
    Interval,
    RangeAnalysis,
    eliminate_program_with_ranges,
    eliminate_with_ranges,
)
from repro.pipeline import clone_program, compile_source, run


def compiled(source: str):
    # The baseline is tested on unoptimized e-SSA: constant propagation
    # would pre-solve the very facts the interval analysis must discover.
    return compile_source(source, standard_opts=False)


class TestInterval:
    def test_exact_and_top(self):
        assert Interval.exact(5) == Interval(5, 5)
        top = Interval.top()
        assert top.lo == float("-inf") and top.hi == float("inf")

    def test_join(self):
        assert Interval(0, 3).join(Interval(2, 7)) == Interval(0, 7)

    def test_widen_unstable_bounds(self):
        widened = Interval(0, 5).widen(Interval(0, 9))
        assert widened == Interval(0, float("inf"))
        widened = Interval(0, 5).widen(Interval(-2, 5))
        assert widened == Interval(float("-inf"), 5)

    def test_widen_stable_is_identity(self):
        assert Interval(0, 5).widen(Interval(1, 4)) == Interval(0, 5)

    def test_arithmetic(self):
        assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
        assert Interval(1, 2).sub(Interval(10, 20)) == Interval(-19, -8)
        assert Interval(0, 9).shift(3) == Interval(3, 12)

    def test_clamps(self):
        assert Interval(-5, 10).clamp_lo(0) == Interval(0, 10)
        assert Interval(-5, 10).clamp_hi(3) == Interval(-5, 3)


class TestAnalysis:
    def test_constant_tracked(self):
        program = compiled("fn f(): int { let x: int = 7; return x; }")
        analysis = RangeAnalysis(program.function("f"))
        analysis.run()
        sevens = [r for r in analysis.ranges.values() if r == Interval(7, 7)]
        assert sevens

    def test_loop_counter_widened_but_lower_bound_kept(self):
        src = """
fn f(): int {
  let s: int = 0;
  for (let i: int = 0; i < 100; i = i + 1) {
    s = s + i;
  }
  return s;
}
"""
        program = compiled(src)
        fn = program.function("f")
        analysis = RangeAnalysis(fn)
        analysis.run()
        # The φ for i must keep a finite lower bound of 0.
        from repro.ir.instructions import Phi
        from repro.ssa.essa import base_name

        phi_dests = [
            i.dest
            for i in fn.all_instructions()
            if isinstance(i, Phi) and base_name(i.dest).startswith("i")
        ]
        assert phi_dests
        for dest in phi_dests:
            assert analysis.ranges[dest].lo >= 0

    def test_constant_array_length_tracked(self):
        src = "fn f(): int { let a: int[] = new int[9]; return len(a); }"
        program = compiled(src)
        fn = program.function("f")
        analysis = RangeAnalysis(fn)
        analysis.run()
        assert Interval(9, 9) in analysis.length_ranges.values()


class TestElimination:
    def test_lower_checks_eliminated_in_counting_loop(self):
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
        program = compiled(src)
        report = eliminate_program_with_ranges(program)
        assert report.eliminated_lower == report.analyzed_lower

    def test_constant_sized_array_upper_eliminated(self):
        src = """
fn main(): int {
  let a: int[] = new int[10];
  let s: int = 0;
  for (let i: int = 0; i < 10; i = i + 1) {
    s = s + a[i];
  }
  return s;
}
"""
        program = compiled(src)
        report = eliminate_program_with_ranges(program)
        assert report.eliminated_upper == report.analyzed_upper

    def test_symbolic_length_upper_not_eliminated(self):
        # i < len(a) gives i <= hi(len)-1 = +inf-1: numeric ranges cannot
        # relate the index to a *symbolic* length — ABCD's advantage.
        src = """
fn f(n: int): int {
  let a: int[] = new int[n];
  let s: int = 0;
  let i: int = 0;
  while (i < len(a)) {
    s = s + a[i];
    i = i + 1;
  }
  return s;
}
fn main(): int { return f(10); }
"""
        program = compiled(src)
        report = eliminate_with_ranges(program.function("f"))
        assert report.eliminated_lower == report.analyzed_lower
        assert report.eliminated_upper == 0

    def test_parameter_array_upper_not_eliminated(self):
        src = """
fn f(a: int[]): int {
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    s = s + a[i];
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[4];
  return f(a);
}
"""
        program = compiled(src)
        report = eliminate_with_ranges(program.function("f"))
        assert report.eliminated_upper == 0
        assert report.eliminated_lower == report.analyzed_lower

    def test_behaviour_preserved(self):
        src = """
fn main(): int {
  let a: int[] = new int[16];
  let s: int = 0;
  for (let i: int = 0; i < 16; i = i + 1) {
    a[i] = i * i;
    s = s + a[i];
  }
  return s;
}
"""
        program = compiled(src)
        base = clone_program(program)
        eliminate_program_with_ranges(program)
        assert run(program, "main").value == run(base, "main").value

    def test_soundness_never_removes_failing_check(self):
        src = """
fn main(): int {
  let a: int[] = new int[4];
  let i: int = 5;
  return a[i];
}
"""
        from repro.errors import BoundsCheckError

        program = compiled(src)
        eliminate_program_with_ranges(program)
        with pytest.raises(BoundsCheckError):
            run(program, "main")

    def test_report_merge(self):
        src = """
fn f(a: int[]): int { return a[0]; }
fn main(): int {
  let a: int[] = new int[4];
  return f(a) + a[1];
}
"""
        program = compiled(src)
        report = eliminate_program_with_ranges(program)
        assert report.analyzed == report.analyzed_lower + report.analyzed_upper
        assert report.analyzed_upper == 2
