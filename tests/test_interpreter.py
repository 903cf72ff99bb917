"""VM (interpreter) tests: semantics, exceptions, counters, cost model."""

import pytest

from repro.errors import (
    BoundsCheckError,
    DivisionByZeroError,
    MiniJRuntimeError,
    NegativeArraySizeError,
    TrapLimitExceeded,
)
from repro.pipeline import compile_source, run
from repro.runtime.values import ArrayValue, minij_div, minij_mod


def run_main(source: str, args=(), fuel=50_000_000):
    return run(compile_source(source), "main", args, fuel=fuel)


class TestArithmetic:
    def test_basic_ops(self):
        src = "fn main(): int { return 2 + 3 * 4 - 6 / 2; }"
        assert run_main(src).value == 11

    def test_division_truncates_toward_zero(self):
        assert run_main("fn main(): int { return (0 - 7) / 2; }").value == -3
        assert run_main("fn main(): int { return 7 / (0 - 2); }").value == -3

    def test_mod_sign_follows_dividend(self):
        assert run_main("fn main(): int { return (0 - 7) % 3; }").value == -1
        assert run_main("fn main(): int { return 7 % (0 - 3); }").value == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZeroError):
            run_main("fn main(): int { let z: int = 0; return 1 / z; }")

    def test_mod_by_zero_raises(self):
        with pytest.raises(DivisionByZeroError):
            run_main("fn main(): int { let z: int = 0; return 1 % z; }")

    @pytest.mark.parametrize(
        "lhs,rhs",
        [(7, 2), (-7, 2), (7, -2), (-7, -2), (0, 5), (13, 13)],
    )
    def test_div_mod_identity(self, lhs, rhs):
        assert minij_div(lhs, rhs) * rhs + minij_mod(lhs, rhs) == lhs


class TestComparisonsAndBooleans:
    def test_all_comparisons(self):
        src = """
fn main(): int {
  let r: int = 0;
  if (1 < 2) { r = r + 1; }
  if (2 <= 2) { r = r + 10; }
  if (3 > 2) { r = r + 100; }
  if (2 >= 3) { r = r + 1000; }
  if (4 == 4) { r = r + 10000; }
  if (4 != 4) { r = r + 100000; }
  return r;
}
"""
        assert run_main(src).value == 10111

    def test_short_circuit_protects_division(self):
        src = """
fn main(): int {
  let z: int = 0;
  if (z != 0 && 10 / z > 1) {
    return 1;
  }
  return 0;
}
"""
        assert run_main(src).value == 0


class TestArrays:
    def test_new_array_zeroed(self):
        src = """
fn main(): int {
  let a: int[] = new int[5];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}
"""
        assert run_main(src).value == 0

    def test_store_load_roundtrip(self):
        src = """
fn main(): int {
  let a: int[] = new int[3];
  a[0] = 7; a[1] = 8; a[2] = 9;
  return a[0] * 100 + a[1] * 10 + a[2];
}
"""
        assert run_main(src).value == 789

    def test_reference_semantics(self):
        src = """
fn scale(a: int[]): void {
  for (let i: int = 0; i < len(a); i = i + 1) { a[i] = a[i] * 2; }
}
fn main(): int {
  let a: int[] = new int[3];
  a[1] = 21;
  scale(a);
  return a[1];
}
"""
        assert run_main(src).value == 42

    def test_negative_size_raises(self):
        with pytest.raises(NegativeArraySizeError):
            run_main("fn main(): int { let n: int = 0 - 1; let a: int[] = new int[n]; return 0; }")

    def test_zero_length_array(self):
        assert run_main("fn main(): int { let a: int[] = new int[0]; return len(a); }").value == 0

    def test_array_value_helpers(self):
        array = ArrayValue.from_list([1, 2, 3])
        assert array.length == 3
        assert array.to_list() == [1, 2, 3]


class TestBoundsChecks:
    def test_upper_violation_raises(self):
        src = """
fn main(): int {
  let a: int[] = new int[3];
  let i: int = 3;
  return a[i];
}
"""
        with pytest.raises(BoundsCheckError) as excinfo:
            run_main(src)
        assert excinfo.value.kind == "upper"
        assert excinfo.value.index == 3
        assert excinfo.value.length == 3

    def test_lower_violation_raises(self):
        src = """
fn main(): int {
  let a: int[] = new int[3];
  let i: int = 0 - 1;
  return a[i];
}
"""
        with pytest.raises(BoundsCheckError) as excinfo:
            run_main(src)
        assert excinfo.value.kind == "lower"

    def test_check_counters(self):
        src = """
fn main(): int {
  let a: int[] = new int[10];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}
"""
        stats = run_main(src).stats
        assert stats.lower_checks == 10
        assert stats.upper_checks == 10
        assert stats.total_checks == 20

    def test_per_check_counts(self):
        src = """
fn main(): int {
  let a: int[] = new int[4];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}
"""
        stats = run_main(src).stats
        assert sorted(stats.check_counts.values()) == [4, 4]


class TestCallsAndRecursion:
    def test_recursion(self):
        src = """
fn fib(n: int): int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main(): int { return fib(15); }
"""
        assert run_main(src).value == 610

    def test_mutual_recursion(self):
        src = """
fn is_even(n: int): bool {
  if (n == 0) { return true; }
  return is_odd(n - 1);
}
fn is_odd(n: int): bool {
  if (n == 0) { return false; }
  return is_even(n - 1);
}
fn main(): int {
  if (is_even(10)) { return 1; }
  return 0;
}
"""
        assert run_main(src).value == 1

    def test_arity_mismatch_raises(self):
        src = "fn main(): int { return 1; }"
        program = compile_source(src)
        with pytest.raises(MiniJRuntimeError):
            run(program, "main", [5])


class TestFuel:
    def test_infinite_loop_trapped(self):
        src = "fn main(): int { while (true) { } }"
        with pytest.raises(TrapLimitExceeded):
            run_main(src, fuel=10_000)


class TestCostModel:
    def test_cycles_accumulate(self):
        stats = run_main("fn main(): int { return 1 + 2; }").stats
        assert stats.cycles > 0
        assert stats.instructions > 0

    def test_checks_cost_cycles(self):
        with_checks = run_main(
            """
fn main(): int {
  let a: int[] = new int[100];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) { s = s + a[i]; }
  return s;
}
"""
        ).stats
        # A full bounds check costs 3 cycles (length load + two compares).
        assert with_checks.cycles > with_checks.instructions


class TestProfiling:
    def test_block_and_edge_counts(self):
        src = """
fn main(): int {
  let s: int = 0;
  for (let i: int = 0; i < 5; i = i + 1) { s = s + i; }
  return s;
}
"""
        from repro.runtime.interpreter import Interpreter

        program = compile_source(src)
        interp = Interpreter(program, record_profile=True)
        result = interp.run("main")
        assert result.value == 10
        assert interp.stats.block_counts
        # Some edge must have executed 5 times (the loop back edge).
        assert 5 in interp.stats.edge_counts.values()

    def test_profile_off_by_default(self):
        stats = run_main("fn main(): int { return 0; }").stats
        assert stats.block_counts == {}


DOWN_SOURCE = """
fn down(n: int): int {
  if (n == 0) { return 0; }
  return down(n - 1) + 1;
}
fn main(depth: int): int { return down(depth); }
"""


class TestResources:
    def test_runs_leave_no_cyclic_garbage(self):
        """Run-scoped state is freed by reference counting alone: nothing
        a run builds (frames, decoded code) survives it in a cycle."""
        import gc

        from repro.bench.corpus import CORPUS
        from repro.runtime.interpreter import run_program

        programs = [
            compile_source(p.source())
            for p in CORPUS
            if p.name in ("bubbleSort", "Hanoi", "Dhrystone")
        ]
        gc.collect()
        gc.disable()
        try:
            for _ in range(10):
                for program in programs:
                    run_program(program, "main")
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_recursion_depth_480_fits_the_default_limit(self):
        """At most two Python frames per MiniJ call: a recursion 480 deep
        completes under CPython's default limit of 1000 (a fresh thread,
        so the test runner's own stack does not count)."""
        import sys
        import threading

        from repro.errors import ReproError

        program = compile_source(DOWN_SOURCE)
        outcome = {}

        def body():
            try:
                outcome["value"] = run(program, "main", [480]).value
            except ReproError as exc:
                outcome["error"] = exc

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            thread = threading.Thread(target=body)
            thread.start()
            thread.join(timeout=60)
        finally:
            sys.setrecursionlimit(limit)
        assert not thread.is_alive()
        assert outcome == {"value": 480}
