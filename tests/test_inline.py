"""Function inlining tests."""

import pytest

from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.instructions import Call
from repro.ir.lowering import lower_program
from repro.ir.verifier import verify_program
from repro.opt.inline import Inliner, inline_program, recursive_functions
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.interpreter import run_program
from repro.ssa.essa import construct_essa


def lowered(source: str):
    ast = parse_source(source)
    info = check_program(ast)
    return lower_program(ast, info)


def call_count(program, fn_name="main"):
    return sum(
        1
        for i in program.function(fn_name).all_instructions()
        if isinstance(i, Call)
    )


SIMPLE_SRC = """
fn double(x: int): int {
  return x + x;
}
fn main(): int {
  let a: int = double(5);
  let b: int = double(a);
  return a + b;
}
"""


class TestRecursionDetection:
    def test_direct_recursion(self):
        src = """
fn f(n: int): int { if (n <= 0) { return 0; } return f(n - 1); }
fn main(): int { return f(3); }
"""
        assert recursive_functions(lowered(src)) == {"f"}

    def test_mutual_recursion(self):
        src = """
fn even(n: int): bool { if (n == 0) { return true; } return odd(n - 1); }
fn odd(n: int): bool { if (n == 0) { return false; } return even(n - 1); }
fn main(): int { if (even(4)) { return 1; } return 0; }
"""
        assert recursive_functions(lowered(src)) == {"even", "odd"}

    def test_straight_calls_not_recursive(self):
        assert recursive_functions(lowered(SIMPLE_SRC)) == set()


class TestInlining:
    def test_simple_calls_inlined(self):
        program = lowered(SIMPLE_SRC)
        expanded = inline_program(program)
        assert expanded == 2
        assert call_count(program) == 0
        verify_program(program)

    def test_behaviour_preserved(self):
        program = lowered(SIMPLE_SRC)
        expected = run_program(program, "main").value
        inline_program(program)
        assert run_program(program, "main").value == expected == 30

    def test_void_callee(self):
        src = """
fn bump(a: int[], i: int): void {
  if (i >= 0 && i < len(a)) {
    a[i] = a[i] + 1;
  }
}
fn main(): int {
  let a: int[] = new int[4];
  bump(a, 2);
  bump(a, 2);
  bump(a, 9);
  return a[2];
}
"""
        program = lowered(src)
        expected = run_program(program, "main").value
        inline_program(program)
        assert call_count(program) == 0
        assert run_program(program, "main").value == expected == 2

    def test_recursive_callee_skipped(self):
        src = """
fn f(n: int): int { if (n <= 0) { return 0; } return f(n - 1) + n; }
fn main(): int { return f(4); }
"""
        program = lowered(src)
        inline_program(program)
        assert call_count(program) == 1  # the recursive call stays
        assert run_program(program, "main").value == 10

    def test_large_callee_skipped(self):
        body = " ".join(f"x = x + {i};" for i in range(80))
        src = f"""
fn big(seed: int): int {{
  let x: int = seed;
  {body}
  return x;
}}
fn main(): int {{ return big(1); }}
"""
        program = lowered(src)
        inline_program(program, max_callee_size=30)
        assert call_count(program) == 1

    def test_check_ids_stay_unique(self):
        src = """
fn get(a: int[], i: int): int { return a[i]; }
fn main(): int {
  let a: int[] = new int[4];
  return get(a, 1) + get(a, 2);
}
"""
        program = lowered(src)
        inline_program(program)
        ids = [c.check_id for c in program.all_checks()]
        assert len(ids) == len(set(ids))

    def test_nested_calls_inlined_over_rounds(self):
        src = """
fn inner(x: int): int { return x + 1; }
fn outer(x: int): int { return inner(x) * 2; }
fn main(): int { return outer(3); }
"""
        program = lowered(src)
        inline_program(program)
        assert call_count(program) == 0
        assert run_program(program, "main").value == 8

    def test_requires_non_ssa(self):
        program = lowered(SIMPLE_SRC)
        for fn in program.functions.values():
            construct_essa(fn)
        with pytest.raises(ValueError):
            Inliner(program).run()


class TestInliningHelpsABCD:
    SRC = """
fn append(buf: int[], count: int, value: int): int {
  if (count < len(buf)) {
    buf[count] = value;
    return count + 1;
  }
  return count;
}
fn main(): int {
  let buf: int[] = new int[64];
  let count: int = 0;
  for (let i: int = 0; i < 100; i = i + 1) {
    count = append(buf, count, i * 3);
  }
  return count;
}
"""

    def test_more_checks_provable_after_inlining(self):
        from repro.core.abcd import ABCDConfig

        plain = compile_source(self.SRC)
        plain_report = abcd(plain, ABCDConfig())

        inlined = compile_source(self.SRC, inline=True)
        base = clone_program(inlined)
        inlined_report = abcd(inlined, ABCDConfig())

        assert run(inlined, "main").value == run(base, "main").value == 64
        assert (
            inlined_report.eliminated_count() > plain_report.eliminated_count()
            or inlined_report.eliminated_count() == inlined_report.analyzed
        )

    def test_full_pipeline_behaviour(self, bubble_source):
        plain = compile_source(bubble_source)
        inlined = compile_source(bubble_source, inline=True)
        assert run(plain, "main").value == run(inlined, "main").value
