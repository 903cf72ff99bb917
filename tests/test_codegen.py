"""Compiled-tier (Python codegen) tests: differential vs the interpreter."""

import pytest

from repro.bench.corpus import get
from repro.errors import BoundsCheckError, MiniJRuntimeError
from repro.fuzz.generator import generate_source
from repro.fuzz.oracle import CODEGEN_COUNTERS
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.robustness.differential import ExecutionOutcome
from repro.runtime.codegen import compile_to_python
from repro.runtime.interpreter import Interpreter
from repro.runtime.profiler import collect_profile
from repro.runtime.values import ArrayValue


def both_tiers(source: str, fn="main", args=(), optimize=False, fuel=100_000_000):
    program = compile_source(source)
    if optimize:
        abcd(program)
    interpreted = run(clone_program(program), fn, args, fuel=fuel)
    compiled = compile_to_python(program).run(fn, args)
    return interpreted, compiled


class TestBasicEquivalence:
    def test_arithmetic(self):
        interp, comp = both_tiers("fn main(): int { return (0 - 17) / 5 + 9 % 4; }")
        assert interp.value == comp.value == -2

    def test_loop_with_checks(self, bubble_source):
        interp, comp = both_tiers(bubble_source)
        assert interp.value == comp.value
        assert interp.stats.total_checks == comp.stats.total_checks
        assert interp.stats.cycles == comp.stats.cycles
        assert interp.stats.instructions == comp.stats.instructions

    def test_optimized_program(self, bubble_source):
        interp, comp = both_tiers(bubble_source, optimize=True)
        assert interp.value == comp.value
        assert interp.stats.total_checks == comp.stats.total_checks

    def test_recursion(self):
        src = """
fn fib(n: int): int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn main(): int { return fib(12); }
"""
        interp, comp = both_tiers(src)
        assert interp.value == comp.value == 144

    def test_void_calls(self):
        src = """
fn fill(a: int[]): void {
  for (let i: int = 0; i < len(a); i = i + 1) { a[i] = i; }
}
fn main(): int {
  let a: int[] = new int[5];
  fill(a);
  return a[4];
}
"""
        interp, comp = both_tiers(src)
        assert interp.value == comp.value == 4


class TestExceptions:
    def test_bounds_error_same_check_id(self):
        src = """
fn main(): int {
  let a: int[] = new int[3];
  let i: int = 7;
  return a[i];
}
"""
        program = compile_source(src)
        compiled = compile_to_python(clone_program(program))
        with pytest.raises(BoundsCheckError) as interp_exc:
            run(program, "main")
        with pytest.raises(BoundsCheckError) as comp_exc:
            compiled.run("main")
        assert interp_exc.value.check_id == comp_exc.value.check_id
        assert interp_exc.value.kind == comp_exc.value.kind

    def test_negative_array_size(self):
        from repro.errors import NegativeArraySizeError

        src = "fn main(): int { let n: int = 0 - 2; let a: int[] = new int[n]; return 0; }"
        compiled = compile_to_python(compile_source(src))
        with pytest.raises(NegativeArraySizeError):
            compiled.run("main")

    def test_division_by_zero(self):
        from repro.errors import DivisionByZeroError

        src = "fn main(): int { let z: int = 0; return 4 / z; }"
        compiled = compile_to_python(compile_source(src))
        with pytest.raises(DivisionByZeroError):
            compiled.run("main")


class TestSpeculationInCompiledTier:
    SRC = """
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
  let data: int[] = new int[32];
  return kernel(data, 4, 25);
}
"""

    def build(self):
        from repro.runtime.profiler import collect_profile

        program = compile_source(self.SRC)
        profile = collect_profile(program, "main")
        abcd(program, pre=True, profile=profile)
        return program

    def test_guarded_checks_compiled(self):
        program = self.build()
        compiled = compile_to_python(program)
        result = compiled.run("main")
        assert result.value == 0
        assert compiled.stats.speculative_checks > 0
        assert compiled.stats.speculation_failures == 0

    def test_speculation_failure_recovery_compiled(self):
        program = self.build()
        compiled = compile_to_python(program)
        with pytest.raises(BoundsCheckError):
            compiled.run("kernel", [ArrayValue(8), 100, 3])


class TestUnsignedChecksCompiled:
    def test_merged_check_semantics(self):
        from repro.core.extensions import merge_program_unsigned_checks

        src = """
fn probe(a: int[], x: int): int {
  let idx: int = x / 2;
  return a[idx];
}
fn main(): int {
  let a: int[] = new int[8];
  a[3] = 42;
  return probe(a, 6);
}
"""
        program = compile_source(src)
        abcd(program)
        merge_program_unsigned_checks(program)
        compiled = compile_to_python(program)
        assert compiled.run("main").value == 42
        assert compiled.stats.unsigned_checks > 0
        with pytest.raises(BoundsCheckError) as excinfo:
            compiled.run("probe", [ArrayValue(4), -6])
        assert excinfo.value.kind == "lower"


class TestCorpusEquivalence:
    @pytest.mark.parametrize(
        "name", ["Sieve", "bubbleSort", "Hanoi", "db", "toba"]
    )
    def test_tiers_agree(self, name):
        source = get(name).source()
        interp, comp = both_tiers(source)
        assert interp.value == comp.value
        assert interp.stats.total_checks == comp.stats.total_checks
        assert interp.stats.cycles == comp.stats.cycles

    @pytest.mark.parametrize("name", ["biDirBubbleSort", "jess"])
    def test_tiers_agree_optimized(self, name):
        source = get(name).source()
        interp, comp = both_tiers(source, optimize=True)
        assert interp.value == comp.value
        assert interp.stats.total_checks == comp.stats.total_checks


def _outcome(tier) -> ExecutionOutcome:
    try:
        return ExecutionOutcome(value=tier.run("main").value)
    except MiniJRuntimeError as exc:
        return ExecutionOutcome.from_trap(exc)


class TestCounterParityOnGeneratedPrograms:
    """Every counter of the two tiers agrees at the end of a run, and most
    of these runs end in a trap: the compiled program, its ABCD output,
    and its profile-driven ABCD+PRE output (speculative and guarded
    checks)."""

    @pytest.mark.parametrize("seed", range(30))
    def test_every_counter_agrees(self, seed):
        source = generate_source(seed)
        plain = compile_source(source)
        optimized = clone_program(plain)
        abcd(optimized)
        speculated = clone_program(plain)
        profile = collect_profile(clone_program(plain), on_trap="partial")
        abcd(speculated, pre=True, profile=profile)
        for program in (plain, optimized, speculated):
            interp = Interpreter(clone_program(program))
            compiled = compile_to_python(program)
            assert _outcome(interp) == _outcome(compiled)
            for name in CODEGEN_COUNTERS:
                assert getattr(interp.stats, name) == getattr(compiled.stats, name), name


class TestGeneratedSource:
    def test_sources_exposed(self):
        program = compile_source("fn main(): int { return 3; }")
        compiled = compile_to_python(program)
        assert "def main()" in compiled.sources["main"]

    def test_mangling_injective(self):
        from repro.runtime.codegen import _mangle

        names = ["%t1", "t.1", "t_d_1", "x@inl0", "x_a_inl0", "j.2", "j_2", "t1"]
        mangled = [_mangle(n) for n in names]
        assert len(set(mangled)) == len(names)
        # And every result is a valid Python identifier.
        assert all(m.isidentifier() for m in mangled)
