"""Public pipeline facade tests."""

import pytest

from repro import ABCDConfig, abcd, clone_program, compile_source, profile, run
from repro.errors import TypeCheckError


SRC = """
fn main(): int {
  let a: int[] = new int[6];
  let s: int = 0;
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
    s = s + a[i];
  }
  return s;
}
"""


class TestCompileSource:
    def test_produces_essa_program(self):
        program = compile_source(SRC)
        assert program.function("main").ssa_form == "essa"

    def test_compile_errors_propagate(self):
        with pytest.raises(TypeCheckError):
            compile_source("fn main(): int { return true; }")

    def test_standard_opts_flag(self):
        unopt = compile_source(SRC, standard_opts=False)
        opt = compile_source(SRC)
        count = lambda p: sum(
            1 for _ in p.function("main").all_instructions()
        )
        assert count(opt) <= count(unopt)


class TestRoundTrip:
    def test_compile_run(self):
        program = compile_source(SRC)
        assert run(program).value == 15

    def test_clone_is_independent(self):
        program = compile_source(SRC)
        twin = clone_program(program)
        abcd(program)
        # The clone keeps its checks.
        assert run(twin).stats.total_checks > 0
        assert run(program).stats.total_checks == 0

    def test_abcd_returns_report(self):
        program = compile_source(SRC)
        report = abcd(program)
        assert report.analyzed == 4
        assert report.eliminated_count() == 4
        assert report.mean_steps > 0

    def test_pre_requires_profile(self):
        program = compile_source(SRC)
        with pytest.raises(ValueError):
            abcd(program, pre=True)

    def test_pre_with_profile(self):
        program = compile_source(SRC)
        prof = profile(program)
        report = abcd(program, pre=True, profile=prof)
        assert report.analyzed == 4

    def test_config_passthrough(self):
        program = compile_source(SRC)
        report = abcd(program, config=ABCDConfig(upper=False))
        assert report.analyzed_count("upper") == 0

    def test_optimized_program_verifies(self):
        from repro.ir.verifier import verify_program

        program = compile_source(SRC)
        abcd(program)
        verify_program(program)


def _force_pre_and_strict(config):
    program = compile_source(SRC)
    abcd(program, config=config, pre=True, strict=True, profile=profile(program))


def _strict_session(config):
    from repro.passes.session import CompilationSession

    CompilationSession(config, strict=True)


def _measure_with_pre(config):
    from repro.bench.harness import measure_program

    measure_program(compile_source(SRC), config=config, pre=True)


def _strict_gate(config):
    from repro.robustness.differential import gated_optimize

    gated_optimize(compile_source(SRC), config, strict=True)


class TestCallersConfigIsLeftAsPassed:
    """Entry points that force a flag force it on a copy of the config."""

    @pytest.mark.parametrize(
        "entry",
        [_force_pre_and_strict, _strict_session, _measure_with_pre, _strict_gate],
        ids=[
            "pipeline.abcd",
            "CompilationSession",
            "measure_program",
            "gated_optimize",
        ],
    )
    def test_entry_point(self, entry):
        config = ABCDConfig()
        entry(config)
        assert config == ABCDConfig()

    def test_pre_run_does_not_leak_into_the_next_run(self):
        from repro.bench.corpus import get
        from repro.bench.harness import run_benchmark

        config = ABCDConfig()
        with_pre = run_benchmark(get("bytemark"), config=config, pre=True)
        without = run_benchmark(get("bytemark"), config=config, pre=False)
        assert with_pre.report.pre_transformed > 0
        assert without.report.pre_transformed == 0
