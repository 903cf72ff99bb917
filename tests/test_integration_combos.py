"""Cross-feature integration: optimizations composed end to end."""

import pytest

from repro.baselines.loop_versioning import version_program_loops
from repro.core.abcd import ABCDConfig
from repro.core.extensions import merge_program_unsigned_checks
from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.lowering import lower_program
from repro.ir.verifier import verify_program
from repro.opt import run_standard_pipeline
from repro.opt.inline import inline_program
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.codegen import compile_to_python
from repro.runtime.profiler import collect_profile
from repro.ssa.essa import construct_essa

SRC = """
fn get(a: int[], i: int): int {
  if (i >= 0 && i < len(a)) {
    return a[i];
  }
  return 0;
}
fn accumulate(a: int[], probe: int, rounds: int): int {
  let acc: int = 0;
  let r: int = 0;
  while (r < rounds) {
    acc = acc + a[probe];
    r = r + 1;
  }
  return acc;
}
fn main(): int {
  let a: int[] = new int[32];
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i * 3 - 7;
  }
  let total: int = 0;
  for (let q: int = 0; q < 40; q = q + 1) {
    total = total + get(a, q - 4);
  }
  total = total + accumulate(a, 11, 25);
  return total;
}
"""


def full_pipeline(source: str, inline: bool, pre: bool, merge: bool):
    """inline -> e-SSA -> std opts -> ABCD(+PRE) -> unsigned merge."""
    program = compile_source(source, inline=inline)
    profile = collect_profile(program, "main") if pre else None
    abcd(program, ABCDConfig(pre=pre), profile)
    if merge:
        merge_program_unsigned_checks(program)
    verify_program(program)
    return program


@pytest.mark.parametrize("inline", [False, True])
@pytest.mark.parametrize("pre", [False, True])
@pytest.mark.parametrize("merge", [False, True])
def test_all_pipeline_combinations_preserve_behaviour(inline, pre, merge):
    baseline = compile_source(SRC)
    expected = run(baseline, "main")
    program = full_pipeline(SRC, inline, pre, merge)
    result = run(program, "main")
    assert result.value == expected.value
    survived = result.stats.total_checks + result.stats.speculative_checks
    assert survived <= expected.stats.total_checks


def test_full_stack_through_compiled_tier():
    program = full_pipeline(SRC, inline=True, pre=True, merge=True)
    interpreted = run(clone_program(program), "main")
    compiled = compile_to_python(program).run("main")
    assert compiled.value == interpreted.value
    assert compiled.stats.total_checks == interpreted.stats.total_checks
    assert compiled.stats.cycles == interpreted.stats.cycles


def test_versioning_then_abcd_composes():
    """Versioning first, ABCD second: ABCD should clean up the checks the
    versioning tests make provable in the fast path (the version test's
    branch π bounds the loop)."""
    ast = parse_source(SRC)
    info = check_program(ast)
    program = lower_program(ast, info)
    version_program_loops(program)
    for fn in program.functions.values():
        construct_essa(fn)
        run_standard_pipeline(fn)
    baseline_value = run(compile_source(SRC), "main").value
    before = run(clone_program(program), "main")
    abcd(program, ABCDConfig())
    verify_program(program)
    after = run(program, "main")
    assert after.value == before.value == baseline_value
    assert after.stats.total_checks <= before.stats.total_checks


def test_inline_then_pre_hoists_more():
    """After inlining, accumulate()'s loop-invariant a[probe] check sits in
    main where probe is the constant 11 — fully provable without PRE."""
    plain = full_pipeline(SRC, inline=False, pre=False, merge=False)
    inlined = full_pipeline(SRC, inline=True, pre=False, merge=False)
    plain_run = run(plain, "main")
    inlined_run = run(inlined, "main")
    assert inlined_run.stats.total_checks <= plain_run.stats.total_checks


def test_report_scopes_follow_structure():
    program = compile_source(SRC)
    report = abcd(program, ABCDConfig())
    for analysis in report.analyses:
        if analysis.eliminated:
            assert analysis.scope in ("local", "global")
        else:
            assert analysis.scope is None
        assert analysis.steps >= 1
        assert analysis.seconds >= 0.0
