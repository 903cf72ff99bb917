"""E7 — partially redundant checks (Section 6).

The paper's device: delete ``limit := A.length`` from the running example,
which disconnects ``limit0`` from ``A.length`` in the inequality graph and
turns the loop checks loop-invariant (partially redundant).  PRE inserts a
compensating check ``A[limit0 + d]`` on the loop-entry edge and the
in-loop check disappears.

We reproduce the device as a function taking the bound as a parameter, and
additionally measure the bytemark kernels, the corpus's partial-redundancy
hot spot.
"""

from __future__ import annotations

from repro.core.abcd import ABCDConfig
from repro.ir.instructions import SpeculativeCheck
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile

SECTION6_SRC = """
fn scan(a: int[], limit: int): int {
  let s: int = 0;
  for (let j: int = 0; j < limit; j = j + 1) {
    s = s + a[j];
  }
  return s;
}
fn main(): int {
  let a: int[] = new int[128];
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i;
  }
  let total: int = 0;
  for (let round: int = 0; round < 16; round = round + 1) {
    total = total + scan(a, len(a));
  }
  return total;
}
"""


def test_section6_loop_invariant_check(benchmark, corpus_results):
    def transform():
        program = compile_source(SECTION6_SRC)
        profile = collect_profile(program, "main")
        report = abcd(program, ABCDConfig(pre=True), profile)
        return program, report

    program, report = benchmark(transform)
    base = compile_source(SECTION6_SRC)

    pre_checks = [a for a in report.analyses if a.pre_applied]
    speculative = [
        i
        for fn in program.functions.values()
        for i in fn.all_instructions()
        if isinstance(i, SpeculativeCheck)
    ]
    base_run = run(base, "main")
    opt_run = run(program, "main")

    print()
    print("E7 — PRE of the Section-6 loop-invariant check")
    print(
        f"PRE-transformed checks: {len(pre_checks)}; "
        f"compensating checks inserted: {len(speculative)}"
    )
    survived = opt_run.stats.total_checks + opt_run.stats.speculative_checks
    print(
        f"dynamic checks: {base_run.stats.total_checks} -> {survived} "
        f"(speculative: {opt_run.stats.speculative_checks}, "
        f"speculation failures: {opt_run.stats.speculation_failures})"
    )
    assert base_run.value == opt_run.value
    assert pre_checks and speculative
    # The hoisted check runs once per loop entry (16 rounds) instead of
    # once per iteration (16 * 128).
    assert survived < base_run.stats.total_checks / 10
    assert opt_run.stats.speculation_failures == 0

    bytemark = corpus_results["bytemark"]
    print(
        f"bytemark: {bytemark.report.pre_transformed} checks PRE-transformed, "
        f"{bytemark.static_partially_redundant_fraction:.1%} of static checks "
        "(paper: 26%)"
    )
    assert bytemark.report.pre_transformed >= 1
