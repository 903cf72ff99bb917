#!/usr/bin/env python3
"""The dynamic-compilation scenario: optimize only the *hot* checks.

ABCD is demand-driven: "it can be applied to a set of frequently executed
(hot) bounds checks, which makes it suitable for the dynamic-compilation
setting" (abstract).  This example emulates a JIT:

1. run the program once with profiling (the interpreter's "baseline tier");
2. pick the checks covering 90% of dynamic check executions;
3. run ABCD on just those — a fraction of the compile-time work for
   almost all of the benefit.

Run:  python examples/hot_checks_jit.py
"""

from repro.core.abcd import ABCDConfig
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile

SOURCE = """
fn hot_kernel(a: int[], rounds: int): int {
  let acc: int = 0;
  for (let r: int = 0; r < rounds; r = r + 1) {
    for (let i: int = 0; i < len(a); i = i + 1) {
      acc = (acc + a[i]) % 1000000007;
    }
  }
  return acc;
}

fn cold_setup(a: int[]): void {
  // Runs once: its checks are cold.
  for (let i: int = 0; i < len(a); i = i + 1) {
    a[i] = i * 7 % 31;
  }
}

fn main(): int {
  let a: int[] = new int[256];
  cold_setup(a);
  return hot_kernel(a, 40);
}
"""


def main() -> None:
    program = compile_source(SOURCE)
    baseline = clone_program(program)

    # Tier 0: profile.
    profile = collect_profile(program, "main")
    total_checks = sum(profile.check_counts.values())
    print(f"profiling run: {total_checks} dynamic checks, "
          f"{len(profile.check_counts)} static check sites")

    # Tier 1: demand-driven ABCD on the hot set only.
    hot = set(profile.hottest_fraction(0.90))
    print(f"hot set: {len(hot)} checks cover 90% of executions")
    report = abcd(program, ABCDConfig(hot_checks=hot))
    print(f"analyzed {report.analyzed} checks "
          f"(instead of {len(profile.check_counts)}), "
          f"eliminated {report.eliminated_count()}, "
          f"total prove() steps: {report.total_steps}")

    base = run(baseline, "main")
    opt = run(program, "main")
    assert base.value == opt.value
    removed = base.stats.total_checks - opt.stats.total_checks
    print(f"\ndynamic checks: {base.stats.total_checks} -> "
          f"{opt.stats.total_checks} "
          f"({removed / base.stats.total_checks:.1%} removed by analyzing "
          f"only the hot sites)")

    # Contrast: exhaustive analysis of every check.
    everything = clone_program(baseline)
    full_report = abcd(everything, ABCDConfig())
    full = run(everything, "main")
    print(f"full analysis for reference: {full_report.analyzed} checks "
          f"analyzed, {full_report.total_steps} steps, "
          f"{full.stats.total_checks} dynamic checks remain")


if __name__ == "__main__":
    main()
