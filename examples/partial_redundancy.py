#!/usr/bin/env python3
"""Partial redundancy elimination of bounds checks (paper, Section 6).

A loop-invariant check cannot be proven redundant on *all* paths — it
either fails on the first iteration or never fails.  ABCD's PRE extension
hoists a *compensating* check onto the loop-entry edge, guided by the
execution profile, and guards the original so exceptions still fire at the
right place even when the speculation was wrong.

Run:  python examples/partial_redundancy.py
"""

from repro.core.abcd import ABCDConfig
from repro.ir.instructions import SpeculativeCheck
from repro.ir.printer import format_function
from repro.pipeline import abcd, clone_program, compile_source, run
from repro.runtime.profiler import collect_profile
from repro.runtime.values import ArrayValue

SOURCE = """
fn sample(data: int[], probe: int, rounds: int): int {
  // data[probe] is loop-invariant: `probe` is a parameter, so no full
  // redundancy proof exists — but one check before the loop suffices.
  let acc: int = 0;
  let r: int = 0;
  while (r < rounds) {
    acc = acc + data[probe];
    r = r + 1;
  }
  return acc;
}

fn main(): int {
  let data: int[] = new int[64];
  for (let i: int = 0; i < len(data); i = i + 1) {
    data[i] = i;
  }
  return sample(data, 17, 1000);
}
"""


def main() -> None:
    program = compile_source(SOURCE)
    baseline = clone_program(program)

    profile = collect_profile(program, "main")
    report = abcd(program, ABCDConfig(pre=True), profile)

    pre = [a for a in report.analyses if a.pre_applied]
    print(f"PRE transformed {len(pre)} check(s):")
    for analysis in pre:
        print(f"  check #{analysis.check_id} ({analysis.kind}) in "
              f"{analysis.function}/{analysis.block}: "
              f"{analysis.pre_insertions} compensating insertion(s)")

    print("\nsample() after the transformation "
          "(note speculate/guard instructions):")
    print(format_function(program.function("sample")))

    base = run(baseline, "main")
    opt = run(program, "main")
    assert base.value == opt.value
    survived = opt.stats.total_checks + opt.stats.speculative_checks
    print(f"\ndynamic checks: {base.stats.total_checks} -> {survived} "
          f"(of which speculative: {opt.stats.speculative_checks})")

    # The speculation-failure path: call the kernel with an out-of-range
    # probe under a guard that skips the access; the compensating check
    # fails *spuriously*, the guard flag rises, and behaviour is identical.
    print("\nspeculation-failure recovery:")
    big = ArrayValue(64)
    ok = run(program, "sample", [big, 17, 3])
    print(f"  in-range probe:  value={ok.value}, "
          f"speculation failures={ok.stats.speculation_failures}")
    from repro.errors import BoundsCheckError

    try:
        run(program, "sample", [big, 99, 3])
    except BoundsCheckError as exc:
        print(f"  out-of-range probe: raises at the original check "
              f"(#{exc.check_id}), exactly like the unoptimized program")


if __name__ == "__main__":
    main()
