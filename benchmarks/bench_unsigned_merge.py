"""E9 — merged unsigned checks (paper, Section 7.2).

"A trick that can merge an upper- and a lower-bound check into a single
check instruction ... performed as an unsigned comparison."  After ABCD,
the surviving check pairs are fused; a merged check costs 2 cycles in the
VM model instead of 3.  Measured: the extra cycle savings on the corpus'
residual checks.
"""

from __future__ import annotations

from repro.bench.corpus import CORPUS, get
from repro.core.abcd import ABCDConfig
from repro.core.extensions import merge_program_unsigned_checks
from repro.pipeline import abcd, clone_program, compile_source, run


def test_unsigned_merge_savings(benchmark):
    benchmark(
        lambda: merge_program_unsigned_checks(
            compile_source(get("Hanoi").source())
        )
    )

    print()
    print("E9 — cycle savings from merging residual check pairs (§7.2)")
    print(f"{'benchmark':<18}{'pairs':>7}{'cycles pre':>12}{'cycles post':>12}{'gain':>7}")
    total_pairs = 0
    for program_def in CORPUS:
        program = compile_source(program_def.source())
        abcd(program, ABCDConfig())
        unmerged = clone_program(program)
        report = merge_program_unsigned_checks(program)
        total_pairs += report.merged_pairs
        if report.merged_pairs == 0:
            continue
        pre = run(unmerged, "main", fuel=100_000_000).stats
        post = run(program, "main", fuel=100_000_000).stats
        gain = (pre.cycles - post.cycles) / pre.cycles
        print(
            f"{program_def.name:<18}{report.merged_pairs:>7}"
            f"{pre.cycles:>12}{post.cycles:>12}{gain:>7.1%}"
        )
        assert post.cycles <= pre.cycles
        assert post.unsigned_checks > 0
    print(f"{'TOTAL pairs':<18}{total_pairs:>7}")
    assert total_pairs > 0
