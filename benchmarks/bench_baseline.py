"""E8b — ABCD vs the value-range analysis baseline.

Paper, Section 1: "Some simpler algorithms (e.g., those based upon
value-range analysis) cannot eliminate partially redundant checks" — and,
being purely numeric, they also miss every loop bounded by a symbolic
array length.  This benchmark quantifies the gap on the corpus.
"""

from __future__ import annotations

import dataclasses

from repro.baselines.range_analysis import eliminate_program_with_ranges
from repro.bench.corpus import CORPUS, get
from repro.core.abcd import ABCDConfig
from repro.pipeline import abcd, compile_source


def test_abcd_vs_range_analysis(benchmark):
    benchmark(
        lambda: eliminate_program_with_ranges(
            compile_source(get("Sieve").source(), standard_opts=False)
        )
    )

    print()
    print("E8b — static upper-check elimination: range analysis vs ABCD")
    print(f"{'benchmark':<18}{'checks':>8}{'range':>8}{'abcd':>8}")
    range_total = abcd_total = analyzed_total = 0
    for program_def in CORPUS:
        range_program = compile_source(program_def.source())
        range_report = eliminate_program_with_ranges(range_program)

        abcd_program = compile_source(program_def.source())
        abcd_report = abcd(abcd_program, ABCDConfig())

        analyzed = abcd_report.analyzed_count("upper")
        range_hits = range_report.eliminated_upper
        abcd_hits = abcd_report.eliminated_count("upper")
        analyzed_total += analyzed
        range_total += range_hits
        abcd_total += abcd_hits
        print(
            f"{program_def.name:<18}{analyzed:>8}"
            f"{range_hits / max(analyzed, 1):>8.1%}"
            f"{abcd_hits / max(analyzed, 1):>8.1%}"
        )
    print(
        f"{'TOTAL':<18}{analyzed_total:>8}"
        f"{range_total / analyzed_total:>8.1%}"
        f"{abcd_total / analyzed_total:>8.1%}"
    )
    assert abcd_total > range_total
