"""E6 — the running example (Figures 1, 3, 4).

Paper claim: "ABCD can eliminate all four bound checks in this example.
(To the best of our knowledge, no other existing Java compiler can fully
eliminate all the bounds checks in this example.)"

The corpus program ``biDirBubbleSort`` is the full Figure-1 code (both
scan loops).  This benchmark regenerates the claim and measures the
compile-time cost of the whole ABCD pass on it.
"""

from __future__ import annotations

from repro.bench.corpus import get
from repro.core.abcd import ABCDConfig
from repro.ir.instructions import CheckLower, CheckUpper
from repro.pipeline import abcd, compile_source


def test_all_checks_of_the_sort_eliminated(corpus_results, benchmark):
    def optimize():
        program = compile_source(get("biDirBubbleSort").source())
        return program, abcd(program, ABCDConfig())

    program, report = benchmark(optimize)

    sort_fn = program.function("sort")
    residual = [
        instr
        for instr in sort_fn.all_instructions()
        if isinstance(instr, (CheckLower, CheckUpper))
    ]
    print()
    print("E6 — running example (paper: all four checks eliminated)")
    sort_analyses = [a for a in report.analyses if a.function == "sort"]
    print(
        f"sort(): {len(sort_analyses)} checks analyzed, "
        f"{sum(a.eliminated for a in sort_analyses)} eliminated, "
        f"{len(residual)} residual instructions"
    )
    assert residual == []
    assert all(a.eliminated for a in sort_analyses)

    result = corpus_results["biDirBubbleSort"]
    print(
        f"dynamic: {result.base_stats.total_checks} checks -> "
        f"{result.opt_stats.total_checks + result.opt_stats.speculative_checks}"
    )
    assert result.dynamic_total_removed_fraction > 0.95
