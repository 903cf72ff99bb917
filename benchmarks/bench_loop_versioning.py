"""E8c — ABCD vs loop versioning (the [MMS98] restructuring comparator).

The paper argues code-duplicating approaches are "too expensive for a
dynamic compiler" and performs hoisting instead.  This benchmark
quantifies both sides on the corpus:

* dynamic checks removed (versioning only covers inductive loop checks;
  ABCD also removes straight-line subsumption, guard-derived, and —
  with PRE — loop-invariant checks);
* code growth (versioning clones loop bodies; ABCD only deletes).
"""

from __future__ import annotations

from repro.baselines.loop_versioning import version_program_loops
from repro.bench.corpus import CORPUS, get
from repro.core.abcd import ABCDConfig
from repro.frontend.parser import parse_source
from repro.frontend.semantic import check_program
from repro.ir.lowering import lower_program
from repro.opt import optimize_worklist
from repro.pipeline import abcd, compile_source, run
from repro.ssa.essa import construct_essa


def _program_size(program) -> int:
    return sum(1 for fn in program.functions.values() for _ in fn.all_instructions())


def _versioned_program(source: str):
    ast = parse_source(source)
    info = check_program(ast)
    program = lower_program(ast, info)
    report = version_program_loops(program)
    for fn in program.functions.values():
        construct_essa(fn)
        optimize_worklist(fn)
    return program, report


def test_versioning_vs_abcd(benchmark):
    benchmark(lambda: _versioned_program(get("Sieve").source()))

    print()
    print("E8c — dynamic checks removed and code growth: versioning vs ABCD")
    print(
        f"{'benchmark':<18}{'ver %':>8}{'abcd %':>8}{'ver growth':>12}{'abcd growth':>12}"
    )
    versioning_wins = abcd_wins = 0
    for program_def in CORPUS:
        plain = compile_source(program_def.source())
        base_run = run(plain, "main", fuel=100_000_000)
        base_checks = base_run.stats.total_checks
        plain_size = _program_size(plain)

        versioned, _ = _versioned_program(program_def.source())
        versioned_run = run(versioned, "main", fuel=100_000_000)
        assert versioned_run.value == base_run.value, program_def.name
        versioned_removed = 1 - versioned_run.stats.total_checks / base_checks
        versioned_growth = _program_size(versioned) / plain_size - 1

        optimized = compile_source(program_def.source())
        abcd(optimized, ABCDConfig())
        optimized_run = run(optimized, "main", fuel=100_000_000)
        assert optimized_run.value == base_run.value, program_def.name
        abcd_removed = 1 - optimized_run.stats.total_checks / base_checks
        abcd_growth = _program_size(optimized) / plain_size - 1

        if versioned_removed > abcd_removed + 0.01:
            versioning_wins += 1
        elif abcd_removed > versioned_removed + 0.01:
            abcd_wins += 1
        print(
            f"{program_def.name:<18}{versioned_removed:>8.1%}{abcd_removed:>8.1%}"
            f"{versioned_growth:>+12.1%}{abcd_growth:>+12.1%}"
        )
        # The structural claim: versioning grows code, ABCD shrinks it.
        assert abcd_growth <= 0.0
    print(f"coverage wins: abcd={abcd_wins} versioning={versioning_wins}")
    assert abcd_wins >= versioning_wins
