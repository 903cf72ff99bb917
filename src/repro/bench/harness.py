"""The evaluation harness: regenerates the paper's tables and figures.

For one program the pipeline is:

1. compile to e-SSA and apply the standard pre-pass suite;
2. run the *unoptimized* program, recording per-check dynamic counts (and
   the edge profile PRE needs);
3. clone, optimize with ABCD, and run the optimized clone on the same
   input;
4. verify the observable result is identical and derive the dynamic /
   static removal statistics.

``run_benchmark`` runs this for one Figure-6 corpus program; the
``benchmarks/`` files and ``repro bench`` map it over the corpus and
format the resulting rows to match each experiment (E1–E8).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.bench.corpus import BenchmarkProgram
from repro.core.abcd import ABCDConfig, ABCDReport
from repro.ir.function import Program
from repro.passes.session import CompilationSession
from repro.pipeline import clone_program
from repro.runtime.interpreter import ExecutionStats, run_program
from repro.runtime.profiler import Profile, collect_profile


@dataclass
class BenchResult:
    """Everything measured for one corpus program."""

    name: str
    category: str
    report: ABCDReport
    base_stats: ExecutionStats
    opt_stats: ExecutionStats
    base_value: object
    opt_value: object
    profile: Profile
    #: Per-pass timing / analysis-cache telemetry of the session that
    #: compiled and optimized this program (``SessionStats.to_json()``).
    session_stats: Optional[Dict] = None

    # ------------------------------------------------------------------
    # Dynamic metrics (Figure 6).
    # ------------------------------------------------------------------

    @property
    def dynamic_upper_base(self) -> int:
        return self.base_stats.upper_checks

    @property
    def dynamic_upper_opt(self) -> int:
        """Upper-bound work still executed after ABCD: surviving checks
        plus PRE's speculative compensating upper checks."""
        speculative_upper = sum(
            count
            for check_id, count in self.opt_stats.check_counts.items()
            if check_id in self._speculative_upper_ids
        )
        return self.opt_stats.upper_checks + speculative_upper

    _speculative_upper_ids: set = field(default_factory=set)

    @property
    def dynamic_upper_removed_fraction(self) -> float:
        if self.dynamic_upper_base == 0:
            return 0.0
        removed = self.dynamic_upper_base - self.dynamic_upper_opt
        return max(0.0, removed / self.dynamic_upper_base)

    @property
    def dynamic_total_removed_fraction(self) -> float:
        base = self.base_stats.total_checks
        if base == 0:
            return 0.0
        survived = (
            self.opt_stats.total_checks + self.opt_stats.speculative_checks
        )
        return max(0.0, (base - survived) / base)

    def dynamic_upper_removed_split(self) -> Dict[str, float]:
        """Fraction of dynamic upper checks removed, split local/global by
        the scope classification of each eliminated check (weighted by its
        baseline execution count)."""
        base = self.dynamic_upper_base
        if base == 0:
            return {"local": 0.0, "global": 0.0}
        local = 0
        global_ = 0
        for analysis in self.report.analyses:
            if analysis.kind != "upper" or not analysis.eliminated:
                continue
            count = self.profile.check_frequency(analysis.check_id)
            if analysis.pre_applied:
                # PRE leaves a residue (speculative + guarded work);
                # account only the net dynamic reduction, globally.
                count = max(
                    0,
                    count
                    - self._optimized_residue(analysis.check_id),
                )
                global_ += count
            elif analysis.scope == "local":
                local += count
            else:
                global_ += count
        return {"local": local / base, "global": global_ / base}

    def _optimized_residue(self, check_id: int) -> int:
        return self.opt_stats.check_counts.get(check_id, 0)

    # ------------------------------------------------------------------
    # Static metrics (Section 8's 31% / 26% numbers).
    # ------------------------------------------------------------------

    @property
    def static_fully_redundant_fraction(self) -> float:
        analyzed = self.report.analyzed_count()
        if analyzed == 0:
            return 0.0
        fully = sum(
            1 for a in self.report.analyses if a.eliminated and not a.pre_applied
        )
        return fully / analyzed

    @property
    def static_partially_redundant_fraction(self) -> float:
        analyzed = self.report.analyzed_count()
        if analyzed == 0:
            return 0.0
        return self.report.pre_transformed / analyzed

    # ------------------------------------------------------------------
    # Cost-model metrics (the ~10% run-time improvement).
    # ------------------------------------------------------------------

    @property
    def cycle_improvement(self) -> float:
        base = self.base_stats.cycles
        if base == 0:
            return 0.0
        return (base - self.opt_stats.cycles) / base

    @property
    def behaviour_preserved(self) -> bool:
        return self.base_value == self.opt_value

    # ------------------------------------------------------------------
    # Robustness telemetry (pass rollbacks, solver budget exhaustion).
    # ------------------------------------------------------------------

    @property
    def pass_rollbacks(self) -> int:
        return self.report.rollback_count

    @property
    def budget_exhausted_checks(self) -> int:
        return self.report.budget_exhausted_count


def run_benchmark(
    program: BenchmarkProgram,
    config: Optional[ABCDConfig] = None,
    pre: bool = True,
    fuel: int = 100_000_000,
) -> BenchResult:
    """Run the full measurement pipeline for one corpus program."""
    session = CompilationSession(config=config)
    compiled = session.compile(program.source())
    return measure_program(
        compiled,
        name=program.name,
        category=program.category,
        config=config,
        pre=pre,
        fuel=fuel,
        session=session,
    )


def measure_program(
    compiled: Program,
    name: str = "program",
    category: str = "other",
    config: Optional[ABCDConfig] = None,
    pre: bool = True,
    fuel: int = 100_000_000,
    session: Optional[CompilationSession] = None,
) -> BenchResult:
    """Measurement pipeline for an already-compiled program.

    Pass the :class:`CompilationSession` that compiled ``compiled`` to get
    combined compile+optimize pass statistics on the result.
    """
    profile = collect_profile(compiled, "main", fuel=fuel)
    base_result = run_program(compiled, "main", fuel=fuel)

    optimized = clone_program(compiled)
    if session is None:
        session = CompilationSession(config=config)
    if pre and not session.config.pre:
        # A copy: the caller's config stays as passed.
        session.config = replace(session.config, pre=True)
    report = session.optimize(
        optimized, profile=profile if session.config.pre else None
    )
    opt_result = run_program(optimized, "main", fuel=fuel)

    speculative_upper_ids = {
        instr.check_id
        for fn in optimized.functions.values()
        for instr in fn.all_instructions()
        if type(instr).__name__ == "SpeculativeCheck" and instr.kind == "upper"
    }

    result = BenchResult(
        name=name,
        category=category,
        report=report,
        base_stats=base_result.stats,
        opt_stats=opt_result.stats,
        base_value=base_result.value,
        opt_value=opt_result.value,
        profile=profile,
        session_stats=session.stats.to_json(),
    )
    result._speculative_upper_ids = speculative_upper_ids
    return result


# ----------------------------------------------------------------------
# Formatting helpers shared by the benchmark files.
# ----------------------------------------------------------------------


def format_figure6(results: List[BenchResult]) -> str:
    """Render the Figure-6 table: % of dynamic upper-bound checks removed,
    with the local/global split for the SPEC group."""
    lines = [
        "Figure 6 — dynamic upper-bound checks removed (paper avg: 45%)",
        f"{'benchmark':<18}{'removed':>9}{'local':>9}{'global':>9}  bar",
    ]
    for result in results:
        frac = result.dynamic_upper_removed_fraction
        bar = "#" * int(round(frac * 40))
        if result.category == "spec":
            split = result.dynamic_upper_removed_split()
            lines.append(
                f"{result.name:<18}{frac:>8.1%}{split['local']:>8.1%}"
                f"{split['global']:>8.1%}  {bar}"
            )
        else:
            lines.append(f"{result.name:<18}{frac:>8.1%}{'-':>9}{'-':>9}  {bar}")
    mean = sum(r.dynamic_upper_removed_fraction for r in results) / len(results)
    lines.append(f"{'MEAN':<18}{mean:>8.1%}")
    rollbacks = sum(r.pass_rollbacks for r in results)
    exhausted = sum(r.budget_exhausted_checks for r in results)
    kinds: Dict[str, int] = {}
    for result in results:
        for kind, count in result.report.budget_exhausted_kinds().items():
            kinds[kind] = kinds.get(kind, 0) + count
    breakdown = (
        " (" + ", ".join(f"{kinds[k]} {k}" for k in sorted(kinds)) + ")"
        if kinds
        else ""
    )
    lines.append(
        f"robustness: {rollbacks} pass rollback(s), "
        f"{exhausted} budget-exhausted check(s){breakdown}"
    )
    emitted = sum(r.report.certificates_emitted for r in results)
    if emitted:
        lines.append(
            f"certificates: {emitted} emitted, "
            f"{sum(r.report.certificates_accepted for r in results)} accepted, "
            f"{sum(r.report.certificates_rejected for r in results)} rejected, "
            f"{sum(r.report.revoked_count for r in results)} revoked"
        )
    return "\n".join(lines)
